"""Tests for collective cost models and data operations."""

import math

import numpy as np
import pytest

from repro.cluster import collectives as coll
from repro.cluster.network import NetworkSpec

NET = NetworkSpec(bandwidth_mbps=800, latency_seconds=0.01, efficiency=1.0)
BPS = 800e6 / 8  # 1e8 B/s


class TestAllGatherCost:
    def test_even_chunks_formula(self):
        # 4 devices, 1 MB chunks: 3 steps of (10 ms + 0.01 s)
        t = coll.all_gather_seconds(NET, [1e6] * 4)
        assert t == pytest.approx(3 * (0.01 + 1e6 / BPS))

    def test_single_device_free(self):
        assert coll.all_gather_seconds(NET, [1e6]) == 0.0

    def test_bounded_by_largest_chunk(self):
        even = coll.all_gather_seconds(NET, [1e6, 1e6])
        skewed = coll.all_gather_seconds(NET, [2e6, 1e5])
        assert skewed > even

    def test_volume_matches_paper(self):
        # even chunks: per-device received volume is (K-1)/K of the tensor
        chunks = [1e6] * 4
        assert coll.all_gather_volume_bytes(chunks) == pytest.approx(3e6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coll.all_gather_seconds(NET, [])


class TestAllReduceCost:
    def test_volume_term(self):
        # K=4, 4 MB tensor → volume 2·3/4·4MB = 6 MB; rounds = 2·log2(4) = 4
        t = coll.all_reduce_seconds(NET, 4e6, 4)
        assert t == pytest.approx(4 * 0.01 + 6e6 / BPS)

    def test_rounds_grow_logarithmically(self):
        t4 = coll.all_reduce_seconds(NET, 0.0001, 4)
        t8 = coll.all_reduce_seconds(NET, 0.0001, 8)
        assert t8 / t4 == pytest.approx(math.log2(8) / math.log2(4), rel=0.01)

    def test_single_device_free(self):
        assert coll.all_reduce_seconds(NET, 1e6, 1) == 0.0

    def test_volume_bytes(self):
        assert coll.all_reduce_volume_bytes(4e6, 4) == pytest.approx(6e6)
        assert coll.all_reduce_volume_bytes(4e6, 1) == 0.0

    def test_two_allreduce_is_4x_one_allgather_volume(self):
        """Section V-C: 2 All-Reduces move 4× what one All-Gather moves."""
        n_f_bytes = 8e5
        k = 5
        gather = coll.all_gather_volume_bytes([n_f_bytes / k] * k)
        reduce2 = 2 * coll.all_reduce_volume_bytes(n_f_bytes, k)
        assert reduce2 / gather == pytest.approx(4.0)


class TestBroadcastAndGather:
    def test_tree_broadcast_steps(self):
        t = coll.broadcast_seconds(NET, 1e6, 4)
        steps = math.ceil(math.log2(5))
        assert t == pytest.approx(steps * (0.01 + 1e6 / BPS))

    def test_zero_bytes_free(self):
        assert coll.broadcast_seconds(NET, 0, 4) == 0.0

    def test_gather_serialises_on_terminal(self):
        t = coll.gather_seconds(NET, [1e6, 2e6, 0.0])
        assert t == pytest.approx((0.01 + 1e6 / BPS) + (0.01 + 2e6 / BPS))


class TestDataOps:
    def test_all_gather_concatenates_in_order(self, rng):
        parts = [rng.normal(size=(i + 1, 4)) for i in range(3)]
        out = coll.all_gather_arrays(parts)
        assert out.shape == (6, 4)
        np.testing.assert_array_equal(out[:1], parts[0])
        np.testing.assert_array_equal(out[1:3], parts[1])

    def test_all_gather_empty_rejected(self):
        with pytest.raises(ValueError):
            coll.all_gather_arrays([])

    def test_all_reduce_sums(self, rng):
        arrays = [rng.normal(size=(3, 3)) for _ in range(4)]
        np.testing.assert_allclose(
            coll.all_reduce_arrays(arrays), sum(arrays), atol=1e-12
        )

    def test_all_reduce_does_not_mutate_inputs(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        a_copy = a.copy()
        coll.all_reduce_arrays([a, b])
        np.testing.assert_array_equal(a, a_copy)

    def test_all_reduce_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            coll.all_reduce_arrays([np.zeros((2, 2)), np.zeros((3, 2))])
