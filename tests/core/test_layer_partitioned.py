"""Tests for Algorithm 1 — the partitioned transformer layer executor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.complexity import EQ3, EQ8
from repro.core.layer import OrderPolicy, PartitionedLayerExecutor, full_layer_flops
from repro.core.partition import Partition, PartitionScheme
from repro.models.config import tiny_config
from repro.models.layer import TransformerLayer


def make_layer(norm_style="post", causal=False, seed=1, **overrides):
    cfg = tiny_config(
        norm_style=norm_style,
        is_causal=causal,
        type_vocab_size=0,
        **overrides,
    )
    return TransformerLayer(cfg, rng=np.random.default_rng(seed))


class TestAlgorithm1Equivalence:
    @pytest.mark.parametrize("norm_style", ["post", "pre"])
    @pytest.mark.parametrize("causal", [False, True])
    def test_partition_equals_full_slice(self, rng, norm_style, causal):
        layer = make_layer(norm_style, causal)
        executor = PartitionedLayerExecutor(layer)
        x = rng.normal(size=(16, 32)).astype(np.float32)
        full = layer(x)
        for start, stop in [(0, 16), (0, 5), (5, 11), (15, 16)]:
            out = executor.forward_partition(x, Partition(start, stop))
            np.testing.assert_allclose(out, full[start:stop], atol=1e-4)

    @pytest.mark.parametrize("order", [EQ3, EQ8], ids=["eq3", "eq8"])
    def test_forced_order_gives_same_result(self, rng, order):
        layer = make_layer()
        executor = PartitionedLayerExecutor(layer)
        x = rng.normal(size=(12, 32)).astype(np.float32)
        full = layer(x)
        out = executor.forward_partition(x, Partition(3, 9), order=order)
        np.testing.assert_allclose(out, full[3:9], atol=1e-4)

    def test_partitions_reassemble_full_output(self, rng):
        layer = make_layer()
        executor = PartitionedLayerExecutor(layer)
        x = rng.normal(size=(20, 32)).astype(np.float32)
        parts = PartitionScheme.even(4).positions(20)
        tiles = [executor.forward_partition(x, p) for p in parts]
        np.testing.assert_allclose(np.concatenate(tiles), layer(x), atol=1e-4)

    def test_empty_partition_returns_empty(self, rng):
        layer = make_layer()
        executor = PartitionedLayerExecutor(layer)
        x = rng.normal(size=(8, 32)).astype(np.float32)
        out = executor.forward_partition(x, Partition(4, 4))
        assert out.shape == (0, 32)

    def test_out_of_range_partition_rejected(self, rng):
        executor = PartitionedLayerExecutor(make_layer())
        x = rng.normal(size=(8, 32)).astype(np.float32)
        with pytest.raises(ValueError, match="out of range"):
            executor.forward_partition(x, Partition(5, 9))

    @given(
        n=st.integers(2, 24),
        seed=st.integers(0, 500),
        norm_style=st.sampled_from(["post", "pre"]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_random_partitions_match(self, n, seed, norm_style, data):
        rng = np.random.default_rng(seed)
        layer = make_layer(norm_style, seed=seed)
        executor = PartitionedLayerExecutor(layer)
        x = rng.normal(size=(n, 32)).astype(np.float32)
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.integers(start + 1, n))
        out = executor.forward_partition(x, Partition(start, stop))
        np.testing.assert_allclose(out, layer(x)[start:stop], atol=1e-4)


class TestOrderPolicy:
    def test_adaptive_matches_theorem2(self):
        executor = PartitionedLayerExecutor(make_layer(hidden_size=64, num_heads=8))
        # F=64, F_H=8 → threshold (64-8)/(64·8) = 0.109; N=20, P=2 → 0.45 > thr
        assert executor.select_order(20, 2) == EQ8
        assert executor.select_order(20, 20) == EQ3

    def test_fixed_policies(self):
        layer = make_layer()
        assert PartitionedLayerExecutor(layer, OrderPolicy("naive")).select_order(20, 1) == EQ3
        assert (
            PartitionedLayerExecutor(layer, OrderPolicy("reordered")).select_order(20, 20)
            == EQ8
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown order policy"):
            OrderPolicy("greedy")

    def test_empty_partition_rejected_for_order_selection(self):
        executor = PartitionedLayerExecutor(make_layer())
        with pytest.raises(ValueError, match="non-empty"):
            executor.select_order(10, 0)


class TestFlopAccounting:
    def test_full_flops_uses_eq3_at_p_equals_n(self):
        config = make_layer().config
        assert full_layer_flops(config, 16) == OrderPolicy().layer_flops(config, 16, 16, order=EQ3)

    def test_layer_flops_monotone(self):
        config = make_layer().config
        values = [OrderPolicy().layer_flops(config, 64, p) for p in range(1, 65, 7)]
        assert values == sorted(values)

    def test_adaptive_flops_never_exceed_fixed_orders(self):
        config = make_layer(hidden_size=64, num_heads=8).config
        policy = OrderPolicy()
        for p in range(1, 33):
            adaptive = policy.layer_flops(config, 32, p)
            assert adaptive <= policy.layer_flops(config, 32, p, order=EQ3)
            assert adaptive <= policy.layer_flops(config, 32, p, order=EQ8)

    def test_shares_weights_with_wrapped_layer(self, rng):
        """The executor must not copy weights (replica deployment model)."""
        layer = make_layer()
        executor = PartitionedLayerExecutor(layer)
        x = rng.normal(size=(10, 32)).astype(np.float32)
        before = executor.forward_partition(x, Partition(0, 5))
        layer.attention.query.weight.data = layer.attention.query.weight.data * 2.0
        after = executor.forward_partition(x, Partition(0, 5))
        assert not np.allclose(before, after)
