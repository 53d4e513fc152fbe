"""Tests for the cluster cost helper."""

import pytest

from repro.cluster.simulator import ClusterSim
from repro.cluster.spec import ClusterSpec


@pytest.fixture
def sim():
    return ClusterSim(ClusterSpec.homogeneous(4, gflops=1.0, bandwidth_mbps=800))


class TestClusterSim:
    def test_compute_makespan_is_max(self, sim):
        # 1 GFLOP/s devices: [1e9, 2e9, 5e8, 1e9] FLOPs → 2 s makespan
        assert sim.compute_makespan([1e9, 2e9, 5e8, 1e9]) == pytest.approx(2.0)

    def test_makespan_validates_arity(self, sim):
        with pytest.raises(ValueError):
            sim.compute_makespan([1e9, 1e9])

    def test_heterogeneous_makespan(self):
        sim = ClusterSim(ClusterSpec.heterogeneous([1.0, 4.0]))
        # fast device does 4x work in the same time
        assert sim.compute_makespan([1e9, 4e9]) == pytest.approx(1.0)

    def test_collective_helpers_delegate(self, sim):
        assert sim.all_gather([1e6] * 4) > 0
        assert sim.all_reduce(1e6) > 0
        assert sim.broadcast(1e6) > 0
        assert sim.gather([1e6] * 4) > 0
        assert sim.point_to_point(1e6) > 0

    def test_terminal_compute(self, sim):
        assert sim.terminal_compute(2e9) == pytest.approx(2.0)

    def test_all_gather_overlapped_exposes_remainder(self, sim):
        chunk_bytes = [1e6] * 4
        full_reference = sim.all_gather(chunk_bytes)
        exposed, full = sim.all_gather_overlapped(
            chunk_bytes, hideable_seconds=full_reference / 2
        )
        assert full == pytest.approx(full_reference)
        assert exposed == pytest.approx(full / 2)

    def test_all_gather_overlapped_clamps_at_zero(self, sim):
        exposed, full = sim.all_gather_overlapped([1e6] * 4, hideable_seconds=1e9)
        assert exposed == 0.0
        assert full > 0.0

    def test_all_gather_overlapped_zero_hideable_is_blocking(self, sim):
        chunk_bytes = [1e6] * 4
        exposed, full = sim.all_gather_overlapped(chunk_bytes, hideable_seconds=0.0)
        assert exposed == pytest.approx(full)

    def test_all_gather_overlapped_rejects_negative_hideable(self, sim):
        with pytest.raises(ValueError):
            sim.all_gather_overlapped([1e6] * 4, hideable_seconds=-1.0)

