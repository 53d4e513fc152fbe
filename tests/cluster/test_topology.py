"""Tests for heterogeneous network topology and comm-aware scheming."""

import pytest

from repro.cluster.network import NetworkSpec
from repro.cluster.collectives import all_gather_seconds
from repro.cluster.topology import (
    HeterogeneousNetwork,
    comm_aware_scheme,
    ring_all_gather_seconds_exact,
)
from repro.core.layer import OrderPolicy
from repro.core.partition import PartitionScheme
from repro.core.planner import makespan_optimal_scheme
from repro.models.config import tiny_config


def uniform_network(k: int, mbps: float = 500.0) -> HeterogeneousNetwork:
    return HeterogeneousNetwork(
        device_bandwidth_mbps=tuple([mbps] * k),
        latency_seconds=4e-3,
        efficiency=1.0,
    )


class TestHeterogeneousNetwork:
    def test_link_rate_is_bottleneck_min(self):
        net = HeterogeneousNetwork((100.0, 500.0), efficiency=1.0)
        assert net.link_bytes_per_second(0, 1) == pytest.approx(100e6 / 8)
        assert net.link_bytes_per_second(1, 0) == pytest.approx(100e6 / 8)

    def test_terminal_link(self):
        net = HeterogeneousNetwork((100.0,), terminal_bandwidth_mbps=500.0, efficiency=1.0)
        assert net.terminal_link_bytes_per_second(0) == pytest.approx(100e6 / 8)

    def test_slowest(self):
        net = HeterogeneousNetwork((100.0, 500.0, 300.0), efficiency=1.0)
        assert net.slowest_bytes_per_second() == pytest.approx(100e6 / 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeterogeneousNetwork(())
        with pytest.raises(ValueError):
            HeterogeneousNetwork((0.0,))
        with pytest.raises(ValueError):
            HeterogeneousNetwork((100.0,), efficiency=0.0)
        net = HeterogeneousNetwork((100.0, 200.0))
        with pytest.raises(ValueError):
            net.link_bytes_per_second(0, 0)
        with pytest.raises(ValueError):
            net.link_bytes_per_second(0, 5)


class TestExactRingAllGather:
    def test_matches_homogeneous_formula(self):
        """Uniform links + uniform chunks → the closed-form cost model."""
        k, chunk = 4, 250_000.0
        net = uniform_network(k)
        exact = ring_all_gather_seconds_exact(net, [chunk] * k)
        reference = all_gather_seconds(
            NetworkSpec(bandwidth_mbps=500.0, latency_seconds=4e-3, efficiency=1.0),
            [chunk] * k,
        )
        assert exact == pytest.approx(reference)

    def test_single_device_free(self):
        assert ring_all_gather_seconds_exact(uniform_network(1), [1e6]) == 0.0

    def test_slow_nic_throttles_every_step(self):
        """One 100 Mbps device in a 500 Mbps ring: every chunk eventually
        crosses a slow link, so total time approaches the all-slow case."""
        k, chunk = 4, 1e6
        fast = ring_all_gather_seconds_exact(uniform_network(k, 500.0), [chunk] * k)
        one_slow = ring_all_gather_seconds_exact(
            HeterogeneousNetwork((100.0, 500.0, 500.0, 500.0), efficiency=1.0),
            [chunk] * k,
        )
        all_slow = ring_all_gather_seconds_exact(uniform_network(k, 100.0), [chunk] * k)
        assert fast < one_slow <= all_slow

    def test_balanced_chunks_minimise_ring_time(self):
        """In a ring every chunk crosses every link (including the slow
        ones), so skewing chunk sizes can only hurt: the step maximum is
        driven by the largest chunk.  De-skewing is the lever comm-aware
        scheming pulls against compute-proportional plans."""
        net = HeterogeneousNetwork((100.0, 500.0, 500.0), efficiency=1.0)
        even = ring_all_gather_seconds_exact(net, [1e6, 1e6, 1e6])
        skewed = ring_all_gather_seconds_exact(net, [2e5, 1.4e6, 1.4e6])
        assert even < skewed

    def test_chunk_arity_validated(self):
        with pytest.raises(ValueError):
            ring_all_gather_seconds_exact(uniform_network(3), [1e6, 1e6])


class TestCommAwareScheme:
    CONFIG = tiny_config(hidden_size=64, num_heads=8, ffn_dim=128)

    def _layer_time(self, scheme, n, gflops, net):
        parts = scheme.positions(n)
        compute = max(
            (OrderPolicy().layer_flops(self.CONFIG, n, p.length) / (g * 1e9)) if p.length else 0.0
            for p, g in zip(parts, gflops)
        )
        chunks = [p.length * self.CONFIG.hidden_size * 4 for p in parts]
        return compute + ring_all_gather_seconds_exact(net, chunks)

    def test_uniform_everything_stays_even(self):
        net = uniform_network(4)
        scheme = comm_aware_scheme(self.CONFIG, 120, [5.0] * 4, net)
        lengths = [p.length for p in scheme.positions(120)]
        assert max(lengths) - min(lengths) <= 2  # near-even

    def test_never_worse_than_compute_only_plan(self):
        n = 120
        gflops = [0.02, 0.02, 0.02, 0.02]
        net = HeterogeneousNetwork((50.0, 500.0, 500.0, 500.0), efficiency=1.0)
        compute_only = makespan_optimal_scheme(self.CONFIG, n, gflops)
        aware = comm_aware_scheme(self.CONFIG, n, gflops, net)
        assert self._layer_time(aware, n, gflops, net) <= self._layer_time(
            compute_only, n, gflops, net
        ) * (1 + 1e-9)

    def test_comm_dominated_regime_pulls_toward_even(self):
        """Fast compute + slow network + skewed CPU speeds: the compute-only
        plan skews partitions heavily; the joint optimum de-skews them
        because the ring time follows the largest chunk."""
        n = 120
        gflops = [10.0, 40.0, 40.0]  # fast CPUs: compute is negligible
        net = HeterogeneousNetwork((50.0, 50.0, 50.0), efficiency=1.0)
        compute_only = makespan_optimal_scheme(self.CONFIG, n, gflops)
        aware = comm_aware_scheme(self.CONFIG, n, gflops, net)
        assert max(aware.ratios) < max(compute_only.ratios)
        assert self._layer_time(aware, n, gflops, net) < self._layer_time(
            compute_only, n, gflops, net
        )

    def test_coverage_preserved(self):
        net = HeterogeneousNetwork((50.0, 500.0, 500.0), efficiency=1.0)
        scheme = comm_aware_scheme(self.CONFIG, 97, [1.0, 5.0, 5.0], net)
        assert sum(p.length for p in scheme.positions(97)) == 97

    @pytest.mark.parametrize("mode", ["naive", "reordered"])
    def test_every_flop_price_uses_the_callers_policy(self, mode, monkeypatch):
        """The SLSQP objective and the final comparison price partitions
        under the policy the caller passed, as the compute-only baseline
        they start from does."""
        modes = []
        real = OrderPolicy.layer_flops

        def spy(self, *args, **kwargs):
            modes.append(self.mode)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(OrderPolicy, "layer_flops", spy)
        net = HeterogeneousNetwork((50.0, 500.0, 500.0), efficiency=1.0)
        comm_aware_scheme(
            tiny_config(num_layers=2), 97, [1.0, 5.0, 5.0], net, policy=OrderPolicy(mode)
        )
        assert modes and set(modes) == {mode}

    def test_single_device(self):
        net = uniform_network(1)
        assert comm_aware_scheme(self.CONFIG, 50, [5.0], net) == PartitionScheme.single()

    def test_network_arity_validated(self):
        with pytest.raises(ValueError, match="devices"):
            comm_aware_scheme(self.CONFIG, 50, [5.0, 5.0], uniform_network(3))
