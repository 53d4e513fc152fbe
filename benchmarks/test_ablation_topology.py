"""Ablation — heterogeneous NIC bandwidths and comm-aware partitioning.

The paper assumes a uniform bandwidth cap; real edge clusters mix radios.
This bench measures (a) how much one slow NIC costs a ring All-Gather and
(b) what joint compute+communication partition planning recovers relative
to compute-only planning in comm-dominated regimes.
"""

import pytest

from repro.cluster.topology import (
    HeterogeneousNetwork,
    comm_aware_scheme,
    ring_all_gather_seconds_exact,
)
from repro.core.layer import OrderPolicy
from repro.core.partition import PartitionScheme
from repro.core.planner import makespan_optimal_scheme
from repro.models.config import bert_large_config

CONFIG = bert_large_config()
N = 202


def _layer_time(scheme: PartitionScheme, gflops, net) -> float:
    parts = scheme.positions(N)
    compute = max(
        (OrderPolicy().layer_flops(CONFIG, N, p.length) / (g * 1e9)) if p.length else 0.0
        for p, g in zip(parts, gflops)
    )
    chunks = [p.length * CONFIG.hidden_size * 4 for p in parts]
    return compute + ring_all_gather_seconds_exact(net, chunks)


@pytest.mark.figure
def test_slow_nic_cost_table(benchmark):
    """Per-layer time with 0..3 slow (100 Mbps) NICs in a 6-device ring."""

    def sweep():
        rows = {}
        gflops = [26.0] * 6
        for slow_count in range(4):
            bandwidths = tuple([100.0] * slow_count + [500.0] * (6 - slow_count))
            net = HeterogeneousNetwork(bandwidths)
            rows[slow_count] = _layer_time(PartitionScheme.even(6), gflops, net)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nslow NICs -> per-layer time (ms):",
          {k: round(v * 1e3, 2) for k, v in rows.items()})
    # one slow NIC already throttles the whole ring; more barely add
    assert rows[1] > rows[0] * 1.5
    assert rows[3] < rows[1] * 1.7


@pytest.mark.figure
def test_comm_aware_vs_compute_only(benchmark):
    """Fast CPUs + skewed speeds + slow uniform network: the joint planner
    must recover a meaningful fraction of the skew-induced comm loss."""
    gflops = [60.0, 240.0, 240.0, 240.0]
    net = HeterogeneousNetwork((80.0,) * 4)

    def plan_both():
        compute_only = makespan_optimal_scheme(CONFIG, N, gflops)
        aware = comm_aware_scheme(CONFIG, N, gflops, net)
        return compute_only, aware

    compute_only, aware = benchmark.pedantic(plan_both, rounds=1, iterations=1)
    t_compute_only = _layer_time(compute_only, gflops, net)
    t_aware = _layer_time(aware, gflops, net)
    t_even = _layer_time(PartitionScheme.even(4), gflops, net)
    print(f"\nper-layer time: compute-only {t_compute_only * 1e3:.2f} ms, "
          f"comm-aware {t_aware * 1e3:.2f} ms, even {t_even * 1e3:.2f} ms")
    assert t_aware <= t_compute_only * (1 + 1e-9)
    assert t_aware <= t_even * (1 + 1e-9)


def test_bench_exact_ring_allgather(benchmark):
    net = HeterogeneousNetwork((100.0, 500.0, 500.0, 500.0, 500.0, 500.0))
    chunks = [34 * 1024 * 4.0] * 6
    result = benchmark(lambda: ring_all_gather_seconds_exact(net, chunks))
    assert result > 0


def test_bench_comm_aware_planner(benchmark):
    gflops = [26.0, 52.0, 52.0, 104.0]
    net = HeterogeneousNetwork((100.0, 500.0, 500.0, 500.0))
    scheme = benchmark.pedantic(
        lambda: comm_aware_scheme(CONFIG, N, gflops, net), rounds=3, iterations=1
    )
    assert sum(p.length for p in scheme.positions(N)) == N
