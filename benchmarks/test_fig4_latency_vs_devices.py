"""Fig. 4 — end-to-end inference latency vs device count (BERT/ViT/GPT-2).

Regenerates all three sub-figures and benchmarks the end-to-end latency
evaluation for each system at the paper's operating point (K=6, 500 Mbps).
"""

import pytest

from repro.bench import figures
from repro.bench.workloads import paper_workloads
from repro.cluster.spec import paper_cluster
from repro.systems.single_device import single_device_timeline
from repro.systems.tensor_parallel import tensor_parallel_timeline
from repro.systems.voltage import voltage_timeline

WORKLOADS = paper_workloads()


@pytest.mark.figure
def test_regenerate_figure4(benchmark):
    """Regenerate Fig. 4 (all three sub-figures) and check its shape:
    Voltage improves over single device; TP does not."""
    fig4_results = benchmark.pedantic(figures.figure4, rounds=1, iterations=1)
    for fig in fig4_results.values():
        print()
        print(fig.format_table())
    for key, fig in fig4_results.items():
        voltage = fig.series_by_label("Voltage")
        tensor = fig.series_by_label("Tensor Parallelism")
        assert min(voltage.ys) < voltage.y_at(1), key
        assert tensor.y_at(6) > tensor.y_at(1), key


@pytest.mark.parametrize("key", ["bert", "vit", "gpt2"])
def test_bench_voltage_latency_evaluation(benchmark, key):
    workload = WORKLOADS[key]
    cluster = paper_cluster(6)
    result = benchmark(
        lambda: voltage_timeline(
            workload.config, workload.n, cluster,
            pre_flops=workload.pre_flops, post_flops=workload.post_flops,
        )[0].total_seconds
    )
    assert result > 0


@pytest.mark.parametrize("key", ["bert", "vit", "gpt2"])
def test_bench_tensor_parallel_latency_evaluation(benchmark, key):
    workload = WORKLOADS[key]
    cluster = paper_cluster(6)
    result = benchmark(
        lambda: tensor_parallel_timeline(
            workload.config, workload.n, cluster,
            pre_flops=workload.pre_flops, post_flops=workload.post_flops,
        )[0].total_seconds
    )
    assert result > 0


def test_bench_single_device_latency_evaluation(benchmark):
    workload = WORKLOADS["bert"]
    cluster = paper_cluster(1)
    result = benchmark(
        lambda: single_device_timeline(
            workload.config, workload.n, cluster, post_flops=workload.post_flops
        )[0].total_seconds
    )
    assert result > 0
