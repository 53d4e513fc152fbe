"""Section V-C — the 4× communication reduction claim.

Regenerates the analytic volume table and cross-checks it against *actual*
bytes moved by the threaded runtime executing both protocols on a scaled
model, then benchmarks the two collective implementations themselves.
"""

import numpy as np
import pytest

from repro.bench import figures
from repro.cluster.runtime import ThreadedRuntime
from repro.cluster.spec import ClusterSpec
from repro.core.planner import tensor_parallel_layer_bytes, voltage_layer_bytes
from repro.models import BertModel, tiny_config
from repro.systems import TensorParallelSystem, VoltageSystem


@pytest.mark.figure
def test_regenerate_comm_table(benchmark):
    comm_table = benchmark.pedantic(figures.comm_volume_table, rounds=1, iterations=1)
    print()
    print(comm_table.format_table())
    for label in ("BERT-Large", "ViT-B/16", "GPT-2"):
        voltage = comm_table.series_by_label(f"Voltage {label}")
        tensor = comm_table.series_by_label(f"TP {label}")
        for k in voltage.xs:
            assert tensor.y_at(k) / voltage.y_at(k) == pytest.approx(4.0)


@pytest.mark.figure
def test_measured_bytes_match_formulas(benchmark):
    """Run both protocols for real and reconcile measured traffic."""
    model = BertModel(tiny_config(num_layers=4), rng=np.random.default_rng(0))
    cluster = ClusterSpec.homogeneous(4, gflops=5.0)
    ids = model.encode_text("count every byte moving between these devices " * 2)
    n, f = len(ids), model.config.hidden_size

    def run_both():
        _, v_stats = VoltageSystem(model, cluster).execute_distributed(ids)
        _, t_stats = TensorParallelSystem(model, cluster).execute_distributed(ids)
        return v_stats, t_stats

    v_stats, t_stats = benchmark.pedantic(run_both, rounds=1, iterations=1)

    v_expected = voltage_layer_bytes(n, f, 4) * model.num_layers
    t_expected = tensor_parallel_layer_bytes(n, f, 4) * model.num_layers
    print(
        f"\nmeasured per-device bytes: voltage={v_stats[0].bytes_received:.0f} "
        f"(formula {v_expected:.0f}), tp={t_stats[0].bytes_received:.0f} "
        f"(formula {t_expected:.0f}), "
        f"ratio={t_stats[0].bytes_received / v_stats[0].bytes_received:.2f}x"
    )
    assert v_stats[0].bytes_received == pytest.approx(v_expected, rel=0.15)
    assert t_stats[0].bytes_received == pytest.approx(t_expected, rel=0.01)


def test_bench_threaded_all_gather(benchmark):
    runtime = ThreadedRuntime(4)
    chunk = np.zeros((50, 768), dtype=np.float32)

    def round_trip():
        results, _ = runtime.run(lambda ctx: ctx.all_gather(chunk))
        return results[0]

    out = benchmark(round_trip)
    assert out.shape == (200, 768)


def test_bench_threaded_all_reduce(benchmark):
    runtime = ThreadedRuntime(4)
    partial = np.zeros((200, 768), dtype=np.float32)

    def round_trip():
        results, _ = runtime.run(lambda ctx: ctx.all_reduce(partial))
        return results[0]

    out = benchmark(round_trip)
    assert out.shape == (200, 768)
