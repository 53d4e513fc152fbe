"""Figure and table runners — one per table/figure in the paper's evaluation.

Each function regenerates the corresponding result as a
:class:`~repro.bench.harness.FigureResult` (see DESIGN.md's experiment
index):

- :func:`figure4`  — inference latency vs device count (Fig. 4 a/b/c);
- :func:`figure5`  — inference latency vs bandwidth at K=6 (Fig. 5 a/b/c);
- :func:`figure6`  — self-attention partition speed-up (Fig. 6 a/b/c),
  wall-clock-measured or FLOP-model based;
- :func:`comm_volume_table` — Section V-C's 4× communication claim;
- :func:`ablation_order_choice` — adaptive vs fixed computation orders;
- :func:`ablation_heterogeneous` — partition schemes on unequal devices;
- :func:`headline_summary` — the Section VI-B text claims in one dict.
"""

from __future__ import annotations

import numpy as np

from repro.bench import analytic
from repro.bench.harness import FigureResult, Series, time_callable
from repro.bench.workloads import Workload, paper_workloads
from repro.cluster.spec import ClusterSpec, paper_cluster
from repro.cluster.timeline import LatencyBreakdown
from repro.core import complexity
from repro.core.complexity import EQ3
from repro.core.layer import OrderPolicy
from repro.core.orders import AttentionParams, attention_full, attention_partition
from repro.core.partition import PartitionScheme
from repro.core.planner import comm_report, makespan_optimal_scheme
from repro.models.config import bert_large_config

__all__ = [
    "figure4",
    "figure5",
    "figure6",
    "comm_volume_table",
    "ablation_order_choice",
    "ablation_heterogeneous",
    "ablation_dynamic_schemes",
    "fleet_autoscale_timeline",
    "ablation_comm_precision",
    "ablation_overlap",
    "ablation_decode_attention",
    "memory_tradeoff_table",
    "headline_summary",
]

_SUBFIG = {"bert": "a", "vit": "b", "gpt2": "c"}


def _breakdown(model, workload: Workload, cluster: ClusterSpec, **settings) -> LatencyBreakdown:
    """One ``analytic.*_latency`` model over a paper workload's shapes."""
    return model(
        workload.config, workload.n, cluster,
        pre_flops=workload.pre_flops, post_flops=workload.post_flops, **settings,
    )


def _single_latency(workload: Workload, cluster: ClusterSpec) -> float:
    single = cluster.with_num_devices(1)
    return _breakdown(analytic.single_device_latency, workload, single).total_seconds


def _voltage_latency(workload: Workload, cluster: ClusterSpec, **settings) -> float:
    return _breakdown(analytic.voltage_latency, workload, cluster, **settings).total_seconds


def _tp_latency(workload: Workload, cluster: ClusterSpec) -> float:
    return _breakdown(analytic.tensor_parallel_latency, workload, cluster).total_seconds


def figure4(
    bandwidth_mbps: float = 500.0,
    max_devices: int = 6,
    workloads: dict[str, Workload] | None = None,
) -> dict[str, FigureResult]:
    """Fig. 4: latency vs device count for BERT / ViT / GPT-2.

    K=1 is the single-device deployment for both series, as in the paper's
    bar charts.
    """
    workloads = workloads if workloads is not None else paper_workloads()
    results = {}
    for key, workload in workloads.items():
        fig = FigureResult(
            name=f"fig4{_SUBFIG.get(key, key)}",
            title=f"{workload.label} inference latency vs device number",
            xlabel="devices",
            ylabel="latency (s)",
        )
        voltage = Series("Voltage")
        tensor = Series("Tensor Parallelism")
        single = _single_latency(workload, paper_cluster(1, bandwidth_mbps))
        for k in range(1, max_devices + 1):
            cluster = paper_cluster(k, bandwidth_mbps)
            if k == 1:
                voltage.add(1, single)
                tensor.add(1, single)
                continue
            voltage.add(k, _voltage_latency(workload, cluster))
            tensor.add(k, _tp_latency(workload, cluster))
        fig.series = [tensor, voltage]
        fig.notes.append(f"single-device reference: {single:.4f} s")
        results[key] = fig
    return results


def figure5(
    bandwidths: tuple[float, ...] = (200, 300, 400, 500, 600, 700, 800, 900, 1000),
    num_devices: int = 6,
    workloads: dict[str, Workload] | None = None,
) -> dict[str, FigureResult]:
    """Fig. 5: latency vs bandwidth at K=6; single-device dashed line."""
    workloads = workloads if workloads is not None else paper_workloads()
    results = {}
    for key, workload in workloads.items():
        fig = FigureResult(
            name=f"fig5{_SUBFIG.get(key, key)}",
            title=f"{workload.label} inference latency vs bandwidth (K={num_devices})",
            xlabel="bandwidth (Mbps)",
            ylabel="latency (s)",
        )
        voltage = Series("Voltage")
        tensor = Series("Tensor Parallelism")
        single = Series("Single Device")
        for bandwidth in bandwidths:
            cluster = paper_cluster(num_devices, bandwidth)
            voltage.add(bandwidth, _voltage_latency(workload, cluster))
            tensor.add(bandwidth, _tp_latency(workload, cluster))
            single.add(bandwidth, _single_latency(workload, cluster))
        fig.series = [tensor, voltage, single]
        results[key] = fig
    return results


# ---------------------------------------------------------------------------
# Fig. 6 — isolated multi-head attention speed-up
# ---------------------------------------------------------------------------

#: The paper's three synthetic layer settings (H, F_H); all have F = 1024.
FIG6_SETTINGS = ((16, 64), (8, 128), (4, 256))
FIG6_LENGTHS = (100, 200, 300)


def _random_attention_params(
    num_heads: int, head_dim: int, f: int, rng: np.random.Generator
) -> AttentionParams:
    total = num_heads * head_dim
    scale = 1.0 / np.sqrt(f)
    return AttentionParams(
        wq=rng.normal(0, scale, size=(f, total)).astype(np.float32),
        wk=rng.normal(0, scale, size=(f, total)).astype(np.float32),
        wv=rng.normal(0, scale, size=(f, total)).astype(np.float32),
        num_heads=num_heads,
    )


def _mha_flop_cost(order, n: int, p: int, f: int, fh: int, num_heads: int) -> float:
    """Total multi-head FLOPs of one strategy (per-head cost × H)."""
    return num_heads * complexity.attention_order_cost(order, n, p, f, fh).total


def figure6(
    settings: tuple[tuple[int, int], ...] = FIG6_SETTINGS,
    input_lengths: tuple[int, ...] = FIG6_LENGTHS,
    partition_counts: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10),
    f: int = 1024,
    mode: str = "measured",
    repeats: int = 5,
    seed: int = 0,
) -> dict[str, FigureResult]:
    """Fig. 6: MHA partition speed-up ratio, Voltage vs naive Eq. (3).

    ``mode="measured"`` times the real NumPy computations (the paper's
    methodology); ``mode="model"`` uses the Γ(·) FLOP model — deterministic
    and fast, used by the test-suite.  Speed-up = cost(full output) /
    cost(partition of length P = N/K).
    """
    if mode not in ("measured", "model"):
        raise ValueError(f"mode must be 'measured' or 'model', got {mode!r}")
    rng = np.random.default_rng(seed)
    results = {}
    for index, (num_heads, head_dim) in enumerate(settings):
        if num_heads * head_dim != f:
            raise ValueError(
                f"setting (H={num_heads}, F_H={head_dim}) incompatible with F={f}"
            )
        sub = chr(ord("a") + index)
        fig = FigureResult(
            name=f"fig6{sub}",
            title=f"MHA partition speed-up (H={num_heads}, F_H={head_dim})",
            xlabel="partitions (K)",
            ylabel="speed-up ratio",
        )
        params = _random_attention_params(num_heads, head_dim, f, rng)
        for n in input_lengths:
            x = rng.normal(size=(n, f)).astype(np.float32)
            if mode == "measured":
                t_full = time_callable(lambda: attention_full(x, params), repeats=repeats)
            else:
                t_full = _mha_flop_cost(EQ3, n, n, f, head_dim, num_heads)
            voltage = Series(f"Voltage (N={n})")
            naive = Series(f"Naive (N={n})")
            for k in partition_counts:
                p = max(1, round(n / k))
                adaptive_order = complexity.select_order(n, p, f, head_dim)
                if mode == "measured":
                    t_voltage = time_callable(
                        lambda: attention_partition(x, 0, p, params, adaptive_order),
                        repeats=repeats,
                    )
                    t_naive = time_callable(
                        lambda: attention_partition(x, 0, p, params, EQ3),
                        repeats=repeats,
                    )
                else:
                    t_voltage = _mha_flop_cost(adaptive_order, n, p, f, head_dim, num_heads)
                    t_naive = _mha_flop_cost(EQ3, n, p, f, head_dim, num_heads)
                voltage.add(k, t_full / t_voltage)
                naive.add(k, t_full / t_naive)
            fig.series.extend([voltage, naive])
        fig.notes.append(f"mode={mode}")
        results[f"h{num_heads}"] = fig
    return results


# ---------------------------------------------------------------------------
# Communication volume (Section V-C)
# ---------------------------------------------------------------------------


def comm_volume_table(
    device_counts: tuple[int, ...] = (2, 3, 4, 5, 6),
    workloads: dict[str, Workload] | None = None,
) -> FigureResult:
    """Per-device per-layer traffic: Voltage vs tensor parallelism (MB)."""
    workloads = workloads if workloads is not None else paper_workloads()
    fig = FigureResult(
        name="comm_volume",
        title="Per-device per-layer communication volume",
        xlabel="devices",
        ylabel="MB / layer / device",
    )
    for key, workload in workloads.items():
        voltage = Series(f"Voltage {workload.label}")
        tensor = Series(f"TP {workload.label}")
        for k in device_counts:
            report = comm_report(workload.config, workload.n, k)
            voltage.add(k, report.voltage_bytes_per_layer / 1e6)
            tensor.add(k, report.tensor_parallel_bytes_per_layer / 1e6)
        fig.series.extend([voltage, tensor])
    fig.notes.append("TP / Voltage ratio is exactly 4x at every K (Section V-C)")
    return fig


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------


def ablation_order_choice(
    n: int = 200,
    f: int = 1024,
    head_dim: int = 64,
    num_heads: int = 16,
    partition_counts: tuple[int, ...] = tuple(range(1, 13)),
) -> FigureResult:
    """Adaptive order selection vs fixed Eq. (3) / Eq. (8) — per-head FLOPs.

    Validates Theorem 2: the adaptive curve is the pointwise minimum, and
    the crossover sits at Theorem 3's K* = (F-F_H)/(F·F_H)·N + 1.
    """
    fig = FigureResult(
        name="ablation_orders",
        title=f"Attention FLOPs per device (N={n}, F={f}, F_H={head_dim})",
        xlabel="partitions (K)",
        ylabel="MFLOPs / head",
    )
    eq3 = Series("fixed Eq.(3)")
    eq8 = Series("fixed Eq.(8)")
    adaptive = Series("adaptive (Theorem 2)")
    for k in partition_counts:
        p = max(1, round(n / k))
        cost3 = complexity.gamma_eq3(n, p, f, head_dim).total / 1e6
        cost8 = complexity.gamma_eq8(n, p, f, head_dim).total / 1e6
        order = complexity.select_order(n, p, f, head_dim)
        chosen = complexity.attention_order_cost(order, n, p, f, head_dim).total / 1e6
        eq3.add(k, cost3)
        eq8.add(k, cost8)
        adaptive.add(k, chosen)
    fig.series = [eq3, eq8, adaptive]
    fig.notes.append(
        f"Theorem 3 switch point K* = {complexity.theorem3_min_partitions(n, f, head_dim):.2f}"
    )
    return fig


def ablation_heterogeneous(
    speed_ratios: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0, 4.0),
    base_gflops: float = 26.0,
    bandwidth_mbps: float = 500.0,
    n: int = 202,
) -> FigureResult:
    """Partition schemes on a 4-device cluster with two fast, two slow devices.

    Device speeds are ``[g, g, g·r, g·r]`` for ratio ``r``; compares the
    paper's even 1/K split against speed-proportional ratios and the
    makespan-optimal scheme from :mod:`repro.core.planner` (the paper's
    future-work extension).
    """
    config = bert_large_config()
    fig = FigureResult(
        name="ablation_hetero",
        title="Voltage latency under device heterogeneity (BERT-Large)",
        xlabel="fast/slow speed ratio",
        ylabel="latency (s)",
    )
    even = Series("even 1/K")
    proportional = Series("speed-proportional")
    optimal = Series("makespan-optimal")
    for ratio in speed_ratios:
        speeds = [base_gflops, base_gflops, base_gflops * ratio, base_gflops * ratio]
        cluster = ClusterSpec.heterogeneous(speeds, bandwidth_mbps=bandwidth_mbps)

        def latency(scheme: PartitionScheme) -> float:
            return analytic.voltage_latency(config, n, cluster, scheme=scheme).total_seconds

        even.add(ratio, latency(PartitionScheme.even(4)))
        proportional.add(ratio, latency(PartitionScheme.proportional(speeds)))
        optimal.add(
            ratio, latency(makespan_optimal_scheme(config, n, speeds, policy=OrderPolicy()))
        )
    fig.series = [even, proportional, optimal]
    return fig


def ablation_dynamic_schemes(
    slowdowns: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 6.0),
    num_devices: int = 4,
    num_layers: int = 8,
    n: int = 64,
) -> FigureResult:
    """Per-layer dynamic schemes under a straggler spike (Section V-B ext.).

    One device slows by ``slowdown``× for the whole request; compares the
    paper's static even split, the closed-loop EWMA planner (realisable),
    and the oracle that re-plans from true speeds.  Uses a small real model
    because the adaptive system executes the actual partitions.
    """
    import numpy as np

    from repro.cluster.dynamics import spike_trace
    from repro.models import BertModel
    from repro.models.config import tiny_config
    from repro.systems.adaptive import AdaptiveVoltageSystem

    config = tiny_config(hidden_size=64, num_heads=8, ffn_dim=128, num_layers=num_layers)
    model = BertModel(config, num_classes=2, rng=np.random.default_rng(0))
    cluster = ClusterSpec.homogeneous(num_devices, gflops=0.05, bandwidth_mbps=500)
    ids = np.arange(2, 2 + n) % config.vocab_size

    fig = FigureResult(
        name="ablation_dynamic",
        title=f"Dynamic per-layer schemes vs a {num_devices}-device straggler spike",
        xlabel="straggler slowdown (x)",
        ylabel="compute makespan (s)",
    )
    series = {mode: Series(mode) for mode in ("static", "dynamic", "oracle")}
    for slowdown in slowdowns:
        trace = spike_trace(num_devices, num_layers, victim=0, slowdown=slowdown)
        for mode, s in series.items():
            system = AdaptiveVoltageSystem(model, cluster, trace=trace, mode=mode)
            s.add(slowdown, system.run(ids).latency.compute_seconds)
    fig.series = list(series.values())
    fig.notes.append("victim device slows for the entire request; EWMA alpha=0.6")
    return fig


def ablation_comm_precision(
    bandwidths: tuple[float, ...] = (100, 200, 300, 500, 1000),
    num_devices: int = 6,
) -> FigureResult:
    """Compressed activation exchange (the paper's closing future-work item).

    BERT-Large end-to-end latency at K=6 with float32 / float16 / int8
    All-Gather payloads.  The numerical cost is measured separately by the
    tests (real encode/decode in :class:`VoltageSystem`); here we sweep the
    latency benefit across bandwidths — compression matters most exactly
    where the paper says Voltage struggles (≤200 Mbps).
    """
    workload = paper_workloads()["bert"]
    fig = FigureResult(
        name="ablation_wire",
        title=f"Voltage latency vs activation wire precision (K={num_devices})",
        xlabel="bandwidth (Mbps)",
        ylabel="latency (s)",
    )
    series = {
        "float32 (paper)": 4,
        "float16": 2,
        "int8": 1,
    }
    for label, itemsize in series.items():
        curve = Series(label)
        for bandwidth in bandwidths:
            cluster = paper_cluster(num_devices, bandwidth)
            curve.add(bandwidth, _voltage_latency(workload, cluster, wire_itemsize=itemsize))
        fig.series.append(curve)
    single = Series("Single Device")
    for bandwidth in bandwidths:
        single.add(bandwidth, _single_latency(workload, paper_cluster(1, bandwidth)))
    fig.series.append(single)
    return fig


def ablation_overlap(
    bandwidths: tuple[float, ...] = (100, 200, 300, 500, 1000),
    num_devices: int = 6,
) -> FigureResult:
    """Compute/communication overlap: blocking vs hidden All-Gather.

    BERT-Large end-to-end latency at K=6 with the inner All-Gathers fully
    exposed (the paper's protocol) versus overlapped with next-layer
    position-wise compute (``exposed = max(0, comm - hideable)`` per layer).
    The benefit is largest exactly where the exposed gathers dominate —
    low-bandwidth edge links.
    """
    workload = paper_workloads()["bert"]
    fig = FigureResult(
        name="ablation_overlap",
        title=f"Voltage latency: blocking vs overlapped All-Gather (K={num_devices})",
        xlabel="bandwidth (Mbps)",
        ylabel="latency (s)",
    )
    for label, overlap in (("blocking all-gather", False), ("overlapped all-gather", True)):
        curve = Series(label)
        for bandwidth in bandwidths:
            cluster = paper_cluster(num_devices, bandwidth)
            curve.add(bandwidth, _voltage_latency(workload, cluster, overlap=overlap))
        fig.series.append(curve)
    hidden = Series("hidden comm (s)")
    for bandwidth in bandwidths:
        cluster = paper_cluster(num_devices, bandwidth)
        overlapped = _breakdown(analytic.voltage_latency, workload, cluster, overlap=True)
        hidden.add(bandwidth, overlapped.hidden_comm_seconds)
    fig.series.append(hidden)
    fig.notes.append("overlapped latency <= blocking on every layer by construction")
    return fig


def ablation_decode_attention(
    context_lengths: tuple[int, ...] = (64, 128, 256, 512, 1024),
    num_devices: int = 4,
) -> FigureResult:
    """Decode attention mode: per-step KV all-gather vs log-sum-exp combine.

    For a GPT-2 decode step at context length ``t`` on ``K`` devices, the
    gathered mode ships ``2(K-1)tHF_H/K`` K/V elements per device per layer
    (linear in ``t``) while the distributed mode ships a fixed
    ``(K-1)H(F_H+2)`` packed-stats elements (flat in ``t``); per-rank
    attention FLOPs drop from the full history to the local shard
    (``O(t/K)``).  Wire bytes are float32; the crossover context length
    where the combine starts winning on bytes is annotated — it sits at
    ``t ≈ K/2`` tokens, i.e. essentially immediately.
    """
    from repro.models.config import gpt2_config

    config = gpt2_config()
    f, fh, heads = config.hidden_size, config.head_dim, config.num_heads
    layers = config.num_layers
    fig = FigureResult(
        name="ablation_decode_attention",
        title=f"Decode-step wire bytes and per-rank attention FLOPs vs context (K={num_devices})",
        xlabel="context length t (tokens)",
        ylabel="bytes/step per device (wire series), FLOPs/step per rank (flop series)",
    )
    projection = complexity.decode_gamma_local(0, f, fh).matmul  # QKV, t-free
    for mode in complexity.DECODE_ATTENTION_MODES:
        wire = Series(f"{mode} wire bytes/step")
        flops = Series(f"{mode} score+context FLOPs/rank/step")
        for t in context_lengths:
            wire.add(
                t,
                complexity.decode_comm_elements(mode, t, heads, fh, num_devices)
                * layers * 4,
            )
            rows = t if mode == "gathered" else -(-t // num_devices)
            per_head = complexity.decode_gamma_local(rows, f, fh).matmul - projection
            flops.add(t, heads * per_head * layers)
        fig.series.extend([wire, flops])
    crossover = complexity.decode_attention_crossover_length(fh, num_devices)
    fig.notes.append(
        f"wire-byte crossover at t = K(F_H+2)/(2 F_H) = {crossover:.2f} tokens: "
        "the combine wins for every realistic context"
    )
    fig.notes.append(
        f"distributed attention FLOPs are O(t/K): {num_devices}x fewer score/context "
        "FLOPs per rank at every context length"
    )
    return fig


def memory_tradeoff_table(
    device_counts: tuple[int, ...] = (1, 2, 4, 6, 8),
    workloads: dict[str, Workload] | None = None,
) -> FigureResult:
    """Per-device memory: Voltage's replication vs TP's sharding (ours).

    The flip side of Section V-C the paper doesn't quantify: Voltage buys
    its single-All-Gather communication profile by holding a full weight
    replica per device, so its per-device memory barely falls with K.
    """
    from repro.core.memory import tensor_parallel_device_memory, voltage_device_memory

    workloads = workloads if workloads is not None else paper_workloads()
    fig = FigureResult(
        name="memory_tradeoff",
        title="Per-device memory footprint (MB)",
        xlabel="devices",
        ylabel="MB / device",
    )
    for key, workload in workloads.items():
        voltage = Series(f"Voltage {workload.label}")
        tensor = Series(f"TP {workload.label}")
        for k in device_counts:
            voltage.add(k, voltage_device_memory(workload.config, workload.n, k).total_mb)
            tensor.add(k, tensor_parallel_device_memory(workload.config, workload.n, k).total_mb)
        fig.series.extend([voltage, tensor])
    fig.notes.append(
        "Voltage replicates weights (latency win, memory cost); TP shards them"
    )
    return fig


def fleet_autoscale_timeline(seed: int = 0) -> FigureResult:
    """Autoscaler control timeline on the diurnal trace (ours).

    Plots the live replica count against the offered load expressed in
    *replica-equivalents* (windowed arrival rate × mean service time): the
    fleet should track the diurnal demand curve with a small lag — up fast
    under the morning ramp, down slowly (cooldown-limited) after the peak.
    """
    from repro.bench.fleet import run_single_fleet

    report, trace, service_s = run_single_fleet(quick=True, seed=seed)
    fig = FigureResult(
        name="fleet_autoscale",
        title="Fleet autoscaling vs diurnal offered load",
        xlabel="virtual time (s)",
        ylabel="replicas (live / demanded)",
    )
    live = Series("live replicas")
    for t, count in report.timeline:
        live.add(t, count)
    if report.timeline:
        live.add(report.end_time, report.timeline[-1][1])

    demand = Series("offered load (replica-equivalents)")
    window = 8 * service_s
    arrivals = [r.arrival for r in trace.requests]
    t = 0.0
    while t < report.end_time:
        count = sum(1 for a in arrivals if t <= a < t + window)
        demand.add(t + window / 2, count / window * service_s)
        t += window
    fig.series = [demand, live]
    fig.notes.append(
        f"{len(trace)} requests ({trace.label}), least-loaded routing, "
        f"{len(report.scale_events)} scale events, shed {report.shed_rate:.1%}"
    )
    return fig


# ---------------------------------------------------------------------------
# Headline numbers (Section VI-B text claims)
# ---------------------------------------------------------------------------


def headline_summary(max_devices: int = 6, bandwidth_mbps: float = 500.0) -> dict:
    """All the quantitative claims of Section VI-B, as measured here."""
    workloads = paper_workloads()
    fig4 = figure4(bandwidth_mbps=bandwidth_mbps, max_devices=max_devices)
    summary: dict = {"workloads": {}}
    for key, workload in workloads.items():
        single = fig4[key].series_by_label("Voltage").y_at(1)
        voltage = fig4[key].series_by_label("Voltage")
        tensor = fig4[key].series_by_label("Tensor Parallelism")
        best_voltage = min(voltage.ys)
        summary["workloads"][key] = {
            "label": workload.label,
            "single_device_s": single,
            "voltage_best_s": best_voltage,
            "voltage_reduction_pct": 100.0 * (1 - best_voltage / single),
            "tp_at_k6_over_single": tensor.y_at(max_devices) / single,
            "voltage_monotone_improving": all(
                voltage.ys[i + 1] <= voltage.ys[i] * 1.05
                for i in range(len(voltage.ys) - 1)
            ),
        }
    report = comm_report(workloads["bert"].config, workloads["bert"].n, max_devices)
    summary["comm_reduction_factor"] = report.reduction_factor

    bert = workloads["bert"]
    crossings = {}
    for bandwidth in (200, 300, 400, 500, 600, 700, 800, 900, 1000):
        cluster = paper_cluster(max_devices, bandwidth)
        single = _single_latency(bert, cluster)
        crossings[bandwidth] = {
            "voltage_wins": _voltage_latency(bert, cluster) < single,
            "tp_wins": _tp_latency(bert, cluster) < single,
        }
    summary["bert_bandwidth_crossovers"] = crossings
    cluster200 = paper_cluster(max_devices, 200)
    summary["tp_slowdown_at_200mbps"] = _tp_latency(bert, cluster200) / _single_latency(
        bert, cluster200
    )
    return summary
