"""Command-line entry point: regenerate any figure or table of the paper.

Usage::

    voltage-bench fig4              # latency vs devices, all three models
    voltage-bench fig5              # latency vs bandwidth at K=6
    voltage-bench fig6              # MHA speed-up (wall-clock measured)
    voltage-bench fig6 --model     # same, FLOP-model based (fast)
    voltage-bench comm              # communication volume table
    voltage-bench ablations         # order-choice + heterogeneity ablations
    voltage-bench profile           # host-side span profile vs cost model
    voltage-bench headline          # Section VI-B text claims
    voltage-bench all --json out/   # everything, plus JSON dumps
    voltage-bench verify --seeds 25 # differential conformance fuzzing
    voltage-bench verify --replay 7 # re-run one scenario by its seed
    voltage-bench serve             # online engine offered-load sweep -> BENCH_serve.json
                                    # (includes the speculative-decode / prefix-cache
                                    #  tokens-per-second comparison, digest-gated)
    voltage-bench serve --quick --check # CI gates lane: committed-baseline gate
    voltage-bench fleet             # multi-replica router/autoscale sweep -> BENCH_fleet.json
    voltage-bench fleet --workload bursts   # replay a different registered trace
    voltage-bench fleet --list-traces       # show the workload trace registry

Any invocation accepts ``--trace OUT.json`` to capture the run as a Chrome
``trace_event`` timeline (open in Perfetto / ``chrome://tracing``): every
modeled latency phase, simulator collective, threaded-runtime operation and
engine step of the chosen target lands in the file.

Wall-clock performance is gated in one place, ``benchmarks/e2e/run.py``
(see ``BENCHMARK.json``); ``fig6`` and ``profile`` time this host but gate
nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from repro.bench import figures
from repro.bench.harness import FigureResult

__all__ = ["main"]


def _emit(results: dict[str, FigureResult] | FigureResult, json_dir: Path | None) -> None:
    items = results.values() if isinstance(results, dict) else [results]
    for fig in items:
        print(fig.format_table())
        print()
        if json_dir is not None:
            json_dir.mkdir(parents=True, exist_ok=True)
            (json_dir / f"{fig.name}.json").write_text(fig.to_json())


def _run_headline(json_dir: Path | None) -> None:
    summary = figures.headline_summary()
    print("== Section VI-B headline claims (measured here) ==")
    for key, stats in summary["workloads"].items():
        print(
            f"  {stats['label']:>10s}: single {stats['single_device_s']:.3f}s, "
            f"Voltage best {stats['voltage_best_s']:.3f}s "
            f"(-{stats['voltage_reduction_pct']:.1f}%), "
            f"TP@K=6 {stats['tp_at_k6_over_single']:.2f}x single"
        )
    print(f"  communication reduction: {summary['comm_reduction_factor']:.1f}x (paper: 4x)")
    print(f"  TP slowdown at 200 Mbps: {summary['tp_slowdown_at_200mbps']:.2f}x (paper: 4.2x)")
    for bandwidth, flags in summary["bert_bandwidth_crossovers"].items():
        marks = []
        if flags["voltage_wins"]:
            marks.append("Voltage<single")
        if flags["tp_wins"]:
            marks.append("TP<single")
        print(f"    {bandwidth:>5} Mbps: {', '.join(marks) if marks else 'neither wins'}")
    if json_dir is not None:
        json_dir.mkdir(parents=True, exist_ok=True)
        (json_dir / "headline.json").write_text(json.dumps(summary, indent=2))


def _run_profile(num_layers: int, n_words: int) -> None:
    """Profile a real BERT forward pass and reconcile with the cost model.

    Spans ``preprocess`` / ``layer[i]`` / ``postprocess`` — the latency
    simulator's decomposition, so measured shares compare against modelled
    ones — land on the ``--trace`` tracer if installed, else a private one.
    """
    import numpy as np

    from repro import obs
    from repro.bench.workloads import random_text
    from repro.cluster.device import calibrate_matmul_gflops
    from repro.core.layer import PartitionedLayerExecutor
    from repro.models import BertModel, bert_large_config

    config = bert_large_config().scaled(num_layers=num_layers)
    print(f"profiling BERT-Large[:{num_layers} layers] on this host ...")
    model = BertModel(config, num_classes=2, rng=np.random.default_rng(0))
    ids = model.encode_text(random_text(n_words))
    model(ids)  # warm-up
    active = obs.current_tracer()
    tracer = active if active.enabled else obs.Tracer()
    stages = [("preprocess", model.preprocess)]
    stages += [(f"layer[{index}]", layer) for index, layer in enumerate(model.layers)]
    stages += [("postprocess", lambda hidden: model.postprocess(model.final_norm(hidden)))]
    x = ids
    for name, stage in stages:
        with tracer.span(name, cat="profile", kind="compute"):
            x = stage(x)
    print(obs.summary_table(tracer))

    host_gflops = calibrate_matmul_gflops()
    layer_flops = PartitionedLayerExecutor(model.layers[0]).full_flops(len(ids))
    modelled = layer_flops / (host_gflops * 1e9)
    measured = tracer.filter(cat="profile", name="layer[0]")[-1].duration_s
    print(
        f"\ncost-model check: layer[0] measured {measured * 1e3:.2f} ms vs "
        f"modelled {modelled * 1e3:.2f} ms at the calibrated "
        f"{host_gflops:.1f} GFLOP/s ({measured / modelled:.2f}x)"
    )


def _run_figures(args) -> int:
    """The paper's figures and tables plus the profile and headline targets."""
    fig6_mode = "model" if args.model else "measured"
    if args.target in ("fig4", "all"):
        _emit(figures.figure4(bandwidth_mbps=args.bandwidth, max_devices=args.devices),
              args.json)
    if args.target in ("fig5", "all"):
        _emit(figures.figure5(num_devices=args.devices), args.json)
    if args.target in ("fig6", "all"):
        _emit(figures.figure6(mode=fig6_mode), args.json)
    if args.target in ("comm", "all"):
        _emit(figures.comm_volume_table(), args.json)
        _emit(figures.memory_tradeoff_table(), args.json)
    if args.target in ("ablations", "all"):
        _emit(figures.ablation_order_choice(), args.json)
        _emit(figures.ablation_heterogeneous(), args.json)
        _emit(figures.ablation_dynamic_schemes(), args.json)
        _emit(figures.ablation_comm_precision(), args.json)
        _emit(figures.ablation_overlap(), args.json)
        _emit(figures.ablation_decode_attention(), args.json)
        _emit(figures.fleet_autoscale_timeline(), args.json)
    if args.target == "profile":
        _run_profile(args.layers, args.words)
    if args.target in ("headline", "all"):
        _run_headline(args.json)
    return 0


def _run_verify(args) -> int:
    """Differential conformance fuzzing (``repro.verify``)."""
    from repro import verify

    if args.replay is not None:
        result = verify.replay_seed(args.replay)
        print(f"replay {result.config.label}")
        for check in result.checks:
            status = "skip" if check.skipped else ("ok" if check.passed else "FAIL")
            detail = f"  ({check.detail})" if check.detail else ""
            print(f"  {status:>4s} {check.name}{detail}")
        if result.error:
            print(f"  ERROR {result.error}")
        return 0 if result.ok else 1

    report = verify.run_verification(
        num_seeds=args.seeds,
        base_seed=args.base_seed,
        shrink=not args.no_shrink,
        force_runtime=args.runtime,
        force_decode=args.decode,
        force_decode_attention=args.decode_attention,
    )
    print(report.summary())
    if args.json is not None:
        args.json.mkdir(parents=True, exist_ok=True)
        (args.json / "verify.json").write_text(report.to_json())
        print(f"report: {args.json / 'verify.json'}")
    return 0 if report.ok else 1


def _run_serve(args) -> int:
    """Online engine offered-load sweep (``repro.bench.serve``)."""
    from repro.bench import serve
    from repro.bench.harness import format_aligned

    mode = "quick" if args.quick else "full"
    print(f"serve: running {mode} offered-load sweep (virtual time, deterministic) ...")
    payload = serve.run_serve_sweep(quick=args.quick)

    rows = [["load", "thr rps", "p50", "p99", "shed", "occupancy"]]
    for point in payload["sweep"]:
        p50, p99 = point["p50_latency_s"], point["p99_latency_s"]
        rows.append([
            f"{point['offered_ratio']:g}x",
            f"{point['throughput_rps']:.2f}",
            f"{p50 * 1e3:.0f} ms" if p50 is not None else "-",
            f"{p99 * 1e3:.0f} ms" if p99 is not None else "-",
            f"{point['shed_rate']:.0%}",
            f"{point['mean_slot_occupancy']:.0%}",
        ])
    print(format_aligned(rows))
    overload = payload["overload"]
    shed, open_ = overload["with_shedding"], overload["without_shedding"]
    print(
        f"overload {overload['factor']:g}x (bound {overload['latency_bound_s']:.3f}s): "
        f"shedding p99 {shed['p99_latency_s']:.3f}s "
        f"({'holds' if overload['bound_held_with_shedding'] else 'VIOLATES'} bound, "
        f"shed {shed['shed_rate']:.0%}); "
        f"no shedding p99 {open_['p99_latency_s']:.3f}s "
        f"({'exceeds' if overload['bound_exceeded_without_shedding'] else 'meets'} bound)"
    )

    spec = payload["speculative"]
    print(
        f"\nspeculative comparison ({spec['workload']['trace']}, "
        f"{spec['workload']['num_requests']} requests, saturating load):"
    )
    spec_rows = [["config", "tok/s", "speedup", "accept", "prefix hits", "saved"]]
    for name, entry in spec["configs"].items():
        speedup = spec["speedups"].get(name)
        stats = entry.get("speculative")
        cache = entry.get("prefix_cache")
        spec_rows.append([
            name,
            f"{entry['tokens_per_s']:.1f}",
            f"{speedup:.2f}x" if speedup is not None else "-",
            f"{stats['acceptance_rate']:.0%}" if stats else "-",
            f"{cache['hits']} ({cache['hit_rate']:.0%})" if cache else "-",
            f"{cache['positions_saved']}" if cache else "-",
        ])
    print(format_aligned(spec_rows))
    print(
        "outputs bit-identical across configs: "
        f"{'yes' if spec['identical_outputs'] else 'NO (BUG)'}"
    )

    output = args.output or Path("BENCH_serve.json")
    baseline = args.baseline or Path("BENCH_serve.json")
    failures = []
    if args.check:
        failures = serve.check_regression(payload, mode, baseline)
        for failure in failures:
            print(f"FAIL: {failure}")
        if not failures:
            print(f"check: within tolerance of {baseline}")
    serve.emit_report(payload, mode, output)
    print(f"report: {output} (mode {mode!r})")
    return 1 if failures else 0


def _run_fleet(args) -> int:
    """Multi-replica routing + autoscaling sweep (``repro.bench.fleet``)."""
    from repro.bench import fleet as fleet_bench
    from repro.bench.harness import format_aligned
    from repro.fleet import get_trace_spec, trace_names

    if args.list_traces:
        print("registered workload traces:")
        for label in trace_names():
            spec = get_trace_spec(label)
            print(f"  {label:>16s}  {spec.description}")
        return 0

    mode = "quick" if args.quick else "full"
    print(
        f"fleet: running {mode} policy sweep on trace {args.workload!r} "
        "(virtual time, deterministic) ..."
    )
    payload = fleet_bench.run_fleet_sweep(
        quick=args.quick, seed=args.seed, trace_ref=args.workload
    )

    rows = [["policy", "p50", "p99", "shed", "miss", "peak", "mean repl"]]
    for point in payload["sweep"]:
        p50, p99 = point["p50_latency_s"], point["p99_latency_s"]
        rows.append([
            point["policy"],
            f"{p50 * 1e3:.0f} ms" if p50 is not None else "-",
            f"{p99 * 1e3:.0f} ms" if p99 is not None else "-",
            f"{point['shed_rate']:.0%}",
            f"{point['deadline_miss_rate']:.0%}",
            f"{point['peak_replicas']}",
            f"{point['mean_replicas']:.2f}",
        ])
    print(format_aligned(rows))
    autoscale = payload["autoscale"]
    fixed, auto = autoscale["fixed"], autoscale["autoscaled"]
    print(
        f"autoscale demo ({autoscale['trace']}, bound "
        f"{autoscale['latency_bound_s']:.3f}s): fixed 1 replica sheds "
        f"{fixed['shed_rate']:.0%} / misses {fixed['deadline_miss_rate']:.0%}; "
        f"autoscaled (peak {auto['peak_replicas']}) sheds {auto['shed_rate']:.0%}, "
        f"p99 {auto['p99_latency_s']:.3f}s "
        f"({'holds' if autoscale['autoscaled_bound_held'] else 'VIOLATES'} bound)"
    )

    output = args.output or Path("BENCH_fleet.json")
    baseline = args.baseline or Path("BENCH_fleet.json")
    failures = []
    if args.check:
        failures = fleet_bench.check_regression(payload, mode, baseline)
        for failure in failures:
            print(f"FAIL: {failure}")
        if not failures:
            print(f"check: within tolerance of {baseline}")
    fleet_bench.emit_report(payload, mode, output)
    print(f"report: {output} (mode {mode!r})")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="voltage-bench",
        description="Regenerate the evaluation figures/tables of the Voltage paper.",
    )
    parser.add_argument(
        "target",
        choices=["fig4", "fig5", "fig6", "comm", "ablations", "profile", "headline",
                 "verify", "serve", "fleet", "all"],
        help="which experiment to run",
    )
    parser.add_argument("--layers", type=int, default=4,
                        help="profile: transformer layers to instantiate (default 4)")
    parser.add_argument("--words", type=int, default=200,
                        help="profile: input length in words (default 200)")
    parser.add_argument("--json", type=Path, default=None, metavar="DIR",
                        help="also write per-figure JSON files into DIR")
    parser.add_argument("--model", action="store_true",
                        help="fig6: use the FLOP model instead of wall-clock timing")
    parser.add_argument("--bandwidth", type=float, default=500.0,
                        help="fig4/comm: network bandwidth in Mbps (default 500)")
    parser.add_argument("--devices", type=int, default=6,
                        help="fig4: max device count; fig5: fixed device count")
    parser.add_argument("--trace", type=Path, default=None, metavar="OUT.json",
                        help="write a Chrome trace_event timeline of the whole run "
                             "(open in Perfetto or chrome://tracing)")
    parser.add_argument("--seeds", type=int, default=10,
                        help="verify: number of fuzzed scenarios (default 10)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="verify: first scenario seed (default 0)")
    parser.add_argument("--replay", type=int, default=None, metavar="SEED",
                        help="verify: re-run a single scenario by seed and print "
                             "every conformance check")
    parser.add_argument("--no-shrink", action="store_true",
                        help="verify: skip minimising failing configs")
    parser.add_argument("--runtime", choices=["threaded", "process"], default=None,
                        help="verify: pin every scenario's runtime axis "
                             "(default: let each seed draw it)")
    parser.add_argument("--decode", action="store_true",
                        help="verify: pin every scenario to a gpt2 distributed-decode "
                             "scenario (the decode conformance lane)")
    parser.add_argument("--decode-attention", choices=["gathered", "distributed"],
                        default=None,
                        help="verify: pin the decode attention mode on every decoding "
                             "scenario (default: let each seed draw it)")
    parser.add_argument("--quick", action="store_true",
                        help="serve/fleet: smaller workloads for the CI gates lane")
    parser.add_argument("--check", action="store_true",
                        help="serve/fleet: fail if results regress vs the committed baseline")
    parser.add_argument("--output", type=Path, default=None,
                        help="serve/fleet: report file to write/merge "
                             "(default BENCH_serve.json / BENCH_fleet.json)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="serve/fleet: committed baseline to --check against "
                             "(defaults to the report file)")
    parser.add_argument("--workload", default="diurnal", metavar="TRACE",
                        help="fleet: registered workload trace to replay, 'name' or "
                             "'name@vN' (default diurnal)")
    parser.add_argument("--list-traces", action="store_true",
                        help="fleet: list the workload trace registry and exit")
    parser.add_argument("--seed", type=int, default=0,
                        help="fleet: trace/weights/router seed (default 0)")
    args = parser.parse_args(argv)
    if args.trace is not None and (not args.trace.name or args.trace.is_dir()):
        parser.error("--trace requires an output file path, e.g. --trace out.json")

    from repro import obs

    tracer = obs.Tracer() if args.trace is not None else None
    runner = {"verify": _run_verify, "serve": _run_serve, "fleet": _run_fleet}.get(
        args.target, _run_figures
    )
    with obs.use_tracer(tracer) if tracer is not None else contextlib.nullcontext():
        status = runner(args)

    if tracer is not None:
        path = obs.write_chrome_trace(tracer, args.trace)
        print(f"trace: {len(tracer)} spans -> {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
