#!/usr/bin/env python3
"""Wall-clock benchmark entry point.

One workload, one run (what the benchmark driver calls)::

    python3 benchmarks/e2e/run.py --workload decode-long --seed 3 --seconds 20 --trace 0

prints every metric by name with its unit, then — as the last line — one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics with tracing off; ``--trace 1`` re-runs the
same inputs under a ``repro.obs.Tracer``, reports the per-layer metrics and
writes ``<trace-dir>/<workload>.trace.json``.  A name the workload does not
own is printed with the run's peak RSS and marked ``(not owned)``.

Without ``--workload`` every workload runs, each in a fresh subprocess,
untraced then traced; ``--repeats N --out FILE`` records N untraced runs per
workload (seeds ``seed .. seed+N-1``) as one set for ``compare.py``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parents[1] / "src"))

import harness  # noqa: E402  (imports neither NumPy nor repro)


def _print_result(result: dict) -> None:
    print(f"# {result['workload']}  seed={result['seed']}  seconds={result['seconds']}  "
          f"trace={int(result['trace'])}  comparable={result['comparable']}")
    for name, metric in result["metrics"].items():
        note = "" if name in result["owned"] else "  (not owned: peak RSS)"
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}{note}")
    for name, metric in result["diagnostics"].items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}  (ungated diagnostic)")
    print(f"{'failed_share':48s} {result['failed_share']:.6g} share "
          f"({result['failed']}/{result['attempted']})")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print("info " + json.dumps({k: result[k] for k in (
        "lane", "provenance", "setups_s", "window_s", "trace_file", "leaks"
    )}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_single(args) -> int:
    try:
        harness.pin_blas_threads()
        result = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
            Path(args.trace_dir), _STARTED,
        )
    except harness.GuardError as error:
        print(f"refusing to report: {error}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))
    _print_result(result)
    return 0


def run_all(args) -> int:
    """Every workload in a fresh subprocess: ``repeats`` untraced runs, then
    (unless recording a set) one traced run."""
    results = []
    for workload in harness.WORKLOADS:
        jobs = [(args.seed + r, 0) for r in range(args.repeats)]
        if not args.out:
            jobs.append((args.seed, 1))
        for seed, trace in jobs:
            record = Path(args.trace_dir) / f"{workload}.seed{seed}.trace{trace}.json"
            record.parent.mkdir(parents=True, exist_ok=True)
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
                "--trace-dir", args.trace_dir, "--out", str(record),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, capture_output=True, text=True)
            sys.stdout.write("\n".join(
                line for line in done.stdout.splitlines() if not line.startswith(("{", "info "))
            ) + "\n")
            sys.stdout.flush()
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            results.append(json.loads(record.read_text()))
    if args.out:
        Path(args.out).write_text(json.dumps({"results": results}, indent=1))
    return 0 if all(r["correct"] for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(harness.load_spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=".bench_e2e")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny models, a few seconds; results are not comparable")
    parser.add_argument("--repeats", type=int, default=1, help="runs per workload (all-workloads mode)")
    parser.add_argument("--out", help="write the full result (single run) or the set (all workloads)")
    args = parser.parse_args(argv)
    return run_single(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
