#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or show the steadiness of one.

    python3 benchmarks/e2e/run.py --repeats 10 --out A.json     # record a set
    python3 benchmarks/e2e/compare.py A.json                    # spread per metric
    python3 benchmarks/e2e/compare.py A.json B.json             # base vs new

For every (workload, end-to-end metric) pair the workload owns (pairs it
does not own carry its peak RSS, see ``harness.py``, and are skipped) it
prints the two medians, the relative change signed so that positive is
*worse*, the quartile spread of each side and a verdict against the metric's
bound in ``BENCHMARK.json``:

- ``regressed``  — the new median is worse than the base by more than the bound;
- ``unresolved`` — a side's run-to-run spread is wider than the bound, so a
  change of that size cannot be told from noise (unless every new run reads
  better than every base run);
- ``ok`` otherwise.

``failed_share`` (failed / attempted operations over the set) is a row of
every workload and regresses on any increase.  Exit code 1 if anything
regressed.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from harness import load_spec  # noqa: E402
from stats import median, quartile_spread  # noqa: E402


def load_set(path: str) -> tuple[dict[tuple[str, str], list[float]], dict[str, float]]:
    """(workload, owned metric) -> values over the set's untraced runs, and
    workload -> failed share of the operations the set attempted."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for result in json.loads(Path(path).read_text())["results"]:
        if result["trace"]:
            continue
        counts[result["workload"]][0] += result["failed"]
        counts[result["workload"]][1] += result["attempted"]
        for name in result["owned"]:
            values[(result["workload"], name)].append(result["metrics"][name]["value"])
    return values, {w: failed / attempted for w, (failed, attempted) in counts.items()}


def worsening(base: float, new: float, better: str) -> float:
    """Relative change of the median, positive = worse."""
    change = (new - base) / base
    return change if better == "lower" else -change


def verdict(base: list[float], new: list[float], meta: dict) -> tuple[str, float]:
    change = worsening(median(base), median(new), meta["better"])
    if change > meta["bound"]:
        return "regressed", change
    spreads = [quartile_spread(v) for v in (base, new) if len(v) >= 2]
    if spreads and max(spreads) > meta["bound"]:
        lower = meta["better"] == "lower"
        clear_win = max(new) < min(base) if lower else min(new) > max(base)
        if not clear_win:
            return "unresolved", change
    return "ok", change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = {m["name"]: m for m in load_spec()["end_to_end"]}
    base, base_failed = load_set(argv[0])
    new, new_failed = load_set(argv[1]) if len(argv) == 2 else (None, {})
    bad = False
    header = f"{'workload':20s} {'metric':32s} {'base':>11s} {'spread':>7s}"
    if new is not None:
        header += f" {'new':>11s} {'spread':>7s} {'worse by':>9s} {'bound':>6s}  verdict"
    else:
        header += f" {'bound':>6s}  steady"
    print(header)
    for (workload, name), values in sorted(base.items()):
        meta = metrics[name]
        spread = quartile_spread(values) if len(values) >= 2 else float("nan")
        row = f"{workload:20s} {name:32s} {median(values):11.5g} {spread:7.1%}"
        if new is None:
            steady = "yes" if spread <= meta["bound"] / 3 else "within bound" if spread <= meta["bound"] else "NO"
            print(f"{row} {meta['bound']:6.0%}  {steady}")
            continue
        other = new.get((workload, name), [])
        if not other:
            print(f"{row}  (missing from the new set)")
            bad = True
            continue
        status, change = verdict(values, other, meta)
        other_spread = quartile_spread(other) if len(other) >= 2 else float("nan")
        print(f"{row} {median(other):11.5g} {other_spread:7.1%} {change:+9.1%} {meta['bound']:6.0%}  {status}")
        bad |= status == "regressed"
    for workload, share in sorted(base_failed.items()):
        row = f"{workload:20s} {'failed_share':32s} {share:11.5g} {'':7s}"
        if new is None:
            print(f"{row} {'any':>6s}  {'yes' if share == 0 else 'NO'}")
            continue
        other = new_failed.get(workload, 1.0)
        status = "regressed" if other > share else "ok"
        print(f"{row} {other:11.5g} {'':7s} {other - share:+9.5f} {'any':>6s}  {status}")
        bad |= status == "regressed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
