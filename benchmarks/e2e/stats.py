"""Order statistics the benchmark reports: medians, the fastest-third rate,
a tail percentile the sample can support, and the quartile spread used to
judge steadiness."""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is supported when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def _numbers(values) -> list[float]:
    """The sample without its NaNs: a lane appends NaN for an operation that
    failed, so that sample indices keep lining up with round indices."""
    return [v for v in values if v == v]


def median(values) -> float:
    """Median of a sample (NaN for an empty one, so a lane that produced
    nothing is visible instead of raising mid-report)."""
    values = _numbers(values)
    return float(statistics.median(values)) if values else math.nan


def fastest_third_rate(values) -> float:
    """Median of the highest third (rounded up) of per-round rates: of 9
    rounds the second best.  For the K=2 variants only.

    A K-thread round on a K-core box loses time to anything else that becomes
    runnable for a moment, and only ever loses: with a busy neighbour on for
    half the time, the plain median over ~9 rounds of the K=2 decode variants
    moved 19-34% run to run, this 8%; on a quiet host both move 3-9%.  A
    single-thread round has the other core to give away, and its plain median
    is the steadier of the two (5-8% against 9%)."""
    ordered = sorted(_numbers(values), reverse=True)
    if not ordered:
        return math.nan
    return float(statistics.median(ordered[: math.ceil(len(ordered) / 3)]))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0–100) of a non-empty sample."""
    ordered = sorted(_numbers(values))
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def supported_percentile(count: int) -> float | None:
    """The highest ladder percentile with >= 10 samples beyond it, or None
    when even the median lacks that support."""
    best = None
    for q in PERCENTILE_LADDER:
        if count * (100.0 - q) >= MIN_SAMPLES_BEYOND * 100.0 - 1e-9:
            best = q
    return best


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, the steadiness measure of the acceptance check."""
    values = list(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
