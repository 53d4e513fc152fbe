"""A small metrics registry: counters, gauges, quantile histograms.

The engine, the threaded runtime and the inference systems all record into
a process-wide default registry (cheap — a dict lookup and a float add), so
any experiment can finish with ``get_registry().summary()`` and see queue
depths, latency quantiles and byte counters without re-plumbing every call
site.  Tests that need isolation install their own registry with
:func:`use_registry`.

Metrics are identified by ``(name, labels)``; labels are plain keyword
arguments (``histogram("engine.latency_seconds", replica="r0")``),
rendered Prometheus-style as ``name{replica=r0}``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from repro.obs.table import format_aligned

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "use_registry",
]


class Counter:
    """Monotonically increasing total."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, capacity in use)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Streaming observations with exact quantiles (we keep every sample —
    experiment scales here are thousands of points, not millions)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(float(value))

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._values)

    @property
    def total(self) -> float:
        with self._lock:
            return float(sum(self._values))

    @property
    def mean(self) -> float:
        with self._lock:
            if not self._values:
                raise ValueError("histogram is empty")
            return float(np.mean(self._values))

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, q in [0, 100]."""
        with self._lock:
            if not self._values:
                raise ValueError("cannot take a percentile of an empty histogram")
            return float(np.percentile(self._values, q))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def max(self) -> float:
        with self._lock:
            if not self._values:
                raise ValueError("histogram is empty")
            return float(max(self._values))


def _metric_key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted(labels.items())))


def format_metric_name(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create container for all three metric types."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple, object] = {}

    def _get(self, name: str, labels: dict, factory):
        key = _metric_key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = factory()
            elif not isinstance(metric, factory):
                raise TypeError(
                    f"metric {format_metric_name(name, labels)!r} already registered "
                    f"as {type(metric).__name__}, not {factory.__name__}"
                )
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, labels, Gauge)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(name, labels, Histogram)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def snapshot(self) -> dict[str, dict]:
        """One JSON-friendly dict per metric, keyed by rendered name."""
        with self._lock:
            items = list(self._metrics.items())
        out: dict[str, dict] = {}
        for (name, labels), metric in sorted(items, key=lambda kv: kv[0]):
            rendered = format_metric_name(name, dict(labels))
            if isinstance(metric, Counter):
                out[rendered] = {"type": "counter", "value": metric.value}
            elif isinstance(metric, Gauge):
                out[rendered] = {"type": "gauge", "value": metric.value}
            else:
                entry: dict = {"type": "histogram", "count": metric.count}
                if metric.count:
                    entry.update(
                        mean=metric.mean,
                        p50=metric.p50,
                        p95=metric.p95,
                        p99=metric.p99,
                        max=metric.max,
                    )
                out[rendered] = entry
        return out

    def summary(self) -> str:
        """Aligned text table of everything recorded so far."""
        rows = [["metric", "type", "count", "value/mean", "p50", "p95", "p99"]]
        for rendered, entry in self.snapshot().items():
            if entry["type"] == "histogram":
                if entry["count"]:
                    rows.append([
                        rendered, "hist", str(entry["count"]),
                        f"{entry['mean']:.6g}", f"{entry['p50']:.6g}",
                        f"{entry['p95']:.6g}", f"{entry['p99']:.6g}",
                    ])
                else:
                    rows.append([rendered, "hist", "0", "-", "-", "-", "-"])
            else:
                rows.append([
                    rendered, entry["type"], "-", f"{entry['value']:.6g}", "-", "-", "-",
                ])
        return format_aligned(rows)


_default = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Swap in ``registry`` as the default for the duration of the block."""
    global _default
    with _default_lock:
        previous = _default
        _default = registry
    try:
        yield registry
    finally:
        with _default_lock:
            _default = previous
