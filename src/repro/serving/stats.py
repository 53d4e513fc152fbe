"""Serving statistics: latency percentiles, throughput, utilisation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.arrivals import Request

__all__ = ["ServedRequest", "ServingStats"]


@dataclass(frozen=True)
class ServedRequest:
    """One request's lifecycle: arrival → service start → completion."""

    request: Request
    start: float
    finish: float

    def __post_init__(self) -> None:
        if not (self.request.arrival <= self.start <= self.finish):
            raise ValueError(
                f"inconsistent lifecycle: arrival={self.request.arrival}, "
                f"start={self.start}, finish={self.finish}"
            )

    @property
    def latency(self) -> float:
        """End-to-end latency the user sees (queueing + service)."""
        return self.finish - self.request.arrival

    @property
    def waiting(self) -> float:
        """Time spent queued before service began."""
        return self.start - self.request.arrival

    @property
    def service(self) -> float:
        return self.finish - self.start

    @property
    def deadline_missed(self) -> bool:
        """True when the request carried a deadline and finished after it."""
        deadline = self.request.deadline
        return deadline is not None and self.finish > deadline


@dataclass(frozen=True)
class ServingStats:
    """Aggregate view over one serving run."""

    count: int
    mean_latency: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    max_latency: float
    mean_waiting: float
    throughput_rps: float
    makespan: float
    deadline_count: int = 0
    deadline_misses: int = 0

    @classmethod
    def from_served(cls, served: list[ServedRequest]) -> "ServingStats":
        """Aggregate a run; an empty run (every request shed, or none offered)
        yields the all-zero stats rather than raising — an autoscaled fleet
        legitimately runs replicas that never receive a request."""
        if not served:
            return cls(
                count=0, mean_latency=0.0, p50_latency=0.0, p95_latency=0.0,
                p99_latency=0.0, max_latency=0.0, mean_waiting=0.0,
                throughput_rps=0.0, makespan=0.0,
            )
        latencies = np.array([s.latency for s in served])
        first_arrival = min(s.request.arrival for s in served)
        makespan = max(s.finish for s in served) - first_arrival
        return cls(
            count=len(served),
            mean_latency=float(latencies.mean()),
            p50_latency=float(np.percentile(latencies, 50)),
            p95_latency=float(np.percentile(latencies, 95)),
            p99_latency=float(np.percentile(latencies, 99)),
            max_latency=float(latencies.max()),
            mean_waiting=float(np.mean([s.waiting for s in served])),
            throughput_rps=len(served) / makespan if makespan > 0 else float("inf"),
            makespan=float(makespan),
            deadline_count=sum(1 for s in served if s.request.deadline is not None),
            deadline_misses=sum(1 for s in served if s.deadline_missed),
        )

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of deadline-carrying requests that finished late (0.0
        when no request declared a deadline)."""
        return self.deadline_misses / self.deadline_count if self.deadline_count else 0.0

    def summary(self) -> str:
        text = (
            f"{self.count} requests | latency mean {self.mean_latency * 1e3:.1f} ms, "
            f"p50 {self.p50_latency * 1e3:.1f}, p95 {self.p95_latency * 1e3:.1f}, "
            f"p99 {self.p99_latency * 1e3:.1f} ms | wait {self.mean_waiting * 1e3:.1f} ms "
            f"| {self.throughput_rps:.2f} req/s"
        )
        if self.deadline_count:
            text += (
                f" | {self.deadline_misses}/{self.deadline_count} deadline misses"
            )
        return text
