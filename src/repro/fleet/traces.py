"""Workload trace registry: named, versioned, replayable request streams.

A *trace* is a complete request stream — arrival times, prompt lengths,
SLOs, priorities, tenants — built deterministically from ``(name, version,
seed)``.  The registry makes scenario diversity a first-class, addressable
surface (in the spirit of a task-registry/evaluator split): benches refer
to traces by ``"diurnal"`` or ``"diurnal@v1"``, CI gates pin their content
by digest, and a new traffic shape is one registered builder away.

Time base: traces are built in **normalised service units** — one unit is
the service time of the fleet's reference request on its one model, so a
rate of 1.0/unit offers exactly one replica's capacity.  The bench rescales
a trace onto its engine's virtual-seconds axis with :meth:`Trace.rescaled`
(arrivals and SLO budgets stretch together), which keeps every registered
trace meaningful regardless of the model size it is replayed against.

Built-in traces (all seeds-deterministic, ids unique, arrivals sorted):

- ``diurnal`` — a sinusoidal non-homogeneous Poisson day/night cycle
  (thinning construction), trough well under one replica's capacity and
  peak well over it: the autoscaling demo workload.
- ``bursts`` — on/off clumps from :func:`~repro.serving.arrivals.bursty_arrivals`.
- ``heavy-tail`` — Poisson arrivals with lognormal prompt lengths from
  :func:`~repro.serving.arrivals.heavy_tail_arrivals`.
- ``multi-tenant`` — three tenants (interactive/batch/burst) with distinct
  rates, lengths, priorities and SLOs, merged on one timeline; session
  keys feed the affinity router.
- ``shared-prefix`` — four tenants with skewed traffic shares on one
  Poisson timeline; each tenant's prompts open with a common
  system-prompt prefix (the sequencer's ``shared_prefix_tokens``), the
  workload the cross-request prefix cache exists for.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from collections.abc import Callable

import numpy as np

from repro.serving.arrivals import (
    Request,
    bursty_arrivals,
    heavy_tail_arrivals,
    poisson_arrivals,
)

__all__ = [
    "Trace",
    "TraceSpec",
    "register_trace",
    "trace_names",
    "get_trace_spec",
    "build_trace",
]


@dataclass(frozen=True)
class Trace:
    """A built, replayable request stream plus its provenance."""

    name: str
    version: int
    seed: int
    requests: tuple[Request, ...]
    time_scale: float = 1.0  # 1.0 = normalised service units

    @property
    def label(self) -> str:
        return f"{self.name}@v{self.version}"

    def __len__(self) -> int:
        return len(self.requests)

    def rescaled(self, time_scale: float) -> "Trace":
        """Map the trace onto a real virtual-seconds axis: arrivals and SLO
        budgets both stretch by ``time_scale`` (SLOs stay proportional)."""
        if time_scale <= 0:
            raise ValueError(f"time_scale must be > 0, got {time_scale}")
        scaled = tuple(
            replace(
                r,
                arrival=r.arrival * time_scale,
                deadline=(
                    r.arrival * time_scale + (r.deadline - r.arrival) * time_scale
                    if r.deadline is not None
                    else None
                ),
            )
            for r in self.requests
        )
        return Trace(
            name=self.name,
            version=self.version,
            seed=self.seed,
            requests=scaled,
            time_scale=self.time_scale * time_scale,
        )

    def digest(self) -> str:
        """Content fingerprint (stable across processes): pins a baseline to
        the exact request stream it was measured on."""
        payload = [
            (r.arrival, r.n, r.id, r.deadline, r.priority, r.tenant)
            for r in self.requests
        ]
        raw = json.dumps(payload, separators=(",", ":")).encode()
        return hashlib.sha256(raw).hexdigest()[:16]


@dataclass(frozen=True)
class TraceSpec:
    """A registered builder: ``build(seed, quick)`` returns the requests."""

    name: str
    version: int
    description: str
    build: Callable[[int, bool], list[Request]]

    @property
    def label(self) -> str:
        return f"{self.name}@v{self.version}"


_REGISTRY: dict[str, dict[int, TraceSpec]] = {}


def register_trace(name: str, version: int, description: str):
    """Decorator registering a trace builder under ``name@vN``."""

    def decorate(build: Callable[[int, bool], list[Request]]):
        versions = _REGISTRY.setdefault(name, {})
        if version in versions:
            raise ValueError(f"trace {name}@v{version} is already registered")
        versions[version] = TraceSpec(
            name=name, version=version, description=description, build=build
        )
        return build

    return decorate


def trace_names() -> list[str]:
    """Every registered ``name@vN``, sorted."""
    return sorted(
        spec.label for versions in _REGISTRY.values() for spec in versions.values()
    )


def get_trace_spec(ref: str) -> TraceSpec:
    """Look up ``"name"`` (latest version) or ``"name@vN"`` (exact)."""
    name, _, suffix = ref.partition("@")
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown trace {name!r}; registered: {known}")
    versions = _REGISTRY[name]
    if not suffix:
        return versions[max(versions)]
    if not suffix.startswith("v") or not suffix[1:].isdigit():
        raise KeyError(f"bad trace version suffix in {ref!r} (expected name@vN)")
    version = int(suffix[1:])
    if version not in versions:
        raise KeyError(
            f"trace {name!r} has no version {version}; have {sorted(versions)}"
        )
    return versions[version]


def build_trace(ref: str, seed: int = 0, quick: bool = False) -> Trace:
    """Build a registered trace deterministically from ``(ref, seed)``."""
    spec = get_trace_spec(ref)
    requests = sorted(spec.build(seed, quick))
    ids = [r.id for r in requests]
    if len(set(ids)) != len(ids):
        raise AssertionError(f"trace {spec.label} built duplicate request ids")
    return Trace(
        name=spec.name, version=spec.version, seed=seed, requests=tuple(requests)
    )


# -- built-in traces -----------------------------------------------------------


def _sinusoid_rate(t: float, period: float, floor: float, peak: float) -> float:
    """Day/night rate curve: ``floor`` at t=0, ``peak`` at t=period/2."""
    return floor + (peak - floor) * 0.5 * (1.0 - np.cos(2.0 * np.pi * t / period))


@register_trace(
    "diurnal",
    version=1,
    description="sinusoidal day/night Poisson cycle: trough 0.3x, peak 2.6x capacity",
)
def _diurnal(seed: int, quick: bool) -> list[Request]:
    period = 36.0 if quick else 72.0
    floor, peak = 0.3, 2.6  # requests per unit (1/unit = one replica's capacity)
    horizon = period if quick else 2 * period
    rng = np.random.default_rng([seed, 1])
    requests: list[Request] = []
    t = 0.0
    while True:
        # thinning: draw at the peak rate, accept with prob rate(t)/peak
        t += float(rng.exponential(1.0 / peak))
        if t >= horizon:
            break
        accepted = float(rng.uniform()) < _sinusoid_rate(t, period, floor, peak) / peak
        n = int(rng.integers(4, 13))
        if accepted:
            requests.append(
                Request(arrival=t, n=n, id=len(requests)).with_slo(8.0)
            )
    return requests


@register_trace(
    "bursts",
    version=1,
    description="on/off clumps: quiet gaps, then back-to-back request bursts",
)
def _bursts(seed: int, quick: bool) -> list[Request]:
    bursts = 5 if quick else 10
    burst_size = 10 if quick else 14
    raw = bursty_arrivals(
        bursts=bursts,
        burst_size=burst_size,
        burst_gap=16.0,
        within_gap=0.08,
        n_tokens=(4, 12),
        seed=seed,
    )
    return [r.with_slo(10.0) for r in raw]


@register_trace(
    "heavy-tail",
    version=1,
    description="Poisson arrivals, lognormal prompt lengths (a few giants dominate)",
)
def _heavy_tail(seed: int, quick: bool) -> list[Request]:
    count = 60 if quick else 160
    raw = heavy_tail_arrivals(
        count=count, rate=0.7, median_tokens=6, sigma=0.8, max_tokens=40, seed=seed
    )
    # SLO budget grows with the prompt: giants get proportionally more time.
    return [r.with_slo(6.0 + 0.5 * r.n) for r in raw]


@register_trace(
    "multi-tenant",
    version=1,
    description="three tenants (interactive/batch/burst) with distinct SLOs on one timeline",
)
def _multi_tenant(seed: int, quick: bool) -> list[Request]:
    scale = 1 if quick else 2
    interactive = [
        replace(r.with_slo(5.0, priority=2), tenant="interactive")
        for r in poisson_arrivals(30 * scale, rate=0.45, n_tokens=(4, 8), seed=seed * 3 + 1)
    ]
    batch = [
        replace(r.with_slo(24.0, priority=0), tenant="batch")
        for r in poisson_arrivals(18 * scale, rate=0.25, n_tokens=(12, 24), seed=seed * 3 + 2)
    ]
    burst = [
        replace(r.with_slo(9.0, priority=1), tenant="burst")
        for r in bursty_arrivals(
            bursts=3 * scale, burst_size=6, burst_gap=24.0, within_gap=0.1,
            n_tokens=(6, 10), seed=seed * 3 + 3,
        )
    ]
    merged = sorted(
        interactive + batch + burst, key=lambda r: (r.arrival, r.tenant, r.id)
    )
    return [replace(r, id=i) for i, r in enumerate(merged)]


@register_trace(
    "shared-prefix",
    version=1,
    description="four tenants, skewed shares, per-tenant shared prompt openings (prefix-cache workload)",
)
def _shared_prefix(seed: int, quick: bool) -> list[Request]:
    count = 40 if quick else 110
    tenants = ("alpha", "beta", "gamma", "delta")
    weights = (0.4, 0.3, 0.2, 0.1)  # skewed: alpha dominates, delta is rare
    raw = poisson_arrivals(
        count=count, rate=0.9, n_tokens=(18, 30), seed=seed * 5 + 11
    )
    rng = np.random.default_rng([seed, 7])
    picks = rng.choice(len(tenants), size=len(raw), p=weights)
    return [
        replace(r.with_slo(12.0), tenant=tenants[int(pick)])
        for r, pick in zip(raw, picks)
    ]
