"""Runtime device dynamics: time-varying effective speeds.

Real edge devices do not hold a constant throughput — thermal throttling,
background apps and DVFS make speed drift over time.  The paper's Section
V-B observes that Voltage can re-partition *every layer* for free (each
device holds the full input after the All-Gather) and leaves dynamic schemes
to future work; this module provides the workload half of that extension:
deterministic, seeded per-layer speed traces that the adaptive system in
:mod:`repro.systems.adaptive` reacts to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.spec import ClusterSpec

__all__ = ["SpeedTrace", "constant_trace", "random_walk_trace", "spike_trace"]


@dataclass(frozen=True)
class SpeedTrace:
    """Per-device multiplicative speed factors indexed by computation step.

    ``factors[t][d]`` scales device ``d``'s nominal GFLOP/s at step ``t``
    (for layer-synchronous protocols, one step per transformer layer).
    Steps beyond the trace length repeat the last row, so a trace can be
    shorter than the model is deep.
    """

    factors: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("trace needs at least one step")
        width = len(self.factors[0])
        for t, row in enumerate(self.factors):
            if len(row) != width:
                raise ValueError(f"step {t} has {len(row)} devices, expected {width}")
            if any(f <= 0 for f in row):
                raise ValueError(f"speed factors must be positive, got {row} at step {t}")

    @property
    def num_devices(self) -> int:
        return len(self.factors[0])

    @property
    def num_steps(self) -> int:
        return len(self.factors)

    def at(self, step: int) -> tuple[float, ...]:
        """Factors for ``step``, clamping past the end of the trace."""
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        return self.factors[min(step, len(self.factors) - 1)]

    def effective_gflops(self, step: int, nominal: list[float]) -> list[float]:
        """Apply the step's factors to nominal device speeds."""
        row = self.at(step)
        if len(nominal) != len(row):
            raise ValueError(
                f"trace covers {len(row)} devices, got {len(nominal)} nominal speeds"
            )
        return [g * f for g, f in zip(nominal, row)]

    def cluster_at(self, step: int, cluster: ClusterSpec) -> ClusterSpec:
        """``cluster`` with every device at its effective speed for ``step``."""
        speeds = self.effective_gflops(step, cluster.device_gflops)
        devices = tuple(replace(d, gflops=g) for d, g in zip(cluster.devices, speeds))
        return replace(cluster, devices=devices)


def constant_trace(num_devices: int, num_steps: int = 1) -> SpeedTrace:
    """No dynamics: every device at nominal speed forever."""
    return SpeedTrace(tuple(tuple(1.0 for _ in range(num_devices)) for _ in range(num_steps)))


def random_walk_trace(
    num_devices: int,
    num_steps: int,
    volatility: float = 0.08,
    floor: float = 0.3,
    ceiling: float = 1.0,
    seed: int = 0,
) -> SpeedTrace:
    """Geometric random-walk drift, clipped to [floor, ceiling].

    Models slow background-load drift: each step multiplies each device's
    factor by ``exp(N(0, volatility))``.
    """
    if not (0 < floor <= ceiling):
        raise ValueError(f"need 0 < floor <= ceiling, got {floor}, {ceiling}")
    rng = np.random.default_rng(seed)
    current = np.full(num_devices, (floor + ceiling) / 2)
    rows = []
    for _ in range(num_steps):
        current = np.clip(current * np.exp(rng.normal(0, volatility, num_devices)),
                          floor, ceiling)
        rows.append(tuple(float(f) for f in current))
    return SpeedTrace(tuple(rows))


def spike_trace(
    num_devices: int,
    num_steps: int,
    victim: int = 0,
    spike_start: int = 0,
    spike_length: int | None = None,
    slowdown: float = 4.0,
) -> SpeedTrace:
    """One device suddenly slows by ``slowdown``× for a window of steps.

    Models a foreground app stealing the victim device's CPU — the scenario
    where a static even split stalls the whole barrier on the straggler.
    """
    if not (0 <= victim < num_devices):
        raise ValueError(f"victim {victim} out of range for {num_devices} devices")
    if slowdown < 1:
        raise ValueError(f"slowdown must be >= 1, got {slowdown}")
    spike_length = spike_length if spike_length is not None else num_steps - spike_start
    rows = []
    for step in range(num_steps):
        row = [1.0] * num_devices
        if spike_start <= step < spike_start + spike_length:
            row[victim] = 1.0 / slowdown
        rows.append(tuple(row))
    return SpeedTrace(tuple(rows))
