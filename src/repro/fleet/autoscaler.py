"""Gauge-driven autoscaling: sustained pressure up, sustained idleness down.

The control loop is deliberately boring — it is the one every production
autoscaler converges on (and the one "Profiling-Driven Adaptive Distributed
Transformer Inference" builds its placement decisions on): sample live
metrics on a fixed period, require the signal to *sustain* for several
consecutive samples before acting, and enforce per-direction cooldowns so
scale decisions cannot oscillate faster than replicas can absorb load.

The signals are exactly the gauges the engine already publishes — read
back from the :class:`~repro.obs.metrics.MetricsRegistry` under each
replica's labels, not through a private side channel:

- ``engine.queue_depth{replica=...}`` — admitted-but-waiting requests;
  mean depth per replica >= ``up_queue_per_replica`` is *pressure*;
- ``engine.slots_in_use{replica=...}`` — busy decode slots; fleet-wide
  occupancy <= ``down_busy_fraction`` with empty queues is *idleness*.

The autoscaler only *proposes* (``"up"`` / ``"down"`` / None); the fleet
applies the decision (spawning a replica of its one model, retiring only
an idle replica) and enforces the min/max replica bounds, which the proposal also
respects.  Every sample lands in :attr:`Autoscaler.history`, so a bench
report can reconstruct the full control timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = ["AutoscalerConfig", "AutoscalerSample", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Control-loop knobs (times in virtual seconds, the fleet's time base)."""

    min_replicas: int = 1
    max_replicas: int = 8
    interval: float = 1.0  # sampling period
    up_queue_per_replica: float = 1.0  # mean queued/replica that counts as pressure
    up_sustain: int = 2  # consecutive pressured samples before scaling up
    up_cooldown: float = 2.0  # min time between scale-ups
    down_busy_fraction: float = 0.05  # fleet slot occupancy that counts as idle
    down_sustain: int = 4  # consecutive idle samples before scaling down
    down_cooldown: float = 6.0  # min time between scale-downs

    def __post_init__(self) -> None:
        if not (1 <= self.min_replicas <= self.max_replicas):
            raise ValueError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"{self.min_replicas}, {self.max_replicas}"
            )
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval}")
        if self.up_sustain < 1 or self.down_sustain < 1:
            raise ValueError("sustain counts must be >= 1")
        if self.up_cooldown < 0 or self.down_cooldown < 0:
            raise ValueError("cooldowns must be >= 0")
        if self.up_queue_per_replica < 0 or self.down_busy_fraction < 0:
            raise ValueError("thresholds must be >= 0")


@dataclass(frozen=True)
class AutoscalerSample:
    """One control-loop observation and what it decided."""

    time: float
    replicas: int
    queue_depth: float  # fleet-wide sum of engine.queue_depth
    busy_fraction: float  # fleet-wide slots_in_use / total slots
    decision: str | None  # "up" | "down" | None


@dataclass
class Autoscaler:
    """Samples the replica gauges and proposes scale decisions."""

    config: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    registry: MetricsRegistry | None = None
    history: list[AutoscalerSample] = field(default_factory=list)
    _up_streak: int = 0
    _idle_streak: int = 0
    _last_up: float | None = None
    _last_down: float | None = None

    @property
    def interval(self) -> float:
        return self.config.interval

    def _gauge(self, name: str, replica) -> float:
        registry = self.registry if self.registry is not None else get_registry()
        return registry.gauge(name, **replica.labels).value

    def observe(self, now: float, replicas: list) -> str | None:
        """Sample the fleet at virtual time ``now`` and propose a decision.

        ``replicas`` is the live set; each exposes ``labels`` (the metric
        labels its engine records under) and ``num_slots``.
        """
        if not replicas:
            raise ValueError("autoscaler needs at least one live replica")
        config = self.config
        queue = sum(self._gauge("engine.queue_depth", r) for r in replicas)
        busy = sum(self._gauge("engine.slots_in_use", r) for r in replicas)
        total_slots = sum(r.num_slots for r in replicas)
        busy_fraction = busy / total_slots if total_slots else 0.0
        pressured = queue / len(replicas) >= config.up_queue_per_replica
        idle = queue == 0 and busy_fraction <= config.down_busy_fraction

        self._up_streak = self._up_streak + 1 if pressured else 0
        self._idle_streak = self._idle_streak + 1 if idle else 0

        decision: str | None = None
        if (
            self._up_streak >= config.up_sustain
            and len(replicas) < config.max_replicas
            and (self._last_up is None or now - self._last_up >= config.up_cooldown)
        ):
            decision = "up"
            self._last_up = now
            self._up_streak = 0
        elif (
            self._idle_streak >= config.down_sustain
            and len(replicas) > config.min_replicas
            and (self._last_down is None or now - self._last_down >= config.down_cooldown)
        ):
            decision = "down"
            self._last_down = now
            self._idle_streak = 0

        self.history.append(
            AutoscalerSample(
                time=now,
                replicas=len(replicas),
                queue_depth=queue,
                busy_fraction=busy_fraction,
                decision=decision,
            )
        )
        return decision
