"""Fleet co-simulation: many engines, one router, one virtual timeline.

Each replica is a full :class:`~repro.engine.InferenceEngine` with its own
:class:`~repro.engine.clock.VirtualClock` and sequencer over one shared
model; the fleet advances them together through the engine's incremental
stream API (``open_stream`` / ``offer`` / ``pump(until)`` /
``close_stream``).  The run is a discrete-event loop over the *global*
timeline:

1. pick the next event — the earliest unrouted arrival or the next
   autoscaler tick;
2. ``pump`` every live replica up to that event time (idle replicas jump
   their clocks; busy ones step token-by-token, possibly overshooting by
   part of one atomic step);
3. on a tick, let the autoscaler read the replicas' gauges and propose a
   decision; the fleet applies it — scaling up spawns a replica with a
   clock born at the event time, scaling down retires the **highest-index
   idle** replica (never mid-request, and a busy fleet simply ignores a
   down proposal);
4. route every arrival at this event through the router and ``offer`` it
   to the chosen replica — it is admitted when that replica's clock next
   sweeps past its arrival time.

After the last arrival the loop keeps ticking until every replica drains,
then retires them all and merges the per-replica
:class:`~repro.engine.EngineReport` into one :class:`FleetReport`.  Every
decision — routing, scaling, admission, token steps — is a deterministic
function of (trace, seed, policy, config), which is what the fleet bench's
byte-identical-report gate checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import EngineConfig, EngineReport, InferenceEngine, VirtualClock
from repro.fleet.autoscaler import Autoscaler
from repro.fleet.router import Router
from repro.fleet.tiers import request_seconds
from repro.serving.arrivals import Request
from repro.serving.stats import ServedRequest, ServingStats

__all__ = ["FleetConfig", "Replica", "FleetReport", "Fleet"]

#: Replicas a run starts with, before the autoscaler's first tick.
_INITIAL_REPLICAS = 1


@dataclass(frozen=True)
class FleetConfig:
    """Per-replica engine sizing plus fleet-level knobs."""

    num_slots: int = 2
    max_queue: int | None = None
    max_new_tokens: int = 8

    def engine_config(self, model_config) -> EngineConfig:
        """A replica's engine sheds on deadline, estimating each request's
        service time as its lone price on ``model_config``
        (:func:`~repro.fleet.tiers.request_seconds`)."""
        max_new = self.max_new_tokens
        return EngineConfig(
            num_slots=self.num_slots,
            max_queue=self.max_queue,
            service_estimate=lambda r: request_seconds(model_config, r.n, max_new),
        )


@dataclass
class Replica:
    """One live engine plus the identity the router and autoscaler see."""

    index: int  # spawn order, unique for the whole run (never reused)
    engine: InferenceEngine
    retired_at: float | None = None
    report: EngineReport | None = None

    @property
    def name(self) -> str:
        return f"r{self.index}"

    @property
    def labels(self) -> dict[str, str]:
        return self.engine.labels

    @property
    def num_slots(self) -> int:
        return self.engine.config.num_slots

    @property
    def queue_depth(self) -> int:
        return self.engine.queue_depth

    @property
    def slots_in_use(self) -> int:
        return self.engine.slots_in_use

    @property
    def idle(self) -> bool:
        return self.engine.idle


@dataclass
class FleetReport:
    """Merged outcome of one fleet run, with full per-replica provenance."""

    replicas: list[Replica]
    routing: list[tuple[int, str]]  # (request id, replica name)
    scale_events: list[tuple[float, str, str]]  # (time, "up"/"down", replica name)
    timeline: list[tuple[float, int]]  # (time, live replica count) at each change
    end_time: float = 0.0

    @property
    def replica_reports(self) -> list[EngineReport]:
        return [r.report for r in self.replicas if r.report is not None]

    def served(self) -> list[ServedRequest]:
        merged = [s for rep in self.replica_reports for s in rep.served()]
        return sorted(merged, key=lambda s: (s.request.arrival, s.request.id))

    def stats(self) -> ServingStats:
        return ServingStats.from_served(self.served())

    @property
    def completed(self) -> int:
        return sum(len(rep.completed) for rep in self.replica_reports)

    @property
    def shed(self) -> list:
        records = [s for rep in self.replica_reports for s in rep.shed]
        return sorted(records, key=lambda s: (s.time, s.request.id))

    @property
    def total_requests(self) -> int:
        return self.completed + len(self.shed)

    @property
    def shed_rate(self) -> float:
        total = self.total_requests
        return len(self.shed) / total if total else 0.0

    @property
    def deadline_miss_rate(self) -> float:
        return self.stats().deadline_miss_rate

    def outputs(self) -> dict[int, np.ndarray]:
        merged: dict[int, np.ndarray] = {}
        for rep in self.replica_reports:
            merged.update(rep.outputs())
        return merged

    @property
    def peak_replicas(self) -> int:
        return max((count for _, count in self.timeline), default=0)

    @property
    def mean_replicas(self) -> float:
        """Time-weighted mean live replica count over the run."""
        if not self.timeline or self.end_time <= self.timeline[0][0]:
            return float(self.timeline[-1][1]) if self.timeline else 0.0
        total = 0.0
        for (t0, count), (t1, _) in zip(self.timeline, self.timeline[1:]):
            total += count * (t1 - t0)
        last_t, last_count = self.timeline[-1]
        total += last_count * (self.end_time - last_t)
        return total / (self.end_time - self.timeline[0][0])

    def summary(self) -> str:
        stats = self.stats()
        return (
            f"{self.total_requests} requests over {len(self.replicas)} replicas "
            f"(peak {self.peak_replicas} live) | {stats.summary()} | "
            f"shed {self.shed_rate:.1%}"
        )


class Fleet:
    """Runs one request stream across an elastic pool of engine replicas.

    ``sequencer_factory()`` builds a fresh sequencer for each spawned
    replica (replicas must not share mutable decode state; sharing the
    underlying model weights is fine and expected).
    """

    def __init__(
        self,
        sequencer_factory,
        router: Router,
        autoscaler: Autoscaler | None = None,
        config: FleetConfig | None = None,
    ):
        self.sequencer_factory = sequencer_factory
        self.router = router
        self.autoscaler = autoscaler
        self.config = config if config is not None else FleetConfig()
        self.live: list[Replica] = []
        self._all: list[Replica] = []
        self._scale_events: list[tuple[float, str, str]] = []
        self._timeline: list[tuple[float, int]] = []

    # -- replica lifecycle -----------------------------------------------------

    def _spawn(self, now: float) -> Replica:
        index = len(self._all)
        sequencer = self.sequencer_factory()
        engine = InferenceEngine(
            sequencer,
            config=self.config.engine_config(sequencer.model.config),
            clock=VirtualClock(start=now),
            labels={"replica": f"r{index}"},
        )
        engine.open_stream()
        replica = Replica(index=index, engine=engine)
        self._all.append(replica)
        self.live.append(replica)
        self._timeline.append((now, len(self.live)))
        return replica

    def _retire(self, replica: Replica, now: float) -> None:
        replica.report = replica.engine.close_stream()
        replica.retired_at = max(now, replica.engine.clock.now())
        self.live.remove(replica)
        self._timeline.append((now, len(self.live)))

    def _apply_scale(self, decision: str | None, now: float) -> None:
        scaler = self.autoscaler
        if decision == "up" and len(self.live) < scaler.config.max_replicas:
            replica = self._spawn(now)
            self._scale_events.append((now, "up", replica.name))
        elif decision == "down" and len(self.live) > scaler.config.min_replicas:
            # retire the newest idle replica; a fully-busy fleet ignores the
            # proposal (we never kill a replica holding work)
            for replica in sorted(self.live, key=lambda r: -r.index):
                if replica.idle:
                    self._retire(replica, now)
                    self._scale_events.append((now, "down", replica.name))
                    break

    # -- the run loop ----------------------------------------------------------

    def run(self, requests: list[Request] | tuple[Request, ...]) -> FleetReport:
        if self._all:
            raise RuntimeError("a Fleet instance runs exactly once; build a new one")
        arrivals = sorted(requests)
        start = arrivals[0].arrival if arrivals else 0.0
        for _ in range(_INITIAL_REPLICAS):
            self._spawn(start)
        # align the timeline's origin with the run start, not spawn order
        self._timeline = [(start, len(self.live))]

        scaler = self.autoscaler
        next_tick = start + scaler.interval if scaler is not None else None
        routing: list[tuple[int, str]] = []
        cursor = 0

        while True:
            events = []
            if cursor < len(arrivals):
                events.append(arrivals[cursor].arrival)
            draining = cursor >= len(arrivals)
            busy = any(not r.idle for r in self.live)
            if scaler is not None and not (draining and not busy):
                events.append(next_tick)
            if not events:
                break  # all routed and every replica drained
            now = max(min(events), start)

            for replica in self.live:
                replica.engine.pump(until=now)

            if scaler is not None and next_tick is not None and now >= next_tick:
                self._apply_scale(scaler.observe(now, self.live), now)
                next_tick += scaler.interval

            while cursor < len(arrivals) and arrivals[cursor].arrival <= now:
                request = arrivals[cursor]
                replica = self.router.choose(request, self.live)
                replica.engine.offer(request)
                routing.append((request.id, replica.name))
                cursor += 1

            if scaler is None and cursor >= len(arrivals):
                break  # fixed fleet: everything routed; drain below

        end = start
        for replica in list(self.live):
            if not replica.idle:
                replica.engine.pump(until=None)  # drain any residual work
            end = max(end, replica.engine.clock.now())
        for replica in list(self.live):
            self._retire(replica, end)

        report = FleetReport(
            replicas=self._all,
            routing=routing,
            scale_events=self._scale_events,
            timeline=self._timeline,
            end_time=end,
        )
        return report
