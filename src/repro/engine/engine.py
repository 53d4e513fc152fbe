"""The online inference engine: continuous batching over a bounded slot pool.

The worker loop (INTERNALS §10) turns an arrival stream into completed
requests through three repeating phases, all at *token-step* granularity:

1. **admit** — arrivals whose timestamp has passed enter the scheduler's
   bounded queue (or are shed with backpressure, reason ``queue-full``);
2. **dispatch** — free slots are filled from the queue in arrival order;
   requests whose deadline is already hopeless are shed (reason
   ``deadline``) instead of occupying a slot;
3. **step** — every in-flight request advances exactly one token step
   (prefill counts as one step), which is continuous batching at iteration
   granularity: a finishing decode frees its slot for a queued request at
   the very next iteration, no batch barrier.  The iteration's flights are
   announced to the sequencer first (``stage``), so the forwards they need
   run as one pass inside the first step that needs one; every flight is
   still stepped and charged on its own.

The chaos hook (``chaos_preempt_period``) is the one source of preemption:
before a step it may evict a seeded in-flight request, whose slot is
truncated and recycled and which is re-queued (greedy decoding is
deterministic, so its eventual output is unchanged — only work is lost).

Time comes from a pluggable clock: deterministic accelerated virtual time
(the default — soak tests and the ``serve`` bench) or wall time.
Everything the loop does is observable: queue-depth / slot-occupancy
gauges, shed and preemption counters, per-request spans on the ``engine``
trace track.

Two driving modes share the same loop body:

- :meth:`InferenceEngine.run` replays a complete arrival stream to drain —
  the original one-shot surface, bit-identical to what it always did;
- the **stream API** (:meth:`open_stream` / :meth:`offer` / :meth:`pump` /
  :meth:`close_stream`) exposes the identical loop incrementally, bounded
  by a virtual-time horizon, so an external co-simulator (``repro.fleet``)
  can interleave many engines in one global virtual timeline: advance each
  replica to the next event, observe its queue/slot gauges, route new
  arrivals, repeat.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.engine.clock import VirtualClock
from repro.engine.prefix_cache import PrefixCache, PrefixCacheStats
from repro.engine.scheduler import Scheduler, ShedRequest
from repro.engine.slots import KVSlot, SlotPool
from repro.obs.metrics import get_registry
from repro.obs.tracer import current_tracer
from repro.serving.arrivals import Request
from repro.serving.stats import ServedRequest, ServingStats

__all__ = [
    "EngineConfig",
    "CompletedRequest",
    "EngineReport",
    "EngineStalledError",
    "InferenceEngine",
]


class EngineStalledError(RuntimeError):
    """The loop made no progress — a scheduling bug, surfaced loudly."""


@dataclass(frozen=True)
class EngineConfig:
    """Engine sizing and admission knobs (see INTERNALS §10 for the semantics)."""

    num_slots: int = 4
    max_queue: int | None = None  # None = unbounded queue (no queue-full sheds)
    shed_on_deadline: bool = True  # drop queued requests that can no longer make it
    service_estimate: Callable[[Request], float] | None = None
    prefix_cache: bool = False  # retain finished prompt KV for cross-request reuse
    prefix_cache_slots: int | None = None  # extra retained slots; None = num_slots
    chaos_preempt_period: int | None = None  # testing: force a preemption every ~N steps
    chaos_max_preemptions: int = 4  # per-request chaos cap, so runs always terminate
    chaos_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_slots < 1:
            raise ValueError(f"need >= 1 slot, got {self.num_slots}")
        if self.prefix_cache_slots is not None:
            if not self.prefix_cache:
                raise ValueError("prefix_cache_slots requires prefix_cache=True")
            if self.prefix_cache_slots < 1:
                raise ValueError(
                    f"prefix_cache_slots must be >= 1, got {self.prefix_cache_slots}"
                )
        if self.chaos_preempt_period is not None and self.chaos_preempt_period < 1:
            raise ValueError(
                f"chaos_preempt_period must be >= 1, got {self.chaos_preempt_period}"
            )
        if self.chaos_max_preemptions < 0:
            raise ValueError(
                f"chaos_max_preemptions must be >= 0, got {self.chaos_max_preemptions}"
            )


@dataclass(frozen=True)
class CompletedRequest:
    """One served request: lifecycle timestamps plus the model output."""

    request: Request
    output: np.ndarray
    start: float  # first time it held a slot
    finish: float
    steps: int  # model forwards charged to it (includes redone work)
    preemptions: int = 0
    slot_index: int = -1
    prefix_reused: int = 0  # prompt positions seeded from the prefix cache

    @property
    def latency(self) -> float:
        return self.finish - self.request.arrival

    @property
    def deadline_missed(self) -> bool:
        return self.request.deadline is not None and self.finish > self.request.deadline


@dataclass
class EngineReport:
    """Everything one engine run produced, with serving-stats views."""

    completed: list[CompletedRequest]
    shed: list[ShedRequest]
    num_slots: int
    makespan: float = 0.0
    slot_seconds: float = 0.0
    steps_total: int = 0
    preemptions_total: int = 0
    prefix_cache: dict | None = None  # per-run hit/miss/eviction counts, if enabled

    @property
    def total_requests(self) -> int:
        return len(self.completed) + len(self.shed)

    @property
    def shed_rate(self) -> float:
        return len(self.shed) / self.total_requests if self.total_requests else 0.0

    @property
    def mean_slot_occupancy(self) -> float:
        """Time-averaged fraction of the slot pool that was busy."""
        if self.makespan <= 0:
            return 0.0
        return self.slot_seconds / (self.makespan * self.num_slots)

    def outputs(self) -> dict[int, np.ndarray]:
        return {c.request.id: c.output for c in self.completed}

    def served(self) -> list[ServedRequest]:
        return [
            ServedRequest(request=c.request, start=c.start, finish=c.finish)
            for c in self.completed
        ]

    def stats(self) -> ServingStats:
        return ServingStats.from_served(self.served())


@dataclass
class _Flight:
    """Engine-side bookkeeping around one in-flight sequencer state."""

    state: object
    request: Request
    slot: KVSlot


@dataclass
class _Lifecycle:
    first_start: float | None = None
    preemptions: int = 0
    steps: int = 0
    prefix_reused: int = 0  # summed across dispatches (re-dispatches may re-hit)


@dataclass
class _Stream:
    """Mutable state of one open request stream (one run, possibly incremental)."""

    scheduler: Scheduler
    report: EngineReport
    chaos_rng: np.random.Generator | None
    lifecycles: dict[int, _Lifecycle] = field(default_factory=dict)
    active: list[_Flight] = field(default_factory=list)
    pending: list[tuple] = field(default_factory=list)  # heap of (arrival, tie, request)
    prompts: dict[int, np.ndarray] = field(default_factory=dict)
    tie: itertools.count = field(default_factory=itertools.count)
    first_arrival: float | None = None
    shed_seen: int = 0
    last_chaos_step: int = 0


class InferenceEngine:
    """Replays an arrival stream through a sequencer under one scheduler.

    The slot pool persists across :meth:`run` calls (its buffers are the
    expensive part); the scheduler is rebuilt per run so shed records and
    queue state never leak between runs.

    ``labels`` (optional) tag every metric the engine records — e.g.
    ``labels={"replica": "r0"}`` yields ``engine.queue_depth{replica=r0}``
    — so a fleet of engines sharing one registry stays distinguishable.
    """

    def __init__(
        self,
        sequencer,
        config: EngineConfig | None = None,
        clock=None,
        labels: dict[str, str] | None = None,
    ):
        self.sequencer = sequencer
        self.config = config if config is not None else EngineConfig()
        self.clock = clock if clock is not None else VirtualClock()
        self.labels = dict(labels) if labels else {}
        self._track = (
            "engine"
            if not self.labels
            else "engine[" + ",".join(f"{k}={v}" for k, v in sorted(self.labels.items())) + "]"
        )
        retained = 0
        if self.config.prefix_cache:
            if not sequencer.supports_prefix_cache:
                raise ValueError(
                    f"{type(sequencer).__name__} does not support the prefix cache "
                    "(it keeps no engine-side KV rows to retain)"
                )
            retained = (
                self.config.prefix_cache_slots
                if self.config.prefix_cache_slots is not None
                else self.config.num_slots
            )
        self.pool = SlotPool(
            self.config.num_slots,
            num_layers=sequencer.num_layers,
            capacity=sequencer.slot_capacity,
            retained_slots=retained,
        )
        # the cache recycles displaced/duplicate slots straight back to the pool
        self.prefix_cache: PrefixCache | None = (
            PrefixCache(on_release=self.pool.reclaim)
            if self.config.prefix_cache
            else None
        )
        self.scheduler: Scheduler | None = None  # set per run
        self._stream: _Stream | None = None

    def _new_scheduler(self) -> Scheduler:
        config = self.config
        return Scheduler(
            max_queue=config.max_queue,
            shed_on_deadline=config.shed_on_deadline,
            service_estimate=config.service_estimate,
        )

    # -- observable load (what a router / autoscaler reads) --------------------

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet holding a slot (0 when no stream)."""
        return self._stream.scheduler.depth if self._stream is not None else 0

    @property
    def slots_in_use(self) -> int:
        return self.pool.in_use

    @property
    def pending_arrivals(self) -> int:
        """Offered requests whose arrival time the clock has not reached."""
        return len(self._stream.pending) if self._stream is not None else 0

    @property
    def idle(self) -> bool:
        """No queued, in-flight, or future work on the open stream."""
        s = self._stream
        return s is None or (not s.pending and not s.active and s.scheduler.depth == 0)

    # -- the incremental stream surface ----------------------------------------

    def open_stream(self) -> None:
        """Begin an incremental run: requests arrive via :meth:`offer`, time
        advances via :meth:`pump`, and :meth:`close_stream` yields the report."""
        if self._stream is not None:
            raise RuntimeError("a stream is already open on this engine")
        config = self.config
        scheduler = self.scheduler = self._new_scheduler()
        report = EngineReport(completed=[], shed=scheduler.shed, num_slots=self.pool.num_slots)
        self._stream = _Stream(
            scheduler=scheduler,
            report=report,
            chaos_rng=(
                np.random.default_rng(config.chaos_seed)
                if config.chaos_preempt_period is not None
                else None
            ),
        )
        if self.prefix_cache is not None:  # the report counts this stream only
            self.prefix_cache.stats = PrefixCacheStats()

    def offer(self, request: Request, prompt: np.ndarray | None = None) -> None:
        """Hand one request to the open stream (admitted on the next pump)."""
        s = self._require_stream()
        if request.id in s.lifecycles:
            raise ValueError(
                f"request ids must be unique within one engine run (saw {request.id} twice)"
            )
        s.lifecycles[request.id] = _Lifecycle()
        heapq.heappush(s.pending, (request.arrival, next(s.tie), request))
        if prompt is not None:
            s.prompts[request.id] = prompt
        if s.first_arrival is None or request.arrival < s.first_arrival:
            s.first_arrival = request.arrival

    def pump(self, until: float | None = None) -> None:
        """Advance the open stream: to drain (``until=None``) or until the
        clock reaches the virtual-time horizon ``until``.

        With a horizon, an idle engine jumps its clock straight to ``until``
        (replicas stay mutually consistent in fleet co-simulation); a busy
        engine steps until a token step carries it past the horizon — steps
        are atomic, so the clock may overshoot by part of one step.
        """
        self._run_loop(self._require_stream(), until)

    def close_stream(self) -> EngineReport:
        """Finish the open stream (draining any remaining work) and report."""
        s = self._require_stream()
        self._run_loop(s, None)
        return self._finalise(s)

    def _require_stream(self) -> _Stream:
        if self._stream is None:
            raise RuntimeError("no open stream: call open_stream() first")
        return self._stream

    # -- the one-shot surface --------------------------------------------------

    def run(
        self,
        requests: Sequence[Request],
        prompts: dict[int, np.ndarray] | None = None,
    ) -> EngineReport:
        """Serve every request; returns when the stream is fully drained.

        ``prompts`` optionally maps request ids to explicit token arrays;
        missing ids fall back to the sequencer's deterministic synthetic
        prompt.  Request ids must be unique — they key the report's outputs.
        """
        order = sorted(requests)
        ids = [r.id for r in order]
        if len(set(ids)) != len(ids):
            raise ValueError("request ids must be unique within one engine run")
        prompts = prompts if prompts is not None else {}
        tracer = current_tracer()
        self.open_stream()
        s = self._stream
        for request in order:
            self.offer(request, prompts.get(request.id))
        with tracer.span("engine.run", cat="engine", kind="request", track="engine-wall"):
            self._run_loop(s, None)
        return self._finalise(s)

    # -- slot + prefix-cache plumbing ------------------------------------------

    def _can_dispatch(self) -> bool:
        """Whether a queued request could start now: a clean free slot, or a
        retained refcount-0 prefix entry to evict — concurrency stays capped
        at ``num_slots`` either way."""
        pool = self.pool
        if pool.in_use >= pool.num_slots:
            return False
        if pool.num_free > 0:
            return True
        return self.prefix_cache is not None and self.prefix_cache.evictable()

    def _acquire_slot(self) -> KVSlot | None:
        """A clean slot: from the free list, else by evicting the LRU
        refcount-0 prefix entry and reclaiming its retained slot."""
        slot = self.pool.acquire()
        if slot is None and self.prefix_cache is not None:
            victim = self.prefix_cache.evict_lru()
            if victim is not None:
                slot = self.pool.reclaim(victim.slot, checkout=True)
        return slot

    def _seed_prefix(self, slot: KVSlot, prompt: np.ndarray) -> int:
        """Copy the longest cached prefix of ``prompt`` into ``slot``; the
        donor entry stays pinned over the copy window.  The match is capped
        so at least ``min_prefill_suffix`` prompt positions re-prefill as a
        multi-row GEMM (the bit-identity condition, INTERNALS §16).  The
        slot is sized for the request first, so the copy lands in buffers
        allocated once."""
        cache = self.prefix_cache
        hit = cache.match(prompt, limit=len(prompt) - self.sequencer.min_prefill_suffix)
        if hit is None:
            return 0
        entry, length = hit
        self.sequencer.reserve(slot, prompt)
        with cache.pinned(entry):
            slot.copy_prefix_from(entry.slot, length)
        return length

    def _release_slot(self, flight: "_Flight") -> None:
        """Release a flight's slot — retaining its prompt rows for the
        prefix cache when the sequencer deems them shareable."""
        if self.prefix_cache is not None:
            key = self.sequencer.cache_key(flight.state)
            if key is not None:
                flight.slot.truncate(len(key))  # prompt rows only; decode rows drop
                self.pool.release(flight.slot, retain=True)
                self.prefix_cache.insert(key, flight.slot)
                return
        self.pool.release(flight.slot)

    # -- the worker loop -------------------------------------------------------

    def _run_loop(self, s: _Stream, until: float | None) -> None:
        config, clock, pool = self.config, self.clock, self.pool
        scheduler, report, active = s.scheduler, s.report, s.active
        lifecycles = s.lifecycles
        registry = get_registry()
        tracer = current_tracer()
        labels = self.labels
        queue_gauge = registry.gauge("engine.queue_depth", **labels)
        slots_gauge = registry.gauge("engine.slots_in_use", **labels)

        def record_shed() -> None:
            for record in scheduler.shed[s.shed_seen:]:
                registry.counter("engine.shed_total", reason=record.reason, **labels).inc()
                if tracer.enabled:
                    tracer.record_at(
                        f"shed request {record.request.id}", cat="engine", kind="other",
                        start_s=record.time, duration_s=0.0, track=self._track,
                        reason=record.reason,
                    )
            s.shed_seen = len(scheduler.shed)

        def preempt(flight: _Flight) -> None:
            active.remove(flight)
            # prompt rows may be retained for the prefix cache — the victim
            # itself will re-match them on re-dispatch, shrinking redone work
            self._release_slot(flight)
            scheduler.requeue(flight.request)
            lifecycles[flight.request.id].preemptions += 1
            report.preemptions_total += 1
            registry.counter("engine.preemptions_total", **labels).inc()

        def finish(flight: _Flight, now: float) -> None:
            output = self.sequencer.result(flight.state)
            active.remove(flight)
            self._release_slot(flight)
            life = lifecycles[flight.request.id]
            record = CompletedRequest(
                request=flight.request,
                output=output,
                start=life.first_start,
                finish=now,
                steps=life.steps,
                preemptions=life.preemptions,
                slot_index=flight.slot.index,
                prefix_reused=life.prefix_reused,
            )
            report.completed.append(record)
            registry.counter("engine.completed_total", **labels).inc()
            registry.histogram("engine.latency_seconds", **labels).observe(record.latency)
            if tracer.enabled:
                tracer.record_at(
                    f"request {flight.request.id}", cat="engine", kind="service",
                    start_s=record.start, duration_s=record.finish - record.start,
                    track=self._track, arrival=flight.request.arrival,
                    preemptions=record.preemptions, steps=record.steps,
                )

        while True:
            progressed = False
            now = clock.now()
            if until is not None and now >= until:
                return

            # 1. admit everything that has arrived
            while s.pending and s.pending[0][0] <= now:
                _, _, request = heapq.heappop(s.pending)
                scheduler.submit(request, now)
                progressed = True
            record_shed()

            # 2. fill free slots in arrival order
            while self._can_dispatch():
                request = scheduler.next_ready(now)
                if request is None:
                    break
                slot = self._acquire_slot()
                if slot is None:  # every retained entry pinned — cannot happen
                    break         # mid-loop today, but stay defensive
                prompt = s.prompts.get(request.id)
                if prompt is None:
                    prompt = self.sequencer.prompt_for(request)
                if self.prefix_cache is not None:
                    cached_prefix = self._seed_prefix(slot, prompt)
                    state = self.sequencer.begin(
                        request, prompt, slot, cached_prefix=cached_prefix
                    )
                    lifecycles[request.id].prefix_reused += cached_prefix
                else:
                    state = self.sequencer.begin(request, prompt, slot)
                life = lifecycles[request.id]
                if life.first_start is None:
                    life.first_start = now
                active.append(_Flight(state=state, request=request, slot=slot))
                progressed = True
            record_shed()
            queue_gauge.set(scheduler.depth)
            slots_gauge.set(pool.in_use)

            # 3. one token step for every in-flight request
            if active:
                # chaos hook: force a (seeded) preemption to prove restart
                # correctness under adversarial scheduling; the per-request
                # cap keeps the redone work finite, so runs always end
                if (
                    s.chaos_rng is not None
                    and report.steps_total > 0
                    and report.steps_total % config.chaos_preempt_period == 0
                    and report.steps_total != s.last_chaos_step
                ):
                    s.last_chaos_step = report.steps_total
                    eligible = [
                        f for f in active
                        if lifecycles[f.request.id].preemptions
                        < config.chaos_max_preemptions
                    ]
                    if eligible:
                        preempt(eligible[int(s.chaos_rng.integers(len(eligible)))])
                # announce the iteration's flights — after every preemption, so
                # each staged state is stepped below — then step them one by
                # one: a sequencer may run all their forwards inside the first
                # step that needs one (the iteration forward), which is then
                # charged the whole pass and the others nothing; clock and
                # step accounting stay per flight
                self.sequencer.stage([flight.state for flight in active], labels)
                for flight in list(active):
                    in_use = pool.in_use
                    began = time.perf_counter()
                    done, cost = self.sequencer.step(flight.state)
                    elapsed = (
                        cost if cost is not None else time.perf_counter() - began
                    )
                    clock.advance(elapsed)
                    lifecycles[flight.request.id].steps += 1
                    report.steps_total += 1
                    report.slot_seconds += elapsed * in_use
                    if done:
                        finish(flight, clock.now())
                progressed = True
            elif s.pending:
                next_arrival = s.pending[0][0]
                if until is not None and next_arrival > until:
                    clock.wait_until(until)
                    return
                clock.wait_until(next_arrival)
                progressed = True
            elif scheduler.depth == 0:
                if until is not None:
                    clock.wait_until(until)  # drained: idle through the horizon
                return

            if not progressed:
                raise EngineStalledError(
                    f"engine stalled at t={now:.6f}: queue={scheduler.depth}, "
                    f"active={len(active)}, free slots={pool.num_free}"
                )

    def _finalise(self, s: _Stream) -> EngineReport:
        registry = get_registry()
        report = s.report
        registry.counter("engine.steps_total", **self.labels).inc(report.steps_total)
        if self.prefix_cache is not None:
            stats = self.prefix_cache.stats
            report.prefix_cache = {**stats.as_dict(), "entries": len(self.prefix_cache)}
            labels = self.labels
            registry.counter("engine.prefix_cache.hits_total", **labels).inc(stats.hits)
            registry.counter("engine.prefix_cache.misses_total", **labels).inc(stats.misses)
            registry.counter("engine.prefix_cache.evictions_total", **labels).inc(
                stats.evictions
            )
            registry.counter(
                "engine.prefix_cache.positions_saved_total", **labels
            ).inc(stats.positions_saved)
            registry.gauge("engine.prefix_cache.entries", **labels).set(
                len(self.prefix_cache)
            )
        first_arrival = s.first_arrival if s.first_arrival is not None else 0.0
        end = max(
            [c.finish for c in report.completed] + [r.time for r in s.scheduler.shed],
            default=first_arrival,
        )
        report.makespan = end - first_arrival
        registry.gauge("engine.queue_depth", **self.labels).set(0)
        registry.gauge("engine.slots_in_use", **self.labels).set(0)
        self._stream = None
        return report
