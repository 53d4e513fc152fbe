"""Tests for the engine worker loop: the soak guarantee, shedding, policies.

The acceptance contract (ISSUE 4): under heavy concurrency with forced
preemptions, every served output is bit-identical to the offline
``generate_cached`` reference, nothing deadlocks, and no request vanishes
without an explicit shed record.  The overload test pins the documented
latency bound: with deadline shedding, admitted p99 stays within
``slo + num_slots × service``; without shedding it provably does not.
"""

import numpy as np
import pytest

from repro import obs
from repro.engine import (
    EngineConfig,
    GPT2CachedSequencer,
    InferenceEngine,
    VirtualClock,
    WallClock,
)
from repro.serving.arrivals import Request, bursty_arrivals, uniform_arrivals

from .conftest import chaos_soak, check_bit_identity, constant_step_cost


class TestSoak:
    def test_seeded_soak_bit_identical_under_preemption(self, gpt2):
        """The headline guarantee: 24 simultaneous requests over 4 slots
        with chaos preemptions firing — every output bit-identical to the
        offline decode, every request accounted for."""
        sequencer = GPT2CachedSequencer(gpt2, max_new_tokens=6, step_cost=constant_step_cost)
        requests = [
            r.with_slo(slo=60.0)
            for r in bursty_arrivals(bursts=2, burst_size=12, burst_gap=0.005, n_tokens=(3, 9))
        ]
        # nothing shed, nothing lost, nothing deadlocked, every output exact
        report = chaos_soak(
            sequencer, requests,
            num_slots=4, chaos_preempt_period=5, chaos_max_preemptions=2, chaos_seed=7,
        )
        assert len(requests) == 24
        # the stream really was concurrent: every request had arrived
        # before the first one finished (24 in the system at once)
        first_finish = min(c.finish for c in report.completed)
        assert all(r.arrival < first_finish for r in requests)
        # chaos preemptions actually fired, and their work was redone
        assert report.preemptions_total > 0
        minimal_steps = sum(
            min(sequencer.max_new_tokens, 1) + sequencer.max_new_tokens for _ in requests
        )
        assert report.steps_total > minimal_steps  # includes redone forwards

    def test_soak_is_deterministic(self, gpt2):
        def run():
            sequencer = GPT2CachedSequencer(
                gpt2, max_new_tokens=5, step_cost=constant_step_cost
            )
            config = EngineConfig(num_slots=3, chaos_preempt_period=4, chaos_seed=1)
            requests = bursty_arrivals(bursts=1, burst_size=16, burst_gap=1.0)
            return InferenceEngine(sequencer, config).run(requests)

        a, b = run(), run()
        assert [c.request.id for c in a.completed] == [c.request.id for c in b.completed]
        assert [c.finish for c in a.completed] == [c.finish for c in b.completed]

    def test_slot_buffers_survive_across_runs(self, sequencer):
        """The pool persists between runs: the second stream decodes into
        buffers allocated by the first (steady state allocates nothing)."""
        engine = InferenceEngine(sequencer, EngineConfig(num_slots=2))
        engine.run(uniform_arrivals(6, interval=0.01, n_tokens=5))
        baseline = engine.pool.allocations()
        report = engine.run(uniform_arrivals(6, interval=0.01, n_tokens=5))
        assert engine.pool.allocations() == baseline
        assert len(report.completed) == 6


class TestPrefixCache:
    """The engine-level prefix-cache contract (ISSUE 10): bit identity,
    real hits, flat allocations, and correct behaviour when a donor entry
    is evicted while its beneficiaries are still in flight."""

    def tenant_stream(self, seed=5, bursts=2, burst_size=12):
        requests = bursty_arrivals(
            bursts=bursts, burst_size=burst_size, burst_gap=4.0,
            within_gap=0.02, n_tokens=(6, 14), seed=seed,
        )
        tenants = ("alpha", "beta", "gamma")
        return [
            Request(r.arrival, r.n, id=r.id, tenant=tenants[r.id % 3])
            for r in requests
        ]

    def make_engine(self, gpt2, **config_kwargs):
        sequencer = GPT2CachedSequencer(
            gpt2, max_new_tokens=6, step_cost=constant_step_cost, shared_prefix_tokens=4
        )
        config_kwargs.setdefault("num_slots", 3)
        config_kwargs.setdefault("prefix_cache", True)
        engine = InferenceEngine(sequencer, EngineConfig(**config_kwargs))
        return engine, sequencer

    def test_soak_bit_identical_with_hits_and_flat_allocations(self, gpt2):
        engine, sequencer = self.make_engine(
            gpt2, chaos_preempt_period=7, chaos_max_preemptions=2, chaos_seed=1
        )
        requests = self.tenant_stream(seed=5)
        report = engine.run(requests)
        assert len(report.completed) == len(requests)
        assert report.prefix_cache["hits"] > 0
        assert report.prefix_cache["positions_saved"] > 0
        check_bit_identity(report, sequencer, requests)
        # steady state: a second stream allocates nothing new
        baseline = engine.pool.allocations()
        second = self.tenant_stream(seed=9)
        report2 = engine.run(second)
        assert engine.pool.allocations() == baseline
        assert report2.prefix_cache["hits"] > 0
        check_bit_identity(report2, sequencer, second)

    def test_cached_prefill_does_less_work_than_cold(self, gpt2):
        """The perf claim at engine level: same outputs, fewer redone
        prompt positions (completed requests record their reuse)."""
        engine, _ = self.make_engine(gpt2)
        report = engine.run(self.tenant_stream())
        reused = sum(c.prefix_reused for c in report.completed)
        assert reused > 0
        assert reused == report.prefix_cache["positions_saved"]

    def test_eviction_under_slot_pressure_stays_bit_identical(self, gpt2):
        """One retained slot only: every new tenant's insert displaces the
        previous entry through evict_lru's checkout path mid-stream —
        in-flight requests that already copied from the evicted donor must
        be unaffected (copies never alias)."""
        engine, sequencer = self.make_engine(
            gpt2, num_slots=2, prefix_cache_slots=1,
            chaos_preempt_period=6, chaos_max_preemptions=2, chaos_seed=2,
        )
        requests = self.tenant_stream(seed=3, bursts=3, burst_size=9)
        report = engine.run(requests)
        assert len(report.completed) == len(requests)
        assert report.prefix_cache["evictions"] > 0  # pressure actually evicted
        assert report.prefix_cache["hits"] > 0
        check_bit_identity(report, sequencer, requests)

    def test_preempted_request_rematches_its_own_prefix(self, gpt2):
        """A preemption retains the victim's prompt rows; its re-dispatch
        should find them again (prefix_reused > 0 on a preempted request)."""
        engine, sequencer = self.make_engine(
            gpt2, num_slots=2, chaos_preempt_period=4,
            chaos_max_preemptions=2, chaos_seed=11,
        )
        requests = self.tenant_stream(seed=7)
        report = engine.run(requests)
        preempted = [c for c in report.completed if c.preemptions > 0]
        assert preempted  # chaos fired
        assert any(c.prefix_reused > 0 for c in preempted)
        check_bit_identity(report, sequencer, requests)

    def test_prefix_cache_requires_sequencer_support(self, gpt2):
        from repro.cluster.spec import ClusterSpec
        from repro.engine import VoltageDecodeSequencer
        from repro.systems import VoltageSystem

        system = VoltageSystem(gpt2, ClusterSpec.homogeneous(2, gflops=5.0, bandwidth_mbps=500))
        with VoltageDecodeSequencer(system) as sequencer:  # its ranks never start
            with pytest.raises(ValueError, match="prefix cache"):
                InferenceEngine(sequencer, EngineConfig(prefix_cache=True))

    def test_prefix_cache_slots_validated(self):
        with pytest.raises(ValueError, match="prefix_cache_slots"):
            EngineConfig(prefix_cache=True, prefix_cache_slots=0)
        with pytest.raises(ValueError, match="prefix_cache"):
            EngineConfig(prefix_cache=False, prefix_cache_slots=2)


class TestPromptTruncation:
    """Regression (ISSUE 10 satellite): a request asking for more context
    than the model holds used to be silently clipped; now it is clipped
    *and recorded*."""

    def test_oversized_prompt_recorded_not_silent(self, gpt2, sequencer):
        max_positions = gpt2.config.max_positions
        oversized = Request(0.0, max_positions + 7, id=0)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            report = InferenceEngine(sequencer, EngineConfig(num_slots=1)).run([oversized])
        assert sequencer.truncated_prompts == {0: (max_positions + 7, max_positions)}
        assert registry.counter("engine.prompt_truncated_total").value == 1
        # the decode itself stays well-formed at the clipped length
        assert len(report.outputs()[0]) == max_positions
        np.testing.assert_array_equal(
            report.outputs()[0], sequencer.offline_reference(oversized)
        )

    def test_recording_is_idempotent_across_preemption_rebegins(self, gpt2):
        sequencer = GPT2CachedSequencer(gpt2, max_new_tokens=4, step_cost=constant_step_cost)
        max_positions = gpt2.config.max_positions
        requests = [
            Request(0.0, max_positions + 3, id=0),
            Request(0.0, 6, id=1),
            Request(0.0, 6, id=2),
        ]
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            config = EngineConfig(
                num_slots=1, chaos_preempt_period=2, chaos_max_preemptions=3, chaos_seed=5
            )
            report = InferenceEngine(sequencer, config).run(requests)
        assert report.preemptions_total > 0
        assert list(sequencer.truncated_prompts) == [0]  # once, not per re-begin
        assert registry.counter("engine.prompt_truncated_total").value == 1

    def test_in_range_prompts_not_recorded(self, sequencer):
        InferenceEngine(sequencer, EngineConfig(num_slots=1)).run([Request(0.0, 6, id=0)])
        assert sequencer.truncated_prompts == {}


class TestBitIdentity:
    def test_single_request_matches_offline(self, sequencer):
        report = InferenceEngine(sequencer, EngineConfig(num_slots=1)).run(
            [Request(0.0, 6, id=0)]
        )
        np.testing.assert_array_equal(
            report.outputs()[0], sequencer.offline_reference(Request(0.0, 6, id=0))
        )

    def test_explicit_prompts_override_synthetic(self, gpt2, sequencer):
        prompt = np.array([7, 3, 11], dtype=np.int64)
        report = InferenceEngine(sequencer, EngineConfig(num_slots=1)).run(
            [Request(0.0, 3, id=0)], prompts={0: prompt}
        )
        np.testing.assert_array_equal(
            report.outputs()[0], gpt2.generate_cached(prompt, max_new_tokens=6)
        )


class TestOverload:
    def make_stream(self, count, interval, slo):
        return [r.with_slo(slo) for r in uniform_arrivals(count, interval, n_tokens=4)]

    def test_shedding_bounds_admitted_p99_where_open_queue_does_not(self, gpt2):
        """2x overload, the documented bound: shedding keeps admitted p99
        within ``slo + num_slots * service``; no shedding blows past it."""
        max_new, num_slots = 4, 2
        service = 0.01 * max_new  # 4 forwards at the constant step cost
        slo = 4 * service
        bound = slo + num_slots * service
        # capacity is num_slots/service = 50 rps; offer 100 rps
        stream = self.make_stream(count=50, interval=0.01, slo=slo)

        def engine(shedding):
            sequencer = GPT2CachedSequencer(
                gpt2, max_new_tokens=max_new, step_cost=constant_step_cost
            )
            config = EngineConfig(
                num_slots=num_slots,
                max_queue=2 * num_slots if shedding else None,
                shed_on_deadline=shedding,
                service_estimate=(lambda r: service) if shedding else None,
            )
            return InferenceEngine(sequencer, config)

        shed_report = engine(shedding=True).run(stream)
        open_report = engine(shedding=False).run(stream)

        assert shed_report.shed_rate > 0.2  # overload really forced shedding
        assert shed_report.stats().p99_latency <= bound
        assert open_report.shed_rate == 0.0
        assert len(open_report.completed) == len(stream)
        assert open_report.stats().p99_latency > bound

    def test_queue_bound_sheds_with_backpressure(self, sequencer):
        config = EngineConfig(num_slots=1, max_queue=1)
        report = InferenceEngine(sequencer, config).run(
            bursty_arrivals(bursts=1, burst_size=5, burst_gap=1.0)
        )
        assert len(report.completed) + len(report.shed) == 5
        assert all(s.reason == "queue-full" for s in report.shed)
        assert report.shed_rate == pytest.approx(len(report.shed) / 5)


class TestWallClockReplay:
    def test_wall_clock_serves_live(self, gpt2):
        sequencer = GPT2CachedSequencer(gpt2, max_new_tokens=3)  # measured wall time
        engine = InferenceEngine(sequencer, EngineConfig(num_slots=2), clock=WallClock())
        requests = uniform_arrivals(4, interval=0.0025, n_tokens=4)  # 2.5 ms apart
        report = engine.run(requests)
        assert len(report.completed) == 4
        assert report.makespan > 0
        check_bit_identity(report, sequencer, requests)


class TestObservability:
    def test_counters_and_gauges_recorded(self, sequencer):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            config = EngineConfig(num_slots=1, max_queue=1)
            InferenceEngine(sequencer, config).run(
                bursty_arrivals(bursts=1, burst_size=4, burst_gap=1.0)
            )
        assert registry.counter("engine.completed_total").value >= 1
        assert registry.counter("engine.shed_total", reason="queue-full").value >= 1
        assert registry.counter("engine.steps_total").value > 0
        # gauges are zeroed once the run drains
        assert registry.gauge("engine.queue_depth").value == 0
        assert registry.gauge("engine.slots_in_use").value == 0

    def test_labeled_engines_keep_their_metrics_apart(self, gpt2):
        """Two engines sharing one registry under different ``labels`` must
        record into distinct labelled series — and leave the unlabeled
        series untouched (fleet replicas vs a standalone engine)."""
        registry = obs.MetricsRegistry()
        stream = uniform_arrivals(3, interval=0.01, n_tokens=4)
        with obs.use_registry(registry):
            for name in ("r0", "r1"):
                sequencer = GPT2CachedSequencer(
                    gpt2, max_new_tokens=4, step_cost=constant_step_cost
                )
                InferenceEngine(
                    sequencer, EngineConfig(num_slots=1), labels={"replica": name}
                ).run(stream)
        for name in ("r0", "r1"):
            assert registry.counter("engine.completed_total", replica=name).value == 3
            assert registry.counter("engine.steps_total", replica=name).value > 0
            assert registry.gauge("engine.queue_depth", replica=name).value == 0
        assert registry.counter("engine.completed_total").value == 0

    def test_trace_has_engine_track_spans(self, sequencer):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            InferenceEngine(sequencer, EngineConfig(num_slots=2)).run(
                uniform_arrivals(3, interval=0.01, n_tokens=4)
            )
        names = {span.name for span in tracer.spans}
        assert "engine.run" in names
        assert any(name.startswith("request ") for name in names)


class TestStreamAPI:
    """The incremental surface (open/offer/pump/close) must agree with the
    one-shot ``run`` and expose live load between pumps."""

    def stream(self):
        return uniform_arrivals(6, interval=0.02, n_tokens=4)

    def test_horizon_pumped_stream_matches_one_shot_run(self, gpt2):
        def make_engine():
            sequencer = GPT2CachedSequencer(
                gpt2, max_new_tokens=6, step_cost=constant_step_cost
            )
            return InferenceEngine(sequencer, EngineConfig(num_slots=2))

        baseline = make_engine().run(self.stream())

        engine = make_engine()
        engine.open_stream()
        for request in self.stream():
            engine.offer(request)
        horizon = 0.0
        while not engine.idle:
            horizon += 0.015  # deliberately unaligned with arrivals/steps
            engine.pump(until=horizon)
        report = engine.close_stream()

        assert len(report.completed) == len(baseline.completed)
        for a, b in zip(report.completed, baseline.completed):
            assert a.request.id == b.request.id
            assert a.finish == pytest.approx(b.finish)
            np.testing.assert_array_equal(a.output, b.output)
        assert report.makespan == pytest.approx(baseline.makespan)

    def test_idle_pump_jumps_the_clock_to_the_horizon(self, sequencer):
        engine = InferenceEngine(sequencer, EngineConfig(num_slots=1))
        engine.open_stream()
        engine.pump(until=3.5)
        assert engine.clock.now() == pytest.approx(3.5)
        assert engine.idle
        engine.close_stream()

    def test_load_properties_track_the_stream(self, sequencer):
        engine = InferenceEngine(sequencer, EngineConfig(num_slots=1))
        engine.open_stream()
        for request in bursty_arrivals(bursts=1, burst_size=4, burst_gap=1.0, n_tokens=4):
            engine.offer(request)
        assert engine.pending_arrivals == 4 and not engine.idle
        engine.pump(until=0.011)  # one step past the burst's arrival
        assert engine.slots_in_use == 1
        assert engine.queue_depth == 3
        report = engine.close_stream()
        assert len(report.completed) == 4
        assert engine.idle and engine.queue_depth == 0

    def test_stream_misuse_raises(self, sequencer):
        engine = InferenceEngine(sequencer, EngineConfig(num_slots=1))
        with pytest.raises(RuntimeError, match="no open stream"):
            engine.pump()
        engine.open_stream()
        with pytest.raises(RuntimeError, match="already open"):
            engine.open_stream()
        engine.offer(Request(0.0, 4, id=7))
        with pytest.raises(ValueError, match="unique"):
            engine.offer(Request(0.5, 4, id=7))
        engine.close_stream()
        with pytest.raises(RuntimeError, match="no open stream"):
            engine.close_stream()


class TestReport:
    def test_occupancy_and_stats_views(self, sequencer):
        report = InferenceEngine(sequencer, EngineConfig(num_slots=2)).run(
            uniform_arrivals(8, interval=0.01, n_tokens=4)
        )
        assert 0.0 < report.mean_slot_occupancy <= 1.0
        stats = report.stats()
        assert stats.count == 8
        assert stats.p99_latency >= stats.p50_latency > 0

    def test_empty_stream(self, sequencer):
        report = InferenceEngine(sequencer, EngineConfig(num_slots=1)).run([])
        assert report.completed == [] and report.shed == []
        assert report.makespan == 0.0
        assert report.mean_slot_occupancy == 0.0
        assert report.shed_rate == 0.0
        stats = report.stats()  # must not raise: zero-request replicas are legal
        assert stats.count == 0 and stats.p99_latency == 0.0

    def test_fully_shed_stream_still_reports(self, sequencer):
        """Every request shed (hopeless deadlines): the report's stats views
        stay well-defined — shed_rate 1.0, zero-latency percentiles."""
        hopeless = [
            Request(float(i), 4, id=i).with_slo(0.25)
            for i in range(4)
        ]
        config = EngineConfig(
            num_slots=1, shed_on_deadline=True, service_estimate=lambda r: 10.0
        )
        report = InferenceEngine(sequencer, config).run(hopeless)
        assert report.completed == [] and len(report.shed) == 4
        assert report.shed_rate == 1.0
        stats = report.stats()
        assert stats.count == 0
        assert stats.p50_latency == stats.p99_latency == 0.0
        assert report.makespan > 0.0  # sheds still bound the run's extent


class TestValidation:
    def test_config_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="slot"):
            EngineConfig(num_slots=0)
        with pytest.raises(ValueError, match="chaos_preempt_period"):
            EngineConfig(chaos_preempt_period=0)

    def test_duplicate_request_ids_rejected(self, sequencer):
        engine = InferenceEngine(sequencer, EngineConfig(num_slots=1))
        with pytest.raises(ValueError, match="unique"):
            engine.run([Request(0.0, 4, id=1), Request(1.0, 4, id=1)])

    def test_dirty_slot_rejected_by_sequencer(self, gpt2, sequencer, rng):
        from repro.engine import SlotPool

        pool = SlotPool(1, num_layers=gpt2.num_layers, capacity=16)
        slot = pool.acquire()
        state = sequencer.begin(Request(0.0, 4, id=0), np.array([1, 2, 3]), slot)
        sequencer.step(state)  # prefill populates the caches
        with pytest.raises(ValueError, match="dirty"):
            sequencer.begin(Request(0.0, 4, id=1), np.array([1, 2]), slot)

    def test_virtual_clock_default(self, sequencer):
        engine = InferenceEngine(sequencer)
        assert isinstance(engine.clock, VirtualClock)
