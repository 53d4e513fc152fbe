"""Cohort decode through the engine (INTERNALS §10).

The engine stages each iteration's flights, and the first ``step`` that
needs a single-position forward runs it for every staged state that will
need one.  What must *not* change: every output, and every number the
engine derives per flight — the ``(done, cost)`` each ``step`` returns, the
virtual-time start / finish of every request, the step counts.  What the
wall-clock benchmark relies on: ``step`` is still called once per flight
per iteration and is still where the model runs.
"""

import numpy as np
import pytest

from repro import obs
from repro.engine import (
    EngineConfig,
    GPT2CachedSequencer,
    InferenceEngine,
    KVSlot,
    NgramProposer,
    SpeculativeSequencer,
    VoltageDecodeSequencer,
)
from repro.serving.arrivals import Request

from .conftest import check_bit_identity, constant_step_cost


def position_cost(new_positions, cache_len):
    """Virtual seconds that depend on what a forward covers, so a cost
    charged to the wrong flight or the wrong cache length shows."""
    return 0.002 + 0.0005 * new_positions + 0.00001 * cache_len


def staggered(count=7):
    return [Request(arrival=0.004 * i, n=3 + (5 * i) % 7, id=i) for i in range(count)]


class StepProxy:
    """A ``begin``/``step``-only forwarding wrapper — the shape of the
    wall-clock benchmark's ``TimingSequencer``: everything else, ``stage``
    included, reaches the wrapped sequencer through ``__getattr__``."""

    def __init__(self, inner, log=None):
        self.inner = inner
        self.log = log if log is not None else []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def begin(self, request, prompt, slot, **kwargs):
        return self.inner.begin(request, prompt, slot, **kwargs)

    def step(self, state):
        done, cost = self.inner.step(state)
        self.log.append(("step", state.request.id, done, cost))
        return done, cost


class StagingSequencer(GPT2CachedSequencer):
    """Logs every ``stage`` call next to the proxy's steps."""

    def stage(self, states, labels=None):
        self.log.append(("stage", [state.request.id for state in states]))
        super().stage(states, labels)


def run_logged(sequencer, requests, **config):
    log = sequencer.log = []
    report = InferenceEngine(StepProxy(sequencer, log), EngineConfig(**config)).run(requests)
    return report, log


def per_flight(sequencer):
    """The parent's behaviour: a backend that declines rows runs every
    single-position forward in its own flight's step."""
    sequencer.backend.supports_rows = False
    return sequencer


def lifecycle(report):
    return sorted(
        (c.request.id, c.start, c.finish, c.steps, c.preemptions, c.output.tolist())
        for c in report.completed
    )


def iterations(log):
    """Split a stage/step log into (staged ids, [(id, done, cost) per step])
    per iteration."""
    out = []
    for entry in log:
        if entry[0] == "stage":
            out.append((entry[1], []))
        else:
            out[-1][1].append(entry[1:])
    return out


def cohort_sizes(log):
    """Decode forwards per iteration of a plain (never-drafting) run: the
    steps that neither prefilled nor finished."""
    prefilled, sizes = set(), []
    for staged, steps in iterations(log):
        sizes.append(sum(1 for i, done, _ in steps if i in prefilled and not done))
        prefilled.update(staged)
    return [size for size in sizes if size]


class TestAccountingUnchanged:
    #: (id, start, finish, steps, emitted tokens) of ``staggered()`` over 3
    #: slots with ``position_cost``, recorded from the parent commit (PR 12).
    PARENT = [
        (0, 0.0, 0.040150000000000005, 7, [51, 51, 51, 51, 97, 97]),
        (1, 0.006030000000000001, 0.05455, 7, [95, 95, 95, 95, 95, 95]),
        (2, 0.014570000000000001, 0.05969, 7, [60, 60, 60, 60, 60, 56]),
        (3, 0.045340000000000005, 0.09490000000000003, 7, [86, 88, 88, 88, 88, 88]),
        (4, 0.05969, 0.10984000000000002, 7, [5, 5, 5, 5, 5, 5]),
        (5, 0.06874000000000001, 0.11500000000000002, 7, [31, 31, 31, 31, 31, 31]),
        (6, 0.10011000000000002, 0.12530000000000002, 7, [97, 97, 97, 97, 97, 97]),
    ]

    def test_virtual_time_pinned_to_the_parent(self, gpt2):
        sequencer = GPT2CachedSequencer(gpt2, max_new_tokens=6, step_cost=position_cost)
        report = InferenceEngine(sequencer, EngineConfig(num_slots=3)).run(staggered())
        got = [
            (c.request.id, c.start, c.finish, c.steps, c.output[c.request.n:].tolist())
            for c in sorted(report.completed, key=lambda c: c.request.id)
        ]
        assert got == self.PARENT
        assert (report.steps_total, report.makespan) == (49, 0.12530000000000002)
        assert report.slot_seconds == 0.30495000000000005

    @pytest.mark.parametrize("chaos", [None, 5])
    def test_step_results_and_lifecycles_equal_per_flight_decode(self, gpt2, chaos):
        config = dict(num_slots=4, chaos_preempt_period=chaos, chaos_seed=3)
        runs = []
        for decline in (False, True):
            sequencer = StagingSequencer(gpt2, max_new_tokens=6, step_cost=position_cost)
            report, log = run_logged(
                per_flight(sequencer) if decline else sequencer, staggered(9), **config
            )
            runs.append((log, lifecycle(report), report.steps_total, report.slot_seconds))
        assert runs[0] == runs[1]  # every (done, cost), in order, and every timestamp
        assert any(len(staged) > 1 for staged, _ in iterations(runs[0][0]))


class TestMixedIterations:
    def test_prefills_decodes_and_finishes_share_iterations(self, gpt2):
        """Staggered arrivals: iterations mix a prefill with decodes, members
        finish while others go on, and the cohort grows to the slot count
        and drains back to one."""
        registry = obs.MetricsRegistry()
        sequencer = StagingSequencer(gpt2, max_new_tokens=6, step_cost=constant_step_cost)
        requests = [Request(arrival=0.015 * i, n=4 + i, id=i) for i in range(4)]
        with obs.use_registry(registry):
            report, log = run_logged(sequencer, requests, num_slots=4)
        check_bit_identity(report, sequencer, requests)
        rows = registry.histogram("engine.decode_cohort_rows")
        sizes = cohort_sizes(log)
        peak = sizes.index(4)
        assert sizes[peak:] == sorted(sizes[peak:], reverse=True) and sizes[-1] == 1  # 4 -> 1
        assert (rows.count, rows.total, rows.max) == (len(sizes), sum(sizes), 4)
        assert registry.counter("engine.cohort_forwards_total").value == rows.count
        # decode forwards are conserved: one row per decode step that ran one
        decode_forwards = sum(
            1 for entry in log if entry[0] == "step" and not entry[2]
        ) - len(requests)  # minus the prefills
        assert rows.total == decode_forwards
        # some iteration stepped a prefill next to a multi-row cohort
        prefilled = set()
        mixed = False
        for staged, _ in iterations(log):
            fresh = [i for i in staged if i not in prefilled]
            mixed = mixed or (bool(fresh) and len(staged) - len(fresh) > 1)
            prefilled.update(staged)
        assert mixed

    def test_cohort_of_one_is_the_plain_step(self, gpt2):
        """No engine, nothing staged: ``step`` alone is the whole protocol."""
        sequencer = GPT2CachedSequencer(gpt2, max_new_tokens=4)
        prompt = np.array([5, 9, 2], dtype=np.int64)
        state = sequencer.begin(Request(arrival=0.0, n=3, id=0), prompt, KVSlot(0, 2, 64))
        while not sequencer.step(state)[0]:
            pass
        np.testing.assert_array_equal(
            sequencer.result(state), gpt2.generate_cached(prompt, max_new_tokens=4)
        )

    def test_non_empty_drafts_stay_per_flight(self, gpt2):
        """A proposer that always drafts: every decode is a verify round, so
        no cohort forward ever runs — and nothing changes."""

        class Always(NgramProposer):
            def propose(self, dstate, ids, k):
                return [ids[-1]] * k

        registry = obs.MetricsRegistry()
        sequencer = SpeculativeSequencer(
            gpt2, Always(), lookahead=2, max_new_tokens=8, step_cost=position_cost
        )
        requests = staggered(6)
        with obs.use_registry(registry):
            report = InferenceEngine(sequencer, EngineConfig(num_slots=3)).run(requests)
        check_bit_identity(report, sequencer, requests)
        # only a final budget-less round (lookahead clipped to 0) drafts nothing
        assert sequencer.stats.rounds > 0
        rows = registry.histogram("engine.decode_cohort_rows")
        assert sequencer.stats.forwards - sequencer.stats.rounds == rows.total == rows.count

    def test_a_proposer_that_never_proposes_joins_the_cohort(self, gpt2):
        class Never(NgramProposer):
            calls = 0

            def propose(self, dstate, ids, k):
                Never.calls += 1
                return []

        registry = obs.MetricsRegistry()
        sequencer = SpeculativeSequencer(
            gpt2, Never(), max_new_tokens=6, step_cost=position_cost
        )
        requests = staggered(6)
        with obs.use_registry(registry):
            report = InferenceEngine(sequencer, EngineConfig(num_slots=3)).run(requests)
        check_bit_identity(report, sequencer, requests)
        assert registry.histogram("engine.decode_cohort_rows").max == 3
        stats = sequencer.stats
        assert (stats.rounds, stats.drafted) == (0, 0)
        # asked exactly once per decode forward that had draft budget left:
        # all but each request's last one
        assert Never.calls == stats.forwards - len(requests)
        plain = GPT2CachedSequencer(gpt2, max_new_tokens=6, step_cost=position_cost)
        baseline = InferenceEngine(plain, EngineConfig(num_slots=3)).run(requests)
        assert lifecycle(report) == lifecycle(baseline)

    def test_mixed_drafts_in_one_iteration(self, gpt2):
        """The real n-gram proposer drafts for some residents and not for
        others in the same iteration; drafted ones verify per flight, the
        rest share the cohort, outputs stay exact under chaos."""
        sequencer = SpeculativeSequencer(gpt2, max_new_tokens=10, step_cost=position_cost)
        requests = staggered(10)
        report = InferenceEngine(
            sequencer, EngineConfig(num_slots=4, chaos_preempt_period=6, chaos_seed=2)
        ).run(requests)
        assert len(report.completed) == len(requests)
        check_bit_identity(report, sequencer, requests)
        assert 0 < sequencer.stats.rounds < sequencer.stats.forwards

    def test_session_backend_declines_rows(self, gpt2):
        from repro.cluster.spec import ClusterSpec
        from repro.systems.voltage import VoltageSystem

        system = VoltageSystem(gpt2, ClusterSpec.homogeneous(2, gflops=5.0, bandwidth_mbps=500))
        registry = obs.MetricsRegistry()
        with VoltageDecodeSequencer(system, max_new_tokens=3) as sequencer:
            assert sequencer.backend.supports_rows is False
            requests = staggered(3)
            with obs.use_registry(registry):
                report = InferenceEngine(sequencer, EngineConfig(num_slots=2)).run(requests)
            check_bit_identity(report, sequencer, requests)
        assert registry.counter("engine.cohort_forwards_total").value == 0


class TestStepProtocol:
    @pytest.mark.parametrize(
        "config",
        [
            dict(num_slots=4),
            dict(num_slots=3, chaos_preempt_period=4, chaos_max_preemptions=2, chaos_seed=5),
            dict(num_slots=2, policy="priority", preemptive=True),
        ],
        ids=["plain", "chaos", "priority-preemption"],
    )
    def test_one_step_per_staged_flight_per_iteration(self, gpt2, config):
        """What a ``begin``/``step``-only proxy sees: between two ``stage``
        announcements every staged flight is stepped exactly once, in order
        — so preemption (chaos or priority) always lands *before* staging
        and a staged state can never be skipped with its KV row appended."""
        sequencer = StagingSequencer(gpt2, max_new_tokens=5, step_cost=constant_step_cost)
        requests = [
            Request(arrival=0.004 * i, n=3 + i % 4, id=i, priority=i % 3) for i in range(10)
        ]
        report, log = run_logged(sequencer, requests, **config)
        assert len(report.completed) == len(requests)
        check_bit_identity(report, sequencer, requests)
        if config.get("preemptive") or config.get("chaos_preempt_period"):
            assert report.preemptions_total > 0
        rounds = iterations(log)
        assert rounds and all(staged == [i for i, _, _ in steps] for staged, steps in rounds)
        assert sum(len(staged) for staged, _ in rounds) == report.steps_total

    def test_proxy_does_not_change_outputs_or_costs(self, gpt2):
        requests = staggered(8)
        plain = GPT2CachedSequencer(gpt2, max_new_tokens=6, step_cost=position_cost)
        direct = InferenceEngine(plain, EngineConfig(num_slots=4)).run(requests)
        wrapped = GPT2CachedSequencer(gpt2, max_new_tokens=6, step_cost=position_cost)
        proxied = InferenceEngine(StepProxy(wrapped), EngineConfig(num_slots=4)).run(requests)
        assert lifecycle(direct) == lifecycle(proxied)


class TestStashGuards:
    def _two_decoding(self, gpt2):
        sequencer = GPT2CachedSequencer(gpt2, max_new_tokens=6)
        states = [
            sequencer.begin(
                Request(arrival=0.0, n=3, id=index),
                np.array([index + 1, 7, 3], dtype=np.int64),
                KVSlot(index, 2, 64),
            )
            for index in range(2)
        ]
        sequencer.stage(states)
        for state in states:  # prefill
            sequencer.step(state)
        return sequencer, states

    def test_staged_state_skipped_after_its_row_was_appended(self, gpt2):
        """If a staged member's step never comes (it was preempted between
        ``stage`` and ``step`` — which the engine never does), the next
        ``stage`` refuses to go on rather than decode on a slot holding a
        row nobody committed."""
        sequencer, (first, skipped) = self._two_decoding(gpt2)
        sequencer.stage([first, skipped])
        sequencer.step(first)  # runs the cohort: skipped's row is appended
        assert skipped.slot.length == len(skipped.ids) + 1
        with pytest.raises(RuntimeError, match=r"request\(s\) \[1\] were staged"):
            sequencer.stage([first])

    def test_staged_token_refused_on_a_changed_slot(self, gpt2):
        sequencer, (first, second) = self._two_decoding(gpt2)
        sequencer.stage([first, second])
        sequencer.step(first)
        second.slot.truncate(second.slot.length - 1)  # e.g. recycled under it
        with pytest.raises(RuntimeError, match="request 1: its staged token"):
            sequencer.step(second)

    def test_every_iteration_leaves_the_stash_empty(self, gpt2):
        sequencer, states = self._two_decoding(gpt2)
        while not all(state.done for state in states):
            live = [state for state in states if not state.done]
            sequencer.stage(live)
            for state in live:
                sequencer.step(state)
            assert sequencer._stash == {} and sequencer._staged == {}
        for state in states:
            np.testing.assert_array_equal(
                sequencer.result(state),
                gpt2.generate_cached(np.asarray(state.ids[:3]), max_new_tokens=6),
            )


class TestObservability:
    def test_cohort_metrics_carry_the_engine_labels(self, gpt2):
        registry = obs.MetricsRegistry()
        sequencer = GPT2CachedSequencer(gpt2, max_new_tokens=4, step_cost=constant_step_cost)
        with obs.use_registry(registry):
            InferenceEngine(
                sequencer, EngineConfig(num_slots=2), labels={"replica": "r0"}
            ).run(staggered(4))
        assert registry.counter("engine.cohort_forwards_total", replica="r0").value > 0
        assert registry.histogram("engine.decode_cohort_rows", replica="r0").max == 2
        assert registry.counter("engine.cohort_forwards_total").value == 0

    def test_span_only_under_an_enabled_tracer(self, gpt2):
        def run():
            sequencer = GPT2CachedSequencer(
                gpt2, max_new_tokens=4, step_cost=constant_step_cost
            )
            InferenceEngine(sequencer, EngineConfig(num_slots=2)).run(staggered(4))

        registry = obs.MetricsRegistry()
        tracer = obs.Tracer()
        with obs.use_registry(registry), obs.use_tracer(tracer):
            run()
        spans = [span for span in tracer.spans if span.name == "engine.decode_cohort"]
        rows = registry.histogram("engine.decode_cohort_rows")
        assert len(spans) == rows.count > 0
        assert sum(span.args["rows"] for span in spans) == rows.total
        assert max(span.args["rows"] for span in spans) == rows.max == 2
        assert all(span.domain == "wall" and span.kind == "compute" for span in spans)
        assert obs.current_tracer().enabled is False
        run()  # NULL_TRACER: nothing to record into, nothing raised
        assert len(obs.current_tracer()) == 0
