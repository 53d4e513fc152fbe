"""The iteration forward through the engine (INTERNALS §10).

The engine stages each iteration's flights, and the first ``step`` that
needs a forward — a prefill, a single position or a verify round — runs it
for every staged state that will need one, and is charged the whole pass.
What must *not* change: every output, the ``done`` each ``step`` returns,
the step counts — and, under a price that adds up over flights, what each
iteration costs and the virtual-time start / finish of every request.
What the wall-clock benchmark relies on: ``step`` is still called once
per flight per iteration and is still where the model runs.
"""

from functools import partial

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
from repro.fleet import SERVE_DEVICE
from repro.serving.arrivals import Request
from repro.systems.decode import pass_seconds
from repro.tensor import blas

from .conftest import check_bit_identity, constant_step_cost, position_cost


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


class Staging:
    """Logs every ``stage`` call next to the proxy's steps."""

    def stage(self, states, labels=None):
        self.log.append(("stage", [state.request.id for state in states]))
        super().stage(states, labels)


class StagingSequencer(Staging, GPT2CachedSequencer):
    pass


class StagingSpeculativeSequencer(Staging, SpeculativeSequencer):
    pass


def run_logged(sequencer, requests, **config):
    log = sequencer.log = []
    report = InferenceEngine(StepProxy(sequencer, log), EngineConfig(**config)).run(requests)
    return report, log


def per_flight(sequencer):
    """The reference behaviour: a backend that declines rows runs every
    forward in its own flight's step."""
    sequencer.backend.supports_rows = False
    return sequencer


class Always(NgramProposer):
    """Drafts on every round, so every decode forward is a verify."""

    def propose(self, dstate, ids, k):
        return [ids[-1]] * k


class CountingProposer:
    """Forwards to ``inner``, counting how often it is asked."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def begin(self, ids):
        return self.inner.begin(ids)

    def propose(self, dstate, ids, k):
        self.calls += 1
        return self.inner.propose(dstate, ids, k)


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


def charged(log):
    """Per iteration: the staged ids, each step's ``(id, done)`` and what the
    iteration charged in all — with every float rounded to 12 places, as a
    pass charged once adds its flights' costs in another order than steps
    charged one by one do."""
    return rounded([
        (staged, [step[:2] for step in steps], sum(step[2] for step in steps))
        for staged, steps in iterations(log)
    ])


def rounded(value):
    if isinstance(value, float):
        return round(value, 12)
    if isinstance(value, (list, tuple)):
        return type(value)(rounded(item) for item in value)
    return value


def forward_sizes(log):
    """Forwards per iteration of a run without preemption: every step but
    the commits that finish a request."""
    sizes = [sum(1 for _, done, _ in steps if not done) for _, steps in iterations(log)]
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
        """``position_cost`` is a sum over a pass's flights, so charging the
        pass once reproduces the per-flight charges of the parent — up to
        the order the same terms are added in."""
        sequencer = GPT2CachedSequencer(gpt2, max_new_tokens=6, step_cost=position_cost)
        report = InferenceEngine(sequencer, EngineConfig(num_slots=3)).run(staggered())
        got = [
            (c.request.id, c.start, c.finish, c.steps, c.output[c.request.n:].tolist())
            for c in sorted(report.completed, key=lambda c: c.request.id)
        ]
        assert [(i, steps, out) for i, _, _, steps, out in got] == [
            (i, steps, out) for i, _, _, steps, out in self.PARENT
        ]
        times = [time for row in got for time in row[1:3]]
        assert times == pytest.approx([time for row in self.PARENT for time in row[1:3]])
        assert report.steps_total == 49
        assert report.makespan == pytest.approx(0.12530000000000002)
        assert report.slot_seconds == pytest.approx(0.30495000000000005)

    @pytest.mark.parametrize("chaos", [None, 5])
    def test_step_results_and_lifecycles_equal_per_flight_decode(self, gpt2, chaos):
        config = dict(num_slots=4, chaos_preempt_period=chaos, chaos_seed=3)
        runs = []
        for decline in (False, True):
            sequencer = StagingSequencer(gpt2, max_new_tokens=6, step_cost=position_cost)
            report, log = run_logged(
                per_flight(sequencer) if decline else sequencer, staggered(9), **config
            )
            runs.append((charged(log), rounded(lifecycle(report)), report.steps_total))
        assert runs[0] == runs[1]  # every done, each iteration's cost, every timestamp
        assert any(len(staged) > 1 for staged, _, _ in runs[0][0])

    @staticmethod
    def _scenario(gpt2, name):
        """(sequencer, requests, engine config) of one traffic shape."""
        costs = dict(max_new_tokens=6, step_cost=position_cost)
        if name == "co-arriving prefills":
            requests = [Request(arrival=0.0, n=3 + (5 * i) % 7, id=i) for i in range(9)]
            return StagingSequencer(gpt2, **costs), requests, {}
        if name == "prefix-cache hits":
            requests = [
                Request(arrival=0.003 * i, n=9 + i % 4, id=i, tenant="ab"[i % 2])
                for i in range(9)
            ]
            sequencer = StagingSequencer(gpt2, shared_prefix_tokens=5, **costs)
            return sequencer, requests, dict(prefix_cache=True)
        proposer = CountingProposer(NgramProposer() if name == "n-gram drafts" else Always())
        costs["max_new_tokens"] = 10
        sequencer = StagingSpeculativeSequencer(gpt2, proposer, lookahead=3, **costs)
        return sequencer, staggered(9), {}

    @pytest.mark.parametrize("chaos", [None, 5])
    @pytest.mark.parametrize(
        "name",
        ["co-arriving prefills", "prefix-cache hits", "n-gram drafts", "always drafting"],
    )
    def test_every_forward_kind_equals_per_flight_forwards(self, gpt2, name, chaos):
        """Prefills, prefix-cache suffixes and verify rounds joined the
        shared pass (the test above is the staggered prefill + decode mix);
        the steps' ``done`` log, each iteration's cost (``position_cost``
        adds up over flights), finish order, outputs, the proposer's call
        count and the speculative counters are those of a backend that runs
        every forward in its own flight's step."""
        runs = []
        for decline in (False, True):
            sequencer, requests, extra = self._scenario(gpt2, name)
            config = dict(num_slots=4, chaos_preempt_period=chaos, chaos_seed=3, **extra)
            registry = obs.MetricsRegistry()
            with obs.use_registry(registry):
                report, log = run_logged(
                    per_flight(sequencer) if decline else sequencer, requests, **config
                )
            check_bit_identity(report, sequencer, requests)
            proposer, stats = sequencer.proposer, sequencer.stats
            runs.append((
                charged(log),
                [c.request.id for c in report.completed], rounded(lifecycle(report)),
                report.steps_total, report.prefix_cache,
                proposer and proposer.calls, stats and stats.as_dict(),
            ))
            shared = registry.histogram("engine.decode_cohort_rows").max
            assert shared == 1 if decline else shared > 1
        assert runs[0] == runs[1]
        if name == "prefix-cache hits":
            assert runs[0][4]["hits"] > 0
        if name == "always drafting":
            assert runs[0][6]["rounds"] > 0


class TestSharedMatrixKernel:
    @pytest.mark.parametrize("chaos", [None, 5])
    def test_engine_is_identical_with_the_binding_patched_away(self, gpt2, chaos, monkeypatch):
        """The decode rows of a round share each layer matrix through
        ``rows_matmul``; without its C kernel they are per-row
        ``np.matmul`` again.  Every ``(done, cost)``, timestamp and output
        is the same either way — only the counters tell the kernels apart."""
        config = dict(num_slots=4, chaos_preempt_period=chaos, chaos_seed=3)
        layer = gpt2.layers[0]
        served = all(  # the probe's verdict at each of the model's layer shapes
            blas.rows_matmul_probe(weight).startswith("accumulate")
            for weight in (layer.attention.fused_qkv()[0], layer.attention.output.weight.data,
                           layer.ffn.fc1.weight.data, layer.ffn.fc2.weight.data)
        )
        runs, rows = [], []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(blas, "_loaded", lambda: "patched away")
            sequencer = StagingSequencer(gpt2, max_new_tokens=6, step_cost=position_cost)
            registry = obs.MetricsRegistry()
            with obs.use_registry(registry):
                report, log = run_logged(sequencer, staggered(9), **config)
            check_bit_identity(report, sequencer, staggered(9))
            runs.append((log, lifecycle(report), report.steps_total, report.slot_seconds))
            rows.append({
                kernel: registry.counter("tensor.rows_matmul_rows_total", kernel=kernel).value
                for kernel in ("accumulate", "matmul")
            })
            assert registry.counter(
                "tensor.rows_matmul_disabled", reason="patched away"
            ).value == patched
        assert runs[0] == runs[1]
        assert sum(rows[0].values()) == sum(rows[1].values()) == rows[1]["matmul"] > 0
        assert (rows[0]["matmul"] == 0) == served


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
        sizes = forward_sizes(log)
        peak = sizes.index(4)
        assert sizes[peak:] == sorted(sizes[peak:], reverse=True) and sizes[-1] == 1  # 4 -> 1
        # one shared pass per iteration that ran any forward, and forwards
        # are conserved: one row per step that ran one, prefills included
        assert (rows.count, rows.total, rows.max) == (len(sizes), sum(sizes), 4)
        assert registry.counter("engine.cohort_forwards_total").value == rows.count
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

    def test_non_empty_drafts_share_the_iteration_forward(self, gpt2):
        """A proposer that always drafts: every decode is a verify round,
        and the residents' rounds are rows of one pass."""
        registry = obs.MetricsRegistry()
        tracer = obs.Tracer()
        sequencer = SpeculativeSequencer(
            gpt2, Always(), lookahead=2, max_new_tokens=8, step_cost=position_cost
        )
        requests = staggered(6)
        with obs.use_registry(registry), obs.use_tracer(tracer):
            report = InferenceEngine(sequencer, EngineConfig(num_slots=3)).run(requests)
        check_bit_identity(report, sequencer, requests)
        # only a final budget-less round (lookahead clipped to 0) drafts nothing
        stats = sequencer.stats
        assert 0 < stats.rounds < stats.forwards
        rows = registry.histogram("engine.decode_cohort_rows")
        assert rows.total == stats.forwards + len(requests)  # verifies + prefills
        assert rows.max == 3 and rows.count < rows.total
        spans = [span for span in tracer.spans if span.name == "engine.decode_cohort"]
        # verify rounds never pack — each of their rows is a decode step of its
        # own — so only the staggered prefills, which arrive alone, are packed sets
        assert max(span.args["packed"] for span in spans) == 1

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
        others in the same iteration; verify rounds and single positions
        share the pass, outputs stay exact under chaos."""
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
        rows = registry.histogram("engine.decode_cohort_rows")
        assert rows.count == report.steps_total - len(requests) and rows.max == 1  # all alone


class TestNoTokenKept:
    def test_a_request_that_keeps_no_token_runs_no_forward(self, gpt2):
        """``max_new_tokens = 0``, and a prompt already at ``max_positions``:
        ``generate_cached`` runs no forward for either, and neither does the
        engine — the request finishes at its first step with the prompt."""
        full = gpt2.config.max_positions
        for max_new, prompt_len in ((0, 5), (4, full), (4, full + 3)):
            registry = obs.MetricsRegistry()
            sequencer = GPT2CachedSequencer(
                gpt2, max_new_tokens=max_new, step_cost=position_cost
            )
            requests = [Request(arrival=0.0, n=prompt_len, id=i) for i in range(2)]
            with obs.use_registry(registry):
                report = InferenceEngine(sequencer, EngineConfig(num_slots=2)).run(requests)
            check_bit_identity(report, sequencer, requests)
            assert registry.counter("engine.cohort_forwards_total").value == 0
            assert report.steps_total == len(requests) and report.makespan == 0.0


class TestPassPrice:
    def test_co_scheduled_flights_advance_the_clock_by_one_pass(self, gpt2):
        """Three co-arriving requests share every pass: under a virtual
        clock each iteration costs the price of its one pass over all three
        flights — charged to the step that ran it, the others charged 0 —
        not three prices."""
        price = partial(pass_seconds, gpt2.config, SERVE_DEVICE)
        sequencer = StagingSequencer(gpt2, max_new_tokens=4, step_cost=price)
        requests = [Request(arrival=0.0, n=6, id=i) for i in range(3)]
        report, log = run_logged(sequencer, requests, num_slots=3)
        check_bit_identity(report, sequencer, requests)
        passes = [[(6, 0, False)] * 3] + [[(1, 6 + i, False)] * 3 for i in range(3)]
        costs = [[cost for _, _, cost in steps] for _, steps in iterations(log)]
        assert costs == [[price(flights), 0.0, 0.0] for flights in passes] + [[0.0] * 3]
        assert report.makespan == pytest.approx(sum(map(price, passes)))
        lone = sum(price(flights[:1]) for flights in passes)
        assert lone < report.makespan < 3 * lone


class TestStepProtocol:
    @pytest.mark.parametrize(
        "config",
        [
            dict(num_slots=4),
            dict(num_slots=3, chaos_preempt_period=4, chaos_max_preemptions=2, chaos_seed=5),
        ],
        ids=["plain", "chaos"],
    )
    def test_one_step_per_staged_flight_per_iteration(self, gpt2, config):
        """What a ``begin``/``step``-only proxy sees: between two ``stage``
        announcements every staged flight is stepped exactly once, in order
        — so a chaos preemption always lands *before* staging
        and a staged state can never be skipped with its KV row appended."""
        sequencer = StagingSequencer(gpt2, max_new_tokens=5, step_cost=constant_step_cost)
        requests = [
            Request(arrival=0.004 * i, n=3 + i % 4, id=i, priority=i % 3) for i in range(10)
        ]
        report, log = run_logged(sequencer, requests, **config)
        assert len(report.completed) == len(requests)
        check_bit_identity(report, sequencer, requests)
        if config.get("chaos_preempt_period"):
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

    @pytest.mark.parametrize("kind", ["prefill", "verify"])
    def test_staged_multi_row_forward_never_stepped_or_changed(self, gpt2, kind):
        """The same two guards for the forwards that joined the shared pass:
        a staged prefill's prompt rows, a staged verify round's ``1 + k``."""

        def staged_pair():
            sequencer = SpeculativeSequencer(gpt2, Always(), lookahead=2, max_new_tokens=6)
            states = [
                sequencer.begin(
                    Request(arrival=0.0, n=3, id=index),
                    np.array([index + 1, 7, 3], dtype=np.int64),
                    KVSlot(index, 2, 64),
                )
                for index in range(2)
            ]
            sequencer.stage(states)
            if kind == "verify":
                for state in states:  # prefill
                    sequencer.step(state)
                sequencer.stage(states)
            before = states[1].slot.length
            sequencer.step(states[0])  # runs the pass: the other's rows are appended
            assert states[1].slot.length == before + 3  # the prompt, or pending + 2 guesses
            return sequencer, states

        sequencer, (first, skipped) = staged_pair()
        with pytest.raises(RuntimeError, match=r"request\(s\) \[1\] were staged"):
            sequencer.stage([first])
        sequencer, (first, second) = staged_pair()
        second.slot.truncate(second.slot.length - 1)
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
    def test_co_arriving_prefills_are_one_packed_span(self, gpt2):
        requests = [Request(arrival=0.0, n=n, id=i) for i, n in enumerate((3, 8, 5))]
        tracer = obs.Tracer()
        sequencer = GPT2CachedSequencer(gpt2, max_new_tokens=3, step_cost=constant_step_cost)
        with obs.use_tracer(tracer):
            InferenceEngine(sequencer, EngineConfig(num_slots=4)).run(requests)
        spans = [span for span in tracer.spans if span.name == "engine.decode_cohort"]
        assert [(s.args["rows"], s.args["positions"], s.args["packed"]) for s in spans] == [
            (3, 16, 3), (3, 3, 0), (3, 3, 0),  # the prefill wave, then two decode rounds
        ]

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

    def test_head_fallbacks_reach_the_span_and_the_labelled_counters(self, gpt2):
        """Every vocabulary row duplicated: each screened argmax is an exact
        tie, so every row of a shared pass is recomputed by the GEMV head —
        outputs unchanged, and the cost is visible without a debugger."""
        table = gpt2.embeddings.word.weight.data
        half = len(table) // 2
        gpt2.embeddings.word.weight.data = np.concatenate([table[:half], table[:half]])
        registry, tracer = obs.MetricsRegistry(), obs.Tracer()
        sequencer = GPT2CachedSequencer(gpt2, max_new_tokens=4, step_cost=constant_step_cost)
        requests = staggered(4)
        with obs.use_registry(registry), obs.use_tracer(tracer):
            report = InferenceEngine(
                sequencer, EngineConfig(num_slots=2), labels={"replica": "r0"}
            ).run(requests)
        check_bit_identity(report, sequencer, requests)
        spans = [span for span in tracer.spans if span.name == "engine.decode_cohort"]
        shared = [span for span in spans if span.args["rows"] >= 2]
        assert shared and all(span.args["fallbacks"] == span.args["rows"] for span in shared)
        assert all(span.args["fallbacks"] == 0 for span in spans if span.args["rows"] == 1)
        screened = registry.counter("models.head_rows_screened_total", replica="r0").value
        assert screened == sum(span.args["rows"] for span in shared)
        assert registry.counter("models.head_argmax_fallbacks_total", replica="r0").value == screened
        assert registry.counter("models.head_rows_screened_total").value == 0

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
        # positions: every new row the pass forwards; packed: the flights
        # stacked into shared GEMMs (a lone multi-row flight is a set of one)
        assert all(span.args["positions"] >= span.args["rows"] for span in spans)
        assert all(0 <= span.args["packed"] <= span.args["rows"] for span in spans)
        assert spans[0].args["positions"] == staggered(1)[0].n and spans[0].args["packed"] == 1
        assert obs.current_tracer().enabled is False
        run()  # NULL_TRACER: nothing to record into, nothing raised
        assert len(obs.current_tracer()) == 0
