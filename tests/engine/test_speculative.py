"""Speculative decoding tests: proposers, acceptance, and the soak contract.

The headline guarantee extends ISSUE 4's: a speculative engine run —
drafting, batched verify, rollback, under chaos preemption and
interleaving — must emit outputs bit-identical to the offline
``generate_cached`` reference, whether the proposer's drafts are mostly
accepted (n-gram) or mostly rolled back (:class:`RepeatProposer`).  Everything else here
pins the mechanics: proposal shapes, budget clamping, degenerate rounds,
and honest stats.
"""

import numpy as np
import pytest

from repro import obs
from repro.engine import (
    EngineConfig,
    GPT2CachedSequencer,
    InferenceEngine,
    NgramProposer,
    SlotPool,
    SpeculativeSequencer,
)
from repro.serving.arrivals import Request, bursty_arrivals, uniform_arrivals

from .conftest import chaos_soak, check_bit_identity, constant_step_cost, record_finished_kv


class RepeatProposer:
    """Drafts its last committed token ``k`` times: a full draft every
    round, nearly all of it rolled back."""

    def begin(self, ids):
        return None

    def propose(self, dstate, ids, k):
        return [ids[-1]] * k


PROPOSERS = {"ngram": NgramProposer, "repeat": RepeatProposer}


def spec_sequencer(gpt2, proposer=None, **kwargs):
    kwargs.setdefault("max_new_tokens", 6)
    kwargs.setdefault("step_cost", constant_step_cost)
    return SpeculativeSequencer(gpt2, proposer=proposer, **kwargs)


class TestNgramProposer:
    def test_continues_a_repeating_cycle(self):
        proposer = NgramProposer(max_order=3)
        ids = [5, 1, 2, 3, 1, 2, 3, 1, 2, 3]
        # suffix (1,2,3) occurred earlier; what followed is 1,2,3,... cycled
        assert proposer.propose(None, ids, k=5) == [1, 2, 3, 1, 2]

    def test_no_repetition_means_no_draft(self):
        proposer = NgramProposer()
        assert proposer.propose(None, [1, 2, 3, 4, 5], k=4) == []

    def test_short_or_empty_budget(self):
        proposer = NgramProposer()
        assert proposer.propose(None, [1], k=4) == []
        assert proposer.propose(None, [1, 2, 1, 2], k=0) == []

    def test_prefers_the_longest_matching_suffix(self):
        proposer = NgramProposer(max_order=3)
        # order-2 suffix (2,3) matches at index 1 -> continuation starts at 3
        ids = [1, 2, 3, 9, 2, 3]
        assert proposer.propose(None, ids, k=2) == [9, 2]

    def test_validates_max_order(self):
        with pytest.raises(ValueError, match="max_order"):
            NgramProposer(max_order=0)


class TestBitIdentity:
    """Single-request equivalence before the concurrent soaks."""

    @pytest.mark.parametrize("proposer_kind", list(PROPOSERS))
    def test_single_request_matches_offline(self, gpt2, proposer_kind):
        sequencer = spec_sequencer(gpt2, proposer=PROPOSERS[proposer_kind](), max_new_tokens=8)
        for rid, n in enumerate((3, 5, 9, 14)):
            request = Request(0.0, n, id=rid)
            report = InferenceEngine(sequencer, EngineConfig(num_slots=1)).run([request])
            np.testing.assert_array_equal(
                report.outputs()[rid], sequencer.offline_reference(request)
            )

    def test_degenerate_budgets_still_match(self, gpt2):
        """max_new 0/1/2 exercise the no-draft branch (budget 0) where the
        round must degenerate to the base sequencer's exact forward."""
        for max_new in (0, 1, 2):
            sequencer = spec_sequencer(gpt2, max_new_tokens=max_new)
            request = Request(0.0, 5, id=max_new)
            report = InferenceEngine(sequencer, EngineConfig(num_slots=1)).run([request])
            np.testing.assert_array_equal(
                report.outputs()[max_new], sequencer.offline_reference(request)
            )

    def test_prompt_at_max_positions_matches_offline(self, gpt2):
        """Decode up against the position budget: drafting must clamp and
        the final token land exactly like generate_cached's break."""
        sequencer = spec_sequencer(gpt2, max_new_tokens=8)
        request = Request(0.0, gpt2.config.max_positions - 3, id=0)
        report = InferenceEngine(sequencer, EngineConfig(num_slots=1)).run([request])
        output = report.outputs()[0]
        np.testing.assert_array_equal(output, sequencer.offline_reference(request))
        assert len(output) == gpt2.config.max_positions


class TestSpeculativeSoak:
    """The tentpole guarantee for accepted and rejected drafts, chaos
    preemption included: every token and every K/V byte a finished request
    leaves in its slot equal ``generate_cached``'s."""

    def requests(self):
        return [
            r.with_slo(slo=60.0)
            for r in bursty_arrivals(bursts=2, burst_size=10, burst_gap=0.005, n_tokens=(3, 9))
        ]

    @pytest.mark.parametrize("proposer_kind", list(PROPOSERS))
    def test_soak_bit_identical_under_preemption(self, gpt2, proposer_kind):
        sequencer = spec_sequencer(gpt2, proposer=PROPOSERS[proposer_kind]())
        report = chaos_soak(
            sequencer, self.requests(),
            num_slots=3, chaos_preempt_period=5, chaos_max_preemptions=2, chaos_seed=7,
        )
        assert report.preemptions_total > 0  # chaos actually fired
        assert sequencer.stats.accepted > 0  # speculation actually happened

    def test_soak_with_prefix_cache_bit_identical(self, gpt2):
        """Speculation + prefix cache + chaos preemption together.  K/V bytes
        are checked for the requests that reused no prefix: a reused prompt
        row was written by another prompt's prefill, whose causal attention
        summed over that prompt's length, and may differ from
        ``generate_cached``'s in the last bit (the tokens do not)."""
        sequencer = spec_sequencer(gpt2, shared_prefix_tokens=4)
        config = EngineConfig(
            num_slots=3,
            prefix_cache=True,
            chaos_preempt_period=6,
            chaos_max_preemptions=2,
            chaos_seed=3,
        )
        requests = [
            Request(r.arrival, r.n, id=r.id, tenant=("a", "b")[r.id % 2], deadline=r.deadline)
            for r in self.requests()
        ]
        finished_kv = record_finished_kv(sequencer)
        report = InferenceEngine(sequencer, config).run(requests)
        assert len(report.completed) == len(requests)
        assert report.prefix_cache["hits"] > 0
        unseeded = {c.request.id for c in report.completed if not c.prefix_reused}
        assert unseeded
        check_bit_identity(
            report, sequencer, requests, {i: finished_kv[i] for i in unseeded}
        )

    def test_speculative_is_faster_in_virtual_time(self, gpt2):
        """The point of the feature: same outputs, fewer forwards, and a
        smaller virtual-time makespan under the serving device's pass price."""
        from functools import partial

        from repro.fleet import SERVE_DEVICE
        from repro.systems.decode import pass_seconds

        step_cost = partial(pass_seconds, gpt2.config, SERVE_DEVICE)
        requests = uniform_arrivals(8, interval=0.001, n_tokens=(6, 12))

        def run(speculative):
            if speculative:
                sequencer = SpeculativeSequencer(
                    gpt2, max_new_tokens=8, step_cost=step_cost
                )
            else:
                sequencer = GPT2CachedSequencer(gpt2, max_new_tokens=8, step_cost=step_cost)
            return InferenceEngine(sequencer, EngineConfig(num_slots=2)).run(requests), sequencer

        base_report, base_seq = run(speculative=False)
        spec_report, spec_seq = run(speculative=True)
        base_outputs, spec_outputs = base_report.outputs(), spec_report.outputs()
        assert base_outputs.keys() == spec_outputs.keys()
        for rid in base_outputs:
            np.testing.assert_array_equal(base_outputs[rid], spec_outputs[rid])
        assert spec_report.steps_total < base_report.steps_total
        assert spec_report.makespan < base_report.makespan


class TestStats:
    def test_stats_account_for_every_emitted_token(self, gpt2):
        sequencer = spec_sequencer(gpt2, max_new_tokens=6)
        requests = uniform_arrivals(6, interval=0.001, n_tokens=(4, 10))
        report = InferenceEngine(sequencer, EngineConfig(num_slots=2)).run(requests)
        generated = sum(len(c.output) - c.request.n for c in report.completed)
        stats = sequencer.stats
        assert stats.emitted == generated
        assert 0 <= stats.accepted <= stats.drafted
        assert 0.0 <= stats.acceptance_rate <= 1.0
        assert stats.tokens_per_forward >= 1.0  # never worse than one per forward
        delta = sequencer.stats.delta(stats.snapshot())
        assert delta.emitted == 0 and delta.forwards == 0
        as_dict = stats.as_dict()
        assert as_dict["accepted"] == stats.accepted
        assert as_dict["acceptance_rate"] == stats.acceptance_rate

    def test_registry_counters_recorded(self, gpt2):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            sequencer = spec_sequencer(gpt2)
            InferenceEngine(sequencer, EngineConfig(num_slots=1)).run(
                uniform_arrivals(3, interval=0.001, n_tokens=(6, 9))
            )
        assert registry.counter("engine.speculative.forwards_total").value > 0
        drafted = registry.counter("engine.speculative.drafted_total").value
        accepted = registry.counter("engine.speculative.accepted_total").value
        assert drafted == sequencer.stats.drafted
        assert accepted == sequencer.stats.accepted


class TestValidation:
    def test_lookahead_validated(self, gpt2):
        with pytest.raises(ValueError, match="lookahead"):
            SpeculativeSequencer(gpt2, lookahead=0)

    def test_dirty_slot_still_rejected(self, gpt2):
        sequencer = spec_sequencer(gpt2)
        pool = SlotPool(1, num_layers=gpt2.num_layers, capacity=16)
        slot = pool.acquire()
        state = sequencer.begin(Request(0.0, 4, id=0), np.array([1, 2, 3]), slot)
        sequencer.step(state)
        with pytest.raises(ValueError, match="dirty"):
            sequencer.begin(Request(0.0, 4, id=1), np.array([1, 2]), slot)
