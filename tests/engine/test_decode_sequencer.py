"""Chaos soak for :class:`VoltageDecodeSequencer`: distributed decode under
the engine's interleaving and forced preemptions must stay bit-identical to
offline single-device ``generate_cached`` (the PR 4 soak guarantee, now with
the KV cache position-sharded across resident ranks).

The threaded soak runs the full bursty workload; the process-runtime soak is
deliberately smaller (every rank is a forked OS process) but exercises the
same session protocol over real sockets.
"""

import time

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.engine import (
    DecodeSession,
    EngineConfig,
    InferenceEngine,
    NgramProposer,
    SpeculativeStats,
    VoltageDecodeSequencer,
)
from repro.serving.arrivals import Request, bursty_arrivals
from repro.systems.voltage import VoltageSystem

from .conftest import chaos_soak, constant_step_cost


@pytest.fixture
def system(gpt2):
    cluster = ClusterSpec.heterogeneous([5.0, 3.0], bandwidth_mbps=100.0)
    return VoltageSystem(gpt2, cluster)


class TestDecodeSoak:
    def test_threaded_soak_bit_identical_under_preemption(self, system):
        """Interleaved requests + chaos preemptions over resident threaded
        ranks: every output equals the offline single-device decode."""
        with VoltageDecodeSequencer(
            system, max_new_tokens=5, step_cost=constant_step_cost
        ) as sequencer:
            requests = [
                r.with_slo(slo=60.0)
                for r in bursty_arrivals(
                    bursts=2, burst_size=8, burst_gap=0.005, n_tokens=(3, 9)
                )
            ]
            assert len(requests) == 16
            chaos_soak(
                sequencer, requests,
                num_slots=3, chaos_preempt_period=5, chaos_max_preemptions=2, chaos_seed=7,
            )

    def test_process_soak_bit_identical(self, system):
        """Same guarantee with every rank a forked OS process: the session's
        pre-fork queues drive socket-backed collectives per token step."""
        with VoltageDecodeSequencer(
            system, max_new_tokens=3, step_cost=constant_step_cost, runtime="process"
        ) as sequencer:
            requests = [
                r.with_slo(slo=60.0)
                for r in bursty_arrivals(
                    bursts=1, burst_size=6, burst_gap=0.005, n_tokens=(3, 7)
                )
            ]
            chaos_soak(
                sequencer, requests,
                num_slots=2, chaos_preempt_period=4, chaos_max_preemptions=1, chaos_seed=3,
            )


class TestDistributedAttentionSequencer:
    def test_threaded_soak_matches_offline_reference(self, system):
        """The engine's interleaving with local-shard attention + combine:
        every completed output equals the offline single-device decode (the
        fixtures' logit gaps dwarf the combine's re-association noise)."""
        with VoltageDecodeSequencer(
            system, max_new_tokens=4, step_cost=constant_step_cost,
            attention="distributed",
        ) as sequencer:
            requests = [
                r.with_slo(slo=60.0)
                for r in bursty_arrivals(
                    bursts=1, burst_size=6, burst_gap=0.005, n_tokens=(3, 8)
                )
            ]
            chaos_soak(
                sequencer, requests,
                num_slots=2, chaos_preempt_period=5, chaos_max_preemptions=1, chaos_seed=11,
            )

    def test_process_single_request(self, system):
        with VoltageDecodeSequencer(
            system, max_new_tokens=3, runtime="process", attention="distributed"
        ) as sequencer:
            engine = InferenceEngine(sequencer, EngineConfig(num_slots=1))
            request = Request(arrival=0.0, n=5, id=4)
            report = engine.run([request])
            np.testing.assert_array_equal(
                report.outputs()[4], sequencer.offline_reference(request)
            )

    def test_rejects_unknown_attention(self, system):
        with pytest.raises(ValueError, match="attention"):
            DecodeSession(system, attention="ring")


class TestDecodeSequencerContract:
    def test_single_request_matches_generate_cached(self, system):
        with VoltageDecodeSequencer(system, max_new_tokens=4) as sequencer:
            engine = InferenceEngine(sequencer, EngineConfig(num_slots=1))
            request = Request(arrival=0.0, n=5, id=1)
            report = engine.run([request])
            np.testing.assert_array_equal(
                report.outputs()[1], sequencer.offline_reference(request)
            )

    def test_max_new_tokens_zero_finishes_at_prefill(self, system):
        with VoltageDecodeSequencer(system, max_new_tokens=0) as sequencer:
            engine = InferenceEngine(sequencer, EngineConfig(num_slots=1))
            request = Request(arrival=0.0, n=4, id=2)
            report = engine.run([request])
            prompt = sequencer.prompt_for(request)
            np.testing.assert_array_equal(report.outputs()[2], prompt)

    def test_rejects_empty_prompt(self, system):
        with VoltageDecodeSequencer(system, max_new_tokens=2) as sequencer:
            request = Request(arrival=0.0, n=1, id=3)

            class FakeSlot:
                index = 0
                length = 0

            with pytest.raises(ValueError, match="non-empty"):
                sequencer.begin(request, np.empty(0, dtype=np.int64), FakeSlot())

    def test_session_survives_rebegin_on_same_slot(self, system):
        """Re-beginning a slot (the preemption restart path) replaces the
        rank-side shards and still decodes correctly."""
        with DecodeSession(system) as session:
            model = system.model
            prompt = np.random.default_rng(5).integers(
                0, model.config.vocab_size, size=6
            ).astype(np.int64)
            reference = model.generate_cached(prompt, max_new_tokens=1)
            session.begin(0, capacity=7)
            session.forward(0, [int(t) for t in prompt], 0)
            # abandon mid-request, then restart the same slot from scratch
            session.begin(0, capacity=7)
            next_id = session.forward(0, [int(t) for t in prompt], 0)
            assert next_id == int(reference[-1])
            session.release(0)

    def test_session_close_is_idempotent(self, system):
        session = DecodeSession(system)
        session.begin(0, capacity=4)
        session.close()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.begin(1, capacity=4)

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_session_fails_fast_after_a_rank_failure(self, system, runtime):
        """A rank-side exception breaks the session for good: the first
        failing command reports it, every later command raises immediately
        (chained to the original error) instead of waiting out ``timeout``
        on dead ranks, and ``close`` stays idempotent."""
        session = DecodeSession(system, runtime=runtime, timeout=5.0)
        session.begin(0, capacity=4)
        with pytest.raises(RuntimeError, match="KeyError") as first:
            session.forward(7, [1, 2], 0)  # slot 7 was never begun
        for command in (
            lambda: session.forward(0, [1, 2], 0),
            lambda: session.begin(1, capacity=4),
            lambda: session.release(0),
        ):
            began = time.perf_counter()
            with pytest.raises(RuntimeError, match="broken") as later:
                command()
            assert time.perf_counter() - began < 1.0
            assert later.value.__cause__ is first.value
        session.close()
        session.close()

    def test_session_backend_rejects_a_proposer(self, system):
        """The session has no verify/rollback command, so speculative
        decoding over resident ranks is refused, not silently mis-run."""
        with VoltageDecodeSequencer(system, max_new_tokens=2) as sequencer:
            with pytest.raises(ValueError, match="verify"):
                sequencer._speculate(NgramProposer(), 4, SpeculativeStats())
