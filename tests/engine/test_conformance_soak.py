"""One state machine, every construction: the conformance soak.

``GPT2CachedSequencer``, ``SpeculativeSequencer`` and
``VoltageDecodeSequencer`` are thin constructions of the single greedy step
machine in ``repro.engine.sequencer``, so one scenario must hold for all of
them: the *same* bursty stream under the *same* seeded chaos preemption,
every output bit-identical to ``offline_reference`` (single-device
``generate_cached``).  The per-class test files keep only what is specific
to their class (speculation really happened, the session contract, ...).
"""

from contextlib import nullcontext

import pytest

from repro.cluster.spec import ClusterSpec
from repro.engine import (
    GPT2CachedSequencer,
    NgramProposer,
    SlotPool,
    SpeculativeSequencer,
    VoltageDecodeSequencer,
)
from repro.serving.arrivals import Request, bursty_arrivals
from repro.systems.voltage import VoltageSystem

from .conftest import chaos_soak, constant_step_cost, position_cost

MAX_NEW = 4


def voltage(attention, runtime):
    def build(gpt2):
        system = VoltageSystem(gpt2, ClusterSpec.heterogeneous([5.0, 3.0], bandwidth_mbps=100.0))
        return VoltageDecodeSequencer(
            system, max_new_tokens=MAX_NEW, step_cost=constant_step_cost,
            attention=attention, runtime=runtime,
        )

    return build


def speculative(make_proposer):
    return lambda gpt2: nullcontext(SpeculativeSequencer(
        gpt2, make_proposer(gpt2), max_new_tokens=MAX_NEW, step_cost=constant_step_cost
    ))


#: name -> builder of a context manager yielding the sequencer (only the
#: Voltage constructions own something to close: their resident ranks)
CONSTRUCTIONS = {
    "cached": lambda gpt2: nullcontext(GPT2CachedSequencer(
        gpt2, max_new_tokens=MAX_NEW, step_cost=constant_step_cost
    )),
    "speculative-ngram": speculative(lambda gpt2: NgramProposer()),
    "voltage-gathered-threaded": voltage("gathered", "threaded"),
    "voltage-gathered-process": voltage("gathered", "process"),
    "voltage-distributed-threaded": voltage("distributed", "threaded"),
    "voltage-distributed-process": voltage("distributed", "process"),
}


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_chaos_soak_matches_offline_reference(gpt2, construction):
    requests = [
        r.with_slo(slo=60.0)
        for r in bursty_arrivals(bursts=1, burst_size=6, burst_gap=0.005, n_tokens=(3, 8))
    ]
    with CONSTRUCTIONS[construction](gpt2) as sequencer:
        report = chaos_soak(
            sequencer, requests,
            num_slots=2, chaos_preempt_period=4, chaos_max_preemptions=1, chaos_seed=3,
        )
    assert report.preemptions_total > 0  # chaos actually fired


class NeverProposes:
    name = "never"

    def begin(self, ids):
        return None

    def propose(self, dstate, ids, k):
        return []


def test_empty_drafts_degenerate_to_the_plain_sequencer_step_for_step(gpt2):
    """A speculative sequencer whose proposer never proposes runs the plain
    sequencer's exact steps: same ``(done, cost)`` sequence, same step count,
    same output — the zero-token draft *is* the single-position forward."""
    kwargs = dict(max_new_tokens=6, step_cost=position_cost)
    prompt = GPT2CachedSequencer(gpt2, **kwargs).prompt_for(Request(0.0, 7, id=0))

    def trace(sequencer):
        pool = SlotPool(1, num_layers=sequencer.num_layers, capacity=sequencer.slot_capacity)
        state = sequencer.begin(Request(0.0, 7, id=0), prompt, pool.acquire())
        steps = []
        while not state.done:
            steps.append(sequencer.step(state))
        return steps, sequencer.result(state)

    plain_steps, plain_output = trace(GPT2CachedSequencer(gpt2, **kwargs))
    speculative_sequencer = SpeculativeSequencer(gpt2, NeverProposes(), **kwargs)
    spec_steps, spec_output = trace(speculative_sequencer)
    assert spec_steps == plain_steps
    assert len(plain_steps) == 1 + 6  # prefill + one step per new token
    assert spec_output.tolist() == plain_output.tolist()
    stats = speculative_sequencer.stats
    assert (stats.drafted, stats.rounds, stats.emitted, stats.forwards) == (0, 0, 6, 5)
