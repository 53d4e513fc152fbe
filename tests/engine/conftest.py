"""Shared fixtures for engine tests: a tiny GPT-2 plus sequencer factory."""

import numpy as np
import pytest

from repro.engine import EngineConfig, GPT2CachedSequencer, InferenceEngine
from repro.models import GPT2Model, tiny_config


@pytest.fixture
def gpt2():
    cfg = tiny_config(norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=2)
    return GPT2Model(cfg, rng=np.random.default_rng(13))


def constant_step_cost(flights):
    """Flat 10 ms virtual seconds per pass — keeps the math in tests easy."""
    return 0.01


def position_cost(flights):
    """Virtual seconds that depend on what each flight of a pass covers —
    a sum over the flights, so a cost priced for the wrong flights or the
    wrong cache lengths shows."""
    return sum(0.002 + 0.0005 * new + 0.00001 * cached for new, cached, _ in flights)


@pytest.fixture
def sequencer(gpt2):
    return GPT2CachedSequencer(gpt2, max_new_tokens=6, step_cost=constant_step_cost)


def check_bit_identity(report, sequencer, requests):
    """Every completed output must equal a fresh offline decode."""
    outputs = report.outputs()
    shed_ids = {s.request.id for s in report.shed}
    for request in requests:
        if request.id in shed_ids:
            continue
        np.testing.assert_array_equal(
            outputs[request.id], sequencer.offline_reference(request),
            err_msg=f"request {request.id} diverged from the offline decode",
        )


def chaos_soak(sequencer, requests, **config):
    """The soak contract of every decode construction: run ``requests``
    through an engine (``config`` carries the slot count and the seeded
    chaos-preemption knobs); nothing may be shed or lost and every output
    must be bit-identical to ``sequencer.offline_reference``."""
    report = InferenceEngine(sequencer, EngineConfig(**config)).run(requests)
    assert len(report.completed) == len(requests)
    assert report.shed == []
    check_bit_identity(report, sequencer, requests)
    return report
