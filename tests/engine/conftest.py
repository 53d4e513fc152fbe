"""Shared fixtures for engine tests: a tiny GPT-2 plus sequencer factory."""

from unittest import mock

import numpy as np
import pytest

from repro.engine import EngineConfig, GPT2CachedSequencer, InferenceEngine
from repro.models import GPT2Model, tiny_config
from repro.models.cache import KVCache


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


def record_finished_kv(sequencer) -> dict:
    """Keep, per request id, the K/V bytes of every layer of the slot a
    request of ``sequencer`` (a slot-cache construction) finishes in — read
    as it finishes, before the engine recycles the slot."""
    finished = {}
    finish = sequencer._finish

    def recording(state):
        finished[state.request.id] = [
            (layer.k.tobytes(), layer.v.tobytes()) for layer in state.slot.caches
        ]
        finish(state)

    sequencer._finish = recording
    return finished


def generate_cached_kv(model, prompt, max_new_tokens):
    """The K/V bytes of every layer of ``model.generate_cached``'s own cache
    once it returns."""
    caches = []
    empty = KVCache.empty

    def capturing(*args, **kwargs):
        caches.append(empty(*args, **kwargs))
        return caches[-1]

    with mock.patch.object(KVCache, "empty", capturing):
        model.generate_cached(prompt, max_new_tokens=max_new_tokens)
    (cache,) = caches
    return [(layer.k.tobytes(), layer.v.tobytes()) for layer in cache.layers]


def check_bit_identity(report, sequencer, requests, finished_kv=None):
    """Every completed output must equal a fresh offline decode — and, for
    each request in ``finished_kv`` (its slot's K/V at finish,
    :func:`record_finished_kv`), every K/V byte ``generate_cached``'s."""
    outputs = report.outputs()
    shed_ids = {s.request.id for s in report.shed}
    for request in requests:
        if request.id in shed_ids:
            continue
        np.testing.assert_array_equal(
            outputs[request.id], sequencer.offline_reference(request),
            err_msg=f"request {request.id} diverged from the offline decode",
        )
        if finished_kv is not None and request.id in finished_kv:
            reference = generate_cached_kv(
                sequencer.model, sequencer.prompt_for(request), sequencer.max_new_tokens
            )
            assert finished_kv[request.id] == reference, (
                f"request {request.id}: K/V differ from generate_cached's cache"
            )


def chaos_soak(sequencer, requests, **config):
    """The soak contract of every decode construction: run ``requests``
    through an engine (``config`` carries the slot count and the seeded
    chaos-preemption knobs); nothing may be shed or lost and every output
    must be bit-identical to ``sequencer.offline_reference`` — and, for a
    construction over slot caches, every K/V byte to ``generate_cached``'s."""
    finished_kv = record_finished_kv(sequencer) if sequencer.num_layers else None
    report = InferenceEngine(sequencer, EngineConfig(**config)).run(requests)
    assert len(report.completed) == len(requests)
    assert report.shed == []
    check_bit_identity(report, sequencer, requests, finished_kv)
    return report
