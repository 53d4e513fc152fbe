"""A resident ``DecodeSession`` rank's state stays bounded.

The session keeps its ranks alive across requests, so every collective of
every request runs on the same rank contexts.  Serving new context lengths
must not add receive buffers (the pool is per op, not per shape), and
serving more tokens must not add channels or resident memory.  Tokens stay
``generate_cached``'s throughout.
"""

import itertools
import multiprocessing
import os

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.models.config import tiny_config
from repro.models.gpt2 import GPT2Model, greedy_loop
from repro.systems import decode as decode_module
from repro.systems.decode import DecodeSession, decode_capacity
from repro.systems.voltage import VoltageSystem
from repro.tensor.workspace import GROWTH

K = 2


@pytest.fixture(scope="module")
def model():
    config = tiny_config(norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=2)
    return GPT2Model(config, rng=np.random.default_rng(3))


def prompt_of(model, length: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, model.config.vocab_size, size=length).astype(np.int64)


def serve(session, model, prompt: np.ndarray, new_tokens: int) -> list[int]:
    """One request through slot 0: ``generate_cached``'s control flow."""
    session.begin(0, decode_capacity(model, len(prompt), new_tokens))
    ids = greedy_loop(
        lambda new_ids, offset: session.forward(0, new_ids, offset),
        [int(t) for t in prompt], new_tokens, model.config.max_positions,
    )
    session.release(0)
    return ids


def pooled(ctx) -> dict:
    """Each receive-pool key's generation sizes, in bytes."""
    return {key: [flat.nbytes for flat in pool] for key, pool in ctx._buffers.items()}


def test_threaded_session_pool_bounded_over_new_lengths(model, monkeypatch):
    """Four prompt lengths, gathered attention: after every length each
    rank's pooled bytes stay under ``2 × GROWTH ×`` its ops' largest
    results (a per-shape pool grows with each new length), and serving the
    same lengths again allocates nothing."""
    contexts = {}
    real = decode_module._rank_stepper

    def spy(system, ctx, capacity, attention):
        contexts[ctx.rank] = ctx
        return real(system, ctx, capacity, attention)

    monkeypatch.setattr(decode_module, "_rank_stepper", spy)
    lengths, new_tokens = (4, 9, 15, 22), 6
    system = VoltageSystem(model, ClusterSpec.homogeneous(K))
    config = model.config
    # float32: a whole-context K or V gather; float64: the head's (K, 2) pairs
    largest = config.hidden_size * (max(lengths) + new_tokens) * 4 + K * 2 * 8
    bound = 2 * GROWTH * largest

    with DecodeSession(system, timeout=30.0) as session:
        for repeat in range(2):
            for seed, length in enumerate(lengths):
                prompt = prompt_of(model, length, seed)
                reference = model.generate_cached(prompt, new_tokens)
                assert serve(session, model, prompt, new_tokens) == list(reference)
                assert sorted(contexts) == list(range(K))
                for ctx in contexts.values():
                    generations = pooled(ctx).values()
                    assert all(len(sizes) <= 2 for sizes in generations)
                    assert sum(map(sum, generations)) <= bound
            if repeat == 0:
                first_pass = {rank: pooled(ctx) for rank, ctx in contexts.items()}
        assert {rank: pooled(ctx) for rank, ctx in contexts.items()} == first_pass


def _vm_rss_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("no VmRSS line")


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_process_session_rank_state_flat_over_a_thousand_steps(model, monkeypatch):
    """A process-runtime session serving ≥ 1 000 gathered steps: after each
    step, every rank's channel count is back at its baseline and, after
    warm-up, its ``VmRSS`` grows far slower than a leak of one channel per
    collective (≈ 4 KB each, five collectives per step here).  The channel
    count is the exact check; the RSS bound only has to separate the leak
    from the allocator settling, which can take well over a thousand steps."""
    requests, new_tokens, length = 48, 20, 12
    steps = requests * (new_tokens + 1)
    warm_up = steps // 2
    # a channel kept per collective grew ≈ 22 KB per step per rank at K = 2;
    # with the channels dropped, the allocator still settles at ≈ 0.5 KB per
    # step: a quarter of the leak's rate separates them on any allocator
    leak_kb_per_step = 22
    bound_kb = leak_kb_per_step * (steps - warm_up) // 4
    # (channels, VmRSS kB) per rank per step, written by the forked ranks
    samples = multiprocessing.Array("q", K * steps * 2, lock=False)
    real = decode_module._rank_stepper
    counter = itertools.count()  # each forked rank counts its own steps

    def spy(system, ctx, capacity, attention):
        step = real(system, ctx, capacity, attention)

        def recorded(new_ids, offset):
            result = step(new_ids, offset)
            index = next(counter)
            if index < steps:
                at = (ctx.rank * steps + index) * 2
                samples[at] = len(ctx._transport._queues)
                samples[at + 1] = _vm_rss_kb()
            return result

        return recorded

    monkeypatch.setattr(decode_module, "_rank_stepper", spy)
    system = VoltageSystem(model, ClusterSpec.homogeneous(K))
    prompt = prompt_of(model, length, 0)
    reference = list(model.generate_cached(prompt, new_tokens))
    with DecodeSession(system, runtime="process", timeout=60.0) as session:
        for _ in range(requests):
            assert serve(session, model, prompt, new_tokens) == reference
    recorded = np.frombuffer(samples, dtype=np.int64).reshape(K, steps, 2)
    for rank in range(K):
        channels, rss = recorded[rank, :, 0], recorded[rank, :, 1]
        assert (rss > 0).all(), f"rank {rank} recorded fewer than {steps} steps"
        assert (channels == channels[0]).all()
        growth_kb = int(rss[warm_up:].max() - rss[warm_up])
        assert growth_kb <= bound_kb, (
            f"rank {rank} VmRSS grew {growth_kb} kB after warm-up (bound {bound_kb} kB)"
        )
