"""Direct timed calls into public functions at a lane's exact shapes.

Each probe reports a median over repeated calls on an otherwise idle
process (*uncontended* numbers: what one rank's share of the work costs when
nothing else runs), which is what the ``systems.*_exposed_s`` metrics
subtract from measured request time.
"""

from __future__ import annotations

import time

import numpy as np

from stats import median


def timed(fn, budget: float, min_reps: int = 3, max_reps: int = 400) -> float:
    """Median seconds per ``fn()`` over as many calls as fit in ``budget``."""
    fn()  # warm: first-touch allocations, lazy caches
    samples: list[float] = []
    start = time.perf_counter()
    while len(samples) < max_reps:
        began = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - began)
        if len(samples) >= min_reps and time.perf_counter() - start > budget:
            break
    return median(samples)


def cached_forward_seconds(model, caches, new_ids, offset: int, budget: float, **kwargs) -> float:
    """Median seconds of one ``logits_cached`` over ``new_ids`` at ``offset``
    against ``caches`` (already holding ``offset`` rows; rolled back after
    every call so each one sees the same cache)."""

    def call():
        model.logits_cached(new_ids, offset, caches, **kwargs)
        for layer_cache in caches:
            layer_cache.truncate(offset)

    return timed(call, budget)


def decoder_step(model, context: int, budget: float) -> dict[str, float]:
    """One cached decode step of ``model`` against ``context`` cached rows,
    and the share of it the LM-head GEMV (hidden row · embedding table) takes."""
    from repro.models.cache import KVCache

    rng = np.random.default_rng(0)
    config = model.config
    cache = KVCache.empty(model.num_layers, capacity=context + 1)
    model.logits_cached(rng.integers(0, config.vocab_size, size=context), 0, cache.layers)
    step = cached_forward_seconds(model, cache.layers, [1], context, budget)
    hidden = rng.standard_normal(config.hidden_size, dtype=np.float32)
    table = model.embeddings.word.weight.data
    head = timed(lambda: hidden @ table.T, budget)
    return {
        "models.decode_step_s_p50": step,
        "models.lm_head_share": head / step,
        "tensor.gemv_gbps": table.nbytes / head / 1e9,  # bytes computed from shapes
    }


def collective_seconds(runtime, block: np.ndarray, method: str, reps: int) -> float:
    """Median seconds per ``ctx.<method>(block)`` inside a resident worker
    (launch cost excluded: the loop runs within one ``runtime.run``)."""

    def worker(ctx):
        call = getattr(ctx, method)
        call(block, axis=0)
        ctx.barrier()
        samples = []
        for _ in range(reps):
            began = time.perf_counter()
            call(block, axis=0)
            samples.append(time.perf_counter() - began)
        return samples

    results, _ = runtime.run(worker)
    return median(results[0])


def launch_seconds(make_runtime, budget: float) -> float:
    """Median seconds to start K ranks, run nothing, and collect them."""
    return timed(lambda: make_runtime().run(lambda ctx: None), budget)


def wire_gbps(block: np.ndarray, budget: float) -> tuple[float, float]:
    """(encode, decode) GB/s of one framed tensor message."""
    from repro.cluster.wire import decode_frame, encode_frame

    frame = encode_frame(block)
    encode = timed(lambda: encode_frame(block), budget)
    decode = timed(lambda: decode_frame(frame), budget)
    return block.nbytes / encode / 1e9, block.nbytes / decode / 1e9
