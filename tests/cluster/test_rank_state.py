"""Bounded per-rank state: receive pools and channels, on both runtimes.

A resident rank (a ``DecodeSession``'s) runs thousands of collectives of
ever-changing shapes, so nothing it keeps may grow with how many
collectives it has run or how many shapes it has seen:

- the receive pool holds two flat generations per ``(op, dtype)`` — at most
  ``2 × GROWTH ×`` the op's largest result — and a result stays valid
  until the second-next call of the same op, across shapes;
- every channel is tagged by its collective and dropped once its last frame
  is consumed, and finished comm threads are forgotten;
- nothing a rank service started outlives its ``close``.
"""

import gc
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro.cluster.process_runtime import ProcessRuntime
from repro.cluster.runtime import ThreadedRuntime
from repro.tensor.workspace import GROWTH

RUNTIMES = [ThreadedRuntime, ProcessRuntime]


def pooled(ctx) -> dict:
    """``{(op, dtype): (generations, bytes)}`` of a rank's receive pool."""
    return {
        key: (len(pool), sum(flat.nbytes for flat in pool))
        for key, pool in ctx._buffers.items()
    }


def open_channels(ctx) -> int:
    """Channels the rank's transport holds (its inbound queues)."""
    return len(ctx._transport._queues)


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_growing_gathers_keep_two_bounded_generations(runtime):
    """50 K/V-shaped gathers ``(H, t, F_H)``, t = 1..50 — a resident decode
    rank's sequence — leave one op key with two generations under the bound,
    and steady state reuses instead of allocating."""
    heads, head_dim, steps = 3, 4, 50

    def worker(ctx):
        largest = 0
        for t in range(1, steps + 1):
            chunk = np.full((heads, t, head_dim), 100.0 * t + ctx.rank, dtype=np.float32)
            out = ctx.all_gather(chunk, axis=1)
            expected = np.concatenate(
                [np.full((heads, t, head_dim), 100.0 * t + r, dtype=np.float32)
                 for r in range(ctx.world_size)],
                axis=1,
            )
            assert np.array_equal(out, expected)
            largest = max(largest, out.nbytes)
        return pooled(ctx), largest

    results, stats = runtime(2, timeout=15).run(worker)
    for pools, largest in results:
        assert list(pools) == [("all_gather", np.dtype(np.float32))]
        ((generations, nbytes),) = pools.values()
        assert generations == 2
        assert nbytes <= 2 * GROWTH * largest
    for s in stats:
        # two warm-up allocations, then at most one regrowth per doubling
        # of each generation: everything else wrote into a pooled buffer
        assert s.buffers_reused >= steps - 2 - 2 * int(np.ceil(np.log2(steps)))


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_second_next_lifetime_holds_across_shapes(runtime):
    """A result survives the next call of its op even when that call has a
    different shape; the call after recycles its storage."""

    def worker(ctx):
        r1 = ctx.all_gather(np.full((2, 3), float(ctx.rank), dtype=np.float32))
        snap1 = r1.copy()
        r2 = ctx.all_gather(np.full((5,), 10.0 + ctx.rank, dtype=np.float32))
        r1_survived = bool(np.array_equal(r1, snap1))
        r3 = ctx.all_gather(np.full((1, 5), 20.0 + ctx.rank, dtype=np.float32))
        return (
            r1_survived,
            bool(np.array_equal(r2, [10.0] * 5 + [11.0] * 5)),
            bool(np.array_equal(r3, [[20.0] * 5, [21.0] * 5])),
            bool(np.shares_memory(r1, r3)),  # r1's generation recycled
            bool(np.shares_memory(r2, r3)),
        )

    results, stats = runtime(2, timeout=15).run(worker)
    assert results == [(True, True, True, True, False)] * 2
    assert all(s.buffers_reused == 1 for s in stats)


def test_slot_and_ring_gathers_share_one_pool_op():
    """``ring_all_gather`` is an alias of ``all_gather`` (the e2e encoder
    probe calls it by that name), so the two are one op for the pool: a
    result of either name survives the next blocking gather of either name,
    and the one after recycles its storage."""

    def worker(ctx):
        a = ctx.ring_all_gather(np.full((2,), float(ctx.rank), dtype=np.float32))
        snap = a.copy()
        b = ctx.all_gather(np.full((3,), 10.0 + ctx.rank, dtype=np.float32))
        a_survived = bool(np.array_equal(a, snap))
        c = ctx.ring_all_gather(np.full((1,), 20.0 + ctx.rank, dtype=np.float32))
        return (
            a_survived,
            bool(np.array_equal(b, [10.0] * 3 + [11.0] * 3)),
            bool(np.array_equal(c, [20.0, 21.0])),
            bool(np.shares_memory(a, c)),
            list(pooled(ctx)),
        )

    results, stats = ThreadedRuntime(2, timeout=15).run(worker)
    assert results == [
        (True, True, True, True, [("all_gather", np.dtype(np.float32))])
    ] * 2
    assert all(s.buffers_reused == 1 for s in stats)


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_gathering_a_view_of_the_older_result_never_aliases(runtime):
    """The generation due for reuse holds this call's input (a view of the
    result before last, differently shaped): the output gets fresh storage
    — aliasing neither the input nor the previous, still-live result."""

    def worker(ctx):
        x = ctx.all_gather(np.full((3,), float(ctx.rank), dtype=np.float32))
        y = ctx.all_gather(np.full((2, 2), 10.0 + ctx.rank, dtype=np.float32))
        y_snap = y.copy()
        z = ctx.all_gather(x[2 * ctx.rank : 2 * ctx.rank + 2])
        (generations, _), = pooled(ctx).values()
        return (
            bool(np.array_equal(z, [0.0, 0.0, 0.0, 1.0])),
            bool(np.array_equal(y, y_snap)),
            bool(np.shares_memory(z, x)),
            bool(np.shares_memory(z, y)),
            generations,
        )

    results, stats = runtime(2, timeout=15).run(worker)
    assert results == [(True, True, False, False, 2)] * 2
    assert all(s.buffers_reused == 0 for s in stats)


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("rounds", [1, 12])
def test_collectives_return_channels_to_baseline(runtime, rounds):
    """However many blocking, async and barrier calls a rank
    runs, afterwards it holds no channel at all, and at most the comm thread
    launched last."""

    def worker(ctx):
        x = np.arange(12, dtype=np.float32).reshape(6, 2) + ctx.rank
        for _ in range(rounds):
            ctx.all_gather_async(x).wait()
            ctx.all_reduce_async(x).wait()
            ctx.all_gather(x)
            ctx.all_reduce(x)
            ctx.barrier()
        ctx.barrier()  # nothing is sent after this: the counts are final
        return open_channels(ctx), len(ctx._comm_threads)

    results, _ = runtime(3, timeout=15).run(worker)
    assert [channels for channels, _ in results] == [0, 0, 0]
    assert all(threads <= 2 for _, threads in results)


def test_channel_drops_survive_thread_switch_stress():
    """Six ranks on a two-core box, a forced thread switch every
    microsecond, and three collectives in flight per rank at once (an async
    gather, a blocking gather, an async reduce): every message still arrives —
    a channel dropped while a peer could still send on it would lose one and
    time out — and every tagged channel is gone afterwards."""
    k = 6
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def worker(ctx):
            for step in range(60):
                x = np.full((2, 3), float(10 * step + ctx.rank), dtype=np.float32)
                pending = ctx.all_gather_async(x)
                ring = ctx.all_gather(x)
                reduced = ctx.all_reduce_async(x).wait()
                gathered = pending.wait()
                expected = np.concatenate(
                    [np.full((2, 3), float(10 * step + r), dtype=np.float32) for r in range(k)]
                )
                assert np.array_equal(ring, expected) and np.array_equal(gathered, expected)
                assert np.array_equal(reduced, np.full((2, 3), 10.0 * step * k + sum(range(k))))
            ctx.barrier()
            return open_channels(ctx)

        results, _ = ThreadedRuntime(k, timeout=20).run(worker)
    finally:
        sys.setswitchinterval(previous)
    assert results == [0] * k


def _open_fds() -> int:
    gc.collect()  # a dropped service's reply-queue pipes close when it is freed
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.exists("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("runtime", ["threaded", "process"])
def test_nothing_outlives_a_closed_service(runtime):
    """Each real-rank run is a ``RankService``: a one-command
    ``execute_distributed`` and a decode session serving two requests leave
    no thread, child process, socket or pipe behind once closed."""
    from repro.cluster.spec import ClusterSpec
    from repro.models.config import tiny_config
    from repro.models.gpt2 import GPT2Model
    from repro.systems.voltage import VoltageSystem

    model = GPT2Model(
        tiny_config(norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=2),
        rng=np.random.default_rng(3),
    )
    system = VoltageSystem(model, ClusterSpec.homogeneous(2))
    prompt = np.arange(1, 9)

    def serve_once():
        system.execute_distributed(prompt, runtime=runtime)
        system.generate_distributed(prompt, max_new_tokens=3, runtime=runtime)
        system.generate_distributed(prompt[:5], max_new_tokens=2, runtime=runtime)

    serve_once()  # first use: imports, lazily created module state
    threads, fds = {t.ident for t in threading.enumerate()}, _open_fds()
    for _ in range(3):
        serve_once()
    assert {t.ident for t in threading.enumerate()} - threads == set()
    assert multiprocessing.active_children() == []
    assert _open_fds() == fds
