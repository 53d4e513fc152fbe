"""Stress tests: randomized concurrent collective sequences on real threads.

The double-barrier slot protocol in :mod:`repro.cluster.runtime` must stay
consistent under arbitrary interleavings of slot and ring collectives.
These tests run seeded-random programs on real threads many times — racy
bugs show up as cross-rank disagreement or deadlocks (caught by the receive
timeout / barrier abort machinery).
"""

import numpy as np
import pytest

from repro.cluster.runtime import ThreadedRuntime


class TestMixedCollectiveSequences:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_collective_program(self, seed):
        """All ranks execute the same random sequence of collectives; every
        rank must see identical results at every step."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        ops = rng.choice(["gather", "reduce", "broadcast"], size=12)
        shapes = [(int(rng.integers(1, 5)), int(rng.integers(1, 8))) for _ in ops]
        runtime = ThreadedRuntime(k)

        def worker(ctx):
            digests = []
            for step, (op, shape) in enumerate(zip(ops, shapes)):
                local = np.full(shape, ctx.rank + step * 10, dtype=np.float64)
                if op == "gather":
                    out = ctx.all_gather(local)
                elif op == "reduce":
                    out = ctx.all_reduce(local)
                else:
                    payload = local if ctx.rank == step % ctx.world_size else None
                    out = ctx.broadcast(payload, root=step % ctx.world_size)
                digests.append(float(out.sum()))
            return digests

        results, stats = runtime.run(worker)
        for other in results[1:]:
            assert other == results[0]
        assert all(s.collective_calls == len(ops) for s in stats)

    def test_interleaved_ring_and_slot_collectives(self):
        """Framed ring gathers over the tagged mailboxes flowing alongside
        the slot collectives must not corrupt either path."""
        runtime = ThreadedRuntime(3)

        def worker(ctx):
            gathered = []
            for round_index in range(8):
                ring = ctx.ring_all_gather(np.full((1, 1), float(round_index + ctx.rank)))
                assert list(ring[:, 0]) == [float(round_index + r) for r in range(3)]
                gathered.append(ctx.all_gather(np.full((1, 2), ctx.rank, dtype=np.float32)))
            return np.concatenate(gathered).sum()

        results, _ = runtime.run(worker)
        assert results[0] == results[1] == results[2]

    def test_many_small_rounds_do_not_deadlock(self):
        runtime = ThreadedRuntime(4)

        def worker(ctx):
            total = 0.0
            for _ in range(100):
                total += float(ctx.all_reduce(np.ones(4)).sum())
            return total

        results, _ = runtime.run(worker)
        assert all(r == pytest.approx(100 * 16.0) for r in results)

    def test_large_world_size(self):
        runtime = ThreadedRuntime(12)

        def worker(ctx):
            out = ctx.all_gather(np.full((1,), float(ctx.rank)))
            return list(out)

        results, _ = runtime.run(worker)
        assert results[0] == [float(i) for i in range(12)]

    def test_repeated_runtime_invocations(self):
        """A fresh shared state per run: no leakage between invocations."""
        runtime = ThreadedRuntime(3)
        for invocation in range(5):
            results, _ = runtime.run(
                lambda ctx, base=invocation: float(
                    ctx.all_reduce(np.array([float(base)])).sum()
                )
            )
            assert all(r == pytest.approx(3.0 * invocation) for r in results)
