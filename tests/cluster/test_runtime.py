"""Tests for the thread-backed real execution runtime."""

import numpy as np
import pytest

from repro.cluster.runtime import RuntimeError_, ThreadedRuntime


class TestAllGather:
    def test_concatenates_rank_chunks_in_order(self):
        runtime = ThreadedRuntime(4)

        def worker(ctx):
            chunk = np.full((2, 3), ctx.rank, dtype=np.float32)
            return ctx.all_gather(chunk)

        results, _ = runtime.run(worker)
        expected = np.repeat(np.arange(4), 2)[:, None] * np.ones((1, 3))
        for out in results:
            np.testing.assert_array_equal(out, expected)

    def test_uneven_chunks(self):
        runtime = ThreadedRuntime(3)

        def worker(ctx):
            return ctx.all_gather(np.ones((ctx.rank + 1, 2)))

        results, _ = runtime.run(worker)
        assert results[0].shape == (6, 2)

    def test_repeated_collectives_do_not_race(self):
        """Back-to-back All-Gathers reuse the slot array; the double barrier
        must prevent a fast rank from clobbering a slow rank's read."""
        runtime = ThreadedRuntime(4)

        def worker(ctx):
            out = None
            for round_index in range(20):
                chunk = np.full((1, 2), 10 * round_index + ctx.rank, dtype=np.float64)
                out = ctx.all_gather(chunk)
            return out

        results, _ = runtime.run(worker)
        expected = np.array([[190, 190], [191, 191], [192, 192], [193, 193]], dtype=float)
        for out in results:
            np.testing.assert_array_equal(out, expected)

    def test_byte_accounting_matches_ring_model(self):
        runtime = ThreadedRuntime(4)
        chunk_bytes = 2 * 3 * 8  # float64

        def worker(ctx):
            return ctx.all_gather(np.zeros((2, 3)))

        _, stats = runtime.run(worker)
        for s in stats:
            # counters are exact integers — they must agree with real socket
            # byte counts in the process runtime, so no float emulation
            assert isinstance(s.bytes_sent, int)
            assert isinstance(s.bytes_received, int)
            assert s.bytes_received == 3 * chunk_bytes
            assert s.bytes_sent == 3 * chunk_bytes
            assert s.collective_calls == 1


class TestAllReduce:
    def test_sums_across_ranks(self):
        runtime = ThreadedRuntime(3)

        def worker(ctx):
            return ctx.all_reduce(np.full((2, 2), ctx.rank + 1.0))

        results, _ = runtime.run(worker)
        for out in results:
            np.testing.assert_array_equal(out, np.full((2, 2), 6.0))

    def test_deterministic_summation_order(self):
        """All ranks must produce bit-identical results (rank-0-first order)."""
        runtime = ThreadedRuntime(4)

        def worker(ctx):
            rng = np.random.default_rng(ctx.rank)
            return ctx.all_reduce(rng.normal(size=(8, 8)).astype(np.float32))

        results, _ = runtime.run(worker)
        for out in results[1:]:
            np.testing.assert_array_equal(out, results[0])

    def test_ring_volume_accounting(self):
        runtime = ThreadedRuntime(4)
        nbytes = 4 * 4 * 8

        def worker(ctx):
            return ctx.all_reduce(np.zeros((4, 4)))

        _, stats = runtime.run(worker)
        for s in stats:
            # ring all-reduce moves 2(K-1)/K of the buffer; with 4 rows over
            # K=4 ranks the row split is exact, so assert exact integers
            assert isinstance(s.bytes_sent, int)
            assert s.bytes_sent == int(2 * 3 / 4 * nbytes)


class TestBroadcast:
    def test_root_value_delivered(self):
        runtime = ThreadedRuntime(3)

        def worker(ctx):
            payload = np.array([42.0]) if ctx.rank == 1 else None
            return ctx.broadcast(payload, root=1)

        results, _ = runtime.run(worker)
        for out in results:
            np.testing.assert_array_equal(out, [42.0])

    def test_non_root_result_is_a_private_copy(self):
        """Regression: broadcast used to hand every rank a reference to the
        root's array, so one rank mutating its "own" result corrupted the
        root's data and every peer's view of it."""
        runtime = ThreadedRuntime(3)

        def worker(ctx):
            payload = np.array([1.0, 2.0]) if ctx.rank == 0 else None
            received = ctx.broadcast(payload, root=0)
            ctx.barrier()  # everyone holds the result before anyone mutates
            if ctx.rank == 1:
                received += 100.0  # in-place mutation on a non-root rank
            ctx.barrier()
            return received

        results, _ = runtime.run(worker)
        np.testing.assert_array_equal(results[0], [1.0, 2.0])  # root untouched
        np.testing.assert_array_equal(results[1], [101.0, 102.0])
        np.testing.assert_array_equal(results[2], [1.0, 2.0])  # peer untouched

    def test_root_without_array_fails(self):
        runtime = ThreadedRuntime(2)

        def worker(ctx):
            return ctx.broadcast(None, root=0)

        with pytest.raises(RuntimeError_):
            runtime.run(worker)

    def test_accounting_split_by_role(self):
        runtime = ThreadedRuntime(3)

        def worker(ctx):
            payload = np.zeros(10) if ctx.rank == 0 else None
            return ctx.broadcast(payload, root=0)

        _, stats = runtime.run(worker)
        assert stats[0].bytes_sent == pytest.approx(2 * 80)
        assert stats[1].bytes_received == pytest.approx(80)


class TestErrorHandling:
    def test_worker_exception_propagates_with_rank(self):
        runtime = ThreadedRuntime(3)

        def worker(ctx):
            if ctx.rank == 2:
                raise ValueError("boom")
            ctx.barrier()  # would deadlock if the barrier were not aborted
            return ctx.rank

        with pytest.raises(RuntimeError_) as excinfo:
            runtime.run(worker)
        assert excinfo.value.rank == 2
        assert isinstance(excinfo.value.cause, ValueError)

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            ThreadedRuntime(0)


class TestSpmd:
    def test_distinct_functions_per_rank(self):
        fns = [lambda ctx: "a", lambda ctx: "b"]
        results, _ = ThreadedRuntime(2).run(lambda ctx: fns[ctx.rank](ctx))
        assert results == ["a", "b"]

    def test_world_size_exposed(self):
        runtime = ThreadedRuntime(3)
        results, _ = runtime.run(lambda ctx: ctx.world_size)
        assert results == [3, 3, 3]


class TestBufferReuse:
    """The collectives write into pooled per-rank receive buffers.

    Contract: a collective's result stays valid until the *second*-next call
    of the same collective on that rank (two pool generations alternate).
    """

    def test_third_all_gather_reuses_first_buffer(self):
        runtime = ThreadedRuntime(2)

        def worker(ctx):
            r1 = ctx.all_gather(np.full((2,), float(ctx.rank), dtype=np.float32))
            snap1 = r1.copy()
            r2 = ctx.all_gather(np.full((2,), 10.0 + ctx.rank, dtype=np.float32))
            first_still_valid = bool(np.array_equal(r1, snap1))
            r3 = ctx.all_gather(np.full((2,), 20.0 + ctx.rank, dtype=np.float32))
            return (
                first_still_valid,
                bool(np.shares_memory(r1, r3)),  # generation 1 recycled
                bool(np.array_equal(r2, [10.0, 10.0, 11.0, 11.0])),
                bool(np.array_equal(r3, [20.0, 20.0, 21.0, 21.0])),
            )

        results, stats = runtime.run(worker)
        for first_still_valid, recycled, r2_ok, r3_ok in results:
            assert first_still_valid and recycled and r2_ok and r3_ok
        for s in stats:
            assert s.buffers_reused == 1  # only the third call found a free buffer

    def test_all_reduce_values_and_copy_accounting(self):
        runtime = ThreadedRuntime(3)

        def worker(ctx):
            total = None
            for _ in range(4):
                total = ctx.all_reduce(np.full((8,), 1.0 + ctx.rank, dtype=np.float32))
            return total

        results, stats = runtime.run(worker)
        for out in results:
            np.testing.assert_array_equal(out, np.full((8,), 6.0, dtype=np.float32))
        for s in stats:
            assert s.buffers_reused == 2  # calls 3 and 4 recycled the pool
            assert s.bytes_copied == 4 * 8 * 4  # one output materialisation per call

    def test_broadcast_copies_stay_private_with_pooling(self):
        runtime = ThreadedRuntime(3)

        def worker(ctx):
            received = ctx.all_gather(np.zeros((1,), dtype=np.float32))  # sync only
            del received
            out = ctx.broadcast(
                np.arange(4, dtype=np.float32) if ctx.rank == 0 else None, root=0
            )
            out[0] = 100.0 + ctx.rank  # mutate own copy
            ctx.barrier()
            again = ctx.broadcast(
                np.arange(4, dtype=np.float32) if ctx.rank == 0 else None, root=0
            )
            return float(again[0]), float(out[0])

        results, stats = runtime.run(worker)
        for rank, (fresh, mutated) in enumerate(results):
            assert fresh == 0.0  # nobody saw a peer's mutation
            assert mutated == 100.0 + rank  # first result survives the second call
        for rank, s in enumerate(stats):
            if rank != 0:
                assert s.bytes_copied >= 2 * 4 * 4

    def test_aliasing_input_never_reused_as_output(self):
        """Gathering a view of a previous result must not hand back the same
        memory as the output buffer."""
        runtime = ThreadedRuntime(2)

        def worker(ctx):
            x = ctx.all_gather(np.full((2,), float(ctx.rank), dtype=np.float32))
            y = ctx.all_gather(x[ctx.rank * 2 : ctx.rank * 2 + 2])
            z = ctx.all_gather(y[ctx.rank * 2 : ctx.rank * 2 + 2])
            return bool(np.array_equal(y, z)) and bool(np.array_equal(y, [0, 0, 1, 1]))

        results, _ = runtime.run(worker)
        assert results == [True, True]

    def test_mixed_dtype_gather_still_promotes(self):
        runtime = ThreadedRuntime(2)

        def worker(ctx):
            dtype = np.float32 if ctx.rank == 0 else np.float64
            return ctx.all_gather(np.ones((2,), dtype=dtype))

        results, stats = runtime.run(worker)
        for out in results:
            assert out.dtype == np.float64
        for s in stats:
            assert s.buffers_reused == 0  # fallback path allocates
