"""Tests for the true ring collectives and nonblocking CollectiveHandle path."""

import time

import numpy as np
import pytest

from repro.cluster.process_runtime import ProcessRuntime, envelope_overhead_bytes
from repro.cluster.runtime import RuntimeError_, ThreadedRuntime
from repro.cluster.wire import frame_overhead_bytes


class TestRingAllGather:
    @pytest.mark.parametrize("world_size", [1, 2, 3, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int8])
    def test_bit_identical_to_slot_collective(self, world_size, dtype):
        """The ring all-gather returns what the retired slot collective did —
        every rank's chunk concatenated in rank order — byte-for-byte,
        uneven chunks included (rank r contributes r+1 rows)."""
        runtime = ThreadedRuntime(world_size)

        def chunk_of(rank):
            rng = np.random.default_rng(100 + rank)
            return (rng.normal(size=(rank + 1, 3)) * 10).astype(dtype)

        results, _ = runtime.run(lambda ctx: ctx.all_gather(chunk_of(ctx.rank)))
        expected = np.concatenate([chunk_of(rank) for rank in range(world_size)])
        for gathered in results:
            assert gathered.dtype == expected.dtype
            np.testing.assert_array_equal(gathered, expected)

    def test_counts_executed_wire_traffic(self):
        """Every chunk flows K-1 hops, so sent bytes are (K-1) chunks — the
        payload bytes the thread transport moved."""
        runtime = ThreadedRuntime(3)
        chunk = np.zeros((2, 4), dtype=np.float32)

        def worker(ctx):
            return ctx.all_gather(np.zeros((2, 4), dtype=np.float32))

        _, stats = runtime.run(worker)
        for s in stats:
            assert s.bytes_sent == 2 * chunk.nbytes
            assert s.bytes_received == 2 * chunk.nbytes
            assert s.collective_calls == 1

    def test_counts_socket_frames_on_processes(self):
        """The same gather over sockets: every hop is one frame plus its
        envelope."""
        chunk = np.zeros((2, 4), dtype=np.float32)
        hop = (
            envelope_overhead_bytes(("ring_all_gather", 1))
            + frame_overhead_bytes(chunk.ndim)
            + chunk.nbytes
        )

        _, stats = ProcessRuntime(3, timeout=15).run(lambda ctx: ctx.all_gather(chunk))
        for s in stats:
            assert s.bytes_sent == 2 * hop
            assert s.bytes_received == 2 * hop
            assert s.collective_calls == 1


class TestAllGatherAsync:
    def test_wait_matches_blocking_all_gather(self):
        runtime = ThreadedRuntime(4)

        def worker(ctx):
            chunk = np.full((ctx.rank + 1, 2), float(ctx.rank), dtype=np.float64)
            handle = ctx.all_gather_async(chunk)
            return handle.wait(), ctx.all_gather(chunk)

        results, _ = runtime.run(worker)
        for streamed, blocking in results:
            np.testing.assert_array_equal(streamed, blocking)

    def test_chunks_stream_in_arrival_order(self):
        """chunk(src) yields each rank's exact contribution; own chunk is
        ready immediately and arrival_order starts with self."""
        runtime = ThreadedRuntime(3)

        def worker(ctx):
            chunk = np.full((2, 2), float(ctx.rank), dtype=np.float32)
            handle = ctx.all_gather_async(chunk)
            assert handle.arrival_order()[0] == ctx.rank
            assert handle.chunk_ready(ctx.rank)
            seen = {}
            for src in handle.arrival_order():
                seen[src] = handle.chunk(src)
            return seen

        results, _ = runtime.run(worker)
        for seen in results:
            assert sorted(seen) == [0, 1, 2]
            for src, chunk in seen.items():
                np.testing.assert_array_equal(chunk, np.full((2, 2), float(src)))

    def test_unwaited_handle_joins_cleanly(self):
        """Deadlock regression: a worker that never calls wait() must not
        hang ThreadedRuntime.run — comm threads are joined on exit."""
        runtime = ThreadedRuntime(4, timeout=5.0)

        def worker(ctx):
            ctx.all_gather_async(np.ones((1, 2), dtype=np.float32))
            return ctx.rank  # handle dropped un-waited

        results, _ = runtime.run(worker)
        assert results == [0, 1, 2, 3]

    def test_swallowed_comm_error_still_fails_the_run(self):
        """A ring failure the worker never observes is re-raised by run()."""
        runtime = ThreadedRuntime(2, timeout=0.2)

        def gatherer(ctx):
            handle = ctx.all_gather_async(np.ones((2, 2), dtype=np.float32))
            try:
                handle.wait()
            except RuntimeError_:
                return "swallowed"
            return "no error"

        def deserter(ctx):
            return None  # never joins the collective

        with pytest.raises(RuntimeError_):
            runtime.run(lambda ctx: [gatherer, deserter][ctx.rank](ctx))


class TestRingTimeout:
    def test_hung_ring_step_fails_loudly_with_context(self):
        """A live peer that never sends surfaces as a per-step timeout naming
        the waiting rank and the ring step, not a silent stall.  (A peer
        that returns closes its endpoint and fails the receive at once.)"""
        runtime = ThreadedRuntime(2, timeout=0.2)

        def gatherer(ctx):
            return ctx.all_gather(np.ones((2, 2), dtype=np.float32))

        def deserter(ctx):
            time.sleep(0.6)  # alive past the receive timeout, never sends

        with pytest.raises(RuntimeError_) as excinfo:
            runtime.run(lambda ctx: [gatherer, deserter][ctx.rank](ctx))
        message = str(excinfo.value.cause)
        assert isinstance(excinfo.value.cause, TimeoutError)
        assert "timed out after 0.2s" in message
        assert "rank 0" in message
        assert "ring step 1/1" in message
        assert "rank 1" in message

    def test_timeout_knob_is_validated(self):
        with pytest.raises(ValueError):
            ThreadedRuntime(2, timeout=0.0)
        with pytest.raises(ValueError):
            ThreadedRuntime(2, timeout=-1.0)


class TestAllReduceAsync:
    @pytest.mark.parametrize("world_size", [1, 2, 3, 4])
    def test_bit_identical_to_blocking_all_reduce(self, world_size):
        runtime = ThreadedRuntime(world_size)

        def worker(ctx):
            rng = np.random.default_rng(ctx.rank)
            array = rng.normal(size=(7, 5)).astype(np.float32)
            return ctx.all_reduce_async(array).wait(), ctx.all_reduce(array)

        results, _ = runtime.run(worker)
        for streamed, blocking in results:
            np.testing.assert_array_equal(streamed, blocking)

    def test_fewer_rows_than_ranks(self):
        """n < K leaves some owners with empty slices; the result must still
        match the blocking reduction exactly."""
        runtime = ThreadedRuntime(4)

        def worker(ctx):
            array = np.full((2, 3), float(ctx.rank + 1), dtype=np.float64)
            return ctx.all_reduce_async(array).wait(), ctx.all_reduce(array)

        results, _ = runtime.run(worker)
        for streamed, blocking in results:
            assert streamed.shape == (2, 3)
            np.testing.assert_array_equal(streamed, blocking)

    def test_streamed_slices_cover_the_rows(self):
        runtime = ThreadedRuntime(3)

        def worker(ctx):
            array = np.arange(8 * 2, dtype=np.float32).reshape(8, 2)
            handle = ctx.all_reduce_async(array)
            out = np.empty_like(array)
            for src in handle.arrival_order():
                lo, hi = handle.range_of(src)
                if hi > lo:
                    out[lo:hi] = handle.chunk(src)
            return out

        results, _ = runtime.run(worker)
        expected = 3 * np.arange(8 * 2, dtype=np.float32).reshape(8, 2)
        for out in results:
            np.testing.assert_array_equal(out, expected)

    def test_ring_volume_is_two_k_minus_one_over_k(self):
        """Per rank, executed payload volume is 2(K-1)S/K each direction
        (reduce-scatter + all-gather): the thread transport counts payload."""
        k, rows, cols = 4, 8, 4
        runtime = ThreadedRuntime(k)
        payload = 2 * (k - 1) * rows * cols * 4 // k

        def worker(ctx):
            return ctx.all_reduce_async(np.zeros((rows, cols), dtype=np.float32)).wait()

        _, stats = runtime.run(worker)
        for s in stats:
            assert s.bytes_sent == payload
            assert s.bytes_received == payload

    def test_socket_volume_adds_a_frame_and_envelope_per_hop(self):
        """The same reduction over sockets: the 2(K-1)S/K payload plus, on
        each of the 2(K-1) hops, a frame header and an envelope (the scatter
        and gather tags have equal length)."""
        k, rows, cols = 4, 8, 4
        payload = 2 * (k - 1) * rows * cols * 4 // k
        overhead = frame_overhead_bytes(2) + envelope_overhead_bytes((("all_reduce_async", 1), "rs"))

        def worker(ctx):
            return ctx.all_reduce_async(np.zeros((rows, cols), dtype=np.float32)).wait()

        _, stats = ProcessRuntime(k, timeout=15).run(worker)
        for s in stats:
            assert s.bytes_sent == payload + 2 * (k - 1) * overhead
            assert s.bytes_received == payload + 2 * (k - 1) * overhead


class TestMixedDtypeFallbackAccounting:
    def test_all_gather_promoting_fallback_counts_bytes_copied(self):
        runtime = ThreadedRuntime(2)

        def worker(ctx):
            dtype = np.float32 if ctx.rank == 0 else np.float16
            out = ctx.all_gather(np.ones((2, 2), dtype=dtype))
            return out

        results, stats = runtime.run(worker)
        assert results[0].dtype == np.float32  # promoted
        for s in stats:
            assert s.bytes_copied >= results[0].nbytes

    def test_all_reduce_promoting_fallback_counts_bytes_copied(self):
        runtime = ThreadedRuntime(2)

        def worker(ctx):
            dtype = np.float32 if ctx.rank == 0 else np.float16
            return ctx.all_reduce(np.ones((2, 2), dtype=dtype))

        results, stats = runtime.run(worker)
        np.testing.assert_array_equal(results[0], np.full((2, 2), 2.0))
        for s in stats:
            assert s.bytes_copied >= results[0].nbytes
