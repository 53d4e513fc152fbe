"""Tests for the process-backed runtime over loopback TCP sockets.

The contract under test: :class:`ProcessRuntime` behaves exactly like
:class:`ThreadedRuntime` — same results bit-for-bit, same collective
semantics, same fail-loudly error shapes — while every frame really crosses
a socket (so byte counters are exact integers ≥ the threaded frame counts).
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.cluster.process_runtime import (
    ProcessRuntime,
    envelope_overhead_bytes,
    resolve_runtime,
)
from repro.cluster.runtime import CommStats, RuntimeError_, ThreadedRuntime
from repro.cluster.wire import frame_overhead_bytes


def _collective_worker(ctx):
    rng = np.random.default_rng(ctx.rank)
    a = rng.standard_normal((5, 7)).astype(np.float32)
    gathered = ctx.all_gather(a)
    reduced = ctx.all_reduce(a)
    ctx.barrier()
    async_gather = ctx.all_gather_async(a).wait()
    async_reduce = ctx.all_reduce_async(a).wait()
    return gathered, reduced, async_gather, async_reduce


class TestConformance:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_bit_identical_to_threaded(self, k):
        proc_results, _ = ProcessRuntime(k, timeout=15).run(_collective_worker)
        thread_results, _ = ThreadedRuntime(k, timeout=15).run(_collective_worker)
        for rank in range(k):
            for proc_out, thread_out in zip(proc_results[rank], thread_results[rank]):
                np.testing.assert_array_equal(proc_out, thread_out)

    def test_uneven_chunks_gather(self):
        def worker(ctx):
            rows = ctx.rank + 1  # 1, 2, 3 rows
            chunk = np.full((rows, 4), float(ctx.rank), dtype=np.float32)
            return ctx.all_gather(chunk)

        results, _ = ProcessRuntime(3, timeout=15).run(worker)
        expected = np.concatenate(
            [np.full((r + 1, 4), float(r), dtype=np.float32) for r in range(3)]
        )
        for out in results:
            np.testing.assert_array_equal(out, expected)

    def test_run_spmd(self):
        def make(rank):
            return lambda ctx: ctx.all_reduce(np.full(3, rank + 1.0))

        fns = [make(r) for r in range(3)]
        results, _ = ProcessRuntime(3, timeout=15).run(lambda ctx: fns[ctx.rank](ctx))
        np.testing.assert_array_equal(results[0], np.full(3, 6.0))


class TestByteAccounting:
    def test_counters_are_exact_integers(self):
        _, stats = ProcessRuntime(3, timeout=15).run(_collective_worker)
        for s in stats:
            assert isinstance(s.bytes_sent, int)
            assert isinstance(s.bytes_received, int)
            assert s.bytes_sent > 0
            assert s.bytes_received > 0

    def test_all_gather_counts_envelope_plus_frame(self):
        payload = np.ones((4, 4), dtype=np.float32)

        def worker(ctx):
            ctx.all_gather(payload)
            return None

        _, stats = ProcessRuntime(2, timeout=15).run(worker)
        # K = 2: the ring's one hop moves each rank's chunk as one frame
        expected = (
            envelope_overhead_bytes(("ring_all_gather", 1))
            + frame_overhead_bytes(payload.ndim)
            + payload.nbytes
        )
        for s in stats:
            assert s.bytes_sent == expected
            assert s.bytes_received == expected

    def test_socket_bytes_at_least_threaded_frame_bytes(self):
        _, proc_stats = ProcessRuntime(4, timeout=15).run(_collective_worker)
        _, thread_stats = ThreadedRuntime(4, timeout=15).run(_collective_worker)
        # sockets add an envelope per frame (and real barrier traffic), so
        # every rank's socket bytes dominate its threaded accounting
        for proc, thread in zip(proc_stats, thread_stats):
            assert proc.bytes_sent >= thread.bytes_sent


class TestFailureSemantics:
    def test_worker_exception_carries_origin_rank(self):
        def worker(ctx):
            if ctx.rank == 2:
                raise ValueError("boom on rank 2")
            return ctx.all_gather(np.ones(4, dtype=np.float32))

        with pytest.raises(RuntimeError_) as excinfo:
            ProcessRuntime(4, timeout=5).run(worker)
        assert excinfo.value.rank == 2
        assert "boom on rank 2" in str(excinfo.value)

    def test_recv_timeout_fails_loudly(self):
        """Every receive is bounded by the runtime's timeout, and the error
        names the waiting rank and the peer it waited on."""
        def worker(ctx):
            if ctx.rank == 0:
                return ctx.all_gather(np.ones(4, dtype=np.float32))
            time.sleep(2.5)  # rank 1 never sends but stays alive
            return None

        with pytest.raises(RuntimeError_, match="timed out after 1.0s") as excinfo:
            ProcessRuntime(2, timeout=1.0).run(worker)
        assert excinfo.value.rank == 0
        message = str(excinfo.value)
        assert "rank 0" in message and "rank 1" in message

    def test_dead_peer_detected_fast(self):
        def worker(ctx):
            if ctx.rank == 1:
                os._exit(17)  # hard death: no exception, no report
            return ctx.all_gather(np.ones(4, dtype=np.float32))

        started = time.monotonic()
        with pytest.raises(RuntimeError_, match="exit code 17"):
            ProcessRuntime(2, timeout=30).run(worker)
        # the peer's EOF must surface in seconds, not the 30s recv timeout
        assert time.monotonic() - started < 10.0


class TestResolveRuntime:
    def test_specs(self):
        assert isinstance(resolve_runtime(None, 2), ThreadedRuntime)
        assert isinstance(resolve_runtime("threaded", 2), ThreadedRuntime)
        assert isinstance(resolve_runtime("process", 2), ProcessRuntime)
        built = ProcessRuntime(3)
        assert resolve_runtime(built, 3) is built

    def test_world_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="world_size"):
            resolve_runtime(ThreadedRuntime(2), 4)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown runtime"):
            resolve_runtime("carrier-pigeon", 2)

    def test_timeout_forwarded(self):
        assert resolve_runtime("process", 2, timeout=3.5).timeout == 3.5
        assert resolve_runtime("threaded", 2, timeout=3.5).timeout == 3.5


class TestConstruction:
    def test_rejects_bad_world_size(self):
        with pytest.raises(ValueError, match="world size"):
            ProcessRuntime(0)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            ProcessRuntime(2, timeout=0)

    def test_rejects_unknown_start_method(self, monkeypatch):
        """Ranks must be forked; a platform without fork fails loudly."""
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        with pytest.raises(ValueError, match="start method 'fork' unavailable"):
            ProcessRuntime(2)

    def test_stats_are_commstats(self):
        _, stats = ProcessRuntime(2, timeout=15).run(
            lambda ctx: ctx.all_reduce(np.ones(2))
        )
        assert all(isinstance(s, CommStats) for s in stats)
