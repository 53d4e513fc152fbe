"""A thread-backed *real* execution runtime for distributed protocols.

The latency figures come from the cost models in :mod:`repro.cluster.simulator`,
but a cost model cannot prove a protocol is *correct*.  This runtime runs the
actual distributed algorithms — Algorithm 2's compute/All-Gather loop, tensor
parallelism's shard/All-Reduce loop — on real concurrent workers exchanging
real arrays, with per-worker byte accounting that the tests reconcile against
the analytic communication volumes of Section V-C.

Workers are threads (NumPy releases the GIL inside BLAS, so this also gives
genuine parallel speed-up for large partitions, though we never rely on that
for reported numbers).

Every collective has one body, written over a per-rank transport with two
operations — ``send(dst, tag, array)`` and ``recv(src, tag, last, timeout)``
— and the same bodies run over the process runtime's sockets
(:mod:`repro.cluster.process_runtime`):

- ``all_gather`` is a ring: K-1 steps, each forwarding the chunk a rank
  last received to its right neighbour;
- ``all_reduce`` is a reduce-scatter (each row slice summed by its owner,
  in rank order) followed by the ring gather of the reduced slices;
- ``barrier`` is a token exchange through rank 0;
- ``all_gather_async`` / ``all_reduce_async`` run the same steps on a
  per-rank communication thread and return a :class:`CollectiveHandle`
  that streams chunks to the caller as they arrive — the mechanism the
  systems use to overlap next-layer compute with the in-flight gather.

The byte counters count what the transport moved: here a private copy of
each array, counted as payload bytes; on sockets the frame plus its
envelope.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import get_registry
from repro.obs.tracer import current_tracer
from repro.tensor.workspace import grow_flat

__all__ = [
    "CommStats",
    "CollectiveHandle",
    "WorkerContext",
    "ThreadedRuntime",
    "RuntimeError_",
]

#: Default seconds a blocked receive waits before failing loudly.
DEFAULT_TIMEOUT = 30.0
#: Seconds between liveness checks while a receive waits.
_POLL_INTERVAL = 0.25
#: The barrier's token: an empty message.
_TOKEN = np.empty(0, dtype=np.uint8)


class RuntimeError_(RuntimeError):
    """A worker raised; carries the originating rank."""

    def __init__(self, rank: int, cause: BaseException):
        super().__init__(f"worker {rank} failed: {cause!r}")
        self.rank = rank
        self.cause = cause


@dataclass
class CommStats:
    """Per-worker traffic counters.

    Every byte counter is an exact integer summed from what the transport
    moved: payload bytes on threads, frame plus envelope bytes on sockets.
    ``bytes_copied`` counts local bytes written into collective output
    buffers (the memory-traffic cost of materialising results), and
    ``buffers_reused`` counts collective calls that wrote into a pooled
    receive buffer instead of allocating a fresh one.
    """

    bytes_sent: int = 0
    bytes_received: int = 0
    collective_calls: int = 0
    bytes_copied: int = 0
    buffers_reused: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received


class _Transport:
    """One rank's endpoint: ``send(dst, tag, array)`` and ``recv(src, tag, last, timeout)``.

    Arriving messages wait as ``(array, bytes counted)`` in one queue per
    ``(src, tag)`` channel.  Every channel belongs to one collective and
    carries a number of messages known to both ends (one per ring step,
    scatter slice or barrier token), so the receiver marks the last one and
    the channel is dropped once it is consumed: a resident rank keeps no
    channel per collective it has ever run.  Nothing is sent on a tag after
    its last message, so the drop cannot race a sender.

    A subclass moves the messages (``send``) and says when a peer can send
    no more (``peer_closed``, ``close``); the receive path is this one.
    """

    def __init__(self, rank: int, world_size: int):
        self.rank = rank
        self.world_size = world_size
        self._queues: dict[tuple, queue.SimpleQueue] = {}
        self._queues_lock = threading.Lock()

    @staticmethod
    def _key(tag):
        """The channel key ``tag`` travels under."""
        return tag

    def _channel(self, src: int, key) -> queue.SimpleQueue:
        with self._queues_lock:
            channel = self._queues.get((src, key))
            if channel is None:
                channel = self._queues[(src, key)] = queue.SimpleQueue()
            return channel

    def recv(self, src: int, tag, last: bool, timeout: float) -> tuple[np.ndarray, int]:
        """The next array from ``src`` on ``tag`` and the bytes counted for it.

        Waits in :data:`_POLL_INTERVAL` slices, so a peer that closed
        without sending raises ``ConnectionError`` within one slice, and
        raises ``TimeoutError`` once ``timeout`` seconds pass.  ``last``:
        the channel's final message — drop the channel once it is consumed.
        """
        key = self._key(tag)
        channel = self._channel(src, key)
        deadline = time.monotonic() + timeout
        while True:
            try:
                message = channel.get(
                    timeout=min(_POLL_INTERVAL, max(deadline - time.monotonic(), 0.01))
                )
            except queue.Empty:
                if self.peer_closed(src) and channel.empty():
                    raise ConnectionError(
                        f"rank {self.rank} lost the connection to rank {src}"
                    ) from None
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"rank {self.rank} timed out after {timeout}s waiting on rank {src}"
                    ) from None
                continue
            if last:
                with self._queues_lock:
                    self._queues.pop((src, key), None)
            return message


class _ThreadTransport(_Transport):
    """Queues between the threads of one process.

    Each message is a private copy of the sent array — the sender may
    overwrite its buffer as soon as ``send`` returns — counted as its
    payload bytes.  A closed endpoint reads as closed from both sides, as
    a closed socket mesh does.
    """

    def __init__(
        self, rank: int, world_size: int, endpoints: list["_ThreadTransport"], closed: set[int]
    ):
        super().__init__(rank, world_size)
        self._endpoints = endpoints  # every rank's endpoint, indexed by rank
        self._closed = closed  # ranks whose endpoint has closed, shared

    def send(self, dst: int, tag, array: np.ndarray) -> int:
        message = np.array(array, copy=True)
        self._endpoints[dst]._channel(self.rank, tag).put((message, message.nbytes))
        return message.nbytes

    def peer_closed(self, src: int) -> bool:
        return src in self._closed or self.rank in self._closed

    def close(self) -> None:
        self._closed.add(self.rank)


class CollectiveHandle:
    """Result of a nonblocking ring collective; chunks stream in as it runs.

    Returned immediately by :meth:`WorkerContext.all_gather_async` /
    :meth:`WorkerContext.all_reduce_async` while a per-rank communication
    thread drives the ring.  The caller may:

    - poll :meth:`chunk_ready` / block on :meth:`chunk` to consume per-rank
      chunks *while later ring steps are still in flight* (this is what the
      overlapped systems do), or
    - call :meth:`wait` for the fully assembled result, identical to the
      blocking collective.

    Waits are bounded by the runtime's timeout and fail with rank/step
    context.  An un-waited handle is safe: the comm thread finishes (or
    times out) on its own and the runtime joins it before returning.
    """

    def __init__(self, op: str, ctx: "WorkerContext", axis: int = 0, ranges=None):
        self.op = op
        self._ctx = ctx
        self._axis = axis
        self._ranges = ranges  # all_reduce: (start, stop) row span per rank
        k = ctx.world_size
        self._chunks: list[np.ndarray | None] = [None] * k
        self._events = [threading.Event() for _ in range(k)]
        self._done = threading.Event()
        self._error: BaseException | None = None
        self._result: np.ndarray | None = None
        self._assemble_lock = threading.Lock()

    @property
    def world_size(self) -> int:
        return len(self._chunks)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def arrival_order(self) -> list[int]:
        """Source ranks in the order their chunks arrive here (own rank first).

        Step ``s`` of the ring delivers the chunk originating from rank
        ``(self - 1 - s) mod K``; consuming chunks in this order never
        blocks longer than one in-flight step.
        """
        rank, k = self._ctx.rank, self.world_size
        return [(rank - s) % k for s in range(k)]

    def range_of(self, src: int) -> tuple[int, int]:
        """Row span ``[start, stop)`` that rank ``src``'s chunk covers
        (reduce-scatter ownership; all_gather callers use the partition
        scheme instead)."""
        if self._ranges is None:
            raise ValueError(f"{self.op} chunks carry no row ranges")
        return self._ranges[src]

    def chunk_ready(self, src: int) -> bool:
        """True once rank ``src``'s chunk has arrived (non-blocking)."""
        return self._events[src].is_set() and self._chunks[src] is not None

    def chunk(self, src: int, timeout: float | None = None) -> np.ndarray:
        """Block until rank ``src``'s chunk arrives and return it."""
        limit = self._ctx._timeout if timeout is None else timeout
        if not self._events[src].wait(limit):
            raise RuntimeError_(
                self._ctx.rank,
                TimeoutError(
                    f"rank {self._ctx.rank} timed out after {limit}s waiting for "
                    f"the {self.op} chunk from rank {src}"
                ),
            )
        if self._chunks[src] is None:
            raise self._error  # comm thread failed before delivering this chunk
        return self._chunks[src]

    def wait(self, timeout: float | None = None) -> np.ndarray:
        """Block until the collective completes; return the assembled result."""
        limit = self._ctx._timeout if timeout is None else timeout
        if not self._done.wait(limit):
            raise RuntimeError_(
                self._ctx.rank,
                TimeoutError(
                    f"rank {self._ctx.rank} timed out after {limit}s waiting for "
                    f"{self.op} to complete"
                ),
            )
        if self._error is not None:
            raise self._error
        with self._assemble_lock:
            if self._result is None:
                # assembly is lazy and happens on the *waiter's* thread — a
                # caller that consumed every chunk via chunk() never pays it
                self._result = np.concatenate(self._chunks, axis=self._axis)
                self._ctx._add_stats(bytes_copied=self._result.nbytes)
        return self._result

    # -- comm-thread side ------------------------------------------------------

    def _deliver(self, src: int, payload: np.ndarray) -> None:
        self._chunks[src] = payload
        self._events[src].set()

    def _finish(self) -> None:
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        for event in self._events:
            event.set()  # wake chunk() waiters; undelivered slots raise
        self._done.set()


class WorkerContext:
    """The communication handle passed to each worker function.

    ``transport`` is the rank's endpoint (:class:`_Transport`); every
    collective below is written once over its ``send`` / ``recv``.
    """

    def __init__(self, rank: int, transport: _Transport, timeout: float = DEFAULT_TIMEOUT):
        self.rank = rank
        self._transport = transport
        self._timeout = timeout
        self.stats = CommStats()
        self._collective_sequence = 0
        self._barrier_sequence = 0
        # counters are mutated by the main worker thread *and* by async comm
        # threads; a lock keeps the accounting exact
        self._stats_lock = threading.Lock()
        self._comm_threads: list[threading.Thread] = []
        self._comm_errors: list[RuntimeError_] = []
        # Per-rank receive-buffer pool, two generations of flat storage per
        # (op, dtype) whatever shapes the op returns: a collective's result
        # stays valid until the *second*-next call of the same collective on
        # this rank (the generations alternate), so the per-layer loops of
        # Voltage / tensor parallelism and a resident decode rank's growing
        # K/V gathers stop allocating once the generations are big enough.
        self._buffers: dict[tuple, list[np.ndarray]] = {}

    def _add_stats(self, **deltas) -> None:
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    def _recv_buffer(
        self, op: str, shape: tuple[int, ...], dtype, inputs: Sequence[np.ndarray]
    ) -> np.ndarray:
        """A pooled ``shape`` output view that aliases none of ``inputs``.

        The pool is per-rank (results stay private) and holds two
        generations of flat storage per ``(op, dtype)``.  The first two
        calls of an op allocate one each; every later call takes the least
        recently used generation and hands back a shaped view of it, so the
        previous result survives this call.  That generation is replaced by
        a fresh one when it holds one of ``inputs`` (gathering a view of the
        older result), and grown by :func:`~repro.tensor.workspace.grow_flat`
        when it is too small.  A rank therefore holds at most ``2 × GROWTH ×``
        the largest result of each op, whatever sequence of shapes it has
        gathered.
        """
        dtype = np.dtype(dtype)
        needed = math.prod(shape)
        pool = self._buffers.setdefault((op, dtype), [])  # least recently used first
        held = pool.pop(0) if len(pool) == 2 else None
        if held is not None and any(np.shares_memory(held, arr) for arr in inputs):
            held = None
        flat = grow_flat(held, needed, dtype)
        if flat is held:
            self._add_stats(buffers_reused=1)
        pool.append(flat)
        return flat[:needed].reshape(shape)

    def _pooled_concatenate(
        self, op: str, parts: Sequence[np.ndarray], axis: int
    ) -> np.ndarray:
        """``np.concatenate(parts, axis)`` written into ``op``'s pooled
        receive buffer; mixed dtypes fall back to the promoting, allocating
        concatenate."""
        if len({p.dtype for p in parts}) != 1:
            return np.concatenate(parts, axis=axis)
        shape = list(parts[0].shape)
        shape[axis] = sum(p.shape[axis] for p in parts)
        out = self._recv_buffer(op, tuple(shape), parts[0].dtype, parts)
        return np.concatenate(parts, axis=axis, out=out)

    @property
    def world_size(self) -> int:
        return self._transport.world_size

    @property
    def timeout(self) -> float:
        """Seconds a blocked receive / handle wait allows before failing."""
        return self._timeout

    def _span(self, name: str, kind: str = "comm"):
        """Wall-clock trace span on this rank's track (no-op if untraced)."""
        return current_tracer().span(
            name, cat="runtime", kind=kind, track=f"rank {self.rank}", device=self.rank
        )

    # -- the wire ----------------------------------------------------------------

    def _collective_tag(self, op: str) -> tuple:
        """A channel tag all ranks agree on by SPMD program order.

        Tags ride in every socket envelope, so their names and numbering
        are part of the process runtime's exact byte counts.
        """
        self._collective_sequence += 1
        return (op, self._collective_sequence)

    def _send(self, dst: int, tag, array: np.ndarray) -> int:
        sent = self._transport.send(dst, tag, array)
        self._add_stats(bytes_sent=sent)
        return sent

    def _recv(self, src: int, tag, context: str, last: bool = True) -> np.ndarray:
        try:
            array, received = self._transport.recv(src, tag, last, self._timeout)
        except (ConnectionError, TimeoutError) as exc:
            raise RuntimeError_(self.rank, type(exc)(f"{exc} {context}")) from None
        self._add_stats(bytes_received=received)
        return array

    def _ring_steps(self, array: np.ndarray, tag, op: str, on_chunk) -> int:
        """Run the K-1 ring steps; call ``on_chunk(src, chunk)`` as chunks land.

        Step ``s``: send the chunk currently held to rank ``(self+1) mod K``,
        receive from ``(self-1) mod K`` the chunk originating at rank
        ``(self-1-s) mod K``.  Sends never block, so send-then-recv cannot
        deadlock; a missing peer surfaces as a loud per-step error.  Returns
        the bytes sent.
        """
        k = self.world_size
        on_chunk(self.rank, array)
        right, left = (self.rank + 1) % k, (self.rank - 1) % k
        current, sent = array, 0
        for step in range(k - 1):
            sent += self._send(right, tag, current)
            src = (self.rank - 1 - step) % k
            current = self._recv(
                left, tag,
                f"in {op} ring step {step + 1}/{k - 1} (chunk from rank {src})",
                last=step == k - 2,
            )
            on_chunk(src, current)
        return sent

    def _reduce_plan(self, array: np.ndarray) -> tuple[list[tuple[int, int]], tuple]:
        """Each rank's ``[start, stop)`` row slice of ``array`` (``divmod``
        split, low ranks one row longer) and the collective's tag."""
        k = self.world_size
        base, extra = divmod(array.shape[0], k)
        ranges, start = [], 0
        for j in range(k):
            width = base + (1 if j < extra else 0)
            ranges.append((start, start + width))
            start += width
        return ranges, self._collective_tag("all_reduce_async")

    def _reduce_scatter(self, array: np.ndarray, ranges, tag) -> tuple[np.ndarray, int]:
        """Hand row slice ``j`` straight to rank ``j``; return this rank's
        slice summed over the ranks **in rank order** (the deterministic
        elementwise order every rank shares) and the bytes sent."""
        k, sent = self.world_size, 0
        for j in range(k):
            if j != self.rank:
                lo, hi = ranges[j]
                sent += self._send(j, tag, array[lo:hi])
        lo, hi = ranges[self.rank]
        parts = [
            array[lo:hi] if src == self.rank
            else self._recv(src, tag, f"in all-reduce scatter (slice from rank {src})")
            for src in range(k)
        ]
        acc = np.array(parts[0], copy=True)
        if len({p.dtype for p in parts}) == 1:
            for part in parts[1:]:
                np.add(acc, part, out=acc)
        else:  # mixed dtypes: promoting accumulate, same rank order
            for part in parts[1:]:
                acc = acc + part
        return acc, sent

    # -- collectives ---------------------------------------------------------

    def barrier(self) -> None:
        """Rank 0 takes a token from every rank, then releases every rank."""
        k = self.world_size
        if k == 1:
            return
        self._barrier_sequence += 1
        tag = ("barrier", self._barrier_sequence)
        if self.rank == 0:
            for src in range(1, k):
                self._recv(src, tag, f"in barrier, waiting on rank {src}")
            for dst in range(1, k):
                self._send(dst, tag, _TOKEN)
        else:
            self._send(0, tag, _TOKEN)
            self._recv(0, tag, "in barrier, waiting on rank 0 release")

    def all_gather(self, array: np.ndarray, axis: int = 0) -> np.ndarray:
        """Every rank contributes a chunk; every rank gets the concatenation,
        chunks in rank order (uneven sizes included).

        A ring: each rank sends ``total − its right neighbour's chunk`` —
        ``(K-1)/K`` of the tensor for even chunks, the paper's Voltage
        per-layer volume.  The result lands in the rank's pooled
        ``all_gather`` buffer.
        """
        chunks: list[np.ndarray | None] = [None] * self.world_size
        tag = self._collective_tag("ring_all_gather")
        with self._span("all_gather") as span:
            sent = self._ring_steps(array, tag, "all-gather", chunks.__setitem__)
            result = self._pooled_concatenate("all_gather", chunks, axis)
            self._add_stats(collective_calls=1, bytes_copied=result.nbytes)
            span.set(nbytes=sent)
        return result

    ring_all_gather = all_gather

    def all_reduce(self, array: np.ndarray) -> np.ndarray:
        """Element-wise sum across ranks, everyone receives the result.

        Reduce-scatter then ring gather of the reduced slices: ``2(K-1)/K``
        of the tensor per direction per rank — two of these per layer is
        tensor parallelism's Section V-C volume.  Every rank sums each
        element's partials in rank order, so all ranks agree bit for bit.
        The result lands in the rank's pooled ``all_reduce`` buffer.
        """
        rows = array.reshape(1) if array.ndim == 0 else array
        ranges, tag = self._reduce_plan(rows)
        chunks: list[np.ndarray | None] = [None] * self.world_size
        with self._span("all_reduce") as span:
            acc, sent = self._reduce_scatter(rows, ranges, (tag, "rs"))
            sent += self._ring_steps(acc, (tag, "ag"), "all-reduce gather", chunks.__setitem__)
            result = self._pooled_concatenate("all_reduce", chunks, 0)
            self._add_stats(collective_calls=1, bytes_copied=result.nbytes)
            span.set(nbytes=sent)
        return result.reshape(array.shape)

    def all_gather_async(self, array: np.ndarray, axis: int = 0) -> CollectiveHandle:
        """Nonblocking ring all-gather; returns a :class:`CollectiveHandle`.

        A per-rank comm thread drives the K-1 ring steps and delivers each
        chunk to the handle as it arrives, so the calling thread can run
        position-wise compute on already-arrived chunks while the rest of the
        ring is still in flight.  ``handle.wait()`` is bit-identical to
        :meth:`all_gather`.
        """
        tag = self._collective_tag("all_gather_async")
        handle = CollectiveHandle("all_gather_async", self, axis=axis)
        self._add_stats(collective_calls=1)

        def steps(span) -> None:
            span.set(nbytes=self._ring_steps(array, tag, "async all-gather", handle._deliver))

        self._launch_comm_thread("all_gather_async", steps, handle, tag)
        return handle

    def all_reduce_async(self, array: np.ndarray) -> CollectiveHandle:
        """Nonblocking :meth:`all_reduce`: the same reduce-scatter and ring
        gather on a comm thread; ``handle.wait()`` is bit-identical to it.

        ``handle.chunk(src)`` / ``handle.range_of(src)`` expose reduced row
        slices as they arrive, for streaming position-wise epilogues.
        """
        if array.ndim < 1:
            raise ValueError("all_reduce_async needs at least a 1-D array")
        ranges, tag = self._reduce_plan(array)
        handle = CollectiveHandle("all_reduce_async", self, axis=0, ranges=ranges)
        self._add_stats(collective_calls=1)

        def steps(span) -> None:
            acc, sent = self._reduce_scatter(array, ranges, (tag, "rs"))
            self._add_stats(bytes_copied=acc.nbytes)
            sent += self._ring_steps(acc, (tag, "ag"), "async all-reduce gather", handle._deliver)
            span.set(nbytes=sent)

        self._launch_comm_thread("all_reduce_async", steps, handle, tag)
        return handle

    def _launch_comm_thread(
        self, op: str, steps: Callable, handle: CollectiveHandle, tag
    ) -> None:
        """Run ``steps(span)`` inside a comm-track span on a comm thread (inline
        without peers), finishing ``handle`` or failing it with the error."""

        def pump() -> None:
            try:
                with current_tracer().span(
                    op, cat="runtime", kind="comm",
                    track=f"rank {self.rank} comm", device=self.rank,
                ) as span:
                    steps(span)
                handle._finish()
            except BaseException as exc:  # noqa: BLE001 - surfaced via the handle
                wrapped = exc if isinstance(exc, RuntimeError_) else RuntimeError_(self.rank, exc)
                self._comm_errors.append(wrapped)
                handle._fail(wrapped)

        if self.world_size == 1:
            pump()  # no peers: the collective completes inline
            return
        thread = threading.Thread(
            target=pump, name=f"comm-{self.rank}-{tag[0]}-{tag[1]}", daemon=True
        )
        # a finished comm thread needs no join (its errors are already in
        # _comm_errors), so a resident rank keeps only the live ones
        self._comm_threads = [t for t in self._comm_threads if t.is_alive()]
        self._comm_threads.append(thread)
        thread.start()

    def _join_comm_threads(self) -> None:
        """Join every spawned comm thread (each blocks at most ``timeout``
        per ring step, so this terminates even after peer failures)."""
        for thread in self._comm_threads:
            thread.join()


class ThreadedRuntime:
    """Run one worker function per rank on real threads and collect results.

    ``timeout`` bounds every blocking receive — each step of every
    collective and ``CollectiveHandle`` waits — so a hung peer fails loudly
    with rank/step context instead of stalling the whole run.
    """

    def __init__(self, world_size: int, timeout: float = DEFAULT_TIMEOUT):
        if world_size < 1:
            raise ValueError(f"world size must be >= 1, got {world_size}")
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
        self.world_size = world_size
        self.timeout = timeout

    def run(
        self, worker_fn: Callable[[WorkerContext], object]
    ) -> tuple[list[object], list[CommStats]]:
        """Execute ``worker_fn(ctx)`` on every rank; returns (results, stats).

        If any worker raises, the first failure is re-raised as
        :class:`RuntimeError_` after all threads have been joined.  A rank
        closes its endpoint when it ends, so a peer blocked on a failed
        rank raises within one poll slice.  Comm threads of async
        collectives — including un-waited handles — are joined before
        returning; a comm-thread failure the worker never observed is
        re-raised here so ring errors cannot vanish silently.
        """
        k = self.world_size
        endpoints: list[_ThreadTransport] = []
        closed: set[int] = set()
        endpoints.extend(_ThreadTransport(rank, k, endpoints, closed) for rank in range(k))
        results: list[object] = [None] * self.world_size
        stats: list[CommStats] = [CommStats() for _ in range(self.world_size)]
        errors: list[RuntimeError_] = []
        error_lock = threading.Lock()

        def runner(rank: int) -> None:
            ctx = WorkerContext(rank, endpoints[rank], timeout=self.timeout)
            try:
                with current_tracer().span(
                    "worker", cat="runtime", kind="request",
                    track=f"rank {rank}", device=rank,
                ):
                    results[rank] = worker_fn(ctx)
                ctx._join_comm_threads()
                if ctx._comm_errors:
                    raise ctx._comm_errors[0]
                stats[rank] = ctx.stats
            except BaseException as exc:  # noqa: BLE001 - propagate to caller
                wrapped = exc if isinstance(exc, RuntimeError_) else RuntimeError_(rank, exc)
                with error_lock:
                    errors.append(wrapped)
            finally:
                endpoints[rank].close()
                ctx._join_comm_threads()  # a closed endpoint releases them within a slice

        threads = [
            threading.Thread(target=runner, args=(rank,), name=f"worker-{rank}")
            for rank in range(self.world_size)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        self._record_metrics(stats)
        return results, stats

    @staticmethod
    def _record_metrics(stats: Sequence[CommStats]) -> None:
        """Fold per-worker CommStats into the process-wide metrics registry."""
        registry = get_registry()
        registry.counter("runtime.runs_total").inc()
        registry.counter("runtime.bytes_sent").inc(sum(s.bytes_sent for s in stats))
        registry.counter("runtime.bytes_received").inc(
            sum(s.bytes_received for s in stats)
        )
        registry.counter("runtime.collective_calls").inc(
            sum(s.collective_calls for s in stats)
        )
        registry.counter("runtime.bytes_copied").inc(sum(s.bytes_copied for s in stats))
        registry.counter("runtime.buffers_reused").inc(
            sum(s.buffers_reused for s in stats)
        )
        per_worker = registry.histogram("runtime.worker_total_bytes")
        for s in stats:
            per_worker.observe(s.total_bytes)
