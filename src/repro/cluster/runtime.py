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

Two families of collectives coexist:

- the original **slot-and-barrier** collectives (``all_gather`` and
  ``all_reduce``), which exchange references through shared slots and
  *account* ring-equivalent byte volumes;
- **ring** collectives (``ring_all_gather``, ``all_gather_async``,
  ``all_reduce_async``), which actually move framed chunks rank-to-rank over
  tagged channels in K-1 steps, so the byte counters measure *executed*
  ring traffic (payload plus framing overhead).  The async variants return a
  :class:`CollectiveHandle` backed by a per-rank communication thread and
  stream chunks to the caller as they arrive — the mechanism the systems use
  to overlap next-layer compute with the in-flight gather.
"""

from __future__ import annotations

import math
import queue
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

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

#: Wire frame kind stamped on every collective frame.
_RING_FRAME_KIND = 1

#: Default seconds a blocked receive waits before failing loudly.
DEFAULT_TIMEOUT = 30.0


class RuntimeError_(RuntimeError):
    """A worker raised; carries the originating rank."""

    def __init__(self, rank: int, cause: BaseException):
        super().__init__(f"worker {rank} failed: {cause!r}")
        self.rank = rank
        self.cause = cause


def _reduce_slice_bytes(array: np.ndarray, k: int) -> list[int]:
    """Exact byte size of each rank's reduce-scatter slice of ``array``.

    Mirrors :meth:`WorkerContext.all_reduce_async`'s ``divmod`` row split so
    the emulated accounting of the blocking ``all_reduce`` equals the bytes
    the executed ring actually moves — integers, even when ``k`` does not
    divide the leading dimension.  0-d / zero-row arrays fall back to an
    even byte split (the ring degenerates; only the total matters).
    """
    nbytes = int(array.nbytes)
    if k <= 1:
        return [nbytes]
    if array.ndim == 0 or array.shape[0] == 0:
        base, extra = divmod(nbytes, k)
        return [base + (1 if j < extra else 0) for j in range(k)]
    rows = array.shape[0]
    row_bytes = nbytes // rows
    base, extra = divmod(rows, k)
    return [(base + (1 if j < extra else 0)) * row_bytes for j in range(k)]


@dataclass
class CommStats:
    """Per-worker traffic counters (ring-equivalent volumes for collectives).

    Every byte counter is an exact integer: the process runtime measures the
    integer bytes that really cross a socket, and the emulated ring volumes
    must not drift from those by float rounding (uneven splits used to push
    ``2(K-1)·nbytes/K`` floats in here).  ``bytes_copied`` counts local bytes
    written into collective output buffers (the memory-traffic cost of
    materialising results), and ``buffers_reused`` counts collective calls
    that wrote into a pooled receive buffer instead of allocating a fresh
    one.
    """

    bytes_sent: int = 0
    bytes_received: int = 0
    collective_calls: int = 0
    bytes_copied: int = 0
    buffers_reused: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received


@dataclass
class _SharedState:
    """State shared by all workers of one runtime invocation."""

    world_size: int
    barrier: threading.Barrier = None  # type: ignore[assignment]
    slots: list = field(default_factory=list)
    mailboxes: dict = field(default_factory=dict)
    mailbox_lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        self.barrier = threading.Barrier(self.world_size)
        self.slots = [None] * self.world_size

    def mailbox(self, src: int, dst: int, tag) -> "queue.Queue":
        """FIFO channel from ``src`` to ``dst``.

        ``tag`` separates concurrent conversations: each collective gets its
        own tagged channels so an async gather's comm thread can never
        consume a frame meant for another in-flight collective.
        """
        with self.mailbox_lock:
            key = (src, dst, tag)
            if key not in self.mailboxes:
                self.mailboxes[key] = queue.Queue()
            return self.mailboxes[key]

    def drop_mailbox(self, src: int, dst: int, tag) -> None:
        """Forget a tagged channel whose last frame has been consumed."""
        with self.mailbox_lock:
            self.mailboxes.pop((src, dst, tag), None)


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
    """The communication handle passed to each worker function."""

    def __init__(self, rank: int, shared: _SharedState, timeout: float = DEFAULT_TIMEOUT):
        self.rank = rank
        self._shared = shared
        self._timeout = timeout
        self.stats = CommStats()
        self._collective_sequence = 0
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
        return self._shared.world_size

    @property
    def timeout(self) -> float:
        """Seconds a blocked receive / handle wait allows before failing."""
        return self._timeout

    def barrier(self) -> None:
        self._shared.barrier.wait()

    def _span(self, name: str, kind: str = "comm"):
        """Wall-clock trace span on this rank's track (no-op if untraced)."""
        return current_tracer().span(
            name, cat="runtime", kind=kind, track=f"rank {self.rank}", device=self.rank
        )

    # -- collectives ---------------------------------------------------------

    def all_gather(self, array: np.ndarray, axis: int = 0) -> np.ndarray:
        """Every rank contributes a chunk; every rank gets the concatenation.

        Byte accounting follows the ring algorithm: each rank sends and
        receives ``total - own`` bytes — ``(K-1)/K`` of the tensor for even
        chunks, the paper's Voltage per-layer volume.
        """
        shared = self._shared
        with self._span("all_gather") as span:
            shared.slots[self.rank] = array
            shared.barrier.wait()
            parts = list(shared.slots)
            result = self._pooled_concatenate("all_gather", parts, axis)
            shared.barrier.wait()  # nobody may overwrite slots until all have read
            total = sum(p.nbytes for p in parts)
            self._add_stats(
                bytes_sent=total - array.nbytes,
                bytes_received=total - array.nbytes,
                collective_calls=1,
                # both branches materialise the full result locally; the
                # promoting fallback used to skip this counter
                bytes_copied=result.nbytes,
            )
            span.set(nbytes=total - array.nbytes)
        return result

    def all_reduce(self, array: np.ndarray) -> np.ndarray:
        """Element-wise sum across ranks, everyone receives the result.

        Ring accounting: ``2(K-1)/K`` of the tensor per direction per rank —
        two of these per layer is tensor parallelism's Section V-C volume.
        """
        shared = self._shared
        with self._span("all_reduce") as span:
            shared.slots[self.rank] = array
            shared.barrier.wait()
            arrays = list(shared.slots)
            dtypes = {a.dtype for a in arrays}
            if len(dtypes) == 1:
                # accumulate into a pooled buffer, rank-0 first — the same
                # deterministic summation order as the allocating path
                out = self._recv_buffer("all_reduce", arrays[0].shape, arrays[0].dtype, arrays)
                np.copyto(out, arrays[0])
                for arr in arrays[1:]:
                    np.add(out, arr, out=out)
            else:  # mixed dtypes: keep the promoting accumulate semantics
                out = np.array(arrays[0], copy=True)
                for arr in arrays[1:]:
                    out = out + arr
            shared.barrier.wait()
            k = self.world_size
            if k > 1:
                # exact executed-ring volume (reduce-scatter + all-gather of
                # the divmod row slices), not the float 2(K-1)·nbytes/K
                slices = _reduce_slice_bytes(array, k)
                total = sum(slices)
                sent = (total - slices[self.rank]) + (total - slices[(self.rank + 1) % k])
                received = (k - 1) * slices[self.rank] + (total - slices[self.rank])
            else:
                sent = received = 0
            self._add_stats(
                bytes_sent=sent,
                bytes_received=received,
                collective_calls=1,
                # counted on both branches (the fallback used to skip it)
                bytes_copied=out.nbytes,
            )
            span.set(nbytes=sent)
        return out

    # -- ring collectives ------------------------------------------------------
    #
    # Unlike the slot-based collectives above, these actually move framed
    # chunks rank-to-rank in K-1 steps over the tagged mailbox channels, so
    # ``bytes_sent`` / ``bytes_received`` count executed wire traffic
    # (payload + frame header per hop) rather than an emulated volume.

    def _collective_tag(self, op: str) -> tuple:
        """A channel tag all ranks agree on by SPMD program order."""
        self._collective_sequence += 1
        return (op, self._collective_sequence)

    # -- frame transport hooks -------------------------------------------------
    #
    # Every byte that "crosses the wire" goes through these two methods.  The
    # thread backend moves encoded frames through tagged in-process mailboxes;
    # the process backend (repro.cluster.process_runtime) overrides them to
    # move the same frames over loopback TCP sockets.  The returned byte
    # counts are what lands in CommStats — for threads the frame length, for
    # sockets the frame plus its envelope.
    #
    # Every channel is tagged and carries a fixed number of frames known to
    # both ends (K-1 per ring hop, one per scatter slice or barrier token),
    # so the receiver passes ``last=True`` for the final one and
    # the channel is dropped once it is consumed: a resident rank keeps no
    # channel per collective it has ever run.  Nothing is sent on a tag after
    # its last frame, so the drop cannot race a sender.

    def _put_frame(self, dst: int, tag, frame: bytes) -> int:
        """Deliver one encoded frame to ``dst``; return bytes sent."""
        self._shared.mailbox(self.rank, dst, tag).put(frame)
        return len(frame)

    def _get_frame(
        self, src: int, tag, timeout: float, context: str, last: bool
    ) -> tuple[bytes, int]:
        """Take the next frame from ``src``; return (frame, bytes received).

        ``last``: the channel's final frame — drop the channel once it is
        consumed.  Raises :class:`RuntimeError_` wrapping a ``TimeoutError``
        carrying ``context`` when nothing arrives within ``timeout`` seconds.
        """
        try:
            data = self._shared.mailbox(src, self.rank, tag).get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError_(
                self.rank,
                TimeoutError(
                    f"rank {self.rank} timed out after {timeout}s {context}"
                ),
            ) from None
        if last:
            self._shared.drop_mailbox(src, self.rank, tag)
        return data, len(data)

    def _ring_send(self, dst: int, payload: np.ndarray, tag, step: int) -> None:
        from repro.cluster.wire import encode_frame

        frame = encode_frame(
            payload, kind=_RING_FRAME_KIND, sender=self.rank, sequence=step
        )
        sent = self._put_frame(dst, tag, frame)
        self._add_stats(bytes_sent=sent)

    def _ring_recv(self, src: int, tag, context: str, last: bool) -> np.ndarray:
        from repro.cluster.wire import decode_frame

        data, received = self._get_frame(
            src, tag, self._timeout,
            context=f"in {context}, waiting on rank {src} (peer never sent, or died)",
            last=last,
        )
        frame = decode_frame(data)
        self._add_stats(bytes_received=received)
        return frame.payload

    def _ring_steps(self, array: np.ndarray, tag, op: str, on_chunk) -> None:
        """Run the K-1 ring steps; call ``on_chunk(src, payload)`` as chunks land.

        Step ``s``: send the chunk currently held to rank ``(self+1) mod K``,
        receive from ``(self-1) mod K`` the chunk originating at rank
        ``(self-1-s) mod K``.  Mailbox sends are buffered, so send-then-recv
        cannot deadlock; a missing peer surfaces as a loud per-step timeout.
        """
        k = self.world_size
        on_chunk(self.rank, array)
        if k == 1:
            return
        right, left = (self.rank + 1) % k, (self.rank - 1) % k
        current = array
        for step in range(k - 1):
            self._ring_send(right, current, tag, step)
            src = (self.rank - 1 - step) % k
            current = self._ring_recv(
                left, tag,
                context=f"{op} ring step {step + 1}/{k - 1} (chunk from rank {src})",
                last=step == k - 2,
            )
            on_chunk(src, current)

    def ring_all_gather(self, array: np.ndarray, axis: int = 0) -> np.ndarray:
        """Blocking true ring all-gather over the framed wire path.

        Bit-identical to :meth:`all_gather` (chunks are concatenated in rank
        order either way, uneven sizes included) but every chunk really flows
        around the ring, so the byte counters measure executed traffic.  The
        result lands in the same pooled receive buffer as :meth:`all_gather`
        (one op for the pool), so it stays valid until the second-next
        blocking all-gather of either kind.
        """
        chunks: list[np.ndarray | None] = [None] * self.world_size
        tag = self._collective_tag("ring_all_gather")
        with self._span("ring_all_gather") as span:
            self._ring_steps(
                array, tag, "ring all-gather",
                lambda src, payload: chunks.__setitem__(src, payload),
            )
            result = self._pooled_concatenate("all_gather", chunks, axis)
            self._add_stats(collective_calls=1, bytes_copied=result.nbytes)
            span.set(nbytes=sum(c.nbytes for c in chunks) - array.nbytes)
        return result

    def all_gather_async(self, array: np.ndarray, axis: int = 0) -> CollectiveHandle:
        """Nonblocking ring all-gather; returns a :class:`CollectiveHandle`.

        A per-rank comm thread drives the K-1 ring steps and delivers each
        chunk to the handle as it arrives, so the calling thread can run
        position-wise compute on already-arrived chunks while the rest of the
        ring is still in flight.  ``handle.wait()`` is bit-identical to the
        blocking collectives.
        """
        tag = self._collective_tag("all_gather_async")
        handle = CollectiveHandle("all_gather_async", self, axis=axis)
        self._add_stats(collective_calls=1)

        def pump() -> None:
            try:
                with current_tracer().span(
                    "all_gather_async", cat="runtime", kind="comm",
                    track=f"rank {self.rank} comm", device=self.rank,
                ) as span:
                    total = 0
                    def deliver(src: int, payload: np.ndarray) -> None:
                        nonlocal total
                        total += payload.nbytes
                        handle._deliver(src, payload)
                    self._ring_steps(array, tag, "async all-gather", deliver)
                    span.set(nbytes=total - array.nbytes)
                handle._finish()
            except BaseException as exc:  # noqa: BLE001 - surfaced via the handle
                wrapped = exc if isinstance(exc, RuntimeError_) else RuntimeError_(self.rank, exc)
                self._comm_errors.append(wrapped)
                handle._fail(wrapped)

        self._launch_comm_thread(pump, tag)
        return handle

    def all_reduce_async(self, array: np.ndarray) -> CollectiveHandle:
        """Nonblocking ring all-reduce (reduce-scatter + ring all-gather).

        Rank ``j`` owns row slice ``j`` (``array_split`` boundaries): every
        peer sends it that slice directly, the owner sums the K partials **in
        rank order** (the same deterministic elementwise summation as the
        blocking :meth:`all_reduce`, restricted to its rows), then the
        reduced slices circle the ring.  Executed volume per rank and
        direction is ``2(K-1)/K`` of the tensor — the Section V-C ring
        figure — and ``handle.wait()`` is bit-identical to ``all_reduce``.
        ``handle.chunk(src)`` / ``handle.range_of(src)`` expose reduced row
        slices as they arrive, for streaming position-wise epilogues.
        """
        if array.ndim < 1:
            raise ValueError("all_reduce_async needs at least a 1-D array")
        k = self.world_size
        n = array.shape[0]
        base, extra = divmod(n, k)
        ranges, start = [], 0
        for j in range(k):
            width = base + (1 if j < extra else 0)
            ranges.append((start, start + width))
            start += width
        handle = CollectiveHandle("all_reduce_async", self, axis=0, ranges=ranges)
        tag = self._collective_tag("all_reduce_async")
        scatter_tag, gather_tag = (tag, "rs"), (tag, "ag")
        self._add_stats(collective_calls=1)

        def pump() -> None:
            try:
                with current_tracer().span(
                    "all_reduce_async", cat="runtime", kind="comm",
                    track=f"rank {self.rank} comm", device=self.rank,
                ) as span:
                    # phase 1 — reduce-scatter: hand slice j straight to its owner
                    for j in range(k):
                        if j != self.rank:
                            lo, hi = ranges[j]
                            self._ring_send(j, array[lo:hi], scatter_tag, 0)
                    lo, hi = ranges[self.rank]
                    parts = [
                        array[lo:hi] if src == self.rank else self._ring_recv(
                            src, scatter_tag,
                            context=f"async all-reduce scatter (slice from rank {src})",
                            last=True,
                        )
                        for src in range(k)
                    ]
                    if len({p.dtype for p in parts}) == 1:
                        acc = np.array(parts[0], copy=True)
                        for part in parts[1:]:
                            np.add(acc, part, out=acc)
                    else:  # mixed dtypes: promoting accumulate, same rank order
                        acc = np.array(parts[0], copy=True)
                        for part in parts[1:]:
                            acc = acc + part
                    self._add_stats(bytes_copied=acc.nbytes)
                    # phase 2 — ring all-gather of the reduced slices
                    self._ring_steps(acc, gather_tag, "async all-reduce gather", handle._deliver)
                    slices = _reduce_slice_bytes(array, k)
                    total = sum(slices)
                    ring = (
                        (total - slices[self.rank])
                        + (total - slices[(self.rank + 1) % k])
                        if k > 1
                        else 0
                    )
                    span.set(nbytes=ring)
                handle._finish()
            except BaseException as exc:  # noqa: BLE001 - surfaced via the handle
                wrapped = exc if isinstance(exc, RuntimeError_) else RuntimeError_(self.rank, exc)
                self._comm_errors.append(wrapped)
                handle._fail(wrapped)

        self._launch_comm_thread(pump, tag)
        return handle

    def _launch_comm_thread(self, pump: Callable[[], None], tag) -> None:
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

    ``timeout`` bounds every blocking receive — each ring step of the
    (a)sync collectives and ``CollectiveHandle`` waits — so a hung peer
    fails loudly with rank/step context instead of stalling the whole run.
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
        :class:`RuntimeError_` after all threads have been joined (barriers
        are aborted so surviving workers do not deadlock).  Comm threads of
        async collectives — including un-waited handles — are joined before
        returning; a comm-thread failure the worker never observed is
        re-raised here so ring errors cannot vanish silently.
        """
        shared = _SharedState(world_size=self.world_size)
        results: list[object] = [None] * self.world_size
        stats: list[CommStats] = [CommStats() for _ in range(self.world_size)]
        errors: list[RuntimeError_] = []
        error_lock = threading.Lock()

        def runner(rank: int) -> None:
            ctx = WorkerContext(rank, shared, timeout=self.timeout)
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
                shared.barrier.abort()

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
