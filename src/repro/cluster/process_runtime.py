"""A process-backed runtime over real loopback TCP sockets.

The paper's evaluation runs Voltage on six separate VMs over a real network;
:class:`~repro.cluster.runtime.ThreadedRuntime` emulates that with threads
sharing one GIL and an in-process ``queue.Queue`` wire.  This module provides
the deployment-shaped alternative: :class:`ProcessRuntime` runs each rank as a
real OS process, every frame crosses a loopback TCP socket in the
:mod:`repro.cluster.wire` encoding, and each rank has its own interpreter —
NumPy/BLAS compute is genuinely multi-core.

It honours the exact same :class:`~repro.cluster.runtime.WorkerContext`
contract (barrier, broadcast, all_gather/all_reduce, ring + async variants
returning :class:`~repro.cluster.runtime.CollectiveHandle`): the subclass
only overrides the frame-transport hooks (``_put_frame`` / ``_get_frame``)
and the three slot-based collectives, which become wire collectives
(ring all-gather, ring all-reduce, root-to-peer broadcast).  Everything
above those hooks — ring step order, summation order, chunk streaming — is
the *same code*, which is what makes thread-vs-process bit-identity a
checkable property rather than a hope.

Bootstrap: the parent binds one loopback listener per rank *before* forking
(so the port list is plain inherited state, no port-exchange race), forks one
worker process per rank, and each rank full-mesh connects — dialling every
lower rank with a 4-byte hello carrying its own rank, accepting every higher
rank.  Results, per-rank :class:`CommStats`, and exceptions come back over
per-child pipes; a dead child or a wedged cluster fails loudly with the
originating rank's error rather than hanging.

Socket envelope (little-endian), wrapping every wire frame::

    0  4  body length (tag + frame bytes)     uint32
    4  2  tag length                          uint16
    6  .  tag key (ascii JSON)                — channel demultiplexing
    .  .  the repro.cluster.wire frame

The tag key replicates the threaded runtime's tagged mailboxes: a per-peer
reader thread demultiplexes incoming frames into per-(peer, tag) queues so an
async collective's comm thread can never consume a frame meant for another
in-flight collective; a tag's queue is dropped once its last frame is
consumed.  Byte counters include the envelope — they measure what actually
traversed the socket.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import queue
import socket
import struct
import threading
import time
import traceback
from collections.abc import Callable, Sequence

import numpy as np

from repro.cluster.runtime import (
    _RING_FRAME_KIND,
    DEFAULT_TIMEOUT,
    CommStats,
    RuntimeError_,
    ThreadedRuntime,
    WorkerContext,
)

__all__ = [
    "ProcessRuntime",
    "ProcessWorkerContext",
    "resolve_runtime",
    "envelope_overhead_bytes",
]

#: Envelope header: body length (uint32), tag length (uint16).
_ENVELOPE = struct.Struct("<IH")
#: 4-byte hello sent by the dialling side of each mesh connection.
_HELLO = struct.Struct("<I")
#: Seconds between liveness checks while a receive or the parent collector waits.
_POLL_INTERVAL = 0.25
#: Extra grace the parent allows beyond ``timeout`` before declaring a child hung.
_COLLECT_GRACE = 5.0
#: The only start method whose children inherit the worker closure unpickled.
_START_METHOD = "fork"


def _tag_key(tag) -> str:
    """Canonical string form of a channel tag (nested tuples included)."""
    return json.dumps(tag, separators=(",", ":"))


def envelope_overhead_bytes(tag) -> int:
    """Socket bytes added around one wire frame sent under ``tag``."""
    return _ENVELOPE.size + len(_tag_key(tag).encode("ascii"))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a message boundary."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if not buf:
                return None
            raise ConnectionError(f"socket closed mid-message ({len(buf)}/{n} bytes)")
        buf += chunk
    return bytes(buf)


class _SocketTransport:
    """Full-mesh socket fabric for one rank: locked sends, demuxed receives."""

    def __init__(self, rank: int, world_size: int, socks: dict[int, socket.socket]):
        self.rank = rank
        self.world_size = world_size
        self._socks = socks
        self._send_locks = {peer: threading.Lock() for peer in socks}
        self._queues: dict[tuple[int, str], queue.Queue] = {}
        self._queues_lock = threading.Lock()
        self._closed = {peer: False for peer in socks}
        self._readers = [
            threading.Thread(
                target=self._reader, args=(peer, sock),
                name=f"sock-reader-{rank}<-{peer}", daemon=True,
            )
            for peer, sock in socks.items()
        ]
        for reader in self._readers:
            reader.start()

    def queue_for(self, src: int, tagkey: str) -> queue.Queue:
        with self._queues_lock:
            key = (src, tagkey)
            if key not in self._queues:
                self._queues[key] = queue.Queue()
            return self._queues[key]

    def drop_queue(self, src: int, tagkey: str) -> None:
        """Forget a tagged channel whose last frame has been consumed."""
        with self._queues_lock:
            self._queues.pop((src, tagkey), None)

    def peer_closed(self, src: int) -> bool:
        return self._closed.get(src, False)

    def send(self, dst: int, tag, frame: bytes) -> int:
        """Write one enveloped frame to ``dst``; return socket bytes written."""
        tag_bytes = _tag_key(tag).encode("ascii")
        envelope = _ENVELOPE.pack(len(tag_bytes) + len(frame), len(tag_bytes))
        try:
            with self._send_locks[dst]:
                self._socks[dst].sendall(envelope + tag_bytes + frame)
        except OSError as exc:
            raise ConnectionError(
                f"rank {self.rank} failed sending to rank {dst}: {exc}"
            ) from exc
        return len(envelope) + len(tag_bytes) + len(frame)

    def _reader(self, peer: int, sock: socket.socket) -> None:
        # One thread per peer: reads envelopes off the socket and demuxes
        # them into per-(peer, tag) queues.  Exits on EOF (peer finished or
        # died) or when close() shuts the socket down under it; either way
        # the closed flag is set *after* the final put, so a receiver that
        # sees closed-and-empty knows nothing more is coming.
        try:
            while True:
                header = _recv_exact(sock, _ENVELOPE.size)
                if header is None:
                    break
                body_len, tag_len = _ENVELOPE.unpack(header)
                body = _recv_exact(sock, body_len)
                if body is None:
                    raise ConnectionError("socket closed between header and body")
                tagkey = body[:tag_len].decode("ascii")
                self.queue_for(peer, tagkey).put(
                    (body[tag_len:], _ENVELOPE.size + body_len)
                )
        except OSError:
            pass  # surfaced to receivers via the closed flag below
        finally:
            self._closed[peer] = True

    def close(self) -> None:
        for sock in self._socks.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        for reader in self._readers:
            reader.join(timeout=1.0)


def _connect_mesh(
    rank: int, listener: socket.socket, ports: Sequence[int], timeout: float
) -> _SocketTransport:
    """Full-mesh connect: dial lower ranks, accept higher ranks."""
    k = len(ports)
    socks: dict[int, socket.socket] = {}
    for peer in range(rank):
        sock = socket.create_connection(("127.0.0.1", ports[peer]), timeout=timeout)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(_HELLO.pack(rank))
        socks[peer] = sock
    listener.settimeout(timeout)
    for _ in range(k - 1 - rank):
        try:
            sock, _addr = listener.accept()
        except TimeoutError:
            raise ConnectionError(
                f"rank {rank} timed out after {timeout}s waiting for mesh "
                f"connections ({k - 1 - rank - len([p for p in socks if p > rank])} "
                f"higher ranks never dialled)"
            ) from None
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = _recv_exact(sock, _HELLO.size)
        if hello is None:
            raise ConnectionError(f"rank {rank}: peer closed during hello")
        (peer,) = _HELLO.unpack(hello)
        socks[peer] = sock
    listener.close()
    return _SocketTransport(rank, k, socks)


class ProcessWorkerContext(WorkerContext):
    """:class:`WorkerContext` whose wire is a real socket mesh.

    Overrides only the frame-transport hooks and the three slot-based
    collectives (which have no shared memory to use here); the ring and
    async collectives, frame encoding, stats locking, and buffer pooling are
    inherited unchanged — that shared body is the conformance argument.
    """

    def __init__(self, rank: int, transport: _SocketTransport, timeout: float):
        super().__init__(rank, shared=None, timeout=timeout)
        self._transport = transport
        self._barrier_sequence = 0

    @property
    def world_size(self) -> int:  # _shared is None here
        return self._transport.world_size

    # -- frame transport over sockets -----------------------------------------

    def _put_frame(self, dst: int, tag, frame: bytes) -> int:
        return self._transport.send(dst, tag, frame)

    def _get_frame(
        self, src: int, tag, timeout: float, context: str, last: bool
    ) -> tuple[bytes, int]:
        tagkey = _tag_key(tag)
        q = self._transport.queue_for(src, tagkey)
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            # poll in short slices so a dead peer fails in ~_POLL_INTERVAL,
            # not after the full protocol timeout
            try:
                frame = q.get(timeout=min(_POLL_INTERVAL, max(remaining, 0.01)))
                if last:
                    self._transport.drop_queue(src, tagkey)
                return frame
            except queue.Empty:
                if self._transport.peer_closed(src) and q.empty():
                    raise RuntimeError_(
                        self.rank,
                        ConnectionError(
                            f"rank {self.rank} lost the connection to rank {src} "
                            f"{context}"
                        ),
                    ) from None
                if time.monotonic() >= deadline:
                    raise RuntimeError_(
                        self.rank,
                        TimeoutError(
                            f"rank {self.rank} timed out after {timeout}s {context}"
                        ),
                    ) from None

    # -- collectives (wire versions of the slot-based trio) --------------------

    def barrier(self) -> None:
        """Centralised barrier: rank 0 gathers a token from every rank, then
        releases every rank.  2(K-1) tiny frames total; counted as real
        socket bytes like everything else."""
        from repro.cluster.wire import encode_frame

        k = self.world_size
        if k == 1:
            return
        self._barrier_sequence += 1
        tag = ("barrier", self._barrier_sequence)
        token = encode_frame(
            np.empty(0, dtype=np.uint8),
            kind=_RING_FRAME_KIND,
            sender=self.rank,
            sequence=self._barrier_sequence % 2**32,
        )
        if self.rank == 0:
            for src in range(1, k):
                _, nbytes = self._get_frame(
                    src, tag, self._timeout,
                    context=f"in barrier, waiting on rank {src}", last=True,
                )
                self._add_stats(bytes_received=nbytes)
            for dst in range(1, k):
                self._add_stats(bytes_sent=self._put_frame(dst, tag, token))
        else:
            self._add_stats(bytes_sent=self._put_frame(0, tag, token))
            _, nbytes = self._get_frame(
                0, tag, self._timeout, context="in barrier, waiting on rank 0 release",
                last=True,
            )
            self._add_stats(bytes_received=nbytes)

    def all_gather(self, array: np.ndarray, axis: int = 0) -> np.ndarray:
        """Ring all-gather over the sockets — bit-identical to the threaded
        slot collective (chunks concatenate in rank order either way)."""
        return self.ring_all_gather(array, axis=axis)

    def all_reduce(self, array: np.ndarray) -> np.ndarray:
        """Ring all-reduce (reduce-scatter + all-gather) over the sockets.

        Partials are summed in rank order per element — the same
        deterministic order as the threaded accumulate — so results are
        bit-identical across backends.
        """
        if array.ndim == 0:
            return self.all_reduce_async(array.reshape(1)).wait().reshape(())
        return self.all_reduce_async(array).wait()

    def broadcast(self, array: np.ndarray | None = None, root: int = 0) -> np.ndarray:
        """Root sends its frame to every peer; non-roots decode a private,
        writable copy (``decode_frame`` guarantees writability)."""
        from repro.cluster.wire import decode_frame, encode_frame

        tag = self._collective_tag("broadcast")
        with self._span("broadcast") as span:
            if self.rank == root:
                if array is None:
                    raise ValueError("broadcast root must supply an array")
                frame = encode_frame(
                    array, kind=_RING_FRAME_KIND, sender=self.rank, sequence=0
                )
                sent = 0
                for dst in range(self.world_size):
                    if dst != root:
                        sent += self._put_frame(dst, tag, frame)
                self._add_stats(bytes_sent=sent, collective_calls=1)
                span.set(nbytes=sent)
                return array
            data, nbytes = self._get_frame(
                root, tag, self._timeout,
                context=f"in broadcast, waiting on root rank {root}", last=True,
            )
            payload = decode_frame(data).payload
            self._add_stats(
                bytes_received=nbytes, collective_calls=1, bytes_copied=payload.nbytes
            )
            span.set(nbytes=nbytes)
            return payload


def _worker_main(
    rank: int,
    worker_fn: Callable[[WorkerContext], object],
    listeners: Sequence[socket.socket],
    ports: Sequence[int],
    parent_conns: Sequence,
    child_conns: Sequence,
    timeout: float,
) -> None:
    """Child-process entry point (fork start method: closures survive).

    First closes every inherited FD this rank must not hold — other ranks'
    listeners and every pipe end but its own — so peer EOF detection works
    (a forgotten inherited write end would keep a dead peer's pipe "open").
    """
    conn = child_conns[rank]
    for i, other in enumerate(child_conns):
        if i != rank:
            other.close()
    for other in parent_conns:
        other.close()
    for i, listener in enumerate(listeners):
        if i != rank:
            listener.close()
    transport = None
    try:
        transport = _connect_mesh(rank, listeners[rank], ports, timeout)
        ctx = ProcessWorkerContext(rank, transport, timeout)
        result = worker_fn(ctx)
        ctx._join_comm_threads()
        if ctx._comm_errors:
            raise ctx._comm_errors[0]
        try:
            conn.send(("ok", result, ctx.stats))
        except Exception as exc:  # unpicklable result — report, don't hang
            conn.send(
                ("err", rank, f"worker result not picklable: {exc!r}", "")
            )
    except BaseException as exc:  # noqa: BLE001 - everything must reach the parent
        origin = exc.rank if isinstance(exc, RuntimeError_) else rank
        cause = exc.cause if isinstance(exc, RuntimeError_) else exc
        try:
            conn.send(("err", origin, repr(cause), traceback.format_exc()))
        except Exception:
            pass  # parent sees EOF and reports a dead child
    finally:
        if transport is not None:
            transport.close()
        conn.close()


class ProcessRuntime:
    """Run one worker process per rank over loopback TCP and collect results.

    Drop-in alternative to :class:`ThreadedRuntime`: ``run(worker_fn)``
    returns the same ``(results, stats)`` pair, raises the same
    :class:`RuntimeError_` carrying the *originating* rank on failure, and
    feeds the same process-wide metrics registry.  Ranks are always forked:
    worker functions are closures over live model objects, which neither
    ``spawn`` nor ``forkserver`` can pickle.
    """

    def __init__(self, world_size: int, timeout: float = DEFAULT_TIMEOUT):
        if world_size < 1:
            raise ValueError(f"world size must be >= 1, got {world_size}")
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
        if _START_METHOD not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start method {_START_METHOD!r} unavailable on this platform "
                f"(have {multiprocessing.get_all_start_methods()})"
            )
        self.world_size = world_size
        self.timeout = timeout

    def run(
        self, worker_fn: Callable[[WorkerContext], object],
        shutdown: threading.Event | None = None,
    ) -> tuple[list[object], list[CommStats]]:
        """Execute ``worker_fn(ctx)`` on every rank; returns (results, stats).

        ``shutdown`` marks a resident run (a ``RankService``): its ranks
        report only once told to stop, which the service signals by setting
        the event, so the hang watchdog of :meth:`_collect` starts then.
        """
        k = self.world_size
        mp = multiprocessing.get_context(_START_METHOD)
        # Every listener and pipe is created BEFORE the first fork so the
        # port list is plain inherited state (no exchange protocol) and each
        # child can close exactly the FDs it must not hold.
        listeners = []
        for _ in range(k):
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            listener.listen(k)
            listeners.append(listener)
        ports = [listener.getsockname()[1] for listener in listeners]
        pipes = [mp.Pipe(duplex=False) for _ in range(k)]
        parent_conns = [recv for recv, _send in pipes]
        child_conns = [send for _recv, send in pipes]
        processes = [
            mp.Process(
                target=_worker_main,
                args=(rank, worker_fn, listeners, ports, parent_conns, child_conns,
                      self.timeout),
                name=f"rank-{rank}",
                daemon=True,
            )
            for rank in range(k)
        ]
        for process in processes:
            process.start()
        for listener in listeners:
            listener.close()
        for conn in child_conns:
            conn.close()
        try:
            results, stats, errors = self._collect(parent_conns, processes, shutdown)
        finally:
            self._reap(processes)
            for conn in parent_conns:
                conn.close()
        if errors:
            raise errors[0]
        ThreadedRuntime._record_metrics(stats)
        return results, stats

    def _collect(self, parent_conns, processes, shutdown):
        """Drain every child pipe; first error *received* is the root cause.

        A child that dies without reporting (hard crash, ``os._exit``)
        surfaces immediately as a ``ChildProcessError`` with its exit code;
        a child that stops making progress for ``timeout`` + grace is
        declared hung rather than waited on forever.  A resident run's ranks
        write nothing here until ``shutdown`` is set — idle or busy, their
        liveness is the service's per-reply wait — so its silence counts
        only from then on.
        """
        k = len(parent_conns)
        results: list[object] = [None] * k
        stats: list[CommStats] = [CommStats() for _ in range(k)]
        errors: list[RuntimeError_] = []
        pending = {conn: rank for rank, conn in enumerate(parent_conns)}
        last_progress = time.monotonic()
        while pending:
            ready = multiprocessing.connection.wait(
                list(pending), timeout=_POLL_INTERVAL
            )
            if not ready:
                if shutdown is not None and not shutdown.is_set():
                    last_progress = time.monotonic()
                elif time.monotonic() - last_progress > self.timeout + _COLLECT_GRACE:
                    for conn, rank in pending.items():
                        errors.append(RuntimeError_(
                            rank,
                            TimeoutError(
                                f"rank {rank} made no progress for "
                                f"{self.timeout + _COLLECT_GRACE:.0f}s — declared hung"
                            ),
                        ))
                    break
                continue
            last_progress = time.monotonic()
            for conn in ready:
                rank = pending.pop(conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    processes[rank].join(timeout=1.0)
                    code = processes[rank].exitcode
                    errors.append(RuntimeError_(
                        rank,
                        ChildProcessError(
                            f"rank {rank} died without reporting (exit code {code})"
                        ),
                    ))
                    continue
                if message[0] == "ok":
                    _, results[rank], stats[rank] = message
                else:
                    _, origin, cause_repr, tb = message
                    cause = RuntimeError(cause_repr)
                    error = RuntimeError_(origin, cause)
                    error.remote_traceback = tb
                    errors.append(error)
        return results, stats, errors

    @staticmethod
    def _reap(processes) -> None:
        for process in processes:
            process.join(timeout=0.5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)


def resolve_runtime(
    spec, world_size: int, timeout: float | None = None
) -> ThreadedRuntime | ProcessRuntime:
    """Turn a runtime selector into a runtime instance.

    ``spec`` may be ``None`` / ``"threaded"`` (thread backend),
    ``"process"`` (socket backend), or an already-built runtime whose
    ``world_size`` must match.
    """
    kwargs = {} if timeout is None else {"timeout": timeout}
    if spec is None or spec == "threaded":
        return ThreadedRuntime(world_size, **kwargs)
    if spec == "process":
        return ProcessRuntime(world_size, **kwargs)
    if isinstance(spec, (ThreadedRuntime, ProcessRuntime)):
        if spec.world_size != world_size:
            raise ValueError(
                f"runtime world_size {spec.world_size} != required {world_size}"
            )
        return spec
    raise ValueError(
        f"unknown runtime {spec!r} (expected 'threaded', 'process', or a runtime)"
    )
