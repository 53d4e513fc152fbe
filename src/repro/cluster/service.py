"""Ranks fed commands — the one driver of every real-rank run.

Every rank builds its command table once, ``serve(ctx) -> {op: handler}``,
then runs the commands it is fed, in order (:func:`_rank_loop`).  Every
rank runs every command, so the collectives inside one line up, and the
host gets one reply per rank, in rank order.  Two ways to feed the loop
differ only in how long the ranks live:

- :func:`serve_once` — one command, then closed.  The command is known
  before the ranks start, so it rides their start and the replies ride
  their results: one ``runtime.run`` on the calling thread, no queue and no
  extra thread.  ``execute_distributed`` is its client.
- :class:`RankService` — resident ranks inside one ``runtime.run`` on a
  background thread, fed one command at a time over per-rank queues.  The
  decode session (``repro.systems.decode.DecodeSession``) is one.

No other code in ``repro`` calls ``runtime.run``.  Commands and replies
never travel on the ranks' wire, so their ``CommStats`` count the
protocol's bytes only.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from collections.abc import Callable

from repro.cluster.process_runtime import ProcessRuntime, resolve_runtime
from repro.cluster.runtime import CommStats, WorkerContext

__all__ = ["RankService", "Serve", "serve_once"]

#: ``serve(ctx)``: one rank's command table, ``{op: handler(*args) -> reply}``,
#: built once when the ranks start; its handlers share whatever state the
#: rank keeps between commands.
Serve = Callable[[WorkerContext], dict[str, Callable]]

_SHUTDOWN = ("shutdown",)


def _rank_loop(serve: Serve, ctx: WorkerContext, commands, reply) -> None:
    """One rank's side of a service: build its command table, then run each
    of ``commands`` (``(op, *args)`` tuples) until shutdown, ``reply``-ing
    ``("ok", value)`` — or ``("error", message)`` before re-raising, so the
    host fails loudly."""
    handlers = serve(ctx)
    for op, *args in commands:
        try:
            value = handlers[op](*args)
        except Exception as exc:
            reply(("error", f"{type(exc).__name__}: {exc}"))
            raise
        reply(("ok", value))


def serve_once(serve: Serve, k: int, runtime, op: str, *args) -> tuple[list, list[CommStats]]:
    """A service of one command, run inline, then closed: returns every
    rank's reply to ``op``, in rank order, and their ``CommStats``.
    ``runtime`` is a selector or instance
    (:func:`~repro.cluster.process_runtime.resolve_runtime`); a failing rank
    raises the runtime's ``RuntimeError_``, naming it."""

    def worker(ctx):
        replies: list = []
        _rank_loop(serve, ctx, [(op, *args)], replies.append)
        return replies

    results, stats = resolve_runtime(runtime, k).run(worker)
    return [value for ((_, value),) in results], stats


class RankService:
    """``K`` resident ranks fed ``serve``'s commands one at a time.

    ``runtime`` is a runtime selector or instance
    (:func:`~repro.cluster.process_runtime.resolve_runtime`); ``timeout``
    bounds each reply wait and the shutdown join, and is the ranks'
    per-receive bound too (default: the runtime's).  Ranks start on the
    first command; ``name`` labels the errors and, hyphenated, the thread
    that runs them.  The queues are created before the runtime starts: a
    :class:`~repro.cluster.process_runtime.ProcessRuntime` forks, so
    pre-existing ``multiprocessing.Queue`` ends survive into the children.

    A rank's liveness is its reply: each wait is bounded by ``timeout``, and
    an idle or busy service may live any length of time between commands
    (the process runtime's hang watchdog starts only at shutdown).  A failed
    or timed-out command breaks the service for good — the failing rank is
    gone and its peers' replies were never read, so a later command could
    only block for ``timeout`` or pair a stale reply with a new request.  The
    first failure therefore raises as soon as it is seen, tells the ranks to
    shut down, and every later command raises immediately, chained to the
    original error.  An error that ends ``runtime.run`` without failing a
    command (a comm thread re-raised at join, a rank dying at shutdown) is
    raised by :meth:`close`, and so is a run still going when its
    ``timeout`` join gives up.
    """

    def __init__(
        self, serve: Serve, k: int, runtime=None, timeout: float | None = None,
        name: str = "rank service",
    ):
        self._runtime = resolve_runtime(runtime, k, timeout=timeout)
        self.k = k
        self.timeout = self._runtime.timeout if timeout is None else timeout
        self.name = name
        self._serve_rank = serve
        self._forked = isinstance(self._runtime, ProcessRuntime)
        make_queue = multiprocessing.Queue if self._forked else queue.Queue
        self._commands = [make_queue() for _ in range(k)]
        self._replies = [make_queue() for _ in range(k)]
        self._thread: threading.Thread | None = None
        self._shutdown = threading.Event()  # set once the ranks are told to stop
        self._stats: list[CommStats] = []  # the ranks' counters, once runtime.run returns
        self._error: BaseException | None = None  # what ended runtime.run, if anything
        self._failure: BaseException | None = None  # the first failed command
        self._closed = False

    def _run(self) -> None:
        serve, commands, replies = self._serve_rank, self._commands, self._replies

        def worker(ctx):
            _rank_loop(serve, ctx, iter(commands[ctx.rank].get, _SHUTDOWN), replies[ctx.rank].put)

        # A forked rank's runtime watches its result pipe for hangs, but a
        # resident rank writes there only at shutdown: until then call()'s
        # reply wait is its liveness check.
        resident = {"shutdown": self._shutdown} if self._forked else {}
        try:
            _, self._stats = self._runtime.run(worker, **resident)
        except BaseException as exc:
            self._error = exc

    def _ensure_started(self) -> None:
        if self._failure is not None:
            raise RuntimeError(
                f"{self.name} is broken by an earlier failure: {self._failure}"
            ) from self._failure
        if self._closed:
            raise RuntimeError(f"{self.name} is closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name=self.name.replace(" ", "-"), daemon=True
            )
            self._thread.start()

    def call(self, op: str, *args) -> list:
        """Run command ``op`` on every rank and return their replies in rank
        order; the first failure breaks the service (class docstring)."""
        self._ensure_started()
        for commands in self._commands:
            commands.put((op, *args))
        try:
            values = []
            for rank, replies in enumerate(self._replies):
                try:
                    status, value = replies.get(timeout=self.timeout)
                except queue.Empty:
                    detail = f": {self._error!r}" if self._error else ""
                    raise RuntimeError(
                        f"{self.name} rank {rank} did not reply to {op!r} "
                        f"within {self.timeout}s{detail}"
                    ) from self._error
                if status != "ok":
                    raise RuntimeError(f"{self.name} rank {rank} failed: {value}")
                values.append(value)
            return values
        except RuntimeError as exc:
            self._failure = exc
            self._stop()
            raise

    def _stop(self) -> None:
        """Tell the ranks to shut down, once; a rank hung in a command never
        reads it, and the runtime reaps it ``timeout`` + grace later."""
        if not self._shutdown.is_set() and self._thread is not None:
            for commands in self._commands:
                commands.put(_SHUTDOWN)
            self._shutdown.set()

    def close(self) -> list[CommStats]:
        """Shut the ranks down (once; later calls only report) and return
        their per-rank ``CommStats`` — empty if they never started.  Unless
        a failed command already raised, raises if ``runtime.run`` has not
        ended within ``timeout`` (a hung shutdown), or the error that ended
        it, chained."""
        if not self._closed:
            self._closed = True
            self._stop()
            if self._thread is not None:
                self._thread.join(timeout=self.timeout)
                if self._forked and not self._thread.is_alive():
                    for commands in self._commands:  # flush and stop the feeder threads
                        commands.close()
                        commands.join_thread()
        if self._failure is None and self._thread is not None and self._thread.is_alive():
            raise RuntimeError(
                f"{self.name} {self._thread.name!r}: the ranks did not shut down "
                f"within {self.timeout}s"
            )
        if self._error is not None and self._failure is None:
            raise RuntimeError(f"{self.name} ranks failed: {self._error}") from self._error
        return self._stats

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
