"""Benchmark-owned proxies: everything here measures a layer from outside,
by timing calls into it.  Nothing in ``src/`` is patched; the proxies wrap
objects the harness itself constructs and hands to the engine.

- :class:`Spans` — harness spans at layer boundaries
  (``request`` → ``engine.step`` → ``session.forward`` /
  ``execute_distributed``), recorded into the run's ``repro.obs.Tracer``.
- :class:`TimingSequencer` — wraps any engine sequencer; logs every
  ``begin``/``step`` with wall timestamps and how many output tokens the
  request has produced, which is where TTFT and inter-token gaps come from.
- :class:`TimedProposer` — wraps a speculative proposer to attribute draft time.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.obs import Span


class Spans:
    """Harness spans.  Every span carries ``request`` (the id all spans of
    one request share), its own ``span_id`` and its ``parent`` in ``args``,
    so a loaded Chrome trace can rebuild the tree: a layer's self time is
    its span minus the children that name it as parent."""

    TRACK = "harness"

    def __init__(self, tracer):
        self.tracer = tracer
        self._ids = itertools.count(10**9)  # clear of the tracer's own small ids
        self._stack: list[tuple[int, str]] = []  # (span id, request) of open spans
        self._requests: dict[object, int] = {}
        # the tracer's time origin is private; recover it from one empty span
        before = time.perf_counter()
        with tracer.span("harness.origin", cat="harness", track=self.TRACK):
            pass
        self._origin = before - tracer.spans[-1].start_s
        self.requests_recorded = 0

    def open_request(self, request: object) -> int:
        """Reserve the root span id of ``request`` so children can name it."""
        span_id = self._requests[request] = next(self._ids)
        return span_id

    def close_request(self, request: object, start: float, end: float, **args) -> None:
        """Record the request's root span over ``[start, end]`` (perf_counter
        seconds).  Requests interleave inside one engine loop, so the root
        cannot be a ``with`` block; it is appended once the request ends."""
        span_id = self._requests.pop(request)
        self.tracer.spans.append(Span(
            id=span_id, name="request", cat="harness", kind="request", domain="wall",
            track=self.TRACK, start_s=start - self._origin, duration_s=end - start,
            args={"request": str(request), "span_id": span_id, "parent": None, **args},
        ))
        self.requests_recorded += 1

    @contextmanager
    def child(self, name: str, request: object = None, kind: str = "compute", **args):
        """A span under the innermost open harness span, or — outermost —
        under the root of ``request`` (inherited from the parent if omitted)."""
        if self._stack:
            parent, inherited = self._stack[-1]
            request = inherited if request is None else request
        else:
            parent = self._requests[request]
        with self.tracer.span(
            name, cat="harness", kind=kind, track=self.TRACK,
            request=str(request), parent=parent, **args,
        ) as handle:
            handle.set(span_id=handle.id)
            self._stack.append((handle.id, request))
            try:
                yield handle
            finally:
                self._stack.pop()


@dataclass
class StepRecord:
    request: int
    kind: str  # "prefill" | "decode" | "verify"
    start: float
    end: float
    tokens: int  # output tokens the request has determined once this step ends


@dataclass
class RequestLog:
    begin: float
    prompt_len: int
    steps: list[StepRecord] = field(default_factory=list)

    def token_times(self) -> list[float]:
        """Wall time at which each output token became known."""
        times: list[float] = []
        for step in self.steps:
            times.extend([step.end] * (step.tokens - len(times)))
        return times


class TimingSequencer:
    """Transparent timing wrapper around an engine sequencer.

    Forwards every attribute to ``inner``; only ``begin`` and ``step`` are
    intercepted, and neither changes arguments or results — the self-tests
    assert engine outputs are ``array_equal`` with and without it.  The one
    non-opaque touch is reading ``state.ids`` / ``state.slot.length`` after
    a step to count tokens and KV rows.
    """

    def __init__(self, inner, decode_kind: str = "decode"):
        self.inner = inner
        self.decode_kind = decode_kind
        self.spans: Spans | None = None  # set per traced round
        self.request_tag = ""  # prefix that keeps span request ids unique per variant
        self.logs: dict[int, RequestLog] = {}
        self.steps: list[StepRecord] = []
        self.kv_rows_peak = 0
        self._kv_rows: dict[int, int] = {}

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def begin(self, request, prompt, slot, **kwargs):
        now = time.perf_counter()
        state = self.inner.begin(request, prompt, slot, **kwargs)
        self.logs[request.id] = RequestLog(begin=now, prompt_len=len(prompt))
        if self.spans is not None:
            self.spans.open_request(self.request_tag + str(request.id))
        return state

    def step(self, state):
        request_id = state.request.id
        log = self.logs[request_id]
        kind = self.decode_kind if log.steps else "prefill"
        span = (
            self.spans.child("engine.step", self.request_tag + str(request_id), phase=kind)
            if self.spans is not None
            else nullcontext()
        )
        with span:
            start = time.perf_counter()
            done, cost = self.inner.step(state)
            end = time.perf_counter()
        tokens = len(state.ids) - log.prompt_len + (0 if done else 1)
        record = StepRecord(request_id, kind, start, end, tokens)
        log.steps.append(record)
        self.steps.append(record)
        if done:
            self._kv_rows.pop(request_id, None)
            if self.spans is not None:
                self.spans.close_request(
                    self.request_tag + str(request_id), log.begin, end, steps=len(log.steps)
                )
        else:
            self._kv_rows[request_id] = state.slot.length
            self.kv_rows_peak = max(self.kv_rows_peak, sum(self._kv_rows.values()))
        return done, cost

    def drain(self) -> tuple[dict[int, RequestLog], list[StepRecord]]:
        """Hand over (and forget) everything logged since the last drain."""
        logs, steps = self.logs, self.steps
        self.logs, self.steps = {}, []
        return logs, steps


class TimedProposer:
    """Speculative proposer wrapper: sums the wall time spent drafting."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.seconds = 0.0
        self.calls = 0

    def begin(self, ids):
        return self.inner.begin(ids)

    def propose(self, dstate, ids, k):
        start = time.perf_counter()
        try:
            return self.inner.propose(dstate, ids, k)
        finally:
            self.seconds += time.perf_counter() - start
            self.calls += 1


def timed_method(obj, name: str, samples: list[float], spans_of=None, span_name: str = ""):
    """Replace ``obj.name`` (a public method of an object the harness built)
    with a wrapper appending each call's duration to ``samples``; with
    ``spans_of`` (a zero-argument callable returning the active
    :class:`Spans` or None) the call is also a harness span under the
    enclosing ``engine.step``."""
    original = getattr(obj, name)

    def wrapper(*args, **kwargs):
        spans = spans_of() if spans_of is not None else None
        span = spans.child(span_name) if spans is not None else nullcontext()
        with span:
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - start)

    setattr(obj, name, wrapper)
