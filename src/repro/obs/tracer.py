"""Request-scoped tracing: nestable spans over wall-clock and modeled time.

The repo reasons about *where time and bytes go* at three layers — the
analytic cost models, the host-emulated systems, and the thread-backed real
runtime — but until now each layer only produced flat aggregates.  A
:class:`Tracer` collects :class:`Span` records from all three into one
timeline that the exporters (:mod:`repro.obs.export`) can render as a
Chrome ``trace_event`` file or a text summary.

Two time domains coexist in one trace:

- **wall** spans measure real elapsed time with ``time.perf_counter``
  (threaded-runtime collectives, system ``run()`` calls).  They nest: a
  span opened while another is active on the same thread records it as its
  parent.
- **model** spans carry *simulated* seconds (``LatencyBreakdown`` phases,
  :class:`~repro.cluster.simulator.ClusterSim` collective costs, engine
  request timelines).  Each named track keeps a cursor so consecutive modeled spans
  lay out end-to-end, which is what makes the exported timeline readable.

Instrumentation sites call :func:`current_tracer`, which returns a shared
no-op :class:`NullTracer` unless a real tracer has been installed with
:func:`use_tracer` — so the instrumented hot paths cost almost nothing when
tracing is off.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
    "set_tracer",
]

#: Span kinds mirror :data:`repro.cluster.timeline._KINDS` plus trace-only ones.
SPAN_KINDS = ("compute", "comm", "overhead", "request", "service", "other")


@dataclass
class Span:
    """One traced operation in either time domain."""

    id: int
    name: str
    cat: str  # "phase" | "sim" | "runtime" | "system" | "engine" | ...
    kind: str  # one of SPAN_KINDS
    domain: str  # "wall" | "model"
    track: str  # timeline lane (thread, device rank, model track)
    start_s: float  # seconds since trace start (wall) or simulated origin (model)
    duration_s: float
    parent_id: int | None = None
    layer: int | None = None
    device: int | None = None
    nbytes: float | None = None
    args: dict = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class _OpenSpan:
    """Mutable handle yielded by :meth:`Tracer.span` while the span runs."""

    __slots__ = ("id", "name", "cat", "kind", "track", "parent_id", "layer",
                 "device", "nbytes", "args", "_start")

    def __init__(self, id, name, cat, kind, track, parent_id, layer, device,
                 nbytes, args, start):
        self.id = id
        self.name = name
        self.cat = cat
        self.kind = kind
        self.track = track
        self.parent_id = parent_id
        self.layer = layer
        self.device = device
        self.nbytes = nbytes
        self.args = args
        self._start = start

    def set(self, *, layer=None, device=None, nbytes=None, **args) -> None:
        """Attach annotations discovered while the span is running."""
        if layer is not None:
            self.layer = layer
        if device is not None:
            self.device = device
        if nbytes is not None:
            self.nbytes = nbytes
        self.args.update(args)


class _NullSpan:
    """Inert stand-in so call sites never branch on tracing being enabled."""

    __slots__ = ()

    def set(self, **kwargs) -> None:
        pass


_NULL_SPAN = _NullSpan()


def _check_kind(kind: str) -> str:
    if kind not in SPAN_KINDS:
        raise ValueError(f"kind must be one of {SPAN_KINDS}, got {kind!r}")
    return kind


class Tracer:
    """Collects spans from every instrumented layer; thread-safe."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()
        self._cursors: dict[str, float] = {}
        self._stacks = threading.local()
        self.spans: list[Span] = []

    # -- wall-clock spans ----------------------------------------------------

    @contextmanager
    def span(
        self,
        name: str,
        *,
        cat: str = "runtime",
        kind: str = "other",
        track: str | None = None,
        layer: int | None = None,
        device: int | None = None,
        nbytes: float | None = None,
        **args,
    ):
        """Time a real operation; nests per-thread via an internal stack."""
        _check_kind(kind)
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        if track is None:
            track = threading.current_thread().name
        open_span = _OpenSpan(
            id=next(self._ids),
            name=name,
            cat=cat,
            kind=kind,
            track=track,
            parent_id=stack[-1].id if stack else None,
            layer=layer,
            device=device,
            nbytes=nbytes,
            args=dict(args),
            start=time.perf_counter(),
        )
        stack.append(open_span)
        try:
            yield open_span
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(
                id=open_span.id,
                name=open_span.name,
                cat=open_span.cat,
                kind=open_span.kind,
                domain="wall",
                track=open_span.track,
                start_s=open_span._start - self._origin,
                duration_s=end - open_span._start,
                parent_id=open_span.parent_id,
                layer=open_span.layer,
                device=open_span.device,
                nbytes=open_span.nbytes,
                args=open_span.args,
            )
            with self._lock:
                self.spans.append(span)

    # -- modeled-time spans --------------------------------------------------

    def record_modeled(
        self,
        name: str,
        *,
        cat: str,
        kind: str,
        seconds: float,
        track: str = "request",
        layer: int | None = None,
        device: int | None = None,
        nbytes: float | None = None,
        **args,
    ) -> Span:
        """Append a simulated-duration span; the track cursor advances by it."""
        _check_kind(kind)
        if seconds < 0:
            raise ValueError(f"modeled span duration must be >= 0, got {seconds}")
        with self._lock:
            start = self._cursors.get(track, 0.0)
            self._cursors[track] = start + seconds
            span = Span(
                id=next(self._ids),
                name=name,
                cat=cat,
                kind=kind,
                domain="model",
                track=track,
                start_s=start,
                duration_s=seconds,
                layer=layer,
                device=device,
                nbytes=nbytes,
                args=dict(args),
            )
            self.spans.append(span)
            return span

    def record_at(
        self,
        name: str,
        *,
        cat: str,
        kind: str,
        start_s: float,
        duration_s: float,
        track: str,
        layer: int | None = None,
        device: int | None = None,
        nbytes: float | None = None,
        **args,
    ) -> Span:
        """Append a modeled span with an explicit start time (engine request
        timelines)."""
        _check_kind(kind)
        if duration_s < 0:
            raise ValueError(f"span duration must be >= 0, got {duration_s}")
        with self._lock:
            self._cursors[track] = max(
                self._cursors.get(track, 0.0), start_s + duration_s
            )
            span = Span(
                id=next(self._ids),
                name=name,
                cat=cat,
                kind=kind,
                domain="model",
                track=track,
                start_s=start_s,
                duration_s=duration_s,
                layer=layer,
                device=device,
                nbytes=nbytes,
                args=dict(args),
            )
            self.spans.append(span)
            return span

    # -- queries ---------------------------------------------------------------

    def modeled_seconds(self, track: str = "request") -> float:
        """Current cursor of a modeled track (total simulated time laid out)."""
        with self._lock:
            return self._cursors.get(track, 0.0)

    def filter(
        self, cat: str | None = None, kind: str | None = None, name: str | None = None
    ) -> list[Span]:
        with self._lock:
            spans = list(self.spans)
        if cat is not None:
            spans = [s for s in spans if s.cat == cat]
        if kind is not None:
            spans = [s for s in spans if s.kind == kind]
        if name is not None:
            spans = [s for s in spans if s.name == name]
        return spans

    def children_of(self, span: Span) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.parent_id == span.id]

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

    def __bool__(self) -> bool:
        # a tracer with no spans yet must still be truthy (len() would
        # otherwise make `if tracer:` silently skip installing it)
        return True


class NullTracer:
    """Do-nothing tracer returned by :func:`current_tracer` when tracing is off."""

    enabled = False
    spans: tuple = ()

    @contextmanager
    def span(self, name, **kwargs):
        yield _NULL_SPAN

    def record_modeled(self, name, **kwargs) -> None:
        return None

    def record_at(self, name, **kwargs) -> None:
        return None

    def modeled_seconds(self, track: str = "request") -> float:
        return 0.0

    def filter(self, cat=None, kind=None, name=None) -> list:
        return []

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()

_current: Tracer | None = None
_current_lock = threading.Lock()


def current_tracer() -> Tracer | NullTracer:
    """The installed tracer, or the shared no-op one."""
    return _current if _current is not None else NULL_TRACER


def set_tracer(tracer: Tracer | None) -> None:
    """Install (or clear, with None) the process-wide tracer."""
    global _current
    with _current_lock:
        _current = tracer


@contextmanager
def use_tracer(tracer: Tracer):
    """Install ``tracer`` for the duration of the block (threads included:
    workers spawned inside the block observe it via :func:`current_tracer`)."""
    global _current
    with _current_lock:
        previous = _current
        _current = tracer
    try:
        yield tracer
    finally:
        with _current_lock:
            _current = previous
