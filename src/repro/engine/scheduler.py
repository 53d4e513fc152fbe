"""Admission queue + dispatch policy + load shedding for the online engine.

Three scheduling policies over one bounded queue:

- ``fifo`` — strict arrival order (the paper's sporadic single-request
  stream; with one slot the engine then serves requests strictly one at a
  time, each holding the whole model until it finishes).
- ``priority`` — higher ``Request.priority`` first, arrival order within a
  class; the only policy under which preemption is meaningful.
- ``edf`` — earliest deadline first; deadline-less requests sort last.

Shedding happens at two points and is always *explicit* (a shed request is
returned to the caller with a reason, never silently dropped):

- **admission**: the queue is bounded (``max_queue``); an arrival that
  finds it full is shed with reason ``"queue-full"`` — this is the
  backpressure signal an upstream load balancer would see as HTTP 429.
- **dispatch**: a queued request whose deadline has already passed (or
  provably cannot be met, when the caller supplies a service-time
  estimate) is shed with reason ``"deadline"`` instead of wasting a slot
  on an answer nobody is waiting for.

The scheduler is single-owner (the engine loop); a lock still guards the
queue so live submissions from other threads are safe.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass
from collections.abc import Callable

from repro.serving.arrivals import Request

__all__ = ["POLICIES", "ShedRequest", "Scheduler"]

POLICIES = ("fifo", "priority", "edf")

#: Shed reasons (stable strings — they label metrics and land in reports).
SHED_QUEUE_FULL = "queue-full"
SHED_DEADLINE = "deadline"


@dataclass(frozen=True)
class ShedRequest:
    """A request the engine refused, when, and why."""

    request: Request
    time: float
    reason: str


class Scheduler:
    """Bounded, policy-ordered admission queue with deadline shedding."""

    def __init__(
        self,
        policy: str = "fifo",
        max_queue: int | None = None,
        shed_on_deadline: bool = True,
        service_estimate: Callable[[Request], float] | None = None,
    ):
        """``service_estimate`` (optional, ``request -> seconds``) tightens
        deadline shedding: a queued request is dropped as soon as
        ``now + estimate > deadline``, not only once the deadline passes.
        """
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1 or None, got {max_queue}")
        self.policy = policy
        self.max_queue = max_queue
        self.shed_on_deadline = shed_on_deadline
        self.service_estimate = service_estimate
        self._lock = threading.Lock()
        self._heap: list[tuple] = []
        self._tie = itertools.count()
        self.shed: list[ShedRequest] = []

    def _key(self, request: Request) -> tuple:
        if self.policy == "priority":
            return (-request.priority, request.arrival, request.id)
        if self.policy == "edf":
            deadline = request.deadline if request.deadline is not None else float("inf")
            return (deadline, request.arrival, request.id)
        return (request.arrival, request.id)

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._heap)

    # -- admission -------------------------------------------------------------

    def submit(self, request: Request, now: float) -> ShedRequest | None:
        """Enqueue an arrival; returns the shed record if it was refused."""
        with self._lock:
            if self.max_queue is not None and len(self._heap) >= self.max_queue:
                record = ShedRequest(request=request, time=now, reason=SHED_QUEUE_FULL)
                self.shed.append(record)
                return record
            heapq.heappush(self._heap, (self._key(request), next(self._tie), request))
            return None

    def requeue(self, request: Request) -> None:
        """Re-admit a preempted request, bypassing the queue bound.

        A preempted request was already admitted once; bouncing it off a
        momentarily-full queue would turn preemption into silent request
        loss, which the engine's no-drop guarantee forbids.
        """
        with self._lock:
            heapq.heappush(self._heap, (self._key(request), next(self._tie), request))

    # -- dispatch --------------------------------------------------------------

    def _hopeless(self, request: Request, now: float) -> bool:
        if not self.shed_on_deadline or request.deadline is None:
            return False
        if now > request.deadline:
            return True
        if self.service_estimate is not None:
            return now + self.service_estimate(request) > request.deadline
        return False

    def next_ready(self, now: float) -> Request | None:
        """Pop the best dispatchable request, shedding hopeless ones en route."""
        with self._lock:
            while self._heap:
                _, _, request = heapq.heappop(self._heap)
                if self._hopeless(request, now):
                    self.shed.append(
                        ShedRequest(request=request, time=now, reason=SHED_DEADLINE)
                    )
                    continue
                return request
            return None

    def best_waiting_priority(self) -> int | None:
        """Highest priority currently queued (None when empty); used by the
        engine to decide whether a running decode should be preempted."""
        with self._lock:
            if not self._heap:
                return None
            if self.policy == "priority":
                return -self._heap[0][0][0]
            return max(request.priority for _, _, request in self._heap)
