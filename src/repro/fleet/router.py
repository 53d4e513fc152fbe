"""Request routing across replicas: four pluggable, deterministic policies.

A router sees the live replica set (ordered by spawn index) and picks one
replica per request.  Every policy is deterministic given its seed and the
request stream, which is what makes whole fleet runs replayable:

- ``round-robin`` — cycle through the live set; the baseline that ignores
  load entirely.
- ``least-loaded`` — minimise backlog: ``queue_depth + slots_in_use``
  (every replica runs the same model, so one request is one unit of
  work).  Ties break on spawn index.
- ``power-of-two`` — sample two distinct replicas with a seeded RNG and
  take the less loaded (the classic two-choices result: near-least-loaded
  balance at O(1) state probes).  The sampled pair is kept on
  ``last_pair`` for tests/debugging.
- ``affinity`` — rendezvous (highest-random-weight) hashing of the
  request's session key (``tenant``, falling back to the request id) over
  the live replica *names*: a session stays on one replica while that
  replica lives, and a membership change only remaps the sessions that
  hashed to the departed replica — no global reshuffle.

Routers only need a tiny replica protocol: ``name``, ``index``,
``queue_depth``, ``slots_in_use`` — satisfied by
:class:`repro.fleet.fleet.Replica` and by plain test fakes.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.serving.arrivals import Request

__all__ = [
    "ROUTER_POLICIES",
    "replica_load",
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "PowerOfTwoRouter",
    "SessionAffinityRouter",
    "make_router",
]

ROUTER_POLICIES = ("round-robin", "least-loaded", "power-of-two", "affinity")


def replica_load(replica) -> int:
    """Backlog: the requests it holds, queued or in a slot."""
    return replica.queue_depth + replica.slots_in_use


class Router:
    """Base: a named policy choosing one replica per request."""

    policy = "abstract"

    def choose(self, request: Request, replicas: list):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}(policy={self.policy!r})"


class RoundRobinRouter(Router):
    policy = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, request: Request, replicas: list):
        if not replicas:
            raise ValueError("cannot route: no live replicas")
        replica = replicas[self._next % len(replicas)]
        self._next += 1
        return replica


class LeastLoadedRouter(Router):
    policy = "least-loaded"

    def choose(self, request: Request, replicas: list):
        if not replicas:
            raise ValueError("cannot route: no live replicas")
        return min(replicas, key=lambda r: (replica_load(r), r.index))


class PowerOfTwoRouter(Router):
    """Two seeded samples, keep the better; collapses to the single replica
    when only one is live."""

    policy = "power-of-two"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self.last_pair: tuple = ()  # introspection for tests/debugging

    def choose(self, request: Request, replicas: list):
        if not replicas:
            raise ValueError("cannot route: no live replicas")
        if len(replicas) == 1:
            self.last_pair = (replicas[0],)
            return replicas[0]
        i, j = self._rng.choice(len(replicas), size=2, replace=False)
        pair = (replicas[int(i)], replicas[int(j)])
        self.last_pair = pair
        return min(pair, key=lambda r: (replica_load(r), r.index))


def _session_key(request: Request) -> str:
    return request.tenant if request.tenant is not None else f"req-{request.id}"


def _rendezvous_score(key: str, replica_name: str) -> int:
    # crc32 is stable across processes and platforms (unlike hash(), which
    # is salted per interpreter) — determinism is the whole point here.
    return zlib.crc32(f"{key}|{replica_name}".encode())


class SessionAffinityRouter(Router):
    policy = "affinity"

    def choose(self, request: Request, replicas: list):
        if not replicas:
            raise ValueError("cannot route: no live replicas")
        key = _session_key(request)
        return max(replicas, key=lambda r: (_rendezvous_score(key, r.name), r.name))


def make_router(policy: str, seed: int = 0) -> Router:
    """Build a fresh router for one fleet run."""
    if policy == "round-robin":
        return RoundRobinRouter()
    if policy == "least-loaded":
        return LeastLoadedRouter()
    if policy == "power-of-two":
        return PowerOfTwoRouter(seed=seed)
    if policy == "affinity":
        return SessionAffinityRouter()
    raise ValueError(f"policy must be one of {ROUTER_POLICIES}, got {policy!r}")
