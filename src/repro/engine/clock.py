"""Engine time sources: deterministic virtual time or wall time.

The engine replays an arrival stream against a clock.  Two implementations
share one tiny interface:

- :class:`VirtualClock` — simulated seconds.  ``advance`` charges service
  time explicitly (from a deterministic step-cost model) and ``wait_until``
  jumps straight to the next event, so a whole soak run takes milliseconds
  of wall time and every scheduling decision is reproducible bit-for-bit
  across hosts.  This is the default, and the only mode the CI soak lane
  and the ``serve`` bench use.
- :class:`WallClock` — real elapsed time via ``time.perf_counter`` since
  construction.  ``advance`` is a no-op because real time already passed
  while the model computed; ``wait_until`` sleeps.  Use this to drive the
  engine against live load.

Both clocks report time in *request-stream seconds* — the same time base as
``Request.arrival`` / ``Request.deadline`` — so the scheduler never needs
to know which mode it is running under.
"""

from __future__ import annotations

import time

__all__ = ["VirtualClock", "WallClock"]


class VirtualClock:
    """Deterministic simulated time; the engine's default time source."""

    is_virtual = True

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Charge ``seconds`` of simulated service time."""
        if seconds < 0:
            raise ValueError(f"cannot advance time by {seconds} s")
        self._now += seconds

    def wait_until(self, deadline: float) -> None:
        """Jump to ``deadline`` (no-op if it already passed)."""
        self._now = max(self._now, deadline)


class WallClock:
    """Real time in seconds since the clock was built."""

    is_virtual = False

    def __init__(self):
        self._origin = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self._origin

    def advance(self, seconds: float) -> None:
        """No-op: wall time already elapsed while the work ran."""

    def wait_until(self, deadline: float) -> None:
        remaining = deadline - self.now()
        if remaining > 0:
            time.sleep(remaining)
