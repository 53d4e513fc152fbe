"""Bounded pool of KV-cache slots for in-flight decodes.

The engine's memory story (INTERNALS §10): a fixed number of *slots*, each
owning one :class:`~repro.models.cache.LayerKVCache` per model layer.  A
request occupies exactly one slot from prefill to completion.  Before
anything is written into it, the slot reserves (:meth:`KVSlot.reserve`)
its request's capacity rounded up to a power of two and capped at the
pool's ``capacity`` (``max_positions``): a *size class*, so a short
request holds K/V for the positions it can use, not for the model's whole
budget, and a slot grows at most a few times in its life.  When a request finishes (or
is preempted/cancelled) the slot's caches are rolled back with
``truncate(0)`` — the backing buffers survive, so the next request of the
same class appends into memory allocated once, early in the engine's life.
Per-step scratch is not the slot's: every slot of a backend shares that
backend's one :class:`~repro.tensor.workspace.Workspace`.

The pool is the engine's *admission currency*: a decode cannot start
without a slot, and a saturated pool is what turns arrivals into queueing
and — past the queue bound — into load shedding.

**Retention** (INTERNALS §16): with ``retained_slots > 0`` the pool holds
that many *extra* physical slots beyond the concurrency bound, and
``release(slot, retain=True)`` parks a finished slot *untruncated* instead
of recycling it — the prefix cache keys those parked prompt rows so later
requests can :meth:`KVSlot.copy_prefix_from` them instead of re-prefilling.
Concurrency stays capped at ``num_slots``: :meth:`acquire` never hands out
more than that many slots at once, and a retained slot re-enters service
only through :meth:`reclaim` (which is where eviction lands).  Buffers are
never freed either way, so once the traffic's size classes have been seen
the zero-steady-state-allocation invariant (``allocations()`` flat across
runs) holds with retention enabled.
"""

from __future__ import annotations

import threading

from repro.models.cache import LayerKVCache

__all__ = ["KVSlot", "SlotPool"]


class KVSlot:
    """One slot: per-layer caches + a reuse generation.

    ``capacity`` is the most positions a request may bring (the model's
    ``max_positions``); the caches allocate nothing until the first
    :meth:`reserve` or append."""

    def __init__(self, index: int, num_layers: int, capacity: int):
        self.index = index
        self.capacity = capacity
        self.caches = [LayerKVCache() for _ in range(num_layers)]
        self.generation = 0  # bumped on every recycle; stale holders can detect reuse

    @property
    def length(self) -> int:
        return self.caches[0].length if self.caches else 0

    def reserve(self, positions: int) -> None:
        """Size every layer cache for a request of ``positions`` positions:
        its size class — ``positions`` rounded up to a power of two, capped
        at :attr:`capacity`.  Call before anything is written, so a slot
        seeded with a cached prefix still allocates once."""
        size = min(1 << max(positions - 1, 0).bit_length(), self.capacity)
        for cache in self.caches:
            cache.reserve(size)

    def truncate(self, length: int) -> None:
        """Roll every layer cache back to ``length`` valid rows (shrink-only)."""
        for cache in self.caches:
            cache.truncate(length)

    def copy_prefix_from(self, donor: "KVSlot", length: int) -> None:
        """Seed this (empty) slot with the first ``length`` cached rows of
        ``donor`` — a byte-exact copy into this slot's own buffers, so the
        donor stays immutable and refcounting stays simple (no cross-slot
        aliasing to invalidate)."""
        if self.length != 0:
            raise ValueError(
                f"slot {self.index} must be empty to seed a prefix (length {self.length})"
            )
        if length < 0 or length > donor.length:
            raise ValueError(
                f"cannot copy {length} rows from donor slot {donor.index} "
                f"holding {donor.length}"
            )
        if length == 0:
            return
        for mine, theirs in zip(self.caches, donor.caches):
            mine.append(theirs.k[:, :length], theirs.v[:, :length])

    def reset(self) -> None:
        """Roll every layer cache back to empty, keeping the buffers."""
        self.truncate(0)
        self.generation += 1

    def allocations(self) -> int:
        """Total backing-buffer allocations across the slot's caches."""
        return sum(cache.allocations for cache in self.caches)


class SlotPool:
    """Fixed-size pool; acquire/release is thread-safe and non-blocking.

    ``num_layers`` may be 0 for sequencers that keep no per-request model
    state (e.g. the one-shot Voltage forward path) — the pool then only
    bounds concurrency.

    ``retained_slots`` adds physical slots that exist purely to park
    finished KV state for the prefix cache; at most ``num_slots`` slots are
    ever checked out concurrently regardless.
    """

    def __init__(
        self, num_slots: int, num_layers: int, capacity: int, retained_slots: int = 0
    ):
        if num_slots < 1:
            raise ValueError(f"need >= 1 slot, got {num_slots}")
        if num_layers < 0 or capacity < 1:
            raise ValueError(
                f"invalid slot geometry: num_layers={num_layers}, capacity={capacity}"
            )
        if retained_slots < 0:
            raise ValueError(f"retained_slots must be >= 0, got {retained_slots}")
        self.num_slots = num_slots
        self.retained_slots = retained_slots
        self.capacity = capacity
        self._lock = threading.Lock()
        self._slots = [
            KVSlot(i, num_layers, capacity) for i in range(num_slots + retained_slots)
        ]
        self._free = list(reversed(self._slots))  # pop() hands out slot 0 first
        self._in_use: set[int] = set()
        self._retained: set[int] = set()

    @property
    def in_use(self) -> int:
        with self._lock:
            return len(self._in_use)

    @property
    def num_free(self) -> int:
        with self._lock:
            return len(self._free)

    @property
    def num_retained(self) -> int:
        with self._lock:
            return len(self._retained)

    def acquire(self) -> KVSlot | None:
        """A free slot, or None when no clean slot is free or the
        concurrency bound ``num_slots`` is met (never blocks)."""
        with self._lock:
            if not self._free or len(self._in_use) >= self.num_slots:
                return None
            slot = self._free.pop()
            self._in_use.add(slot.index)
            return slot

    def release(self, slot: KVSlot, retain: bool = False) -> None:
        """Recycle a slot — or, with ``retain=True``, park it with its cached
        rows intact for the prefix cache (the caller keys them)."""
        with self._lock:
            if slot.index not in self._in_use:
                raise ValueError(f"slot {slot.index} is not checked out")
            self._in_use.remove(slot.index)
            if retain:
                if slot.length == 0:
                    raise ValueError(
                        f"slot {slot.index} has no cached rows to retain"
                    )
                self._retained.add(slot.index)
            else:
                slot.reset()
                self._free.append(slot)

    def reclaim(self, slot: KVSlot, checkout: bool = False) -> KVSlot:
        """Take a retained slot back into service: its rows are dropped and
        it either returns to the free list or (``checkout=True``) is handed
        straight out as an acquired slot — the eviction path."""
        with self._lock:
            if slot.index not in self._retained:
                raise ValueError(f"slot {slot.index} is not retained")
            if checkout and len(self._in_use) >= self.num_slots:
                # check before mutating: a refused checkout must leave the
                # slot parked, not orphaned outside every pool set
                raise RuntimeError(
                    f"cannot check out reclaimed slot {slot.index}: "
                    f"{len(self._in_use)} slots already in use (bound {self.num_slots})"
                )
            self._retained.remove(slot.index)
            slot.reset()
            if checkout:
                self._in_use.add(slot.index)
            else:
                self._free.append(slot)
            return slot

    def allocations(self) -> int:
        """Backing allocations across all slots (flat once every slot has
        seen its largest size class)."""
        return sum(slot.allocations() for slot in self._slots)

    def nbytes(self) -> int:
        """Bytes of K/V backing buffers held across all slots."""
        return sum(cache.nbytes for slot in self._slots for cache in slot.caches)
