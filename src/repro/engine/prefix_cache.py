"""Cross-request prefix cache: a refcounted radix trie over retained KV slots.

Requests in real serving share prompt prefixes — per-tenant system
preambles, few-shot headers, conversation history — and re-prefilling the
shared part is pure redone work.  This module keys *retained* slots
(:meth:`~repro.engine.slots.SlotPool.release` with ``retain=True``) by
their prompt token ids in a compressed radix trie, so a new request can
find the longest cached prefix of its prompt in O(|prompt|) and seed its
slot with a byte-exact copy of those rows instead of recomputing them.

Design points (INTERNALS §16 has the full story):

- **Prompt rows only.**  Entries hold prefill rows, never decode rows: the
  engine truncates a slot to its prompt length before retaining it.  Batch
  (t >= 2) GEMM rows are bit-stable across batch shapes, single-row decode
  GEMV rows are not — so only prefill rows are safely reusable if outputs
  must stay bit-identical to ``generate_cached``.
- **Capped matches.**  :meth:`match` never returns more than ``limit``
  tokens (the engine passes ``len(prompt) - 2``), so the suffix re-prefill
  is always a multi-row GEMM — same bit-stability argument.
- **Refcounts guard the copy window.**  :meth:`pin`/:meth:`unpin` (or the
  :meth:`pinned` context manager) protect an entry while its rows are being
  copied; eviction only ever removes refcount-0 entries, so a donor can
  never be reclaimed mid-copy.  Pins are transient, which is what makes
  refcount-0-only eviction deadlock-free: by the time the engine needs a
  victim, nothing is pinned.
- **LRU eviction, explicit recycling.**  :meth:`evict_lru` removes the
  least-recently-used refcount-0 entry and returns it; the caller reclaims
  its slot (checkout for a new request, or back to the free list).  Entries
  displaced by a subsuming :meth:`insert` are recycled through the
  ``on_release`` callback.

The trie itself is standard compressed-radix: edges are token-id runs,
nodes exist only on entry paths, and the longest-common-prefix walk equals
a brute-force max-common-prefix scan over all entries (property-tested
with Hypothesis in ``tests/engine/test_prefix_cache.py``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace

__all__ = ["PrefixEntry", "PrefixCacheStats", "RadixPrefixCache"]


@dataclass
class PrefixEntry:
    """One retained slot keyed by the token ids its cached rows cover."""

    key: tuple[int, ...]
    slot: object  # the retained KVSlot (opaque to the trie)
    refcount: int = 0
    stamp: int = 0  # LRU clock: bumped on insert and on every match served
    hits: int = 0


@dataclass
class PrefixCacheStats:
    """Monotonic counters; snapshot/delta give per-run views."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    displaced: int = 0  # entries removed because a longer key subsumed them
    evictions: int = 0
    positions_saved: int = 0  # prefill positions served from cache copies

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "PrefixCacheStats":
        return replace(self)

    def delta(self, since: "PrefixCacheStats") -> "PrefixCacheStats":
        return PrefixCacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            inserts=self.inserts - since.inserts,
            displaced=self.displaced - since.displaced,
            evictions=self.evictions - since.evictions,
            positions_saved=self.positions_saved - since.positions_saved,
        )

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "inserts": self.inserts,
            "displaced": self.displaced,
            "evictions": self.evictions,
            "positions_saved": self.positions_saved,
        }


class _Node:
    """Trie node: ``edge`` labels the run of token ids from its parent."""

    __slots__ = ("edge", "children", "entry")

    def __init__(self, edge: tuple[int, ...] = ()):
        self.edge = edge
        self.children: dict[int, _Node] = {}  # first edge token -> child
        self.entry: PrefixEntry | None = None


def _common_len(a: Sequence[int], b: Sequence[int]) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


class RadixPrefixCache:
    """Longest-prefix lookup over retained slots, refcounted against reuse.

    Any non-empty shared prefix is served (a 1-row copy saves almost
    nothing but is still correct).  ``on_release(slot)`` is invoked for
    every slot this cache lets go of through dedup displacement or rejected
    inserts; the engine binds it to ``pool.reclaim`` so parked slots flow
    back to free.
    """

    def __init__(self, on_release: Callable[[object], object] | None = None):
        self.stats = PrefixCacheStats()
        self._on_release = on_release if on_release is not None else (lambda slot: slot)
        self._root = _Node()
        self._entries: list[PrefixEntry] = []
        self._clock = 0

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[PrefixEntry]:
        return list(self._entries)

    def keys(self) -> list[tuple[int, ...]]:
        return [entry.key for entry in self._entries]

    def evictable(self) -> bool:
        """Whether :meth:`evict_lru` could currently free a slot."""
        return any(entry.refcount == 0 for entry in self._entries)

    # -- refcounting -----------------------------------------------------------

    def pin(self, entry: PrefixEntry) -> None:
        entry.refcount += 1

    def unpin(self, entry: PrefixEntry) -> None:
        if entry.refcount <= 0:
            raise ValueError(
                f"unpin without matching pin on entry {entry.key[:4]}…"
            )
        entry.refcount -= 1

    @contextmanager
    def pinned(self, entry: PrefixEntry):
        """Hold a refcount over the match→copy window."""
        self.pin(entry)
        try:
            yield entry
        finally:
            self.unpin(entry)

    # -- lookup ----------------------------------------------------------------

    def match(
        self, ids: Iterable[int], limit: int | None = None
    ) -> tuple[PrefixEntry, int] | None:
        """The longest cached prefix of ``ids`` (capped at ``limit`` tokens),
        as ``(entry, length)`` where ``entry.slot`` holds at least ``length``
        valid rows — or None (counted as a miss) if no token of ``ids``
        is cached.  Serving a match bumps the entry's LRU stamp."""
        key = tuple(int(t) for t in ids)
        if limit is not None:
            key = key[: max(limit, 0)]
        node, depth = self._root, 0
        while depth < len(key):
            child = node.children.get(key[depth])
            if child is None:
                break
            consumed = _common_len(child.edge, key[depth:])
            depth += consumed
            node = child
            if consumed < len(child.edge):
                break  # diverged mid-edge; everything below shares key[:depth]
        if node is self._root:
            self.stats.misses += 1
            return None
        entry = self._subtree_entry(node)
        self.stats.hits += 1
        self.stats.positions_saved += depth
        entry.hits += 1
        entry.stamp = self._tick()
        return entry, depth

    def _subtree_entry(self, node: _Node) -> PrefixEntry:
        """Any entry at or below ``node`` (deterministic: smallest edge token
        first).  Every node lies on at least one entry's path, so this
        always terminates at an entry."""
        while node.entry is None:
            node = node.children[min(node.children)]
        return node.entry

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    # -- insertion -------------------------------------------------------------

    def insert(self, key: Iterable[int], slot: object) -> PrefixEntry | None:
        """Retain ``slot`` (holding one cached row per token of ``key``)
        under ``key``.  Returns the new entry, or None when an existing
        entry already covers the key — the slot is then handed back through
        ``on_release``.  Existing unpinned entries whose keys are strict
        prefixes of ``key`` are displaced (their slots released too): the
        longer entry serves every lookup the shorter one could."""
        key = tuple(int(t) for t in key)
        if not key:
            self._on_release(slot)
            return None
        for existing in self._entries:
            if len(existing.key) >= len(key) and existing.key[: len(key)] == key:
                existing.stamp = self._tick()  # the cover stays warm
                self._on_release(slot)
                return None
        for existing in [
            e
            for e in self._entries
            if len(e.key) < len(key)
            and e.refcount == 0
            and key[: len(e.key)] == e.key
        ]:
            self._remove(existing)
            self.stats.displaced += 1
            self._on_release(existing.slot)
        entry = PrefixEntry(key=key, slot=slot, stamp=self._tick())
        self._insert_node(entry)
        self._entries.append(entry)
        self.stats.inserts += 1
        return entry

    def _insert_node(self, entry: PrefixEntry) -> None:
        node, depth = self._root, 0
        key = entry.key
        while True:
            remaining = key[depth:]
            if not remaining:
                node.entry = entry  # exact-path terminal (shorter-key node split)
                return
            child = node.children.get(remaining[0])
            if child is None:
                leaf = _Node(edge=remaining)
                leaf.entry = entry
                node.children[remaining[0]] = leaf
                return
            consumed = _common_len(child.edge, remaining)
            if consumed == len(child.edge):
                node, depth = child, depth + consumed
                continue
            # split the edge at the divergence point
            mid = _Node(edge=child.edge[:consumed])
            child.edge = child.edge[consumed:]
            mid.children[child.edge[0]] = child
            node.children[mid.edge[0]] = mid
            node, depth = mid, depth + consumed

    # -- removal ---------------------------------------------------------------

    def remove(self, entry: PrefixEntry) -> None:
        """Drop an entry explicitly (its slot is NOT released — caller's)."""
        if entry.refcount != 0:
            raise ValueError(
                f"cannot remove pinned entry (refcount {entry.refcount})"
            )
        self._remove(entry)

    def _remove(self, entry: PrefixEntry) -> None:
        self._entries.remove(entry)
        # walk the exact path, recording parents for pruning
        path: list[tuple[_Node, _Node]] = []  # (parent, child) pairs
        node, depth = self._root, 0
        while depth < len(entry.key):
            child = node.children[entry.key[depth]]
            path.append((node, child))
            depth += len(child.edge)
            node = child
        if node.entry is not entry:
            raise AssertionError(f"trie desync: entry {entry.key[:4]}… not at its node")
        node.entry = None
        # prune empty leaves upward, then merge single-child pass-through nodes
        for parent, child in reversed(path):
            if child.entry is None and not child.children:
                del parent.children[child.edge[0]]
            elif child.entry is None and len(child.children) == 1:
                only = next(iter(child.children.values()))
                only.edge = child.edge + only.edge
                parent.children[only.edge[0]] = only  # replaces child (same first id)
                break
            else:
                break

    # -- eviction --------------------------------------------------------------

    def evict_lru(self) -> PrefixEntry | None:
        """Remove and return the least-recently-used refcount-0 entry (None
        when everything is pinned or the cache is empty).  The caller owns
        the returned entry's slot — typically ``pool.reclaim(entry.slot)``."""
        victims = [entry for entry in self._entries if entry.refcount == 0]
        if not victims:
            return None
        entry = min(victims, key=lambda e: e.stamp)
        self._remove(entry)
        self.stats.evictions += 1
        return entry
