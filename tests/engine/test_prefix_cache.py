"""Property + unit tests for the refcounted prefix cache.

The contract: the longest-common-prefix match must equal a brute-force
max-common-prefix scan over all inserted keys, ties going to the smallest
key (Hypothesis, small alphabet so prefixes actually collide), refcounts
can never go negative, eviction only ever removes refcount-0 entries, and
a KV insert → match → copy round-trip through real slots is byte-exact
for both fp32 and fp16 payloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import PrefixCache, PrefixCacheStats, SlotPool

# a tiny alphabet makes shared prefixes (and ties between entries) common
keys = st.lists(st.integers(0, 5), min_size=1, max_size=10).map(tuple)
key_sets = st.lists(keys, min_size=1, max_size=12)


def common_len(key: tuple[int, ...], query: tuple[int, ...]) -> int:
    n = 0
    while n < min(len(key), len(query)) and key[n] == query[n]:
        n += 1
    return n


def brute_force_lcp(stored: list[tuple[int, ...]], query: tuple[int, ...]) -> int:
    return max((common_len(key, query) for key in stored), default=0)


class TestMatchEqualsBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(inserted=key_sets, query=keys, limit=st.none() | st.integers(0, 10))
    def test_longest_prefix_walk_equals_brute_force(self, inserted, query, limit):
        cache = PrefixCache()
        for i, key in enumerate(inserted):
            cache.insert(key, slot=("slot", i))
        capped = query if limit is None else query[: max(limit, 0)]
        expected = brute_force_lcp(cache.keys(), capped)
        result = cache.match(query, limit=limit)
        if expected > 0:
            assert result is not None
            entry, depth = result
            assert depth == expected
            assert entry.key[:depth] == capped[:depth]
            assert len(entry.key) >= depth
            # ties go to the smallest key (the serve baseline's LRU evictions
            # depend on which entry a match refreshes)
            tied = [key for key in cache.keys() if common_len(key, capped) == depth]
            assert entry.key == min(tied)
        else:
            assert result is None

    @settings(max_examples=100, deadline=None)
    @given(inserted=key_sets, draws=st.data(), query=keys)
    def test_match_stays_exact_after_removals(self, inserted, draws, query):
        """The match stays exact after every LRU eviction, with a drawn
        subset pinned so only unpinned entries ever leave."""
        cache = PrefixCache()
        for i, key in enumerate(inserted):
            cache.insert(key, slot=("slot", i))
        pinned = [e for e in cache.entries() if draws.draw(st.booleans(), label=f"pin {e.key}")]
        for entry in pinned:
            cache.pin(entry)
        count = draws.draw(st.integers(0, len(cache)), label="removals")
        for _ in range(count):
            victim = cache.evict_lru()
            if victim is None:
                assert cache.entries() == pinned
                break
            assert victim.refcount == 0 and victim not in cache.entries()
            expected = brute_force_lcp(cache.keys(), query)
            result = cache.match(query)
            depth = result[1] if result is not None else 0
            assert depth == expected


class TestRefcounts:
    def test_refcounts_never_go_negative(self):
        cache = PrefixCache()
        entry = cache.insert((1, 2, 3), slot="s")
        cache.pin(entry)
        cache.unpin(entry)
        assert entry.refcount == 0
        with pytest.raises(ValueError, match="unpin without matching pin"):
            cache.unpin(entry)
        assert entry.refcount == 0

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(st.booleans(), max_size=30))
    def test_random_pin_unpin_sequences_stay_non_negative(self, ops):
        cache = PrefixCache()
        entry = cache.insert((1, 2), slot="s")
        outstanding = 0
        for pin in ops:
            if pin:
                cache.pin(entry)
                outstanding += 1
            elif outstanding > 0:
                cache.unpin(entry)
                outstanding -= 1
            else:
                with pytest.raises(ValueError):
                    cache.unpin(entry)
            assert entry.refcount == outstanding
            assert entry.refcount >= 0

    def test_pinned_context_manager_is_transient(self):
        cache = PrefixCache()
        entry = cache.insert((4, 5, 6), slot="s")
        with cache.pinned(entry):
            assert entry.refcount == 1
            assert not cache.evictable()
        assert entry.refcount == 0
        assert cache.evictable()


class TestEviction:
    def test_eviction_only_removes_refcount_zero_entries(self):
        cache = PrefixCache()
        pinned = cache.insert((1, 1, 1), slot="pinned")
        cold = cache.insert((2, 2, 2), slot="cold")
        warm = cache.insert((3, 3, 3), slot="warm")
        cache.pin(pinned)
        assert cache.evict_lru() is cold  # oldest unpinned stamp
        assert cache.evict_lru() is warm
        assert cache.evict_lru() is None  # only the pinned entry remains
        assert cache.entries() == [pinned]
        cache.unpin(pinned)
        assert cache.evict_lru() is pinned
        assert len(cache) == 0

    def test_match_refreshes_the_lru_stamp(self):
        cache = PrefixCache()
        first = cache.insert((1, 2, 3), slot="a")
        cache.insert((7, 8, 9), slot="b")
        cache.match((1, 2, 3, 4))  # first becomes most recently used
        victim = cache.evict_lru()
        assert victim is not first
        assert victim.key == (7, 8, 9)

    @settings(max_examples=100, deadline=None)
    @given(inserted=key_sets, pin_mask=st.data())
    def test_pinned_entries_always_survive_full_eviction(self, inserted, pin_mask):
        cache = PrefixCache()
        for i, key in enumerate(inserted):
            cache.insert(key, slot=("slot", i))
        pinned = [
            e
            for e in cache.entries()
            if pin_mask.draw(st.booleans(), label=f"pin {e.key}")
        ]
        for entry in pinned:
            cache.pin(entry)
        before = len(cache)
        while (victim := cache.evict_lru()) is not None:
            assert victim.refcount == 0
            assert victim not in pinned
        assert cache.entries() == pinned
        assert cache.stats.evictions == before - len(pinned)


class TestInsertSemantics:
    def test_covered_insert_is_rejected_and_slot_released(self):
        released = []
        cache = PrefixCache(on_release=released.append)
        cache.insert((1, 2, 3, 4), slot="long")
        assert cache.insert((1, 2), slot="short") is None
        assert released == ["short"]
        assert cache.keys() == [(1, 2, 3, 4)]

    def test_longer_insert_displaces_unpinned_prefix_entries(self):
        released = []
        cache = PrefixCache(on_release=released.append)
        cache.insert((1, 2), slot="short")
        cache.insert((1, 2, 3, 4), slot="long")
        assert released == ["short"]
        assert cache.keys() == [(1, 2, 3, 4)]
        assert cache.stats.displaced == 1

    def test_pinned_prefix_entry_is_not_displaced(self):
        cache = PrefixCache()
        short = cache.insert((1, 2), slot="short")
        cache.pin(short)
        cache.insert((1, 2, 3, 4), slot="long")
        assert sorted(cache.keys()) == [(1, 2), (1, 2, 3, 4)]
        cache.unpin(short)

    def test_empty_key_released(self):
        released = []
        cache = PrefixCache(on_release=released.append)
        assert cache.insert((), slot="empty") is None
        assert released == ["empty"]
        assert len(cache) == 0


class TestKVRoundTrip:
    """insert → match → pinned copy must be byte-exact, fp32 and fp16."""

    HEADS, HEAD_DIM, LAYERS = 2, 4, 3

    def fill(self, slot, rows, rng, dtype):
        for cache in slot.caches:
            step = rng.normal(size=(self.HEADS, rows, self.HEAD_DIM)).astype(dtype)
            cache.append(step, rng.normal(size=step.shape).astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_copy_round_trip_byte_exact(self, dtype, rng):
        pool = SlotPool(2, num_layers=self.LAYERS, capacity=16, retained_slots=1)
        cache = PrefixCache(on_release=pool.reclaim)
        donor = pool.acquire()
        self.fill(donor, 10, rng, dtype)
        key = tuple(range(10))
        pool.release(donor, retain=True)
        entry = cache.insert(key, donor)
        assert entry is not None

        match = cache.match(key + (99,), limit=8)
        assert match is not None
        matched_entry, depth = match
        assert matched_entry is entry and depth == 8

        consumer = pool.acquire()
        with cache.pinned(entry):
            consumer.copy_prefix_from(entry.slot, depth)
        assert consumer.length == depth
        for mine, theirs in zip(consumer.caches, donor.caches):
            assert mine.k.tobytes() == np.ascontiguousarray(theirs.k[:, :depth]).tobytes()
            assert mine.v.tobytes() == np.ascontiguousarray(theirs.v[:, :depth]).tobytes()
            assert mine.k.dtype == dtype

    @settings(max_examples=30, deadline=None)
    @given(
        donor_rows=st.integers(2, 12),
        copy_frac=st.floats(0.1, 1.0),
        fp16=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_any_prefix_length_round_trips(self, donor_rows, copy_frac, fp16, seed):
        dtype = np.float16 if fp16 else np.float32
        rng = np.random.default_rng(seed)
        pool = SlotPool(1, num_layers=2, capacity=16, retained_slots=1)
        donor = pool.acquire()
        self.fill(donor, donor_rows, rng, dtype)
        pool.release(donor, retain=True)
        cache = PrefixCache(on_release=pool.reclaim)
        entry = cache.insert(tuple(range(donor_rows)), donor)
        length = max(1, int(donor_rows * copy_frac))
        consumer = pool.acquire()
        with cache.pinned(entry):
            consumer.copy_prefix_from(entry.slot, length)
        for mine, theirs in zip(consumer.caches, donor.caches):
            np.testing.assert_array_equal(mine.k, theirs.k[:, :length])
            np.testing.assert_array_equal(mine.v, theirs.v[:, :length])
            assert mine.k.tobytes() == np.ascontiguousarray(theirs.k[:, :length]).tobytes()


class TestStats:
    def test_counters_track_the_lifecycle(self):
        cache = PrefixCache()
        cache.insert((1, 2, 3), slot="a")
        assert cache.match((1, 2, 3, 4)) is not None  # hit, 3 saved
        assert cache.match((9, 9)) is None  # miss
        cache.evict_lru()
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1
        assert stats.positions_saved == 3
        assert stats.inserts == 1 and stats.evictions == 1
        assert stats.hit_rate == pytest.approx(0.5)
        fresh = PrefixCacheStats()
        assert fresh.lookups == 0 and fresh.hit_rate == 0.0
        as_dict = stats.as_dict()
        assert as_dict["hits"] == 1 and as_dict["positions_saved"] == 3
