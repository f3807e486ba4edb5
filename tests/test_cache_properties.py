"""Tests for :class:`repro.walks.cache.ByteLRUCache`.

Unit tests pin the LRU and budget behaviour on array payloads keyed by
``(u, v)`` pairs.  Hypothesis then drives arbitrary operation sequences
(put/get/clear with varying payload sizes) against a small byte budget
and checks the accounting invariants the memory-cost contracts rely on:

* ``used_bytes`` equals the sum of the resident entries' real payload
  bytes at every point in time;
* ``used_bytes`` never exceeds ``budget.total_bytes``;
* ``peak_bytes`` is monotone non-decreasing and dominates
  ``used_bytes``;
* a hit returns exactly the stored payload (pure memoisation);
* hit/miss/eviction counters are consistent with the operations run.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.walks.cache import ByteLRUCache

KEYS = st.integers(min_value=0, max_value=7)

#: one cache operation: ("put", key, payload_elements) | ("get", key)
#: | ("clear",)
OPS = st.one_of(
    st.tuples(st.just("put"), KEYS, st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("clear")),
)

BUDGETS = st.integers(min_value=0, max_value=512)


def _apply(cache, ops):
    """Run ``ops`` against ``cache`` and a dict shadow of what fits."""
    shadow = {}
    for op in ops:
        if op[0] == "put":
            _, key, elements = op
            payload = np.full(elements, float(key), dtype=np.float64)
            stored = cache.put(key, payload)
            assert stored == (
                cache.enabled
                and payload.nbytes <= cache.budget.total_bytes
            )
            # A refused put leaves the cache untouched, including any
            # previous entry under the same key.
            if stored:
                shadow[key] = payload
        elif op[0] == "get":
            _, key = op
            value = cache.get(key)
            if value is not None:
                np.testing.assert_array_equal(value, shadow[key])
        else:
            cache.clear()
            shadow.clear()
        # Shadow prune: evictions are the cache's business; resync from
        # the cache's own view, then check the byte invariants below.
        shadow = {k: v for k, v in shadow.items() if k in cache}
        assert cache.used_bytes == sum(
            v.nbytes for v in shadow.values()
        )
        assert cache.used_bytes <= cache.budget.total_bytes
        assert cache.peak_bytes >= cache.used_bytes
        assert len(cache) == len(shadow)
    return shadow


class TestByteLRUCache:
    def test_disabled_when_budgetless(self):
        for budget in (None, 0, 0.0):
            cache = ByteLRUCache(budget)
            assert not cache.enabled
            assert not cache.put((0, 1), np.ones(4))
            assert cache.get((0, 1)) is None
            assert cache.used_bytes == 0

    def test_hit_returns_stored_array(self):
        cache = ByteLRUCache(1024)
        weights = np.array([0.5, 1.5, 2.0])
        assert cache.put((3, 4), weights)
        assert cache.get((3, 4)) is weights
        assert cache.hits == 1 and cache.misses == 0

    def test_lru_eviction_order(self):
        entry = np.ones(4)  # 32 bytes
        cache = ByteLRUCache(entry.nbytes * 2)
        cache.put((0, 1), entry)
        cache.put((0, 2), np.ones(4))
        cache.get((0, 1))  # refresh (0, 1): now (0, 2) is LRU
        cache.put((0, 3), np.ones(4))
        assert (0, 1) in cache and (0, 3) in cache
        assert (0, 2) not in cache
        assert cache.evictions == 1

    def test_budget_never_exceeded(self):
        rng = np.random.default_rng(0)
        cache = ByteLRUCache(500)
        for i in range(200):
            cache.put((i, i), np.ones(int(rng.integers(1, 8))))
            assert cache.used_bytes <= cache.budget.total_bytes
        assert cache.peak_bytes <= cache.budget.total_bytes
        assert cache.evictions > 0

    def test_oversized_entry_not_cached(self):
        cache = ByteLRUCache(64)
        kept = np.ones(2)
        assert cache.put((0, 0), kept)
        assert not cache.put((1, 1), np.ones(100))
        assert (1, 1) not in cache
        assert (0, 0) in cache  # existing entries survive the refusal

    def test_replacing_key_releases_old_bytes(self):
        cache = ByteLRUCache(1024)
        cache.put((0, 1), np.ones(64))
        cache.put((0, 1), np.ones(2))
        assert cache.used_bytes == np.ones(2).nbytes

    def test_stats_and_describe(self):
        cache = ByteLRUCache(256)
        cache.put((0, 1), np.ones(4))
        cache.get((0, 1))
        cache.get((9, 9))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert "byte-budget cache" in cache.describe()


class TestByteAccountingProperties:
    @settings(max_examples=150, deadline=None)
    @given(budget=BUDGETS, ops=st.lists(OPS, max_size=30))
    def test_used_bytes_is_sum_of_resident_entries(self, budget, ops):
        cache = ByteLRUCache(budget)
        _apply(cache, ops)

    @settings(max_examples=150, deadline=None)
    @given(budget=BUDGETS, ops=st.lists(OPS, max_size=30))
    def test_peak_is_monotone_and_dominates_used(self, budget, ops):
        cache = ByteLRUCache(budget)
        last_peak = 0
        for op in ops:
            if op[0] == "put":
                cache.put(
                    op[1], np.zeros(op[2], dtype=np.float64)
                )
            elif op[0] == "get":
                cache.get(op[1])
            else:
                cache.clear()
            assert cache.peak_bytes >= last_peak
            assert cache.peak_bytes >= cache.used_bytes
            last_peak = cache.peak_bytes

    @settings(max_examples=100, deadline=None)
    @given(budget=BUDGETS, ops=st.lists(OPS, max_size=30))
    def test_counters_are_consistent(self, budget, ops):
        cache = ByteLRUCache(budget)
        gets = puts = 0
        for op in ops:
            if op[0] == "put":
                puts += 1
                cache.put(op[1], np.zeros(op[2], dtype=np.float64))
            elif op[0] == "get":
                gets += 1
                cache.get(op[1])
            else:
                cache.clear()
        assert cache.hits + cache.misses == gets
        assert 0 <= cache.evictions <= puts
        stats = cache.stats()
        assert stats["entries"] == len(cache)
        assert stats["used_bytes"] == cache.used_bytes
        assert stats["peak_bytes"] == cache.peak_bytes

    @settings(max_examples=100, deadline=None)
    @given(
        budget=st.integers(min_value=64, max_value=512),
        sizes=st.lists(
            st.integers(min_value=1, max_value=20), min_size=1, max_size=20
        ),
    )
    def test_hot_entry_survives_lru_eviction(self, budget, sizes):
        # Re-touching key 0 after every insert keeps it most-recent, so
        # it is only ever evicted when a new entry needs the whole
        # budget including key 0's bytes.
        cache = ByteLRUCache(budget)
        hot = np.ones(1, dtype=np.float64)
        for offset, elements in enumerate(sizes):
            if 0 not in cache:
                cache.put(0, hot)  # (re)insert: most recent again
            stored = cache.put(1 + offset, np.zeros(elements, dtype=np.float64))
            if stored and elements * 8 + hot.nbytes <= budget:
                assert 0 in cache
            if 0 in cache:
                cache.get(0)  # refresh recency
            assert cache.used_bytes <= cache.budget.total_bytes

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(OPS, max_size=20))
    def test_zero_budget_cache_stores_nothing(self, ops):
        cache = ByteLRUCache(0)
        assert not cache.enabled
        for op in ops:
            if op[0] == "put":
                assert not cache.put(
                    op[1], np.zeros(op[2], dtype=np.float64)
                )
            elif op[0] == "get":
                assert cache.get(op[1]) is None
            else:
                cache.clear()
            assert cache.used_bytes == 0
            assert len(cache) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        budget=st.integers(min_value=1, max_value=512),
        elements=st.integers(min_value=0, max_value=80),
    )
    def test_oversized_entries_are_refused_not_partially_stored(
        self, budget, elements
    ):
        cache = ByteLRUCache(budget)
        payload = np.zeros(elements, dtype=np.float64)
        stored = cache.put("big", payload)
        assert stored == (payload.nbytes <= budget)
        assert cache.used_bytes == (payload.nbytes if stored else 0)

