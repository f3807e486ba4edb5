"""Property-based tests for :class:`repro.walks.cache.ByteLRUCache`.

Hypothesis drives arbitrary operation sequences (put/get/clear with
varying payload sizes) against a small byte budget and checks the
accounting invariants the memory-cost contracts rely on:

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

from repro.analysis.msan import msan_trace
from repro.walks.cache import ByteLRUCache, EdgeStateCache

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


class TestByteAccountingProperties:
    @settings(max_examples=150, deadline=None)
    @given(budget=BUDGETS, ops=st.lists(OPS, max_size=30))
    def test_used_bytes_is_sum_of_resident_entries(self, budget, ops):
        cache = EdgeStateCache(budget)
        _apply(cache, ops)

    @settings(max_examples=150, deadline=None)
    @given(budget=BUDGETS, ops=st.lists(OPS, max_size=30))
    def test_peak_is_monotone_and_dominates_used(self, budget, ops):
        cache = EdgeStateCache(budget)
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
        cache = EdgeStateCache(budget)
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
        cache = EdgeStateCache(budget)
        hot = np.ones(1, dtype=np.float64)
        for offset, elements in enumerate(sizes):
            if cache.peek(0) is None:
                cache.put(0, hot)  # (re)insert: most recent again
            stored = cache.put(1 + offset, np.zeros(elements, dtype=np.float64))
            if stored and elements * 8 + hot.nbytes <= budget:
                assert cache.peek(0) is not None
            if cache.peek(0) is not None:
                cache.get(0)  # refresh recency
            assert cache.used_bytes <= cache.budget.total_bytes

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(OPS, max_size=20))
    def test_zero_budget_cache_stores_nothing(self, ops):
        cache = EdgeStateCache(0)
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


#: one batch: ("put", [(key, payload_elements), ...]) | ("get", [key, ...])
#: | ("clear",)
BATCHES = st.one_of(
    st.tuples(
        st.just("put"),
        st.lists(
            st.tuples(KEYS, st.integers(min_value=0, max_value=40)), max_size=8
        ),
    ),
    st.tuples(st.just("get"), st.lists(KEYS, max_size=8)),
    st.tuples(st.just("clear")),
)


def _cache_state(cache):
    """Everything observable: entries in LRU order, bytes and counters."""
    return (
        [(key, id(value)) for key, value in cache._entries.items()],
        cache.used_bytes,
        cache.peak_bytes,
        cache.hits,
        cache.misses,
        cache.evictions,
    )


class TestBatchedCalls:
    @settings(max_examples=150, deadline=None)
    @given(budget=BUDGETS, batches=st.lists(BATCHES, max_size=12))
    def test_batches_equal_one_key_at_a_time(self, budget, batches):
        """``get_many``/``put_many`` leave the same entries, LRU order,
        counters, peak and sanitizer records as one call per key."""
        batched, single = EdgeStateCache(budget), EdgeStateCache(budget)
        batched_records, single_records = [], []
        for batch in batches:
            if batch[0] == "put":
                keys = [key for key, _ in batch[1]]
                values = [
                    np.full(elements, float(key)) for key, elements in batch[1]
                ]
                with msan_trace() as tracer:
                    got = batched.put_many(keys, values)
                batched_records += tracer.records
                with msan_trace() as tracer:
                    want = [single.put(k, v) for k, v in zip(keys, values)]
                single_records += tracer.records
            elif batch[0] == "get":
                got = [id(v) for v in batched.get_many(batch[1])]
                want = [id(single.get(key)) for key in batch[1]]
            else:
                batched.clear()
                single.clear()
                got = want = None
            assert got == want
            assert _cache_state(batched) == _cache_state(single)
            assert batched.used_bytes <= batched.budget.total_bytes
        assert batched_records == single_records
