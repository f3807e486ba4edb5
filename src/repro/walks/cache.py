"""Byte-budgeted LRU caching for walk engines and crawl-mode clients.

The paper's design space runs from the naive sampler (no persistent
state, full rebuild per sample) to the alias sampler (everything
materialised up front).  The caches here are the dynamic point in
between: hot entries are kept after first materialisation and evicted
least-recently-used when a byte budget fills — dynamic partial
materialisation priced in the same currency as the optimizer's
:class:`~repro.framework.MemoryBudget`.

Two concrete caches share the :class:`ByteLRUCache` substrate:

* :class:`EdgeStateCache` — e2e weight vectors of hot edge states
  ``(previous, current)``, used by the batch walk engine;
* :class:`repro.remote.NeighborhoodCache` — fetched neighbourhoods of a
  remote, rate-limited graph API, used by crawl-mode walks (the
  "Leveraging History" reuse layer).

Determinism contract
--------------------
A cache is a pure memoisation: a hit returns exactly what a rebuild (or
re-fetch) would produce, and cache operations never consume walk RNG.
Walk output is therefore bit-identical for any cache size, including
zero — the property the hash-pinned engine tests lock down.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Sequence, TypeVar

import numpy as np

from ..exceptions import BudgetError
from ..framework.memory import MemoryBudget, format_bytes

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


def _msan_trace(structure: str, nbytes: int, **dims: float) -> None:
    # Deferred import: repro.analysis pulls in the walk layers — binding
    # at first admitted entry keeps the cycle open.
    from ..analysis.msan import trace_alloc

    trace_alloc(structure, nbytes, **dims)


def _msan_active() -> bool:
    from ..analysis.msan import tracing_active

    return tracing_active()


class ByteLRUCache(Generic[K, V]):
    """LRU cache with byte-accurate accounting against a
    :class:`~repro.framework.MemoryBudget`.

    Parameters
    ----------
    budget:
        A :class:`~repro.framework.MemoryBudget`, a byte count, or ``None``
        / ``0`` for a disabled cache (every lookup misses, nothing is
        stored).  The *actual* payload bytes — as reported by
        :meth:`entry_bytes` — are charged; the invariant
        ``used_bytes <= budget.total_bytes`` holds at every point in
        time, enforced by evicting least-recently-used entries before
        insertion.

    Entries larger than the whole budget are simply not cached.
    Subclasses pick the payload type by overriding :meth:`entry_bytes`;
    subclasses whose entries are memory-contract structures additionally
    set :attr:`_msan_structure` (and override :meth:`_msan_dims`) so the
    runtime sanitizer can verify every admitted entry's bytes against
    ``memory-contracts.json``.
    """

    #: memory-contract structure name traced per admitted entry, or None.
    _msan_structure: "str | None" = None

    def __init__(self, budget: "MemoryBudget | float | None") -> None:
        if budget is None:
            budget = MemoryBudget(0.0)
        elif not isinstance(budget, MemoryBudget):
            budget = MemoryBudget(float(budget))
        self.budget = budget
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._peak = 0

    # ------------------------------------------------------------------
    @staticmethod
    def entry_bytes(value: V) -> int:
        """Bytes charged for storing ``value`` (payload arrays only)."""
        return int(value.nbytes)  # type: ignore[attr-defined]

    @property
    def enabled(self) -> bool:
        """Whether the cache can hold anything at all."""
        return self.budget.total_bytes > 0

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged (sum of stored payloads)."""
        return self._used

    @property
    def peak_bytes(self) -> int:
        """High-water mark of :attr:`used_bytes`."""
        return self._peak

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    def get(self, key: K) -> V | None:
        """The cached value under ``key``, or ``None``.

        A hit refreshes the entry's recency; both outcomes update the
        hit/miss counters.
        """
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[K]) -> list[V | None]:
        """:meth:`get` over ``keys`` in order: the same values, recency
        and counters as one call per key."""
        entries = self._entries
        found: list[V | None] = []
        hits = 0
        for key in keys:
            entry = entries.get(key)
            if entry is not None:
                entries.move_to_end(key)
                hits += 1
            found.append(entry)
        self.hits += hits
        self.misses += len(found) - hits
        return found

    def peek(self, key: K) -> V | None:
        """The cached value under ``key`` without touching recency or
        the hit/miss counters (observability probes only)."""
        return self._entries.get(key)

    def put(self, key: K, value: V) -> bool:
        """Store ``value`` under ``key``, evicting LRU entries to fit.

        Returns ``True`` when the entry was stored, ``False`` when it
        cannot fit even an empty cache (or the cache is disabled).  Never
        lets :attr:`used_bytes` exceed the budget.
        """
        return self.put_many([key], [value])[0]

    def put_many(self, keys: Sequence[K], values: Sequence[V]) -> list[bool]:
        """:meth:`put` over aligned ``keys`` and ``values`` in order: the
        same entries, recency, counters and peak as one call per key.
        The memory sanitizer's switch is read once per batch."""
        if not self.enabled:
            # A zero-byte payload would otherwise slip into a disabled
            # cache ("cost 0 fits budget 0") and turn lookups into hits.
            return [False] * len(keys)
        total = self.budget.total_bytes
        entries = self._entries
        traced = self._msan_structure is not None and _msan_active()
        stored = []
        for key, value in zip(keys, values):
            cost = self.entry_bytes(value)
            if cost > total:
                stored.append(False)
                continue
            old = entries.pop(key, None)
            if old is not None:
                self._used -= self.entry_bytes(old)
            while self._used + cost > total:
                _, evicted = entries.popitem(last=False)
                self._used -= self.entry_bytes(evicted)
                self.evictions += 1
            entries[key] = value
            self._used += cost
            if self._used > total:  # pragma: no cover
                raise BudgetError("byte-budgeted cache exceeded its budget")
            self._peak = max(self._peak, self._used)
            if traced:
                dims = self._msan_dims(value)
                if dims is not None:
                    _msan_trace(self._msan_structure, int(cost), **dims)
            stored.append(True)
        return stored

    def clear(self) -> None:
        """Drop every entry (counters are retained)."""
        self._entries.clear()
        self._used = 0

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot for corpus metadata / observability hooks."""
        total = self.hits + self.misses
        return {
            "budget_bytes": float(self.budget.total_bytes),
            "used_bytes": int(self._used),
            "peak_bytes": int(self._peak),
            "entries": len(self._entries),
            "hits": int(self.hits),
            "misses": int(self.misses),
            "evictions": int(self.evictions),
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    def describe(self) -> str:
        """One-line summary in the ``repro.graph.stats`` reporting style."""
        s = self.stats()
        return (
            f"{self._describe_name()}: {s['entries']} entries, "
            f"{format_bytes(s['used_bytes'])}/{format_bytes(s['budget_bytes'])} "
            f"(peak {format_bytes(s['peak_bytes'])}), "
            f"hits={s['hits']} misses={s['misses']} "
            f"evictions={s['evictions']} hit_rate={s['hit_rate']:.2f}"
        )

    def _describe_name(self) -> str:
        return "byte-budget cache"

    def _msan_dims(self, value: V) -> "dict[str, float] | None":
        """Contract dims of one entry, or ``None`` to skip tracing."""
        return None


class EdgeStateCache(ByteLRUCache[tuple[int, int], np.ndarray]):
    """LRU cache of materialised e2e weight vectors, byte-accounted.

    Keys are hot edge states ``(previous, current)``; values are the
    weight vectors the batch walk engine materialises on demand.  See
    :class:`ByteLRUCache` for the budget and determinism contracts.
    """

    _msan_structure = "edge_state_cache_entry"

    @staticmethod
    def entry_bytes(value: np.ndarray) -> int:
        """The ``ndarray`` payload bytes of one weight vector."""
        return int(value.nbytes)

    def _describe_name(self) -> str:
        return "edge-state cache"

    def _msan_dims(self, value: np.ndarray) -> dict[str, float]:
        return {"d": float(value.size)}
