"""Byte-budgeted LRU caching for crawl-mode clients.

The paper's design space runs from the naive sampler (no persistent
state, full rebuild per sample) to the alias sampler (everything
materialised up front).  A cache is the dynamic point in between: hot
entries are kept after first materialisation and evicted
least-recently-used when a byte budget fills, priced in the same
currency as the optimizer's :class:`~repro.framework.MemoryBudget`.

That point pays only where a miss is expensive.  Its one user is
:class:`repro.remote.NeighborhoodCache`, which keeps fetched
neighbourhoods of a remote, rate-limited graph API for crawl-mode walks
(the "Leveraging History" reuse layer): a miss there costs an API call.
The batch walk engine keeps no such cache, because its miss is one
vectorised e2e rebuild (see ``docs/performance.md``).

Determinism contract
--------------------
A cache is a pure memoisation: a hit returns exactly what a re-fetch
would produce, and cache operations never consume walk RNG.  Walk output
is therefore bit-identical for any cache size, including zero.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

from ..exceptions import BudgetError
from ..framework.memory import MemoryBudget, format_bytes

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


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
    Subclasses pick the payload type by overriding :meth:`entry_bytes`.
    """

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
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: K, value: V) -> bool:
        """Store ``value`` under ``key``, evicting LRU entries to fit.

        Returns ``True`` when the entry was stored, ``False`` when it
        cannot fit even an empty cache (or the cache is disabled).  Never
        lets :attr:`used_bytes` exceed the budget.
        """
        if not self.enabled:
            # A zero-byte payload would otherwise slip into a disabled
            # cache ("cost 0 fits budget 0") and turn lookups into hits.
            return False
        total = self.budget.total_bytes
        cost = self.entry_bytes(value)
        if cost > total:
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self._used -= self.entry_bytes(old)
        while self._used + cost > total:
            _, evicted = self._entries.popitem(last=False)
            self._used -= self.entry_bytes(evicted)
            self.evictions += 1
        self._entries[key] = value
        self._used += cost
        if self._used > total:  # pragma: no cover
            raise BudgetError("byte-budgeted cache exceeded its budget")
        self._peak = max(self._peak, self._used)
        return True

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
