"""Memory budgets, accounting, and dynamic-budget traces.

The paper treats memory as a first-class resource: budgets are set as
ratios of a maximum, footprints are compared against simulated physical
memory (OOM gate), and Figure 9 drives the adaptive optimizer with a
linear up-then-down budget trace.  This module provides those utilities.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ..exceptions import BudgetError, SimulatedOOMError


def format_bytes(size: float) -> str:
    """Human-readable byte count (``1.5GB`` style, decimal units)."""
    size = float(size)
    for unit in ("B", "KB", "MB", "GB", "TB", "PB"):
        if abs(size) < 1000.0 or unit == "PB":
            if unit == "B":
                return f"{size:.0f}{unit}"
            return f"{size:.1f}{unit}"
        size /= 1000.0
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class MemoryBudget:
    """A memory budget expressed against a reference maximum.

    The paper's Figure 7 varies ``ratio`` over [0.1 … 1.0] of the budget at
    which the assignment saturates; Figure 8 uses multiples of the graph
    size instead — both are just different references.
    """

    total_bytes: float
    reference_bytes: float | None = None

    def __post_init__(self) -> None:
        if self.total_bytes < 0 or not np.isfinite(self.total_bytes):
            raise BudgetError(f"invalid budget {self.total_bytes!r}")

    @classmethod
    def from_ratio(cls, reference_bytes: float, ratio: float) -> "MemoryBudget":
        """Budget as ``ratio`` × ``reference_bytes``."""
        if ratio < 0:
            raise BudgetError(f"ratio must be non-negative, got {ratio}")
        return cls(total_bytes=reference_bytes * ratio, reference_bytes=reference_bytes)

    @property
    def ratio(self) -> float | None:
        """Budget as a fraction of the reference, when one was given."""
        if self.reference_bytes in (None, 0):
            return None
        return self.total_bytes / self.reference_bytes

    def __str__(self) -> str:
        ratio = self.ratio
        suffix = f" ({ratio:.2f}x ref)" if ratio is not None else ""
        return f"{format_bytes(self.total_bytes)}{suffix}"


class MemoryMeter:
    """Tracks modeled allocations against a simulated physical memory.

    ``charge`` raises :class:`SimulatedOOMError` when the running total
    would exceed the physical limit — the gate that reproduces the paper's
    alias-method OOM failures without a 96 GB machine.
    """

    def __init__(self, physical_bytes: float | None = None) -> None:
        if physical_bytes is not None and physical_bytes < 0:
            raise BudgetError("physical_bytes must be non-negative")
        self.physical_bytes = physical_bytes
        self._used = 0.0
        self._peak = 0.0
        self._ledger: dict[str, float] = {}

    @property
    def ledger(self) -> dict[str, float]:
        """Net charged bytes per ``what`` label.

        The modeled-side twin of the MSan runtime trace: meter charges
        are priced by the cost model at the framework's ``CostParams``,
        whose byte widths a framework requires to be the stored table
        widths, so a table's charge is its real ``nbytes`` (bounded
        rejection stores less: see the cost-model invariants section of
        ``docs/performance.md``).
        """
        return dict(self._ledger)

    @property
    def used_bytes(self) -> float:
        """Currently charged bytes."""
        return self._used

    @property
    def peak_bytes(self) -> float:
        """High-water mark."""
        return self._peak

    @property
    def headroom_bytes(self) -> float:
        """Bytes left before the OOM gate trips (``inf`` when ungated)."""
        if self.physical_bytes is None:
            return float("inf")
        return max(0.0, self.physical_bytes - self._used)

    def can_charge(self, amount: float) -> bool:
        """Whether :meth:`charge` of ``amount`` would succeed.

        The non-raising probe used by graceful degradation to decide
        whether sampler downgrades are needed before materialisation.
        """
        if amount < 0:
            raise BudgetError("cannot charge a negative amount")
        if self.physical_bytes is None:
            return True
        return self._used + amount <= self.physical_bytes

    def charge(self, amount: float, what: str = "") -> None:
        """Account ``amount`` modeled bytes; OOM when over physical memory."""
        self.charge_many(np.array([amount], dtype=np.float64), [what])

    def charge_many(
        self,
        amounts: np.ndarray,
        labels: Sequence[str],
        *,
        groups: np.ndarray | None = None,
        name: Callable[[int], str] | None = None,
    ) -> None:
        """Charge ``amounts[i]`` in order, under the ledger entry
        ``labels[groups[i]]``; ``groups`` defaults to ``i``, and grouping
        books many charges under one entry (e.g. one per sampler kind).

        A negative amount raises :class:`BudgetError` before anything is
        charged; an empty label leaves the ledger alone.  The running
        total is an ``np.cumsum``, which adds in sequence, and so are the
        ledger entries, so both equal the charges made one at a time bit
        for bit.  At the first charge over physical memory the earlier
        ones stay charged and :class:`SimulatedOOMError` names that
        charge, as charging them one at a time would leave it: by its
        label, or by ``name(i)`` when ``name`` is given, so a caller
        charging many nodes under one entry formats the one label an OOM
        needs.
        """
        amounts = _amounts(amounts, "charge")
        if not len(amounts):
            return
        keys = _ledger_keys(labels, groups, len(amounts))
        totals = np.cumsum(np.concatenate(([self._used], amounts)))[1:]
        fits = len(totals)
        if self.physical_bytes is not None:
            over = totals > self.physical_bytes
            if over.any():
                fits = int(np.argmax(over))
        if fits:
            self._used = float(totals[fits - 1])
            self._peak = max(self._peak, self._used)
            self._book(labels, keys[:fits], amounts[:fits], release=False)
        if fits < len(totals):
            raise SimulatedOOMError(
                required_bytes=int(totals[fits]),
                available_bytes=int(self.physical_bytes or 0),
                what=name(fits) if name is not None else labels[int(keys[fits])],
            )

    def release(self, amount: float, what: str = "") -> None:
        """Return ``amount`` bytes to the pool."""
        self.release_many(np.array([amount], dtype=np.float64), [what])

    def release_many(
        self,
        amounts: np.ndarray,
        labels: Sequence[str],
        *,
        groups: np.ndarray | None = None,
    ) -> None:
        """Return ``amounts[i]`` in order, from the ledger entry
        ``labels[groups[i]]``: the inverse of :meth:`charge_many`.

        The total stops at zero, and an entry that falls to zero leaves
        the ledger.  A falling running sum crosses zero at most once, so
        applying both to the end of an ``np.cumsum`` equals the releases
        made one at a time bit for bit.
        """
        amounts = _amounts(amounts, "release")
        if not len(amounts):
            return
        keys = _ledger_keys(labels, groups, len(amounts))
        total = np.cumsum(np.concatenate(([self._used], -amounts)))[-1]
        self._used = max(0.0, float(total))
        self._book(labels, keys, -amounts, release=True)

    def _book(
        self,
        labels: Sequence[str],
        keys: np.ndarray,
        steps: np.ndarray,
        *,
        release: bool,
    ) -> None:
        """Add each entry's ``steps`` to it in sequence; entries are met
        in first-step order.  A release skips entries off the ledger and
        drops one that falls to zero."""
        present, first = np.unique(keys, return_index=True)
        for key in present[np.argsort(first)].tolist():
            what = labels[key]
            if not what or (release and what not in self._ledger):
                continue
            prior = self._ledger.get(what, 0.0)
            total = float(np.cumsum(np.concatenate(([prior], steps[keys == key])))[-1])
            if release and total <= 0:
                del self._ledger[what]
            else:
                self._ledger[what] = total

    @contextmanager
    def transaction(self) -> Iterator["MemoryMeter"]:
        """Scope whose charges and releases are undone if it raises."""
        saved = (self._used, self._peak, dict(self._ledger))
        try:
            yield self
        except BaseException:
            self._used, self._peak, self._ledger = saved
            raise

    def reset(self) -> None:
        """Zero the meter (peak retained, ledger cleared)."""
        self._used = 0.0
        self._ledger.clear()


def _amounts(amounts: np.ndarray, verb: str) -> np.ndarray:
    """``amounts`` as float64; :class:`BudgetError` if any is negative."""
    amounts = np.asarray(amounts, dtype=np.float64)
    if np.any(amounts < 0):
        raise BudgetError(f"cannot {verb} a negative amount")
    return amounts


def _ledger_keys(
    labels: Sequence[str], groups: np.ndarray | None, count: int
) -> np.ndarray:
    """The ledger key of each of ``count`` amounts: the first index of its
    label in ``labels`` (so equal labels share an entry), taken at
    ``groups[i]``, or at ``i`` when ``groups`` is ``None``."""
    first: dict[str, int] = {}
    canonical = np.array(
        [first.setdefault(what, i) for i, what in enumerate(labels)],
        dtype=np.int64,
    )
    if groups is None:
        groups = np.arange(count)
    return canonical[np.asarray(groups, dtype=np.int64)]


def linear_budget_trace(max_budget: float, *, steps: int = 10) -> list[float]:
    """The Figure 9 dynamic-budget trace.

    Rises linearly from ``max_budget / steps`` to ``max_budget`` in
    ``steps`` increments, then falls back down with the same step — the
    red line of the figure.
    """
    if max_budget <= 0:
        raise BudgetError("max_budget must be positive")
    if steps < 1:
        raise BudgetError("steps must be >= 1")
    step = max_budget / steps
    rising = [step * i for i in range(1, steps + 1)]
    falling = [step * i for i in range(steps - 1, 0, -1)]
    return rising + falling
