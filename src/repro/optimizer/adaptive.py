"""Adaptive node-sampler assignment for dynamic memory budgets (§5.3).

The LP greedy applies upgrades in a fixed gradient order, so its state is
fully described by *how far along the schedule it got*.  That makes budget
changes cheap:

* **increase** — resume applying schedule steps from the saved cursor;
* **decrease** — pop applied steps (most recent first, i.e. least
  profitable first) until the new budget is satisfied.

Neither direction re-sorts gradients or recomputes bounding constants,
which is exactly why the paper's Figure 9 update costs are a fraction of
the from-scratch initialisation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..cost import CostTable
from ..exceptions import InfeasibleBudgetError
from .assignment import Assignment, Trace, TraceEntry
from .lp_greedy import apply_columns, build_schedule, running_sums
from .problem import AssignmentProblem


@dataclass(frozen=True)
class BudgetUpdate:
    """Outcome of one :meth:`AdaptiveOptimizer.set_budget` call."""

    old_budget: float
    new_budget: float
    steps_applied: int
    steps_reverted: int

    @property
    def steps_touched(self) -> int:
        """Total schedule steps processed — the update-cost proxy of Fig. 9."""
        return self.steps_applied + self.steps_reverted


class AdaptiveOptimizer:
    """LP greedy assignment that follows a changing memory budget.

    Create it with the initial budget, then call :meth:`set_budget` as the
    available memory changes; :attr:`assignment` always reflects the
    current budget and never exceeds it.

    The trace is the schedule's first ``cursor`` steps plus the footprint
    after each (``_after[:cursor]``).  Both directions move the cursor in
    one array pass: the footprints are running sums of the steps' bytes
    (:func:`~repro.optimizer.lp_greedy.running_sums`), so ``used_memory``
    and ``total_time`` equal a step-by-step ``+=``/``-=`` loop bit for
    bit, across any sequence of increases and decreases.
    """

    def __init__(self, table: CostTable, budget: float) -> None:
        AssignmentProblem(table, budget)
        self._table = table
        initial, schedule = build_schedule(table)
        self._schedule = schedule
        self._cursor = 0
        self._after = np.empty(len(schedule), dtype=np.float64)
        self._samplers = initial.copy()
        self._used = table.assignment_memory(self._samplers)
        self._time = table.assignment_time(self._samplers)
        self._min_memory = self._used
        self._budget = float(budget)
        self._apply_forward()

    # ------------------------------------------------------------------
    @property
    def budget(self) -> float:
        """The currently active memory budget."""
        return self._budget

    @property
    def used_memory(self) -> float:
        """Modeled footprint of the current assignment."""
        return self._used

    @property
    def trace(self) -> list[TraceEntry]:
        """Applied greedy steps, oldest first (paper's assignment trace)."""
        return list(self._trace())

    @property
    def assignment(self) -> Assignment:
        """Snapshot of the current assignment."""
        snapshot = Assignment(
            samplers=self._samplers.copy(),
            used_memory=self._used,
            total_time=self._time,
            budget=self._budget,
            algorithm="lp-greedy-adaptive",
            trace=self._trace(),
        )
        snapshot.validate_against(self._table)
        return snapshot

    # ------------------------------------------------------------------
    def set_budget(self, new_budget: float) -> BudgetUpdate:
        """Adjust the assignment to a new budget; returns update statistics."""
        if new_budget < self._min_memory - 1e-9:
            raise InfeasibleBudgetError(
                f"budget {new_budget:.1f} below minimum footprint "
                f"{self._min_memory:.1f}"
            )
        old_budget = self._budget
        self._budget = float(new_budget)
        if new_budget >= old_budget:
            applied = self._apply_forward()
            return BudgetUpdate(old_budget, self._budget, applied, 0)
        # Decrease: pop greedy choices in reverse order until the footprint
        # satisfies the new budget (Section 5.3's "memory budget decrease").
        reverted = self._revert_to(self._budget)
        return BudgetUpdate(old_budget, self._budget, 0, reverted)

    @contextmanager
    def transaction(self) -> Iterator["AdaptiveOptimizer"]:
        """Scope whose budget changes and shed steps are undone if it
        raises (a rebuild that fails must leave the old assignment)."""
        saved = (
            self._budget,
            self._cursor,
            self._samplers.copy(),
            self._used,
            self._time,
            self._after[: self._cursor].copy(),
        )
        try:
            yield self
        except BaseException:
            (
                self._budget,
                self._cursor,
                self._samplers,
                self._used,
                self._time,
                after,
            ) = saved
            self._after[: self._cursor] = after
            raise

    def shed_memory(self, limit: float) -> list[TraceEntry]:
        """Revert applied upgrades (newest first) until ``used <= limit``.

        The graceful-degradation primitive: unlike :meth:`set_budget` it
        leaves the budget untouched, so a later budget increase resumes
        the schedule from the shed position.  Returns the reverted
        entries, newest first; when even the all-cheapest assignment
        exceeds ``limit`` the trace is fully drained and the caller is
        expected to surface the residual pressure (e.g. as an OOM).
        """
        start = self._cursor
        self._revert_to(limit)
        popped = self._schedule.trace(self._cursor, self._after[self._cursor : start])
        return list(popped)[::-1]

    # ------------------------------------------------------------------
    def _trace(self) -> Trace:
        return self._schedule.trace(0, self._after[: self._cursor].copy())

    def _apply_forward(self) -> int:
        """Apply schedule steps up to the first overflow (Algorithm 2's stop)."""
        schedule, start = self._schedule, self._cursor
        after, overflow = running_sums(
            self._used,
            schedule.delta_memory[start:],
            lambda sums: sums > self._budget,
        )
        if overflow:
            after = after[:-1]
        return self._move(start + len(after), after)

    def _revert_to(self, limit: float) -> int:
        """Pop applied steps, newest first, while the footprint exceeds
        ``limit``."""
        if self._used <= limit:
            return 0
        used, _ = running_sums(
            self._used,
            self._schedule.delta_memory[: self._cursor][::-1],
            lambda sums: sums <= limit,
            subtract=True,
        )
        return self._move(self._cursor - len(used), used)

    def _move(self, cursor: int, used: np.ndarray) -> int:
        """Apply or pop the steps between the cursor and ``cursor``;
        ``used`` is the footprint after each, in the order taken."""
        schedule, start = self._schedule, self._cursor
        if cursor > start:
            taken = slice(start, cursor)
            columns, times = schedule.to_col[taken], schedule.delta_time[taken]
            self._after[taken] = used
        elif cursor < start:
            taken = slice(start - 1, cursor - 1 if cursor else None, -1)
            columns, times = schedule.from_col[taken], -schedule.delta_time[taken]
        else:
            return 0
        apply_columns(self._samplers, schedule.node[taken], columns)
        self._time = float(np.cumsum(np.concatenate(([self._time], times)))[-1])
        self._used = float(used[-1])
        self._cursor = cursor
        return len(used)
