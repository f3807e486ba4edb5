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

from ..cost import CostTable
from ..exceptions import InfeasibleBudgetError
from .assignment import Assignment, TraceEntry, as_kind
from .lp_greedy import build_schedule
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
    """

    def __init__(self, table: CostTable, budget: float) -> None:
        AssignmentProblem(table, budget)
        self._table = table
        initial, steps = build_schedule(table)
        self._steps = steps
        self._cursor = 0
        self._samplers = initial.copy()
        self._used = table.assignment_memory(self._samplers)
        self._time = table.assignment_time(self._samplers)
        self._min_memory = self._used
        self._trace: list[TraceEntry] = []
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
        return list(self._trace)

    @property
    def assignment(self) -> Assignment:
        """Snapshot of the current assignment."""
        snapshot = Assignment(
            samplers=self._samplers.copy(),
            used_memory=self._used,
            total_time=self._time,
            budget=self._budget,
            algorithm="lp-greedy-adaptive",
            trace=list(self._trace),
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
        reverted = self._revert_backward()
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
            list(self._trace),
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
                self._trace,
            ) = saved
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
        popped: list[TraceEntry] = []
        while self._used > limit and self._trace:
            popped.append(self._trace.pop())
            self._cursor -= 1
            step = self._steps[self._cursor]
            self._samplers[step.node] = step.from_col
            self._used -= step.delta_memory
            self._time -= step.delta_time
        return popped

    # ------------------------------------------------------------------
    def _apply_forward(self) -> int:
        applied = 0
        while self._cursor < len(self._steps):
            step = self._steps[self._cursor]
            if self._used + step.delta_memory > self._budget:
                break  # same first-overflow stop as Algorithm 2
            self._samplers[step.node] = step.to_col
            self._used += step.delta_memory
            self._time += step.delta_time
            self._trace.append(
                TraceEntry(
                    node=step.node,
                    previous=as_kind(step.from_col),
                    chosen=as_kind(step.to_col),
                    gradient=step.gradient,
                    used_memory_after=self._used,
                )
            )
            self._cursor += 1
            applied += 1
        return applied

    def _revert_backward(self) -> int:
        reverted = 0
        while self._used > self._budget and self._trace:
            self._trace.pop()
            self._cursor -= 1
            step = self._steps[self._cursor]
            self._samplers[step.node] = step.from_col
            self._used -= step.delta_memory
            self._time -= step.delta_time
            reverted += 1
        return reverted
