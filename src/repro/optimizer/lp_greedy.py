"""LP greedy node-sampler assignment (paper Algorithm 2).

The algorithm:

1. per node, eliminate P-/LP-dominated samplers (Properties 1-2);
2. assign every node its smallest-memory sampler;
3. compute the gradient ``(T_{i,j+1} - T_{i,j}) / (M_{i,j+1} - M_{i,j})``
   of every consecutive undominated pair and sort all gradients ascending
   (most time saved per byte first);
4. apply upgrades in that order, maintaining the trace, and **break** at the
   first upgrade that would exceed the budget (the implicit rounding of the
   fractional LP variable — Theorem 3 guarantees at most one node is
   affected).

Theorem 4 bounds the gap to the exact MCKP optimum by
``max{(c+1)/c, c} · d_max``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..cost import CostTable
from ..exceptions import OptimizerError
from .assignment import Assignment, Trace, TraceEntry
from .dominance import chain_table
from .problem import AssignmentProblem


@dataclass(frozen=True)
class GradientStep:
    """One candidate upgrade on a node's undominated sampler chain."""

    gradient: float
    node: int
    from_col: int
    to_col: int
    delta_memory: float
    delta_time: float


@dataclass(frozen=True)
class Schedule:
    """Every chain upgrade in greedy order, held as parallel columns.

    Step ``t`` moves ``node[t]`` from column ``from_col[t]`` to
    ``to_col[t]``, costing ``delta_memory[t]`` bytes and saving
    ``-delta_time[t]``; ``gradient`` is their ratio.  Indexing or
    iterating yields :class:`GradientStep` views.
    """

    node: np.ndarray
    from_col: np.ndarray
    to_col: np.ndarray
    gradient: np.ndarray
    delta_memory: np.ndarray
    delta_time: np.ndarray

    def __len__(self) -> int:
        return len(self.node)

    def __getitem__(self, t: int) -> GradientStep:
        t = range(len(self))[t]
        return GradientStep(
            gradient=float(self.gradient[t]),
            node=int(self.node[t]),
            from_col=int(self.from_col[t]),
            to_col=int(self.to_col[t]),
            delta_memory=float(self.delta_memory[t]),
            delta_time=float(self.delta_time[t]),
        )

    def __iter__(self) -> Iterator[GradientStep]:
        return (self[t] for t in range(len(self)))

    def trace(self, start: int, used_after: np.ndarray) -> Trace:
        """The trace of steps ``start .. start + len(used_after) - 1``,
        with ``used_after`` the footprint after each."""
        steps = slice(start, start + len(used_after))
        return Trace(
            self.node[steps],
            self.from_col[steps],
            self.to_col[steps],
            self.gradient[steps],
            used_after,
        )


def build_schedule(table: CostTable) -> tuple[np.ndarray, Schedule]:
    """Initial columns and the globally sorted upgrade schedule.

    Returns ``(initial, schedule)`` where ``initial[i]`` is node ``i``'s
    cheapest-memory undominated sampler and ``schedule`` holds every chain
    upgrade sorted by ascending gradient.  The steps are laid out node by
    node in chain order and sorted stably, so a node's own steps keep
    their chain order even under gradient ties — a property the applier
    relies on.
    """
    chains, lengths = chain_table(table)
    if (lengths == 0).any():
        i = int(np.argmin(lengths))
        raise OptimizerError(f"node {i} has no available sampler")
    node, link = np.nonzero(np.arange(chains.shape[1] - 1) < (lengths - 1)[:, None])
    from_col = chains[node, link]
    to_col = chains[node, link + 1]
    delta_m = table.memory[node, to_col] - table.memory[node, from_col]
    delta_t = table.time[node, to_col] - table.time[node, from_col]
    if (delta_m <= 0).any():
        t = int(np.argmax(delta_m <= 0))
        i = int(node[t])
        raise OptimizerError(
            f"non-increasing memory on chain of node {i}: "
            f"{table.memory[i, from_col[t]]} -> {table.memory[i, to_col[t]]}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        gradient = delta_t / delta_m
    order = np.argsort(gradient, kind="stable")
    schedule = Schedule(
        node=node[order],
        from_col=from_col[order],
        to_col=to_col[order],
        gradient=gradient[order],
        delta_memory=delta_m[order],
        delta_time=delta_t[order],
    )
    return chains[:, 0].astype(np.int8), schedule


def running_sums(
    start: float,
    deltas: np.ndarray,
    stop: Callable[[np.ndarray], np.ndarray],
    *,
    subtract: bool = False,
) -> tuple[np.ndarray, bool]:
    """``start + deltas[0]``, ``+ deltas[1]``, ... (``-`` when
    ``subtract``) through the first sum ``stop`` flags; returns the sums
    and whether one was flagged.

    ``np.cumsum`` adds in sequence, and ``x - d`` is ``x + (-d)`` in IEEE
    arithmetic, so each sum equals that many ``+=``/``-=`` steps bit for
    bit.
    """
    sums = np.cumsum(np.concatenate(([start], -deltas if subtract else deltas)))[1:]
    flagged = stop(sums)
    if flagged.any():
        return sums[: int(np.argmax(flagged)) + 1], True
    return sums, False


def apply_columns(samplers: np.ndarray, nodes: np.ndarray, columns: np.ndarray) -> None:
    """``samplers[nodes[t]] = columns[t]`` for every ``t`` in order: the
    last write to a node wins."""
    _, last = np.unique(nodes[::-1], return_index=True)
    last = len(nodes) - 1 - last
    samplers[nodes[last]] = columns[last]


def lp_greedy(
    table: CostTable,
    budget: float,
    *,
    algorithm_name: str = "lp-greedy",
) -> Assignment:
    """Run Algorithm 2 and return the assignment with its greedy trace."""
    problem = AssignmentProblem(table, budget)  # validates feasibility
    initial, schedule = build_schedule(table)

    samplers = initial.copy()
    used = table.assignment_memory(samplers)
    # Algorithm 2 line 13: stop at the first overflow.
    after, overflow = running_sums(
        used, schedule.delta_memory, lambda sums: sums > budget
    )
    if overflow:
        after = after[:-1]
    applied = len(after)
    apply_columns(samplers, schedule.node[:applied], schedule.to_col[:applied])
    start_time = table.assignment_time(initial)
    times = np.cumsum(np.concatenate(([start_time], schedule.delta_time[:applied])))

    assignment = Assignment(
        samplers=samplers,
        used_memory=float(after[-1]) if applied else used,
        total_time=float(times[-1]),
        budget=float(budget),
        algorithm=algorithm_name,
        trace=schedule.trace(0, after),
    )
    assignment.validate_against(problem.table)
    return assignment


def trace_deltas(
    table: CostTable, trace: "list[TraceEntry]"
) -> list[tuple[TraceEntry, float, float]]:
    """Per-entry ``(entry, delta_memory, delta_time)`` of a greedy trace.

    Recomputed from the cost table so the trace can be *replayed in
    reverse*: undoing entry ``e`` returns ``e.node`` from ``e.chosen`` to
    ``e.previous`` and reclaims exactly ``delta_memory`` bytes.  This is
    the hook graceful OOM degradation (``repro.resilience``) uses to
    downgrade samplers along the LP-greedy trace, newest upgrade first.
    """
    deltas: list[tuple[TraceEntry, float, float]] = []
    for entry in trace:
        node = int(entry.node)
        previous, chosen = int(entry.previous), int(entry.chosen)
        deltas.append(
            (
                entry,
                float(table.memory[node, chosen] - table.memory[node, previous]),
                float(table.time[node, chosen] - table.time[node, previous]),
            )
        )
    return deltas


def lmckp_lower_bound(table: CostTable, budget: float) -> float:
    """Optimal objective of the LP relaxation (LMCKP).

    The LP optimum follows the same gradient schedule but fills the
    breaking step *fractionally* (Theorem 3: at most two fractional
    variables, on one node, adjacent on its chain).  Its value lower-bounds
    the integral optimum, so the tests can sandwich
    ``lower_bound ≤ OPT ≤ lp_greedy`` without solving the NP-hard problem.
    """
    AssignmentProblem(table, budget)
    initial, schedule = build_schedule(table)
    used = np.cumsum(
        np.concatenate(([table.assignment_memory(initial)], schedule.delta_memory))
    )
    value = np.cumsum(
        np.concatenate(([table.assignment_time(initial)], schedule.delta_time))
    )
    # Step t fits while its bytes are within what is left before it.
    fits = schedule.delta_memory <= budget - used[:-1]
    t = len(fits) if fits.all() else int(np.argmin(fits))
    remaining = budget - used[t]
    if t < len(fits) and remaining > 0:
        fraction = remaining / schedule.delta_memory[t]
        return float(value[t] + fraction * schedule.delta_time[t])
    return float(value[t])
