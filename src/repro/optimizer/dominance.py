"""Dominance elimination for MCKP (paper Properties 1 and 2).

Before running the greedy, each node's sampler options are reduced to the
lower convex boundary of its ``(M, T)`` point set:

* **P-domination** (Property 1): an option with both time and memory no
  better than another can never appear in an optimal LP solution.
* **LP-domination** (Property 2): an option lying above the segment joining
  its neighbours on the memory axis is skipped by the LP optimum.

For the paper's built-in three-sampler cost model the chain is already
undominated (``M_a > M_r > M_n``, ``T_a < T_r < T_n``); the machinery here
is what makes *user-defined* sampler sets safe to optimise (Section 5.1).
"""

from __future__ import annotations

import numpy as np

from ..cost import CostTable


def eliminate_dominated(
    memory: np.ndarray, time: np.ndarray, available: np.ndarray | None = None
) -> list[int]:
    """Undominated option indices for one node, sorted by increasing memory.

    Implements the successive test of Properties 1-2: sort by
    ``(M asc, T asc)``, drop options whose time does not strictly improve
    (P-domination), then keep only the lower convex boundary
    (LP-domination, strict test — collinear points are retained, matching
    the paper's strict inequality).
    """
    memory = np.asarray(memory, dtype=np.float64)
    time = np.asarray(time, dtype=np.float64)
    candidates = [
        j
        for j in range(len(memory))
        if available is None or bool(available[j])
    ]
    candidates.sort(key=lambda j: (memory[j], time[j]))

    # P-domination sweep: with memory ascending, any option whose time is
    # not strictly below everything cheaper is dominated.
    kept: list[int] = []
    best_time = np.inf
    for j in candidates:
        if time[j] < best_time:
            kept.append(j)
            best_time = time[j]

    # LP-domination: lower-convex-hull sweep over (M, T).
    hull: list[int] = []
    for j in kept:
        while len(hull) >= 2:
            r, s = hull[-2], hull[-1]
            grad_rs = (time[s] - time[r]) / (memory[s] - memory[r])
            grad_st = (time[j] - time[s]) / (memory[j] - memory[s])
            if grad_rs > grad_st:  # Property 2, strict
                hull.pop()
            else:
                break
        hull.append(j)
    return hull


def chain_table(table: CostTable) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eliminate_dominated` for every node of a cost table at once.

    Returns ``(chains, lengths)``: row ``i`` of the ``(n, k)`` matrix
    ``chains`` starts with node ``i``'s undominated columns in increasing
    memory order, ``lengths[i]`` of them.  The passes mirror the scalar
    sweep on every row together: a stable ``lexsort`` on ``(M, T)`` with
    unavailable cells last, P-domination against the running time
    minimum, and the LP hull as one stack per row, grown over the ``k``
    sorted positions, whose pops use the same float expressions as the
    scalar test.
    """
    memory, time, available = table.memory, table.time, table.available
    n, k = memory.shape
    order = np.lexsort((time, memory, ~available), axis=-1)
    usable = np.take_along_axis(available, order, axis=1)
    times = np.where(usable, np.take_along_axis(time, order, axis=1), np.inf)
    best = np.minimum.accumulate(times, axis=1)
    prior = np.concatenate((np.full((n, 1), np.inf), best[:, :-1]), axis=1)
    kept = usable & (times < prior)

    chains = np.zeros((n, k), dtype=np.int64)
    lengths = np.zeros(n, dtype=np.int64)
    for position in range(k):
        active = np.flatnonzero(kept[:, position])
        j = order[active, position]
        while True:
            deep = lengths[active] >= 2
            i, new = active[deep], j[deep]
            if not len(i):
                break
            r = chains[i, lengths[i] - 2]
            s = chains[i, lengths[i] - 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                grad_rs = (time[i, s] - time[i, r]) / (memory[i, s] - memory[i, r])
                grad_st = (time[i, new] - time[i, s]) / (
                    memory[i, new] - memory[i, s]
                )
            popped = i[grad_rs > grad_st]  # Property 2, strict
            if not len(popped):
                break
            lengths[popped] -= 1
        chains[active, lengths[active]] = j
        lengths[active] += 1
    return chains, lengths


def node_chains(table: CostTable) -> list[list[int]]:
    """Undominated sampler chains for every node of a cost table.

    ``chains[i]`` lists sampler column indices in increasing-memory order;
    the first entry is the initial (cheapest-memory) choice of Algorithm 2
    and consecutive pairs define the gradient steps.
    """
    chains, lengths = chain_table(table)
    return [row[:size] for row, size in zip(chains.tolist(), lengths.tolist())]
