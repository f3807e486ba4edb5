"""The inverse assignment problem: minimum memory for a target time.

The paper's optimizer answers "given memory ``M``, how fast can sampling
be?".  Deployments often ask the dual: "I need sampling cost at most
``T`` — how little memory can I get away with?".  Because the LP greedy
walks a fixed gradient schedule, the dual is solved by walking the same
schedule until the accumulated time drops below the target — no search
required, and the result inherits the greedy's near-optimality.
"""

from __future__ import annotations

import numpy as np

from ..cost import CostTable
from ..exceptions import OptimizerError
from .assignment import Assignment
from .lp_greedy import apply_columns, build_schedule


def min_memory_for_time(table: CostTable, target_time: float) -> Assignment:
    """Cheapest-memory assignment whose total time cost is ≤ ``target_time``.

    Walks the LP greedy gradient schedule (most time saved per byte first)
    and stops as soon as the target is met, so the returned assignment
    spends memory only on the most profitable upgrades.  Raises
    :class:`OptimizerError` when even the saturated assignment misses the
    target.
    """
    initial, schedule = build_schedule(table)
    samplers = initial.copy()
    used = np.cumsum(
        np.concatenate(([table.assignment_memory(samplers)], schedule.delta_memory))
    )
    times = np.cumsum(
        np.concatenate(([table.assignment_time(samplers)], schedule.delta_time))
    )
    met = times <= target_time
    if not met.any():
        raise OptimizerError(
            f"target time {target_time:.3g} is below the fully saturated "
            f"assignment's cost {times[-1]:.3g}"
        )
    applied = int(np.argmax(met))
    apply_columns(samplers, schedule.node[:applied], schedule.to_col[:applied])
    return Assignment(
        samplers=samplers,
        used_memory=float(used[applied]),
        total_time=float(times[applied]),
        budget=float(used[applied]),
        algorithm="inverse-lp-greedy",
        trace=schedule.trace(0, used[1 : applied + 1]),
    )
