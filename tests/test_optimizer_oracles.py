"""Oracle tests for the array passes of the LP-greedy optimizer.

``chain_table``/``build_schedule`` work on the whole ``n × k`` cost table
and the greedy moves its cursor with running sums.  The references here
are the per-node and per-step loops they replace: chains from the scalar
:func:`eliminate_dominated`, a schedule sorted with Python's stable sort,
and step loops that ``+=``/``-=`` one step at a time.  Every result must
match bit for bit: columns, step order, footprints, times and traces.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cost import CostParams, CostTable
from repro.optimizer import AdaptiveOptimizer, eliminate_dominated, node_chains
from repro.optimizer.assignment import as_kind
from repro.optimizer.inverse import min_memory_for_time
from repro.optimizer.lp_greedy import build_schedule, lmckp_lower_bound, lp_greedy

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Few distinct values, so that equal memories, collinear points and
#: gradient ties are common.
MEMORY = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 1.0 / 3.0]
TIME = [0.1, 1.0, 2.0, 3.0, 5.0, 8.0, 9.0, 10.0, 2.0 / 3.0]


@st.composite
def cost_tables(draw) -> CostTable:
    """Tables with 1–12 nodes and 1–5 columns: the built-in trio, fewer,
    or extra sampler columns, with random unavailable cells (column 0,
    the naive sampler, is always available)."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 5))
    cells = st.lists(st.sampled_from(MEMORY), min_size=n * k, max_size=n * k)
    memory = np.array(draw(cells)).reshape(n, k)
    time = np.array(
        draw(st.lists(st.sampled_from(TIME), min_size=n * k, max_size=n * k))
    ).reshape(n, k)
    available = np.array(
        draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))
    ).reshape(n, k)
    available[:, 0] = True
    return CostTable(time=time, memory=memory, params=CostParams(), available=available)


# ----------------------------------------------------------------------
# references: the per-node and per-step loops
# ----------------------------------------------------------------------
def reference_schedule(table: CostTable):
    """Initial columns and ``(gradient, node, from, to, dM, dT)`` steps,
    built node by node from :func:`eliminate_dominated`."""
    initial, steps = [], []
    for i in range(table.num_nodes):
        chain = eliminate_dominated(table.memory[i], table.time[i], table.available[i])
        initial.append(chain[0])
        for j, k in zip(chain, chain[1:]):
            delta_m = table.memory[i, k] - table.memory[i, j]
            delta_t = table.time[i, k] - table.time[i, j]
            steps.append((delta_t / delta_m, i, j, k, delta_m, delta_t))
    steps.sort(key=lambda s: s[0])
    return np.array(initial, dtype=np.int8), steps


def entry(step, used):
    gradient, node, j, k, _, _ = step
    return (node, as_kind(j), as_kind(k), float(gradient), float(used))


def trace_tuples(trace):
    return [
        (e.node, e.previous, e.chosen, e.gradient, float(e.used_memory_after))
        for e in trace
    ]


class ReferenceAdaptive:
    """The step loop of Algorithm 2 with the §5.3 budget updates."""

    def __init__(self, table: CostTable, budget: float) -> None:
        initial, self.steps = reference_schedule(table)
        self.samplers = initial.copy()
        self.used = table.assignment_memory(self.samplers)
        self.time = table.assignment_time(self.samplers)
        self.trace: list[tuple] = []
        self.cursor = 0
        self.budget = budget
        self.forward()

    def forward(self) -> int:
        applied = 0
        while self.cursor < len(self.steps):
            step = self.steps[self.cursor]
            if self.used + step[4] > self.budget:
                break
            self.samplers[step[1]] = step[3]
            self.used += step[4]
            self.time += step[5]
            self.trace.append(entry(step, self.used))
            self.cursor += 1
            applied += 1
        return applied

    def revert(self, limit: float) -> list[tuple]:
        popped = []
        while self.used > limit and self.trace:
            popped.append(self.trace.pop())
            self.cursor -= 1
            step = self.steps[self.cursor]
            self.samplers[step[1]] = step[2]
            self.used -= step[4]
            self.time -= step[5]
        return popped

    def set_budget(self, budget: float) -> tuple[int, int]:
        old, self.budget = self.budget, budget
        if budget >= old:
            return self.forward(), 0
        return 0, len(self.revert(budget))


def assert_same_state(adaptive: AdaptiveOptimizer, reference: ReferenceAdaptive):
    snapshot = adaptive.assignment
    assert np.array_equal(snapshot.samplers, reference.samplers)
    assert snapshot.used_memory == reference.used
    assert snapshot.total_time == reference.time
    assert trace_tuples(snapshot.trace) == reference.trace
    assert trace_tuples(adaptive.trace) == reference.trace
    # Entries and slices read from the columns directly.
    assert len(snapshot.trace) == len(reference.trace)
    assert trace_tuples(snapshot.trace[1:3]) == reference.trace[1:3]
    if reference.trace:
        assert trace_tuples([snapshot.trace[-1]]) == reference.trace[-1:]


# ----------------------------------------------------------------------
class TestChainsAndSchedule:
    @given(table=cost_tables())
    @SETTINGS
    def test_chains_equal_per_node_elimination(self, table):
        expected = [
            eliminate_dominated(table.memory[i], table.time[i], table.available[i])
            for i in range(table.num_nodes)
        ]
        assert node_chains(table) == expected

    @given(table=cost_tables())
    @SETTINGS
    def test_schedule_equals_sorted_step_list(self, table):
        initial, schedule = build_schedule(table)
        expected_initial, expected = reference_schedule(table)
        assert np.array_equal(initial, expected_initial)
        got = [
            (s.gradient, s.node, s.from_col, s.to_col, s.delta_memory, s.delta_time)
            for s in schedule
        ]
        assert got == expected

    def test_collinear_points_are_kept(self):
        # Three points on one line: the strict test keeps the middle one.
        table = CostTable(
            time=np.array([[6.0, 4.0, 2.0]]),
            memory=np.array([[1.0, 2.0, 3.0]]),
            params=CostParams(),
        )
        assert node_chains(table) == [[0, 1, 2]]


class TestGreedyRuns:
    @given(table=cost_tables(), ratio=st.floats(0.0, 1.0))
    @SETTINGS
    def test_lp_greedy_equals_step_loop(self, table, ratio):
        low, high = table.min_memory(), table.max_memory()
        budget = low + ratio * (high - low)
        result = lp_greedy(table, budget)
        reference = ReferenceAdaptive(table, budget)
        assert np.array_equal(result.samplers, reference.samplers)
        assert result.used_memory == reference.used
        assert result.total_time == reference.time
        assert trace_tuples(result.trace) == reference.trace

    @given(table=cost_tables(), ratio=st.floats(0.0, 1.0))
    @SETTINGS
    def test_lmckp_equals_step_loop(self, table, ratio):
        low, high = table.min_memory(), table.max_memory()
        budget = low + ratio * (high - low)
        initial, steps = reference_schedule(table)
        used = table.assignment_memory(initial)
        value = table.assignment_time(initial)
        for _, _, _, _, delta_m, delta_t in steps:
            remaining = budget - used
            if delta_m <= remaining:
                used += delta_m
                value += delta_t
            else:
                if remaining > 0:
                    value += remaining / delta_m * delta_t
                break
        assert lmckp_lower_bound(table, budget) == value

    @given(table=cost_tables(), ratio=st.floats(0.0, 1.0))
    @SETTINGS
    def test_inverse_equals_step_loop(self, table, ratio):
        initial, steps = reference_schedule(table)
        samplers = initial.copy()
        used = table.assignment_memory(samplers)
        total = table.assignment_time(samplers)
        floor = total + sum(s[5] for s in steps)
        target = floor + ratio * (total - floor)
        trace = []
        for step in steps:
            if total <= target:
                break
            samplers[step[1]] = step[3]
            used += step[4]
            total += step[5]
            trace.append(entry(step, used))
        if total > target:
            return  # rounding left the saturated cost above the target
        result = min_memory_for_time(table, target)
        assert np.array_equal(result.samplers, samplers)
        assert result.used_memory == used
        assert result.total_time == total
        assert trace_tuples(result.trace) == trace


class TestAdaptiveSequences:
    @given(
        table=cost_tables(),
        moves=st.lists(
            st.tuples(st.sampled_from(["budget", "shed"]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=12,
        ),
        first=st.floats(0.0, 1.0),
    )
    @SETTINGS
    def test_budget_and_shed_sequences_equal_step_loop(self, table, moves, first):
        low, high = table.min_memory(), table.max_memory()
        budget = low + first * (high - low)
        adaptive = AdaptiveOptimizer(table, budget)
        reference = ReferenceAdaptive(table, budget)
        assert_same_state(adaptive, reference)
        for move, ratio in moves:
            if move == "budget":
                budget = low + ratio * (high - low)
                update = adaptive.set_budget(budget)
                applied, reverted = reference.set_budget(budget)
                assert (update.steps_applied, update.steps_reverted) == (
                    applied,
                    reverted,
                )
            else:
                limit = ratio * high
                popped = adaptive.shed_memory(limit)
                assert trace_tuples(popped) == reference.revert(limit)
            assert adaptive.used_memory == reference.used
            if reference.used <= budget:
                assert_same_state(adaptive, reference)

    def test_many_cycles_keep_footprints_exact(self):
        # Irrational-looking byte counts make every += round; a long walk
        # up and down must still match the step loop bit for bit.
        rng = np.random.default_rng(3)
        n = 400
        memory = np.cumsum(rng.random((n, 3)) * 1e3 + 0.1, axis=1)
        time = -np.cumsum(rng.random((n, 3)) + 0.01, axis=1) + 10.0
        table = CostTable(time=time, memory=memory, params=CostParams())
        low, high = table.min_memory(), table.max_memory()
        budgets = low + rng.random(40) * (high - low)
        adaptive = AdaptiveOptimizer(table, budgets[0])
        reference = ReferenceAdaptive(table, budgets[0])
        for budget in budgets[1:]:
            adaptive.set_budget(budget)
            reference.set_budget(budget)
            assert_same_state(adaptive, reference)

    def test_failed_transaction_restores_trace(self):
        rng = np.random.default_rng(4)
        memory = np.cumsum(rng.random((50, 3)) + 0.1, axis=1)
        time = -np.cumsum(rng.random((50, 3)) + 0.01, axis=1) + 5.0
        table = CostTable(time=time, memory=memory, params=CostParams())
        low, high = table.min_memory(), table.max_memory()
        adaptive = AdaptiveOptimizer(table, low + 0.6 * (high - low))
        before = trace_tuples(adaptive.trace)
        used, total = adaptive.used_memory, adaptive.assignment.total_time
        try:
            with adaptive.transaction():
                adaptive.set_budget(low + 0.1 * (high - low))
                adaptive.set_budget(high)
                raise RuntimeError("rebuild failed")
        except RuntimeError:
            pass
        assert trace_tuples(adaptive.trace) == before
        assert adaptive.used_memory == used
        assert adaptive.assignment.total_time == total
