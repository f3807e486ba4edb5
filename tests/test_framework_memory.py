"""Unit tests for memory budgets, meters, and budget traces."""

import numpy as np
import pytest

from repro import (
    CostParams,
    MemoryAwareFramework,
    MemoryBudget,
    MemoryMeter,
    Node2VecModel,
    SamplerKind,
    SimulatedOOMError,
    build_cost_table,
    compute_bounding_constants,
    format_bytes,
)
from repro.distributed import PartitionedFramework
from repro.exceptions import BudgetError, CostModelError
from repro.framework import linear_budget_trace
from repro.graph import barabasi_albert_graph


class TestFormatBytes:
    def test_units(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(1_500) == "1.5KB"
        assert format_bytes(2_000_000) == "2.0MB"
        assert format_bytes(1_796e12) == "1.8PB"
        assert format_bytes(379e12) == "379.0TB"

    def test_zero(self):
        assert format_bytes(0) == "0B"


class TestMemoryBudget:
    def test_from_ratio(self):
        budget = MemoryBudget.from_ratio(1000, 0.1)
        assert budget.total_bytes == 100
        assert budget.ratio == pytest.approx(0.1)

    def test_absolute(self):
        budget = MemoryBudget(2048)
        assert budget.ratio is None
        assert "2.0KB" in str(budget)

    def test_negative_rejected(self):
        with pytest.raises(BudgetError):
            MemoryBudget(-1)
        with pytest.raises(BudgetError):
            MemoryBudget.from_ratio(100, -0.5)

    def test_str_with_ratio(self):
        budget = MemoryBudget.from_ratio(1000, 0.5)
        assert "0.50x ref" in str(budget)


class TestMemoryMeter:
    def test_charge_and_release(self):
        meter = MemoryMeter()
        meter.charge(100)
        meter.charge(50)
        assert meter.used_bytes == 150
        meter.release(100)
        assert meter.used_bytes == 50
        assert meter.peak_bytes == 150

    def test_oom_gate(self):
        meter = MemoryMeter(physical_bytes=100)
        meter.charge(80)
        with pytest.raises(SimulatedOOMError) as exc:
            meter.charge(30, what="alias tables")
        assert exc.value.required_bytes == 110
        assert exc.value.available_bytes == 100
        assert "alias tables" in str(exc.value)
        # Failed charge does not mutate state.
        assert meter.used_bytes == 80

    def test_unlimited_meter(self):
        meter = MemoryMeter()
        meter.charge(1e18)
        assert meter.used_bytes == 1e18

    def test_negative_amounts_rejected(self):
        meter = MemoryMeter()
        with pytest.raises(BudgetError):
            meter.charge(-1)
        with pytest.raises(BudgetError):
            meter.release(-1)

    def test_release_clamps_at_zero(self):
        meter = MemoryMeter()
        meter.charge(10)
        meter.release(100)
        assert meter.used_bytes == 0

    def test_reset_keeps_peak(self):
        meter = MemoryMeter()
        meter.charge(42)
        meter.reset()
        assert meter.used_bytes == 0
        assert meter.peak_bytes == 42


def _charged_one_at_a_time(meter, amounts, labels):
    """Reference: one :meth:`MemoryMeter.charge` per entry; the error
    the loop stops at, or ``None``."""
    for amount, label in zip(amounts, labels):
        try:
            meter.charge(amount, what=label)
        except SimulatedOOMError as error:
            return error
    return None


def _state(meter):
    return meter.used_bytes, meter.peak_bytes, list(meter.ledger.items())


class TestChargeMany:
    """One-pass charging equals a loop of single charges: running total
    (bit for bit), peak, ledger and its order, and the OOM label."""

    AMOUNTS = np.random.default_rng(0).random(200) * 1e3 + 0.1
    AMOUNTS[11] = 0.0  # a zero charge still enters the ledger

    @pytest.mark.parametrize("physical", [None, 1e9, 5e4, 1e3, 20.0])
    def test_equals_single_charges(self, physical):
        labels = [f"alias sampler at node {v}" for v in range(len(self.AMOUNTS))]
        labels[7] = ""  # unlabelled charges stay off the ledger
        labels[9] = labels[3]  # a repeated label accumulates
        fast, slow = MemoryMeter(physical), MemoryMeter(physical)
        for meter in (fast, slow):
            meter.charge(12.5, what="alias sampler at node 5")
        expected = _charged_one_at_a_time(slow, self.AMOUNTS, labels)
        if expected is None:
            fast.charge_many(self.AMOUNTS, labels)
        else:
            with pytest.raises(SimulatedOOMError) as raised:
                fast.charge_many(self.AMOUNTS, labels)
            assert raised.value.what == expected.what
            assert raised.value.required_bytes == expected.required_bytes
        assert _state(fast) == _state(slow)

    @pytest.mark.parametrize("physical", [None, 5e4, 20.0])
    def test_grouped_equals_single_charges(self, physical):
        # One entry per kind, as a framework charges; the label naming a
        # charge is formatted only for the one that overflows.
        kinds = ["alias samplers", "", "naive samplers", "alias samplers"]
        groups = np.random.default_rng(1).integers(0, len(kinds), len(self.AMOUNTS))
        named = []

        def name(i):
            named.append(i)
            return f"sampler {groups[i]} at node {i}"

        fast, slow = MemoryMeter(physical), MemoryMeter(physical)
        for meter in (fast, slow):
            meter.charge(12.5, what="naive samplers")
        expected = _charged_one_at_a_time(
            slow, self.AMOUNTS, [kinds[g] for g in groups]
        )
        if expected is None:
            fast.charge_many(self.AMOUNTS, kinds, groups=groups, name=name)
            assert named == []
        else:
            with pytest.raises(SimulatedOOMError) as raised:
                fast.charge_many(self.AMOUNTS, kinds, groups=groups, name=name)
            (first,) = named
            assert raised.value.what == f"sampler {groups[first]} at node {first}"
            assert expected.what == kinds[groups[first]]
            assert raised.value.required_bytes == expected.required_bytes
        assert _state(fast) == _state(slow)

    @pytest.mark.parametrize("grouped", [False, True])
    def test_release_many_equals_single_releases(self, grouped):
        kinds = ["alias samplers", "", "naive samplers", "rejection samplers"]
        groups = np.random.default_rng(2).integers(0, len(kinds), len(self.AMOUNTS))
        labels = [kinds[g] for g in groups]
        fast, slow = MemoryMeter(), MemoryMeter()
        for meter in (fast, slow):
            meter.charge_many(self.AMOUNTS, labels)
            meter.charge(5.0, what="other")
        # Release more than was charged: the total stops at zero and a
        # kind's entry leaves the ledger when it falls to zero.
        released = np.concatenate((self.AMOUNTS[::-1], self.AMOUNTS[:40]))
        order = np.concatenate((groups[::-1], groups[:40]))
        for amount, g in zip(released, order):
            slow.release(amount, what=kinds[g])
        if grouped:
            fast.release_many(released, kinds, groups=order)
        else:
            fast.release_many(released, [kinds[g] for g in order])
        assert _state(fast) == _state(slow)
        assert fast.used_bytes == 0.0
        assert list(fast.ledger) == ["other"]

    def test_negative_amount_rejected(self):
        with pytest.raises(BudgetError):
            MemoryMeter().charge_many(np.array([1.0, -1.0]), ["a", "b"])
        with pytest.raises(BudgetError):
            MemoryMeter().release_many(np.array([1.0, -1.0]), ["a", "b"])


class TestFrameworkMeter:
    """A framework charges and releases its meter as one charge and one
    release per node, in node order, would: bit for bit, with one ledger
    entry per kind and an OOM that names the first node that overflows."""

    @pytest.fixture(scope="class")
    def graph(self):
        return barabasi_albert_graph(300, 4, rng=3)

    def test_oom_names_the_first_node_that_does_not_fit(self, graph):
        model = Node2VecModel(0.25, 4.0)
        table = build_cost_table(graph, compute_bounding_constants(graph, model))
        alias = table.memory[:, int(SamplerKind.ALIAS)]
        physical = 0.6 * alias.sum()
        first = int(np.argmax(np.cumsum(alias) > physical))
        with pytest.raises(SimulatedOOMError) as raised:
            MemoryAwareFramework.memory_unaware(
                graph, model, SamplerKind.ALIAS, physical_memory=physical
            )
        assert raised.value.what == f"alias sampler at node {first}"
        assert raised.value.required_bytes == int(np.cumsum(alias)[first])

    def test_set_budget_cycle_matches_one_at_a_time(self, graph):
        model = Node2VecModel(0.25, 4.0)
        full = MemoryAwareFramework(graph, model, 1e12).assignment.used_memory
        fw = MemoryAwareFramework(graph, model, 0.3 * full)
        names = [kind.name.lower() for kind in SamplerKind]
        memory = fw.cost_table.memory
        active = graph.degrees > 0

        reference = MemoryMeter()
        columns = fw.assignment.samplers
        kinds_seen = set()
        for v in np.flatnonzero(active):
            reference.charge(memory[v, columns[v]], what=f"{names[columns[v]]} samplers")
        assert _state(fw.meter) == _state(reference)
        for ratio in (0.01, 0.6, 0.45):
            fw.set_budget(ratio * full)
            new = fw.assignment.samplers
            changed = np.flatnonzero((columns != new) & active)
            for v in changed:
                reference.release(memory[v, columns[v]], what=f"{names[columns[v]]} samplers")
            for v in changed:
                reference.charge(memory[v, new[v]], what=f"{names[new[v]]} samplers")
            columns = new
            assert _state(fw.meter) == _state(reference)
            kinds_seen |= set(fw.meter.ledger)
        # Naive charges are fractional (max degree over node count), so
        # the cycle checks arithmetic that an integer sum would not.
        assert "naive samplers" in kinds_seen


class TestChargeWhatIsStored:
    """A framework charges its meter at its ``CostParams`` widths, so it
    refuses widths other than the stored ``TABLE_FLOAT``/``TABLE_INT``."""

    WIDE = CostParams(float_bytes=8, int_bytes=8)

    @pytest.fixture(scope="class")
    def graph(self):
        return barabasi_albert_graph(100, 3, rng=0)

    def test_memory_unaware_alias_at_eight_bytes_is_refused(self, graph):
        # Before the check, this charged 88,416 bytes for a 44,208-byte arena.
        with pytest.raises(CostModelError, match="stored at b_f=4, b_i=4"):
            MemoryAwareFramework.memory_unaware(
                graph, Node2VecModel(0.5, 2.0), SamplerKind.ALIAS, cost_params=self.WIDE
            )

    def test_framework_and_partitioned_refuse_other_widths(self, graph):
        model = Node2VecModel(0.5, 2.0)
        for params in (self.WIDE, CostParams(float_bytes=4, int_bytes=8)):
            with pytest.raises(CostModelError):
                MemoryAwareFramework(graph, model, 1e6, cost_params=params)
            with pytest.raises(CostModelError):
                PartitionedFramework(
                    graph, model, np.zeros(graph.num_nodes, dtype=int), [1e6],
                    cost_params=params,
                )

    def test_stored_widths_charge_the_arena_bytes(self, graph):
        framework = MemoryAwareFramework.memory_unaware(
            graph, Node2VecModel(0.5, 2.0), SamplerKind.ALIAS
        )
        arena = framework.batch_engine().table_arenas()["alias"]
        stored = arena.prob.nbytes + arena.alias.nbytes
        assert framework.meter.used_bytes == stored

    def test_cost_table_projects_any_width(self, graph):
        constants = compute_bounding_constants(graph, Node2VecModel(0.5, 2.0))
        narrow = build_cost_table(graph, constants, CostParams())
        wide = build_cost_table(graph, constants, self.WIDE)
        alias = int(SamplerKind.ALIAS)
        assert np.array_equal(wide.memory[:, alias], 2 * narrow.memory[:, alias])


class TestBudgetTrace:
    def test_figure9_shape(self):
        trace = linear_budget_trace(100, steps=10)
        assert len(trace) == 19
        assert trace[0] == pytest.approx(10)
        assert max(trace) == pytest.approx(100)
        assert trace[-1] == pytest.approx(10)
        # Monotone up then down.
        peak = trace.index(max(trace))
        assert trace[:peak + 1] == sorted(trace[:peak + 1])
        assert trace[peak:] == sorted(trace[peak:], reverse=True)

    def test_single_step(self):
        assert linear_budget_trace(50, steps=1) == [50]

    def test_invalid(self):
        with pytest.raises(BudgetError):
            linear_budget_trace(0)
        with pytest.raises(BudgetError):
            linear_budget_trace(10, steps=0)
