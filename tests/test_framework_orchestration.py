"""Integration tests for the MemoryAwareFramework orchestrator."""

import numpy as np
import pytest

from repro import (
    CostParams,
    MemoryAwareFramework,
    Node2VecModel,
    SamplerKind,
    SimulatedOOMError,
    compute_bounding_constants,
)
from repro.exceptions import InfeasibleBudgetError, OptimizerError
from repro.graph import barabasi_albert_graph
from repro.framework import (
    AliasNodeSampler,
    NaiveNodeSampler,
    RejectionNodeSampler,
)


class TestConstruction:
    def test_phases_recorded(self, medium_graph, nv_model):
        fw = MemoryAwareFramework(medium_graph, nv_model, budget=1e7)
        assert fw.timings.bounding_seconds > 0
        assert fw.timings.build_seconds > 0
        assert fw.timings.init_seconds == pytest.approx(
            fw.timings.bounding_seconds
            + fw.timings.optimize_seconds
            + fw.timings.build_seconds
        )

    def test_precomputed_constants_skip_phase1(self, medium_graph, nv_model):
        constants = compute_bounding_constants(medium_graph, nv_model)
        fw = MemoryAwareFramework(
            medium_graph, nv_model, budget=1e7, bounding_constants=constants
        )
        assert fw.timings.bounding_seconds == 0.0

    def test_estimate_mode(self, medium_graph, nv_model):
        fw = MemoryAwareFramework(
            medium_graph, nv_model, budget=1e7,
            bounding="estimate", degree_threshold=10,
        )
        assert not fw.bounding_constants.exact

    def test_samplers_match_assignment(self, medium_graph, nv_model):
        fw = MemoryAwareFramework(medium_graph, nv_model, budget=1e6)
        classes = {
            SamplerKind.NAIVE: NaiveNodeSampler,
            SamplerKind.REJECTION: RejectionNodeSampler,
            SamplerKind.ALIAS: AliasNodeSampler,
        }
        for v in range(medium_graph.num_nodes):
            sampler = fw.sampler(v)
            if medium_graph.degree(v) == 0:
                assert sampler is None
            else:
                assert isinstance(sampler, classes[fw.assignment[v]])

    def test_budget_respected(self, medium_graph, nv_model):
        budget = 5e5
        fw = MemoryAwareFramework(medium_graph, nv_model, budget=budget)
        assert fw.assignment.used_memory <= budget
        assert fw.meter.used_bytes <= budget + 1e-6

    def test_infeasible_budget(self, medium_graph, nv_model):
        with pytest.raises(InfeasibleBudgetError):
            MemoryAwareFramework(medium_graph, nv_model, budget=1.0)

    def test_unknown_optimizer(self, toy_graph, nv_model):
        with pytest.raises(OptimizerError):
            MemoryAwareFramework(toy_graph, nv_model, budget=1e6, optimizer="magic")

    def test_unknown_bounding_mode(self, toy_graph, nv_model):
        with pytest.raises(OptimizerError):
            MemoryAwareFramework(toy_graph, nv_model, budget=1e6, bounding="psychic")

    @pytest.mark.parametrize("optimizer", ["deg-inc", "deg-dec"])
    def test_degree_optimizers(self, medium_graph, nv_model, optimizer):
        fw = MemoryAwareFramework(
            medium_graph, nv_model, budget=1e6, optimizer=optimizer
        )
        assert fw.assignment.algorithm == optimizer


class TestWalking:
    def test_walk(self, medium_graph, nv_model, rng):
        fw = MemoryAwareFramework(medium_graph, nv_model, budget=1e6)
        walk = fw.walk(0, 15, rng)
        assert len(walk) == 16
        for a, b in zip(walk, walk[1:]):
            assert medium_graph.has_edge(int(a), int(b))

    def test_generate_walks(self, toy_graph, nv_model, rng):
        fw = MemoryAwareFramework(toy_graph, nv_model, budget=1e4)
        walks = fw.generate_walks(num_walks=2, length=5, rng=rng)
        assert len(walks) == 2 * toy_graph.num_nodes


class TestDynamicBudget:
    def test_increase_and_decrease(self, medium_graph, nv_model):
        fw = MemoryAwareFramework(medium_graph, nv_model, budget=2e4)
        before = fw.assignment.counts()
        update, seconds = fw.set_budget(3e6)
        after = fw.assignment.counts()
        assert update.steps_applied > 0
        assert after[SamplerKind.ALIAS] >= before[SamplerKind.ALIAS]
        assert seconds >= 0

        update, _ = fw.set_budget(2e4)
        assert update.steps_reverted > 0
        assert fw.assignment.used_memory <= 2e4

    def test_meter_tracks_budget_changes(self, medium_graph, nv_model):
        fw = MemoryAwareFramework(medium_graph, nv_model, budget=2e4)
        fw.set_budget(3e6)
        assert fw.meter.used_bytes == pytest.approx(
            fw.assignment.used_memory, rel=1e-9
        )
        fw.set_budget(2e4)
        assert fw.meter.used_bytes == pytest.approx(
            fw.assignment.used_memory, rel=1e-9
        )

    def test_walks_still_work_after_update(self, medium_graph, nv_model, rng):
        fw = MemoryAwareFramework(medium_graph, nv_model, budget=2e4)
        fw.set_budget(2e6)
        walk = fw.walk(0, 10, rng)
        assert len(walk) == 11

    def test_oom_during_update_leaves_framework_intact(self):
        # Regression: set_budget used to drop and rebuild samplers node by
        # node, so an OOM half-way left the budget raised, samplers out of
        # step with the assignment, a node without a sampler and the meter
        # over-charged.  It now charges the new footprint first and rolls
        # back on failure.
        graph = barabasi_albert_graph(300, 4, rng=3)
        fw = MemoryAwareFramework(
            graph, Node2VecModel(0.25, 4), 2e4, physical_memory=6e4
        )
        samplers = [fw.sampler(v) for v in graph.nodes()]
        assignment = fw.assignment.samplers.copy()
        used, peak, ledger = fw.meter.used_bytes, fw.meter.peak_bytes, fw.meter.ledger
        with pytest.raises(SimulatedOOMError):
            fw.set_budget(1e6)
        assert fw.budget == 2e4
        assert fw._adaptive.budget == 2e4
        assert np.array_equal(fw.assignment.samplers, assignment)
        assert all(fw.sampler(v) is s for v, s in zip(graph.nodes(), samplers))
        assert fw.meter.used_bytes == used
        assert fw.meter.peak_bytes == peak
        assert fw.meter.ledger == ledger
        # The framework still adapts once memory allows it.
        fw.meter.physical_bytes = None
        update, _ = fw.set_budget(1e6)
        assert update.steps_applied > 0
        kinds = [None if s is None else s.kind for s in map(fw.sampler, graph.nodes())]
        assert kinds == [SamplerKind(k) for k in fw.assignment.samplers]
        assert fw.meter.used_bytes == pytest.approx(
            fw.assignment.used_memory, rel=1e-9
        )

    def test_degree_optimizer_rejects_dynamic(self, medium_graph, nv_model):
        fw = MemoryAwareFramework(
            medium_graph, nv_model, budget=1e6, optimizer="deg-inc"
        )
        with pytest.raises(OptimizerError, match="dynamic"):
            fw.set_budget(2e6)


class TestMemoryUnaware:
    @pytest.mark.parametrize("kind", list(SamplerKind))
    def test_uniform_assignment(self, toy_graph, nv_model, kind):
        fw = MemoryAwareFramework.memory_unaware(toy_graph, nv_model, kind)
        for v in range(toy_graph.num_nodes):
            assert fw.assignment[v] is kind

    def test_oom_gate(self, medium_graph, nv_model):
        with pytest.raises(SimulatedOOMError):
            MemoryAwareFramework.memory_unaware(
                medium_graph, nv_model, SamplerKind.ALIAS, physical_memory=1000
            )

    def test_naive_within_tiny_memory(self, medium_graph, nv_model):
        fw = MemoryAwareFramework.memory_unaware(
            medium_graph, nv_model, SamplerKind.NAIVE, physical_memory=10_000
        )
        assert fw.assignment.algorithm == "all-naive"

    def test_rejection_computes_constants(self, toy_graph, nv_model):
        fw = MemoryAwareFramework.memory_unaware(
            toy_graph, nv_model, SamplerKind.REJECTION
        )
        assert fw.timings.bounding_seconds > 0

    def test_isolated_nodes_fall_back_to_naive(self, nv_model):
        from repro import from_edges

        g = from_edges([(0, 1)], num_nodes=3)
        fw = MemoryAwareFramework.memory_unaware(g, nv_model, SamplerKind.ALIAS)
        assert fw.assignment[2] is SamplerKind.NAIVE


class TestModeledTime:
    def test_scalar_samples(self, toy_graph, nv_model):
        fw = MemoryAwareFramework(toy_graph, nv_model, budget=1e4)
        assert fw.modeled_task_time(10) == pytest.approx(
            10 * fw.assignment.total_time
        )

    def test_vector_samples(self, toy_graph, nv_model):
        fw = MemoryAwareFramework(toy_graph, nv_model, budget=1e4)
        samples = np.array([1.0, 2.0, 0.0, 1.0])
        rows = np.arange(4)
        per = fw.cost_table.time[rows, fw.assignment.samplers]
        assert fw.modeled_task_time(samples) == pytest.approx(float(per @ samples))

    def test_more_memory_never_slower(self, medium_graph, nv_model):
        constants = compute_bounding_constants(medium_graph, nv_model)
        times = []
        for budget in (1e4, 5e4, 2e5):
            fw = MemoryAwareFramework(
                medium_graph, nv_model, budget=budget,
                bounding_constants=constants,
            )
            times.append(fw.modeled_task_time(1))
        assert times == sorted(times, reverse=True)
