"""Table arenas: every framework path holds one arena per sampler kind,
and the batch engine walks those arenas instead of a copy.

The invariants pinned here are the memory claim of the assignment-aware
path: the sampler tables exist once (the engine's table arrays *are* the
samplers' arenas), a budget update frees what it drops (the compacted
arena holds exactly the new assignment's tables), a rolled-back update
leaves the old arena alone, and a framework retains its arenas plus
``O(|V|)`` bookkeeping — no per-table objects.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro import (
    AutoregressiveModel,
    MemoryAwareFramework,
    Node2VecModel,
    SamplerKind,
)
from repro.distributed import PartitionedFramework, hash_partition
from repro.exceptions import SimulatedOOMError
from repro.framework import build_node_sampler, build_node_samplers
from repro.graph import barabasi_albert_graph
from repro.walks import BatchWalkEngine

MODELS = [Node2VecModel(0.25, 4.0), AutoregressiveModel(0.3)]
MODEL_IDS = ["bounded", "exact-factors"]


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(300, 4, rng=3)


def samplers_of(framework, graph):
    return [framework.sampler(v) for v in range(graph.num_nodes)]


def arenas_by_kind(samplers) -> dict[SamplerKind, set[int]]:
    """Distinct arenas (by identity) of the rejection and alias samplers."""
    found: dict[SamplerKind, set[int]] = {}
    for sampler in samplers:
        if sampler is not None and sampler.kind is not SamplerKind.NAIVE:
            found.setdefault(sampler.kind, set()).add(id(sampler.arena))
    return found


def arena_of_kind(samplers) -> dict:
    """Kind -> the arena of its samplers (one per kind on every framework
    path, see ``arenas_by_kind``)."""
    return {
        s.kind: s.arena
        for s in samplers
        if s is not None and s.kind is not SamplerKind.NAIVE
    }


def table_bytes(graph, model, kinds: np.ndarray) -> dict[SamplerKind, int]:
    """Real bytes of the tables an assignment needs, by kind: 16 bytes a
    slot (a float64 probability and an int64 alias), plus 8 per rejection
    slot when the model has no closed-form bound."""
    d = graph.degrees.astype(np.int64)
    factor = 8 if model.max_ratio_bound(graph) is None else 0
    return {
        SamplerKind.ALIAS: int((16 * (d + 1) * d)[kinds == SamplerKind.ALIAS].sum()),
        SamplerKind.REJECTION: int(
            ((16 + factor) * d)[kinds == SamplerKind.REJECTION].sum()
        ),
    }


def assert_engine_walks_sampler_arenas(engine, samplers):
    """One arena per kind, and the engine's tables are those arenas."""
    held = arenas_by_kind(samplers)
    assert all(len(ids) == 1 for ids in held.values()), held
    arenas = engine.table_arenas()
    assert {SamplerKind[name.upper()] for name in arenas} == set(held)
    for name, arena in arenas.items():
        kind = SamplerKind[name.upper()]
        owner = next(
            s.arena for s in samplers if s is not None and s.kind is kind
        )
        assert arena is owner
        assert np.shares_memory(arena.prob, owner.prob)
        assert np.shares_memory(arena.alias, owner.alias)


def mixed_framework(graph, model, **kwargs):
    """A budget that puts both rejection and alias samplers to work."""
    return MemoryAwareFramework(graph, model, 6e4, rng=0, **kwargs)


class TestOneArenaPerKind:
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_framework_engine_walks_sampler_arenas(self, graph, model):
        framework = mixed_framework(graph, model)
        samplers = samplers_of(framework, graph)
        assert set(arenas_by_kind(samplers)) == {
            SamplerKind.REJECTION,
            SamplerKind.ALIAS,
        }
        assert_engine_walks_sampler_arenas(framework.batch_engine(), samplers)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_partitioned_engine_walks_sampler_arenas(self, graph, model):
        framework = PartitionedFramework(
            graph, model, hash_partition(graph.num_nodes, 3), [2e4] * 3
        )
        samplers = [framework._samplers[v] for v in range(graph.num_nodes)]
        assert set(arenas_by_kind(samplers)) == {
            SamplerKind.REJECTION,
            SamplerKind.ALIAS,
        }
        assert_engine_walks_sampler_arenas(framework.batch_engine(), samplers)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("budgets", [(2e5, 2e4), (2e4, 2e5)], ids=["down", "up"])
    def test_set_budget_keeps_one_arena_per_kind(self, graph, model, budgets):
        framework = mixed_framework(graph, model)
        for budget in budgets:
            framework.set_budget(budget)
            samplers = samplers_of(framework, graph)
            assert_engine_walks_sampler_arenas(framework.batch_engine(), samplers)


    def test_bounded_rejection_engine_builds_no_reverse_index(self):
        # The reverse-edge index (|E| int64) addresses alias tables and
        # per-edge factors; rejection under a closed-form bound reads
        # neither, so its engine must not build it.
        graph = barabasi_albert_graph(200, 4, rng=1)
        model = Node2VecModel(0.25, 4.0)
        samplers = build_node_samplers(
            SamplerKind.REJECTION, graph, model, np.arange(graph.num_nodes)
        )
        BatchWalkEngine(graph, model, samplers).walks(num_walks=1, length=5, rng=0)
        assert graph._reverse is None


class TestCompaction:
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_arena_holds_exactly_the_new_assignment(self, graph, model):
        framework = MemoryAwareFramework(graph, model, 2e5, rng=0)
        for budget in (3e4, 1e4, 8e4):
            framework.set_budget(budget)
            samplers = samplers_of(framework, graph)
            expected = table_bytes(graph, model, framework.assignment.samplers)
            arenas = arena_of_kind(samplers)
            for kind in (SamplerKind.REJECTION, SamplerKind.ALIAS):
                held = arenas[kind].nbytes if kind in arenas else 0
                assert held == expected[kind], (budget, kind)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_compacted_tables_walk_like_fresh_ones(self, graph, model):
        # Survivors are copied, rebuilt nodes built: the engine over the
        # compacted arenas walks exactly as one over freshly built
        # one-node samplers of the same assignment.
        framework = MemoryAwareFramework(graph, model, 2e5, rng=0)
        framework.set_budget(3e4)
        kinds = framework.assignment.samplers
        fresh = [
            build_node_sampler(SamplerKind(int(kinds[v])), graph, model, v)
            if graph.degree(v) > 0
            else None
            for v in range(graph.num_nodes)
        ]
        compacted = framework.batch_engine().walks(num_walks=2, length=10, rng=5)
        rebuilt = BatchWalkEngine(graph, model, fresh).walks(
            num_walks=2, length=10, rng=5
        )
        assert len(compacted) == len(rebuilt)
        for a, b in zip(compacted, rebuilt):
            assert np.array_equal(a, b)

    def test_rolled_back_update_leaves_the_arena(self):
        graph = barabasi_albert_graph(300, 4, rng=3)
        framework = MemoryAwareFramework(
            graph, Node2VecModel(0.25, 4), 2e4, physical_memory=6e4
        )
        samplers = samplers_of(framework, graph)
        arenas = arena_of_kind(samplers)
        copies = {
            kind: (arena.prob.copy(), arena.alias.copy())
            for kind, arena in arenas.items()
        }
        with pytest.raises(SimulatedOOMError):
            framework.set_budget(1e6)
        for sampler in samplers_of(framework, graph):
            if sampler is not None and sampler.kind in copies:
                assert sampler.arena is arenas[sampler.kind]
        for kind, (prob, alias) in copies.items():
            assert np.array_equal(arenas[kind].prob, prob)
            assert np.array_equal(arenas[kind].alias, alias)


class TestHandAssembledSamplers:
    def test_one_node_samplers_walk_through_a_joint_arena(self, graph):
        # Samplers built one node at a time each hold their own arena; the
        # engine copies them into one joint arena per kind and walks the
        # same corpus as over samplers built together.
        model = Node2VecModel(0.25, 4.0)
        framework = MemoryAwareFramework(graph, model, 1e12, rng=0)
        together = samplers_of(framework, graph)
        alone = [
            build_node_sampler(s.kind, graph, model, s.node) for s in together
        ]
        engine = BatchWalkEngine(graph, model, alone)
        (arena,) = engine.table_arenas().values()
        assert not any(np.shares_memory(arena.prob, s.arena.prob) for s in alone)
        assert arena.nbytes == sum(s.arena.nbytes for s in alone)
        a = engine.walks(num_walks=2, length=8, rng=9)
        b = framework.batch_engine().walks(num_walks=2, length=8, rng=9)
        assert len(a) == len(b)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_framework_retains_arenas_plus_linear_bookkeeping():
    # Per-table objects (an AliasTable and two row views per table) cost
    # ~190 bytes a table, ~3 KB a node on this graph; the bookkeeping of
    # the optimizer, the meter and the sampler objects is ~1.4 KB a node.
    graph = barabasi_albert_graph(1_500, 8, rng=5)
    graph.reverse_edges()
    model = Node2VecModel(0.25, 4.0)
    MemoryAwareFramework(graph, model, 1e12)  # imports, graph caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        framework = MemoryAwareFramework(graph, model, 1e12)
        engine = framework.batch_engine()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    (arena,) = engine.table_arenas().values()
    assert arena.nbytes == table_bytes(graph, model, framework.assignment.samplers)[
        SamplerKind.ALIAS
    ]
    assert retained < arena.nbytes + 2_500 * graph.num_nodes
