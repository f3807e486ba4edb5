"""Table arenas: every framework path holds one arena per sampler kind,
and the batch engine walks those arenas instead of a copy.

The invariants pinned here are the memory claim of the assignment-aware
path: the sampler tables exist once (the engine's table arrays *are* the
samplers' arenas), a budget update frees what it drops (the compacted
arena holds exactly the new assignment's tables), a rolled-back update
leaves the old arena alone, and a framework retains its arenas plus
``O(|V|)`` bookkeeping — no per-table objects.  The arenas are stored at
the widths the cost model charges, so on every memory-aware path the
bytes they hold are at most what the budget was charged for them, and
exactly that for alias tables and exact-factor rejection state.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro import (
    AutoregressiveModel,
    CostParams,
    MemoryAwareFramework,
    Node2VecModel,
    SamplerKind,
    WalkCorpus,
)
from repro.analysis import diagnose_walks
from repro.bounding.blocks import BLOCK_ENTRIES
from repro.cost import alias_memory, alias_table_memory, rejection_memory
from repro.distributed import PartitionedFramework, hash_partition
from repro.exceptions import SimulatedOOMError
from repro.framework import build_node_sampler, build_node_samplers
from repro.graph import barabasi_albert_graph, powerlaw_cluster_graph
from repro.sampling.alias import TABLE_FLOAT, TABLE_INT
from repro.walks import BatchWalkEngine

MODELS = [Node2VecModel(0.25, 4.0), AutoregressiveModel(0.3)]
MODEL_IDS = ["bounded", "exact-factors"]


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(300, 4, rng=3)


def samplers_of(framework):
    return list(framework._samplers)


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


def assigned_kinds(framework) -> np.ndarray:
    """The sampler kind the framework's optimizer gave each node."""
    if isinstance(framework, PartitionedFramework):
        kinds = np.empty(framework.graph.num_nodes, dtype=np.int64)
        for worker, assignment in enumerate(framework.worker_assignments):
            kinds[framework.partition == worker] = assignment.samplers
        return kinds
    return framework.assignment.samplers


def is_bounded(framework) -> bool:
    """Whether rejection samplers use the model's closed-form bound (and
    so hold no acceptance factors)."""
    return framework.model.max_ratio_bound(framework.graph) is not None


def table_bytes(framework) -> dict[SamplerKind, int]:
    """Bytes the tables of the framework's assignment take, by kind: the
    ``cost/model.py`` formulas at the framework's widths.  A rejection
    node under a closed-form bound holds its proposal table only."""
    params = framework.cost_params
    degrees = framework.graph.degrees.tolist()
    kinds = assigned_kinds(framework).tolist()
    rejection = alias_table_memory if is_bounded(framework) else rejection_memory
    formulas = {SamplerKind.ALIAS: alias_memory, SamplerKind.REJECTION: rejection}
    return {
        kind: int(sum(
            formula(params, d)
            for d, k in zip(degrees, kinds)
            if k == kind and d > 0
        ))
        for kind, formula in formulas.items()
    }


def charged_bytes(framework) -> dict[SamplerKind, float]:
    """What the budget charged each kind's tables: the cost-table memory
    of its nodes.  Where the framework has a meter, its ledger entry for
    the kind says the same."""
    kinds = assigned_kinds(framework)
    rows = np.arange(framework.graph.num_nodes)
    memory = framework.cost_table.memory[rows, kinds]
    active = framework.graph.degrees > 0
    charged = {
        kind: float(memory[active & (kinds == kind)].sum())
        for kind in (SamplerKind.REJECTION, SamplerKind.ALIAS)
    }
    meter = getattr(framework, "meter", None)
    if meter is not None:
        for kind, amount in charged.items():
            ledger = meter.ledger.get(f"{kind.name.lower()} samplers", 0.0)
            assert ledger == pytest.approx(amount)
    return charged


def arena_bytes(framework) -> dict[SamplerKind, int]:
    """Real bytes of the framework's arenas, by kind (0 when none)."""
    arenas = arena_of_kind(samplers_of(framework))
    return {
        kind: arenas[kind].nbytes if kind in arenas else 0
        for kind in (SamplerKind.REJECTION, SamplerKind.ALIAS)
    }


def assert_arenas_within_charge(framework):
    """The arenas hold the assignment's formula bytes, which are the
    charge for alias tables and exact-factor rejection state and at most
    the charge for bounded rejection (the charge prices factors it never
    stores)."""
    held = arena_bytes(framework)
    assert held == table_bytes(framework)
    charged = charged_bytes(framework)
    assert held[SamplerKind.ALIAS] == charged[SamplerKind.ALIAS]
    if is_bounded(framework):
        assert held[SamplerKind.REJECTION] <= charged[SamplerKind.REJECTION]
    else:
        assert held[SamplerKind.REJECTION] == charged[SamplerKind.REJECTION]


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
        samplers = samplers_of(framework)
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
        samplers = samplers_of(framework)
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
            samplers = samplers_of(framework)
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
            assert arena_bytes(framework) == table_bytes(framework), budget

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
        samplers = samplers_of(framework)
        arenas = arena_of_kind(samplers)
        copies = {
            kind: (arena.prob.copy(), arena.alias.copy())
            for kind, arena in arenas.items()
        }
        with pytest.raises(SimulatedOOMError):
            framework.set_budget(1e6)
        for sampler in samplers_of(framework):
            if sampler is not None and sampler.kind in copies:
                assert sampler.arena is arenas[sampler.kind]
        for kind, (prob, alias) in copies.items():
            assert np.array_equal(arenas[kind].prob, prob)
            assert np.array_equal(arenas[kind].alias, alias)


def _after_budgets(graph, model, budgets):
    framework = MemoryAwareFramework(graph, model, budgets[0], rng=0)
    for budget in budgets[1:]:
        framework.set_budget(budget)
    return framework


#: Every framework path that builds sampler tables under a budget.
PATHS = {
    "lp": lambda graph, model: mixed_framework(graph, model, optimizer="lp"),
    "deg-inc": lambda graph, model: mixed_framework(
        graph, model, optimizer="deg-inc"
    ),
    "deg-dec": lambda graph, model: mixed_framework(
        graph, model, optimizer="deg-dec"
    ),
    "all-alias": lambda graph, model: MemoryAwareFramework.memory_unaware(
        graph, model, SamplerKind.ALIAS
    ),
    "all-rejection": lambda graph, model: MemoryAwareFramework.memory_unaware(
        graph, model, SamplerKind.REJECTION
    ),
    "partitioned": lambda graph, model: PartitionedFramework(
        graph, model, hash_partition(graph.num_nodes, 3), [2e4] * 3
    ),
    "set-budget-down": lambda graph, model: _after_budgets(
        graph, model, (2e5, 2e4)
    ),
    "set-budget-up": lambda graph, model: _after_budgets(
        graph, model, (2e4, 2e5)
    ),
}


class TestBytesAgainstCharge:
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("path", list(PATHS))
    def test_arena_bytes_are_at_most_the_charge(self, graph, model, path):
        framework = PATHS[path](graph, model)
        assert_arenas_within_charge(framework)

    @pytest.mark.parametrize(
        "ratios", [(0.5, 0.3), (0.3, 0.5)], ids=["down", "up"]
    )
    def test_set_budget_peak_is_old_plus_new_arenas(self, ratios):
        # The old arenas stay alive until the update commits, so the
        # traced peak holds both.  The slack is one block pass of build
        # temporaries (about 160 bytes an entry, measured) plus the
        # update's per-node bookkeeping.
        graph = barabasi_albert_graph(3_000, 10, rng=5)
        model = Node2VecModel(0.25, 4.0)
        full = sum(alias_memory(CostParams(), d) for d in graph.degrees.tolist())
        slack = 192 * BLOCK_ENTRIES + 500 * graph.num_nodes
        gc.collect()
        tracemalloc.start()
        try:
            framework = MemoryAwareFramework(graph, model, ratios[0] * full, rng=0)
            gc.collect()
            old = sum(arena_bytes(framework).values())
            current = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            framework.set_budget(ratios[1] * full)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        new = sum(arena_bytes(framework).values())
        assert old != new
        assert_arenas_within_charge(framework)
        assert peak <= (current - old) + old + new + slack


class TestFaithfulAtStoredWidths:
    """Walks over float32/int32 arenas follow the exact e2e law."""

    @pytest.fixture(scope="class")
    def small(self):
        return powerlaw_cluster_graph(25, 3, 0.5, rng=5)

    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    @pytest.mark.parametrize("mix", ["all-alias", "mixed"])
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_walks_follow_the_exact_law(self, small, model, mix, engine):
        if mix == "all-alias":
            framework = MemoryAwareFramework.memory_unaware(
                small, model, SamplerKind.ALIAS, rng=0
            )
        else:
            framework = MemoryAwareFramework(small, model, 4e3, rng=0)
        arenas = arena_of_kind(samplers_of(framework))
        expected = {SamplerKind.ALIAS}
        if mix == "mixed":
            expected.add(SamplerKind.REJECTION)
        assert set(arenas) == expected
        for arena in arenas.values():
            assert arena.prob.dtype == TABLE_FLOAT
            assert arena.alias.dtype == TABLE_INT
            if arena.factors is not None:
                assert arena.factors.dtype == TABLE_FLOAT
        if engine == "batch":
            corpus = framework.batch_engine().walks(num_walks=60, length=20, rng=1)
        else:
            corpus = WalkCorpus.from_walks(
                framework.generate_walks(num_walks=60, length=20, rng=1)
            )
        diagnostics = diagnose_walks(small, model, corpus, min_samples=200)
        assert diagnostics.contexts_checked > 0
        assert diagnostics.is_faithful(max_noise_units=3.5)


class TestHandAssembledSamplers:
    def test_one_node_samplers_walk_through_a_joint_arena(self, graph):
        # Samplers built one node at a time each hold their own arena; the
        # engine copies them into one joint arena per kind and walks the
        # same corpus as over samplers built together.
        model = Node2VecModel(0.25, 4.0)
        framework = MemoryAwareFramework(graph, model, 1e12, rng=0)
        together = samplers_of(framework)
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
    assert arena.nbytes == table_bytes(framework)[SamplerKind.ALIAS]
    assert retained < arena.nbytes + 2_500 * graph.num_nodes
