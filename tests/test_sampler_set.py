"""The framework's samplers as arena rows (:class:`SamplerSet`).

A framework keeps one table arena per sampler kind plus a per-node kind
column and per-kind ``base`` offsets; it makes no sampler object per
node.  Pinned here:

* the set-up passes visit nodes in degree order, and no pass order can
  change a value: bounding constants and arena bytes are bit-identical
  for any permutation of the order the passes visit the nodes in;
* building a framework and its batch engine makes no per-node object;
* ``framework.sampler(v)`` is a view bit-identical to a sampler built
  alone;
* a batch engine made before ``set_budget`` keeps walking the old
  assignment.
"""

from __future__ import annotations

import gc
import tracemalloc
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.analysis.msan as msan
import repro.bounding.blocks as blocks
import repro.bounding.exact as exact
import repro.framework.node_samplers as node_samplers
from repro import (
    AutoregressiveModel,
    CSRGraph,
    MemoryAwareFramework,
    Node2VecModel,
    SamplerKind,
    compute_bounding_constants,
)
from repro.distributed import PartitionedFramework, hash_partition
from repro.framework import SamplerSet, build_node_sampler
from repro.framework.node_samplers import build_arena
from repro.graph import barabasi_albert_graph

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _graph(kind: str, seed: int) -> CSRGraph:
    """A small power-law graph: unit-weight, weighted or directed."""
    rng = np.random.default_rng(seed)
    base = barabasi_albert_graph(60, 3, rng=seed)
    weights = rng.random(base.num_edges) + 0.05
    if kind == "unit":
        return base
    if kind == "weighted":
        return CSRGraph(base.indptr, base.indices, weights)
    keep = rng.random(base.num_edges) < 0.7
    rows = np.repeat(np.arange(base.num_nodes), base.degrees)
    return CSRGraph.from_edges(
        np.stack([rows[keep], base.indices[keep]], axis=1),
        weights[keep],
        num_nodes=base.num_nodes,
        undirected=False,
    )


@contextmanager
def _in_order(seed: int) -> Iterator[None]:
    """Patch the passes' :func:`~repro.bounding.blocks.degree_order` to a
    permutation of the nodes drawn from ``seed``."""

    def order(graph, nodes):
        return np.random.default_rng(seed).permutation(len(nodes))

    with mock.patch.object(exact, "degree_order", order), mock.patch.object(
        node_samplers, "degree_order", order
    ):
        yield


def _bits(*arrays) -> list[bytes]:
    return [b"" if a is None else np.ascontiguousarray(a).tobytes() for a in arrays]


class TestPassOrderInvariance:
    """Any order the passes visit the nodes in gives the same bits; small
    block bounds split high-degree nodes across blocks."""

    @SETTINGS
    @given(
        kind=st.sampled_from(["unit", "weighted", "directed"]),
        seed=st.integers(0, 1_000),
        order=st.integers(0, 2**32 - 1),
        entries=st.sampled_from([7, 64, blocks.BLOCK_ENTRIES]),
        autoregressive=st.booleans(),
    )
    def test_bounding_constants(self, kind, seed, order, entries, autoregressive):
        graph = _graph(kind, seed)
        model = AutoregressiveModel(0.3) if autoregressive else Node2VecModel(0.25, 4.0)
        with mock.patch.object(blocks, "BLOCK_ENTRIES", entries):
            expected = compute_bounding_constants(graph, model).values
            with _in_order(order):
                permuted = compute_bounding_constants(graph, model).values
        assert _bits(permuted) == _bits(expected)

    @SETTINGS
    @given(
        kind=st.sampled_from(["unit", "weighted", "directed"]),
        seed=st.integers(0, 1_000),
        order=st.integers(0, 2**32 - 1),
        entries=st.sampled_from([7, 64, blocks.BLOCK_ENTRIES]),
        tables=st.sampled_from(
            ["alias", "rejection-bounded", "rejection-exact", "rejection-factors"]
        ),
    )
    def test_arena(self, kind, seed, order, entries, tables):
        graph = _graph(kind, seed)
        nodes = np.flatnonzero(graph.degrees)
        model = (
            AutoregressiveModel(0.3)
            if tables == "rejection-exact"
            else Node2VecModel(0.25, 4.0)
        )
        sampler_kind = SamplerKind.ALIAS if tables == "alias" else SamplerKind.REJECTION
        factors = None
        if tables == "rejection-factors":
            states = int(graph.degrees[nodes].sum())
            factors = np.random.default_rng(seed).random(states) + 0.25

        def build():
            arena, offsets = build_arena(
                sampler_kind, graph, model, nodes, factors=factors
            )
            return _bits(arena.prob, arena.alias, arena.factors, offsets)

        with mock.patch.object(blocks, "BLOCK_ENTRIES", entries):
            expected = build()
            with _in_order(order):
                permuted = build()
        if tables in ("rejection-exact", "rejection-factors"):
            assert expected[2]  # the arena holds acceptance factors
        assert permuted == expected


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(300, 4, rng=3)


MODELS = [Node2VecModel(0.25, 4.0), AutoregressiveModel(0.3)]
MODEL_IDS = ["bounded", "exact-factors"]

#: Every framework path, each with rejection and alias nodes.
FRAMEWORKS = {
    "lp": lambda graph, model: MemoryAwareFramework(graph, model, 6e4, rng=0),
    "deg-inc": lambda graph, model: MemoryAwareFramework(
        graph, model, 6e4, optimizer="deg-inc", rng=0
    ),
    "set-budget": lambda graph, model: _updated(
        MemoryAwareFramework(graph, model, 2e5, rng=0), 3e4
    ),
    "partitioned": lambda graph, model: PartitionedFramework(
        graph, model, hash_partition(graph.num_nodes, 3), [2e4] * 3
    ),
}


def _updated(framework, budget):
    framework.set_budget(budget)
    return framework


class TestNoPerNodeObjects:
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("path", list(FRAMEWORKS))
    def test_build_and_batch_engine_make_no_sampler(self, graph, model, path):
        framework = FRAMEWORKS[path](graph, model)
        engine = framework.batch_engine()
        samplers = framework.walk_engine.samplers
        assert isinstance(samplers, SamplerSet)
        assert samplers.views_built == 0
        assert set(samplers.arenas) == {SamplerKind.REJECTION, SamplerKind.ALIAS}
        engine.walks(num_walks=1, length=6, rng=0)
        assert samplers.views_built == 0

    def test_retained_heap_is_arenas_plus_arrays(self):
        # What a framework and its batch engine keep, besides the arenas
        # and the cost table, is numpy bookkeeping: bounding constants,
        # assignment and optimizer state, the kind column and the base
        # offsets, 171 bytes a node measured.  The bound, 240 bytes a
        # node, leaves less than one small Python object per node: a bare
        # instance in a list traces at 82 bytes, the smallest sampler
        # (naive) at 134.  The per-node samplers the set replaced took
        # about 470 bytes a node with their views, labels and lists.
        # The memory sanitizer, when switched on, keeps a record per
        # node by design; it is off here, as in a production run.
        graph = barabasi_albert_graph(2_000, 4, rng=5)
        graph.reverse_edges()
        model = Node2VecModel(0.25, 4.0)
        sanitizer_off = mock.patch.dict("os.environ", {msan.MSAN_ENV: "0"})
        with sanitizer_off, mock.patch.object(msan, "_TRACER", None):
            MemoryAwareFramework(graph, model, 6e5).batch_engine()  # warm caches
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                framework = MemoryAwareFramework(graph, model, 6e5)
                engine = framework.batch_engine()
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        arenas = sum(arena.nbytes for arena in engine.table_arenas().values())
        table = framework.cost_table
        costs = table.time.nbytes + table.memory.nbytes + table.available.nbytes
        assert set(engine.table_arenas()) == {"rejection", "alias"}
        per_node = (retained - arenas - costs) / graph.num_nodes
        assert per_node < 240, per_node


class TestViews:
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("path", list(FRAMEWORKS))
    def test_sampler_matches_a_sampler_built_alone(self, graph, model, path):
        framework = FRAMEWORKS[path](graph, model)
        seen = set()
        for v in range(graph.num_nodes):
            view = framework.walk_engine.samplers[v]
            if graph.degree(v) == 0:
                assert view is None
                continue
            alone = build_node_sampler(view.kind, graph, model, v)
            assert type(view) is type(alone)
            seen.add(view.kind)
            if view.kind is SamplerKind.ALIAS:
                pairs = [(view.first_order, alone.first_order)]
                pairs += list(zip(view.tables, alone.tables))
            elif view.kind is SamplerKind.REJECTION:
                pairs = [(view.proposal, alone.proposal)]
                assert _bits(view.edge_factors) == _bits(alone.edge_factors)
            else:
                continue
            for a, b in pairs:
                assert _bits(a.probability_table, a.alias_table) == _bits(
                    b.probability_table, b.alias_table
                )
        assert {SamplerKind.REJECTION, SamplerKind.ALIAS} <= seen

    def test_views_are_memoised(self, graph):
        framework = MemoryAwareFramework(graph, MODELS[0], 6e4, rng=0)
        assert framework.sampler(5) is framework.sampler(5)
        assert framework.walk_engine.samplers.views_built == 1


class TestEngineBeforeUpdate:
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("budget", [3e4, 1.5e5], ids=["down", "up"])
    def test_keeps_walking_the_old_assignment(self, graph, model, budget):
        framework = MemoryAwareFramework(graph, model, 6e4, rng=0)
        engine = framework.batch_engine()
        before = engine.walks(num_walks=2, length=10, rng=4)
        old = {
            name: _bits(arena.prob, arena.alias, arena.factors)
            for name, arena in engine.table_arenas().items()
        }
        old_kinds = framework.assignment.samplers.copy()
        framework.set_budget(budget)
        new = framework.walk_engine.samplers
        changed = np.flatnonzero(old_kinds != framework.assignment.samplers)
        touched = {
            SamplerKind(k)
            for k in np.concatenate((old_kinds[changed], new.columns[changed]))
            if k != SamplerKind.NAIVE
        }
        assert touched == {SamplerKind.REJECTION, SamplerKind.ALIAS}

        after = engine.walks(num_walks=2, length=10, rng=4)
        assert len(after) == len(before)
        assert all(np.array_equal(a, b) for a, b in zip(after, before))
        for name, arena in engine.table_arenas().items():
            assert _bits(arena.prob, arena.alias, arena.factors) == old[name]
            # The compacted arenas of the new set are new buffers.
            fresh = new.arenas.get(SamplerKind[name.upper()])
            assert fresh is not None
            assert not np.shares_memory(fresh.prob, arena.prob)
            assert not np.shares_memory(fresh.alias, arena.alias)
        # And the framework's own engine walks the new assignment.
        rebuilt = framework.batch_engine().walks(num_walks=2, length=10, rng=4)
        assert any(not np.array_equal(a, b) for a, b in zip(rebuilt, before))
