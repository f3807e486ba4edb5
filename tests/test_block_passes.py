"""Oracle tests for the block passes of framework set-up.

Bounding constants, rejection factors and sampler tables are built in
passes over blocks of edge states.  Each pass must reproduce the scalar
builders bit for bit — the scalar functions (``AliasTable``,
``node_bounding_constant``, ``estimate_node_bounding_constant``,
``edge_max_ratio``) are the oracles here.  Small block bounds are
patched in so that high-degree nodes split across blocks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.bounding.blocks as blocks
import repro.sampling.alias as sampling_alias
import repro.sampling.utils as sampling_utils
from repro import (
    AliasTable,
    AutoregressiveModel,
    CSRGraph,
    Node2VecModel,
    SamplerKind,
    compute_bounding_constants,
    estimate_bounding_constants,
)
from repro.analysis.msan import msan_trace, verify_records
from repro.bounding import (
    edge_bounding_constant,
    edge_max_ratio,
    node_bounding_constant,
)
from repro.bounding.estimate import estimate_node_bounding_constant
from repro.exceptions import DistributionError
from repro.framework import (
    AliasNodeSampler,
    RejectionNodeSampler,
    build_node_sampler,
    build_node_samplers,
)
from repro.graph import barabasi_albert_graph
from repro.models.edge_similarity import EdgeSimilarityModel
from repro.sampling.alias import build_alias_tables
from repro.sampling.utils import validate_distribution

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

MODELS = [
    Node2VecModel(0.25, 4.0),
    AutoregressiveModel(0.3),
    EdgeSimilarityModel(0.5),
]
MODEL_IDS = ["node2vec", "autoregressive", "edge-similarity"]


def _graph(kind: str, seed: int) -> CSRGraph:
    """A small power-law graph: unit-weight, weighted or directed."""
    rng = np.random.default_rng(seed)
    base = barabasi_albert_graph(120, 3, rng=seed)
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


@pytest.fixture(params=[None, 7, 64], ids=["default-blocks", "7", "64"])
def block_entries(request, monkeypatch):
    """Block bound of the passes; small ones split nodes across blocks."""
    if request.param is not None:
        monkeypatch.setattr(blocks, "BLOCK_ENTRIES", request.param)
    return request.param


def _segments(flat: np.ndarray, sizes) -> list[np.ndarray]:
    ends = np.cumsum(sizes)
    return [flat[end - size : end] for size, end in zip(sizes, ends)]


def _stored_floor(factor: float) -> float:
    """The largest float32 not above ``factor``: how an acceptance factor
    is stored."""
    stored = np.float32(factor)
    if float(stored) > factor:
        stored = np.nextafter(stored, np.float32(0))
    return float(stored)


def _tables_match_scalar(flat: np.ndarray, sizes) -> bool:
    prob, alias = build_alias_tables(flat, np.asarray(sizes))
    for weights, p, a in zip(
        _segments(flat, sizes), _segments(prob, sizes), _segments(alias, sizes)
    ):
        table = AliasTable(weights)
        if not (
            np.array_equal(table.probability_table, p)
            and np.array_equal(table.alias_table, a)
        ):
            return False
    return True


# ----------------------------------------------------------------------
# segmented Vose
# ----------------------------------------------------------------------
class TestSegmentedAliasTables:
    @SETTINGS
    @given(
        sizes=st.lists(st.sampled_from([1, 8, 9, 50, 129]), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([1.0, 1e-3, 1e4]),
    )
    def test_bit_identical_to_alias_table(self, sizes, seed, spread):
        # Random, non-dyadic weights: their sums are inexact, so only an
        # ndarray.sum()-order normalisation reproduces the scalar tables.
        rng = np.random.default_rng(seed)
        flat = (rng.random(sum(sizes)) + 1e-3) * spread
        assert _tables_match_scalar(flat, sizes)

    def test_ties_and_exact_levels(self):
        # node2vec-like weights: three levels, many exact-1 columns.
        rng = np.random.default_rng(3)
        sizes = [1, 8, 9, 50, 129, 8, 8]
        flat = rng.choice([0.25, 1.0, 4.0], size=sum(sizes))
        assert _tables_match_scalar(flat, sizes)

    def test_reduceat_normalisation_mutant_is_caught(self, monkeypatch):
        # np.add.reduceat sums left to right; ndarray.sum() is pairwise.
        # A build normalising with it must fail the oracle comparison.
        # The drift is an ulp of float64, which rounding to the stored
        # float32 hides, so the oracle compares the float64 build (in a
        # collect-only MSan scope: it is not the charged width).
        monkeypatch.setattr(sampling_alias, "TABLE_FLOAT", np.dtype(np.float64))

        def reduceat_sums(flat, sizes):
            sizes = np.asarray(sizes)
            return np.add.reduceat(flat, np.cumsum(sizes) - sizes)

        rng = np.random.default_rng(7)
        sizes = [1, 8, 9, 50, 129, 50, 9]
        flat = rng.random(sum(sizes)) + 0.1
        with msan_trace():
            assert _tables_match_scalar(flat, sizes)
            monkeypatch.setattr(sampling_utils, "segment_sums", reduceat_sums)
            assert not _tables_match_scalar(flat, sizes)

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([]),
            np.array([1.0, np.nan]),
            np.array([np.inf, 1.0]),
            np.array([1.0, -0.5]),
            np.array([0.0, 0.0]),
        ],
        ids=["empty", "nan", "inf", "negative", "zero-mass"],
    )
    def test_bad_segment_raises_scalar_error(self, bad):
        good = np.array([1.0, 2.0, 3.0])
        flat = np.concatenate([good, bad, good, np.array([0.0])])
        sizes = [3, len(bad), 3, 1]  # the trailing zero-mass one comes later
        with pytest.raises(DistributionError) as scalar:
            validate_distribution(bad)
        with pytest.raises(DistributionError) as segmented:
            build_alias_tables(flat, np.array(sizes))
        assert str(segmented.value) == str(scalar.value)


# ----------------------------------------------------------------------
# bounding constants
# ----------------------------------------------------------------------
class TestBoundingBlocks:
    @pytest.mark.parametrize("kind", ["unit", "weighted", "directed"])
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_exact_matches_node_oracle(self, kind, model, block_entries):
        graph = _graph(kind, seed=11)
        constants = compute_bounding_constants(graph, model)
        oracle = [node_bounding_constant(graph, model, v) for v in graph.nodes()]
        assert np.array_equal(constants.values, oracle)
        degrees = graph.degrees.astype(np.int64)
        assert constants.meta["ratio_evaluations"] == int((degrees**2).sum())

    @pytest.mark.parametrize("kind", ["unit", "weighted", "directed"])
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_estimate_matches_node_oracle(self, kind, model, block_entries):
        graph = _graph(kind, seed=12)
        estimated = estimate_bounding_constants(
            graph, model, degree_threshold=6, rng=5
        )
        gen = np.random.default_rng(5)
        oracle = [
            estimate_node_bounding_constant(
                graph, model, v, degree_threshold=6, rng=gen
            )
            for v in graph.nodes()
        ]
        assert estimated.estimated_nodes > 0
        assert np.array_equal(estimated.values, oracle)

    @SETTINGS
    @given(seed=st.integers(0, 10_000), entries=st.integers(1, 300))
    def test_any_block_bound_gives_same_constants(self, seed, entries):
        graph = _graph("weighted", seed=seed % 50)
        model = AutoregressiveModel(0.4)
        reference = compute_bounding_constants(graph, model).values
        saved = blocks.BLOCK_ENTRIES
        blocks.BLOCK_ENTRIES = entries
        try:
            values = compute_bounding_constants(graph, model).values
        finally:
            blocks.BLOCK_ENTRIES = saved
        assert np.array_equal(values, reference)


def _reference_blocks(graph, nodes, widths):
    """The per-node packing loop ``state_blocks`` replaces, as
    ``(node, first, count)`` segments per block."""
    out, segments, room = [], [], blocks.BLOCK_ENTRIES
    for v, degree, width in zip(
        nodes.tolist(), graph.degrees[nodes].tolist(), widths.tolist()
    ):
        done = 0
        while done < degree:
            take = min(degree - done, max(room, 0) // width)
            if take == 0:
                if segments:
                    out.append(segments)
                    segments, room = [], blocks.BLOCK_ENTRIES
                    continue
                take = 1
            segments.append((v, done, take))
            done += take
            room -= take * width
    return out + [segments] if segments else out


class TestSegmentPasses:
    @SETTINGS
    @given(
        sizes=st.lists(st.integers(0, 40), max_size=60),
        seed=st.integers(0, 10_000),
    )
    def test_segment_sums_equal_ndarray_sum(self, sizes, seed):
        flat = np.random.default_rng(seed).random(sum(sizes)) * 1e3
        expected = [segment.sum() for segment in _segments(flat, sizes)]
        assert np.array_equal(sampling_utils.segment_sums(flat, sizes), expected)

    @SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        entries=st.integers(1, 300),
        isolated=st.integers(0, 4),
    )
    def test_state_blocks_equal_packing_loop(self, seed, entries, isolated):
        base = _graph("unit", seed=seed % 50)
        # Isolated nodes (width 0) contribute no states.
        graph = CSRGraph(
            np.concatenate([base.indptr, np.full(isolated, base.indptr[-1])]),
            base.indices,
        )
        rng = np.random.default_rng(seed)
        nodes = np.sort(rng.choice(graph.num_nodes, size=rng.integers(1, 60), replace=False))
        widths = np.minimum(graph.degrees[nodes], rng.integers(1, 30, size=len(nodes)))
        saved = blocks.BLOCK_ENTRIES
        blocks.BLOCK_ENTRIES = entries
        try:
            got = [
                list(zip(b.nodes.tolist(), b.first.tolist(), b.counts.tolist()))
                for b in blocks.state_blocks(graph, nodes, widths)
            ]
            assert got == _reference_blocks(graph, nodes, widths)
        finally:
            blocks.BLOCK_ENTRIES = saved


class TestBoundingDefinition:
    """The denominator ``Σ r_z w_vz`` is ``(ratios * weights).sum()`` in
    the scalar oracle and its :func:`segment_sums` in the block pass."""

    @pytest.mark.parametrize("kind", ["weighted", "directed"])
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_edge_oracle_equals_block_pass(self, kind, model, block_entries):
        # Per state, not per node: no averaging hides a last-bit change.
        graph = _graph(kind, seed=13)
        totals = np.zeros(graph.num_nodes)
        for v in np.flatnonzero(graph.degrees).tolist():
            for u in graph.neighbors(v).tolist():
                totals[v] += edge_bounding_constant(graph, model, u, v)
        nodes = np.flatnonzero(graph.degrees)
        expected = np.ones(graph.num_nodes)
        expected[nodes] = totals[nodes] / graph.degrees[nodes]
        assert np.array_equal(compute_bounding_constants(graph, model).values, expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("a,b", [(0.25, 4.0), (0.5, 2.0), (1.0, 1.0)])
    def test_unit_node2vec_keeps_dot_product_values(self, seed, a, b):
        # On unit weights with power-of-two a and b every ratio and every
        # partial sum is exact, so the old per-state np.dot denominators
        # and the new sums give the same C_v.
        graph = barabasi_albert_graph(300, 4, rng=seed)
        model = Node2VecModel(a, b)
        expected = np.ones(graph.num_nodes)
        for v in np.flatnonzero(graph.degrees).tolist():
            weights = graph.neighbor_weights(v)
            total = 0.0
            for u in graph.neighbors(v).tolist():
                ratios = model.target_ratios(graph, u, v)
                denom = float(np.dot(ratios, weights))
                total += float(ratios.max()) * float(weights.sum()) / denom
            expected[v] = total / graph.degree(v)
        assert np.array_equal(compute_bounding_constants(graph, model).values, expected)

    def test_estimated_path_on_autoregressive_weights(self, block_entries):
        graph = _graph("weighted", seed=14)
        model = AutoregressiveModel(0.2)
        estimated = estimate_bounding_constants(graph, model, degree_threshold=4, rng=9)
        gen = np.random.default_rng(9)
        oracle = [
            estimate_node_bounding_constant(graph, model, v, degree_threshold=4, rng=gen)
            for v in graph.nodes()
        ]
        assert estimated.estimated_nodes > 0
        assert np.array_equal(estimated.values, oracle)


# ----------------------------------------------------------------------
# node samplers
# ----------------------------------------------------------------------
def _table_arrays(sampler) -> list[np.ndarray]:
    if isinstance(sampler, AliasNodeSampler):
        tables = [sampler.first_order, *sampler.tables]
    else:
        tables = [sampler.proposal]
    return [x for t in tables for x in (t.probability_table, t.alias_table)]


def _slot(buffer: np.ndarray, view: np.ndarray) -> int:
    """Index of ``view``'s first element in ``buffer``."""
    delta = view.__array_interface__["data"][0] - buffer.__array_interface__["data"][0]
    return delta // buffer.itemsize


class TestNodeSamplerBlocks:
    @pytest.mark.parametrize("kind", ["weighted", "directed"])
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_alias_tables_match_scalar_builds(self, kind, model, block_entries):
        graph = _graph(kind, seed=13)
        nodes = np.flatnonzero(graph.degrees > 0)
        built = build_node_samplers(SamplerKind.ALIAS, graph, model, nodes)
        for v, sampler in zip(nodes.tolist(), built):
            assert sampler.node == v
            expected = [AliasTable(graph.neighbor_weights(v))] + [
                AliasTable(model.biased_weights(graph, int(u), v))
                for u in graph.neighbors(v)
            ]
            got = [sampler.first_order, *sampler.tables]
            assert len(got) == len(expected)
            for table, oracle in zip(got, expected):
                assert np.array_equal(
                    table.probability_table, oracle.probability_table
                )
                assert np.array_equal(table.alias_table, oracle.alias_table)

    @pytest.mark.parametrize("kind", ["weighted", "directed"])
    def test_exact_factors_match_edge_max_ratio(self, kind, block_entries):
        graph = _graph(kind, seed=14)
        model = AutoregressiveModel(0.3)  # no closed-form bound
        nodes = np.flatnonzero(graph.degrees > 0)
        built = build_node_samplers(SamplerKind.REJECTION, graph, model, nodes)
        for v, sampler in zip(nodes.tolist(), built):
            proposal = AliasTable(graph.neighbor_weights(v))
            assert np.array_equal(
                sampler.proposal.probability_table, proposal.probability_table
            )
            assert np.array_equal(sampler.proposal.alias_table, proposal.alias_table)
            for u in graph.neighbors(v).tolist():
                assert sampler.acceptance_factor(u) == _stored_floor(
                    1.0 / edge_max_ratio(graph, model, u, v)
                )

    @pytest.mark.parametrize("kind", [SamplerKind.REJECTION, SamplerKind.ALIAS])
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_node_alone_equals_node_in_block(self, kind, model, block_entries):
        graph = _graph("weighted", seed=15)
        nodes = np.flatnonzero(graph.degrees > 0)
        together = build_node_samplers(kind, graph, model, nodes)
        for v, sampler in zip(nodes.tolist(), together):
            alone = build_node_sampler(kind, graph, model, v)
            for x, y in zip(_table_arrays(alone), _table_arrays(sampler)):
                assert np.array_equal(x, y)
            if kind is SamplerKind.REJECTION:
                for u in graph.neighbors(v).tolist():
                    assert alone.acceptance_factor(u) == sampler.acceptance_factor(u)

    def test_nodes_of_a_pass_share_one_arena(self, block_entries):
        # One arena per pass, each node's tables at its documented slots,
        # and the slots tile the arena: no buffer of a node's own, no gap.
        graph = _graph("weighted", seed=16)
        model = AutoregressiveModel(0.3)  # exact factors: three buffers
        nodes = np.flatnonzero(graph.degrees > 0)
        for kind in (SamplerKind.REJECTION, SamplerKind.ALIAS):
            built = build_node_samplers(kind, graph, model, nodes)
            arena = built[0].arena
            slots = []
            for sampler in built:
                assert sampler.arena is arena
                arrays = _table_arrays(sampler)
                d = sampler.degree
                start = _slot(arena.prob, arrays[0])
                for i, array in enumerate(arrays):
                    buffer = arena.prob if i % 2 == 0 else arena.alias
                    assert array.base is buffer
                    assert _slot(buffer, array) == start + (i // 2) * d
                if kind is SamplerKind.REJECTION:
                    factors = sampler.edge_factors
                    assert factors.base is arena.factors
                    assert _slot(arena.factors, factors) == start
                slots.append((start, len(arrays) // 2 * d))
            slots.sort()
            assert slots[0][0] == 0
            for (start, size), (following, _) in zip(slots, slots[1:]):
                assert start + size == following
            assert sum(size for _, size in slots) == len(arena.prob)

    @pytest.mark.parametrize("kind", ["unit", "weighted", "directed"])
    def test_stored_factors_are_valid_envelopes(self, kind):
        # A stored factor rounded up would give an acceptance probability
        # above 1 at the largest ratio, and the accepted law would drift.
        graph = _graph(kind, seed=19)
        model = AutoregressiveModel(0.3)
        nodes = np.flatnonzero(graph.degrees > 0)
        built = build_node_samplers(SamplerKind.REJECTION, graph, model, nodes)
        checked = 0
        for v, sampler in zip(nodes.tolist(), built):
            for u, factor in zip(graph.neighbors(v).tolist(), sampler.edge_factors):
                assert float(factor) * edge_max_ratio(graph, model, u, v) <= 1.0
                checked += 1
        assert checked == graph.num_edges

    def test_supplied_factors_are_kept(self):
        graph = _graph("unit", seed=17)
        model = AutoregressiveModel(0.3)
        factors = np.linspace(0.1, 0.9, graph.degree(0))
        sampler = RejectionNodeSampler(graph, model, 0, factors=factors)
        for u, factor in zip(graph.neighbors(0).tolist(), factors):
            assert sampler.acceptance_factor(u) == _stored_floor(factor)

    @pytest.mark.parametrize(
        "model", [Node2VecModel(0.5, 2.0), AutoregressiveModel(0.3)],
        ids=["bounded", "exact-factors"],
    )
    def test_msan_records_as_scalar_builds(self, model, block_entries):
        # The scalar builds traced one alias_table per table, then the
        # node's state, with real nbytes; the block builds must too.
        graph = _graph("weighted", seed=18)
        nodes = np.flatnonzero(graph.degrees > 0)[:40]
        with msan_trace() as tracer:
            build_node_samplers(SamplerKind.ALIAS, graph, model, nodes)
            build_node_samplers(SamplerKind.REJECTION, graph, model, nodes)
        expected = []
        for v in nodes.tolist():
            d = float(graph.degree(v))
            expected += [("alias_table", 8 * d, None)] * (graph.degree(v) + 1)
            expected.append(("alias_state", 8 * d * (d + 1), None))
        bounded = model.max_ratio_bound(graph) is not None
        for v in nodes.tolist():
            d = float(graph.degree(v))
            expected.append(("alias_table", 8 * d, None))
            expected.append(
                ("rejection_state", 8 * d if bounded else 12 * d,
                 "bounded" if bounded else None)
            )
        got = [(r.structure, r.nbytes, r.variant) for r in tracer.records]
        assert got == expected
        assert verify_records(tracer.records) == []
