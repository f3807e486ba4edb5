"""Unit tests for the CSR graph structure."""

import numpy as np
import pytest

from repro import CSRGraph
from repro.exceptions import EmptyGraphError, GraphFormatError


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)])
        assert g.num_nodes == 3
        assert g.num_edges == 4  # stored in both directions

    def test_explicit_arrays(self):
        g = CSRGraph(
            indptr=[0, 1, 2],
            indices=[1, 0],
            weights=[2.0, 2.0],
        )
        assert g.num_nodes == 2
        assert g.edge_weight(0, 1) == 2.0

    def test_unweighted_defaults_to_unit(self):
        g = CSRGraph(indptr=[0, 1, 2], indices=[1, 0])
        assert g.is_unit_weight
        assert np.all(g.weights == 1.0)

    def test_directed_storage(self):
        g = CSRGraph.from_edges([(0, 1)], undirected=False)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_empty_graph(self):
        g = CSRGraph.from_edges([], num_nodes=3)
        assert g.num_nodes == 3
        assert g.num_edges == 0
        assert g.degree(0) == 0

    def test_zero_node_graph(self):
        g = CSRGraph.from_edges([])
        assert g.num_nodes == 0
        with pytest.raises(EmptyGraphError):
            _ = g.max_degree


class TestValidation:
    def test_bad_indptr_start(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(indptr=[1, 2], indices=[0, 1])

    def test_decreasing_indptr(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(indptr=[0, 2, 1], indices=[1, 0])

    def test_indptr_end_mismatch(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(indptr=[0, 1, 3], indices=[1, 0])

    def test_out_of_range_neighbor(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(indptr=[0, 1], indices=[5])

    def test_negative_weight(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(indptr=[0, 1, 2], indices=[1, 0], weights=[-1.0, 1.0])

    def test_nan_weight(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(indptr=[0, 1, 2], indices=[1, 0], weights=[np.nan, 1.0])

    def test_unsorted_adjacency(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(indptr=[0, 2, 3, 4], indices=[2, 1, 0, 0])

    def test_unsorted_adjacency_names_first_unsorted_node(self):
        # Rows 0 and 3 are sorted, 1 is empty, 2 and 4 are unsorted; the
        # descents between rows (3 -> 0, 4 -> 1) are allowed.
        with pytest.raises(GraphFormatError, match="adjacency of node 2 is not sorted"):
            CSRGraph(
                indptr=[0, 2, 2, 4, 6, 8],
                indices=[1, 3, 4, 0, 1, 2, 4, 3],
            )

    def test_descents_between_rows_are_sorted(self):
        g = CSRGraph(indptr=[0, 2, 2, 3, 5], indices=[2, 3, 1, 0, 2])
        assert g.num_edges == 5

    def test_weight_length_mismatch(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(indptr=[0, 1, 2], indices=[1, 0], weights=[1.0])


class TestAccessors:
    def test_degrees(self, toy_graph):
        assert list(toy_graph.degrees) == [3, 1, 2, 2]
        assert toy_graph.degree(0) == 3
        assert toy_graph.max_degree == 3

    def test_average_degree(self, toy_graph):
        assert toy_graph.average_degree == pytest.approx(2.0)

    def test_neighbors_sorted(self, toy_graph):
        nbrs = toy_graph.neighbors(0)
        assert list(nbrs) == [1, 2, 3]

    def test_neighbor_weights(self, weighted_graph):
        nbrs = weighted_graph.neighbors(0)
        weights = weighted_graph.neighbor_weights(0)
        expected = {1: 1.0, 2: 2.0}
        for z, w in zip(nbrs, weights):
            assert w == expected[int(z)]

    def test_weight_sum(self, weighted_graph):
        assert weighted_graph.weight_sum(0) == pytest.approx(3.0)
        assert weighted_graph.weight_sum(2) == pytest.approx(5.5)

    def test_weight_sums_match_manual(self, weighted_graph):
        for v in range(weighted_graph.num_nodes):
            manual = float(weighted_graph.neighbor_weights(v).sum())
            assert weighted_graph.weight_sum(v) == pytest.approx(manual)

    def test_weight_sum_isolated_node(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=3)
        assert g.weight_sum(2) == 0.0

    def test_nodes_iterator(self, toy_graph):
        assert list(toy_graph.nodes()) == [0, 1, 2, 3]

    def test_edges_iterator(self, path_graph):
        edges = list(path_graph.edges())
        assert (0, 1, 1.0) in edges
        assert (1, 0, 1.0) in edges
        assert len(edges) == path_graph.num_edges


class TestEdgeQueries:
    def test_has_edge(self, toy_graph):
        assert toy_graph.has_edge(0, 1)
        assert toy_graph.has_edge(2, 3)
        assert not toy_graph.has_edge(1, 2)

    def test_edge_weight_default(self, toy_graph):
        assert toy_graph.edge_weight(1, 3) == 0.0
        assert toy_graph.edge_weight(1, 3, default=-1.0) == -1.0

    def test_edge_index(self, toy_graph):
        pos = toy_graph.edge_index(0, 2)
        assert toy_graph.indices[pos] == 2
        assert toy_graph.edge_index(1, 2) == -1

    def test_has_edges_bulk(self, toy_graph):
        result = toy_graph.has_edges_bulk(0, np.array([0, 1, 2, 3]))
        assert list(result) == [False, True, True, True]

    def test_has_edges_bulk_empty_row(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=3)
        result = g.has_edges_bulk(2, np.array([0, 1]))
        assert not result.any()

    def test_has_edges_bulk_matches_scalar(self, medium_graph, rng):
        u = int(rng.integers(medium_graph.num_nodes))
        targets = rng.integers(medium_graph.num_nodes, size=50)
        bulk = medium_graph.has_edges_bulk(u, targets)
        scalar = [medium_graph.has_edge(u, int(z)) for z in targets]
        assert list(bulk) == scalar


def _random_graph(kind, seed, nodes=50, edges=200):
    """Random undirected / directed / weighted graph with isolated nodes
    (ids past ``nodes - 10`` get no edges)."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, nodes - 10, size=(edges, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    weights = None
    if kind == "weighted":
        # One weight per distinct undirected pair, so reverses agree.
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        weights = 0.5 + ((lo * 31 + hi * 17) % 7)
    return CSRGraph.from_edges(
        pairs, weights, num_nodes=nodes, undirected=kind != "directed"
    )


GRAPH_KINDS = ["undirected", "directed", "weighted"]


class TestEdgeIds:
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_edge_index(self, kind, seed):
        g = _random_graph(kind, seed)
        rng = np.random.default_rng(seed + 100)
        sources = rng.integers(0, g.num_nodes, size=3_000)
        targets = rng.integers(0, g.num_nodes, size=3_000)
        oracle = [g.edge_index(int(u), int(z)) for u, z in zip(sources, targets)]
        ids = g.edge_ids(sources, targets)
        assert ids.dtype == np.int64
        assert ids.tolist() == oracle
        assert g.has_edge_pairs(sources, targets).tolist() == [i >= 0 for i in oracle]
        offsets, found = g.edge_positions(sources, targets)
        assert found.tolist() == [i >= 0 for i in oracle]
        assert np.array_equal(offsets[found], ids[found] - g.indptr[sources[found]])

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_every_stored_edge_found(self, kind):
        """The bit filter has no false negatives."""
        g = _random_graph(kind, seed=3, nodes=400, edges=5_000)
        sources = np.repeat(np.arange(g.num_nodes), g.degrees)
        ids = g.edge_ids(sources, g.indices)
        assert np.array_equal(ids, np.arange(g.num_edges))

    def test_edgeless_graph(self):
        g = CSRGraph.from_edges([], num_nodes=4)
        u = np.array([0, 1, 3])
        assert g.edge_ids(u, u[::-1]).tolist() == [-1, -1, -1]
        assert not g.has_edge_pairs(u, u).any()
        assert g.reverse_edges().shape == (0,)
        assert g.is_symmetric()

    def test_empty_query(self):
        g = _random_graph("undirected", seed=0)
        empty = np.empty(0, dtype=np.int64)
        assert g.edge_ids(empty, empty).shape == (0,)
        assert g.edge_positions(empty, empty)[0].shape == (0,)

    def test_filter_rejects_most_non_edges(self):
        """~32 filter bits per stored edge: about 3% of non-edges survive
        to the exact search."""
        g = _random_graph("undirected", seed=4, nodes=2_000, edges=20_000)
        rng = np.random.default_rng(0)
        sources, targets = rng.integers(0, g.num_nodes, size=(2, 50_000))
        absent = ~g.has_edge_pairs(sources, targets)
        queries = sources[absent] * g.num_nodes + targets[absent]
        assert g._ensure_edge_filter().nbytes * 8 >= 32 * g.num_edges
        assert len(g._filter_survivors(queries)) < 0.05 * len(queries)


class TestReverseEdges:
    @pytest.mark.parametrize("kind", ["undirected", "weighted"])
    def test_involution_on_symmetric_graphs(self, kind):
        g = _random_graph(kind, seed=6)
        rev = g.reverse_edges()
        assert (rev >= 0).all()
        assert np.array_equal(rev[rev], np.arange(g.num_edges))
        sources = np.repeat(np.arange(g.num_nodes), g.degrees)
        assert np.array_equal(g.indices[rev], sources)
        assert g.reverse_edges() is rev  # built once per graph

    def test_missing_exactly_where_no_reverse(self):
        g = _random_graph("directed", seed=7)
        rev = g.reverse_edges()
        expected = [
            g.edge_index(int(z), int(v))
            for v in range(g.num_nodes)
            for z in g.neighbors(v)
        ]
        assert rev.tolist() == expected
        assert (rev < 0).any() and (rev >= 0).any()
        back = rev[rev >= 0]
        assert np.array_equal(rev[back], np.flatnonzero(rev >= 0))


class TestDerived:
    def test_symmetry_of_undirected(self, toy_graph):
        assert toy_graph.is_symmetric()

    def test_asymmetric_directed(self):
        g = CSRGraph.from_edges([(0, 1)], undirected=False, num_nodes=2)
        assert not g.is_symmetric()

    def test_symmetry_weight_tolerance(self):
        within = CSRGraph(indptr=[0, 1, 2], indices=[1, 0], weights=[2.0, 2.0 + 1e-13])
        assert within.is_symmetric()
        beyond = CSRGraph(indptr=[0, 1, 2], indices=[1, 0], weights=[2.0, 2.0 + 1e-9])
        assert not beyond.is_symmetric()

    def test_memory_bytes_unweighted(self, toy_graph):
        expected = (4 + 1) * 4 + 8 * 4  # indptr + indices
        assert toy_graph.memory_bytes() == expected

    def test_memory_bytes_weighted(self, weighted_graph):
        base = (weighted_graph.num_nodes + 1) * 4 + weighted_graph.num_edges * 4
        assert weighted_graph.memory_bytes() == base + weighted_graph.num_edges * 4

    def test_equality(self, toy_graph):
        other = CSRGraph.from_edges([(0, 1), (0, 2), (0, 3), (2, 3)])
        assert toy_graph == other
        assert toy_graph != CSRGraph.from_edges([(0, 1)])

    def test_repr(self, toy_graph):
        assert "num_nodes=4" in repr(toy_graph)
