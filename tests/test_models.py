"""Unit tests for the second-order random walk models."""

import numpy as np
import pytest

from repro import (
    AutoregressiveModel,
    CSRGraph,
    FirstOrderModel,
    Node2VecModel,
    available_models,
    get_model,
    register_model,
)
from repro.exceptions import ModelError
from repro.graph import barabasi_albert_graph
from repro.models import SecondOrderModel


class TestNode2Vec:
    def test_distance_zero_uses_a(self, toy_graph):
        model = Node2VecModel(a=0.5, b=2.0)
        # From edge (1, 0), candidate z = 1 is the previous node.
        assert model.biased_weight(toy_graph, 1, 0, 1) == pytest.approx(1 / 0.5)

    def test_distance_one_unchanged(self, toy_graph):
        model = Node2VecModel(a=0.5, b=2.0)
        # From edge (2, 0), candidate 3 is adjacent to 2.
        assert model.biased_weight(toy_graph, 2, 0, 3) == pytest.approx(1.0)

    def test_distance_two_uses_b(self, toy_graph):
        model = Node2VecModel(a=0.5, b=2.0)
        # From edge (1, 0), candidate 2 is not adjacent to 1.
        assert model.biased_weight(toy_graph, 1, 0, 2) == pytest.approx(1 / 2.0)

    def test_vectorised_matches_scalar(self, toy_graph, nv_model):
        for u, v in [(1, 0), (2, 0), (0, 2), (3, 2)]:
            vectorised = nv_model.biased_weights(toy_graph, u, v)
            scalar = [
                nv_model.biased_weight(toy_graph, u, v, int(z))
                for z in toy_graph.neighbors(v)
            ]
            assert np.allclose(vectorised, scalar)

    def test_weighted_graph(self, weighted_graph):
        model = Node2VecModel(a=2.0, b=0.5)
        # From edge (0, 2): candidate 1 is adjacent to 0 (dist 1) → w.
        w12 = weighted_graph.edge_weight(2, 1)
        assert model.biased_weight(weighted_graph, 0, 2, 1) == pytest.approx(w12)

    def test_e2e_distribution_normalised(self, toy_graph, nv_model):
        p = nv_model.e2e_distribution(toy_graph, 1, 0)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p > 0)

    def test_target_ratio_values(self, toy_graph):
        model = Node2VecModel(a=0.25, b=4.0)
        assert model.target_ratio(toy_graph, 1, 0, 1) == pytest.approx(4.0)
        assert model.target_ratio(toy_graph, 1, 0, 2) == pytest.approx(0.25)
        assert model.target_ratio(toy_graph, 2, 0, 3) == pytest.approx(1.0)

    def test_target_ratios_subset(self, toy_graph, nv_model):
        full = nv_model.target_ratios(toy_graph, 1, 0)
        subset = nv_model.target_ratios_subset(
            toy_graph, 1, 0, toy_graph.neighbors(0)[:2]
        )
        assert np.allclose(subset, full[:2])

    def test_max_ratio_bound(self, toy_graph):
        assert Node2VecModel(0.25, 4.0).max_ratio_bound(toy_graph) == 4.0
        assert Node2VecModel(4.0, 0.25).max_ratio_bound(toy_graph) == 4.0
        assert Node2VecModel(2.0, 2.0).max_ratio_bound(toy_graph) == 1.0

    @pytest.mark.parametrize("a,b", [(0.25, 4.0), (0.5, 2.0), (2.0, 0.5), (1.0, 1.0)])
    def test_return_outlier(self, toy_graph, a, b):
        """``B'`` bounds every ratio but the return candidate's, and
        ``r_ret`` is that candidate's exact ratio."""
        model = Node2VecModel(a, b)
        envelope, r_return = model.return_outlier(toy_graph)
        assert max(envelope, r_return) == model.max_ratio_bound(toy_graph)
        for u in range(toy_graph.num_nodes):
            for v in toy_graph.neighbors(u).tolist():
                z = toy_graph.neighbors(v)
                ratios = model.target_ratios(toy_graph, u, v)
                assert np.all(ratios[z != u] <= envelope)
                assert np.all(ratios[z == u] == r_return)

    @pytest.mark.parametrize(
        "a,b", [(0.25, 4.0), (0.5, 8.0), (2.0, 0.5), (4.0, 0.25), (1.0, 1.0)]
    )
    def test_min_ratio_bound_is_a_floor(self, a, b):
        """``min(1/a, 1, 1/b)`` is at most every ``target_ratios`` value."""
        graph = barabasi_albert_graph(40, 3, rng=2)
        model = Node2VecModel(a, b)
        floor = model.min_ratio_bound(graph)
        for u in range(graph.num_nodes):
            for v in graph.neighbors(u).tolist():
                assert np.all(model.target_ratios(graph, u, v) >= floor)

    @pytest.mark.parametrize("a,b", [(0.25, 4.0), (2.0, 0.5), (4.0, 2.0)])
    def test_min_ratio_bound_is_attained(self, toy_graph, a, b):
        """On a graph with all three ratio kinds the floor is one of them."""
        model = Node2VecModel(a, b)
        seen = set()
        for u in range(toy_graph.num_nodes):
            for v in toy_graph.neighbors(u).tolist():
                seen.update(model.target_ratios(toy_graph, u, v).tolist())
        assert {1.0 / a, 1.0, 1.0 / b} <= seen
        assert model.min_ratio_bound(toy_graph) == min(seen)

    def test_no_min_ratio_bound_by_default(self, toy_graph):
        assert AutoregressiveModel(0.2).min_ratio_bound(toy_graph) is None
        assert SecondOrderModel.min_ratio_bound(
            AutoregressiveModel(0.2), toy_graph
        ) is None

    def test_no_return_outlier_by_default(self, toy_graph):
        assert AutoregressiveModel(0.2).return_outlier(toy_graph) is None

    @pytest.mark.parametrize("a,b", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_invalid_parameters(self, a, b):
        with pytest.raises(ModelError):
            Node2VecModel(a=a, b=b)

    def test_repr(self):
        assert "a=0.25" in repr(Node2VecModel(0.25, 4.0))


class TestAutoregressive:
    def test_alpha_zero_is_first_order(self, toy_graph):
        model = AutoregressiveModel(alpha=0.0)
        first = FirstOrderModel()
        for u, v in [(1, 0), (0, 2)]:
            p_auto = model.e2e_distribution(toy_graph, u, v)
            p_first = first.e2e_distribution(toy_graph, u, v)
            assert np.allclose(p_auto, p_first)

    def test_biased_weight_formula(self, toy_graph):
        model = AutoregressiveModel(alpha=0.4)
        # From edge (2, 0) to z = 3: p_03 = 1/3, p_23 = 1/2 (2's nbrs {0,3}).
        expected = 0.6 * (1 / 3) + 0.4 * (1 / 2)
        assert model.biased_weight(toy_graph, 2, 0, 3) == pytest.approx(expected)

    def test_no_back_edge_gives_first_order_term_only(self, toy_graph):
        model = AutoregressiveModel(alpha=0.4)
        # From edge (1, 0) to z = 2: p_12 = 0 (1 and 2 not adjacent).
        assert model.biased_weight(toy_graph, 1, 0, 2) == pytest.approx(0.6 / 3)

    def test_vectorised_matches_scalar(self, toy_graph, auto_model):
        for u, v in [(1, 0), (2, 0), (0, 3)]:
            vectorised = auto_model.biased_weights(toy_graph, u, v)
            scalar = [
                auto_model.biased_weight(toy_graph, u, v, int(z))
                for z in toy_graph.neighbors(v)
            ]
            assert np.allclose(vectorised, scalar)

    def test_target_ratios_subset_matches_full(self, toy_graph, auto_model):
        full = auto_model.target_ratios(toy_graph, 2, 0)
        subset = auto_model.target_ratios_subset(
            toy_graph, 2, 0, toy_graph.neighbors(0)
        )
        assert np.allclose(subset, full)

    def test_ratios_proportional_to_base_definition(self, weighted_graph, auto_model):
        # target_ratios may be scaled per (u, v); verify proportionality to
        # biased_weights / edge weights.
        u, v = 0, 2
        ratios = auto_model.target_ratios(weighted_graph, u, v)
        reference = auto_model.biased_weights(
            weighted_graph, u, v
        ) / weighted_graph.neighbor_weights(v)
        scale = ratios[0] / reference[0]
        assert np.allclose(ratios, reference * scale)

    def test_no_bound(self, toy_graph):
        assert AutoregressiveModel(0.2).max_ratio_bound(toy_graph) is None

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ModelError):
            AutoregressiveModel(alpha=alpha)

    def test_e2e_distribution_normalised(self, weighted_graph, auto_model):
        p = auto_model.e2e_distribution(weighted_graph, 1, 2)
        assert p.sum() == pytest.approx(1.0)


class TestBatchedMethods:
    """The vectorised batch methods are bit-identical to the scalar ones,
    state by state, on unit-weight, weighted and directed graphs."""

    @pytest.fixture(params=["unit", "weighted", "directed"])
    def graph(self, request):
        rng = np.random.default_rng(5)
        base = barabasi_albert_graph(150, 3, rng=5)
        if request.param == "unit":
            return base
        weights = rng.random(base.num_edges) + 0.05
        if request.param == "weighted":
            return CSRGraph(base.indptr, base.indices, weights)
        keep = rng.random(base.num_edges) < 0.7
        rows = np.repeat(np.arange(base.num_nodes), base.degrees)
        return CSRGraph.from_edges(
            np.stack([rows[keep], base.indices[keep]], axis=1),
            weights[keep],
            num_nodes=base.num_nodes,
            undirected=False,
        )

    @pytest.fixture(
        params=[Node2VecModel(0.25, 4.0), AutoregressiveModel(0.3)],
        ids=["node2vec", "autoregressive"],
    )
    def model(self, request):
        return request.param

    @staticmethod
    def _states(graph, count=200, seed=0):
        rng = np.random.default_rng(seed)
        vs = rng.choice(np.flatnonzero(graph.degrees > 0), size=count)
        # Previous nodes: mostly in-row, some anywhere (directed restarts).
        us = np.array(
            [
                rng.choice(graph.neighbors(v)) if rng.random() < 0.8
                else rng.integers(graph.num_nodes)
                for v in vs
            ]
        )
        return us, vs

    def test_biased_weights_many(self, graph, model):
        us, vs = self._states(graph)
        flat, sizes = model.biased_weights_many(graph, us, vs)
        assert np.array_equal(sizes, graph.degrees[vs])
        scalar = [
            model.biased_weight(graph, int(u), int(v), int(z))
            for u, v in zip(us, vs)
            for z in graph.neighbors(v)
        ]
        assert np.array_equal(flat, scalar)

    def test_target_ratio_bulk(self, graph, model):
        us, vs = self._states(graph)
        rng = np.random.default_rng(1)
        zs = np.array([rng.choice(graph.neighbors(v)) for v in vs])
        bulk = model.target_ratio_bulk(graph, us, vs, zs)
        scalar = [
            model.target_ratio(graph, int(u), int(v), int(z))
            for u, v, z in zip(us, vs, zs)
        ]
        assert np.array_equal(bulk, scalar)

    def test_autoregressive_bulk_rejects_non_edge(self, graph):
        model = AutoregressiveModel(0.3)
        v = int(np.flatnonzero(graph.degrees > 0)[0])
        z = int(np.setdiff1d(np.arange(graph.num_nodes), graph.neighbors(v))[0])
        u = int(graph.neighbors(v)[0])
        with pytest.raises(ModelError) as scalar:
            model.target_ratio(graph, u, v, z)
        with pytest.raises(ModelError) as bulk:
            model.target_ratio_bulk(graph, [u, u], [v, v], [graph.neighbors(v)[0], z])
        assert str(bulk.value) == str(scalar.value)

    def test_target_ratios_many_full_rows(self, graph, model):
        us, vs = self._states(graph)
        flat, sizes = model.target_ratios_many(graph, us, vs)
        scalar = [model.target_ratios(graph, int(u), int(v)) for u, v in zip(us, vs)]
        assert np.array_equal(sizes, [len(r) for r in scalar])
        assert np.array_equal(flat, np.concatenate(scalar))

    def test_target_ratios_many_candidates(self, graph, model):
        us, vs = self._states(graph)
        rng = np.random.default_rng(2)
        rows = [
            np.sort(rng.choice(graph.neighbors(v), size=min(3, graph.degree(v)), replace=False))
            for v in vs
        ]
        sizes = np.array([len(r) for r in rows])
        flat, got_sizes = model.target_ratios_many(
            graph, us, vs, (np.concatenate(rows), sizes)
        )
        scalar = [
            model.target_ratios_subset(graph, int(u), int(v), r)
            for u, v, r in zip(us, vs, rows)
        ]
        assert np.array_equal(got_sizes, sizes)
        assert np.array_equal(flat, np.concatenate(scalar))

    def test_base_default_loops_per_state(self, graph):
        # A model without overrides goes through the per-state calls.
        model = FirstOrderModel()
        us, vs = self._states(graph, count=20)
        flat, sizes = model.target_ratios_many(graph, us, vs)
        assert np.array_equal(
            flat, np.concatenate([model.target_ratios(graph, int(u), int(v)) for u, v in zip(us, vs)])
        )


class TestFirstOrder:
    def test_matches_n2e(self, weighted_graph):
        model = FirstOrderModel()
        p = model.e2e_distribution(weighted_graph, 3, 2)
        expected = weighted_graph.neighbor_weights(2) / weighted_graph.weight_sum(2)
        assert np.allclose(p, expected)

    def test_ratios_all_one(self, toy_graph):
        model = FirstOrderModel()
        assert np.all(model.target_ratios(toy_graph, 1, 0) == 1.0)
        assert model.max_ratio_bound(toy_graph) == 1.0


class TestRegistry:
    def test_builtins_registered(self):
        names = available_models()
        assert {"node2vec", "autoregressive", "first-order"} <= set(names)

    def test_get_model_with_params(self):
        model = get_model("node2vec", a=0.5, b=2.0)
        assert isinstance(model, Node2VecModel)
        assert model.a == 0.5

    def test_get_unknown_model(self):
        with pytest.raises(ModelError, match="unknown model"):
            get_model("nope")

    def test_register_custom_model(self, toy_graph):
        class ConstantModel(SecondOrderModel):
            name = "constant-test"

            def biased_weight(self, graph, u, v, z):
                return 1.0

        register_model(ConstantModel)
        assert "constant-test" in available_models()
        model = get_model("constant-test")
        p = model.e2e_distribution(toy_graph, 1, 0)
        assert np.allclose(p, 1.0 / 3)

    def test_register_requires_name(self):
        class NoName(SecondOrderModel):
            def biased_weight(self, graph, u, v, z):
                return 1.0

        with pytest.raises(ModelError, match="name"):
            register_model(NoName)

    def test_register_rejects_non_model(self):
        with pytest.raises(ModelError):
            register_model(dict)
