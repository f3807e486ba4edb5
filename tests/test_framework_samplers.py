"""Unit and statistical tests for the per-node samplers.

The central correctness property: all three node samplers draw from the
SAME e2e distribution — the model's exact ``p(z | v, u)``.
"""

import numpy as np
import pytest

from repro import (
    AutoregressiveModel,
    CostParams,
    FirstOrderModel,
    Node2VecModel,
    SamplerKind,
)
from repro.exceptions import SamplerError, WalkError
from repro.framework import (
    AliasNodeSampler,
    NaiveNodeSampler,
    RejectionNodeSampler,
    build_node_sampler,
)
from repro.sampling.utils import empirical_distribution, total_variation_distance

PARAMS = CostParams()


def empirical_e2e(sampler, graph, u, v, rng, n=8000):
    samples = np.array([sampler.sample(u, rng) for _ in range(n)])
    # Map sampled node ids onto neighbour positions.
    neighbors = graph.neighbors(v)
    positions = np.searchsorted(neighbors, samples)
    return empirical_distribution(positions, len(neighbors))


@pytest.mark.parametrize("kind", list(SamplerKind))
class TestDistributionAgreement:
    @pytest.mark.parametrize(
        "model",
        [
            Node2VecModel(0.25, 4.0),
            Node2VecModel(4.0, 0.25),
            AutoregressiveModel(0.2),
            AutoregressiveModel(0.8),
            FirstOrderModel(),
        ],
        ids=["NV(0.25,4)", "NV(4,0.25)", "Auto(0.2)", "Auto(0.8)", "first-order"],
    )
    def test_matches_exact_e2e(self, kind, model, toy_graph, rng):
        for u, v in [(1, 0), (2, 0), (0, 2), (0, 3)]:
            sampler = build_node_sampler(kind, toy_graph, model, v)
            exact = model.e2e_distribution(toy_graph, u, v)
            emp = empirical_e2e(sampler, toy_graph, u, v, rng)
            assert total_variation_distance(emp, exact) < 0.05

    def test_weighted_graph(self, kind, weighted_graph, rng):
        model = Node2VecModel(0.5, 2.0)
        u, v = 0, 2
        sampler = build_node_sampler(kind, weighted_graph, model, v)
        exact = model.e2e_distribution(weighted_graph, u, v)
        emp = empirical_e2e(sampler, weighted_graph, u, v, rng)
        assert total_variation_distance(emp, exact) < 0.05

    def test_sample_first_matches_n2e(self, kind, weighted_graph, rng):
        v = 2
        model = Node2VecModel(0.25, 4.0)
        sampler = build_node_sampler(kind, weighted_graph, model, v)
        samples = np.array([sampler.sample_first(rng) for _ in range(8000)])
        neighbors = weighted_graph.neighbors(v)
        positions = np.searchsorted(neighbors, samples)
        emp = empirical_distribution(positions, len(neighbors))
        exact = weighted_graph.neighbor_weights(v) / weighted_graph.weight_sum(v)
        assert total_variation_distance(emp, exact) < 0.05


class TestNaiveNodeSampler:
    def test_costs_match_table1(self, toy_graph, nv_model):
        sampler = NaiveNodeSampler(toy_graph, nv_model, 0)
        assert sampler.memory_cost(PARAMS) == pytest.approx(4 * 3 / 4)
        c = np.log2(3)
        assert sampler.time_cost(PARAMS) == pytest.approx(3 * (c + 1))

    def test_degree_zero_raises_on_sample(self, rng):
        from repro import from_edges

        g = from_edges([(0, 1)], num_nodes=3)
        sampler = NaiveNodeSampler(g, Node2VecModel(1, 1), 2)
        with pytest.raises(WalkError):
            sampler.sample_first(rng)


class TestRejectionNodeSampler:
    def test_uses_global_factor_for_node2vec(self, toy_graph, nv_model):
        sampler = RejectionNodeSampler(toy_graph, nv_model, 0)
        assert sampler._global_factor == pytest.approx(1.0 / 4.0)

    def test_uses_exact_factors_for_autoregressive(self, toy_graph, auto_model):
        sampler = RejectionNodeSampler(toy_graph, auto_model, 0)
        assert sampler._global_factor is None
        assert len(sampler.edge_factors) == 3

    def test_explicit_factors(self, toy_graph, nv_model, rng):
        factors = np.full(3, 0.1)  # conservative → still correct, slower
        sampler = RejectionNodeSampler(toy_graph, nv_model, 0, factors=factors)
        exact = nv_model.e2e_distribution(toy_graph, 1, 0)
        emp = empirical_e2e(sampler, toy_graph, 1, 0, rng)
        assert total_variation_distance(emp, exact) < 0.05

    def test_factor_length_mismatch(self, toy_graph, nv_model):
        with pytest.raises(SamplerError):
            RejectionNodeSampler(toy_graph, nv_model, 0, factors=np.ones(2))

    def test_empirical_tries_bounded_by_cuv(self, toy_graph, nv_model, rng):
        from repro.bounding import edge_bounding_constant

        sampler = RejectionNodeSampler(toy_graph, nv_model, 0)
        for _ in range(3000):
            sampler.sample(1, rng)
        # With the conservative global factor the expected tries are
        # C_uv * (per-edge max / global bound)⁻¹ >= C_uv; sanity: finite
        # and within 4x the exact C_uv.
        c_uv = edge_bounding_constant(toy_graph, nv_model, 1, 0)
        assert 0.9 * c_uv <= sampler.empirical_tries < 4 * c_uv

    def test_exact_factor_tries_converge_to_cuv(self, toy_graph, auto_model, rng):
        from repro.bounding import edge_bounding_constant

        sampler = RejectionNodeSampler(toy_graph, auto_model, 0)
        for _ in range(4000):
            sampler.sample(2, rng)
        c_uv = edge_bounding_constant(toy_graph, auto_model, 2, 0)
        assert sampler.empirical_tries == pytest.approx(c_uv, rel=0.15)

    def test_previous_outside_neighborhood_falls_back(self, rng):
        # Graph where 3 is not adjacent to 0 but a restart could make it
        # the "previous" node.
        from repro import from_edges

        g = from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        model = AutoregressiveModel(0.4)
        sampler = RejectionNodeSampler(g, model, 0)
        sample = sampler.sample(3, rng)
        assert sample in (1, 2)

    def test_costs_match_table1(self, toy_graph, nv_model):
        sampler = RejectionNodeSampler(toy_graph, nv_model, 0)
        assert sampler.memory_cost(PARAMS) == (2 * 4 + 4) * 3

    def test_max_tries_guard(self, toy_graph, nv_model, rng):
        sampler = RejectionNodeSampler(
            toy_graph, nv_model, 0, factors=np.full(3, 1e-15), max_tries=5
        )
        with pytest.raises(SamplerError, match="exceeded"):
            sampler.sample(1, rng)


class TestAliasNodeSampler:
    def test_one_table_per_incoming_edge(self, toy_graph, nv_model):
        sampler = AliasNodeSampler(toy_graph, nv_model, 0)
        assert len(sampler.tables) == 3

    def test_costs_match_table1(self, toy_graph, nv_model):
        sampler = AliasNodeSampler(toy_graph, nv_model, 0)
        assert sampler.memory_cost(PARAMS) == (4 + 4) * (9 + 3)
        assert sampler.time_cost(PARAMS) == 1.0

    def test_previous_outside_neighborhood_builds_on_demand(self, rng):
        # Directed traces (and restarts) can make the previous node an
        # in-neighbour outside N(v); the sampler builds and caches an extra
        # table instead of failing.
        from repro import from_edges

        g = from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        sampler = AliasNodeSampler(g, Node2VecModel(1, 1), 0)
        sample = sampler.sample(3, rng)
        assert sample in (1, 2)
        assert 3 in sampler._extra_tables
        sampler.sample(3, rng)  # second draw reuses the cached table
        assert len(sampler._extra_tables) == 1


class TestFactory:
    def test_builds_each_kind(self, toy_graph, nv_model):
        assert isinstance(
            build_node_sampler(SamplerKind.NAIVE, toy_graph, nv_model, 0),
            NaiveNodeSampler,
        )
        assert isinstance(
            build_node_sampler(SamplerKind.REJECTION, toy_graph, nv_model, 0),
            RejectionNodeSampler,
        )
        assert isinstance(
            build_node_sampler(SamplerKind.ALIAS, toy_graph, nv_model, 0),
            AliasNodeSampler,
        )

    def test_out_of_range_node(self, toy_graph, nv_model):
        with pytest.raises(WalkError):
            build_node_sampler(SamplerKind.NAIVE, toy_graph, nv_model, 99)
