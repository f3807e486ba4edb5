"""Unit and statistical tests for the three sampling primitives.

Every sampler must reproduce its target distribution; the statistical
checks use total-variation distance against the exact distribution with
sample sizes where TV < 0.05 holds comfortably for correct samplers.
"""

import numpy as np
import pytest

from repro import AliasTable, CumulativeSampler, NaiveSampler, RejectionSampler
from repro.cost import SamplerKind
from repro.exceptions import DistributionError, SamplerError
from repro.framework.node_samplers import TableArena, _alias_draw
from repro.sampling.alias import TABLE_FLOAT, TABLE_INT
from repro.sampling.utils import empirical_distribution, total_variation_distance

TARGET = np.array([0.2, 0.3, 0.4, 0.1])  # the paper's Figure 3 example


def tv_of(sampler, target, rng, n=20_000):
    samples = sampler.sample_many(n, rng)
    return total_variation_distance(
        empirical_distribution(samples, len(target)), target
    )


class TestCumulativeSampler:
    @pytest.mark.parametrize("search", ["binary", "linear"])
    def test_matches_target(self, search, rng):
        sampler = CumulativeSampler(TARGET, search=search)
        assert tv_of(sampler, TARGET, rng) < 0.02

    def test_single_outcome(self, rng):
        sampler = CumulativeSampler([5.0])
        assert sampler.sample(rng) == 0

    def test_unnormalised_weights(self, rng):
        sampler = CumulativeSampler([2, 3, 4, 1])
        assert tv_of(sampler, TARGET, rng) < 0.02

    def test_invalid_search(self):
        with pytest.raises(ValueError):
            CumulativeSampler(TARGET, search="interpolation")

    def test_memory_is_one_float_per_outcome(self):
        assert CumulativeSampler(TARGET).memory_bytes(4, 4) == 16

    def test_scalar_and_vector_agree_in_distribution(self, rng):
        sampler = CumulativeSampler(TARGET, search="linear")
        scalar = np.array([sampler.sample(rng) for _ in range(5000)])
        p = empirical_distribution(scalar, 4)
        assert total_variation_distance(p, TARGET) < 0.05


class TestNaiveSampler:
    def test_matches_target(self, rng):
        assert tv_of(NaiveSampler(TARGET), TARGET, rng) < 0.02

    def test_scalar_path_matches_target(self, rng):
        sampler = NaiveSampler(TARGET)
        samples = np.array([sampler.sample(rng) for _ in range(10_000)])
        p = empirical_distribution(samples, 4)
        assert total_variation_distance(p, TARGET) < 0.03

    def test_zero_memory(self):
        assert NaiveSampler(TARGET).memory_bytes() == 0

    def test_len(self):
        assert len(NaiveSampler(TARGET)) == 4

    def test_rejects_bad_distribution(self):
        with pytest.raises(DistributionError):
            NaiveSampler([0.0, 0.0])

    def test_zero_weight_outcome_never_drawn(self, rng):
        sampler = NaiveSampler([1.0, 0.0, 1.0])
        samples = sampler.sample_many(5000, rng)
        assert 1 not in samples


class _ColumnZero:
    """A generator stand-in whose draws pick column 0, then ``uniform``."""

    def __init__(self, uniform: float) -> None:
        self.uniform = uniform

    def integers(self, high: int) -> int:
        return 0

    def random(self) -> float:
        return self.uniform


class TestAliasTable:
    def test_matches_target(self, rng):
        assert tv_of(AliasTable(TARGET), TARGET, rng) < 0.02

    def test_scalar_path_matches_target(self, rng):
        table = AliasTable(TARGET)
        samples = np.array([table.sample(rng) for _ in range(10_000)])
        p = empirical_distribution(samples, 4)
        assert total_variation_distance(p, TARGET) < 0.03

    def test_uniform_distribution(self, rng):
        table = AliasTable([1, 1, 1, 1])
        assert np.allclose(table.probability_table, 1.0)

    def test_tables_encode_exact_probabilities(self):
        # Reconstruct P from (U, K): p_i = (U_i + sum_j 1[K_j = i](1 - U_j)) / n.
        table = AliasTable(TARGET)
        n = table.num_outcomes
        recon = table.probability_table.copy()
        for j in range(n):
            if table.alias_table[j] != j:
                recon[table.alias_table[j]] += 1.0 - table.probability_table[j]
        assert np.allclose(recon / n, TARGET, atol=1e-12)

    def test_single_outcome(self, rng):
        table = AliasTable([3.0])
        assert table.sample(rng) == 0

    def test_tables_are_stored_at_the_cost_model_widths(self):
        table = AliasTable(TARGET)
        assert table.probability_table.dtype == TABLE_FLOAT
        assert table.alias_table.dtype == TABLE_INT
        assert table.nbytes == table.memory_bytes()

    def test_scalar_draws_compare_at_float64(self):
        # A uniform just above a stored keep probability takes the alias,
        # as in the array draws, though it rounds onto that probability at
        # the table width.
        prob = np.asarray([0.1, 1.0], TABLE_FLOAT)
        alias = np.asarray([1, 1], TABLE_INT)
        stored = float(prob[0])
        above = np.nextafter(stored, 1.0)
        assert TABLE_FLOAT.type(above) == prob[0]
        table = AliasTable._from_arrays(prob, alias)
        arena = TableArena(SamplerKind.ALIAS, prob, alias)
        for uniform, expected in ((stored, 0), (above, 1)):
            assert table.sample(_ColumnZero(uniform)) == expected
            assert _alias_draw(arena, 0, 2, _ColumnZero(uniform)) == expected

    def test_highly_skewed(self, rng):
        target = np.array([0.999, 0.0005, 0.0005])
        table = AliasTable(target)
        samples = table.sample_many(20_000, rng)
        p = empirical_distribution(samples, 3)
        assert p[0] > 0.99

    def test_memory_cost_formula(self):
        assert AliasTable(TARGET).memory_bytes(4, 4) == 4 * 8

    def test_zero_weight_outcome_never_drawn(self, rng):
        table = AliasTable([1.0, 0.0, 3.0])
        samples = table.sample_many(10_000, rng)
        assert 1 not in samples


class TestRejectionSampler:
    def test_from_distributions_matches_target(self, rng):
        proposal = np.full(4, 0.25)
        sampler = RejectionSampler.from_distributions(
            TARGET, proposal, AliasTable(proposal)
        )
        samples = np.array([sampler.sample(rng) for _ in range(20_000)])
        p = empirical_distribution(samples, 4)
        assert total_variation_distance(p, TARGET) < 0.02

    def test_figure3_acceptance_ratios(self):
        # Paper Figure 3(a): uniform proposal, C = 1.6 → β = (.5, .75, 1, .25).
        proposal = np.full(4, 0.25)
        sampler = RejectionSampler.from_distributions(
            TARGET, proposal, AliasTable(proposal), bounding_constant=1.6
        )
        assert np.allclose(sampler.acceptance_ratios, [0.5, 0.75, 1.0, 0.25])

    def test_average_tries_converges_to_c(self, rng):
        proposal = np.full(4, 0.25)
        sampler = RejectionSampler.from_distributions(
            TARGET, proposal, AliasTable(proposal)
        )
        for _ in range(5000):
            sampler.sample(rng)
        assert sampler.average_tries == pytest.approx(1.6, rel=0.1)

    def test_oversized_bounding_constant_still_correct(self, rng):
        proposal = np.full(4, 0.25)
        sampler = RejectionSampler.from_distributions(
            TARGET, proposal, AliasTable(proposal), bounding_constant=5.0
        )
        samples = np.array([sampler.sample(rng) for _ in range(20_000)])
        p = empirical_distribution(samples, 4)
        assert total_variation_distance(p, TARGET) < 0.02
        assert sampler.average_tries > 3.0  # slower, as expected

    def test_undersized_bounding_constant_rejected(self):
        proposal = np.full(4, 0.25)
        with pytest.raises(SamplerError, match="below required"):
            RejectionSampler.from_distributions(
                TARGET, proposal, AliasTable(proposal), bounding_constant=1.0
            )

    def test_proposal_missing_mass_rejected(self):
        proposal = np.array([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(SamplerError, match="zero mass"):
            RejectionSampler.from_distributions(
                TARGET, proposal, AliasTable([0.5, 0.5, 1e-12, 1e-12])
            )

    def test_nonuniform_proposal(self, rng):
        proposal = np.array([0.4, 0.1, 0.4, 0.1])
        sampler = RejectionSampler.from_distributions(
            TARGET, proposal, AliasTable(proposal)
        )
        samples = np.array([sampler.sample(rng) for _ in range(20_000)])
        p = empirical_distribution(samples, 4)
        assert total_variation_distance(p, TARGET) < 0.02

    def test_acceptance_length_mismatch(self):
        with pytest.raises(SamplerError, match="acceptance ratios"):
            RejectionSampler(AliasTable(TARGET), np.array([1.0, 1.0]))

    def test_acceptance_out_of_range(self):
        with pytest.raises(SamplerError, match="lie in"):
            RejectionSampler(AliasTable(TARGET), np.array([1.0, 2.0, 1.0, 1.0]))

    def test_all_zero_acceptance(self):
        with pytest.raises(SamplerError, match="positive"):
            RejectionSampler(AliasTable(TARGET), np.zeros(4))

    def test_max_tries_exhaustion(self, rng):
        sampler = RejectionSampler(
            AliasTable(TARGET),
            np.array([1e-12, 1e-12, 1e-12, 1e-12]),
            max_tries=10,
        )
        with pytest.raises(SamplerError, match="no acceptance"):
            sampler.sample(rng)

    def test_memory_includes_acceptance_floats(self):
        proposal = np.full(4, 0.25)
        sampler = RejectionSampler.from_distributions(
            TARGET, proposal, AliasTable(proposal)
        )
        assert sampler.memory_bytes(4, 4) == 4 * 8 + 4 * 4
