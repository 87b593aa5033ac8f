import itertools
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from sparsetrace.distributions import (
    BLOCK_ENTRIES,
    BetaPrior,
    MeanVector,
    SparsePopulation,
    TernarySample,
    pmf,
    prior_quadrature,
    row_blocks,
    sample_matrix,
    sample_prior,
    sample_sparse,
    sample_support,
    symmetric_beta_moment,
)
from sparsetrace.rng import substream

SEED = 20240901


def _pop(mu, k, d):
    return SparsePopulation.from_array(np.asarray(mu, dtype=float), k, d)


class TestSampleSupport:
    def test_full_support_is_everything(self):
        rng = substream(SEED, 0, "support")
        for _ in range(20):
            assert np.array_equal(sample_support(3, 3, rng), [0, 1, 2])

    def test_two_choose_one_is_fair(self):
        rng = substream(SEED, 1, "support")
        n = 10**5
        ones = sum(sample_support(2, 1, rng)[0] for _ in range(n))
        sigma = math.sqrt(0.25 / n)
        assert abs(ones / n - 0.5) < 3 * sigma

    def test_five_choose_two_uniform_chisquare(self):
        rng = substream(SEED, 2, "support")
        n = 10**5
        subsets = {frozenset(c): 0 for c in itertools.combinations(range(5), 2)}
        for _ in range(n):
            subsets[frozenset(sample_support(5, 2, rng).tolist())] += 1
        counts = np.array(list(subsets.values()))
        sigma = math.sqrt(0.1 * 0.9 / n)
        assert np.all(np.abs(counts / n - 0.1) < 3 * sigma)
        assert chisquare(counts).pvalue > 1e-3

    def test_rejects_bad_k(self):
        rng = substream(SEED, 3, "support")
        with pytest.raises(ValueError):
            sample_support(4, 0, rng)
        with pytest.raises(ValueError):
            sample_support(4, 5, rng)


class TestSampleSparse:
    def test_dense_zero_mean_is_fair_coins(self):
        pop = _pop(np.zeros(4), 4, 4)
        rng = substream(SEED, 4, "sparse")
        draws = np.stack([sample_sparse(pop, rng).entries for _ in range(4000)])
        assert np.isin(draws, (-1, 1)).all()
        sigma = math.sqrt(1.0 / 4000)
        assert np.max(np.abs(draws.mean(axis=0))) < 4 * sigma

    def test_saturated_probability_is_deterministic(self):
        pop = _pop([0.5, -0.5], 1, 2)
        rng = substream(SEED, 5, "sparse")
        for _ in range(200):
            z = sample_sparse(pop, rng)
            if z.support[0] == 0:
                assert z.entries[0] == 1
            else:
                assert z.entries[1] == -1

    def test_sample_mean_matches_population_mean(self):
        mu = np.array([1 / 3, 0.0, -1 / 3])
        pop = _pop(mu, 2, 3)
        rng = substream(SEED, 6, "sparse")
        n = 10**5
        total = np.zeros(3)
        for _ in range(n):
            total += sample_sparse(pop, rng).entries
        sigma = np.sqrt((pop.k / pop.d - mu**2) / n)
        assert np.all(np.abs(total / n - mu) < 3 * sigma)

    def test_support_size_is_k(self):
        pop = _pop(np.zeros(6), 2, 6)
        rng = substream(SEED, 7, "sparse")
        for _ in range(100):
            z = sample_sparse(pop, rng)
            assert z.support.size == 2
            assert np.count_nonzero(z.entries) == 2

    def test_dense_single_draws_match_product_law_in_tv(self):
        mu = np.array([0.3, -0.15])
        pop = _pop(mu, 2, 2)
        rng = substream(SEED, 15, "sparse")
        n = 3 * 10**4
        codes = np.zeros(4, dtype=np.int64)
        for _ in range(n):
            z = sample_sparse(pop, rng)
            codes[(z.entries[0] + 1) + (z.entries[1] + 1) // 2] += 1
        atoms = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        exact = np.array([np.prod((1 + mu * np.array(a)) / 2) for a in atoms])
        empirical = np.array([codes[(a[0] + 1) + (a[1] + 1) // 2] for a in atoms]) / n
        assert 0.5 * np.abs(empirical - exact).sum() <= 0.01


class TestSampleMatrix:
    def test_matches_population_mean_componentwise(self):
        mu = np.array([0.2, -0.1, 0.0, 0.25])
        pop = _pop(mu, 3, 4)
        rng = substream(SEED, 8, "matrix")
        n = 2 * 10**5
        z = sample_matrix(pop, n, rng)
        assert np.all(np.count_nonzero(z, axis=1) == 3)
        sigma = np.sqrt((pop.k / pop.d - mu**2) / n)
        assert np.all(np.abs(z.mean(axis=0) - mu) < 4 * sigma)

    def test_batch_supports_are_uniform(self):
        # The argpartition batch path must match the Fisher-Yates law exactly.
        pop = _pop(np.zeros(5), 2, 5)
        rng = substream(SEED, 16, "matrix")
        n = 10**5
        z = sample_matrix(pop, n, rng)
        masks = (z != 0) @ (1 << np.arange(5))
        counts = np.bincount(masks, minlength=32)
        observed = counts[counts > 0]
        assert observed.size == 10
        assert chisquare(observed).pvalue > 1e-3

    def test_dense_case_recovers_product_law_in_tv(self):
        mu = np.array([0.2, -0.1, 0.05])
        pop = _pop(mu, 3, 3)
        rng = substream(SEED, 9, "matrix")
        z = sample_matrix(pop, 10**6, rng)
        atoms = np.array(list(itertools.product((-1, 1), repeat=3)), dtype=np.int8)
        exact = np.array([np.prod((1 + mu * a) / 2) for a in atoms])
        codes = ((z + 1) // 2) @ np.array([4, 2, 1])
        empirical = np.bincount(codes, minlength=8) / z.shape[0]
        assert 0.5 * np.abs(empirical - exact).sum() <= 0.01


def _sample_matrix_reference(pop, n, rng):
    """The unblocked sampler: whole-matrix draws, np.where signs, one argpartition."""
    d, k = pop.d, pop.k
    p_plus = (1.0 + (d / k) * pop.mu.values) / 2.0
    if k == d:
        return np.where(rng.random((n, d)) < p_plus, 1, -1).astype(np.int8)
    keys = rng.random((n, d))
    sel = np.argpartition(keys, k - 1, axis=1)[:, :k]
    signs = np.where(rng.random((n, k)) < p_plus[sel], 1, -1).astype(np.int8)
    out = np.zeros((n, d), dtype=np.int8)
    np.put_along_axis(out, sel, signs, axis=1)
    return out


def _block_rows(width):
    return next(row_blocks(10**9, width))[1]


# (d, k): dense and sparse at a power-of-two width (k = 3000 makes the (n, k)
# sign draws span several blocks too), a width whose block rows are rounded
# down, and widths above BLOCK_ENTRIES where a block is one row.
BLOCKED_SHAPES = [(4096, 4096), (4096, 3000), (1000, 1000), (1000, 37),
                  (BLOCK_ENTRIES + 3, BLOCK_ENTRIES + 3), (BLOCK_ENTRIES + 3, 700)]


class TestBlockedSampleMatrix:
    @pytest.mark.parametrize("d,k", BLOCKED_SHAPES)
    def test_matches_unblocked_reference_and_stream(self, d, k):
        rows = _block_rows(d)
        rng = substream(SEED, 17, "mu")
        mu = rng.uniform(-k / d, k / d, size=d)
        pop = _pop(mu, k, d)
        for n in sorted({0, 1, max(rows - 1, 0), rows + 1, 3 * rows + 2}):
            ours, ref = substream(SEED, n, "blocked"), substream(SEED, n, "blocked")
            z = sample_matrix(pop, n, ours)
            expected = _sample_matrix_reference(pop, n, ref)
            assert z.dtype == np.int8 and z.shape == (n, d)
            assert np.array_equal(z, expected), (d, k, n)
            assert ours.random() == ref.random(), (d, k, n)

    def test_block_rows_stay_within_budget(self):
        for width in (1, 3, 100, 1000, 4096, BLOCK_ENTRIES, BLOCK_ENTRIES + 3):
            rows = _block_rows(width)
            assert rows == 1 or rows * width <= BLOCK_ENTRIES
            assert rows < 4 or rows % 4 == 0


class TestPmf:
    def test_uniform_atoms(self):
        assert pmf(_pop([0.0, 0.0], 1, 2), np.array([1, 0], dtype=np.int8)) == pytest.approx(0.25)
        assert pmf(_pop([0.0, 0.0], 2, 2), np.array([1, -1], dtype=np.int8)) == pytest.approx(0.25)

    def test_hand_checked_sparse_atom(self):
        value = pmf(_pop([1 / 3, 0.0, 0.0], 2, 3), np.array([1, -1, 0], dtype=np.int8))
        assert value == pytest.approx(0.125)

    def test_wrong_sparsity_has_zero_mass(self):
        assert pmf(_pop([0.0, 0.0, 0.0], 2, 3), np.array([1, 0, 0], dtype=np.int8)) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pmf(_pop([0.0, 0.0], 1, 2), np.array([1, 0, 0], dtype=np.int8))

    def test_sums_to_one_on_enumerable_domains(self):
        rng = substream(SEED, 10, "pmf")
        for d in range(1, 9):
            for k in range(1, d + 1):
                atoms = []
                for support in itertools.combinations(range(d), k):
                    for signs in itertools.product((-1, 1), repeat=k):
                        z = np.zeros(d, dtype=np.int8)
                        z[list(support)] = signs
                        atoms.append(z)
                for _ in range(20):
                    mu = rng.uniform(-k / d, k / d, size=d)
                    pop = _pop(mu, k, d)
                    total = sum(pmf(pop, z) for z in atoms)
                    assert abs(total - 1.0) < 1e-10


class TestBetaPrior:
    def test_uniform_case_second_moment(self):
        rng = substream(SEED, 11, "prior")
        draws = sample_prior(BetaPrior(1.0, 1.0, 10**5), rng).values
        est = float(np.mean(draws**2))
        sigma = float(np.std(draws**2, ddof=1)) / math.sqrt(draws.size)
        assert abs(est - 1 / 3) < 4 * sigma

    def test_support_respects_gamma(self):
        rng = substream(SEED, 12, "prior")
        draws = sample_prior(BetaPrior(1.0, 0.5, 10**4), rng).values
        assert np.max(np.abs(draws)) <= 0.5

    def test_absolute_moment_lower_bound(self):
        rng = substream(SEED, 13, "prior")
        draws = np.abs(sample_prior(BetaPrior(4.0, 1.0, 10**5), rng).values)
        assert draws.mean() >= 1 / 6

    def test_second_moment_tracks_beta(self):
        rng = substream(SEED, 14, "prior")
        for beta in (2.0, 8.0):
            draws = sample_prior(BetaPrior(beta, 1.0, 10**5), rng).values
            est = float(np.mean(draws**2))
            sigma = float(np.std(draws**2, ddof=1)) / math.sqrt(draws.size)
            assert abs(est - 1 / (2 * beta + 1)) < 4 * sigma

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BetaPrior(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            BetaPrior(1.0, 1.5, 4)


class TestPriorQuadrature:
    def test_degree_one_uniform_is_midpoint(self):
        rule = prior_quadrature(BetaPrior(1.0, 1.0, 1), 1)
        assert rule.nodes.size == 1
        assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert rule.weights[0] == pytest.approx(1.0)

    def test_uniform_second_moment(self):
        rule = prior_quadrature(BetaPrior(1.0, 1.0, 1), 3)
        assert float(rule.weights @ rule.nodes**2) == pytest.approx(1 / 3, abs=1e-12)

    def test_beta_two_second_moment(self):
        rule = prior_quadrature(BetaPrior(2.0, 1.0, 1), 2)
        assert float(rule.weights @ rule.nodes**2) == pytest.approx(1 / 5, abs=1e-12)

    def test_all_moments_to_degree_twelve(self):
        for beta in (1.0, 2.0, 5.0, 7.5):
            for gamma in (1.0, 0.3):
                prior = BetaPrior(beta, gamma, 1)
                rule = prior_quadrature(prior, 12)
                for r in range(13):
                    est = float(rule.weights @ rule.nodes**r)
                    assert abs(est - symmetric_beta_moment(prior, r)) < 1e-12


class TestTypeInvariants:
    def test_mean_vector_enforces_box(self):
        with pytest.raises(ValueError):
            MeanVector(np.array([0.6]), 0.5)

    def test_population_enforces_mean_bound(self):
        with pytest.raises(ValueError):
            _pop([0.9, 0.0], 1, 2)  # bound is k/d = 0.5

    @pytest.mark.parametrize("bad", [np.array([255, 0]), np.array([255, 0], dtype=np.uint8),
                                     np.array([0.5, 1.0]), np.array([np.nan, 0.0]),
                                     np.array([-128, 0], dtype=np.int8)])
    def test_ternary_sample_rejects_values_before_the_cast(self, bad):
        with pytest.raises(ValueError, match="entries must take values"):
            TernarySample(bad, np.flatnonzero(bad))
        with pytest.raises(ValueError, match="entries must take values"):
            TernarySample.from_entries(bad)

    def test_ternary_sample_support_must_match(self):
        with pytest.raises(ValueError):
            TernarySample(np.array([1, 0], dtype=np.int8), np.array([1]))
        z = TernarySample.from_entries([0, -1, 1])
        assert np.array_equal(z.support, [1, 2])
