import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sparsetrace.distributions import BetaPrior, SparsePopulation, sample_matrix
from sparsetrace.learners import (
    LEARNER_KINDS,
    Dataset,
    LearnerConfig,
    empirical_mean,
    gaussian_sigma,
    measure_excess_risk,
    train,
)
from sparsetrace.problems import BOX_LP, L1_CAPPED, ProblemSpec, excess_risk, is_feasible, support_argmax
from sparsetrace.rng import substream

SEED = 20240903

ERM = LearnerConfig("erm")


def _box(d, k, p=2.0):
    return ProblemSpec(BOX_LP, d=d, p=p, k=k)


class TestTrain:
    def test_erm_closed_form_with_tie_rule(self):
        spec = _box(2, 2)
        data = Dataset(np.array([[1, 1], [1, -1]], dtype=np.int8))
        point = train(ERM, spec, data, substream(SEED, 0))
        r = 1 / math.sqrt(2)
        assert point.theta == pytest.approx([r, r])

    def test_gaussian_sigma_formula(self):
        sigma = gaussian_sigma(1.0, 1e-5, 4, 100)
        assert sigma == pytest.approx((2 * 2 / 100) * math.sqrt(2 * math.log(1.25e5)))

    def test_dp_output_is_feasible(self):
        spec = _box(16, 8)
        pop = SparsePopulation(np.zeros(16), 8, 16)
        data = Dataset(sample_matrix(pop, 32, substream(SEED, 1)))
        cfg = LearnerConfig("gaussian_dp", epsilon=1.0, delta=1e-5)
        point = train(cfg, spec, data, substream(SEED, 2))
        assert point.feasible and is_feasible(spec, point.theta)

    def test_constant_zero_risk_equals_optimal_value(self):
        spec = _box(4, 4)
        data = Dataset(np.ones((3, 4), dtype=np.int8))
        point = train(lambda z: np.zeros(4), spec, data, substream(SEED, 3))
        mu = np.array([0.3, -0.2, 0.0, 0.1])
        expected = spec.loss_scale * float(np.dot(support_argmax(spec, mu).theta, mu))
        assert excess_risk(spec, point, mu) == pytest.approx(expected)

    def test_subsample_uses_prefix(self):
        spec = _box(2, 2)
        data = Dataset(np.array([[1, 1], [1, 1], [-1, -1], [-1, -1]], dtype=np.int8))
        cfg = LearnerConfig("subsample", subsample_m=2)
        point = train(cfg, spec, data, substream(SEED, 4))
        r = 1 / math.sqrt(2)
        assert point.theta == pytest.approx([r, r])

    def test_subsample_larger_than_n_rejected(self):
        spec = _box(2, 2)
        data = Dataset(np.array([[1, 1]], dtype=np.int8))
        cfg = LearnerConfig("subsample", subsample_m=5)
        with pytest.raises(ValueError):
            train(cfg, spec, data, substream(SEED, 5))

    def test_empty_dataset_rejected(self):
        spec = _box(2, 2)
        with pytest.raises(ValueError):
            train(ERM, spec, Dataset(np.zeros((0, 2), dtype=np.int8)), substream(SEED, 6))

    def test_normalized_mean_targets_l2_ball(self):
        spec = ProblemSpec(L1_CAPPED, d=8, s=4)
        rng = substream(SEED, 7)
        pop = SparsePopulation(np.full(8, 0.25), 8, 8)
        data = Dataset(sample_matrix(pop, 64, rng))
        point = train(LearnerConfig("normalized_mean_l2"), spec, data, rng)
        assert np.linalg.norm(point.theta) <= 1 + 1e-9

    def test_normalized_mean_degenerate_zero(self):
        spec = ProblemSpec(L1_CAPPED, d=2, s=1)
        data = Dataset(np.array([[1, 1], [-1, -1]], dtype=np.int8))
        point = train(LearnerConfig("normalized_mean_l2"), spec, data, substream(SEED, 8))
        assert np.array_equal(point.theta, np.zeros(2))

    def test_map_learner_gets_checked_data_and_a_feasibility_tag(self):
        spec = _box(2, 2)
        seen = []

        def learner(z):
            seen.append(z)
            return np.full(2, 5.0)

        point = train(learner, spec, Dataset(np.array([[1, -1]])), substream(SEED, 9))
        assert seen[0].dtype == np.float64 and np.array_equal(seen[0], [[1.0, -1.0]])
        assert point.feasible is False and np.array_equal(point.theta, [5.0, 5.0])
        with pytest.raises(ValueError, match="exactly"):
            train(learner, spec, Dataset(np.array([[1, 0]])), substream(SEED, 9))
        assert len(seen) == 1

    def test_wrong_sparsity_rejected_for_box(self):
        spec = _box(3, 2)
        data = Dataset(np.array([[1, 0, 0]], dtype=np.int8))
        with pytest.raises(ValueError):
            train(ERM, spec, data, substream(SEED, 9))


class TestDpSensitivity:
    def test_neighboring_means_within_sensitivity_bound(self):
        rng = substream(SEED, 10)
        d, k, n = 12, 5, 20
        pop = SparsePopulation(np.zeros(d), k, d)
        bound = 2 * math.sqrt(k) / n
        for _ in range(1000):
            z = sample_matrix(pop, n, rng)
            z_prime = z.copy()
            z_prime[int(rng.integers(n))] = sample_matrix(pop, 1, rng)[0]
            gap = np.linalg.norm(empirical_mean(z) - empirical_mean(z_prime))
            assert gap <= bound + 1e-12

    def test_empirical_mean_makes_no_float64_copy(self):
        n, d = 400, 4096
        z = np.ones((n, d), dtype=np.int8)
        tracemalloc.start()
        try:
            mean = empirical_mean(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(mean, np.ones(d))
        assert peak < n * d * 8 / 10

    def test_config_sanity_bounds(self):
        with pytest.raises(ValueError):
            LearnerConfig("gaussian_dp", epsilon=11.0, delta=1e-5)
        with pytest.raises(ValueError):
            LearnerConfig("gaussian_dp", epsilon=1.0, delta=1.0)


class TestErmRiskIdentity:
    def test_realized_risk_identity(self):
        # alpha := realized excess risk makes <mu, theta> = sup - k^((p-1)/p) alpha exact.
        rng = substream(SEED, 11)
        spec = _box(8, 4, p=3.0)
        pop = SparsePopulation(rng.uniform(-0.5, 0.5, 8), 4, 8)
        data = Dataset(sample_matrix(pop, 16, rng))
        point = train(ERM, spec, data, rng)
        mu = pop.mu
        alpha = excess_risk(spec, point, mu)
        sup = spec.box_radius * np.sum(np.abs(mu))
        k_pow = spec.k ** ((spec.p - 1) / spec.p)
        assert float(np.dot(mu, point.theta)) == pytest.approx(sup - k_pow * alpha, abs=1e-12)


class TestDatasetType:
    def test_non_ternary_entries_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[2, 0]], dtype=np.int8))

    @pytest.mark.parametrize("bad", [
        np.array([[255, 0]]),                      # int64: an int8 cast wraps it to -1
        np.array([[255, 0]], dtype=np.uint8),
        np.array([[0.5, 1.0]]),                    # float: an int8 cast truncates it to 0
        np.array([[np.nan, 1.0]]),
        np.array([[-128, 0]], dtype=np.int8),      # np.abs(-128) is -128 in int8
        np.array([[127, 0]], dtype=np.int8),
    ])
    def test_out_of_range_values_rejected_before_the_cast(self, bad):
        with pytest.raises(ValueError, match="entries must take values"):
            Dataset(bad)

    def test_in_range_values_of_any_dtype_accepted(self):
        for values in (np.array([[1.0, -1.0, 0.0]]), np.array([[1, -1, 0]], dtype=np.int64),
                       np.array([[1, -1, 0]], dtype=np.int8)):
            data = Dataset(values)
            assert data.z.dtype == np.int8 and np.array_equal(data.z, [[1, -1, 0]])
            assert not data.z.flags.writeable


class TestFeasibilityInvariant:
    def test_all_learner_kinds_return_feasible_points(self):
        rng = substream(SEED, 30)
        spec = _box(16, 8)
        pop = SparsePopulation(rng.uniform(-0.4, 0.4, 16), 8, 16)
        data = Dataset(sample_matrix(pop, 24, rng))
        configs = [ERM,
                   LearnerConfig("gaussian_dp", epsilon=1.0, delta=1e-5),
                   LearnerConfig("subsample", subsample_m=8),
                   lambda z: np.zeros(16)]
        for cfg in configs:
            point = train(cfg, spec, data, rng)
            assert point.feasible and is_feasible(spec, point.theta)


class TestMeasureExcessRisk:
    def test_constant_zero_matches_uniform_prior_mean(self):
        # k = d, p = 2: risk of theta = 0 is ||mu||_1 / d, with mean E|mu| = 1/2.
        spec = _box(16, 16)
        prior = BetaPrior(1.0, 1.0, 16)
        mean, ci = measure_excess_risk(lambda z: np.zeros(16), spec, prior, n=4, trials=400, rng=substream(SEED, 12))
        assert abs(mean - 0.5) < 2 * ci

    def test_erm_risk_decreases_with_n(self):
        spec = _box(16, 16)
        prior = BetaPrior(1.0, 1.0, 16)
        means = []
        for i, n in enumerate((64, 512, 4096)):
            mean, _ = measure_excess_risk(ERM, spec, prior, n=n, trials=60,
                                          rng=substream(SEED, 13 + i))
            means.append(mean)
        assert means[0] > means[1] > means[2]

    def test_dp_risk_dominates_erm_risk(self):
        spec = _box(32, 32)
        prior = BetaPrior(2.0, 1.0, 32)
        dp = LearnerConfig("gaussian_dp", epsilon=0.5, delta=1e-5)
        erm_mean, erm_ci = measure_excess_risk(ERM, spec, prior, n=128, trials=80,
                                               rng=substream(SEED, 16))
        dp_mean, dp_ci = measure_excess_risk(dp, spec, prior, n=128, trials=80,
                                             rng=substream(SEED, 17))
        assert dp_mean - dp_ci > erm_mean + erm_ci

    def test_too_few_trials_rejected(self):
        spec = _box(4, 4)
        with pytest.raises(ValueError):
            measure_excess_risk(ERM, spec, BetaPrior(1.0, 1.0, 4), 8, 10, substream(SEED, 18))

    def test_prior_wider_than_mean_bound_rejected(self):
        # k/d = 0.25: a gamma = 1 prior is not a law of population means here,
        # and clipping its draws would measure some other law.
        with pytest.raises(ValueError, match="^gamma: "):
            measure_excess_risk(ERM, _box(16, 4), BetaPrior(1.0, 1.0, 16), 8, 30,
                                substream(SEED, 19))


def test_readme_lists_every_learner_kind():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    listed = text.split("learners.py ", 1)[1].split(",", 1)[0]
    assert tuple(listed.split(" / ")) == LEARNER_KINDS
