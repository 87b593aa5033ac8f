import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sparsetrace import distributions
from sparsetrace.distributions import BLOCK_ENTRIES, BetaPrior, SignRows, SparsePopulation, as_rows, sample_matrix
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


class TestSparseRows:
    def test_rows_train_as_their_dense_matrix(self):
        # Every kind, on the rows and on their dense matrix, from one generator state.
        spec = _box(64, 8)
        rows = sample_matrix(SparsePopulation(np.zeros(64), 8, 64), 40, substream(SEED, 40))
        dense = np.asarray(rows)
        assert np.array_equal(empirical_mean(rows), dense.mean(axis=0, dtype=np.float64))
        seen = []
        configs = [LearnerConfig(kind, epsilon=1.0, delta=1e-5) if kind == "gaussian_dp"
                   else LearnerConfig(kind, subsample_m=7) if kind == "subsample"
                   else LearnerConfig(kind) for kind in LEARNER_KINDS]
        for learner in configs + [lambda z: seen.append(z) or z.mean(axis=0)]:
            a = train(learner, spec, Dataset(rows), substream(SEED, 41))
            b = train(learner, spec, Dataset(dense), substream(SEED, 41))
            assert np.array_equal(a.theta, b.theta) and a.feasible == b.feasible
        assert seen[0].dtype == np.float64 and np.array_equal(seen[0], seen[1])

    def test_only_subsample_selects_rows(self, monkeypatch):
        # Every new row set on a support scans it once (`_stalls`): the kinds that train on
        # every row build none, and subsample builds its one prefix.
        calls = []
        stalls = distributions._stalls
        monkeypatch.setattr(distributions, "_stalls", lambda cols: calls.append(cols.shape) or stalls(cols))
        spec = _box(64, 8)
        data = Dataset(sample_matrix(SparsePopulation(np.zeros(64), 8, 64), 40, substream(SEED, 45)))
        calls.clear()
        for learner in (ERM, LearnerConfig("gaussian_dp", epsilon=1.0, delta=1e-5),
                        LearnerConfig("normalized_mean_l2"), lambda z: z.mean(axis=0)):
            train(learner, spec, data, substream(SEED, 46))
        assert calls == []
        train(LearnerConfig("subsample", subsample_m=7), spec, data, substream(SEED, 46))
        assert calls == [(7, 8)]

    def test_wrong_sparsity_rejected(self):
        rows = SignRows(np.full((2, 1), 0b11100000, dtype=np.uint8), 8, np.array([[0, 3, 5], [1, 3, 7]]))
        with pytest.raises(ValueError, match="exactly 2 nonzeros"):
            train(ERM, _box(8, 2), Dataset(rows), substream(SEED, 42))


class TestSignRows:
    # Past 255 rows the column counts take more than one uint8 block; widths with
    # padding bits; and one past BLOCK_ENTRIES.
    @pytest.mark.parametrize("d,n", [(1, 600), (7, 300), (37, 300), (4096, 300), (BLOCK_ENTRIES + 3, 5)])
    def test_rows_train_as_their_int8_matrix(self, d, n):
        # Every kind, on the rows and on their int8 matrix, from one generator state.
        spec = _box(d, d)
        rng = substream(SEED, d, "sign-rows")
        rows = sample_matrix(SparsePopulation(rng.uniform(-0.5, 0.5, size=d), d, d), n, rng)
        dense = np.asarray(rows)
        mean = empirical_mean(rows)
        assert mean.dtype == np.float64 and np.array_equal(mean, dense.mean(axis=0, dtype=np.float64))
        seen = []
        configs = [LearnerConfig(kind, epsilon=1.0, delta=1e-5) if kind == "gaussian_dp"
                   else LearnerConfig(kind, subsample_m=n - 2) if kind == "subsample"
                   else LearnerConfig(kind) for kind in LEARNER_KINDS]
        for learner in configs + [lambda z: seen.append(z) or z.mean(axis=0)]:
            a = train(learner, spec, Dataset(rows), substream(SEED, 43))
            b = train(learner, spec, Dataset(dense), substream(SEED, 43))
            assert np.array_equal(a.theta, b.theta) and a.feasible == b.feasible
        assert seen[0].dtype == np.float64 and np.array_equal(seen[0], seen[1])
        assert np.array_equal(seen[0], dense)

    def test_full_columns_count_every_row(self):
        # A column of n = 600 +1s: 255-row uint8 sums, each at its widest.
        rows = as_rows(np.ones((600, 9), dtype=np.int8))
        assert np.array_equal(empirical_mean(rows), np.ones(9))
        assert np.array_equal(empirical_mean(rows[:255]), np.ones(9))

    def test_dense_rows_rejected_at_k_below_d(self):
        rows = as_rows(np.ones((2, 8), dtype=np.int8))
        with pytest.raises(ValueError, match="exactly 2 nonzeros"):
            train(ERM, _box(8, 2), Dataset(rows), substream(SEED, 44))


class TestDpSensitivity:
    def test_neighboring_means_within_sensitivity_bound(self):
        rng = substream(SEED, 10)
        d, k, n = 12, 5, 20
        pop = SparsePopulation(np.zeros(d), k, d)
        bound = 2 * math.sqrt(k) / n
        for _ in range(1000):
            z = sample_matrix(pop, n, rng)
            z_prime = np.asarray(z)
            z_prime[int(rng.integers(n))] = np.asarray(sample_matrix(pop, 1, rng))[0]
            gap = np.linalg.norm(empirical_mean(z) - empirical_mean(as_rows(z_prime)))
            assert gap <= bound + 1e-12

    @pytest.mark.parametrize("n, d", [(1, 7), (2, 1), (400, 4096), (32767, 5), (40000, 3)])
    def test_empirical_mean_is_the_float64_mean_bit_for_bit(self, n, d):
        # Rows at k = d sum their bits in uint8 blocks of 255 rows; rows on a support (the
        # same signs and a last column of zeros, k = d of d + 1) by a bincount.
        z = np.zeros((n, d + 1), dtype=np.int8)
        z[:, :d] = 2 * substream(SEED, n, "signs").integers(0, 2, size=(n, d)) - 1
        z[:, 0] = 1  # a column whose sum is n, the widest the accumulator must hold
        for dense in (z[:, :d], z):
            rows = as_rows(dense)
            mean = empirical_mean(rows)
            assert (rows.support is None) == (dense is not z) and mean.dtype == np.float64
            assert np.array_equal(mean, dense.mean(axis=0, dtype=np.float64))

    def test_empirical_mean_makes_no_float64_copy(self):
        n, d = 400, 4096
        rows = as_rows(np.ones((n, d), dtype=np.int8))
        tracemalloc.start()
        try:
            mean = empirical_mean(rows)
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
            assert data.z.dtype == np.int8 and np.array_equal(np.asarray(data.z), [[1, -1, 0]])
            assert not (data.z.bits.flags.writeable or data.z.support.flags.writeable)

    @pytest.mark.parametrize("k", [64, 9])
    def test_later_writes_to_the_array_do_not_reach_the_dataset(self, k):
        # Every kind trains to the theta of the rows as they were when the Dataset was built.
        spec = _box(64, k)
        z = np.asarray(sample_matrix(SparsePopulation(np.zeros(64), k, 64), 30, substream(SEED, k, "alias")))
        kept = Dataset(z.copy())
        data = Dataset(z)
        j = int(np.argmax(np.abs(z.sum(axis=0))))  # a column whose mean the write flips
        np.negative(z[:, j], out=z[:, j])
        configs = [LearnerConfig(kind, epsilon=1.0, delta=1e-5) if kind == "gaussian_dp"
                   else LearnerConfig(kind, subsample_m=20) if kind == "subsample"
                   else LearnerConfig(kind) for kind in LEARNER_KINDS]
        for learner in configs + [lambda rows: rows.mean(axis=0) / 64]:
            a = train(learner, spec, data, substream(SEED, 47))
            b = train(learner, spec, kept, substream(SEED, 47))
            assert a.theta.tobytes() == b.theta.tobytes()

    def test_a_strided_int8_view_trains_like_its_contiguous_copy(self):
        z = (substream(SEED, 41, "strided").integers(0, 2, size=(40, 128)) * 2 - 1).astype(np.int8)
        strided = z[:, ::2]
        spec = _box(64, 64)
        for learner in (ERM, LearnerConfig("gaussian_dp", epsilon=1.0, delta=1e-5),
                        LearnerConfig("subsample", subsample_m=9), lambda rows: rows.mean(axis=0) / 64):
            thetas = [train(learner, spec, Dataset(rows), substream(SEED, 42)).theta
                      for rows in (strided, np.ascontiguousarray(strided))]
            assert thetas[0].tobytes() == thetas[1].tobytes()


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
