import itertools
import math

import numpy as np
import pytest

from sparsetrace.distributions import as_rows, sample_matrix
from sparsetrace.learners import Dataset, LearnerConfig, train
from sparsetrace.problems import (
    BOX_LP,
    FEASIBILITY_TOL,
    L1_CAPPED,
    ParameterPoint,
    ProblemSpec,
    check_data,
    data_distribution,
    excess_risk,
    is_feasible,
    loss,
    support_argmax,
)
from sparsetrace.rng import substream

SEED = 20240902


def random_feasible_point(spec: ProblemSpec, rng: np.random.Generator) -> ParameterPoint:
    """A random point of the feasible set (any full-support law will do)."""
    if spec.variant == BOX_LP:
        r = spec.box_radius
        return ParameterPoint(rng.uniform(-r, r, size=spec.d), True)
    mags = rng.exponential(size=spec.d)
    theta = np.where(rng.random(spec.d) < 0.5, 1.0, -1.0) * mags / mags.sum()
    theta *= rng.random()
    return ParameterPoint(np.clip(theta, -1.0 / spec.s, 1.0 / spec.s), True)


def validate_lipschitz(spec: ProblemSpec, trials: int, rng: np.random.Generator) -> bool:
    """Sampled check that |f(theta1, z) - f(theta2, z)| <= ||theta1 - theta2||_p,
    with p the spec's for box_lp and p = 1 for l1_capped; z is
    uniform over the data space (one draw from the zero-mean population)."""
    p = spec.p if spec.variant == BOX_LP else 1.0
    uniform = data_distribution(spec, np.zeros(spec.d))
    for _ in range(trials):
        t1 = random_feasible_point(spec, rng)
        t2 = random_feasible_point(spec, rng)
        z = np.asarray(sample_matrix(uniform, 1, rng))[0]
        gap = abs(loss(spec, t1, z) - loss(spec, t2, z))
        norm = float(np.sum(np.abs(t1.theta - t2.theta) ** p) ** (1.0 / p))
        if gap > norm + FEASIBILITY_TOL:
            return False
    return True


def _brute_force_sup(spec: ProblemSpec, v: np.ndarray) -> float:
    """Enumerate polytope vertices; the linear maximum is attained at one."""
    best = -math.inf
    if spec.variant == BOX_LP:
        r = spec.box_radius
        for signs in itertools.product((-r, r), repeat=spec.d):
            best = max(best, float(np.dot(signs, v)))
        return best
    mag = 1.0 / spec.s
    for support in itertools.combinations(range(spec.d), spec.s):
        for signs in itertools.product((-mag, mag), repeat=spec.s):
            theta = np.zeros(spec.d)
            theta[list(support)] = signs
            best = max(best, float(np.dot(theta, v)))
    return best


class TestLoss:
    def test_box_direct_evaluation(self):
        spec = ProblemSpec(BOX_LP, d=4, p=2.0, k=4)
        theta = ParameterPoint(np.full(4, 0.5), True)
        assert loss(spec, theta, np.ones(4, dtype=np.int8)) == pytest.approx(-1.0)

    def test_zero_parameter_gives_zero(self):
        for spec in (ProblemSpec(BOX_LP, d=3, p=1.5, k=2),
                     ProblemSpec(L1_CAPPED, d=3, s=2),
                     ProblemSpec(L1_CAPPED, d=3, s=1)):
            z = np.ones(3, dtype=np.int8)
            if spec.variant == BOX_LP:
                z = np.array([1, -1, 0], dtype=np.int8)
            theta = ParameterPoint(np.zeros(3), True)
            assert loss(spec, theta, z) == 0.0

    def test_capped_direct_evaluation(self):
        spec = ProblemSpec(L1_CAPPED, d=3, s=2)
        theta = ParameterPoint(np.array([0.0, -0.5, 0.5]), True)
        assert loss(spec, theta, np.array([1, -1, 1], dtype=np.int8)) == pytest.approx(-1.0)

    def test_infeasible_parameter_rejected(self):
        spec = ProblemSpec(BOX_LP, d=2, p=2.0, k=1)
        theta = ParameterPoint(np.ones(2), False)
        with pytest.raises(ValueError):
            loss(spec, theta, np.array([1, 0], dtype=np.int8))

    @pytest.mark.parametrize("spec, bad, good", [
        (ProblemSpec(BOX_LP, d=3, p=2.0, k=2), [1, 0, 0], [1, 0, -1]),
        (ProblemSpec(L1_CAPPED, d=3, s=2), [1, 0, -1], [1, 1, -1]),
        (ProblemSpec(L1_CAPPED, d=3, s=1), [0, -1, 1], [1, -1, 1]),
    ])
    def test_train_and_loss_share_the_data_space(self, spec, bad, good):
        theta = ParameterPoint(np.zeros(3), True)
        assert loss(spec, theta, np.array(good, dtype=np.int8)) == 0.0
        with pytest.raises(ValueError, match="exactly"):
            loss(spec, theta, np.array(bad, dtype=np.int8))
        with pytest.raises(ValueError, match="same number of nonzeros"):
            train(LearnerConfig("erm"), spec, Dataset(np.array([good, bad])), substream(SEED, 0))
        with pytest.raises(ValueError, match="exactly"):
            train(LearnerConfig("erm"), spec, Dataset(np.array([bad, bad])), substream(SEED, 0))

    def test_data_space_enforced(self):
        spec = ProblemSpec(BOX_LP, d=3, p=2.0, k=2)
        theta = ParameterPoint(np.zeros(3), True)
        with pytest.raises(ValueError):
            loss(spec, theta, np.array([1, 0, 0], dtype=np.int8))

    @pytest.mark.parametrize("spec", [ProblemSpec(BOX_LP, d=6, p=2.0, k=6), ProblemSpec(L1_CAPPED, d=6, s=2)])
    def test_full_rows_reject_a_single_zero(self, spec):
        z = np.where(substream(SEED, 3).random((5, 6)) < 0.5, 1, -1).astype(np.int8)
        check_data(spec, as_rows(z))
        z[3, 4] = 0
        with pytest.raises(ValueError, match="same number of nonzeros"):
            as_rows(z)
        z[:, 4] = 0  # one zero in every row: k = 5 rows
        with pytest.raises(ValueError, match="exactly 6 nonzeros"):
            check_data(spec, as_rows(z))


class TestSupportArgmax:
    def test_box_sign_rule(self):
        spec = ProblemSpec(BOX_LP, d=2, p=2.0, k=2)
        point = support_argmax(spec, np.array([3.0, -1.0]))
        r = 1 / math.sqrt(2)
        assert point.theta == pytest.approx([r, -r])

    def test_box_sign_of_zero_is_positive(self):
        spec = ProblemSpec(BOX_LP, d=2, p=2.0, k=2)
        point = support_argmax(spec, np.array([0.0, -1.0]))
        assert point.theta[0] > 0

    def test_capped_top_magnitudes(self):
        spec = ProblemSpec(L1_CAPPED, d=3, s=2)
        point = support_argmax(spec, np.array([0.3, -0.9, 0.5]))
        assert point.theta == pytest.approx([0.0, -0.5, 0.5])

    def test_counterexample_single_vertex(self):
        spec = ProblemSpec(L1_CAPPED, d=3, s=1)
        point = support_argmax(spec, np.array([0.1, 0.1, -0.2]))
        assert point.theta == pytest.approx([0.0, 0.0, -1.0])

    def test_lowest_index_tie_break(self):
        spec = ProblemSpec(L1_CAPPED, d=3, s=1)
        point = support_argmax(spec, np.array([0.2, 0.2, -0.2]))
        assert point.theta == pytest.approx([1.0, 0.0, 0.0])

    def test_output_is_feasible(self):
        rng = substream(SEED, 0, "argmax")
        specs = [ProblemSpec(BOX_LP, d=5, p=3.0, k=2),
                 ProblemSpec(L1_CAPPED, d=6, s=3),
                 ProblemSpec(L1_CAPPED, d=6, s=1)]
        for spec in specs:
            for _ in range(50):
                v = rng.standard_normal(spec.d)
                assert is_feasible(spec, support_argmax(spec, v).theta)
        assert specs[1].box_radius == 1 / 3  # l1_capped keeps a box too, of radius 1/s

    def test_matches_brute_force_vertex_enumeration(self):
        rng = substream(SEED, 1, "argmax")
        for spec in (ProblemSpec(BOX_LP, d=6, p=2.5, k=3),
                     ProblemSpec(L1_CAPPED, d=8, s=4),
                     ProblemSpec(L1_CAPPED, d=6, s=2),
                     ProblemSpec(L1_CAPPED, d=7, s=1)):
            for _ in range(20):
                v = rng.standard_normal(spec.d)
                assert float(np.dot(support_argmax(spec, v).theta, v)) == pytest.approx(
                    _brute_force_sup(spec, v), abs=1e-12)


class TestExcessRisk:
    def test_box_zero_parameter(self):
        spec = ProblemSpec(BOX_LP, d=4, p=2.0, k=4)
        theta = ParameterPoint(np.zeros(4), True)
        mu = np.array([0.5, 0.0, 0.0, 0.0])
        assert excess_risk(spec, theta, mu) == pytest.approx(0.125)

    def test_optimizer_has_zero_risk(self):
        # Exactly 0, not 0 up to rounding: the optimum is scored against itself.
        rng = substream(SEED, 2, "risk")
        for spec in (ProblemSpec(BOX_LP, d=5, p=2.0, k=3),
                     ProblemSpec(BOX_LP, d=64, p=2.0, k=64),
                     ProblemSpec(BOX_LP, d=300, p=3.0, k=7),
                     ProblemSpec(L1_CAPPED, d=5, s=2),
                     ProblemSpec(L1_CAPPED, d=64, s=5),
                     ProblemSpec(L1_CAPPED, d=5, s=1)):
            for _ in range(200):
                mu = rng.uniform(-spec.mean_bound, spec.mean_bound, size=spec.d)
                assert excess_risk(spec, support_argmax(spec, mu), mu) == 0.0

    def test_capped_perturbation_example(self):
        spec = ProblemSpec(L1_CAPPED, d=4, s=2)
        mu = np.array([0.4, 0.3, 0.2, 0.1])
        best = ParameterPoint(np.array([0.5, 0.5, 0.0, 0.0]), True)
        worse = ParameterPoint(np.array([0.5, 0.0, 0.5, 0.0]), True)
        assert excess_risk(spec, best, mu) == pytest.approx(0.0, abs=1e-12)
        assert excess_risk(spec, worse, mu) == pytest.approx(0.05)

    def test_box_supremum_closed_form(self):
        rng = substream(SEED, 3, "risk")
        spec = ProblemSpec(BOX_LP, d=6, p=3.0, k=4)
        for _ in range(30):
            mu = rng.uniform(-spec.k / spec.d, spec.k / spec.d, size=spec.d)
            closed = spec.box_radius * np.sum(np.abs(mu))
            attained = float(np.dot(support_argmax(spec, mu).theta, mu))
            assert attained == pytest.approx(closed, abs=1e-12)

    def test_risk_depends_only_on_inner_product(self):
        spec = ProblemSpec(BOX_LP, d=4, p=2.0, k=4)
        mu = np.array([0.5, -0.25, 0.0, 0.0])
        a = ParameterPoint(np.array([0.2, 0.4, 0.5, -0.5]), True)
        b = ParameterPoint(np.array([0.2, 0.4, -0.1, 0.3]), True)
        assert np.dot(a.theta, mu) == pytest.approx(np.dot(b.theta, mu))
        assert excess_risk(spec, a, mu) == pytest.approx(excess_risk(spec, b, mu), abs=1e-12)

    def test_mean_past_the_bound_has_neither_risk_nor_population(self):
        # One tolerance for the bound k/d: a mean 1e-10 past it is rejected alike.
        spec = ProblemSpec(BOX_LP, d=4, p=2.0, k=2)
        mu = np.array([0.5 + 1e-10, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"\|mu_j\| <= 0.5"):
            excess_risk(spec, support_argmax(spec, mu), mu)
        with pytest.raises(ValueError, match=r"\|mu_j\| <= 0.5"):
            data_distribution(spec, mu)

    def test_always_nonnegative(self):
        rng = substream(SEED, 4, "risk")
        spec = ProblemSpec(L1_CAPPED, d=6, s=3)
        for _ in range(100):
            mu = rng.uniform(-1, 1, size=6)
            point = random_feasible_point(spec, rng)
            assert excess_risk(spec, point, mu) >= 0.0


class TestLipschitz:
    def test_box_instances(self):
        rng = substream(SEED, 5, "lip")
        for p in (1.0, 1.5, 2.0, 4.0):
            assert validate_lipschitz(ProblemSpec(BOX_LP, d=8, p=p, k=3), 2500, rng)

    def test_l1_instances(self):
        rng = substream(SEED, 6, "lip")
        assert validate_lipschitz(ProblemSpec(L1_CAPPED, d=8, s=3), 10**4, rng)
        assert validate_lipschitz(ProblemSpec(L1_CAPPED, d=8, s=1), 2500, rng)

    def test_degenerate_pair_holds_with_equality(self):
        spec = ProblemSpec(BOX_LP, d=3, p=2.0, k=2)
        theta = ParameterPoint(np.full(3, 0.1), True)
        z = np.array([1, -1, 0], dtype=np.int8)
        assert loss(spec, theta, z) == loss(spec, theta, z)


class TestSpecValidation:
    def test_p_equal_one_scale_is_unity(self):
        assert ProblemSpec(BOX_LP, d=4, p=1.0, k=3).loss_scale == pytest.approx(1.0)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            ProblemSpec(BOX_LP, d=4, p=0.5, k=2)
        with pytest.raises(ValueError, match=r"p: must lie in \[1, inf\)"):
            ProblemSpec(BOX_LP, d=4, p=math.inf, k=2)  # loss_scale k^-(p-1)/p is NaN there
        with pytest.raises(ValueError):
            ProblemSpec(BOX_LP, d=4, p=2.0, k=5)
        with pytest.raises(ValueError):
            ProblemSpec(L1_CAPPED, d=4)
        with pytest.raises(ValueError, match="variant: must be one of"):
            ProblemSpec("l1_counterexample", d=4)  # the plain l_1 ball is l1_capped at s = 1
        with pytest.raises(ValueError):
            ProblemSpec("simplex", d=4)
        for s in (0, 5):
            with pytest.raises(ValueError, match=r"s: l1_capped requires a cap s in \[1, d=4\]"):
                ProblemSpec(L1_CAPPED, d=4, s=s)
        # Only l1_capped has a cap; on box_lp s would just rescale the score.
        with pytest.raises(ValueError, match="s: only l1_capped takes a cap"):
            ProblemSpec(BOX_LP, d=4, p=2.0, k=2, s=2)
        # Only box_lp reads p and k; l1_capped data are dense, so its k is d.
        with pytest.raises(ValueError, match="p: only box_lp takes a norm index"):
            ProblemSpec(L1_CAPPED, d=4, p=2.0, s=2)
        with pytest.raises(ValueError, match="k: l1_capped data are dense, so k must be d=4"):
            ProblemSpec(L1_CAPPED, d=4, k=2, s=2)
        assert ProblemSpec(L1_CAPPED, d=4, k=4, s=2) == ProblemSpec(L1_CAPPED, d=4, s=2)
        assert ProblemSpec(L1_CAPPED, d=4, s=2).k == 4
        assert ProblemSpec(BOX_LP, d=4) == ProblemSpec(BOX_LP, d=4, p=2.0, k=4)
