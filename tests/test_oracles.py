import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsetrace import oracles
from sparsetrace.distributions import BetaPrior, prior_quadrature, sample_prior
from sparsetrace.oracles import (
    GRID_LEARNERS,
    EnumerationLimitError,
    IdentityCheckResult,
    check_beta_abs_moment,
    check_card_moments,
    mean_box_vertex,
    mean_clipped,
    mean_cubed,
    ternary_atoms,
    verification_grid,
    verify_scaling_identity,
    verify_sparse_identity,
)
from sparsetrace.rng import substream

SEED = 20240905

IDENTITY = lambda z: z.mean(axis=0)


class TestSparseIdentity:
    def test_closed_form_anchor(self):
        for beta, value in ((1.0, 2 / 3), (2.0, 4 / 5), (5.0, 10 / 11)):
            r = verify_sparse_identity(1, 1, 1, beta, IDENTITY, name="identity")
            assert abs(r.lhs - value) <= 1e-8
            assert abs(r.rhs - value) <= 1e-8

    def test_constant_learner_both_sides_vanish(self):
        constant = lambda z: np.full(z.shape[1], 0.37)
        r = verify_sparse_identity(2, 1, 2, 2.0, constant, name="constant")
        assert abs(r.lhs) < 1e-12 and abs(r.rhs) < 1e-12

    def test_nontrivial_instance_verifies(self):
        r = verify_sparse_identity(2, 1, 2, 2.0, mean_clipped)
        assert r.rel_error <= 1e-8

    def test_averaged_coin_set_learner_verifies(self):
        # A finitely randomized learner: average its outputs over an
        # explicit 8-element coin set, which keeps both sides exact.
        offsets = [(-1) ** i * (i + 1) / 16.0 for i in range(8)]

        def averaged(z):
            mean = z.mean(axis=0)
            return np.mean([np.clip(mean + c, -1, 1) for c in offsets], axis=0)

        r = verify_sparse_identity(2, 2, 2, 3.0, averaged, name="coin_avg")
        assert r.rel_error <= 1e-8

    def test_enumeration_ceiling_enforced(self):
        with pytest.raises(EnumerationLimitError):
            verify_sparse_identity(5, 2, 3, 1.0, IDENTITY)

    def test_ceiling_raises_before_any_atom_is_built(self, monkeypatch):
        # Built first, these atom sets would take minutes and gigabytes.
        def no_atoms(d, k):
            raise AssertionError(f"ternary_atoms({d}, {k}) built past the limit")

        monkeypatch.setattr(oracles, "ternary_atoms", no_atoms)
        with pytest.raises(EnumerationLimitError):
            verify_sparse_identity(20, 10, 1, 1.0, IDENTITY)
        with pytest.raises(EnumerationLimitError):
            verify_scaling_identity(30, 1, 1.0, 0.5, IDENTITY)

    def test_one_learner_call_per_multiset(self):
        calls = 0

        def counted(z):
            nonlocal calls
            calls += 1
            return mean_cubed(z)

        verify_sparse_identity(5, 5, 3, 2.0, counted)
        assert calls == math.comb(32 + 3 - 1, 3)  # 32 atoms, 3 samples
        calls = 0
        verify_scaling_identity(6, 2, 2.0, 0.9, counted)
        assert calls == math.comb(64 + 2 - 1, 2)

    def test_orderings_count_every_ordered_dataset(self, monkeypatch):
        # n = 25 passes 20!, where an int64 product of the run ranks would wrap.
        monkeypatch.setattr(oracles, "ENUMERATION_LIMIT", 10**40)
        for d, k, n in ((3, 2, 3), (1, 1, 25)):
            _, _, orderings, _ = oracles._enumerate(BetaPrior(2.0, k / d, d), n + 2, k, n, IDENTITY)
            assert math.isclose(orderings.sum(), (math.comb(d, k) * 2**k) ** n, rel_tol=1e-12)

    def test_order_dependent_learner_checked_in_canonical_order(self):
        # The oracle feeds each multiset to the learner once, its samples in
        # nondecreasing atom index; the reference sums every ordering.
        d, k, n, beta = 2, 1, 3, 2.0
        atoms = ternary_atoms(d, k)
        ordered = lambda z: np.clip(z[0] - 0.5 * z[-1], -1.0, 1.0) ** 3

        def canonical(z):
            index = [int(np.flatnonzero((atoms == row).all(axis=1))[0]) for row in z]
            return ordered(z[np.argsort(index, kind="stable")])

        r = verify_sparse_identity(d, k, n, beta, ordered, name="ordered")
        _assert_matches(r, reference_sparse(d, k, n, beta, canonical))
        assert r.rel_error <= 1e-8

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            verify_sparse_identity(2, 3, 1, 1.0, IDENTITY)
        with pytest.raises(ValueError):
            verify_sparse_identity(2, 1, 1, 0.5, IDENTITY)

    def test_monte_carlo_cross_validation(self):
        # Independent sampled estimate of the LHS agrees with the exact value.
        d, k, n, beta = 2, 1, 1, 2.0
        exact = verify_sparse_identity(d, k, n, beta, IDENTITY).lhs
        rng = substream(SEED, 0, "mc")
        draws = 10**6
        mu = sample_prior(BetaPrior(beta, k / d, d * draws), rng).values.reshape(draws, d)
        support = rng.integers(0, d, size=draws)
        p_plus = (1.0 + (d / k) * np.take_along_axis(mu, support[:, None], 1)[:, 0]) / 2.0
        signs = np.where(rng.random(draws) < p_plus, 1.0, -1.0)
        z = np.zeros((draws, d))
        np.put_along_axis(z, support[:, None], signs[:, None], 1)
        theta = z  # identity learner at n = 1
        centered = z - (d / k) * mu
        scores = np.einsum("ij,ij->i", theta, np.where(z != 0, centered, 0.0))
        sigma = float(scores.std(ddof=1)) / math.sqrt(draws)
        assert abs(float(scores.mean()) - exact) < 4 * sigma


class TestScalingIdentity:
    def test_polynomial_reduction_identity(self):
        # (z - mu)(1 + z mu) = (1 - mu^2) z for z in {-1, +1}.
        mu = np.linspace(-0.9, 0.9, 19)
        for z in (-1.0, 1.0):
            assert np.allclose((z - mu) * (1 + z * mu), (1 - mu**2) * z, atol=1e-15)

    def test_constant_learner_both_sides_vanish(self):
        constant = lambda z: np.full(z.shape[1], -0.2)
        r = verify_scaling_identity(2, 2, 1.5, 0.6, constant, name="constant")
        assert abs(r.lhs) < 1e-12 and abs(r.rhs) < 1e-12

    def test_identity_learner_small_instance(self):
        r = verify_scaling_identity(1, 1, 1.0, 0.5, IDENTITY, name="identity")
        assert r.rel_error <= 1e-8

    def test_monte_carlo_cross_validation(self):
        d, n, beta, gamma = 1, 1, 1.0, 0.5
        exact = verify_scaling_identity(d, n, beta, gamma, IDENTITY).lhs
        rng = substream(SEED, 1, "mc")
        draws = 10**6
        mu = sample_prior(BetaPrior(beta, gamma, draws), rng).values
        z = np.where(rng.random(draws) < (1 + mu) / 2, 1.0, -1.0)
        lam = (1.0 - (mu / gamma) ** 2) / (1.0 - mu**2)
        scores = z * lam * (z - mu)  # theta = z (identity learner, n = 1)
        sigma = float(scores.std(ddof=1)) / math.sqrt(draws)
        assert abs(float(scores.mean()) - exact) < 4 * sigma

    def test_monte_carlo_cross_validation_multivariate(self):
        d, n, beta, gamma = 2, 1, 2.0, 0.6
        exact = verify_scaling_identity(d, n, beta, gamma, IDENTITY).lhs
        rng = substream(SEED, 6, "mc")
        draws = 5 * 10**5
        mu = sample_prior(BetaPrior(beta, gamma, d * draws), rng).values.reshape(draws, d)
        z = np.where(rng.random((draws, d)) < (1 + mu) / 2, 1.0, -1.0)
        lam = (1.0 - (mu / gamma) ** 2) / (1.0 - mu**2)
        scores = np.einsum("ij,ij->i", z, lam * (z - mu))  # theta = z at n = 1
        sigma = float(scores.std(ddof=1)) / math.sqrt(draws)
        assert abs(float(scores.mean()) - exact) < 4 * sigma

    def test_gamma_above_one_rejected(self):
        with pytest.raises(ValueError):
            verify_scaling_identity(1, 1, 1.0, 1.2, IDENTITY)

    def test_shape_parameter_below_one_still_exact(self):
        for beta in (0.25, 0.5):
            r = verify_scaling_identity(2, 2, beta, 0.7, IDENTITY, name="identity")
            assert r.rel_error <= 1e-8

    def test_matches_sparse_oracle_at_dense_sparsity(self):
        for d in (1, 2):
            for learner, name in ((mean_clipped, "clipped"), (mean_cubed, "cubed")):
                sparse = verify_sparse_identity(d, d, 2, 2.0, learner, name=name)
                dense = verify_scaling_identity(d, 2, 2.0, 1.0, learner, name=name)
                agree = IdentityCheckResult.compare(sparse.lhs, dense.lhs, "agree")
                assert agree.rel_error <= 1e-8


def _product_rule(prior, degree, atoms, n, learner):
    """Every size-n dataset over the atoms with its learner output, and the
    d-fold product of the prior's Gauss rule as (mu, weight) node tuples."""
    idx = np.array(list(itertools.product(range(atoms.shape[0]), repeat=n)), dtype=np.int64)
    z_sets = atoms[idx]
    thetas = np.stack([np.asarray(learner(z.astype(np.float64)), dtype=float) for z in z_sets])
    rule = prior_quadrature(prior, degree)
    tuples = [(rule.nodes[list(c)], float(np.prod(rule.weights[list(c)])))
              for c in itertools.product(range(rule.nodes.size), repeat=prior.d)]
    return idx, z_sets, thetas, tuples


def reference_sparse(d, k, n, beta, learner):
    """Both sides of the sparse identity by the d-fold product rule: each
    atom's probability is recomputed at every node tuple."""
    atoms = ternary_atoms(d, k)
    idx, z_sets, thetas, tuples = _product_rule(BetaPrior(beta, k / d, d), n + 2, atoms, n, learner)
    summed = z_sets.sum(axis=1).astype(np.float64)
    weighted_counts = thetas * np.abs(z_sets).sum(axis=1)
    const = np.einsum("nd,nd->n", thetas, summed)
    ratio = d / k
    lhs = rhs = 0.0
    for mu, w_mu in tuples:
        factors = np.where(atoms != 0, (1.0 + ratio * atoms * mu) / 2.0, 1.0)
        w_set = (factors.prod(axis=1) / math.comb(d, k))[idx].prod(axis=1)
        lhs += w_mu * float(w_set @ (const - ratio * (weighted_counts @ mu)))
        rhs += w_mu * 2.0 * beta * ratio * float(mu @ (w_set @ thetas))
    return lhs, rhs


def reference_scaling(d, n, beta, gamma, learner):
    """Both sides of the scaling identity by the d-fold product rule, with the
    scaling factor divided by each sample's probability weight."""
    _, z_sets, thetas, tuples = _product_rule(BetaPrior(beta, gamma, d), n + 3,
                                              ternary_atoms(d, d), n, learner)
    z = z_sets.astype(np.float64)
    lhs = rhs = 0.0
    for mu, w_mu in tuples:
        per_factor = (1.0 + z * mu) / 2.0
        w_set = per_factor.prod(axis=(1, 2))
        swapped = (1.0 - (mu / gamma) ** 2) * z / 2.0
        lhs += w_mu * float(w_set @ np.einsum("snd,sd->s", swapped / per_factor, thetas))
        rhs += w_mu * 2.0 * beta / gamma**2 * float(mu @ (w_set @ thetas))
    return lhs, rhs


def _assert_matches(result, reference):
    for got, want in zip((result.lhs, result.rhs), reference):
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300), (result.instance, got, want)


class TestProductRuleReference:
    """The per-coordinate oracles agree with the d-fold product rule."""

    def test_sparse_battery_shapes(self):
        for d in (1, 2, 3):
            for k in range(1, d + 1):
                for n in (1, 2):
                    for beta in (1.0, 2.0, 5.0):
                        for name, fn in GRID_LEARNERS:
                            _assert_matches(verify_sparse_identity(d, k, n, beta, fn, name=name),
                                            reference_sparse(d, k, n, beta, fn))

    def test_scaling_battery_shapes_unit_gamma_and_small_beta(self):
        for d in (1, 2):
            for n in (1, 2):
                for beta, gamma in ((1.0, 0.3), (1.0, 0.9), (3.0, 0.3), (3.0, 0.9),
                                    (2.0, 1.0), (0.25, 0.7), (0.5, 1.0)):
                    for name, fn in GRID_LEARNERS:
                        _assert_matches(verify_scaling_identity(d, n, beta, gamma, fn, name=name),
                                        reference_scaling(d, n, beta, gamma, fn))

    def test_four_coordinates(self):
        _assert_matches(verify_sparse_identity(4, 2, 2, 2.0, mean_cubed),
                        reference_sparse(4, 2, 2, 2.0, mean_cubed))
        _assert_matches(verify_scaling_identity(4, 2, 0.5, 0.9, mean_box_vertex),
                        reference_scaling(4, 2, 0.5, 0.9, mean_box_vertex))


class TestBenchmarkHeavySet:
    def test_every_heavy_instance_is_admitted_and_exact(self):
        # perfbench's verify_oracles runs these; a limit or contract change
        # that rejects one or loosens its accuracy should fail here first.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads_heavy", path)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
        for task in workloads.VerifyOracles.heavy:
            result = workloads.VerifyOracles._heavy_instance(task)
            assert result.rel_error <= workloads.IDENTITY_TOL, result.instance


class TestBetaAbsMoment:
    def test_uniform_case(self):
        est, bound, passed = check_beta_abs_moment(1.0, 1.0, 10**5, substream(SEED, 2))
        assert passed and abs(est - 0.5) < 0.01 and bound == pytest.approx(1 / 3)

    def test_grid_cells_pass(self):
        rng = substream(SEED, 3)
        for beta in (1.0, 4.0, 16.0):
            for gamma in (0.25, 1.0):
                est, bound, passed = check_beta_abs_moment(beta, gamma, 10**5, rng)
                assert passed, (beta, gamma, est, bound)

    def test_beta_below_one_rejected(self):
        with pytest.raises(ValueError):
            check_beta_abs_moment(0.5, 1.0, 10**5, substream(SEED, 4))


class TestCardMoments:
    def test_hand_example(self):
        passed, _ = check_card_moments([np.array([2.0, 0.0, 0.0])], [1.0])
        assert passed

    def test_equality_case(self):
        passed, _ = check_card_moments([np.ones(12)], [0.0])
        assert passed

    def test_zero_vector_negative_beta_guard(self):
        passed, _ = check_card_moments([np.zeros(4)], [-2.0])
        assert passed

    @pytest.mark.parametrize("vector,beta", [
        (np.array([]), 1.0),  # nothing to count
        (np.array([np.nan]), 0.0),
        (np.array([0.5, np.inf]), 1.0),
        (np.array([0.5]), float("nan")),
        (np.array([0.5]), -math.inf),
    ], ids=["empty", "nan-entry", "inf-entry", "nan-beta", "inf-beta"])
    def test_empty_or_nonfinite_input_rejected(self, vector, beta):
        with pytest.raises(ValueError, match="nonempty.*finite"):
            check_card_moments([np.ones(3), vector], [0.0, beta])

    def test_random_battery_has_no_violations(self):
        rng = substream(SEED, 5, "card")
        vectors, betas = [], []
        for _ in range(10**4):
            n = int(rng.integers(1, 40))
            vectors.append(rng.uniform(-1, 1, size=n))
            betas.append(float(rng.uniform(-n, n)))
        passed, counterexample = check_card_moments(vectors, betas)
        assert passed, counterexample


class TestGrid:
    def test_atoms_enumeration_count(self):
        assert ternary_atoms(4, 2).shape == (math.comb(4, 2) * 4, 4)

    def test_grid_learners_are_deterministic_maps(self):
        z = np.array([[1.0, -1.0], [1.0, 1.0]])
        for fn in (mean_clipped, mean_box_vertex, mean_cubed):
            assert np.array_equal(fn(z), fn(z))

    def test_verification_grid_all_pass(self):
        results = verification_grid()
        assert len(results) >= 150
        worst = max(r.rel_error for r in results)
        assert worst <= 1e-8, max(results, key=lambda r: r.rel_error).instance
