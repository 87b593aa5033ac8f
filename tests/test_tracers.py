import itertools
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from sparsetrace.distributions import (
    BLOCK_ENTRIES,
    BetaPrior,
    SparsePopulation,
    as_rows,
    block_rows,
    sample_matrix,
    sample_prior,
)
from sparsetrace.harness import EXIT_OK, main
from sparsetrace.learners import LearnerConfig
from sparsetrace.oracles import check_card_moments
from sparsetrace.problems import BOX_LP, L1_CAPPED, ProblemSpec, support_argmax
from sparsetrace.rng import substream
from sparsetrace import tracers
from sparsetrace.tracers import (
    ROW_LIMIT,
    SCALING_MATRIX_SCORE,
    ThresholdPolicy,
    TraceReport,
    TracerSpec,
    _dense,
    _draw_trial,
    _NullLaw,
    _split,
    _vertex_null_law,
    calibrate_threshold,
    default_beta,
    default_prior,
    dense_score,
    half_trace_value,
    null_quantile,
    null_sample_size,
    poisson_binomial_pmf,
    run_trace_arms,
    run_trace_trial,
    score_batch,
    score_kind,
    sparse_tracer,
    tie_weight,
    trace_value_contribution,
)

SEED = 20240904

ERM = LearnerConfig("erm")


def _score_sparse_reference(theta, z, mu, k, p, d):
    """Independent scalar implementation of the sparse score."""
    total = 0.0
    for j in range(d):
        if z[j] != 0:
            total += theta[j] * (z[j] - (d / k) * mu[j])
    return (d ** (1 / p) / math.sqrt(k)) * total


def _score_one(tr, theta, z):
    """score_batch on a 1-row matrix."""
    scores, _ = score_batch(tr, np.asarray(theta, dtype=float), np.asarray(z)[None, :])
    return float(scores[0])


class TestSparseScore:
    def test_zero_parameter_scores_zero(self):
        tr = sparse_tracer(np.zeros(4), 4, 2.0, 4)
        assert _score_one(tr, np.zeros(4), [1, -1, 1, 1]) == 0.0

    def test_direct_evaluation(self):
        tr = sparse_tracer(np.zeros(4), 4, 2.0, 4)
        assert _score_one(tr, np.full(4, 0.5), [1, 1, 1, 1]) == pytest.approx(2.0)

    def test_hand_evaluation_with_nonzero_mean(self):
        tr = sparse_tracer(np.array([0.25, 0.0]), 1, 2.0, 2)
        theta = np.full(2, 1 / math.sqrt(2))
        assert _score_one(tr, theta, [1, 0]) == pytest.approx(0.5)

    def test_matches_independent_scalar_implementation(self):
        rng = substream(SEED, 0, "score")
        d, k, p = 8, 3, 2.5
        mu = rng.uniform(-k / d, k / d, size=d)
        tr = sparse_tracer(mu, k, p, d)
        pop = SparsePopulation(mu, k, d)
        spec = ProblemSpec(BOX_LP, d=d, p=p, k=k)
        for _ in range(50):
            theta = rng.uniform(-spec.box_radius, spec.box_radius, size=d)
            z = np.asarray(sample_matrix(pop, 1, rng))[0]
            expected = _score_sparse_reference(theta, z, mu, k, p, d)
            assert _score_one(tr, theta, z) == pytest.approx(expected, abs=1e-12)

    def test_clip_bound_never_triggers_for_feasible_theta(self):
        rng = substream(SEED, 1, "score")
        d, k, p = 16, 4, 2.0
        mu = rng.uniform(-k / d, k / d, size=d)
        tr = sparse_tracer(mu, k, p, d)
        pop = SparsePopulation(mu, k, d)
        spec = ProblemSpec(BOX_LP, d=d, p=p, k=k)
        z = sample_matrix(pop, 2000, rng)
        theta = spec.box_radius * np.where(rng.random(d) < 0.5, 1.0, -1.0)
        scores, clipped = score_batch(tr, theta, z)
        assert clipped == 0
        assert np.max(np.abs(scores)) <= 2 * math.sqrt(k)

    def test_clipping_clamps_and_counts(self):
        # theta = (5, 5) is far outside the box: the raw score 10 passes 2 sqrt(k).
        tr = sparse_tracer(np.zeros(2), 2, 2.0, 2)
        z = np.array([[1, 1]], dtype=np.int8)
        scores, clipped = score_batch(tr, np.array([5.0, 5.0]), z)
        assert clipped == 1 and scores[0] == pytest.approx(2 * math.sqrt(2))

    def test_dimension_mismatch_rejected(self):
        tr = sparse_tracer(np.zeros(4), 2, 2.0, 4)
        with pytest.raises(ValueError):
            score_batch(tr, np.zeros(3), np.zeros((1, 4), dtype=np.int8))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="theta: entries must be finite"):
                score_batch(tr, np.array([0.0, bad, 0.0, 0.0]), np.zeros((1, 4), dtype=np.int8))
        # Rows of another d, or of another k (dense, or sparse with one nonzero), as arrays or rows.
        for z in ([[1, -1, 0]], [[1, -1, 1, 1]], [[0, 1, 0, 0]]):
            for rows in (np.array(z), as_rows(np.array(z))):
                with pytest.raises(ValueError, match="exactly 2 nonzeros"):
                    score_batch(tr, np.zeros(4), rows)


class TestScalingScore:
    def test_zero_mean_reduces_to_inner_product(self):
        tr = TracerSpec(ProblemSpec(L1_CAPPED, d=4, s=4), np.zeros(4), 0.5)
        theta = np.array([0.1, 0.2, 0.3, 0.0])
        assert _score_one(tr, theta, [1, -1, 1, 1]) == pytest.approx(2.0 * (0.1 - 0.2 + 0.3))

    def test_scaling_factor_value(self):
        tr = TracerSpec(ProblemSpec(L1_CAPPED, d=1, s=1), np.full(1, 0.25), 0.5)
        # Lambda = (1 - (0.25/0.5)^2) / (1 - 0.25^2) = 0.8
        assert _score_one(tr, np.ones(1), [1]) == pytest.approx(0.8 * 0.75)

    def test_mean_at_gamma_contributes_nothing(self):
        tr = TracerSpec(ProblemSpec(L1_CAPPED, d=2, s=1), np.array([0.5, 0.0]), 0.5)
        assert _score_one(tr, np.array([1.0, 0.0]), [1, 1]) == pytest.approx(0.0)

    def test_singular_mean_rejected(self):
        # Past gamma the scaling matrix turns negative, and at 1 it is singular.
        for mu in (1.0, 0.6):
            with pytest.raises(ValueError, match=r"\|mu_j\| <= 0.5"):
                TracerSpec(ProblemSpec(L1_CAPPED, d=1, s=1), np.array([mu]), 0.5)

    def test_clip_bound_follows_the_cap(self):
        assert TracerSpec(ProblemSpec(L1_CAPPED, d=16, s=4), np.zeros(16), 0.5).clip_bound == 4.0
        assert TracerSpec(ProblemSpec(L1_CAPPED, d=16, s=1), np.zeros(16), 0.5).clip_bound == 2.0


def _score_batch_reference(tr, theta, Z, clip=None):
    """The unblocked formula: one float64 cast of all of Z, then both products."""
    Zf = np.asarray(Z, dtype=np.float64)
    spec = tr.spec
    if tr.kind == "sparse":
        scale = spec.d ** (1.0 / spec.p) / math.sqrt(spec.k)
        raw = scale * (Zf @ theta - (spec.d / spec.k) * (np.abs(Zf) @ (theta * tr.mu)))
    else:
        lam = (1.0 - (tr.mu / tr.gamma) ** 2) / (1.0 - tr.mu**2)
        raw = math.sqrt(spec.s) * ((Zf - tr.mu) @ (theta * lam))
    clip = tr.clip_bound if clip is None else clip
    return np.clip(raw, -clip, clip), int(np.count_nonzero(np.abs(raw) > clip))


class TestBlockedScoreBatch:
    @pytest.mark.parametrize("kind,d,k", [
        ("sparse", 1000, 1000), ("sparse", 4096, 300), ("sparse", BLOCK_ENTRIES + 3, BLOCK_ENTRIES + 3),
        ("scaling_matrix", 1000, 1000), ("scaling_matrix", BLOCK_ENTRIES + 3, BLOCK_ENTRIES + 3),
    ])
    def test_matches_unblocked_formula(self, kind, d, k):
        rng = substream(SEED, d + k, "blocked")
        bound = min(k / d, 0.4)
        mu = rng.uniform(-bound, bound, size=d)
        pop = SparsePopulation(mu, k, d)
        rows = block_rows(d)
        z = sample_matrix(pop, 3 * rows + 2, rng)
        tr = sparse_tracer(mu, k, 2.0, d) if kind == "sparse" \
            else TracerSpec(ProblemSpec(L1_CAPPED, d=d, s=3), mu, 0.5)
        # Scale theta so the clip bound falls halfway between two middle raw scores: about
        # half the rows are clamped, and none sits on the bound where a last bit flips it.
        theta = rng.uniform(-1.0, 1.0, size=d)
        magnitudes = np.sort(np.abs(_score_batch_reference(tr, theta, z, clip=math.inf)[0]))
        middle = magnitudes.size // 2
        theta *= tr.clip_bound / (float(magnitudes[middle - 1] + magnitudes[middle]) / 2)
        scores, clipped = score_batch(tr, theta, z)
        expected, expected_clipped = _score_batch_reference(tr, theta, z)
        np.testing.assert_allclose(scores, expected, rtol=1e-12)
        assert clipped == expected_clipped and clipped > 0

    @pytest.mark.parametrize("bad,dtype", [(np.nan, np.float64), (0.5, np.float64), (7, np.int8),
                                           (0, np.int8), (0, np.float64)])
    def test_dense_rows_must_be_signs(self, bad, dtype):
        # The bad entry sits past the first block; the zero case zeroes a whole row.
        d = 64
        rows = block_rows(d) + 1
        for tr in (sparse_tracer(np.zeros(d), d, 2.0, d),
                   TracerSpec(ProblemSpec(L1_CAPPED, d=d, s=3), np.zeros(d), 0.5)):
            z = np.ones((rows, d), dtype=dtype)
            z[-1, 5] = bad
            if bad == 0:
                z[-1] = 0
            match = "same number of nonzeros" if bad == 0 else r"values in \{-1, 0, \+1\}"
            with pytest.raises(ValueError, match=match):
                score_batch(tr, np.full(d, 1.0 / d), z)

    def test_dense_sampling_and_scoring_memory(self):
        # Scoring peaks below n * d bytes, so it makes no float64 (or int8) copy of the rows;
        # sampling peaks below its packed output plus n * d / 4 bytes, so it never holds an
        # (n, d) int8 or bool matrix.
        n, d = 4000, 4096
        rng = substream(SEED, 62, "memory")
        mu = rng.uniform(-0.5, 0.5, size=d)
        pop, tr = SparsePopulation(mu, d, d), sparse_tracer(mu, d, 2.0, d)
        theta = rng.uniform(-1.0, 1.0, size=d) / d
        tracemalloc.start()
        try:
            z = sample_matrix(pop, n, rng)
            sampled, held = tracemalloc.get_traced_memory()[1], tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            scores, clipped = score_batch(tr, theta, z)
            scored = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert z.shape == (n, d) and scores.shape == (n,) and clipped == 0
        assert sampled < z.bits.nbytes + n * d / 4
        assert scored < n * d


def _float_product_reference(tr, theta, Z):
    """Dense scores of an int8 matrix by the float64 product: each whole-row block cast to
    float64 and multiplied by u of `_dense`."""
    u, centre, c = _dense(tr, theta)
    raw, step = np.empty(Z.shape[0]), block_rows(tr.spec.d)
    for i in range(0, Z.shape[0], step):
        raw[i:i + step] = dense_score(Z[i:i + step].astype(np.float64) @ u, centre, c)
    clip = tr.clip_bound
    return np.clip(raw, -clip, clip), int(np.count_nonzero(np.abs(raw) > clip))


class TestSignRowScores:
    # One column; widths with padding bits; the criterion-5 width; and one past
    # BLOCK_ENTRIES, where a block is one row.  Each takes two blocks and three rows.
    @pytest.mark.parametrize("d", [1, 7, 37, 4096, BLOCK_ENTRIES + 3])
    def test_rows_score_as_the_float64_product_of_their_int8_matrix(self, d):
        rng = substream(SEED, d, "sign-rows")
        mu = rng.uniform(-0.4, 0.4, size=d)
        rows = sample_matrix(SparsePopulation(mu, d, d), 2 * block_rows(d) + 3, rng)
        dense = np.asarray(rows)
        box, l1 = ProblemSpec(BOX_LP, d=d), ProblemSpec(L1_CAPPED, d=d, s=min(3, d))
        cases = [
            # A box vertex, u = +/-1 (popcounts); an interior point and the scaling-matrix
            # u = theta * L (the unpacked float64 product).
            (sparse_tracer(mu, d, 2.0, d), support_argmax(box, rng.standard_normal(d)).theta),
            (sparse_tracer(mu, d, 2.0, d), box.box_radius * rng.uniform(-1.0, 1.0, size=d)),
            (TracerSpec(l1, mu, 0.5), support_argmax(l1, rng.standard_normal(d)).theta),
        ]
        for tr, theta in cases:
            expected, expected_clipped = _float_product_reference(tr, theta, dense)
            for z in (rows, dense):
                scores, clipped = score_batch(tr, theta, z)
                assert np.array_equal(scores, expected) and clipped == expected_clipped


def _one_gather_reference(tr, theta, rows):
    """Sparse scores of rows on a support by one gather of every row at once: theta[support] . signs
    and (theta * mu)[support], each summed along its rows."""
    spec = tr.spec
    signed = theta[rows.support] * rows.signs
    centre = (theta * tr.mu)[rows.support]
    raw = spec.d ** (1.0 / spec.p) / math.sqrt(spec.k) * (
        signed.sum(axis=1) - spec.d / spec.k * centre.sum(axis=1))
    clip = tr.clip_bound
    return np.clip(raw, -clip, clip), int(np.count_nonzero(np.abs(raw) > clip))


class TestSparseRowScores:
    def test_rows_and_their_dense_matrix_score_identically(self):
        # One k < d formula: a dense matrix is read as the same rows.
        for d, k in ((64, 8), (1000, 37), (4096, 3000)):
            rng = substream(SEED, d + k, "one-formula")
            mu = rng.uniform(-k / d, k / d, size=d)
            tr = sparse_tracer(mu, k, 2.0, d)
            rows = sample_matrix(SparsePopulation(mu, k, d), 50, rng)
            theta = rng.uniform(-1.0, 1.0, size=d) / math.sqrt(d)
            scores, clipped = score_batch(tr, theta, rows)
            dense_scores, dense_clipped = score_batch(tr, theta, np.asarray(rows))
            assert np.array_equal(scores, dense_scores) and clipped == dense_clipped

    def test_sampling_and_scoring_memory_stays_below_a_tenth_of_dense(self):
        # 200 rows at d = 2^18, k = 64: a dense int8 matrix of them alone takes n * d bytes.
        n, d, k = 200, 2**18, 64
        rng = substream(SEED, 61, "memory")
        mu = rng.uniform(-k / d, k / d, size=d)
        pop, tr = SparsePopulation(mu, k, d), sparse_tracer(mu, k, 2.0, d)
        theta = np.where(rng.random(d) < 0.5, 1.0, -1.0) / math.sqrt(d)
        tracemalloc.start()
        try:
            scores, clipped = score_batch(tr, theta, sample_matrix(pop, n, rng))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (n,) and clipped == 0
        assert peak < n * d / 10

    # k = 64 of d = 8192, the audit_sparse shape; and k = 30 of d = 37, past d/2, where
    # each row's support is the complement of its drawn columns.
    @pytest.mark.parametrize("d,k", [(8192, 64), (37, 30)])
    def test_blocked_gathers_score_as_one_gather(self, d, k):
        step = block_rows(8 * k)
        rng = substream(SEED, d + k, "sparse-rows")
        mu = rng.uniform(-k / d, k / d, size=d)
        pop, tr = SparsePopulation(mu, k, d), sparse_tracer(mu, k, 2.0, d)
        for n in sorted({0, 1, step - 1, step, step + 1, 2200}):
            rows = sample_matrix(pop, n, rng)
            # Two theta on one row set, as a sweep's arms score their shared null sample:
            # the first clamps most rows, the second few.
            for theta in (rng.uniform(-1.0, 1.0, size=d), rng.uniform(-1.0, 1.0, size=d) / k):
                scores, clipped = score_batch(tr, theta, rows)
                expected, expected_clipped = _one_gather_reference(tr, theta, rows)
                assert np.array_equal(scores, expected) and clipped == expected_clipped, (d, k, n)

    def test_scoring_holds_no_gather_of_every_row(self):
        # One float64 gather of all n rows takes 8 n k bytes, and the two of them twice that.
        n, d, k = 8000, 8192, 64
        rng = substream(SEED, 63, "memory")
        mu = rng.uniform(-k / d, k / d, size=d)
        rows, tr = sample_matrix(SparsePopulation(mu, k, d), n, rng), sparse_tracer(mu, k, 2.0, d)
        theta = rng.uniform(-1.0, 1.0, size=d) / k
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            scores, _ = score_batch(tr, theta, rows)
            scored = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert scores.shape == (n,) and scored < 2 * n * k


class TestCalibrateThreshold:
    @pytest.mark.parametrize("scores,masses,match", [
        (np.full(100, np.nan), None, "null_scores"),
        (np.append(np.arange(99.0), np.nan), None, "null_scores"),
        ([0.0, 1.0], [np.nan, 1.0], "masses"),
        ([0.0, 1.0], [1.5, -0.5], "masses"),
        ([0.0, 1.0], [0.0, 0.0], "masses"),
        ([0.0, 1.0], [0.5, 0.25, 0.25], "masses"),
        ([[1.0, 2.0], [3.0, 4.0]], None, "null_scores"),
        ([1.0, 2.0], [1e308, 1e308], "masses"),  # each finite, their sum not
    ])
    def test_malformed_law_rejected(self, scores, masses, match):
        policy = null_quantile(0.05)
        with pytest.raises(ValueError, match=match):
            calibrate_threshold(policy, scores, masses)
        with pytest.raises(ValueError, match=match):
            tie_weight(policy, scores, 1.0, masses)

    @pytest.mark.parametrize("lam", [0.5, np.nan])
    def test_tie_weight_needs_lam_on_the_law(self, lam):
        # Half the mass lies above 0.5 and none at it: q would be 0/0.
        with pytest.raises(ValueError, match="lam"):
            tie_weight(null_quantile(0.5), [0.0, 1.0], lam)

    @pytest.mark.parametrize("xi", [1e-17, 1e-300])
    def test_xi_below_the_rounding_of_the_mass_sum(self, xi):
        # Ten masses of 0.1 sum to 1 but accumulate from the bottom to 1 - 1.1e-16, and the top
        # atom has no mass: lambda is the last atom with mass, whose tie weight flags mass xi.
        scores, masses = np.arange(11.0), np.append(np.full(10, 0.1), 0.0)
        assert masses.sum() - np.cumsum(masses)[-1] > xi
        lam = calibrate_threshold(null_quantile(xi), scores, masses)
        assert lam == 9.0 and tie_weight(null_quantile(xi), scores, lam, masses) == pytest.approx(xi / 0.1)

    def test_xi_times_the_total_below_the_float_range(self):
        # xi * total rounds to 0: lambda is the top atom with mass, and q = 0 flags nothing.
        policy, scores, masses = null_quantile(1e-300), [0.0, 1.0, 2.0], [1e-30, 1e-30, 0.0]
        lam = calibrate_threshold(policy, scores, masses)
        assert (lam, tie_weight(policy, scores, lam, masses)) == (1.0, 0.0)

    @pytest.mark.parametrize("argv", [
        ["trace", "--d", "8", "--xi", "1e-300", "--beta", "1", "--n", "16", "--trials", "20"],
        # A law whose masses summed from the bottom left about 3e-17 above one trial's lambda.
        *(["dp-audit", "--seed", "3053320037", "--d", "56", "--p", "1", "--learner", "gaussian_dp",
           "--epsilon", "10", "--delta", "5.27e-123", "--xi", xi, "--beta", "0.01", "--alpha-target", "1",
           "--n", "16", "--M", "47", "--trials", "4"] for xi in ("1e-17", "1e-30", "1e-200")),
    ])
    def test_exact_path_soundness_at_a_tiny_xi(self, argv, tmp_path):
        # Each exact null law's flagged mass, read off its upper tail, is at most xi up to rounding.
        out, xi = tmp_path / "t.csv", float(argv[argv.index("--xi") + 1])
        assert main(argv + ["--threads", "1", "--out", str(out)]) == EXIT_OK
        header, *rows = [line.split(",") for line in out.read_text().splitlines()[1:] if not line.startswith("#")]
        soundness = [float(row[header.index("soundness")]) for row in rows]
        assert len(rows) == int(argv[-1]) and max(soundness) <= xi * (1.0 + 1e-12)

    @given(st.lists(st.tuples(st.floats(-5.0, 5.0, allow_nan=False),
                              st.just(0.0) | st.floats(1e-300, 1.0)), min_size=1, max_size=60),
           st.floats(1e-30, 0.999))
    def test_a_real_valued_law_flags_at_most_xi(self, atoms, xi):
        # Zero masses anywhere, the top atom's included, and masses over 300 decades.
        scores, masses = (np.array(column) for column in zip(*atoms))
        assume(xi * masses.sum() > 1e-290)  # below, subnormal rounding alone passes the slack
        policy, law = null_quantile(xi), _NullLaw(scores, masses)
        lam = calibrate_threshold(policy, law)
        q = tie_weight(policy, law, lam)
        above, at, total = _split(law, lam)
        assert at > 0 and 0.0 <= q <= 1.0 and above + q * at <= xi * total * (1.0 + 1e-12)

    def test_half_trace_value(self):
        assert calibrate_threshold(half_trace_value(1.6), []) == pytest.approx(0.8)
        with pytest.raises(ValueError, match="exactly one of xi and t_hat"):
            ThresholdPolicy(xi=0.05, t_hat=1.6)

    def test_small_order_statistic_example(self):
        lam = calibrate_threshold(null_quantile(0.5), [1.0, 2.0, 3.0, 4.0])
        assert lam == pytest.approx(3.0)

    def test_normal_quantile(self):
        rng = substream(SEED, 2, "thresh")
        lam = calibrate_threshold(null_quantile(0.05), rng.standard_normal(10**4))
        assert abs(lam - 1.645) < 0.05

    def test_insufficient_null_sample_rejected(self):
        with pytest.raises(ValueError):
            calibrate_threshold(null_quantile(0.05), np.zeros(10))

    def test_calibration_tail_mass_at_most_xi(self):
        rng = substream(SEED, 3, "thresh")
        for xi in (0.01, 0.05, 0.3):
            scores = rng.standard_normal(5000)
            lam = calibrate_threshold(null_quantile(xi), scores)
            assert np.mean(scores >= lam) <= xi + 1e-12

    def test_ninety_zeros_and_ten_ones(self):
        scores = np.array([0.0] * 90 + [1.0] * 10)
        policy = null_quantile(0.05)
        lam = calibrate_threshold(policy, scores)
        q = tie_weight(policy, scores, lam)
        assert (lam, q) == (1.0, 0.5)
        assert (np.count_nonzero(scores > lam) + q * np.count_nonzero(scores == lam)) / 100 == 0.05

    def test_given_masses_are_the_law(self):
        # The same law as the 100-point sample, given as two atoms with their masses.
        policy = null_quantile(0.05)
        lam = calibrate_threshold(policy, [1.0, 0.0], [0.1, 0.9])
        assert (lam, tie_weight(policy, [1.0, 0.0], lam, [0.1, 0.9])) == (1.0, 0.5)

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=300),
           st.floats(1e-3, 0.999, allow_nan=False))
    def test_tie_weight_flags_exactly_xi_of_a_tied_sample(self, values, xi):
        scores = np.array(values, dtype=float)
        m = scores.size
        assume(m * xi >= 1)
        policy = null_quantile(xi)
        lam = calibrate_threshold(policy, scores)
        q = tie_weight(policy, scores, lam)
        assert 0.0 <= q <= 1.0
        flagged = np.count_nonzero(scores > lam) + q * np.count_nonzero(scores == lam)
        assert flagged == pytest.approx(xi * m, rel=1e-9)


# The threshold rule as it stood before the null law was sorted once per arm, with the mass
# above each atom read off total - cumsum from the bottom: the reference that `_NullLaw` and
# `_split` must match bit for bit on dyadic and unit-mass laws, whose sums are exact in any order.
def _law_reference(null_scores, masses=None):
    scores = np.asarray(null_scores, dtype=float)
    weights = np.ones_like(scores) if masses is None else np.asarray(masses, dtype=float)
    if np.isnan(scores).any():
        raise ValueError("null_scores: entries must not be NaN")
    if masses is not None and not (weights.shape == scores.shape and np.isfinite(weights).all()
                                   and np.all(weights >= 0) and weights.sum() > 0):
        raise ValueError("masses: need one finite, nonnegative mass per score, with a positive sum")
    return scores, weights


def _calibrate_reference(policy, null_scores, masses=None):
    scores, weights = _law_reference(null_scores, masses)
    if masses is None and scores.size * policy.xi < 1.0:
        raise ValueError(f"null sample of size {scores.size} is insufficient; need >= {math.ceil(1.0 / policy.xi)}")
    order = np.argsort(scores, kind="stable")
    above = weights.sum() - np.cumsum(weights[order])
    return float(scores[order][np.argmax(above < policy.xi * weights.sum() * (1.0 - 1e-12))])


def _split_mass_reference(scores, lam, masses=None):
    scores, weights = _law_reference(scores, masses)
    return weights[scores > lam].sum(), weights[scores == lam].sum(), weights.sum()


def _tie_weight_reference(policy, null_scores, lam, masses=None):
    above, at, total = _split_mass_reference(null_scores, lam, masses)
    if not at > 0:
        raise ValueError(f"lam: {lam} carries none of the law's mass")
    return float(np.clip((policy.xi * total - above) / at, 0.0, 1.0))


def _flagged_reference(scores, lam, q, masses=None):
    above, at, total = _split_mass_reference(scores, lam, masses)
    return above + q * at, total


def _assert_matches_reference(xi, scores, masses=None):
    """lambda, q, the law's flagged mass and its total, bit for bit, from one sorted law;
    and the flagged count of the unsorted scores read as a sample."""
    policy, law = null_quantile(xi), _NullLaw(scores, masses)
    lam = calibrate_threshold(policy, law)
    q = tie_weight(policy, law, lam)
    assert lam == _calibrate_reference(policy, scores, masses)
    assert q == _tie_weight_reference(policy, scores, lam, masses)
    above, at, total = _split(law, lam)
    assert (above + q * at, total) == _flagged_reference(scores, lam, q, masses)
    above, at, total = _split(np.asarray(scores, dtype=float), lam)
    assert (above + q * at, total) == _flagged_reference(scores, lam, q)


def _top_down_reference(xi, null_scores, masses):
    """(lambda, q, flagged mass, total) of the tail rule, the mass above each atom summed one
    atom at a time from the top in sorted order: the bit-for-bit reference of real masses."""
    scores, weights = _law_reference(null_scores, masses)
    order = np.argsort(scores, kind="stable")
    scores, weights, tail = scores[order], weights[order], [0.0]
    for w in weights[::-1]:
        tail.append(tail[-1] + w)
    tail = tail[::-1]  # tail[i]: the mass of atoms i and up
    lam = float(scores[np.argmax(np.array(tail[1:]) <= xi * tail[0] * (1.0 - 1e-12))])
    above, at = tail[np.searchsorted(scores, lam, "right")], weights[scores == lam].sum()
    q = float(np.clip((xi * tail[0] - above) / at, 0.0, 1.0))
    return lam, q, above + q * at, tail[0]


class TestOneSortedLaw:
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 8)), min_size=1, max_size=60),
           st.integers(0, 6), st.floats(1e-3, 0.999, allow_nan=False))
    def test_a_dyadic_law_in_any_order_matches_the_reference(self, atoms, shift, xi):
        # Dyadic masses (with ties and zero masses) sum exactly in any order, so sorting moves no bit.
        scores, masses = (np.array(column, dtype=float) for column in zip(*atoms))
        assume(masses.sum() > 0)
        _assert_matches_reference(xi, scores / 3.0, masses / 2.0**shift)

    @given(st.lists(st.integers(-3, 3) | st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=300),
           st.floats(1e-3, 0.999, allow_nan=False))
    def test_a_unit_mass_sample_matches_the_reference(self, values, xi):
        assume(len(values) * xi >= 1)
        _assert_matches_reference(xi, values)

    @pytest.mark.parametrize("d", [1, 5, 64, 2048])
    @given(seed=st.integers(0, 2**32 - 1), xi=st.floats(1e-6, 0.999, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_a_vertex_law_matches_the_reference(self, d, seed, xi):
        # The atoms ascend and are distinct, so the stable sort keeps their order and the mass at
        # lambda is one atom's.  Its real masses sum from the top to other last bits than from the
        # bottom: the old rule still reads the same lambda, and the flagged masses differ by no more
        # than two sums of d + 1 terms can round.  q itself, a difference of near-equal masses over
        # one atom's mass, may move far more in relative terms (6e-10 at a small q).
        rng = np.random.default_rng(seed)
        spec = ProblemSpec(BOX_LP, d=d)
        mu = sample_prior(default_prior(spec, alpha_target=0.1), rng).values
        theta = spec.box_radius * np.where(rng.random(d) < 0.5, 1.0, -1.0)
        atoms, masses = _vertex_null_law(TracerSpec(spec, mu), theta)
        policy, law = null_quantile(xi), _NullLaw(atoms, masses)
        lam = calibrate_threshold(policy, law)
        q = tie_weight(policy, law, lam)
        above, at, total = _split(law, lam)
        assert (lam, q, above + q * at, total) == _top_down_reference(xi, atoms, masses)
        old_q = _tie_weight_reference(policy, atoms, lam, masses)
        assert lam == _calibrate_reference(policy, atoms, masses)
        assert abs(q - old_q) * at <= 2 * (d + 1) * np.finfo(float).eps * total

    @pytest.mark.parametrize("k", [64, 8])  # the exact path, and the sampled one
    def test_each_arm_builds_and_sorts_one_law(self, k, monkeypatch):
        spec = ProblemSpec(BOX_LP, d=64, k=k)
        learners = (ERM, LearnerConfig("gaussian_dp", epsilon=0.5, delta=1e-5))
        built, sorted_sizes, argsort = [], [], np.argsort

        class CountedLaw(_NullLaw):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        def counted_argsort(a, *args, **kwargs):
            sorted_sizes.append(np.size(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(tracers, "_NullLaw", CountedLaw)
        monkeypatch.setattr(np, "argsort", counted_argsort)
        run_trace_arms(learners, spec, "sparse", default_prior(spec, alpha_target=0.1), 16, 50,
                       null_quantile(0.05), substream(SEED, 90))
        null_size = 65 if k == 64 else 1000
        assert len(built) == 2 and [b.size for b in built] == [null_size] * 2
        assert sorted_sizes.count(null_size) == 2

    def test_null_sample_size(self):
        dense, sparse = ProblemSpec(BOX_LP, d=64), ProblemSpec(BOX_LP, d=64, k=8)
        dp = LearnerConfig("gaussian_dp", epsilon=0.5, delta=1e-5)
        assert null_sample_size((ERM, dp), dense, null_quantile(1e-300)) is None
        assert null_sample_size((ERM, lambda z: np.zeros(64)), dense, null_quantile(0.05)) == 1000
        assert null_sample_size((ERM, dp), dense, half_trace_value(1.0)) is None
        assert null_sample_size((ERM,), sparse, half_trace_value(1.0)) == 0
        assert null_sample_size((ERM,), sparse, null_quantile(0.05)) == 1000
        assert null_sample_size((ERM,), sparse, null_quantile(10.0 / ROW_LIMIT)) == ROW_LIMIT
        with pytest.raises(ValueError, match=f"^xi: .*limit of {ROW_LIMIT} rows.*exact path"):
            null_sample_size((ERM,), sparse, null_quantile(9.0 / ROW_LIMIT))


def _pmf_recurrence(p, dtype=np.float64):
    """The O(d^2) reference: add one Bernoulli at a time, in `dtype`."""
    pmf = np.zeros(p.size + 1, dtype=dtype)
    pmf[0] = 1.0
    for pj in p.astype(dtype):
        pmf[1:] = pmf[1:] * (1.0 - pj) + pmf[:-1] * pj
        pmf[0] *= 1.0 - pj
    return pmf


class TestExactNullLaw:
    @pytest.mark.parametrize("d", [1, 5, 12])
    def test_law_matches_enumeration_of_every_sign_vector(self, d):
        rng = substream(SEED, d, "enumerate")
        spec = ProblemSpec(BOX_LP, d=d, p=3.0)
        mu = rng.uniform(-1.0, 1.0, size=d)
        t = np.where(rng.random(d) < 0.5, 1.0, -1.0)
        tr = TracerSpec(spec, mu)
        atoms, masses = _vertex_null_law(tr, spec.box_radius * t)
        Z = np.array(list(itertools.product((-1, 1), repeat=d)), dtype=np.int8)
        probs = np.prod((1.0 + Z * mu) / 2.0, axis=1)
        B = np.count_nonzero(Z == t, axis=1)
        np.testing.assert_allclose(masses, np.bincount(B, weights=probs, minlength=d + 1),
                                   rtol=0, atol=1e-12)
        # A row with B = b scores bit for bit as atom b.
        scores, clipped = score_batch(tr, spec.box_radius * t, Z)
        assert clipped == 0 and np.array_equal(scores, atoms[B])

    @pytest.mark.parametrize("d", [33, 1000, 4096])
    def test_pmf_matches_the_recurrence(self, d):
        p = substream(SEED, d, "pmf").random(d)
        np.testing.assert_allclose(poisson_binomial_pmf(p), _pmf_recurrence(p), rtol=0, atol=1e-12)

    def test_pmf_is_exactly_zero_on_impossible_counts(self):
        d = 24
        rng = substream(SEED, d, "pmf-ends")
        p = (rng.random(d) < 0.6).astype(float)
        masses = poisson_binomial_pmf(p)
        assert np.array_equal(masses, np.eye(1, d + 1, int(p.sum()))[0])
        p[rng.permutation(d)[:7]] = rng.random(7)
        ones, masses = int(np.count_nonzero(p == 1.0)), poisson_binomial_pmf(p)
        assert np.all(masses[:ones] == 0.0) and np.all(masses[ones + 8:] == 0.0)
        assert np.all(masses[ones:ones + 8] > 0.0) and abs(masses.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(masses, _pmf_recurrence(p), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("beta", [1.0, 19.75])
    def test_pmf_matches_a_long_double_recurrence_at_d_4096(self, beta):
        d = 4096
        rng = substream(SEED, d, f"pmf-longdouble-{beta}")
        mu = sample_prior(BetaPrior(beta, 1.0, d), rng).values
        p = (1.0 + np.where(rng.random(d) < 0.5, 1.0, -1.0) * mu) / 2.0
        exact = _pmf_recurrence(p, np.longdouble)
        assert np.max(np.abs(poisson_binomial_pmf(p) - exact)) <= 1e-15

    @pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 64, 65, 520, 4097])
    def test_pmf_on_partial_leaves_and_short_groups(self, m):
        # m interior p_j: a partial last leaf of 8, and group counts that are no power of 8.
        rng = substream(SEED, m, "pmf-leaves")
        ones, zeros = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        p = rng.permutation(np.concatenate([rng.uniform(0.01, 0.99, m), np.ones(ones), np.zeros(zeros)]))
        masses = poisson_binomial_pmf(p)
        assert masses.shape == (p.size + 1,)
        assert np.all(masses[:ones] == 0.0) and np.all(masses[ones + m + 1:] == 0.0)
        assert abs(masses.sum() - 1.0) < 1e-12
        assert np.max(np.abs(masses - _pmf_recurrence(p, np.longdouble))) <= 1e-15

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.2, np.inf])
    def test_pmf_rejects_probabilities_outside_the_unit_interval(self, bad):
        with pytest.raises(ValueError, match="^p: "):
            poisson_binomial_pmf(np.array([bad, 0.5]))

    def test_a_recurrence_law_moves_only_the_last_bits_of_recall(self, tmp_path, monkeypatch):
        # The law's computation may move recall by rounding, through the tie weight, but
        # never lambda or the soundness read from the law.  One worker process keeps every
        # trial in this process, where the monkeypatch holds.
        argv = ["trace", "--d", "256", "--n", "64", "--trials", "40", "--alpha-target", "0.05",
                "--seed", "17", "--threads", "1", "--out"]

        def columns(path):
            rows = [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]
            return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}

        assert main(argv + [str(tmp_path / "fft.csv")]) == EXIT_OK
        monkeypatch.setattr("sparsetrace.tracers.poisson_binomial_pmf", _pmf_recurrence)
        assert main(argv + [str(tmp_path / "recurrence.csv")]) == EXIT_OK
        fft, recurrence = columns(tmp_path / "fft.csv"), columns(tmp_path / "recurrence.csv")
        assert fft["lambda"] == recurrence["lambda"] and fft["soundness"] == recurrence["soundness"]
        assert all(abs(float(s) - 0.05) < 1e-12 for s in fft["soundness"])  # the exact path
        np.testing.assert_allclose(np.array(fft["recall"], dtype=float),
                                   np.array(recurrence["recall"], dtype=float), rtol=1e-12, atol=0)

    def test_exact_threshold_matches_a_monte_carlo_null(self):
        d, m, xi = 16, 10**5, 0.05
        spec = ProblemSpec(BOX_LP, d=d)
        policy = null_quantile(xi)
        # The comparison needs an instance whose lam lies well inside its atom, so
        # that the sampled tail masses cannot move it: take the first trial index
        # from 16 whose instance (mu and theta from 8 rows) meets that: 17.
        for trial in range(16, 36):
            rng = substream(SEED, trial, "exact-vs-mc")
            mu = sample_prior(BetaPrior(1.0, 1.0, d), rng).values
            pop = SparsePopulation(mu, d, d)
            theta = support_argmax(spec, np.asarray(sample_matrix(pop, 8, rng)).mean(axis=0)).theta
            tr = TracerSpec(spec, mu)
            atoms, masses = _vertex_null_law(tr, theta)
            lam = calibrate_threshold(policy, atoms, masses)
            above, at = masses[atoms > lam].sum(), masses[atoms == lam].sum()
            if above < xi - 5 * math.sqrt(above / m) and above + at > xi + 5 * math.sqrt(xi / m):
                break
        else:
            pytest.fail("no instance from trial 16 to 35 has lam well inside its atom")
        q = tie_weight(policy, atoms, lam, masses)
        # The flagged indicator (1 above lam, q at it) has variance above + q^2 at - xi^2,
        # so q's Monte Carlo error is about its standard error over m rows, divided by at.
        se = math.sqrt((above + q * q * at - xi * xi) / m) / at
        scores, _ = score_batch(tr, theta, sample_matrix(pop, m, rng))
        lam_mc = calibrate_threshold(policy, scores)
        assert lam_mc == lam
        assert abs(tie_weight(policy, scores, lam_mc) - q) <= 5 * se

    def test_sampled_agreement_counts_match_the_pmf_chisquare(self):
        # Exact-path soundness is read from poisson_binomial_pmf, not from rows
        # sampled by sample_matrix, so this checks the sampler against the pmf end to end.
        d, rows, block, cut = 2048, 10**5, 2500, 1e-4
        spec = ProblemSpec(BOX_LP, d=d)
        rng = substream(SEED, d, "agreement-chisquare")
        mu = sample_prior(default_prior(spec, alpha_target=0.1), rng).values
        pop = SparsePopulation(mu, d, d)
        u = np.sign(support_argmax(spec, np.asarray(sample_matrix(pop, 8, rng)).mean(axis=0)).theta).astype(np.int8)
        observed = np.zeros(d + 1)
        for _ in range(rows // block):  # about 5 MB of rows and 5 MB of agreements at a time
            observed += np.bincount(np.count_nonzero(np.asarray(sample_matrix(pop, block, rng)) == u, axis=1),
                                    minlength=d + 1)

        def pvalue(p_agree):
            expected = rows * poisson_binomial_pmf(p_agree)
            expected *= rows / expected.sum()
            # The bins expected to hold >= 5 rows are one run (the pmf is log-concave);
            # each tail pools into the run's end bin.
            keep = np.flatnonzero(expected >= 5.0)
            lo, hi = keep[0], keep[-1]
            assert keep.size == hi - lo + 1
            pool = lambda x: np.concatenate([[x[:lo + 1].sum()], x[lo + 1:hi], [x[hi:].sum()]])
            return chisquare(pool(observed), pool(expected)).pvalue

        p_agree = (1.0 + u * mu) / 2.0
        assert pvalue(p_agree) > cut
        # Power: the law of mu moved by 1e-3 towards u (a shift of B's mean by about
        # one, a twentieth of its standard deviation) is rejected.
        assert pvalue(np.minimum(p_agree + 0.5e-3, 1.0)) < cut

    def test_a_box_corner_law_is_one_atom_flagged_at_xi(self):
        # A tiny beta puts every mu_j at +/-1, so every row is sign(mu) and each arm's
        # law of B is a point mass at the training rows' one score: lambda is that atom,
        # and the tie weight flags exactly xi of its mass.
        d, xi = 64, 0.1
        spec = ProblemSpec(BOX_LP, d=d)
        prior = BetaPrior(1e-4, 1.0, d)
        assert np.all(np.abs(sample_prior(prior, substream(SEED, 70)).values) == 1.0)
        learners = (ERM, LearnerConfig("gaussian_dp", epsilon=0.1, delta=1e-5))
        _, tracer, thetas, _, _ = _draw_trial(learners, spec, "sparse", prior, 8, substream(SEED, 70))
        reports = run_trace_arms(learners, spec, "sparse", prior, 8, 500, null_quantile(xi),
                                 substream(SEED, 70))
        for theta, report in zip(thetas, reports):
            atoms, masses = _vertex_null_law(tracer, theta.theta)
            (atom,) = atoms[masses > 0.0]
            assert np.all(report.scores_train == atom) and report.threshold == atom
            assert report.soundness_estimate == xi
            assert report.recall_estimate == pytest.approx(8 * xi, rel=1e-12)
            assert report.clip_events == 0

    @pytest.mark.parametrize("d", [8, 64, 2048])
    @pytest.mark.parametrize("prior_kind", ["default", "box-corner"])
    def test_exact_soundness_is_xi_and_draws_no_fresh_rows(self, d, prior_kind, monkeypatch):
        spec = ProblemSpec(BOX_LP, d=d)
        # The box-corner prior puts every mu_j at +/-1, so each arm's law is one atom.
        prior = default_prior(spec, alpha_target=0.1) if prior_kind == "default" else BetaPrior(1e-4, 1.0, d)
        learners = (ERM, LearnerConfig("gaussian_dp", epsilon=0.5, delta=1e-5),
                    LearnerConfig("subsample", subsample_m=4))
        drawn = []
        monkeypatch.setattr("sparsetrace.tracers.sample_matrix",
                            lambda pop, m, rng: drawn.append(m) or sample_matrix(pop, m, rng))
        for trial in range(4):
            for xi in (0.01, 0.05, 0.3):
                drawn.clear()
                arms = run_trace_arms(learners, spec, "sparse", prior, 8, 50, null_quantile(xi),
                                      substream(SEED, 80 + trial))
                assert drawn == [8]  # the training rows alone
                for arm in arms:
                    assert arm.scores_fresh.size == 0
                    assert arm.soundness_estimate == pytest.approx(xi, rel=1e-12, abs=0.0)

    def test_law_requires_a_vertex_at_k_equal_d(self):
        spec = ProblemSpec(BOX_LP, d=8)
        theta = np.full(8, spec.box_radius)
        theta[0] = 0.0
        with pytest.raises(ValueError, match="box vertex"):
            _vertex_null_law(TracerSpec(spec, np.zeros(8)), theta)
        sparse = ProblemSpec(BOX_LP, d=8, k=4)
        with pytest.raises(ValueError, match="box vertex"):
            _vertex_null_law(TracerSpec(sparse, np.zeros(8)), np.full(8, sparse.box_radius))


class TestRunTraceTrial:
    def test_a_criterion_5_trial_holds_one_training_matrix(self):
        # The n * d int8 training rows are held once (no copy into the Dataset), and
        # the exact null law draws no fresh rows.
        n, d = 400, 4096
        spec = ProblemSpec(BOX_LP, d=d, p=2.0, k=d)
        prior = default_prior(spec, beta=19.75)
        tracemalloc.start()
        try:
            report = run_trace_trial(ERM, spec, "sparse", prior, n=n, M=200,
                                     policy=null_quantile(0.01), rng=substream(SEED, 63))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.scores_train.shape == (n,)
        assert peak < 1.75 * n * d

    def test_constant_learner_has_zero_recall_at_positive_threshold(self):
        spec = ProblemSpec(BOX_LP, d=8, p=2.0, k=8)
        prior = BetaPrior(1.0, 1.0, 8)
        report = run_trace_trial(lambda z: np.zeros(8), spec, "sparse", prior, n=16, M=32,
                                 policy=half_trace_value(1.0), rng=substream(SEED, 4))
        assert np.all(report.scores_train == 0.0)
        assert report.recall_estimate == 0.0

    def test_a_t_hat_vertex_trial_reads_the_exact_law(self):
        # At k = d a t_hat trial draws no fresh rows: its soundness is the law's mass at or above t_hat / 2.
        spec = ProblemSpec(BOX_LP, d=64)
        prior = default_prior(spec, alpha_target=0.1)
        report = run_trace_trial(ERM, spec, "sparse", prior, n=16, M=50, policy=half_trace_value(1.0),
                                 rng=substream(SEED, 6))
        _, tracer, (theta,), _, _ = _draw_trial((ERM,), spec, "sparse", prior, 16, substream(SEED, 6))
        atoms, masses = _vertex_null_law(tracer, theta.theta)
        assert report.scores_fresh.size == 0 and report.threshold == 0.5
        assert report.soundness_estimate == pytest.approx(masses[atoms >= 0.5].sum(), rel=1e-12)
        assert 0.0 < report.soundness_estimate < 1.0

    def test_erm_flags_training_points_and_is_sound(self):
        spec = ProblemSpec(BOX_LP, d=1024, p=2.0, k=1024)
        prior = default_prior(spec, alpha_target=0.1)
        M = 500
        report = run_trace_trial(ERM, spec, "sparse", prior, n=64, M=M,
                                 policy=null_quantile(0.05), rng=substream(SEED, 5))
        assert report.recall_estimate > 0
        assert report.soundness_estimate <= 0.05 + 3 * math.sqrt(0.05 / M)
        # Scores above the threshold count whole and those at it by the tie weight.
        lam = report.threshold
        assert (np.count_nonzero(report.scores_train > lam) <= report.recall_estimate
                <= np.count_nonzero(report.scores_train >= lam))

    def test_dp_recall_respects_privacy_ceiling(self):
        spec = ProblemSpec(BOX_LP, d=1024, p=2.0, k=1024)
        prior = default_prior(spec, alpha_target=0.1)
        cfg = LearnerConfig("gaussian_dp", epsilon=0.1, delta=1e-6)
        n, xi, trials = 100, 0.05, 50
        recalls = []
        for t in range(trials):
            report = run_trace_trial(cfg, spec, "sparse", prior, n=n, M=50,
                                     policy=null_quantile(xi), rng=substream(SEED, 100 + t))
            recalls.append(report.recall_estimate)
        mean = float(np.mean(recalls))
        ci = 1.96 * float(np.std(recalls, ddof=1)) / math.sqrt(trials)
        ceiling = n * math.exp(0.1) * xi + n * 1e-6
        assert mean <= ceiling + 4 * ci

    def test_scaling_tracer_on_capped_problem_runs(self):
        spec = ProblemSpec(L1_CAPPED, d=64, s=8)
        prior = default_prior(spec, alpha_target=0.05)
        report = run_trace_trial(ERM, spec, "scaling_matrix", prior, n=32, M=64,
                                 policy=null_quantile(0.1), rng=substream(SEED, 6))
        assert 0.0 <= report.soundness_estimate <= 1.0
        assert 0.0 <= report.recall_estimate <= 32

    def test_scaling_trial_mean_stays_within_gamma(self):
        # Past gamma the scaling matrix turns negative.  Small beta puts most
        # draws at the ends of [-gamma, gamma], where rounding must not carry
        # one past gamma.
        d = 4096
        spec = ProblemSpec(L1_CAPPED, d=d, s=4)
        prior = BetaPrior(beta=0.05, gamma=0.8, d=d)
        for trial in range(5):
            assert np.abs(sample_prior(prior, substream(SEED, trial)).values).max() <= 0.8
        mu, *_ = _draw_trial((ERM,), spec, SCALING_MATRIX_SCORE, prior, 4, substream(SEED, 50))
        assert np.abs(mu).max() <= 0.8

    @pytest.mark.parametrize("variant", ["dense", "sparse", "l1"])
    def test_each_arm_is_its_learners_single_trial(self, variant):
        # The arms share the draw, and each consumes it as a lone learner does.
        spec = {"dense": ProblemSpec(BOX_LP, d=64), "sparse": ProblemSpec(BOX_LP, d=128, k=8),
                "l1": ProblemSpec(L1_CAPPED, d=64, s=2)}[variant]
        prior = default_prior(spec, alpha_target=0.1)
        dp = LearnerConfig("gaussian_dp", epsilon=0.5, delta=1e-5)
        learners = (dp, replace(dp, epsilon=5.0))
        args = (spec, score_kind(spec), prior, 16, 50, null_quantile(0.1))
        arms = run_trace_arms(learners, *args, substream(SEED, 60))
        for learner, arm in zip(learners, arms):
            single = run_trace_trial(learner, *args, substream(SEED, 60))
            for f in fields(TraceReport):
                np.testing.assert_array_equal(getattr(arm, f.name), getattr(single, f.name))

    def test_equal_learners_give_identical_reports(self):
        # Every arm restarts from the generator state after the data draws, so the
        # gaussian_dp noise vector is the same in each.
        spec = ProblemSpec(BOX_LP, d=128, k=16)
        prior = default_prior(spec, alpha_target=0.1)
        dp = LearnerConfig("gaussian_dp", epsilon=0.5, delta=1e-5)
        a, b = run_trace_arms((dp, dp), spec, "sparse", prior, 16, 50, null_quantile(0.1), substream(SEED, 61))
        for f in fields(TraceReport):
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))

    def test_trial_rejects_a_non_finite_parameter(self):
        # A NaN theta must not score as an untraceable learner (recall 0, lambda NaN).
        spec = ProblemSpec(BOX_LP, d=16)
        with pytest.raises(ValueError, match="theta: entries must be finite"):
            run_trace_trial(lambda z: np.full(16, np.nan), spec, "sparse", BetaPrior(2.0, 1.0, 16),
                            n=8, M=50, policy=null_quantile(0.05), rng=substream(SEED, 1))

    def test_trial_rejects_a_score_the_variant_does_not_take(self):
        spec = ProblemSpec(BOX_LP, d=8, p=2.0, k=8)
        with pytest.raises(ValueError, match="takes the 'sparse' score"):
            run_trace_trial(ERM, spec, SCALING_MATRIX_SCORE, BetaPrior(1.0, 1.0, 8), n=4, M=4,
                            policy=null_quantile(0.5), rng=substream(SEED, 15))

    def test_report_invariants_hold(self):
        for k in (32, 128):  # k = d = 128 is the exact path
            spec = ProblemSpec(BOX_LP, d=128, p=2.0, k=k)
            prior = default_prior(spec, alpha_target=0.1)
            report = run_trace_trial(ERM, spec, "sparse", prior, n=40, M=80,
                                     policy=null_quantile(0.1), rng=substream(SEED, 14))
            lam, fresh = report.threshold, report.scores_fresh
            if k < spec.d:
                # Sampled k < d scores never tie, so none counts by the tie weight.
                assert report.soundness_estimate == pytest.approx(np.count_nonzero(fresh >= lam) / 80)
            else:
                # Exact soundness is the law's flagged share: its mass above lambda and q of that at it.
                _, tracer, (theta,), _, _ = _draw_trial((ERM,), spec, "sparse", prior, 40,
                                                        substream(SEED, 14))
                atoms, masses = _vertex_null_law(tracer, theta.theta)
                q = tie_weight(null_quantile(0.1), atoms, lam, masses)
                flagged = masses[atoms > lam].sum() + q * masses[atoms == lam].sum()
                assert fresh.size == 0 and lam == calibrate_threshold(null_quantile(0.1), atoms, masses)
                assert report.soundness_estimate == flagged / masses.sum()
            assert (np.count_nonzero(report.scores_train > lam) <= report.recall_estimate
                    <= np.count_nonzero(report.scores_train >= lam) <= 40)
            assert report.clip_events == 0

    def test_fresh_scores_have_zero_mean(self):
        # For Z independent of theta the score is exactly centered.
        for kind, spec in (("sparse", ProblemSpec(BOX_LP, d=256, p=2.0, k=64)),
                           ("sparse", ProblemSpec(BOX_LP, d=256, p=2.0)),
                           ("scaling_matrix", ProblemSpec(L1_CAPPED, d=256, s=16))):
            prior = default_prior(spec, alpha_target=0.1)
            if kind == "sparse" and spec.k == spec.d:
                # box_lp at k = d with erm is the exact path, which draws no fresh rows: its law's mean is 0.
                _, tracer, (theta,), _, _ = _draw_trial((ERM,), spec, kind, prior, 32, substream(SEED, 7))
                atoms, masses = _vertex_null_law(tracer, theta.theta)
                assert abs(float(masses @ atoms)) < 1e-12
                continue
            report = run_trace_trial(ERM, spec, kind, prior, n=32, M=20000,
                                     policy=null_quantile(0.05), rng=substream(SEED, 7))
            fresh = report.scores_fresh
            sigma = float(np.std(fresh, ddof=1)) / math.sqrt(fresh.size)
            assert abs(float(fresh.mean())) < 4 * sigma


def _trace_value(learner, spec, prior, n, trials, rng):
    """Plug-in trace value and its 95% CI half-width from one stream."""
    values = np.array([trace_value_contribution(learner, spec, "sparse", prior, n, rng)
                       for _ in range(trials)])
    return float(values.mean()), 1.96 * float(values.std(ddof=1)) / math.sqrt(trials)


class TestEstimateTraceValue:
    def test_constant_learner_scores_exactly_zero(self):
        spec = ProblemSpec(BOX_LP, d=8, p=2.0, k=8)
        prior = BetaPrior(1.0, 1.0, 8)
        t_hat, ci = _trace_value(lambda z: np.zeros(8), spec, prior, n=8, trials=40, rng=substream(SEED, 8))
        assert t_hat == 0.0 and ci == 0.0

    def test_independent_learner_is_centered(self):
        spec = ProblemSpec(BOX_LP, d=32, p=2.0, k=32)
        prior = BetaPrior(2.0, 1.0, 32)
        side_rng = substream(SEED, 9, "disjoint")

        def disjoint_erm(z):
            other = np.where(side_rng.random(z.shape) < 0.5, 1, -1)
            return support_argmax(ProblemSpec(BOX_LP, d=32, p=2.0, k=32), other.mean(axis=0)).theta

        t_hat, ci = _trace_value(disjoint_erm, spec, prior, n=16, trials=600,
                                 rng=substream(SEED, 10))
        assert abs(t_hat) <= 2 * ci + 1e-9

    def test_identity_learner_matches_exact_oracle_value(self):
        from sparsetrace.oracles import verify_sparse_identity

        spec = ProblemSpec(BOX_LP, d=1, p=2.0, k=1)
        prior = BetaPrior(1.0, 1.0, 1)
        identity = lambda z: z.mean(axis=0)
        t_hat, ci = _trace_value(identity, spec, prior, n=1, trials=4000, rng=substream(SEED, 11))
        oracle = verify_sparse_identity(1, 1, 1, 1.0, identity, name="identity")
        assert oracle.lhs == pytest.approx(2 / 3, abs=1e-10)
        assert abs(t_hat - oracle.lhs) < 2 * ci


class TestRecallLowerBound:
    """The counting bound behind the recall guarantee, with beta = n * lambda.

    At least (sum_i a_i - n lambda)^2 / sum_i a_i^2 of n scores reach the
    threshold lambda; oracles.check_card_moments checks that count exactly.
    """

    def test_hand_example(self):
        # 1 score of 3 reaches 1/3, and the bound is (2 - 1)^2 / 4 = 0.25.
        passed, _ = check_card_moments([np.array([2.0, 0.0, 0.0])], [1.0])
        assert passed

    def test_equality_case_all_equal(self):
        # All 8 scores reach 0, and the bound is (8 * 3)^2 / (8 * 9) = 8.
        passed, _ = check_card_moments([np.full(8, 3.0)], [0.0])
        assert passed

    def test_zero_scores_give_zero(self):
        passed, _ = check_card_moments([np.zeros(5)], [-5.0])
        assert passed

    def test_never_exceeds_direct_count(self):
        rng = substream(SEED, 12, "pz")
        vectors, betas = [], []
        for _ in range(10**4):
            n = int(rng.integers(1, 20))
            vectors.append(rng.uniform(-1, 1, size=n))
            betas.append(n * float(rng.uniform(-1.5, 1.5)))
        passed, counterexample = check_card_moments(vectors, betas)
        assert passed, counterexample

class TestDefaultPrior:
    def test_box_beta_formula(self):
        spec = ProblemSpec(BOX_LP, d=256, p=2.0, k=64)
        alpha = 0.05
        expected = ((64 / 256) ** 0.5 / (6 * alpha)) ** 2
        assert default_beta(spec, alpha) == pytest.approx(expected)
        assert default_prior(spec, alpha).gamma == pytest.approx(0.25)

    def test_beta_floor_at_one(self):
        spec = ProblemSpec(BOX_LP, d=4, p=2.0, k=4)
        assert default_beta(spec, 10.0) == 1.0

    def test_l1_gamma_tracks_alpha(self):
        spec = ProblemSpec(L1_CAPPED, d=4096, s=256)
        prior = default_prior(spec, alpha_target=0.05)
        assert prior.gamma == pytest.approx(0.4)
        assert prior.beta == pytest.approx(1 + 0.5 * math.log(4096 / (16 * 256)))


def _max_score_vector_norm(tr, Z, radius, rng, restarts=32, max_sweeps=64):
    """Heuristic max over box vertices of the score-vector l_2 norm.

    The score vector is linear in theta, so the maximum of its norm over a
    box is attained at a vertex; coordinate ascent from random vertices
    gives a lower bound on the true supremum.
    """
    # Column j of the score map is the (unclipped) score vector at theta = e_j.
    columns = _score_batch_reference(tr, np.eye(tr.spec.d), Z, clip=math.inf)[0]
    best = 0.0
    for _ in range(restarts):
        theta = radius * np.where(rng.random(tr.spec.d) < 0.5, 1.0, -1.0)
        phi = columns @ theta
        for _ in range(max_sweeps):
            changed = False
            for j in range(tr.spec.d):
                rest = phi - columns[:, j] * theta[j]
                new = radius if float(np.dot(rest, columns[:, j])) >= 0 else -radius
                if new != theta[j]:
                    phi = rest + columns[:, j] * new
                    theta[j] = new
                    changed = True
            if not changed:
                break
        best = max(best, float(np.linalg.norm(phi)))
    return best


class TestScoreNormScaling:
    def test_heuristic_norm_scales_like_sqrt_n_plus_sqrt_d(self):
        rng = substream(SEED, 13, "norm")
        ratios = []
        for n in (64, 256):
            for d in (64, 256):
                spec = ProblemSpec(BOX_LP, d=d, p=2.0, k=d)
                prior = BetaPrior(2.0, 1.0, d)
                mu = sample_prior(prior, rng).values
                tr = sparse_tracer(mu, d, 2.0, d)
                pop = SparsePopulation(mu, d, d)
                z = sample_matrix(pop, n, rng)
                value = _max_score_vector_norm(tr, z, spec.box_radius, rng)
                ratios.append(value / (math.sqrt(n) + math.sqrt(d)))
        assert max(ratios) / min(ratios) <= 3.0


class TestTraceValueCeiling:
    def test_t_hat_scaling_stays_in_band(self):
        ratios = []
        for i, d in enumerate((64, 256, 1024)):
            spec = ProblemSpec(BOX_LP, d=d, p=2.0, k=d)
            prior = default_prior(spec, alpha_target=0.1)
            values = [trace_value_contribution(ERM, spec, "sparse", prior, 64,
                                               substream(SEED, 200 * i + t, "ceil"))
                      for t in range(120)]
            ratios.append(float(np.mean(values)) * math.sqrt(64) / math.sqrt(d))
        assert max(ratios) / min(ratios) <= 3.0
