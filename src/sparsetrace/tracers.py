"""Fingerprinting score functions and soundness/recall measurement.

A tracer knows the data distribution (here: the true mean drawn for the
trial) and scores candidate points by their correlation with the learned
parameter after centering.  Fresh points score zero in expectation, so a
threshold at the (1 - xi)-quantile of their null law (exact at a box vertex
on dense box_lp data, sampled elsewhere, with a tie weight on the atom at
the threshold) controls the false positive rate while training points of
accurate learners score high.  Where the law is exact, that rate is the
law's flagged mass itself, xi, and no fresh row is drawn to measure it.
A trial draws its rows once and trains each learner on them from one
generator state, so the arms of a noise sweep share the data and the
Gaussian noise vector.

Two score families are implemented; on dense rows (every l1_capped row,
box_lp at k = d) both are one affine map c * (z . u - u . mu), `dense_score`:

* sparse score (k-sparse ternary data):
  (d^(1/p) / sqrt(k)) * sum_{j in supp(z)} theta_j (z_j - (d/k) mu_j)
* scaling-matrix score (dense +/-1 data):
  sqrt(s) * sum_j theta_j L_j (z_j - mu_j),
  L_j = (1 - (mu_j/gamma)^2) / (1 - mu_j^2),
  which keeps the fingerprinting identity exact when the prior lives on a
  sub-interval [-gamma, gamma] of the mean domain.  s is the l1_capped
  cap (s = 1 is the plain l_1 ball); any unknown constant of the
  subgaussian normalization is absorbed by threshold calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (BetaPrior, SparseRows, block_rows, check_mean, check_ternary, sample_matrix,
                            sample_prior, sparse_rows)
from .learners import VERTEX_LEARNERS, Dataset, LearnerConfig, LearnerLike, train
from .problems import BOX_LP, ProblemSpec, data_distribution, excess_risk

SPARSE_SCORE = "sparse"
SCALING_MATRIX_SCORE = "scaling_matrix"


def score_kind(spec: ProblemSpec) -> str:
    """The score of the spec's geometry: sparse on box_lp, scaling-matrix on l1_capped."""
    return SPARSE_SCORE if spec.variant == BOX_LP else SCALING_MATRIX_SCORE


@dataclass(frozen=True)
class TracerSpec:
    """The score function of one trial: the problem, its true mean, and the
    prior's half-width gamma, which the scaling-matrix score reads and needs
    |mu_j| <= gamma < 1 for (past gamma the scaling matrix is negative)."""

    spec: ProblemSpec
    mu: np.ndarray
    gamma: float | None = None

    def __post_init__(self):
        if self.kind == SCALING_MATRIX_SCORE and (self.gamma is None or not 0 < self.gamma < 1):
            raise ValueError("scaling tracer requires gamma in (0, 1)")
        bound = self.spec.mean_bound if self.kind == SPARSE_SCORE else self.gamma
        object.__setattr__(self, "mu", check_mean(self.mu, self.spec.d, bound))

    @property
    def kind(self) -> str:
        return score_kind(self.spec)

    @property
    def clip_bound(self) -> float:
        """2 sqrt(k) for the sparse score and 2 sqrt(s) for the scaling-matrix
        score: never active for feasible parameters of the matching problem."""
        return 2.0 * math.sqrt(self.spec.k if self.kind == SPARSE_SCORE else self.spec.s)


def sparse_tracer(mu: np.ndarray, k: int, p: float, d: int) -> TracerSpec:
    """Sparse-score tracer for the box_lp problem with sparsity k, norm p and dimension d."""
    return TracerSpec(ProblemSpec(BOX_LP, d=d, p=p, k=k), mu)


def score_batch(tr: TracerSpec, theta: np.ndarray, Z) -> tuple[np.ndarray, int]:
    """Scores for the rows of Z, clamped to [-clip_bound, clip_bound].

    The one implementation of both score families: the dense form of
    `_dense` on dense rows, the sparse formula at k < d.  Score a single
    point as a 1-row matrix.  Returns (scores, number of clamped entries).
    In-range configurations never clamp; a nonzero count signals an
    out-of-contract parameter.

    Dense rows must hold only -1 and +1 (checked with no copy); they are cast
    to float64 and scored one whole-row block (`distributions.block_rows`) at
    a time, so float64 working memory is one block whatever n is.  At k < d
    the rows are read as `SparseRows` (a dense array is converted) and scored
    by gathers, theta[support] . signs and (theta * mu)[support], so the
    work and working memory are O(n k) plus two d-long vectors.
    """
    spec = tr.spec
    theta = np.asarray(theta, dtype=float)
    Z = Z if isinstance(Z, SparseRows) else np.asarray(Z)
    if Z.ndim != 2 or Z.shape[1] != spec.d or theta.shape != (spec.d,):
        raise ValueError("dimension mismatch between tracer, theta, and data")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta: entries must be finite")
    dense = _dense(tr, theta)
    if dense is None:
        rows = sparse_rows(Z, spec.k)
        signed = theta[rows.support]
        signed *= rows.signs
        centre = (theta * tr.mu)[rows.support]
        raw = spec.d ** (1.0 / spec.p) / math.sqrt(spec.k) * (
            signed.sum(axis=1) - spec.d / spec.k * centre.sum(axis=1))
    else:
        if np.count_nonzero(check_ternary(Z)) != Z.size:
            raise ValueError("dense rows must take values in {-1, +1}")
        raw, step = np.empty(Z.shape[0]), block_rows(spec.d)
        for i in range(0, Z.shape[0], step):
            raw[i:i + step] = dense_score(Z[i:i + step].astype(np.float64, order="C") @ dense[0], *dense[1:])
    clip = tr.clip_bound
    return np.clip(raw, -clip, clip), int(np.count_nonzero(np.abs(raw) > clip))


def _dense(tr: TracerSpec, theta: np.ndarray):
    """(u, u . mu, c) with either score c * (z . u - u . mu) on dense rows; None at k < d.
    u = sign(theta) at a box vertex r * sign(theta), so z . u is an exact integer; u = theta
    elsewhere on box_lp; u = theta * L and c = sqrt(s) for the scaling-matrix score."""
    spec, r = tr.spec, abs(float(theta[0]))
    if tr.kind == SCALING_MATRIX_SCORE:
        u, c = theta * ((1.0 - (tr.mu / tr.gamma) ** 2) / (1.0 - tr.mu**2)), math.sqrt(spec.s)
    elif spec.k < spec.d:
        return None
    else:
        u, c = (np.sign(theta), r) if r > 0 and np.all(np.abs(theta) == r) else (theta, 1.0)
        c = c * spec.d ** (1.0 / spec.p) / math.sqrt(spec.k)
    return u, float(u @ tr.mu), c


def dense_score(products: np.ndarray, centre: float, c: float) -> np.ndarray:
    """c * (z . u - centre) from the products z . u; bit for bit equal for equal products."""
    return c * (products - centre)


def poisson_binomial_pmf(p: np.ndarray) -> np.ndarray:
    """P(B = b), b = 0..len(p), for B the successes of independent Bernoulli(p_j): the product
    of the polynomials (1 - p_j) + p_j x, taken in pairs a level at a time by batched real FFTs.

    Each p_j = 1 shifts B by one and each p_j = 0 drops out before the FFTs, which see only
    the interior p_j, so every b outside [#ones, #ones + #interior] has mass exactly 0."""
    ones, interior = int(np.count_nonzero(p == 1.0)), p[(p > 0.0) & (p < 1.0)]
    polys = np.stack([1.0 - interior, interior], axis=1) if interior.size else np.ones((1, 1))
    while polys.shape[0] > 1:
        if polys.shape[0] % 2:
            polys = np.vstack([polys, np.eye(1, polys.shape[1])])
        width, size = 2 * polys.shape[1] - 1, 1 << (2 * polys.shape[1] - 2).bit_length()
        spectra = np.fft.rfft(polys[0::2], size) * np.fft.rfft(polys[1::2], size)
        polys = np.fft.irfft(spectra, size)[:, :width]
    out = np.zeros(p.size + 1)
    out[ones:ones + interior.size + 1] = np.maximum(polys[0, :interior.size + 1], 0.0)
    return out


def _vertex_null_law(tr: TracerSpec, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(atom scores, masses) of a fresh row's score at a box vertex on dense box_lp data:
    z . u = 2B - d, B Poisson binomial with P(z_j = u_j) = (1 + u_j mu_j) / 2."""
    dense = _dense(tr, theta)
    if tr.kind != SPARSE_SCORE or dense is None or not np.all(np.abs(dense[0]) == 1):
        raise ValueError("the exact null law needs theta at a box vertex and k = d")
    u, centre, c = dense
    atoms = dense_score(2.0 * np.arange(tr.spec.d + 1) - tr.spec.d, centre, c)
    return np.clip(atoms, -tr.clip_bound, tr.clip_bound), poisson_binomial_pmf((1.0 + u * tr.mu) / 2.0)


@dataclass(frozen=True)
class ThresholdPolicy:
    """How to turn scores into In/Out decisions: exactly one of xi (the null
    law's (1 - xi)-quantile) and a known trace value t_hat (t_hat / 2)."""

    xi: float | None = None
    t_hat: float | None = None

    def __post_init__(self):
        if (self.xi is None) == (self.t_hat is None):
            raise ValueError("a threshold policy takes exactly one of xi and t_hat")
        if self.xi is not None and not 0 < self.xi < 1:
            raise ValueError("xi: must lie in (0, 1)")
        if self.t_hat is not None and not math.isfinite(self.t_hat):
            raise ValueError("t_hat: must be finite")


def half_trace_value(t_hat: float) -> ThresholdPolicy:
    return ThresholdPolicy(t_hat=t_hat)


def null_quantile(xi: float) -> ThresholdPolicy:
    return ThresholdPolicy(xi=xi)


def _law(null_scores, masses=None) -> tuple[np.ndarray, np.ndarray]:
    """(scores, masses) of the law `masses` on `null_scores`, or of a sample with unit masses."""
    scores = np.asarray(null_scores, dtype=float)
    weights = np.ones_like(scores) if masses is None else np.asarray(masses, dtype=float)
    if np.isnan(scores).any():
        raise ValueError("null_scores: entries must not be NaN")
    if masses is not None and not (weights.shape == scores.shape and np.isfinite(weights).all()
                                   and np.all(weights >= 0) and weights.sum() > 0):
        raise ValueError("masses: need one finite, nonnegative mass per score, with a positive sum")
    return scores, weights


def calibrate_threshold(policy: ThresholdPolicy, null_scores, masses=None) -> float:
    """Threshold lambda from a policy and, for null_quantile, a discrete null law.

    The law puts `masses` on the values `null_scores`, or equal masses on a
    null sample of at least 1/xi values.  lambda is the smallest value with
    null mass below xi above it.  Flagging every score above lambda and a
    share `tie_weight` of those at it flags null mass xi exactly: 90 zeros
    and 10 ones at xi = 0.05 give lambda = 1 and q = 0.5.  A NaN score, or masses
    of another shape, not finite, negative or summing to 0, raise ValueError.
    """
    if policy.t_hat is not None:
        return policy.t_hat / 2.0
    scores, weights = _law(null_scores, masses)
    if masses is None and scores.size * policy.xi < 1.0:
        raise ValueError(f"null sample of size {scores.size} is insufficient; need >= {math.ceil(1.0 / policy.xi)}")
    order = np.argsort(scores, kind="stable")
    above = weights.sum() - np.cumsum(weights[order])
    # The slack keeps a mass of exactly xi above a value, up to rounding, from counting as below xi.
    return float(scores[order][np.argmax(above < policy.xi * weights.sum() * (1.0 - 1e-12))])


def _split_mass(scores, lam: float, masses=None) -> tuple[float, float, float]:
    """(mass above lam, mass at lam, total mass) of the law `masses` on `scores`, or of a
    sample with unit masses."""
    scores, weights = _law(scores, masses)
    return weights[scores > lam].sum(), weights[scores == lam].sum(), weights.sum()


def tie_weight(policy: ThresholdPolicy, null_scores, lam: float, masses=None) -> float:
    """q = (xi - P(null > lam)) / P(null = lam), clipped to [0, 1], for the law and
    lambda of `calibrate_threshold`, where the law has mass; 1 for a t_hat policy."""
    if policy.t_hat is not None:
        return 1.0
    above, at, total = _split_mass(null_scores, lam, masses)
    if not at > 0:
        raise ValueError(f"lam: {lam} carries none of the law's mass")
    return float(np.clip((policy.xi * total - above) / at, 0.0, 1.0))


def _flagged(scores, lam: float, q: float, masses=None) -> tuple[float, float]:
    """(flagged mass, total mass) of a law, or of a sample with unit masses: the
    flagged mass is the mass above lam plus a share q, the tie weight, of the mass at lam."""
    above, at, total = _split_mass(scores, lam, masses)
    return above + q * at, total


@dataclass(frozen=True)
class TraceReport:
    """Per-trial attack outcome.

    ``recall_estimate`` is the expected number of flagged training points
    under the tie weight (so it lies in [0, n]).  ``soundness_estimate`` is
    the flagged share of the null: of the M fresh points where the null law
    is sampled, and of the exact law's mass, xi up to rounding, where it is
    exact; there ``scores_fresh`` is empty.  The mean, realized risk, and
    clip counter ride along for experiment records.
    """

    scores_train: np.ndarray
    scores_fresh: np.ndarray
    threshold: float
    recall_estimate: float
    soundness_estimate: float
    mu_l1: float
    excess_risk: float
    clip_events: int


def _draw_trial(learners: tuple[LearnerLike, ...], spec: ProblemSpec, tracer_kind: str,
                prior: BetaPrior, n: int, rng: np.random.Generator, held_out: tuple[int, ...] = ()):
    """The random part of a trial, shared by every trial kind.

    Draws mu from the prior (whose gamma must not pass the spec's mean
    bound), builds the tracer from that true mean, samples n training rows,
    then one matrix per held_out size, and trains each learner last, each
    from the generator state the data draws left.  `tracer_kind` must be
    the spec's `score_kind`.  Returns (mu, tracer, thetas, z_train, held).
    """
    if tracer_kind != score_kind(spec):
        raise ValueError(f"the {spec.variant} variant takes the {score_kind(spec)!r} score, "
                         f"not {tracer_kind!r}")
    mu = sample_prior(prior, rng).values
    tracer = TracerSpec(spec, mu, prior.gamma)
    pop = data_distribution(spec, mu)
    z_train = sample_matrix(pop, n, rng)
    held = [sample_matrix(pop, m, rng) for m in held_out]
    data, state = Dataset(z_train), rng.bit_generator.state
    thetas = []
    for learner in learners:
        rng.bit_generator.state = state
        thetas.append(train(learner, spec, data, rng))
    return mu, tracer, thetas, z_train, held


def run_trace_arms(learners: tuple[LearnerLike, ...], spec: ProblemSpec, tracer_kind: str, prior: BetaPrior,
                   n: int, M: int, policy: ThresholdPolicy, rng: np.random.Generator) -> list[TraceReport]:
    """One full attack trial per learner, all on one draw (see `_draw_trial`).

    Under null_quantile, when every learner is a vertex learner on dense
    box_lp data (the exact path), each arm takes its exact null law, and
    the flagged mass of that law is its soundness: no fresh or null row is
    drawn and M is unused.  Any other run samples M fresh rows and one null
    sample that every arm scores, and soundness is the flagged share of the
    fresh rows.  Flags count scores above the threshold, plus the tie
    weight times those at it.
    """
    if n < 1 or M < 1:
        raise ValueError("n and M must be >= 1")
    exact = (policy.xi is not None and spec.variant == BOX_LP and spec.k == spec.d
             and all(isinstance(learner, LearnerConfig) and learner.kind in VERTEX_LEARNERS
                     for learner in learners))
    # The sampled path's fresh and null rows are drawn before training, so the path is chosen here.
    held_out = () if exact else (M, max(1000, math.ceil(10.0 / policy.xi)) if policy.xi is not None else 0)
    mu, tracer, thetas, z_train, held = _draw_trial(learners, spec, tracer_kind, prior, n, rng, held_out)

    reports = []
    for theta in thetas:
        scores_train, clips = score_batch(tracer, theta.theta, z_train)
        if exact:
            # At a box vertex c = 1 / sqrt(d), so |c (2B - d - u . mu)| <= 2 d / sqrt(d),
            # the clip bound: no atom is ever clamped.
            (scores_null, masses), scores_fresh = _vertex_null_law(tracer, theta.theta), np.empty(0)
        else:
            (scores_fresh, clip_fr), (scores_null, clip_nu) = (score_batch(tracer, theta.theta, z)
                                                               for z in held)
            masses, clips = None, clips + clip_fr + clip_nu
        lam = calibrate_threshold(policy, scores_null, masses)
        q = tie_weight(policy, scores_null, lam, masses)
        flagged, total = _flagged(scores_null, lam, q, masses) if exact else _flagged(scores_fresh, lam, q)
        reports.append(TraceReport(
            scores_train=scores_train,
            scores_fresh=scores_fresh,
            threshold=lam,
            recall_estimate=_flagged(scores_train, lam, q)[0],
            soundness_estimate=flagged / total,
            mu_l1=float(np.sum(np.abs(mu))),
            excess_risk=excess_risk(spec, theta, mu) if theta.feasible else float("nan"),
            clip_events=clips,
        ))
    return reports


def run_trace_trial(learner: LearnerLike, spec: ProblemSpec, tracer_kind: str, prior: BetaPrior,
                    n: int, M: int, policy: ThresholdPolicy, rng: np.random.Generator) -> TraceReport:
    """One full attack trial: `run_trace_arms` with one learner."""
    return run_trace_arms((learner,), spec, tracer_kind, prior, n, M, policy, rng)[0]


def trace_value_contribution(
    learner: LearnerLike,
    spec: ProblemSpec,
    tracer_kind: str,
    prior: BetaPrior,
    n: int,
    rng: np.random.Generator,
) -> float:
    """One trial's average training-point score, (1/n) sum_i phi(theta_hat, Z_i).

    The mean over trials is a plug-in trace value for this one
    learner/tracer pair: neither an upper nor a lower bound on the
    adversarial trace value.
    """
    _, tracer, (theta,), z_train, _ = _draw_trial((learner,), spec, tracer_kind, prior, n, rng)
    scores, _ = score_batch(tracer, theta.theta, z_train)
    return float(scores.mean())


def default_beta(spec: ProblemSpec, alpha_target: float) -> float:
    """Prior shape matched to a target excess risk, floored at 1.

    box_lp uses (k^(1/p) / (6 d^(1/p) alpha))^2, the scale at which the
    prior puts enough l_1 mass on the mean to make risk-alpha learners
    correlate with their samples.  l1_capped uses
    1 + log(d / (16 max(s, 14))) / 2.
    """
    if not alpha_target > 0:
        raise ValueError("alpha_target: must be positive")
    if spec.variant == BOX_LP:
        root = (spec.k / spec.d) ** (1.0 / spec.p) / (6.0 * alpha_target)
        if not math.isfinite(root * root):  # where root ** 2 would raise OverflowError
            raise ValueError(f"alpha_target: {alpha_target:g} is too small; the derived beta is not finite")
        return max(1.0, root ** 2)
    return max(1.0, 1.0 + 0.5 * math.log(spec.d / (16.0 * max(spec.s, 14))))


def default_prior(
    spec: ProblemSpec,
    alpha_target: float | None = None,
    beta: float | None = None,
) -> BetaPrior:
    """Prior used by trace experiments.

    box_lp pins gamma to the population box bound k/d; l1_capped uses
    gamma = min(8 alpha, 0.99), kept strictly below 1 so the scaling
    matrix stays finite.  A given alpha_target must be positive even where
    beta is given too.
    """
    if alpha_target is not None and not alpha_target > 0:
        raise ValueError("alpha_target: must be positive")
    if beta is None:
        if alpha_target is None:
            raise ValueError("beta: either beta or alpha_target must be given")
        beta = default_beta(spec, alpha_target)
    if spec.variant != BOX_LP and alpha_target is None:
        raise ValueError("alpha_target: l1_capped derives gamma from it")
    gamma = spec.mean_bound if spec.variant == BOX_LP else min(8.0 * alpha_target, 0.99)
    return BetaPrior(beta=beta, gamma=gamma, d=spec.d)
