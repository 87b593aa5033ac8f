"""Fingerprinting score functions and soundness/recall measurement.

A tracer knows the data distribution (here: the true mean drawn for the
trial) and scores candidate points by their correlation with the learned
parameter after centering.  Fresh points score zero in expectation, so a
threshold at the (1 - xi)-quantile of their null law (exact at a box vertex
on dense box_lp data, sampled elsewhere, with a tie weight on the atom at
the threshold) controls the false positive rate while training points of
accurate learners score high.  Where the law is exact, that rate is the
law's flagged mass itself, xi, and no fresh row is drawn to measure it; a
sampled null has at most ROW_LIMIT rows, as every sample the CLI takes.
Each arm sorts its null law once (`_NullLaw`) and reads the threshold, the
tie weight and every flag count through one split (`_split`).  A trial
draws its rows once and trains each learner on them from one generator
state, so the arms of a noise sweep share the data and the Gaussian noise
vector.

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

from .distributions import BetaPrior, as_rows, block_rows, check_mean, sample_matrix, sample_prior
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

    Once theta is checked, Z is read by `distributions.as_rows`, and its
    rows must have the spec's d and k.  At k = d, where u = +/-1
    (at a box vertex) the products are z . u = d - 2 popcount(bits ^ packbits(u > 0)),
    exact integers; otherwise each whole-row block (`distributions.block_rows`)
    is unpacked to float64 and multiplied by u, so float64 working memory is
    one block whatever n is.  Both give the bits of the float64 product of
    the dense matrix.  At k < d the signs are unpacked once, to an (n, k)
    int8 matrix, and the rows are scored by gathers, theta[support] . signs
    and (theta * mu)[support], taken in whole-row blocks of about
    BLOCK_ENTRIES bytes of float64, so the work is O(n k) and the working
    memory, beside the signs and two n-long sums, is two d-long vectors and
    one block whatever n is.
    """
    spec = tr.spec
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.d,):
        raise ValueError(f"theta: has shape {theta.shape}, expected ({spec.d},)")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta: entries must be finite")
    rows = as_rows(Z)
    if rows.shape[1] != spec.d or rows.k != spec.k:
        raise ValueError(f"every data point must have {spec.d} entries, exactly {spec.k} nonzeros")
    n, dense = rows.shape[0], _dense(tr, theta)
    if dense is None:
        shift, signs = theta * tr.mu, rows.signs
        signed, centre, step = np.empty(n), np.empty(n), block_rows(8 * spec.k)
        for i in range(0, n, step):
            block = theta[rows.support[i:i + step]]
            block *= signs[i:i + step]
            block.sum(axis=1, out=signed[i:i + step])
            shift[rows.support[i:i + step]].sum(axis=1, out=centre[i:i + step])
        raw = spec.d ** (1.0 / spec.p) / math.sqrt(spec.k) * (signed - spec.d / spec.k * centre)
    else:
        u, centre, c = dense
        if (np.abs(u) == 1).all():
            disagree = np.bitwise_xor(rows.bits, np.packbits(u > 0))
            # A row disagrees at most d times, so below d = 2^16 a uint16 sum holds the count.
            total = np.uint16 if spec.d < 2**16 else np.int64
            count = np.bitwise_count(disagree, out=disagree).sum(axis=1, dtype=total)
            raw = dense_score(spec.d - 2.0 * count, centre, c)
        else:
            raw, step = np.empty(n), block_rows(spec.d)
            for i in range(0, n, step):
                raw[i:i + step] = dense_score(np.asarray(rows[i:i + step], dtype=np.float64) @ u, centre, c)
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


_LEAF = 8  # interior p_j per leaf polynomial, expanded by the direct recursion
_ARITY = 8  # polynomials multiplied together at each FFT level


def poisson_binomial_pmf(p: np.ndarray) -> np.ndarray:
    """P(B = b), b = 0..len(p), for B the successes of independent Bernoulli(p_j): the product
    of the polynomials (1 - p_j) + p_j x.  A NaN entry, or one outside [0, 1], raises ValueError.

    Each p_j = 1 shifts B by one and each p_j = 0 drops out first, so only the m interior p_j
    enter the product and every b outside [#ones, #ones + m] has mass exactly 0.  They are dealt
    into ceil(m / 8) leaves of 8, padded with p = 0 (the polynomial 1), and the direct recursion
    c <- (1 - p) c + p x c gives every leaf's 9 coefficients in 8 vector steps.  Each level then
    multiplies up to 8 polynomials at a time (a short last group padded with the polynomial 1):
    one batched rfft at the power of two at or above the product's degree, the product of each
    group's spectra, one irfft per group.  At that size only the top coefficient can wrap, onto
    coefficient 0; it is the product of the factors' top coefficients, so it is taken off
    coefficient 0 and appended.  A pmf's spectrum has modulus <= 1, so no product overflows.
    At d = 4096 that is FFT levels at sizes 64, 512 and 4096, and a largest absolute error
    against a long-double recurrence of about 2e-16.  Masses are clamped at >= 0."""
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p: entries must lie in [0, 1]")
    ones, interior = int(np.count_nonzero(p == 1.0)), p[(p > 0.0) & (p < 1.0)]
    leaves = max(1, -(-interior.size // _LEAF))
    q = np.zeros((_LEAF, leaves))  # q[j]: every leaf's j-th p
    q.reshape(-1)[:interior.size] = interior
    keep, coef = 1.0 - q, np.zeros((_LEAF + 1, leaves))  # coef[i]: every leaf's coefficient of x^i
    coef[0] = 1.0
    for j in range(_LEAF):
        moved = coef[:j + 1] * q[j]
        coef[:j + 1] *= keep[j]
        coef[1:j + 2] += moved
    polys = coef.T.copy()
    while polys.shape[0] > 1:
        r = min(_ARITY, polys.shape[0])
        if polys.shape[0] % r:
            polys = np.vstack([polys, np.eye(1, polys.shape[1]).repeat(r - polys.shape[0] % r, axis=0)])
        width = r * (polys.shape[1] - 1) + 1
        size = 1 << (width - 2).bit_length()
        spectra = np.fft.rfft(polys, size).reshape(-1, r, size // 2 + 1).prod(axis=1)
        product = np.fft.irfft(spectra, size)
        if size < width:
            top = polys[:, -1].reshape(-1, r).prod(axis=1)
            product[:, 0] -= top
            product = np.hstack([product, top[:, None]])
        polys = product[:, :width]
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


class _NullLaw:
    """A null law validated and sorted once: `masses` on `null_scores`, or unit masses on a null
    sample (`sample`), as its scores ascending by one stable argsort, their masses in that order,
    and the total mass summed in the given order.  `size` counts scores, as `np.size` does."""

    def __init__(self, null_scores, masses=None):
        scores = np.asarray(null_scores, dtype=float)
        if scores.ndim != 1:
            raise ValueError(f"null_scores: has shape {scores.shape}, expected a 1-D array")
        if np.isnan(scores).any():
            raise ValueError("null_scores: entries must not be NaN")
        weights = np.ones_like(scores) if masses is None else np.asarray(masses, dtype=float)
        with np.errstate(over="ignore"):  # a sum past the float range is refused below, not warned of
            total = weights.sum()
        if masses is not None and not (weights.shape == scores.shape and np.isfinite(weights).all()
                                       and np.all(weights >= 0) and 0 < total < np.inf):
            raise ValueError("masses: need one finite, nonnegative mass per score, with a positive, finite sum")
        order = np.argsort(scores, kind="stable")
        self.scores, self.masses, self.total = scores[order], weights[order], total
        self.sample, self.size = masses is None, scores.size


def calibrate_threshold(policy: ThresholdPolicy, null_scores, masses=None) -> float:
    """Threshold lambda from a policy and, for null_quantile, a discrete null law.

    The law puts `masses` on the values `null_scores`, or equal masses on a null sample of
    at least 1/xi values, or is a `_NullLaw`.  lambda is the smallest value with null mass
    below xi above it.  Flagging every score above lambda and a share `tie_weight` of those
    at it flags null mass xi exactly: 90 zeros and 10 ones at xi = 0.05 give lambda = 1 and
    q = 0.5.  Scores not 1-D or with a NaN, or masses of another shape, not finite, negative
    or summing to 0 or past the float range, raise ValueError.
    """
    if policy.t_hat is not None:
        return policy.t_hat / 2.0
    law = null_scores if isinstance(null_scores, _NullLaw) else _NullLaw(null_scores, masses)
    if law.sample and law.size * policy.xi < 1.0:
        raise ValueError(f"null sample of size {law.size} is insufficient; need >= {math.ceil(1.0 / policy.xi)}")
    above = law.total - np.cumsum(law.masses)
    # The slack keeps a mass of exactly xi above a value, up to rounding, from counting as below xi.
    below = above < policy.xi * law.total * (1.0 - 1e-12)
    # No mass lies above the last atom that has any, but the sums' rounding can leave more than
    # xi there, so that no value passes: then lambda is that atom.
    return float(law.scores[np.argmax(below) if below[-1] else np.flatnonzero(law.masses)[-1]])


def _split(null, lam: float) -> tuple[float, float, float]:
    """(mass above lam, mass at lam, total mass) of a `_NullLaw`, whose sorted scores put each
    part in one slice, or of unit masses on an unsorted score sample, which is counted."""
    if isinstance(null, _NullLaw):
        lo, hi = np.searchsorted(null.scores, lam, "left"), np.searchsorted(null.scores, lam, "right")
        return null.masses[hi:].sum(), null.masses[lo:hi].sum(), null.total
    return np.count_nonzero(null > lam), np.count_nonzero(null == lam), null.size


def tie_weight(policy: ThresholdPolicy, null_scores, lam: float, masses=None) -> float:
    """q = (xi - P(null > lam)) / P(null = lam), clipped to [0, 1], for the law and
    lambda of `calibrate_threshold`, where the law has mass; 1 for a t_hat policy."""
    if policy.t_hat is not None:
        return 1.0
    law = null_scores if isinstance(null_scores, _NullLaw) else _NullLaw(null_scores, masses)
    above, at, total = _split(law, lam)
    if not at > 0:
        raise ValueError(f"lam: {lam} carries none of the law's mass")
    return float(np.clip((policy.xi * total - above) / at, 0.0, 1.0))


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


ROW_LIMIT = 10**5  # rows of any one sample, training, fresh or null; the CLI refuses more


def null_sample_size(learners: tuple[LearnerLike, ...], spec: ProblemSpec, policy: ThresholdPolicy) -> int | None:
    """The rows of a trial's null sample: None on the exact path (a xi policy, and every
    learner a vertex learner on dense box_lp data), 0 under t_hat, else max(1000, ceil(10 / xi)).
    A xi whose sample would pass ROW_LIMIT rows raises ValueError naming xi."""
    if policy.xi is None:
        return 0
    if spec.variant == BOX_LP and spec.k == spec.d and all(
            isinstance(learner, LearnerConfig) and learner.kind in VERTEX_LEARNERS for learner in learners):
        return None
    if 10.0 / policy.xi > ROW_LIMIT:
        raise ValueError(f"xi: {policy.xi:g} needs a null sample of ceil(10 / xi) rows, past the limit of "
                         f"{ROW_LIMIT} rows; take xi >= {10.0 / ROW_LIMIT:g}, or the exact "
                         "path, which draws no null rows (vertex learners on box_lp at k = d)")
    return max(1000, math.ceil(10.0 / policy.xi))


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
    # The sampled path's fresh and null rows are drawn before training, so the path is chosen here.
    null_rows = null_sample_size(learners, spec, policy)
    exact = null_rows is None
    mu, tracer, thetas, z_train, held = _draw_trial(learners, spec, tracer_kind, prior, n, rng,
                                                    () if exact else (M, null_rows))

    reports = []
    for theta in thetas:
        scores_train, clips = score_batch(tracer, theta.theta, z_train)
        if exact:
            # At a box vertex c = 1 / sqrt(d), so |c (2B - d - u . mu)| <= 2 d / sqrt(d),
            # the clip bound: no atom is ever clamped.
            law, scores_fresh = _NullLaw(*_vertex_null_law(tracer, theta.theta)), np.empty(0)
        else:
            (scores_fresh, clip_fr), (scores_null, clip_nu) = (score_batch(tracer, theta.theta, z)
                                                               for z in held)
            law, clips = _NullLaw(scores_null), clips + clip_fr + clip_nu
        lam = calibrate_threshold(policy, law)
        q = tie_weight(policy, law, lam)
        above, at, total = _split(law if exact else scores_fresh, lam)
        train_above, train_at, _ = _split(scores_train, lam)
        reports.append(TraceReport(
            scores_train=scores_train,
            scores_fresh=scores_fresh,
            threshold=lam,
            recall_estimate=train_above + q * train_at,
            soundness_estimate=(above + q * at) / total,
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
