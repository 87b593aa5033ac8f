"""Learners mapping datasets to feasible parameter points.

Everything is built on the empirical mean as the sufficient statistic:
ERM is the closed-form support argmax at the empirical mean, the private
learner perturbs the mean with a calibrated Gaussian mechanism before the
same argmax (privacy by post-processing), and the remaining kinds exist
as controls (subsampled ERM and the normalized-mean estimator for the l_2
mean-estimation reduction).  `train` also runs any map from the sample
matrix to a parameter vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .distributions import BetaPrior, SignRows, as_rows, mean_ci, sample_matrix, sample_prior
from .problems import ParameterPoint, ProblemSpec, check_data, data_distribution, excess_risk, is_feasible, support_argmax

ERM_LINEAR = "erm"
GAUSSIAN_DP = "gaussian_dp"
SUBSAMPLE = "subsample"
NORMALIZED_MEAN_L2 = "normalized_mean_l2"
LEARNER_KINDS = (ERM_LINEAR, GAUSSIAN_DP, SUBSAMPLE, NORMALIZED_MEAN_L2)
# The kinds whose output is `support_argmax` of a mean, a box vertex on box_lp.
VERTEX_LEARNERS = (ERM_LINEAR, GAUSSIAN_DP, SUBSAMPLE)


@dataclass(frozen=True)
class Dataset:
    """An ordered sample of n ternary points, held as `SignRows`: the rows
    that `sample_matrix` gives are kept as they are (they are immutable and
    valid by construction), and an array is checked and read into new rows
    by `as_rows`, so the caller may write to it afterwards."""

    z: SignRows

    def __post_init__(self):
        object.__setattr__(self, "z", as_rows(self.z))

    @property
    def n(self) -> int:
        return self.z.shape[0]


@dataclass(frozen=True)
class LearnerConfig:
    """Which learner to run plus its kind-specific parameters: epsilon and
    delta for gaussian_dp (other kinds ignore them), subsample_m for
    subsample only.  An error about one parameter names it first ('epsilon: ...').
    """

    kind: str
    epsilon: float | None = None
    delta: float | None = None
    subsample_m: int | None = None

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.kind == GAUSSIAN_DP:
            if self.epsilon is None or not 0 < self.epsilon <= 10:
                raise ValueError("epsilon: gaussian_dp requires 0 < epsilon <= 10")
            if self.delta is None or not 0 < self.delta < 1:
                raise ValueError("delta: gaussian_dp requires delta in (0, 1)")
        if self.kind == SUBSAMPLE and (self.subsample_m is None or self.subsample_m < 1):
            raise ValueError("subsample_m: subsample requires subsample_m >= 1")
        if self.kind != SUBSAMPLE and self.subsample_m is not None:
            raise ValueError(f"subsample_m: only subsample takes a subsample size, not {self.kind}")


# A learner is either a config for the zoo or a deterministic map from the
# (n, d) float64 sample matrix to a parameter vector.
LearnerLike = Union[LearnerConfig, Callable[[np.ndarray], np.ndarray]]


def empirical_mean(z: SignRows) -> np.ndarray:
    """Column means of the rows: each column's integer sum over n.  At k = d
    the sums are 2 S - n, S each column's count of +1 bits, unpacked 255 rows
    at a time; at k < d a bincount of the unpacked signs over the support.
    Both sums are exact integers, so either gives the bits of
    z.mean(axis=0, dtype=float64) on the rows' dense matrix."""
    n = z.shape[0]
    if z.support is not None:
        return np.bincount(z.support.ravel(), weights=z.signs.ravel(), minlength=z.d) / n
    # 255 rows at a time, the most whose 0/1 bits a uint8 sum holds exactly.
    plus = np.zeros(8 * z.bits.shape[1], dtype=np.int64)
    for i in range(0, n, 255):
        plus += np.unpackbits(z.bits[i:i + 255]).reshape(-1, plus.size).sum(axis=0, dtype=np.uint8)
    return (2 * plus[:z.d] - n) / n


def gaussian_sigma(epsilon: float, delta: float, k_max: int, n: int) -> float:
    """Gaussian-mechanism noise scale for the empirical mean.

    Replacing one sample moves the mean by at most 2 sqrt(k_max) / n in l_2
    (each sample has k_max nonzero +/-1 entries), and the classical
    calibration sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon.  It
    is proven (epsilon, delta)-DP only for epsilon <= 1, and above 1 it can
    fall short: at epsilon = 10, delta = 1e-5 its exact privacy loss
    (Balle & Wang, 2018) has delta = 2.27e-5.
    """
    sensitivity = 2.0 * math.sqrt(k_max) / n
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def train(learner: LearnerLike, spec: ProblemSpec, data: Dataset, rng: np.random.Generator) -> ParameterPoint:
    """Run a learner on data from the spec's data space.

    A config's kind picks the learner; only gaussian_dp consumes randomness,
    and every kind but normalized_mean_l2 returns a feasible point; only
    subsample selects rows.  A map is called on the dense float64 sample
    matrix, built on demand from the rows.  Either output is tagged with
    its feasibility.
    """
    check_data(spec, data.z)
    if not isinstance(learner, LearnerConfig):
        theta = np.asarray(learner(np.asarray(data.z, dtype=np.float64)), dtype=float)
        return ParameterPoint(theta, is_feasible(spec, theta))
    if learner.kind == SUBSAMPLE and learner.subsample_m > data.n:
        raise ValueError(f"subsample_m={learner.subsample_m} exceeds dataset size n={data.n}")
    mu_hat = empirical_mean(data.z[: learner.subsample_m] if learner.kind == SUBSAMPLE else data.z)
    if learner.kind == GAUSSIAN_DP:
        sigma = gaussian_sigma(learner.epsilon, learner.delta, spec.k, data.n)
        mu_hat = mu_hat + sigma * rng.standard_normal(spec.d)
    if learner.kind in VERTEX_LEARNERS:
        return support_argmax(spec, mu_hat)

    # normalized_mean_l2: target is the l_2 unit ball, not the spec's set.
    norm = float(np.linalg.norm(mu_hat))
    theta = np.zeros(spec.d) if norm < 1e-12 else mu_hat / norm
    return ParameterPoint(theta, is_feasible(spec, theta))


def measure_excess_risk(
    learner: LearnerLike,
    spec: ProblemSpec,
    prior: BetaPrior,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Bayesian average excess risk over mu ~ prior, with a 95% CI half-width.

    Each trial draws mu, a dataset of size n, trains, and records the
    closed-form excess risk.
    """
    if trials < 30:
        raise ValueError("trials must be >= 30 for a meaningful CI")
    if n < 1:
        raise ValueError("n must be >= 1")
    if prior.gamma > spec.mean_bound:
        raise ValueError(f"gamma: must not exceed the mean bound {spec.mean_bound:g}")
    risks = np.empty(trials)
    for t in range(trials):
        mu = sample_prior(prior, rng).values
        pop = data_distribution(spec, mu)
        data = Dataset(sample_matrix(pop, n, rng))
        theta = train(learner, spec, data, rng)
        risks[t] = excess_risk(spec, theta, mu)
    return mean_ci(risks)
