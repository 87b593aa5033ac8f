"""Learners mapping datasets to feasible parameter points.

Everything is built on the empirical mean as the sufficient statistic:
ERM is the closed-form support argmax at the empirical mean, the private
learner perturbs the mean with a calibrated Gaussian mechanism before the
same argmax (privacy by post-processing), and the remaining kinds exist
as controls (subsampled ERM, the normalized-mean estimator for the l_2
mean-estimation reduction, and a constant output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import BetaPrior, TernarySample, sample_matrix, sample_prior, ternary_int8
from .problems import ParameterPoint, ProblemSpec, check_data, data_distribution, excess_risk, is_feasible, support_argmax

ERM_LINEAR = "erm"
GAUSSIAN_DP = "gaussian_dp"
SUBSAMPLE = "subsample"
NORMALIZED_MEAN_L2 = "normalized_mean_l2"
CONSTANT = "constant"
LEARNER_KINDS = (ERM_LINEAR, GAUSSIAN_DP, SUBSAMPLE, NORMALIZED_MEAN_L2, CONSTANT)


@dataclass(frozen=True)
class Dataset:
    """An ordered sample of n ternary points, stored as an (n, d) int8 matrix."""

    z: np.ndarray

    def __post_init__(self):
        arr = ternary_int8(self.z)
        arr.setflags(write=False)
        if arr.ndim != 2:
            raise ValueError("dataset must be a 2-D (n, d) matrix")
        object.__setattr__(self, "z", arr)

    @classmethod
    def from_samples(cls, samples: Sequence[TernarySample]) -> "Dataset":
        if not samples:
            raise ValueError("dataset must contain at least one sample")
        d = samples[0].d
        if any(s.d != d for s in samples):
            raise ValueError("all samples must share the same dimension")
        return cls(np.stack([s.entries for s in samples]))

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def d(self) -> int:
        return self.z.shape[1]

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class LearnerConfig:
    """Which learner to run plus its kind-specific parameters.

    An error about one parameter names it first ('epsilon: ...').
    """

    kind: str
    epsilon: float | None = None
    delta: float | None = None
    subsample_m: int | None = None
    fixed_point: ParameterPoint | None = None

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
        if self.kind == CONSTANT and self.fixed_point is None:
            raise ValueError("constant requires a fixed_point")


def empirical_mean(data: Dataset) -> np.ndarray:
    # Accumulates in float64 without a float64 copy of the (n, d) matrix.
    return data.z.mean(axis=0, dtype=np.float64)


def gaussian_sigma(epsilon: float, delta: float, k_max: int, n: int) -> float:
    """Gaussian-mechanism noise scale for the empirical mean.

    Replacing one sample moves the mean by at most 2 sqrt(k_max) / n in l_2
    (each sample has k_max nonzero +/-1 entries), and the classical
    calibration sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon gives
    (epsilon, delta)-DP.  Valid for epsilon <= 1 and conservative above.
    """
    sensitivity = 2.0 * math.sqrt(k_max) / n
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def train(cfg: LearnerConfig, spec: ProblemSpec, data: Dataset, rng: np.random.Generator) -> ParameterPoint:
    """Run the configured learner and return a feasible parameter point.

    Only gaussian_dp consumes randomness; every other kind is a
    deterministic function of the dataset.
    """
    check_data(spec, data.z)
    if cfg.kind == CONSTANT:
        point = cfg.fixed_point
        if not is_feasible(spec, point.theta):
            raise ValueError("constant learner's fixed point is infeasible for this spec")
        return point
    if cfg.kind == SUBSAMPLE:
        if cfg.subsample_m > data.n:
            raise ValueError(f"subsample_m={cfg.subsample_m} exceeds dataset size n={data.n}")
        head = Dataset(data.z[: cfg.subsample_m])
        return train(LearnerConfig(ERM_LINEAR), spec, head, rng)

    mu_hat = empirical_mean(data)
    if cfg.kind == ERM_LINEAR:
        return support_argmax(spec, mu_hat)
    if cfg.kind == GAUSSIAN_DP:
        k_max = spec.data_sparsity
        sigma = gaussian_sigma(cfg.epsilon, cfg.delta, k_max, data.n)
        noisy = mu_hat + sigma * rng.standard_normal(spec.d)
        return support_argmax(spec, noisy)

    # normalized_mean_l2: target is the l_2 unit ball, not the spec's set.
    norm = float(np.linalg.norm(mu_hat))
    theta = np.zeros(spec.d) if norm < 1e-12 else mu_hat / norm
    return ParameterPoint(theta, is_feasible(spec, theta))


def measure_excess_risk(
    cfg: LearnerConfig,
    spec: ProblemSpec,
    prior: BetaPrior,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Bayesian average excess risk over mu ~ prior, with a 95% CI half-width.

    Each trial draws mu (clipped to the population box bound), a dataset of
    size n, trains, and records the closed-form excess risk.
    """
    if trials < 30:
        raise ValueError("trials must be >= 30 for a meaningful CI")
    if n < 1:
        raise ValueError("n must be >= 1")
    bound = spec.data_sparsity / spec.d
    risks = np.empty(trials)
    for t in range(trials):
        mu = np.clip(sample_prior(prior, rng).values, -bound, bound)
        pop = data_distribution(spec, mu)
        data = Dataset(sample_matrix(pop, n, rng))
        theta = train(cfg, spec, data, rng)
        risks[t] = excess_risk(spec, theta, mu)
    half = 1.96 * float(risks.std(ddof=1)) / math.sqrt(trials)
    return float(risks.mean()), half
