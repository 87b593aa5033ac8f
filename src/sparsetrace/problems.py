"""Hard linear-loss problem instances over three feasible-set geometries.

All three instances share the linear loss shape f(theta, z) = -scale * <theta, z>,
so population risks, optimal risks, and support-function maximizers have
closed forms:

* ``box_lp``: Theta is the l-infinity ball of radius d^(-1/p) (the largest
  box inscribed in the unit l_p ball), data are k-sparse ternary vectors,
  and the loss carries a k^(-1/q) normalization (q the Holder conjugate)
  that makes f 1-Lipschitz in l_p.
* ``l1_capped``: Theta is the l_1 ball intersected with the box of radius
  1/s, data are dense +/-1 vectors.
* ``l1_counterexample``: Theta is the plain l_1 ball; an accurate learner
  here snaps to a vertex and leaks nothing about individual samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import SparsePopulation, check_mean, ternary_int8

BOX_LP = "box_lp"
L1_CAPPED = "l1_capped"
L1_COUNTEREXAMPLE = "l1_counterexample"
VARIANTS = (BOX_LP, L1_CAPPED, L1_COUNTEREXAMPLE)

FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class ProblemSpec:
    """One problem instance; `p`, `k` apply to box_lp and the cap `s` to l1_capped only.

    Each error names the offending parameter first ('p: ...').
    """

    variant: str
    d: int
    p: float = 2.0
    k: int | None = None
    s: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant: must be one of {VARIANTS}")
        if self.d < 1:
            raise ValueError("d: must be >= 1")
        if not 1 <= self.p < math.inf:
            raise ValueError("p: must lie in [1, inf)")
        if self.variant == BOX_LP and (self.k is None or not 1 <= self.k <= self.d):
            raise ValueError(f"k: box_lp requires sparsity k in [1, d={self.d}]")
        if self.variant != L1_CAPPED and self.s is not None:
            raise ValueError(f"s: only l1_capped takes a cap, not {self.variant}")
        if self.variant == L1_CAPPED and not 1 <= (self.s or 0) <= self.d:
            raise ValueError(f"s: l1_capped requires a cap s in [1, d={self.d}]")

    @property
    def q(self) -> float:
        """Holder conjugate p / (p - 1); +inf at p = 1."""
        return float("inf") if self.p == 1.0 else self.p / (self.p - 1.0)

    @property
    def loss_scale(self) -> float:
        """k^(-1/q) for box_lp (1 at p = 1, the continuous limit), else 1."""
        if self.variant != BOX_LP:
            return 1.0
        return float(self.k) ** (-(self.p - 1.0) / self.p)

    @property
    def box_radius(self) -> float:
        """Radius d^(-1/p) of the box_lp feasible set."""
        if self.variant != BOX_LP:
            raise ValueError("box_radius only applies to box_lp")
        return float(self.d) ** (-1.0 / self.p)

    @property
    def data_sparsity(self) -> int:
        """Nonzero count of every data vector: k for box_lp, d otherwise."""
        return self.k if self.variant == BOX_LP else self.d

    @property
    def mean_bound(self) -> float:
        """Bound data_sparsity / d on every |mu_j|: k/d for box_lp, 1 otherwise."""
        return self.data_sparsity / self.d

    @property
    def cap(self) -> int:
        """The cap s on l1_capped and 1 elsewhere: the scale of the l1 score and prior."""
        return self.s if self.s is not None else 1


@dataclass(frozen=True)
class ParameterPoint:
    """A candidate parameter vector with a feasibility tag."""

    theta: np.ndarray
    feasible: bool

    def __post_init__(self):
        arr = np.array(self.theta, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "theta", arr)


def is_feasible(spec: ProblemSpec, theta: np.ndarray) -> bool:
    """Membership in the feasible set, with tolerance FEASIBILITY_TOL on norm constraints."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.d,):
        return False
    if spec.variant == BOX_LP:
        return bool(np.max(np.abs(theta)) <= spec.box_radius + FEASIBILITY_TOL)
    if np.sum(np.abs(theta)) > 1.0 + FEASIBILITY_TOL:
        return False
    if spec.variant == L1_CAPPED:
        return bool(np.max(np.abs(theta)) <= 1.0 / spec.s + FEASIBILITY_TOL)
    return True


def check_data(spec: ProblemSpec, z: np.ndarray) -> None:
    """Require z to be n >= 1 rows of the spec's data space: d ternary entries
    with exactly `spec.data_sparsity` nonzeros each.

    Entry values are checked when the rows are cast to int8 (see
    `distributions.ternary_int8`), before this check runs.
    """
    if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] != spec.d:
        raise ValueError(f"data has shape {z.shape}, expected (n >= 1, {spec.d})")
    if np.any(np.count_nonzero(z, axis=1) != spec.data_sparsity):
        raise ValueError(f"every data point must have exactly {spec.data_sparsity} nonzeros")


def loss(spec: ProblemSpec, theta: ParameterPoint, z: np.ndarray) -> float:
    """Linear loss -scale * <theta, z> at one data point z; requires a feasible theta."""
    if not theta.feasible:
        raise ValueError("loss evaluated at an infeasible parameter point")
    entries = ternary_int8(z)
    check_data(spec, entries[np.newaxis])
    return -spec.loss_scale * float(np.dot(theta.theta, entries.astype(float)))


def support_maximum(spec: ProblemSpec, v: np.ndarray) -> float:
    """sup over the feasible set of <theta, v>, in closed form."""
    v = np.asarray(v, dtype=float)
    if spec.variant == BOX_LP:
        return spec.box_radius * float(np.sum(np.abs(v)))
    if spec.variant == L1_CAPPED:
        mags = np.sort(np.abs(v))[::-1]
        return float(np.sum(mags[: spec.s])) / spec.s
    return float(np.max(np.abs(v)))


def support_argmax(spec: ProblemSpec, v: np.ndarray) -> ParameterPoint:
    """Closed-form maximizer of <theta, v> over the feasible set.

    Tie-breaking is deterministic: sign(0) = +1 and lowest index first, so
    identical inputs always map to identical parameter points.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (spec.d,):
        raise ValueError(f"direction has shape {v.shape}, expected ({spec.d},)")
    signs = np.where(v >= 0, 1.0, -1.0)
    if spec.variant == BOX_LP:
        return ParameterPoint(spec.box_radius * signs, True)
    theta = np.zeros(spec.d)
    if spec.variant == L1_CAPPED:
        top = np.argsort(-np.abs(v), kind="stable")[: spec.s]
        theta[top] = signs[top] / spec.s
    else:
        j = int(np.argmax(np.abs(v)))
        theta[j] = signs[j]
    return ParameterPoint(theta, True)


def excess_risk(spec: ProblemSpec, theta: ParameterPoint, mu: np.ndarray) -> float:
    """Population risk gap scale * (sup_<theta', mu> - <theta, mu>).

    Exact by linearity of the loss; clamped at zero to absorb rounding when
    theta attains the support maximum.
    """
    if not theta.feasible:
        raise ValueError("excess risk evaluated at an infeasible parameter point")
    values = check_mean(mu, spec.d, spec.mean_bound)
    gap = support_maximum(spec, values) - float(np.dot(theta.theta, values))
    return max(spec.loss_scale * gap, 0.0)


def data_distribution(spec: ProblemSpec, mu: np.ndarray) -> SparsePopulation:
    """Population over the spec's data space with mean mu.

    box_lp uses the k-sparse family; the l1 variants use the dense product
    of +/-1 coins (the k = d member of the same family).
    """
    return SparsePopulation(mu, spec.data_sparsity, spec.d)

