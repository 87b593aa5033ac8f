"""Hard linear-loss problem instances over two feasible-set geometries.

Both instances share the linear loss shape f(theta, z) = -scale * <theta, z>
and a feasible box of radius `ProblemSpec.box_radius`, so population risks
and the optimum have closed forms:

* ``box_lp``: Theta is the l-infinity ball of radius d^(-1/p) (the largest
  box inscribed in the unit l_p ball), data are k-sparse ternary vectors,
  and the loss carries a k^(-(p-1)/p) normalization that makes f
  1-Lipschitz in l_p.
* ``l1_capped``: Theta is the l_1 ball intersected with the box of radius
  1/s, data are dense +/-1 vectors.  At s = 1 the box is inactive and Theta
  is the plain l_1 ball, the counterexample on which an accurate learner
  snaps to a vertex and leaks nothing about individual samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import SparsePopulation, check_mean, ternary_int8

BOX_LP = "box_lp"
L1_CAPPED = "l1_capped"
VARIANTS = (BOX_LP, L1_CAPPED)

FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class ProblemSpec:
    """One problem instance.  box_lp takes the norm index `p` (default 2) and
    the data sparsity `k` (default d); l1_capped takes the cap `s`, and its
    data are dense, so its k is d.  Defaults are filled in here.

    Each error names the offending parameter first ('p: ...').
    """

    variant: str
    d: int
    p: float | None = None
    k: int | None = None
    s: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant: must be one of {VARIANTS}")
        if self.d < 1:
            raise ValueError("d: must be >= 1")
        if self.variant == BOX_LP:
            if self.p is None:
                object.__setattr__(self, "p", 2.0)
            if self.k is None:
                object.__setattr__(self, "k", self.d)
            if not 1 <= self.p < math.inf:
                raise ValueError("p: must lie in [1, inf)")
            if not 1 <= self.k <= self.d:
                raise ValueError(f"k: box_lp requires sparsity k in [1, d={self.d}]")
            if self.s is not None:
                raise ValueError("s: only l1_capped takes a cap, not box_lp")
            return
        if self.p is not None:
            raise ValueError("p: only box_lp takes a norm index")
        if self.k is None:
            object.__setattr__(self, "k", self.d)
        if self.k != self.d:
            raise ValueError(f"k: l1_capped data are dense, so k must be d={self.d}")
        if not 1 <= (self.s or 0) <= self.d:
            raise ValueError(f"s: l1_capped requires a cap s in [1, d={self.d}]")

    @property
    def loss_scale(self) -> float:
        """k^(-(p-1)/p) for box_lp (1 at p = 1, the continuous limit), else 1."""
        if self.variant != BOX_LP:
            return 1.0
        return float(self.k) ** (-(self.p - 1.0) / self.p)

    @property
    def box_radius(self) -> float:
        """Radius of the feasible set's box: d^(-1/p) on box_lp, 1/s on l1_capped."""
        if self.variant != BOX_LP:
            return 1.0 / self.s
        return float(self.d) ** (-1.0 / self.p)

    @property
    def mean_bound(self) -> float:
        """Bound k/d on every |mu_j|: 1 on l1_capped, whose data are dense."""
        return self.k / self.d


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
    """Membership in the box of radius `box_radius`, cut on l1_capped by the
    unit l_1 ball, with tolerance FEASIBILITY_TOL on each constraint."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.d,):
        return False
    mags = np.abs(theta)
    return bool(np.max(mags) <= spec.box_radius + FEASIBILITY_TOL
                and (spec.variant == BOX_LP or np.sum(mags) <= 1.0 + FEASIBILITY_TOL))


def check_data(spec: ProblemSpec, z: np.ndarray) -> None:
    """Require z to be n >= 1 rows of the spec's data space: d ternary entries
    with exactly `spec.k` nonzeros each.

    Entry values are checked when the rows are cast to int8 (see
    `distributions.ternary_int8`), before this check runs.
    """
    if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] != spec.d:
        raise ValueError(f"data has shape {z.shape}, expected (n >= 1, {spec.d})")
    if np.any(np.count_nonzero(z, axis=1) != spec.k):
        raise ValueError(f"every data point must have exactly {spec.k} nonzeros")


def loss(spec: ProblemSpec, theta: ParameterPoint, z: np.ndarray) -> float:
    """Linear loss -scale * <theta, z> at one data point z; requires a feasible theta."""
    if not theta.feasible:
        raise ValueError("loss evaluated at an infeasible parameter point")
    entries = ternary_int8(z)
    check_data(spec, entries[np.newaxis])
    return -spec.loss_scale * float(np.dot(theta.theta, entries.astype(float)))


def support_argmax(spec: ProblemSpec, v: np.ndarray) -> ParameterPoint:
    """Closed-form maximizer of <theta, v> over the feasible set: box_radius * sign(v),
    zeroed on l1_capped outside the s largest |v_j|.  Ties break deterministically,
    sign(0) = +1 and lowest index first, so identical inputs map to identical points."""
    v = np.asarray(v, dtype=float)
    if v.shape != (spec.d,):
        raise ValueError(f"direction has shape {v.shape}, expected ({spec.d},)")
    theta = spec.box_radius * np.where(v >= 0, 1.0, -1.0)
    if spec.variant != BOX_LP:
        theta[np.argsort(-np.abs(v), kind="stable")[spec.s:]] = 0.0
    return ParameterPoint(theta, True)


def excess_risk(spec: ProblemSpec, theta: ParameterPoint, mu: np.ndarray) -> float:
    """Population risk gap scale * <theta* - theta, mu>, theta* = support_argmax(spec, mu),
    exact by linearity of the loss: theta*, and every coordinate agreeing with it, scores
    exactly 0.  Clamped at zero: a theta up to FEASIBILITY_TOL outside the box can beat
    theta* by that much, and l1_capped's mixed-sign terms can round below zero."""
    if not theta.feasible:
        raise ValueError("excess risk evaluated at an infeasible parameter point")
    values = check_mean(mu, spec.d, spec.mean_bound)
    gap = float(np.dot(support_argmax(spec, values).theta - theta.theta, values))
    return max(spec.loss_scale * gap, 0.0)


def data_distribution(spec: ProblemSpec, mu: np.ndarray) -> SparsePopulation:
    """Population over the spec's data space with mean mu.

    box_lp uses the k-sparse family; l1_capped uses the dense product of
    +/-1 coins (the k = d member of the same family).
    """
    return SparsePopulation(mu, spec.k, spec.d)

