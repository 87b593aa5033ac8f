"""Brute-force verification of the fingerprinting identities on small instances.

These checkers never sample: every multiset of n atoms is enumerated with
its exact probability and its number of orderings, and the learner sees it
once, in canonical order.  A dataset's likelihood factors over coordinates
and the prior is a product law, so the prior integral over the mean is a
one-coordinate Gauss sum of sufficient degree per coordinate, and both
sides of each identity are computed to floating-point accuracy.  They are
the independent path against which the Monte Carlo machinery is validated.

The sparse identity states that, with mu drawn from the matching prior,

    E sum_i <theta_hat, (Z_i - (d/k) mu)>_supp(Z_i)
        = (2 beta d / k) * E <mu, E[theta_hat]>,

and the scaling-matrix identity is the dense analogue with factor
2 beta / gamma^2.  The rational scaling factor (1 - (mu/g)^2)/(1 - mu^2)
is integrable exactly because, for z in {-1, +1},
(z - mu)(1 + z mu) = (1 - mu^2) z, which cancels the denominator against
the sample's probability weight and leaves a polynomial integrand.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import BetaPrior, QuadratureRule, mean_ci, prior_quadrature, sample_prior
from .problems import BOX_LP, ProblemSpec, support_argmax

ENUMERATION_LIMIT = 10**7

Learner = Callable[[np.ndarray], np.ndarray]


class EnumerationLimitError(RuntimeError):
    """Raised when an instance would need more weighted terms than allowed."""


@dataclass(frozen=True)
class IdentityCheckResult:
    """Both sides of one identity instance and their relative error."""

    lhs: float
    rhs: float
    rel_error: float
    instance: str

    @classmethod
    def compare(cls, lhs: float, rhs: float, instance: str) -> "IdentityCheckResult":
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        return cls(lhs=lhs, rhs=rhs, rel_error=rel, instance=instance)


def _index(name: str, value) -> int:
    """`value` as an int; a float or any other non-integer raises ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: must be an integer, got {value!r}") from None


def ternary_atoms(d: int, k: int) -> np.ndarray:
    """All k-sparse ternary vectors in dimension d, as an (A, d) int8 matrix."""
    d, k = _index("d", d), _index("k", k)
    if not 0 <= k <= d:
        raise ValueError(f"k: must lie in [0, d], got k={k}, d={d}")
    supports = list(itertools.combinations(range(d), k))
    signs = list(itertools.product((-1, 1), repeat=k))
    atoms = np.zeros((len(supports), len(signs), d), dtype=np.int8)
    for block, support in zip(atoms, supports):
        block[:, list(support)] = signs
    return atoms.reshape(len(supports) * len(signs), d)


def _enumerate(prior: BetaPrior, degree: int, k: int, n: int, learner: Learner):
    """(rule, z_sets, orderings, thetas): the prior's Gauss rule exact to `degree`, the
    shape's `_multisets`, and the learner's output on each, given a new float64 copy per
    call.  Raises EnumerationLimitError before any atom is built or cached if too big."""
    rule = prior_quadrature(prior, degree)
    terms = (math.comb(prior.d, k) * 2**k) ** n * rule.nodes.size**prior.d
    if terms > ENUMERATION_LIMIT:
        raise EnumerationLimitError(f"instance needs {terms} weighted terms > {ENUMERATION_LIMIT}")
    z_sets, orderings = _multisets(prior.d, k, n)
    thetas = np.stack([np.asarray(learner(z), dtype=float) for z in z_sets.astype(np.float64)])
    return rule, z_sets, orderings, thetas


@functools.lru_cache(maxsize=32)
def _multisets(d: int, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every multiset of n k-sparse atoms in dimension d as a read-only (N, n, d) int8
    stack in canonical order (nondecreasing `ternary_atoms` index), and each one's
    n! / prod_a c_a! orderings: both identities are symmetric sums over the samples, so
    one term stands for all orderings.  Built once per process; the last 32 are kept."""
    n_atoms = math.comb(d, k) * 2**k
    idx = np.array(list(itertools.combinations_with_replacement(range(n_atoms), n)), dtype=np.int64)
    # In a sorted row, sample i's rank among the equal samples up to it runs
    # 1..c_a over atom a's run, so the ranks multiply to prod_a c_a!.
    ranks = np.tril(idx[:, :, None] == idx[:, None, :]).sum(axis=2)
    orderings = math.factorial(n) / ranks.prod(axis=1, dtype=np.float64)
    z_sets = ternary_atoms(d, k)[idx]
    z_sets.setflags(write=False)
    orderings.setflags(write=False)
    return z_sets, orderings


def _coordinate_moments(rule: QuadratureRule, z_sets: np.ndarray, ratio: float,
                        tilts: Sequence[np.ndarray]):
    """(p_sets, posts): each dataset's probability up to the atoms' support factor,
    and per tilt t, given as its values at the rule's nodes, the (N, d) posterior
    means E[t(mu_j) | D].  Coordinate j enters the likelihood only through its
    +1 and -1 counts, as g_j(x) = ((1 + ratio x)/2)^P_j ((1 - ratio x)/2)^Q_j.
    The prior is a product law, so p = prod_j E[g_j] and E[t | D] = E[t g_j] / E[g_j].
    """
    plus = (z_sets > 0).sum(axis=1, dtype=np.int8)
    minus = (z_sets < 0).sum(axis=1, dtype=np.int8)
    mass = np.zeros(plus.shape)
    tilted = np.zeros((len(tilts),) + plus.shape)
    for i, (x, w) in enumerate(zip(rule.nodes, rule.weights)):
        g = w * ((1.0 + ratio * x) / 2.0) ** plus * ((1.0 - ratio * x) / 2.0) ** minus
        mass += g
        for t, acc in zip(tilts, tilted):
            acc += t[i] * g
    return mass.prod(axis=1), tilted / mass


def verify_sparse_identity(d: int, k: int, n: int, beta: float, learner: Learner,
                           name: str = "learner") -> IdentityCheckResult:
    """Exact check of the sparse fingerprinting identity.

    The left side enumerates every dataset of n atoms weighted by its exact
    probability and integrates over mu coordinate by coordinate with a Gauss
    rule of degree n + 2 (the integrand has per-coordinate degree n + 1).
    The learner must be a deterministic map from the (n, d) sample matrix
    to a parameter vector; finitely randomized learners are handled by
    averaging their outputs over an explicit coin set before calling this.
    It sees each multiset of samples once, in canonical order, so for an
    order-dependent learner the check is of "sort the samples into canonical
    order, then learn", itself a deterministic learner.
    """
    d, k, n = _index("d", d), _index("k", k), _index("n", n)
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    if n < 1:
        raise ValueError("n must be >= 1")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    rule, z_sets, orderings, thetas = _enumerate(BetaPrior(beta=beta, gamma=k / d, d=d), n + 2,
                                                 k, n, learner)
    ratio = d / k
    p_sets, (post_mu,) = _coordinate_moments(rule, z_sets, ratio, (rule.nodes,))
    p_sets *= orderings / math.comb(d, k) ** n
    # sum_i <theta, Z_i - ratio E[mu | D]> over each sample's support.
    centered = z_sets.sum(axis=1) - ratio * np.count_nonzero(z_sets, axis=1) * post_mu
    lhs = float(p_sets @ np.einsum("nd,nd->n", thetas, centered))
    rhs = (2.0 * beta * ratio) * float(p_sets @ np.einsum("nd,nd->n", thetas, post_mu))
    return IdentityCheckResult.compare(
        lhs, rhs, f"sparse d={d} k={k} n={n} beta={beta:g} learner={name}"
    )


def verify_scaling_identity(d: int, n: int, beta: float, gamma: float, learner: Learner,
                            name: str = "learner") -> IdentityCheckResult:
    """Exact check of the scaling-matrix identity on the dense +/-1 cube.

    gamma = 1 is allowed (the scaling matrix degenerates to the identity
    and the check reduces to the dense fingerprinting identity); gamma > 1
    is rejected.  Quadrature degree n + 3 covers the polynomial left by the
    (z - mu)(1 + z mu) = (1 - mu^2) z reduction.
    """
    d, n = _index("d", d), _index("n", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not beta > 0:
        raise ValueError("beta must be positive")
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    rule, z_sets, orderings, thetas = _enumerate(BetaPrior(beta=beta, gamma=gamma, d=d), n + 3,
                                                 d, n, learner)  # the dense cube
    # L = (1 - (mu/gamma)^2) / (1 - mu^2), finite at the interior nodes.  Summed
    # over the samples, L (z_ij - mu_j) = L (S_j - n mu_j), S_j the column sum; its
    # product with g_j is a polynomial, so the two moments combine exactly.
    scale = (1.0 - (rule.nodes / gamma) ** 2) / (1.0 - rule.nodes**2)
    p_sets, (post_mu, post_scale, post_scaled_mu) = _coordinate_moments(
        rule, z_sets, 1.0, (rule.nodes, scale, rule.nodes * scale))
    p_sets *= orderings
    centered = z_sets.sum(axis=1) * post_scale - n * post_scaled_mu
    lhs = float(p_sets @ np.einsum("nd,nd->n", thetas, centered))
    rhs = (2.0 * beta / gamma**2) * float(p_sets @ np.einsum("nd,nd->n", thetas, post_mu))
    return IdentityCheckResult.compare(
        lhs, rhs, f"scaling d={d} n={n} beta={beta:g} gamma={gamma:g} learner={name}"
    )


def check_beta_abs_moment(beta: float, gamma: float, n_samples: int,
                          rng: np.random.Generator) -> tuple[float, float, bool]:
    """Monte Carlo check of E|X| >= gamma / (3 sqrt(beta)) for the prior.

    Returns (estimate, bound, passed) where passed allows the estimate a
    95% CI of slack.  The bound is only claimed for beta >= 1.
    """
    if beta < 1:
        raise ValueError("the absolute-moment bound requires beta >= 1")
    if n_samples < 10**4:
        raise ValueError("n_samples must be >= 10^4")
    prior = BetaPrior(beta=beta, gamma=gamma, d=n_samples)
    estimate, ci = mean_ci(np.abs(sample_prior(prior, rng).values))
    bound = gamma / (3.0 * math.sqrt(beta))
    return estimate, bound, estimate + ci >= bound


def check_card_moments(vectors: Sequence[np.ndarray], betas: Sequence[float]):
    """Exact check of the counting bound on every (vector, beta) pair.

    For a in R^n with A1 = sum a_i and A2 = sum a_i^2, the count of entries
    a_i >= beta/n must be at least max(A1 - max(beta, 0), 0)^2 / A2 (0 when
    A2 = 0): the bound holds for beta >= 0 and negative betas only relax
    the counting threshold, so they are clamped on the right-hand side.
    Returns (passed, first_counterexample); empty or non-finite input raises.
    """
    if len(vectors) == 0 or len(vectors) != len(betas):
        raise ValueError("need equally many nonempty vectors and betas")
    for a, beta in zip(vectors, betas):
        a = np.asarray(a, dtype=float)
        if a.size == 0 or not (np.isfinite(a).all() and math.isfinite(beta)):
            raise ValueError("every vector must be nonempty, and every entry and beta finite")
        count = int(np.count_nonzero(a >= beta / a.size))
        a2 = float(np.sum(a**2))
        bound = 0.0 if a2 == 0.0 else max(float(np.sum(a)) - max(beta, 0.0), 0.0) ** 2 / a2
        if count < bound:
            return False, (a, beta, count, bound)
    return True, None


# Deterministic learners exercised by the verification grid.  Each is called once per
# multiset, so each takes the mean by the bare reduction that `ndarray.mean` wraps.

def mean_clipped(z: np.ndarray) -> np.ndarray:
    """Empirical mean clipped to the unit box."""
    return np.minimum(np.maximum(np.add.reduce(z, 0) / z.shape[0], -1.0), 1.0)


def mean_box_vertex(z: np.ndarray) -> np.ndarray:
    """ERM-style map: box vertex aligned with the empirical mean (p = 2)."""
    return support_argmax(ProblemSpec(BOX_LP, d=z.shape[1]), np.add.reduce(z, 0) / z.shape[0]).theta


def mean_cubed(z: np.ndarray) -> np.ndarray:
    """A fixed nonlinear map: coordinatewise cube of the empirical mean."""
    return (np.add.reduce(z, 0) / z.shape[0]) ** 3


GRID_LEARNERS = (
    ("mean_clipped", mean_clipped),
    ("mean_box_vertex", mean_box_vertex),
    ("mean_cubed", mean_cubed),
)


def _agreement_check(d: int, n: int) -> IdentityCheckResult:
    """The two oracles compute the same quantity at k = d, gamma = 1."""
    sparse = verify_sparse_identity(d, d, n, 2.0, mean_clipped, name="mean_clipped")
    dense = verify_scaling_identity(d, n, 2.0, 1.0, mean_clipped, name="mean_clipped")
    return IdentityCheckResult.compare(
        sparse.lhs, dense.lhs, f"agreement k=d d={d} n={n} beta=2 learner=mean_clipped"
    )


def verification_grid() -> list[IdentityCheckResult]:
    """Run the `verify` battery serially.

    Sparse instances on d in {1,2,3}, k in {1..d}, n in {1,2},
    beta in {1,2,5} for three learners; scaling instances on d in {1,2},
    n in {1,2}, beta in {1,3}, gamma in {0.3, 0.9}; and the gamma = 1
    agreement between the two oracles at k = d on a shared learner.
    """
    results = []
    for d in (1, 2, 3):
        for k in range(1, d + 1):
            for n in (1, 2):
                for beta in (1.0, 2.0, 5.0):
                    for name, fn in GRID_LEARNERS:
                        results.append(verify_sparse_identity(d, k, n, beta, fn, name=name))
    for d in (1, 2):
        for n in (1, 2):
            for beta in (1.0, 3.0):
                for gamma in (0.3, 0.9):
                    for name, fn in GRID_LEARNERS:
                        results.append(verify_scaling_identity(d, n, beta, gamma, fn, name=name))
    for d in (1, 2):
        for n in (1, 2):
            results.append(_agreement_check(d, n))
    return results
