"""Sparse ternary data distributions and symmetric beta priors.

The data model is a mixture over supports: draw a uniformly random size-k
subset J of the d coordinates, put independent +/-1 entries with mean
(d/k)*mu_j on J, and zeros elsewhere.  The marginal mean of a sample is
exactly mu, which is why the family admits exact fingerprinting
identities.  Priors over mu are per-coordinate symmetric beta laws on
[-gamma, gamma] with density proportional to (1 - (x/gamma)^2)^(beta-1);
`prior_quadrature` provides Gauss-Jacobi rules that integrate polynomials
against that density exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

# Batch kernels work through row blocks of about this many entries, so their
# float64 working buffer stays cache-sized whatever n is.  A row longer than
# this is a block on its own.
BLOCK_ENTRIES = 2**16


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def ternary_int8(values) -> np.ndarray:
    """A new int8 array of `values`, which must all lie in {-1, 0, +1}.

    The check runs on the input's own dtype, before the cast, so values that
    an int8 cast would wrap or truncate into range (255, 0.5, NaN) are
    rejected.  int8 input takes a min/max bound check instead of a set test.
    """
    arr = np.asarray(values)
    if arr.dtype == np.int8:
        ok = arr.size == 0 or (arr.min() >= -1 and arr.max() <= 1)
    else:
        ok = bool(np.isin(arr, (-1, 0, 1)).all())
    if not ok:
        raise ValueError("entries must take values in {-1, 0, +1}")
    return np.array(arr, dtype=np.int8)


def row_blocks(n: int, width: int):
    """Yield (start, stop, buf) for the row blocks covering n rows of `width` entries.

    `buf` is a (stop - start, width) float64 view of one working buffer that
    every block reuses, so a caller's working memory is one block.
    """
    # Whole groups of four rows where a block has room for them: the gemv
    # kernels of numpy's bundled OpenBLAS take rows four at a time, so a
    # blocked product then matches the unblocked one bit for bit.
    rows = BLOCK_ENTRIES // width
    rows = rows - rows % 4 if rows >= 4 else max(1, rows)
    buf = np.empty(min(n, rows) * width)
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        yield start, stop, buf[: (stop - start) * width].reshape(stop - start, width)


def check_mean(mu, d: int, bound: float) -> np.ndarray:
    """A frozen float64 copy of the mean mu, which must be d finite entries
    with |mu_j| <= bound (to 1e-12): the one mean check of the library.  A NaN
    bound admits no mean."""
    arr = _frozen(mu)
    if arr.shape != (d,):
        raise ValueError(f"mean has shape {arr.shape}, expected ({d},)")
    if not np.isfinite(arr).all():
        raise ValueError("mean entries must be finite")
    if not np.max(np.abs(arr)) <= bound + 1e-12:
        raise ValueError(f"mean entries must satisfy |mu_j| <= {bound}")
    return arr


@dataclass(frozen=True)
class MeanVector:
    """Coordinate means constrained to a symmetric box [-box_bound, box_bound]^d."""

    values: np.ndarray
    box_bound: float

    def __post_init__(self):
        object.__setattr__(self, "values", check_mean(self.values, np.size(self.values), self.box_bound))


@dataclass(frozen=True)
class SparsePopulation:
    """Data distribution over k-sparse ternary vectors with mean mu.

    Requires |mu_j| <= k/d so the conditional sign probabilities
    (1 + (d/k) mu_j) / 2 stay in [0, 1].  E[Z] = mu: the (k/d) support
    probability cancels the (d/k) boost.
    """

    mu: np.ndarray
    k: int
    d: int

    def __post_init__(self):
        if not 1 <= self.k <= self.d:
            raise ValueError(f"sparsity k={self.k} must lie in [1, d={self.d}]")
        object.__setattr__(self, "mu", check_mean(self.mu, self.d, self.k / self.d))


@dataclass(frozen=True)
class BetaPrior:
    """Product of d rescaled symmetric beta laws on [-gamma, gamma].

    Per-coordinate density is proportional to (1 - (x/gamma)^2)^(beta-1);
    beta = 1 is the uniform law, large beta concentrates near zero with
    second moment gamma^2 / (2 beta + 1).
    """

    beta: float
    gamma: float
    d: int

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError("beta: must be positive and finite")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma: must lie in (0, 1]")
        if self.d < 1:
            raise ValueError("d: must be >= 1")


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in [-gamma, gamma] and probability weights for prior integration."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _frozen(self.nodes))
        object.__setattr__(self, "weights", _frozen(self.weights))
        if self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must have matching shapes")
        if np.any(self.weights <= 0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")


def _signs_into(u: np.ndarray, p_plus: np.ndarray, out: np.ndarray) -> None:
    """Write +1 where u < p_plus and -1 elsewhere into the int8 array `out`.

    The comparison lands in `out` through a bool view, and {0, 1} becomes
    {-1, +1} in place, so no wider integer temporary is built.
    """
    np.less(u, p_plus, out=out.view(np.bool_))
    out <<= 1
    out -= 1


def _uniform_blocks(rng: np.random.Generator, n: int, width: int):
    """`row_blocks` filled with uniforms, drawn in row order: together the
    blocks consume the stream exactly as rng.random((n, width)) would."""
    for i, j, u in row_blocks(n, width):
        rng.random(out=u)
        yield i, j, u


def sample_matrix(pop: SparsePopulation, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent draws as an (n, d) int8 matrix.

    For k < d each row's support is an exactly uniform k-subset from Floyd's
    algorithm, vectorized over rows: one rng.integers draw gives every row its
    k candidates, the i-th from [0, d - k + i], and round i keeps the i-th
    candidate unless the row already holds it, in which case it takes
    d - k + i.  The output matrix is the membership set, so no (n, d)
    working array is built.  One rng.random((n, k)) draw then gives the signs.
    The dense case k = d skips support selection and draws rng.random((n, d)).

    Uniforms are drawn row block by row block (see `row_blocks`), so the
    float64 working memory beyond the output is about BLOCK_ENTRIES entries;
    blocking changes no draw and no output.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    d, k = pop.d, pop.k
    p_plus = (1.0 + (d / k) * pop.mu) / 2.0
    if k == d:
        out = np.empty((n, d), dtype=np.int8)
        for i, j, u in _uniform_blocks(rng, n, d):
            _signs_into(u, p_plus, out[i:j])
        return out
    sel = rng.integers(0, np.arange(d - k + 1, d + 1), size=(n, k))
    out = np.zeros((n, d), dtype=np.int8)
    rows = np.arange(n)
    for i in range(k):
        t = sel[:, i]
        t[out[rows, t] != 0] = d - k + i
        out[rows, t] = 1
    signs = np.empty((n, k), dtype=np.int8)
    for i, j, u in _uniform_blocks(rng, n, k):
        _signs_into(u, p_plus[sel[i:j]], signs[i:j])
    np.put_along_axis(out, sel, signs, axis=1)
    return out


def pmf(pop: SparsePopulation, z) -> float:
    """Exact probability of a ternary vector under the sparse population.

    Zero unless z has exactly k nonzeros; otherwise
    C(d, k)^-1 * prod_{j in supp(z)} (1 + (d/k) mu_j z_j) / 2.
    """
    entries = ternary_int8(z)
    if entries.shape != (pop.d,):
        raise ValueError(f"sample has dimension {entries.shape}, expected ({pop.d},)")
    support = np.flatnonzero(entries)
    if support.size != pop.k:
        return 0.0
    factors = (1.0 + (pop.d / pop.k) * pop.mu[support] * entries[support]) / 2.0
    return float(np.prod(factors)) / math.comb(pop.d, pop.k)


def sample_prior(prior: BetaPrior, rng: np.random.Generator) -> MeanVector:
    """Draw mu ~ prior as gamma * (2 B - 1) with B ~ Beta(beta, beta) per coordinate.

    numpy's Beta sampler moves to log space where its variates underflow, so
    a tiny beta gives no 0/0 NaN; and |2 B - 1| <= 1 survives rounding, so
    |mu_j| <= gamma holds exactly.
    """
    values = prior.gamma * (2.0 * rng.beta(prior.beta, prior.beta, size=prior.d) - 1.0)
    return MeanVector(values, prior.gamma)


def prior_quadrature(prior: BetaPrior, max_degree: int) -> QuadratureRule:
    """Gauss-Jacobi rule exact for polynomials of degree <= max_degree.

    ceil((max_degree + 1) / 2) nodes suffice since an m-node Gauss rule is
    exact to degree 2m - 1.  Weights are normalized to the prior's unit
    mass and nodes rescaled to [-gamma, gamma].
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    m = max(1, math.ceil((max_degree + 1) / 2))
    nodes, weights = roots_jacobi(m, prior.beta - 1.0, prior.beta - 1.0)
    weights = weights / weights.sum()
    return QuadratureRule(prior.gamma * nodes, weights)


def mean_ci(values) -> tuple[float, float]:
    """Mean and 95% CI half-width 1.96 s / sqrt(n) of a sample (0 for one value)."""
    arr = np.asarray(values, dtype=float)
    half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size) if arr.size > 1 else 0.0
    return float(arr.mean()), half
