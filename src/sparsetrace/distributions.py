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


@dataclass(frozen=True, eq=False)
class SparseRows:
    """n k-sparse ternary rows of dimension d, 0 < k < d, stored as (support, signs).

    Row i is signs[i, j] in {-1, +1} at column support[i, j] and 0 elsewhere,
    with each row's columns strictly increasing: one form per dense row, so
    any formula over the rows gives the same bits as over their dense
    matrix read back by `sparse_rows`.  n rows take O(n k) memory where the
    dense matrix takes n d bytes.  The rows report that matrix's shape,
    ndim, size and dtype (int8), and np.asarray(rows) builds it.  Indexing
    selects rows (a slice or an index array) and gives a SparseRows.
    """

    signs: np.ndarray
    support: np.ndarray
    d: int

    def __post_init__(self):
        signs, support = np.asarray(self.signs).view(), np.asarray(self.support).view()
        if signs.dtype != np.int8 or signs.ndim != 2 or support.shape != signs.shape:
            raise ValueError("sparse rows take (n, k) int8 signs and (n, k) support indices")
        if support.dtype.kind not in "iu" or not 0 < signs.shape[1] < self.d:
            raise ValueError(f"sparse rows take integer support indices and 0 < k < d={self.d}")
        if signs.size and not (signs.min() >= -1 and signs.max() <= 1 and np.all(signs != 0)):
            raise ValueError("signs must take values in {-1, +1}")
        if support.size and not (support[:, 0].min() >= 0 and support[:, -1].max() < self.d
                                 and np.all(support[:, 1:] > support[:, :-1])):
            raise ValueError(f"each row's support must increase strictly within [0, {self.d})")
        for name, arr in (("signs", signs), ("support", support)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.signs.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.signs.shape[0], self.d

    ndim = 2
    dtype = np.dtype(np.int8)

    @property
    def size(self) -> int:
        return self.signs.shape[0] * self.d

    def __getitem__(self, rows) -> SparseRows:
        return SparseRows(self.signs[rows], self.support[rows], self.d)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("the dense matrix of sparse rows is always a new array")
        out = np.zeros(self.shape, dtype=np.int8)
        out[np.arange(self.shape[0])[:, None], self.support] = self.signs
        return out if dtype is None else out.astype(dtype, copy=False)


def sparse_rows(z, k: int) -> SparseRows:
    """z as SparseRows: z itself, or the rows of a ternary (n, d) array with
    exactly k < d nonzeros each, read off in column order."""
    if isinstance(z, SparseRows):
        if z.k != k:
            raise ValueError(f"every data point must have exactly {k} nonzeros")
        return z
    arr = ternary_int8(z)
    if arr.ndim != 2 or np.any(np.count_nonzero(arr, axis=1) != k):
        raise ValueError(f"every data point must have exactly {k} nonzeros")
    rows, cols = np.nonzero(arr)
    return SparseRows(arr[rows, cols].reshape(-1, k), cols.reshape(-1, k), arr.shape[1])


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


def _plus_minus(out: np.ndarray) -> None:
    """Map the int8 array `out` from {0, 1} to {-1, +1} in place, with no wider
    temporary.  out + out rather than out << 1: numpy's int8 add has a SIMD
    loop and its left shift does not.
    """
    np.add(out, out, out=out)
    out -= 1


def _byte_signs(rng: np.random.Generator, scaled: np.ndarray, n: int,
                support: np.ndarray | None = None) -> np.ndarray:
    """Independent int8 signs, +1 at column c with probability p_c = scaled[c] / 256:
    an (n, d) matrix whose entry (i, j) sits at column j, or, given an (n, k)
    `support`, an (n, k) matrix whose entry (i, j) sits at column support[i, j].

    Each entry spends one random byte b: with hi_c = min(floor(scaled_c), 255)
    and frac_c = scaled_c - hi_c, it is +1 where b < hi_c, and where b == hi_c
    (one entry in 256) exactly when a uniform is below frac_c.  So P(+1) =
    (hi_c + ceil(frac_c 2^53) 2^-53) / 256, within 2^-61 of p_c, and p_c = 0
    and p_c = 1 come out exactly.  The bytes are the little-endian bytes of
    ceil(size / 8) raw generator words, in row-major entry order; the tie
    uniforms come after all of them, one per tie in row-major order.  Flat
    blocks of a multiple of 8 entries consume whole words, so the stream is
    the same for any block size, and working memory is one block plus the
    tie indices (and, given a support, hi gathered through it).
    """
    d = scaled.size
    hi = np.empty(d, dtype=np.uint8)
    np.minimum(scaled, 255.0, out=hi, casting="unsafe")  # the cast floors, as scaled >= 0
    out = np.empty((n, d) if support is None else support.shape, dtype=np.int8)
    flat, total = out.reshape(-1), out.size
    step = max(8, BLOCK_ENTRIES - BLOCK_ENTRIES % 8)
    if support is None:
        # hi repeated over enough rows to cover any step entries from any
        # column; the block from entry `start` reads it from start % d.
        columns, hi_flat = None, np.tile(hi, -(-(d - 1 + min(step, total)) // d))
    else:
        columns = support.reshape(-1)
        hi_flat = hi[columns]
    ties = [np.empty(0, dtype=np.intp)]
    for start in range(0, total, step):
        stop = min(total, start + step)
        words = rng.bit_generator.random_raw(-(-(stop - start) // 8))
        b = words.astype("<u8", copy=False).view(np.uint8)[: stop - start]
        at = start % d if columns is None else start
        h = hi_flat[at: at + stop - start]
        np.less(b, h, out=flat[start:stop].view(np.bool_))
        ties.append(np.flatnonzero(b == h) + start)
    ties = np.concatenate(ties)
    tied = ties % d if columns is None else columns[ties]
    flat[ties] = rng.random(ties.size) < scaled[tied] - hi[tied]
    _plus_minus(out)
    return out


def _distinct_columns(rng: np.random.Generator, n: int, d: int, m: int) -> np.ndarray:
    """(n, m) column indices, each row an exactly uniform m-subset of range(d)
    in increasing order, 0 < m <= d.

    One rng.integers call draws m iid columns per row, and each row is
    sorted.  Then, round after round, every row short of m distinct columns
    redraws its repeated entries: one rng.integers call draws the deficits
    of all rows, in row order, and the rows it touched are sorted again.

    The law is uniform.  A row's state is its set S of distinct columns;
    the first draw and each round (keep S, add m - |S| iid uniform columns)
    commute with every relabelling sigma of range(d): S -> T has the
    probability of sigma(S) -> sigma(T), and the start has a
    relabelling-invariant law.  So the final m-set, reached with probability
    1, has a law invariant under every permutation of range(d), and the
    permutations act transitively on m-subsets: every m-subset has the same
    probability.  A redrawn entry repeats again with probability below m / d,
    so at m << d the rounds shrink fast.  Working memory is O(n m) whatever d
    is.
    """
    cols = rng.integers(0, d, size=(n, m))
    cols.sort(axis=1)
    rows, block = None, cols
    while True:
        repeat = block[:, 1:] == block[:, :-1]
        short = repeat.any(axis=1)
        if not short.any():
            return cols
        rows = np.flatnonzero(short) if rows is None else rows[short]
        block = cols[rows]
        block[:, 1:][repeat[short]] = rng.integers(0, d, size=np.count_nonzero(repeat))
        block.sort(axis=1)
        cols[rows] = block


def sample_matrix(pop: SparsePopulation, n: int, rng: np.random.Generator) -> np.ndarray | SparseRows:
    """n independent draws: an (n, d) int8 matrix at k = d, a `SparseRows` at k < d.

    Each sign spends one random byte (`_byte_signs`): +1 where the byte is
    below min(floor(256 p_j), 255), p_j = (1 + (d/k) mu_j) / 2 for its column
    j, and a float64 uniform, drawn after all the bytes, settles the one sign
    in 256 whose byte equals it.  For k < d the supports come first, from
    `_distinct_columns`: at k <= d/2 its m = k columns are the support; past
    d/2 its m = d - k columns are the ones left out, and the support is the
    rest.  The rows and the sampler's working memory are O(n k + d): no
    (n, d) array is built below d/2.

    Sign draws are made in blocks of about BLOCK_ENTRIES entries, so that
    many are held at a time; blocking changes no draw and no output.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    d, k = pop.d, pop.k
    scaled = (d / k) * pop.mu  # 256 p_j, built in place: d may be large
    scaled += 1.0
    scaled *= 128.0
    if k == d:
        return _byte_signs(rng, scaled, n)
    support = _distinct_columns(rng, n, d, min(k, d - k))
    if 2 * k > d:
        left = np.ones((n, d), dtype=np.bool_)
        left[np.arange(n)[:, None], support] = False
        support = np.flatnonzero(left)
        support = np.remainder(support, d, out=support).reshape(n, k)
    return SparseRows(_byte_signs(rng, scaled, n, support), support, d)


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
    # Imported here, not at module level: scipy is the package's slowest
    # import, and only the identity oracles and `verify` need this rule.
    from scipy.special import roots_jacobi

    m = max(1, math.ceil((max_degree + 1) / 2))
    nodes, weights = roots_jacobi(m, prior.beta - 1.0, prior.beta - 1.0)
    weights = weights / weights.sum()
    return QuadratureRule(prior.gamma * nodes, weights)


def mean_ci(values) -> tuple[float, float]:
    """Mean and 95% CI half-width 1.96 s / sqrt(n) of a sample (0 for one value)."""
    arr = np.asarray(values, dtype=float)
    half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size) if arr.size > 1 else 0.0
    return float(arr.mean()), half
