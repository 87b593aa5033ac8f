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

# The sign sampler and the dense scorer walk their rows in whole-row blocks of
# about this many entries (`block_rows`), so their working memory stays
# cache-sized whatever n is.
BLOCK_ENTRIES = 2**16


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def check_ternary(values) -> np.ndarray:
    """`values` as an array, not copied, once every entry is checked to lie in {-1, 0, +1}.

    The check runs on the input's own dtype, so values that an int8 cast
    would wrap or truncate into range (255, 0.5, NaN) are rejected.
    """
    arr = np.asarray(values)
    if not np.isin(arr, (-1, 0, 1)).all():
        raise ValueError("entries must take values in {-1, 0, +1}")
    return arr


@dataclass(frozen=True, eq=False)
class SparseRows:
    """n k-sparse ternary rows of dimension d, 0 < k < d, stored as (support, signs).

    Row i is signs[i, j] in {-1, +1} at column support[i, j] and 0 elsewhere,
    with each row's columns strictly increasing: one form per dense row, so
    any formula over the rows gives the same bits as over their dense
    matrix read back by `as_rows`.  n rows take O(n k) memory where the
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
                                 and not _stalls(support).size):
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


@dataclass(frozen=True, eq=False)
class SignRows:
    """n dense rows of -1s and +1s of dimension d >= 1 (k = d), stored as sign bits.

    `bits` is an (n, ceil(d / 8)) uint8 matrix in np.packbits order: row i's
    entry j is bit 7 - j % 8 of bits[i, j // 8], 1 for +1 and 0 for -1, and
    the padding bits past d are 0.  So each dense row has one form, and any
    formula over the rows gives the same bits as over their dense matrix read
    back by `as_rows`.  n rows take n ceil(d / 8) bytes where the dense
    matrix takes n d.  As `SparseRows` do, the rows report that matrix's
    shape, ndim, size and dtype (int8), np.asarray(rows) builds it, and
    indexing (a slice or an index array) selects rows.
    """

    bits: np.ndarray
    d: int

    def __post_init__(self):
        bits = np.asarray(self.bits).view()
        width = -(-self.d // 8)
        if self.d < 1 or bits.dtype != np.uint8 or bits.ndim != 2 or bits.shape[1] != width:
            raise ValueError(f"sign rows take an (n, {width}) uint8 bit matrix and d >= 1")
        if self.d % 8 and np.any(bits[:, -1] & (0xFF >> self.d % 8)):
            raise ValueError(f"the padding bits past column d={self.d} must be 0")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @property
    def k(self) -> int:
        return self.d

    @property
    def shape(self) -> tuple[int, int]:
        return self.bits.shape[0], self.d

    ndim = 2
    dtype = np.dtype(np.int8)

    @property
    def size(self) -> int:
        return self.bits.shape[0] * self.d

    def __getitem__(self, rows) -> SignRows:
        return SignRows(self.bits[rows], self.d)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("the dense matrix of sign rows is always a new array")
        out = np.unpackbits(self.bits, axis=1, count=self.d).view(np.int8)
        np.add(out, out, out=out)  # {0, 1} to {-1, +1}, as in `_byte_signs`
        out -= 1
        return out if dtype is None else out.astype(dtype, copy=False)


def as_rows(z) -> SignRows | SparseRows:
    """z as rows: z itself if it is `SignRows` or `SparseRows`, else the rows of a
    ternary (n, d) array (`check_ternary`) with the same number k >= 1 of nonzeros
    in every row: `SignRows` where no entry is 0, else `SparseRows` read off in
    column order.  Either holds new arrays, so later writes to z do not reach it."""
    if isinstance(z, (SignRows, SparseRows)):
        return z
    arr = check_ternary(z)
    if arr.ndim != 2:
        raise ValueError(f"rows take an (n, d) array, not one of shape {arr.shape}")
    counts = np.count_nonzero(arr, axis=1)
    if counts.size and (counts[0] == 0 or np.any(counts != counts[0])):
        raise ValueError("every row must have the same number of nonzeros, at least one")
    if not counts.size or counts[0] == arr.shape[1]:
        return SignRows(np.packbits(arr > 0, axis=1), arr.shape[1])
    rows, cols = np.nonzero(arr)
    signs = arr[rows, cols].astype(np.int8, copy=False).reshape(-1, counts[0])
    return SparseRows(signs, cols.reshape(-1, counts[0]), arr.shape[1])


def block_rows(width: int) -> int:
    """Rows per block for rows of `width` entries: about BLOCK_ENTRIES entries, in whole groups
    of four rows where there is room, else the one or few rows that fit.  numpy's bundled
    OpenBLAS gemv takes rows four at a time, so a blocked product matches the unblocked one bit for bit."""
    rows = BLOCK_ENTRIES // width
    return rows - rows % 4 if rows >= 4 else max(1, rows)


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


_BIT = np.uint8(128) >> np.arange(8, dtype=np.uint8)  # column j's bit in its byte: _BIT[j % 8]


def _byte_signs(rng: np.random.Generator, scaled: np.ndarray, n: int,
                support: np.ndarray | None = None) -> SignRows | np.ndarray:
    """Independent signs, +1 at column c with probability p_c = scaled[c] / 256:
    the `SignRows` of an (n, d) matrix whose entry (i, j) sits at column j, or,
    given an (n, k) `support`, an (n, k) int8 matrix whose entry (i, j) sits at
    column support[i, j].

    Each entry spends one random byte b: with hi_c = min(floor(scaled_c), 255)
    and frac_c = scaled_c - hi_c, it is +1 where b < hi_c, and where b == hi_c
    (one entry in 256) exactly when a uniform is below frac_c.  So P(+1) =
    (hi_c + ceil(frac_c 2^53) 2^-53) / 256, within 2^-61 of p_c, and p_c = 0
    and p_c = 1 come out exactly.  The bytes are the little-endian bytes of
    ceil(size / 8) raw generator words, in row-major entry order; the tie
    uniforms come after all of them, one per tie in row-major order.  Rows
    are drawn in blocks of `block_rows` rows, rounded up to a multiple of
    8 // gcd(width, 8) so that each block but the last fills whole words: the
    stream is the same for any block size, and working memory is one block
    (at an odd width, 8 rows at least) plus the tie indices.  Dense rows are
    packed block by block, with every tie -1; each tie settled +1 then sets
    its bit by one np.bitwise_or.at, so no (n, d) matrix is ever held.
    """
    d, dense = scaled.size, support is None
    hi = np.minimum(scaled, 255.0).astype(np.uint8)  # the cast floors, as scaled >= 0
    width = d if dense else support.shape[1]
    out = np.empty((n, -(-d // 8)), dtype=np.uint8) if dense else np.empty(support.shape, dtype=np.int8)
    step = block_rows(width)
    step += -step % (8 // math.gcd(width, 8))
    ties = [np.empty(0, dtype=np.intp)]
    for i in range(0, n, step):
        j = min(n, i + step)
        words = rng.bit_generator.random_raw(-(-(j - i) * width // 8))
        b = words.astype("<u8", copy=False).view(np.uint8)[: (j - i) * width].reshape(j - i, width)
        h = hi if dense else hi[support[i:j]]
        if dense:  # packbits pads each row's last byte with zeros, as SignRows requires
            out[i:j] = np.packbits(b < h, axis=1)
        else:
            np.less(b, h, out=out[i:j].view(np.bool_))
        ties.append(np.flatnonzero(b == h) + i * width)
    ties = np.concatenate(ties)
    tied = ties % d if dense else support.reshape(-1)[ties]
    plus = rng.random(ties.size) < scaled[tied] - hi[tied]
    if dense:  # set the bit of each tie settled +1
        row, col = np.divmod(ties[plus], d)
        np.bitwise_or.at(out, (row, col >> 3), _BIT[col & 7])
        return SignRows(out, d)
    out.reshape(-1)[ties] = plus
    # {0, 1} to {-1, +1} in place as out + out - 1, not (out << 1) - 1: numpy's
    # int8 add has a SIMD loop and its left shift does not.
    np.add(out, out, out=out)
    out -= 1
    return out


def _stalls(cols: np.ndarray) -> np.ndarray:
    """The ascending flat indices of the entries of the (n, m) `cols` that are not above their
    left neighbour in the same row: one compare of the flattened rows, less the row boundaries."""
    flat = cols.reshape(-1)
    stall = flat[1:] <= flat[:-1]
    stall[cols.shape[1] - 1::cols.shape[1]] = False  # the pairs that span two rows
    return np.flatnonzero(stall) + 1


def _distinct_columns(rng: np.random.Generator, n: int, d: int, m: int) -> np.ndarray:
    """(n, m) column indices, each row an exactly uniform m-subset of range(d)
    in increasing order, 0 < m <= d.

    One rng.integers call draws m iid columns per row, and each row is
    sorted.  Then, round after round, every row short of m distinct columns
    redraws its repeated entries, found by one flat scan (`_stalls`): one
    rng.integers call draws the deficits of all rows, in row-major order, and
    the rows it touched are sorted again.

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
    rows, block = np.arange(n), cols
    while (at := _stalls(block)).size:
        block.reshape(-1)[at] = rng.integers(0, d, size=at.size)
        short = np.bincount(at // m, minlength=len(block)) > 0
        rows, block = rows[short], block[short]
        block.sort(axis=1)
        cols[rows] = block
    return cols


def sample_matrix(pop: SparsePopulation, n: int, rng: np.random.Generator) -> SignRows | SparseRows:
    """n independent draws: a `SignRows` at k = d, a `SparseRows` at k < d.

    Each sign spends one random byte (`_byte_signs`): +1 where the byte is
    below min(floor(256 p_j), 255), p_j = (1 + (d/k) mu_j) / 2 for its column
    j, and a float64 uniform, drawn after all the bytes, settles the one sign
    in 256 whose byte equals it.  For k < d the supports come first, from
    `_distinct_columns`: at k <= d/2 its m = k columns are the support; past
    d/2 its m = d - k columns are the ones left out, and the support is the
    rest.  The rows and the sampler's working memory are O(n k + d): no
    (n, d) array is built below d/2.  At k = d the rows take n ceil(d / 8)
    bytes, and the sampler packs each block's signs as it draws them.

    Signs are drawn in whole-row blocks of about BLOCK_ENTRIES entries (at
    an odd width, 8 rows at least), so that many are held at a time;
    blocking changes no draw and no output.
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
    entries = check_ternary(z)
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
