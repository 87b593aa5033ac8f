import itertools
import math

import numpy as np
import pytest
from scipy.stats import chi2, chisquare

from sparsetrace import distributions
from sparsetrace.distributions import (
    BLOCK_ENTRIES,
    BetaPrior,
    MeanVector,
    SignRows,
    SparsePopulation,
    as_rows,
    block_rows,
    pmf,
    prior_quadrature,
    sample_matrix,
    sample_prior,
)
from sparsetrace.problems import BOX_LP, ParameterPoint, ProblemSpec, check_data, loss
from sparsetrace.rng import substream

SEED = 20240901


def symmetric_beta_moment(prior: BetaPrior, r: int) -> float:
    """Closed-form r-th moment of one prior coordinate: odd moments vanish,
    even ones are gamma^r * prod_{i=1..r/2} (2i - 1) / (2 beta + 2i - 1)."""
    if r % 2 == 1:
        return 0.0
    value = prior.gamma**r
    for i in range(1, r // 2 + 1):
        value *= (2 * i - 1) / (2 * prior.beta + 2 * i - 1)
    return value


class TestSampleSupport:
    def test_full_support_is_everything(self):
        rng = substream(SEED, 0, "support")
        z = np.asarray(sample_matrix(SparsePopulation(np.zeros(3), 3, 3), 20, rng))
        assert np.all(z != 0)

    def test_two_choose_one_is_fair(self):
        z = np.asarray(sample_matrix(SparsePopulation(np.zeros(2), 1, 2), 10**5, substream(SEED, 1, "support")))
        n = z.shape[0]
        ones = int(np.count_nonzero(z[:, 1]))
        sigma = math.sqrt(0.25 / n)
        assert abs(ones / n - 0.5) < 3 * sigma

    def test_five_choose_two_uniform_chisquare(self):
        z = np.asarray(sample_matrix(SparsePopulation(np.zeros(5), 2, 5), 10**5, substream(SEED, 2, "support")))
        n = z.shape[0]
        subsets = {frozenset(c): 0 for c in itertools.combinations(range(5), 2)}
        for row in z:
            subsets[frozenset(np.flatnonzero(row).tolist())] += 1
        counts = np.array(list(subsets.values()))
        sigma = math.sqrt(0.1 * 0.9 / n)
        assert np.all(np.abs(counts / n - 0.1) < 3 * sigma)
        assert chisquare(counts).pvalue > 1e-3

    def test_five_choose_four_uniform_chisquare(self):
        # k > d/2: the sampler draws the one column left out, and the support is the rest.
        z = sample_matrix(SparsePopulation(np.zeros(5), 4, 5), 10**5, substream(SEED, 3, "support"))
        left_out = np.flatnonzero(np.asarray(z) == 0) % 5
        counts = np.bincount(left_out, minlength=5)
        assert counts.sum() == 10**5
        assert chisquare(counts).pvalue > 1e-3

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            SparsePopulation(np.zeros(4), 0, 4)
        with pytest.raises(ValueError):
            SparsePopulation(np.zeros(4), 5, 4)


class TestSampleSparse:
    def test_dense_zero_mean_is_fair_coins(self):
        pop = SparsePopulation(np.zeros(4), 4, 4)
        draws = np.asarray(sample_matrix(pop, 4000, substream(SEED, 4, "sparse")))
        assert np.isin(draws, (-1, 1)).all()
        sigma = math.sqrt(1.0 / 4000)
        assert np.max(np.abs(draws.mean(axis=0))) < 4 * sigma

    def test_saturated_probability_is_deterministic(self):
        pop = SparsePopulation([0.5, -0.5], 1, 2)
        z = np.asarray(sample_matrix(pop, 200, substream(SEED, 5, "sparse")))
        assert set(map(tuple, z)) == {(1, 0), (0, -1)}

    def test_sample_mean_matches_population_mean(self):
        mu = np.array([1 / 3, 0.0, -1 / 3])
        pop = SparsePopulation(mu, 2, 3)
        n = 10**5
        z = np.asarray(sample_matrix(pop, n, substream(SEED, 6, "sparse")))
        sigma = np.sqrt((pop.k / pop.d - mu**2) / n)
        assert np.all(np.abs(z.mean(axis=0) - mu) < 3 * sigma)

    def test_support_size_is_k(self):
        z = sample_matrix(SparsePopulation(np.zeros(6), 2, 6), 100, substream(SEED, 7, "sparse"))
        assert np.all(np.count_nonzero(z, axis=1) == 2)

    def test_dense_single_draws_match_product_law_in_tv(self):
        # One row at a time, as a caller drawing single points would.
        mu = np.array([0.3, -0.15])
        pop = SparsePopulation(mu, 2, 2)
        rng = substream(SEED, 15, "sparse")
        n = 3 * 10**4
        z = np.concatenate([sample_matrix(pop, 1, rng) for _ in range(n)])
        atoms = np.array(list(itertools.product((-1, 1), repeat=2)))
        exact = np.array([np.prod((1 + mu * a) / 2) for a in atoms])
        empirical = np.bincount(((z + 1) // 2) @ np.array([2, 1]), minlength=4) / n
        assert 0.5 * np.abs(empirical - exact).sum() <= 0.01


class TestSampleMatrix:
    def test_matches_population_mean_componentwise(self):
        mu = np.array([0.2, -0.1, 0.0, 0.25])
        pop = SparsePopulation(mu, 3, 4)
        rng = substream(SEED, 8, "matrix")
        n = 2 * 10**5
        z = np.asarray(sample_matrix(pop, n, rng))
        assert np.all(np.count_nonzero(z, axis=1) == 3)
        sigma = np.sqrt((pop.k / pop.d - mu**2) / n)
        assert np.all(np.abs(z.mean(axis=0) - mu) < 4 * sigma)

    # The supports must be exactly uniform k-subsets.  At k = d/2 most rows
    # redraw a repeated column at least once.
    @pytest.mark.parametrize("d,k", [(5, 2), (8, 4), (12, 6)])
    def test_batch_supports_are_uniform(self, d, k):
        pop = SparsePopulation(np.zeros(d), k, d)
        rng = substream(SEED, 16, f"matrix-{d}-{k}")
        n = 10**5
        support = sample_matrix(pop, n, rng).support
        counts = np.bincount((1 << support).sum(axis=1), minlength=1 << d)
        observed = counts[counts > 0]
        assert observed.size == math.comb(d, k)
        assert chisquare(observed).pvalue > 1e-3

    def test_dense_case_recovers_product_law_in_tv(self):
        mu = np.array([0.2, -0.1, 0.05])
        pop = SparsePopulation(mu, 3, 3)
        rng = substream(SEED, 9, "matrix")
        z = np.asarray(sample_matrix(pop, 10**6, rng))
        atoms = np.array(list(itertools.product((-1, 1), repeat=3)), dtype=np.int8)
        exact = np.array([np.prod((1 + mu * a) / 2) for a in atoms])
        codes = ((z + 1) // 2) @ np.array([4, 2, 1])
        empirical = np.bincount(codes, minlength=8) / z.shape[0]
        assert 0.5 * np.abs(empirical - exact).sum() <= 0.01


class TestDenseSignLaw:
    # P(+1) in each column: the ends, byte boundaries j/256, j/256 -/+ 2^-40 (where
    # the byte settles all but a 2^-32 share and the tie uniform decides the rest:
    # ties always -1 or always +1 would be off by 1/256), and random values.
    SPECIAL = ([0.0, 1.0] + [j / 256 for j in (1, 2, 64, 128, 255)]
               + [j / 256 + s * 2.0**-40 for j in (1, 100, 255) for s in (-1, 1)])

    # At k < d, d / k is a power of two, so the sign probabilities
    # (1 + (d/k) mu) / 2 are the k = d ones exactly; each column's count is
    # taken over the rows whose support holds it.
    @pytest.mark.parametrize("d,k,n", [(61, 61, 10**5), (4099, 4099, 2000), (64, 16, 2 * 10**5)])
    def test_each_column_has_its_bernoulli_law_chisquare(self, d, k, n):
        rng = substream(SEED, d, "sign-law")
        p = np.concatenate([self.SPECIAL, rng.random(d - len(self.SPECIAL))])
        pop = SparsePopulation((k / d) * (2.0 * p - 1.0), k, d)
        p_plus = (1.0 + (d / k) * pop.mu) / 2.0
        z = np.asarray(sample_matrix(pop, n, rng))
        plus, seen = np.count_nonzero(z > 0, axis=0), np.count_nonzero(z, axis=0)
        expected = seen * p_plus
        ends = (p_plus == 0.0) | (p_plus == 1.0)
        assert np.array_equal(plus[ends], expected[ends])
        # One term per column with at least 5 expected on each side, and one more
        # for the other interior columns pooled.
        var = expected * (1.0 - p_plus)
        tested = np.minimum(expected, seen - expected) >= 5.0
        pooled = ~ends & ~tested
        terms = list((plus[tested] - expected[tested]) ** 2 / var[tested])
        if pooled.any():
            terms.append((plus[pooled].sum() - expected[pooled].sum()) ** 2 / var[pooled].sum())
        assert chi2.sf(sum(terms), len(terms)) > 1e-4


def _reference_signs(rng, p_plus, columns):
    """Signs at the (n, w) array `columns`: all ceil(n w / 8) raw words at once,
    read as little-endian bytes in row-major entry order, +1 below
    hi = min(floor(256 p), 255), and one uniform per tie (byte == hi) in
    row-major order after all the words."""
    n, w = columns.shape
    words = rng.bit_generator.random_raw(-(-n * w // 8))
    b = words.astype("<u8").view(np.uint8)[: n * w].reshape(n, w)
    scaled = 256.0 * p_plus[columns]
    hi = np.minimum(np.floor(scaled), 255.0)
    plus = b < hi
    rows, cols = np.nonzero(b == hi)
    plus[rows, cols] = rng.random(rows.size) < (scaled - hi)[rows, cols]
    return np.where(plus, 1, -1).astype(np.int8)


def _sample_matrix_reference(pop, n, rng):
    """The unblocked sampler.  At k = d: the byte signs of every column.  At
    k < d: m = min(k, d - k) columns per row kept as Python sets, first m iid
    draws per row in one call, then one call per round for every row's
    deficit, in row order, until each row holds m; then the byte signs on
    the support.  Past k = d/2 the sets are the columns left out, and the
    support is the rest."""
    d, k = pop.d, pop.k
    p_plus = (1.0 + (d / k) * pop.mu) / 2.0
    if k == d:
        return _reference_signs(rng, p_plus, np.tile(np.arange(d), (n, 1)))
    m = min(k, d - k)
    held = [set(row) for row in rng.integers(0, d, size=(n, m)).tolist()]
    while deficits := [m - len(row) for row in held if len(row) < m]:
        draws = iter(rng.integers(0, d, size=sum(deficits)).tolist())
        for row in held:
            row.update([next(draws) for _ in range(m - len(row))])
    if m < k:
        held = [set(range(d)) - row for row in held]
    support = np.array([sorted(row) for row in held], dtype=np.int64).reshape(n, k)
    out = np.zeros((n, d), dtype=np.int8)
    np.put_along_axis(out, support, _reference_signs(rng, p_plus, support), axis=1)
    return out


def _block_rows(width):
    """Rows per sign-sampler block for a sign matrix `width` entries wide: the
    block rule, rounded up so that each block fills whole raw 8-byte words."""
    rows = block_rows(width)
    return rows + -rows % (8 // math.gcd(width, 8))


# (d, k): dense and sparse at a power-of-two width (k = 3000 makes the (n, k)
# sign bytes span several blocks too), a width whose block rows are rounded
# down, widths above BLOCK_ENTRIES where a block is one row, and small d at
# and past d/2, where most rows redraw over several rounds.  The odd dense widths give n d not a multiple of 8, so
# rows start inside a raw word and the last word is only partly used.
BLOCKED_SHAPES = [(4096, 4096), (4096, 3000), (1000, 1000), (1000, 37),
                  (BLOCK_ENTRIES + 3, BLOCK_ENTRIES + 3), (BLOCK_ENTRIES + 3, 700), (8, 4), (9, 7),
                  (37, 37), (3, 3), (1, 1)]


class TestBlockedSampleMatrix:
    @pytest.mark.parametrize("d,k", BLOCKED_SHAPES)
    def test_matches_unblocked_reference_and_stream(self, d, k):
        rows = _block_rows(k)
        rng = substream(SEED, 17, "mu")
        mu = rng.uniform(-k / d, k / d, size=d)
        pop = SparsePopulation(mu, k, d)
        for n in sorted({0, 1, max(rows - 1, 0), rows + 1, 3 * rows + 2}):
            ours, ref = substream(SEED, n, "blocked"), substream(SEED, n, "blocked")
            z = sample_matrix(pop, n, ours)
            expected = _sample_matrix_reference(pop, n, ref)
            assert z.dtype == np.int8 and z.shape == (n, d)
            assert np.array_equal(z, expected), (d, k, n)
            assert ours.random() == ref.random(), (d, k, n)

    @pytest.mark.parametrize("block", [1, 8, 12, 4096, 10**6])
    def test_dense_stream_does_not_depend_on_the_block_size(self, block, monkeypatch):
        d, n = 37, 301
        mu = substream(SEED, 18, "mu").uniform(-1.0, 1.0, size=d)
        pop = SparsePopulation(mu, d, d)
        expected = _sample_matrix_reference(pop, n, substream(SEED, 18, "block-size"))
        monkeypatch.setattr(distributions, "BLOCK_ENTRIES", block)
        rng = substream(SEED, 18, "block-size")
        assert np.array_equal(sample_matrix(pop, n, rng), expected)

    @pytest.mark.parametrize("block", [1, 8, 12, 4096, 10**6])
    def test_sparse_stream_does_not_depend_on_the_block_size(self, block, monkeypatch):
        d, k, n = 37, 5, 301
        mu = substream(SEED, 19, "mu").uniform(-k / d, k / d, size=d)
        pop = SparsePopulation(mu, k, d)
        expected = _sample_matrix_reference(pop, n, substream(SEED, 19, "block-size"))
        monkeypatch.setattr(distributions, "BLOCK_ENTRIES", block)
        rng = substream(SEED, 19, "block-size")
        assert np.array_equal(sample_matrix(pop, n, rng), expected)

    def test_block_rows_stay_within_budget(self):
        for width in (1, 3, 100, 1000, 4096, BLOCK_ENTRIES, BLOCK_ENTRIES + 3):
            rows = block_rows(width)
            assert rows == 1 or rows * width <= BLOCK_ENTRIES
            assert rows < 4 or rows % 4 == 0
            sampler = _block_rows(width)
            assert sampler * width % 8 == 0 and rows <= sampler < rows + 8


class _TiedBytes:
    """A generator stand-in whose every raw byte is 128 and whose uniforms cycle
    through `uniforms`: at scaled = 128.5 every entry ties, and the uniforms
    alone settle it, +1 below 0.5."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=np.float64)
        self.bit_generator = self

    def random_raw(self, size):
        return np.full(size, 0x8080808080808080, dtype=np.uint64)

    def random(self, size):
        return np.resize(self.uniforms, size)


class TestEveryByteTied:
    # Each tie settled +1 sets its own bit, so several in one byte (and in the
    # padded last byte of a row) must all land, and no other bit may move.
    @pytest.mark.parametrize("uniforms", [[0.25], [0.75], [0.25, 0.75, 0.75, 0.25, 0.1]],
                             ids=["all-plus", "none-plus", "some-plus"])
    @pytest.mark.parametrize("n", [1, 9])
    @pytest.mark.parametrize("d", [1, 8, 13, 16, 37])
    def test_rows_are_the_signs_the_uniforms_settle(self, d, n, uniforms):
        rows = distributions._byte_signs(_TiedBytes(uniforms), np.full(d, 128.5), n)
        plus = np.resize(np.asarray(uniforms), n * d).reshape(n, d) < 0.5
        assert isinstance(rows, SignRows) and rows.support is None
        assert np.array_equal(np.asarray(rows), np.where(plus, 1, -1)), (d, n)

    # On a support the row width is k, not d: odd k leaves padding bits past k in
    # each row's last byte, and a row's ties must land in that row.
    @pytest.mark.parametrize("uniforms", [[0.25], [0.75], [0.25, 0.75, 0.75, 0.25, 0.1]],
                             ids=["all-plus", "none-plus", "some-plus"])
    @pytest.mark.parametrize("n", [1, 9])
    @pytest.mark.parametrize("d,k", [(40, 1), (40, 5), (40, 13), (64, 37)])
    def test_rows_on_a_support_are_the_signs_the_uniforms_settle(self, d, k, n, uniforms):
        support = distributions._distinct_columns(substream(SEED, k, "tied"), n, d, k)
        rows = distributions._byte_signs(_TiedBytes(uniforms), np.full(d, 128.5), n, support)
        plus = np.resize(np.asarray(uniforms), n * k).reshape(n, k) < 0.5
        assert isinstance(rows, SignRows) and np.array_equal(rows.support, support) and rows.k == k
        assert np.array_equal(rows.signs, np.where(plus, 1, -1)), (d, k, n)
        dense = np.zeros((n, d), dtype=np.int8)
        np.put_along_axis(dense, support, np.where(plus, 1, -1), axis=1)
        assert np.array_equal(np.asarray(rows), dense)


class TestSparseRows:
    def test_rows_report_and_build_their_dense_matrix(self):
        pop = SparsePopulation(np.zeros(50), 6, 50)
        rows = sample_matrix(pop, 30, substream(SEED, 30, "rows"))
        assert isinstance(rows, SignRows) and rows.k == 6 and rows.support.shape == (30, 6)
        assert rows.bits.shape == (30, 1) and not (rows.bits.flags.writeable or rows.support.flags.writeable)
        assert (rows.shape, rows.ndim, rows.size, rows.dtype) == ((30, 50), 2, 1500, np.int8)
        dense = np.asarray(rows)
        assert dense.dtype == np.int8 and dense.shape == (30, 50)
        assert np.all(np.count_nonzero(dense, axis=1) == 6)
        assert np.array_equal(np.take_along_axis(dense, rows.support, axis=1), rows.signs)
        assert np.array_equal(np.asarray(rows, dtype=np.float64), dense)
        assert np.array_equal(np.asarray(rows[3:7]), dense[3:7])
        assert np.array_equal(np.asarray(as_rows(dense)), dense)
        with pytest.raises(ValueError, match="always a new array"):
            np.asarray(rows, copy=False)
        dense[0, rows.support[0, 0]] = 0  # row 0 now has 5 nonzeros, the others 6
        with pytest.raises(ValueError, match="same number of nonzeros"):
            as_rows(dense)

    @pytest.mark.parametrize("signs,support,d", [
        ([[1, -1]], [[0, 4]], 4),         # a column past d
        ([[1, -1]], [[-1, 0]], 4),        # a negative column would wrap in a gather
        ([[1, -1]], [[3, 3]], 4),         # a repeated column
        ([[1, -1]], [[3, 1]], 4),         # columns out of order
        ([[1, -1, 1]], [[3, 3, 5]], 8),   # a repeat in a row's first pair
        ([[1, -1, 1]], [[1, 4, 4]], 8),   # and in its last pair
        ([[1, -1], [1, 1]], [[0, 1], [2, 2]], 8),  # a repeat in a later row
        ([[1, -1]], [[0, 1]], 2),         # k = d rows take no support
        ([[1, -1]], [[0.0, 1.0]], 4),     # float columns
        ([[1, -1]], [0, 1], 4),           # a support that is not (n, k)
        ([[1, -1]], [[0, 1], [2, 3]], 4),  # not one support row per bit row
    ])
    def test_bad_rows_rejected(self, signs, support, d):
        with pytest.raises(ValueError):
            SignRows(np.packbits(np.array(signs) > 0, axis=1), d, np.array(support))

    @pytest.mark.parametrize("bits,k", [
        ([[0b10100000]], 2),  # a padding bit set past k
        ([[0b11111111, 0b11000000]], 9),  # the first padding bit past k = 9
        ([[0b11000000, 0]], 2),  # a wrong width: k = 2 signs take one byte
    ])
    def test_bad_bits_rejected(self, bits, k):
        support = np.arange(k)[np.newaxis]
        with pytest.raises(ValueError):
            SignRows(np.array(bits, dtype=np.uint8), 16, support)


    def test_columns_may_fall_across_the_row_boundary(self):
        # The last column of one row is above the first of the next: no row repeats a column.
        rows = SignRows(np.array([[0b10000000], [0b01000000]], dtype=np.uint8), 8, np.array([[5, 6], [1, 2]]))
        assert np.array_equal(np.asarray(rows), [[0, 0, 0, 0, 0, 1, -1, 0], [0, -1, 1, 0, 0, 0, 0, 0]])


def _distinct_columns_reference(rng, n, d, m):
    """The row-wise redraw loop: each round compares every row's columns with their left
    neighbours as a 2-D array, and the rows with a repeat redraw it, in row-major order."""
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


class TestDistinctColumns:
    # No rows; one column a row; every row a permutation of range(d); d = 5, where most rows
    # take several redraw rounds; and the audit_sparse shape.
    @pytest.mark.parametrize("n,d,m", [(0, 50, 7), (200, 50, 1), (200, 50, 50), (500, 5, 4),
                                       (1000, 8192, 64)])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_row_wise_redraw_loop(self, n, d, m, seed):
        ours, ref = substream(SEED, seed, "distinct"), substream(SEED, seed, "distinct")
        cols = distributions._distinct_columns(ours, n, d, m)
        assert np.array_equal(cols, _distinct_columns_reference(ref, n, d, m)), (n, d, m)
        assert ours.random() == ref.random()
        assert cols.shape == (n, m) and np.all(np.diff(cols, axis=1) > 0)


class TestSignRows:
    def test_rows_report_and_build_their_dense_matrix(self):
        # d = 50: seven bytes a row, the last with six padding bits.
        pop = SparsePopulation(np.zeros(50), 50, 50)
        rows = sample_matrix(pop, 30, substream(SEED, 31, "rows"))
        assert isinstance(rows, SignRows) and rows.k == 50
        assert rows.bits.shape == (30, 7) and rows.bits.dtype == np.uint8 and not rows.bits.flags.writeable
        assert (rows.shape, rows.ndim, rows.size, rows.dtype) == ((30, 50), 2, 1500, np.int8)
        dense = np.asarray(rows)
        assert dense.dtype == np.int8 and dense.shape == (30, 50) and np.all(np.abs(dense) == 1)
        assert np.array_equal(np.asarray(rows, dtype=np.float64), dense)
        assert np.array_equal(np.asarray(rows[3:7]), dense[3:7])
        assert np.array_equal(np.asarray(rows[np.array([5, 1])]), dense[[5, 1]])
        assert np.array_equal(as_rows(dense).bits, rows.bits) and as_rows(rows) is rows
        with pytest.raises(ValueError, match="always a new array"):
            np.asarray(rows, copy=False)
        with pytest.raises(ValueError, match="same number of nonzeros"):
            as_rows(np.where(dense > 0, dense, 0))

    def test_bits_follow_packbits_order(self):
        # Entry j is bit 7 - j % 8 of byte j // 8, and 1 is +1.
        rows = SignRows(np.array([[0b10100000, 0b01000000], [0b01011111, 0b10000000]], dtype=np.uint8), 10)
        assert np.array_equal(np.asarray(rows), [[1, -1, 1, -1, -1, -1, -1, -1, -1, 1],
                                                 [-1, 1, -1, 1, 1, 1, 1, 1, 1, -1]])

    def test_the_callers_array_stays_writable(self):
        bits = np.zeros((2, 1), dtype=np.uint8)
        rows = SignRows(bits, 8)
        assert bits.flags.writeable and not rows.bits.flags.writeable
        support = np.array([[0, 3, 5], [1, 2, 7]])
        rows = SignRows(bits, 8, support)
        assert bits.flags.writeable and support.flags.writeable
        assert not (rows.bits.flags.writeable or rows.support.flags.writeable)

    @pytest.mark.parametrize("bits,d", [
        (np.array([[0b10100001]], dtype=np.uint8), 3),  # a padding bit set
        (np.array([[0, 0b00000001]], dtype=np.uint8), 15),  # the last padding bit set
        (np.array([[1]], dtype=np.int8), 8),  # a wrong dtype
        (np.array([[1.0]]), 8),
        (np.zeros((1, 2), dtype=np.uint8), 8),  # a wrong width
        (np.zeros((1, 1), dtype=np.uint8), 9),
        (np.zeros(1, dtype=np.uint8), 8),  # not one row per dense row
        (np.zeros((1, 0), dtype=np.uint8), 0),  # no columns
    ])
    def test_bad_rows_rejected(self, bits, d):
        with pytest.raises(ValueError):
            SignRows(bits, d)


class TestAsRows:
    # Dense rows, k < d/2 and k > d/2: every entry of the round trip comes back.
    @pytest.mark.parametrize("k", [11, 3, 8])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
    def test_arrays_round_trip(self, k, dtype):
        d = 11
        rows = sample_matrix(SparsePopulation(np.zeros(d), k, d), 40, substream(SEED, k, "as-rows"))
        a = np.asarray(rows).astype(dtype)
        out = as_rows(a)
        assert type(out) is SignRows and out.k == k and (out.support is None) == (k == d)
        assert np.array_equal(np.asarray(out), a) and not np.shares_memory(np.asarray(out), a)

    def test_rows_come_back_as_themselves(self):
        for k in (6, 4):
            rows = sample_matrix(SparsePopulation(np.zeros(6), k, 6), 5, substream(SEED, k, "same"))
            assert as_rows(rows) is rows

    @pytest.mark.parametrize("bad", [
        [[1, -1, 0], [1, 0, 0]],   # unequal nonzero counts
        [[1, -1, 1], [0, 0, 0]],   # an all-zero row among full ones
        [[0, 0, 0]],               # every row all-zero: k = 0
    ])
    def test_rows_need_one_nonzero_count(self, bad):
        with pytest.raises(ValueError, match="same number of nonzeros, at least one"):
            as_rows(np.array(bad))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match=r"an \(n, d\) array"):
            as_rows(np.array([1, -1, 1]))

    def test_no_rows_fail_the_data_check(self):
        rows = as_rows(np.zeros((0, 4), dtype=np.int8))
        assert rows.shape == (0, 4)
        with pytest.raises(ValueError, match="n >= 1"):
            check_data(ProblemSpec(BOX_LP, d=4), rows)


class TestPmf:
    def test_uniform_atoms(self):
        assert pmf(SparsePopulation([0.0, 0.0], 1, 2), np.array([1, 0])) == pytest.approx(0.25)
        assert pmf(SparsePopulation([0.0, 0.0], 2, 2), np.array([1, -1])) == pytest.approx(0.25)

    def test_hand_checked_sparse_atom(self):
        value = pmf(SparsePopulation([1 / 3, 0.0, 0.0], 2, 3), np.array([1, -1, 0], dtype=np.int8))
        assert value == pytest.approx(0.125)

    def test_wrong_sparsity_has_zero_mass(self):
        assert pmf(SparsePopulation([0.0, 0.0, 0.0], 2, 3), np.array([1, 0, 0])) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pmf(SparsePopulation([0.0, 0.0], 1, 2), np.array([1, 0, 0], dtype=np.int8))

    def test_sums_to_one_on_enumerable_domains(self):
        rng = substream(SEED, 10, "pmf")
        for d in range(1, 9):
            for k in range(1, d + 1):
                atoms = []
                for support in itertools.combinations(range(d), k):
                    for signs in itertools.product((-1, 1), repeat=k):
                        z = np.zeros(d, dtype=np.int8)
                        z[list(support)] = signs
                        atoms.append(z)
                for _ in range(20):
                    mu = rng.uniform(-k / d, k / d, size=d)
                    pop = SparsePopulation(mu, k, d)
                    total = sum(pmf(pop, z) for z in atoms)
                    assert abs(total - 1.0) < 1e-10


class TestBetaPrior:
    def test_uniform_case_second_moment(self):
        rng = substream(SEED, 11, "prior")
        draws = sample_prior(BetaPrior(1.0, 1.0, 10**5), rng).values
        est = float(np.mean(draws**2))
        sigma = float(np.std(draws**2, ddof=1)) / math.sqrt(draws.size)
        assert abs(est - 1 / 3) < 4 * sigma

    def test_support_respects_gamma(self):
        rng = substream(SEED, 12, "prior")
        draws = sample_prior(BetaPrior(1.0, 0.5, 10**4), rng).values
        assert np.max(np.abs(draws)) <= 0.5

    def test_absolute_moment_lower_bound(self):
        rng = substream(SEED, 13, "prior")
        draws = np.abs(sample_prior(BetaPrior(4.0, 1.0, 10**5), rng).values)
        assert draws.mean() >= 1 / 6

    def test_second_moment_tracks_beta(self):
        rng = substream(SEED, 14, "prior")
        for beta in (2.0, 8.0):
            draws = sample_prior(BetaPrior(beta, 1.0, 10**5), rng).values
            est = float(np.mean(draws**2))
            sigma = float(np.std(draws**2, ddof=1)) / math.sqrt(draws.size)
            assert abs(est - 1 / (2 * beta + 1)) < 4 * sigma

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BetaPrior(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            BetaPrior(1.0, 1.5, 4)
        # numpy's Beta sampler returns NaN at an infinite shape.
        for beta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="beta: must be positive and finite"):
                BetaPrior(beta, 1.0, 4)


class TestPriorQuadrature:
    def test_degree_one_uniform_is_midpoint(self):
        rule = prior_quadrature(BetaPrior(1.0, 1.0, 1), 1)
        assert rule.nodes.size == 1
        assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert rule.weights[0] == pytest.approx(1.0)

    def test_uniform_second_moment(self):
        rule = prior_quadrature(BetaPrior(1.0, 1.0, 1), 3)
        assert float(rule.weights @ rule.nodes**2) == pytest.approx(1 / 3, abs=1e-12)

    def test_beta_two_second_moment(self):
        rule = prior_quadrature(BetaPrior(2.0, 1.0, 1), 2)
        assert float(rule.weights @ rule.nodes**2) == pytest.approx(1 / 5, abs=1e-12)

    def test_all_moments_to_degree_twelve(self):
        for beta in (1.0, 2.0, 5.0, 7.5):
            for gamma in (1.0, 0.3):
                prior = BetaPrior(beta, gamma, 1)
                rule = prior_quadrature(prior, 12)
                for r in range(13):
                    est = float(rule.weights @ rule.nodes**r)
                    assert abs(est - symmetric_beta_moment(prior, r)) < 1e-12


class TestTypeInvariants:
    def test_mean_vector_enforces_box(self):
        with pytest.raises(ValueError):
            MeanVector(np.array([0.6]), 0.5)
        # NaN compares false with the box bound, so it needs its own check.
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="mean entries must be finite"):
                MeanVector(np.array([0.1, bad]), 0.5)

    def test_population_enforces_mean_bound(self):
        with pytest.raises(ValueError):
            SparsePopulation([0.9, 0.0], 1, 2)  # bound is k/d = 0.5
        with pytest.raises(ValueError, match="mean entries must be finite"):
            SparsePopulation([math.nan, 0.0], 1, 2)
        with pytest.raises(ValueError, match="expected"):
            SparsePopulation([0.1, 0.0, 0.0], 1, 2)
        mu = np.array([0.25, -0.5])
        pop = SparsePopulation(mu, 1, 2)
        mu[0] = 0.0
        assert pop.mu[0] == 0.25 and not pop.mu.flags.writeable

    @pytest.mark.parametrize("bad", [np.array([255, 0]), np.array([255, 0], dtype=np.uint8),
                                     np.array([0.5, 1.0]), np.array([np.nan, 0.0]),
                                     np.array([-128, 0], dtype=np.int8)])
    def test_ternary_sample_rejects_values_before_the_cast(self, bad):
        # A sample is an int8 row; pmf and loss check its values before the cast.
        with pytest.raises(ValueError, match="entries must take values"):
            pmf(SparsePopulation([0.0, 0.0], 1, 2), bad)
        spec = ProblemSpec(BOX_LP, d=2, p=2.0, k=1)
        with pytest.raises(ValueError, match="entries must take values"):
            loss(spec, ParameterPoint(np.zeros(2), True), bad)
