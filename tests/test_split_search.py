"""Exact split search: the kernel against independent oracles.

The kernel sorts rows by integer keys and never reads a float value; it
returns the two rows around the cut. ``split`` passes the values' rank
codes, as ``train_tree`` does, and turns those two rows' values into the
threshold with ``split_threshold``. The per-column and exhaustive oracles
sort the float values themselves, and ``split_oracle.value_best_split`` is
the kernel that read the values alongside the keys.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinydes import _kernels
from tinydes._kernels import best_split, rank_codes, split_constants, split_threshold
from tinydes.data import Dataset, apply_standardizer, fit_standardizer
from tinydes.trees import generate_pool

from split_oracle import value_best_split
from test_trees import exhaustive_best_split

NOT_FOUND = (-1, 0.0, -1.0, False)


def split(values, labels, n_classes, keys=None):
    """(col, threshold, score, found) as ``train_tree`` derives them."""
    keys = rank_codes(values) if keys is None else keys
    totals = np.bincount(labels, minlength=n_classes)
    col, (p0, p1), score, found = best_split(keys, labels, totals, int(totals @ totals),
                                             split_constants(labels.size))
    if not found:
        return NOT_FOUND
    return col, split_threshold(values[p0, col], values[p1, col]), score, True


def per_column_best_split(values, labels, n_classes):
    """Reference: score one column at a time from a cumulative one-hot of its
    sorted labels, keeping a strictly better column only."""
    n, m = values.shape
    total = np.bincount(labels, minlength=n_classes).astype(np.int64)
    best_score = -1.0
    best_col = -1
    best_thr = np.float32(0.0)
    nl = np.arange(1, n, dtype=np.int64)
    for j in range(m):
        col = values[:, j]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        boundary = np.nonzero(sv[:-1] != sv[1:])[0]
        if boundary.size == 0:
            continue
        onehot = np.zeros((n, n_classes), dtype=np.int64)
        onehot[np.arange(n), labels[order]] = 1
        cum = np.cumsum(onehot, axis=0)
        sl = np.square(cum[:-1]).sum(axis=1)
        sr = np.square(total[None, :] - cum[:-1]).sum(axis=1)
        bscore = (sl / nl + sr / (n - nl))[boundary]
        pos = int(np.argmax(bscore))
        if bscore[pos] > best_score:
            i = int(boundary[pos])
            v0, v1 = sv[i], sv[i + 1]
            thr = np.float32((np.float64(v0) + np.float64(v1)) * 0.5)
            if thr >= v1:
                thr = v0
            best_score = float(bscore[pos])
            best_col = j
            best_thr = thr
    return best_col, float(best_thr), best_score, best_col >= 0


def bits(result):
    """(col, f32 threshold bytes, f64 score bytes, found), for bit-exact compares."""
    col, thr, score, found = result
    assert type(col) is int and type(found) is bool
    return col, np.float32(thr).tobytes(), struct.pack("<d", score), found


def from_exhaustive(best):
    if best is None:
        return NOT_FOUND
    score, f, thr = best
    return f, thr, score, True


def pixel_case(seed, n, m=28, n_classes=10):
    """Standardized 0-255 integer pixels: mostly zero, few distinct values."""
    rng = np.random.RandomState(seed)
    labels = rng.randint(0, n_classes, n)
    ink = rng.rand(n, m) < 0.15 + 0.1 * (labels[:, None] % 3 == np.arange(m)[None, :] % 3)
    px = np.where(ink, 255 - rng.randint(0, 4, (n, m)) * 40, 0).astype(np.float32)
    std = px.std(axis=0)
    values = ((px - px.mean(axis=0)) / np.where(std > 0, std, 1)).astype(np.float32)
    return values, labels.astype(np.int64), n_classes


class TestAgainstPerColumnLoop:
    @pytest.mark.parametrize("n", [2, 3, 7, 40, 99, 100, 257, 999, 2000])
    def test_pixel_like_inputs(self, n):
        for seed in range(3):
            values, labels, c = pixel_case(seed * 1000 + n, n)
            assert bits(split(values, labels, c)) == \
                bits(per_column_best_split(values, labels, c))

    def test_continuous_inputs(self):
        rng = np.random.RandomState(8)
        for n in (5, 60, 700):
            values = rng.randn(n, 9).astype(np.float32)
            labels = rng.randint(0, 4, n).astype(np.int64)
            assert bits(split(values, labels, 4)) == \
                bits(per_column_best_split(values, labels, 4))

    def test_more_than_256_classes(self):
        rng = np.random.RandomState(5)
        n, c = 900, 300
        labels = rng.randint(0, c, n).astype(np.int64)
        values = (rng.randint(0, 50, (n, 6)) + (labels[:, None] % 7 == 0) * 20).astype(np.float32)
        got = split(values, labels, c)
        assert got[3]
        assert bits(got) == bits(per_column_best_split(values, labels, c))


class TestAgainstExhaustive:
    def test_small_pixel_like_inputs(self):
        for seed in range(6):
            values, labels, c = pixel_case(seed, 60, m=5, n_classes=4)
            assert bits(split(values, labels, c)) == \
                bits(from_exhaustive(exhaustive_best_split(values, labels, c)))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), m=st.integers(1, 5),
           n_classes=st.integers(1, 4), n_values=st.integers(1, 6))
    def test_property_small_integer_matrices(self, data, n, m, n_classes, n_values):
        cells = data.draw(st.lists(st.integers(0, n_values - 1), min_size=n * m,
                                   max_size=n * m))
        labels = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
        values = np.array(cells, dtype=np.float32).reshape(n, m)
        y = np.array(labels, dtype=np.int64)
        got = bits(split(values, y, n_classes))
        assert got == bits(from_exhaustive(exhaustive_best_split(values, y, n_classes)))
        assert got == bits(per_column_best_split(values, y, n_classes))


class TestKeys:
    """Any keys that order strictly like the values give the same bits."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 60), m=st.integers(1, 5),
           n_classes=st.integers(1, 4), n_values=st.integers(1, 8))
    def test_order_consistent_keys_same_bits(self, data, n, m, n_classes, n_values):
        cells = data.draw(st.lists(st.integers(0, n_values - 1), min_size=n * m,
                                   max_size=n * m))
        labels = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
        values = (np.array(cells, dtype=np.float32).reshape(n, m) - 2) * np.float32(0.37)
        y = np.array(labels, dtype=np.int64)
        codes = rank_codes(values)
        spread = codes.astype(np.uint32) * 3 + 7
        got = bits(split(values, y, n_classes, codes))
        assert got == bits(split(values, y, n_classes, spread))
        assert got == bits(per_column_best_split(values, y, n_classes))

    def test_pool_wide_codes_of_node_rows(self):
        # train_tree passes codes ranked over all rows, not just the node's
        values, labels, c = pixel_case(4, 900)
        codes = rank_codes(values)
        node = np.arange(0, 900, 3)
        assert bits(split(values[node], labels[node], c, codes[node])) == \
            bits(per_column_best_split(values[node], labels[node], c))


_V0 = np.nextafter(np.float32(1), np.float32(2))  # odd mantissa: midpoint rounds up
# -0.0 and 0.0 tie; (_V0, next) and (3, next) are adjacent float32 pairs, the
# first falling back to its left value; +-1e-45 are the smallest subnormals
PALETTE = np.array([-0.0, 0.0, _V0, np.nextafter(_V0, np.float32(2)), 3.0,
                    np.nextafter(np.float32(3), np.float32(4)), -1.5, 1e-45, -1e-45],
                   np.float32)


class TestAgainstValueOracle:
    """The code kernel plus ``split_threshold`` against the value-reading
    kernel, on nodes drawn with repeats from a pool, as bootstraps are."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_pool=st.integers(1, 12), m=st.integers(1, 4),
           n_classes=st.integers(1, 4), wide=st.booleans())
    def test_same_bits_and_partition(self, data, n_pool, m, n_classes, wide):
        cells = data.draw(st.lists(st.integers(0, PALETTE.size - 1), min_size=n_pool * m,
                                   max_size=n_pool * m))
        pool = PALETTE[np.array(cells)].reshape(n_pool, m)
        constant = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
        pool[:, np.array(constant)] = pool[0, np.array(constant)]
        pool_labels = np.array(data.draw(st.lists(st.integers(0, n_classes - 1),
                                                  min_size=n_pool, max_size=n_pool)))
        idx = np.array(data.draw(st.lists(st.integers(0, n_pool - 1), min_size=1,
                                          max_size=30)))
        # filler rows with 300 distinct values push every code to uint16
        filler = np.zeros((300 if wide else 0, m), np.float32)
        filler[:, 0] = 10 + np.arange(filler.shape[0])
        codes = rank_codes(np.concatenate([pool, filler]))[:n_pool]
        assert codes.dtype == (np.uint16 if wide else np.uint8)
        values, y = pool[idx], pool_labels[idx]
        kt = np.ascontiguousarray(codes.T[:, idx])  # train_tree's gather
        totals = np.bincount(y, minlength=n_classes)
        col, (p0, p1), score, found = best_split(kt.T, y, totals, int(totals @ totals),
                                                 split_constants(y.size))
        thr = split_threshold(values[p0, col], values[p1, col]) if found else 0.0
        got = (col, thr, score, found) if found else NOT_FOUND
        assert bits(got) == bits(value_best_split(values, y, n_classes, kt.T))
        assert bits(got) == bits(per_column_best_split(values, y, n_classes))
        if found:
            np.testing.assert_array_equal(kt[col] <= kt[col, p0],
                                          values[:, col] <= np.float32(thr))


SMALL = 32  # sizes around 32 rows, where two sort rules once met, are sampled densely
INT32_ROWS = _kernels.INT32_NODE_ROWS


class TestSortPaths:
    """Keys sort as composites at every node size. Composites and prefix
    sums are int32 up to ``INT32_NODE_ROWS`` rows while the key or label
    bits plus the position bits fit in 31, int64 otherwise. Each dtype
    against the value-reading kernel."""

    @settings(max_examples=250, deadline=None)
    @given(n=st.one_of(st.integers(SMALL - 3, SMALL + 3), st.integers(2, 2 * SMALL),
                       st.integers(2, 300), st.integers(300, 3000)),
           m=st.integers(1, 28), n_classes=st.integers(1, 12), n_values=st.integers(1, 400),
           wide=st.sampled_from([None, np.uint16, np.uint32]), row_major=st.booleans(),
           skew=st.sampled_from([0.0, 0.5, 0.95]), seed=st.integers(0, 2**32 - 1))
    def test_same_bits_as_value_oracle(self, n, m, n_classes, n_values, wide, row_major,
                                       skew, seed):
        rng = np.random.RandomState(seed)
        cells = rng.randint(0, n_values, (n, m))
        cells[:, rng.rand(m) < 0.2] = rng.randint(0, n_values)  # constant columns
        # heavy ties when n_values is small; zeros get either sign
        values = ((cells - n_values // 2) * np.float32(0.37)).astype(np.float32)
        values[values == 0] *= rng.choice(np.array([-1, 1], np.float32), (values == 0).sum())
        # a skewed class mix raises sum_c T_c^2 toward n^2
        labels = np.where(rng.rand(n) < skew, 0, rng.randint(0, n_classes, n))
        codes = rank_codes(values)
        if wide:
            codes = np.ascontiguousarray(codes.T, dtype=wide).T
        assert codes.dtype in ((wide,) if wide else (np.uint8, np.uint16))
        if row_major:  # not the transpose of a C-contiguous (m, n) array
            codes = np.ascontiguousarray(codes)
        got = split(values, labels, n_classes, codes)
        assert bits(got) == bits(value_best_split(values, labels, n_classes, codes))

    @pytest.mark.parametrize("n, n_classes", [
        (32768, 2),  # uint16 keys and 15 position bits: the last node that fits
        (32769, 2),
        (16384, 65537),  # 17 label bits and 14 position bits fit
        (16385, 65537),
    ])
    def test_int32_fit_limit(self, n, n_classes):
        rng = np.random.RandomState(n)
        values = np.stack([rng.permutation(n), rng.randint(0, 3, n)], axis=1).astype(np.float32)
        labels = rng.randint(0, 4, n) * (n_classes // 4)
        codes = np.ascontiguousarray(rank_codes(values).T, dtype=np.uint16).T
        assert bits(split(values, labels, n_classes, codes)) == \
            bits(value_best_split(values, labels, n_classes, codes))

    @pytest.mark.parametrize("n, distinct, n_classes, dtype", [
        (70000, 70000, 10, np.uint32),  # uint32 codes: 32 key bits
        (40000, 40000, 10, np.uint16),  # 16 key and 16 position bits
        (33000, 200, 65537, np.uint8),  # 17 label and 16 position bits
        (20, 20, 10, np.uint32),  # uint32 codes on a small node
    ])
    def test_int64_composites(self, n, distinct, n_classes, dtype):
        rng = np.random.RandomState(n)
        values = np.stack([rng.permutation(n) % distinct, rng.randint(0, 3, n)],
                          axis=1).astype(np.float32)
        labels = rng.randint(0, 4, n) * (n_classes // 4)
        codes = rank_codes(values)
        assert codes.dtype == np.min_scalar_type(distinct - 1)
        codes = np.ascontiguousarray(codes.T, dtype=dtype).T
        got = split(values, labels, n_classes, codes)
        assert got[3]
        assert bits(got) == bits(value_best_split(values, labels, n_classes, codes))

    @pytest.mark.parametrize("n, key_dtype, n_classes, dtype", [
        (SMALL, np.uint32, 2, np.int64),
        (INT32_ROWS, np.uint8, 2, np.int32),
        (INT32_ROWS, np.uint16, 65536, np.int32),  # 16 label and 15 position bits
        (INT32_ROWS, np.uint16, 65537, np.int64),
        (INT32_ROWS + 1, np.uint8, 2, np.int64),
        (INT32_ROWS + 1, np.uint16, 2, np.int64),
    ])
    def test_node_dtype(self, n, key_dtype, n_classes, dtype):
        assert _kernels.node_dtype(n, key_dtype, n_classes) is dtype
        if dtype is np.int32:
            # cumsum(2 T[y]) reaches 2 sum_c T_c^2 <= 2 n^2, and the rank
            # composite holds a position and 2r + 1
            assert 2 * n * n < 2**31
            assert 2 * (n - 1).bit_length() + 1 <= 31

    @pytest.mark.parametrize("key_dtype", [np.uint8, np.uint16, np.uint32])
    @pytest.mark.parametrize("n", [INT32_ROWS, INT32_ROWS + 1])
    @pytest.mark.parametrize("n_classes, rare", [
        (2, 0),  # one class only: sum_c T_c^2 = n^2
        (2, 1),  # n - 1 rows of one class and 1 of the other
        (300, 299),  # n - 299 of one class and 1 of each other
    ])
    def test_int32_sum_limit(self, n, key_dtype, n_classes, rare):
        # the largest sum_c T_c^2 for the classes present, at the last int32
        # node size and one past it
        rng = np.random.RandomState(n + rare)
        distinct = 256 if key_dtype == np.uint8 else n
        values = np.stack([rng.permutation(n) % distinct, rng.randint(0, 3, n)],
                          axis=1).astype(np.float32)
        labels = np.zeros(n, np.int64)
        labels[rng.choice(n, rare, replace=False)] = np.arange(1, rare + 1)
        codes = np.ascontiguousarray(rank_codes(values).T, dtype=key_dtype).T
        got = split(values, labels, n_classes, codes)
        assert got[3]
        assert bits(got) == bits(value_best_split(values, labels, n_classes, codes))


F32_MAX = float(np.finfo(np.float32).max)
# signed zeros, the smallest subnormals and normals, infinities, the float32 extremes
SPECIAL_VALUES = [0.0, -0.0, 1e-45, -1e-45, 2e-45, 1.1754944e-38, -1.1754944e-38,
                  np.inf, -np.inf, F32_MAX, -F32_MAX, 1.0, -1.0]


class TestRankCodes:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 60), m=st.integers(1, 4))
    def test_matches_unique_inverse(self, data, n, m):
        # a few values per matrix, so ties are heavy
        palette = data.draw(st.lists(st.one_of(
            st.sampled_from(SPECIAL_VALUES),
            st.floats(width=32, allow_nan=False)), min_size=1, max_size=8))
        # and each value's float32 neighbours, which differ in the last bit
        palette = np.array(palette, np.float32)
        with np.errstate(over="ignore", under="ignore"):  # max steps to inf
            palette = np.concatenate([palette, np.nextafter(palette, np.float32(np.inf)),
                                      np.nextafter(palette, np.float32(-np.inf))])
        cells = data.draw(st.lists(st.integers(0, palette.size - 1), min_size=n * m,
                                   max_size=n * m))
        values = palette[np.array(cells)].reshape(n, m)
        want = np.stack([np.unique(values[:, j], return_inverse=True)[1].ravel()
                         for j in range(m)], axis=1)
        got = rank_codes(values)
        assert got.dtype == np.min_scalar_type(int(want.max()))
        np.testing.assert_array_equal(got, want)

    def test_dense_ranks_per_column(self):
        values = np.array([[2.5, 7], [-1, 7], [2.5, -3], [9, 0]], np.float32)
        np.testing.assert_array_equal(rank_codes(values), [[1, 2], [0, 2], [1, 0], [2, 1]])

    def test_feature_major_layout(self):
        codes = rank_codes(np.arange(12, dtype=np.float32).reshape(4, 3))
        assert codes.shape == (4, 3) and codes.T.flags.c_contiguous

    def test_signed_zeros_share_a_code(self):
        values = np.array([[0.0], [-0.0], [1.0], [-0.0], [-1.0]], np.float32)
        assert rank_codes(values)[:, 0].tolist() == [1, 1, 2, 1, 0]

    @pytest.mark.parametrize("distinct, dtype", [(1, np.uint8), (256, np.uint8),
                                                 (257, np.uint16), (65536, np.uint16),
                                                 (65537, np.uint32)])
    def test_smallest_dtype(self, distinct, dtype):
        col = np.arange(distinct, dtype=np.float32)[::-1] - 1000
        values = np.stack([col, np.zeros_like(col)], axis=1)
        codes = rank_codes(values)
        assert codes.dtype == dtype
        assert codes[:, 0].tolist() == list(range(distinct))[::-1]
        assert not codes[:, 1].any()

    def test_dataset_caches_codes(self):
        d = Dataset(np.array([[3, 1], [1, 1], [2, 0]], np.float32),
                    np.array([0, 1, 0], np.uint16), 2)
        assert d.rank_codes is d.rank_codes
        np.testing.assert_array_equal(d.rank_codes, [[2, 1], [0, 1], [1, 0]])


class TestEdgeCases:
    def test_single_row(self):
        values = np.array([[1.0, 2.0]], np.float32)
        assert split(values, np.array([0]), 2) == NOT_FOUND

    def test_constant_columns(self):
        values = np.full((12, 4), 3.5, np.float32)
        labels = np.arange(12, dtype=np.int64) % 3
        assert split(values, labels, 3) == NOT_FOUND

    def test_constant_columns_skipped(self):
        values = np.full((8, 3), 2.0, np.float32)
        values[:, 2] = np.arange(8)
        labels = (np.arange(8) >= 4).astype(np.int64)
        assert bits(split(values, labels, 2)) == bits((2, 3.5, 8.0, True))

    def test_duplicate_columns_smallest_feature(self):
        rng = np.random.RandomState(2)
        labels = rng.randint(0, 2, 50).astype(np.int64)
        signal = (labels * 3 + rng.randint(0, 3, 50)).astype(np.float32)
        values = np.stack([rng.randint(0, 2, 50), signal, signal], axis=1).astype(np.float32)
        got = split(values, labels, 2)
        assert got[0] == 1
        assert bits(got) == bits(per_column_best_split(values, labels, 2))

    def test_mirrored_labels_smallest_threshold(self):
        # thresholds 0.5 and 2.5 score the same (1/1 + 5/3); 0.5 must win
        values = np.array([[0], [1], [2], [3]], np.float32)
        labels = np.array([0, 1, 1, 0], np.int64)
        col, thr, score, found = split(values, labels, 2)
        assert (col, thr, found) == (0, 0.5, True)
        assert score == 1 / 1 + 5 / 3

    def test_midpoint_rounding_up_falls_back_to_left_value(self):
        # v0 has an odd f32 mantissa, so the exact midpoint rounds to v1
        v0 = np.nextafter(np.float32(1), np.float32(2))
        v1 = np.nextafter(v0, np.float32(2))
        assert np.float32((np.float64(v0) + np.float64(v1)) * 0.5) == v1
        values = np.array([[v0], [v0], [v1], [v1]], np.float32)
        labels = np.array([0, 0, 1, 1], np.int64)
        col, thr, score, found = split(values, labels, 2)
        assert found and col == 0 and np.float32(thr) == v0
        assert ((values[:, 0] <= np.float32(thr)) == (labels == 0)).all()


def tied_dataset():
    rng = np.random.RandomState(2024)
    labels = rng.randint(0, 5, 400)
    X = rng.randint(0, 12, (400, 20)) + 3 * (labels[:, None] == np.arange(20)[None, :] % 5)
    return Dataset(X.astype(np.float32), labels.astype(np.uint16), 5)


def standardized_pixel_dataset():
    rng = np.random.RandomState(99)
    labels = rng.randint(0, 10, 600)
    ink = rng.rand(600, 64) < 0.2 + 0.05 * (labels[:, None] == np.arange(64)[None, :] % 10)
    px = np.where(ink, rng.randint(1, 256, (600, 64)), 0).astype(np.float32)
    d = Dataset(px, labels.astype(np.uint16), 10)
    return Dataset(apply_standardizer(fit_standardizer(d), px), d.labels, 10)


class TestGoldenPools:
    """Pinned pool fingerprints on inputs with many repeated values: a split
    change that alters any tree, threshold bit or tie decision changes them."""

    @pytest.mark.parametrize("make, fingerprint, n_nodes", [
        (tied_dataset, 0x4FB4917A, 118),
        (standardized_pixel_dataset, 0xEB9DA21E, 516),
    ])
    def test_fingerprint(self, make, fingerprint, n_nodes):
        pool = generate_pool(make(), ((6, 7), (4, 3)), seed=5)
        assert pool.n_nodes == n_nodes
        assert pool.fingerprint() == fingerprint
