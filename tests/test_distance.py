"""Bit pins of the distance kernels against the expressions they evaluate
in place."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from tinydes import _kernels
from tinydes._kernels import (assign_clusters, block_rows, pairwise_sqdist, sq_norms,
                              sqdist_table)


def expanded_oracle(Q, D):
    """qq - 2 Q.D + dd written as one expression, clamped at zero."""
    Qd = Q.astype(np.float64)
    Dd = D.astype(np.float64)
    qq = np.square(Qd).sum(axis=1)[:, None]
    dd = np.square(Dd).sum(axis=1)[None, :]
    out = qq - 2.0 * (Qd @ Dd.T) + dd
    np.maximum(out, 0.0, out=out)
    return out


def assert_same_bits(Q, D):
    got = pairwise_sqdist(Q, D, sq_norms(D.astype(np.float64)))
    want = expanded_oracle(Q, D)
    assert got.dtype == np.float64 and got.shape == want.shape == (Q.shape[0], D.shape[0])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_random_rows():
    rng = np.random.RandomState(8)
    assert_same_bits(rng.randn(57, 23).astype(np.float32), rng.randn(81, 23).astype(np.float32))


def test_large_magnitude_rows():
    rng = np.random.RandomState(9)
    Q = (rng.randn(20, 16) * 1e18).astype(np.float32)
    D = (rng.randn(30, 16) * 1e18).astype(np.float32)
    assert_same_bits(Q, D)


def test_identical_rows_clamp():
    # each query is also a selection sample: the expansion leaves rounding
    # residue on the diagonal, some of it negative, which the clamp zeroes
    rng = np.random.RandomState(10)
    Q = (rng.randn(200, 12) * 3.7).astype(np.float32)
    Qd = Q.astype(np.float64)
    qq = np.square(Qd).sum(axis=1)
    residue = np.diag(qq[:, None] - 2.0 * (Qd @ Qd.T) + qq[None, :])
    assert (residue < 0).any()
    assert_same_bits(Q, Q)
    assert (np.diag(pairwise_sqdist(Q, Q, qq))[residue < 0] == 0.0).all()


def test_empty_queries():
    D = np.ones((5, 3), np.float32)
    assert_same_bits(np.empty((0, 3), np.float32), D)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 6), m=st.integers(1, 6), f=st.integers(1, 5))
def test_small_integer_matrices(data, n, m, f):
    cells = st.integers(-20, 20)
    Q = np.array(data.draw(st.lists(cells, min_size=n * f, max_size=n * f)),
                 np.float32).reshape(n, f)
    D = np.array(data.draw(st.lists(cells, min_size=m * f, max_size=m * f)),
                 np.float32).reshape(m, f)
    assert_same_bits(Q, D)


def assign_oracle(X, C):
    """Nearest centroid with fresh temporaries per cluster and block."""
    n, k = X.shape[0], C.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    step = max(1, (1 << 22) // max(1, X.shape[1]))
    with np.errstate(over="ignore"):
        for s in range(0, n, step):
            xb = X[s : s + step]
            dm = np.empty((xb.shape[0], k), dtype=np.float64)
            for c in range(k):
                dm[:, c] = np.square(xb - C[c]).sum(axis=1, dtype=np.float64)
            lb = np.argmin(dm, axis=1)
            labels[s : s + step] = lb
            dists[s : s + step] = dm[np.arange(xb.shape[0]), lb]
    return labels, dists


@pytest.mark.parametrize("rows, features, scale", [
    (1, 784, 1.0),  # one row
    ((1 << 22) // 1000 + 7, 1000, 1.0),  # one full block and a 7-row tail
    (40, 16, 1e20),  # float32 squares overflow to inf
    (40, 16, 3e38),  # float32 differences overflow to inf
    (0, 5, 1.0),
])
def test_assign_clusters_matches_fresh_temporaries(rows, features, scale):
    rng = np.random.RandomState(rows + features)
    X = np.clip(rng.randn(rows, features) * scale, -3e38, 3e38).astype(np.float32)
    C = np.clip(rng.randn(5, features) * scale, -3e38, 3e38).astype(np.float32)
    C[3] = C[1]  # a tie, to the smaller id
    labels, dists = assign_clusters(X, C)
    want_labels, want_dists = assign_oracle(X, C)
    np.testing.assert_array_equal(labels, want_labels)
    np.testing.assert_array_equal(dists.view(np.uint64), want_dists.view(np.uint64))
    if scale > 1.0:
        assert np.isinf(dists).any()


@pytest.mark.parametrize("rows, features", [
    (60, 16),
    ((1 << 22) // 1000 + 7, 1000),  # one full block and a 7-row tail
])
def test_sqdist_table_fills_only_todo(rows, features):
    rng = np.random.RandomState(rows)
    X = rng.randn(rows, features).astype(np.float32)
    C = rng.randn(5, features).astype(np.float32)
    full = sqdist_table(X, C)
    for c in range(5):
        want = np.square(X - C[c]).sum(axis=1, dtype=np.float64)
        np.testing.assert_array_equal(full[c].view(np.uint64), want.view(np.uint64))
    todo = rng.rand(5, rows) < 0.35
    todo[0] = True  # every row of centroid 0: whole blocks and the tail
    out = np.full((5, rows), np.inf)
    assert sqdist_table(X, C, todo, out) is out
    np.testing.assert_array_equal(out[todo].view(np.uint64), full[todo].view(np.uint64))
    assert np.isposinf(out[~todo]).all()


def table_oracle(X, C, todo):
    """Each cell computed on its own from a fresh difference row, +inf
    where ``todo`` is False."""
    out = np.full((C.shape[0], X.shape[0]), np.inf)
    with np.errstate(over="ignore"):
        for c, i in zip(*np.nonzero(todo)):
            out[c, i] = np.square(X[i:i + 1] - C[c]).sum(axis=1, dtype=np.float64)[0]
    return out


def assert_table_bits(X, C, todo):
    before = X.copy()
    want = table_oracle(X, C, np.ones((C.shape[0], X.shape[0]), bool) if todo is None else todo)
    got = sqdist_table(X, C, todo, np.full((C.shape[0], X.shape[0]), np.inf))
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    # the rows are read, never written: -0.0 stays -0.0
    np.testing.assert_array_equal(X.view(np.uint32), before.view(np.uint32))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 9), f=st.integers(1, 4), k=st.integers(1, 3),
       step=st.integers(1, 4), masked=st.booleans())
def test_sqdist_table_across_block_edges(data, n, f, k, step, masked):
    # few distinct values, so many distances tie; -0.0 beside 0.0, a
    # subnormal and squares that overflow float32
    cells = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 3.0, 1e-45, 1e20])
    X = np.array(data.draw(st.lists(cells, min_size=n * f, max_size=n * f)),
                 np.float32).reshape(n, f)
    C = np.array(data.draw(st.lists(cells, min_size=k * f, max_size=k * f)),
                 np.float32).reshape(k, f)
    todo = None
    if masked:
        todo = np.array(data.draw(st.lists(st.booleans(), min_size=k * n, max_size=k * n)),
                        bool).reshape(k, n)
    with mock.patch.object(_kernels, "block_rows", lambda _: step):
        assert_table_bits(X, C, todo)


@pytest.mark.parametrize("rows, features", [
    (1, 784),  # one row
    (block_rows(1000), 1000),  # exactly one block
    (block_rows(1000) + 1, 1000),  # a block plus one row
])
def test_sqdist_table_real_blocks(rows, features):
    rng = np.random.RandomState(rows)
    X = rng.randn(rows, features).astype(np.float32)
    X[0, ::3] = -0.0
    X[-1] = X[0]  # the first and last rows tie
    C = rng.randn(3, features).astype(np.float32)
    C[2] = X[0]
    C[2, ::3] = 0.0  # row 0 less this centroid: -0.0 where row 0 holds -0.0
    assert_table_bits(X, C, None)
    todo = np.zeros((3, rows), bool)
    todo[0] = True
    todo[1, -1] = True  # the last block's one row alone
    todo[2, ::2] = True
    assert_table_bits(X, C, todo)
