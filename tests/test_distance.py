"""Bit pin of the numpy distance kernel against the expression it evaluates
in place."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tinydes._kernels import _pairwise_sqdist_np


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
    got = _pairwise_sqdist_np(Q, D)
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
    assert (np.diag(_pairwise_sqdist_np(Q, Q))[residue < 0] == 0.0).all()


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
