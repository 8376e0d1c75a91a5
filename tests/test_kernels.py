"""Differential tests: every numba kernel against its numpy fallback (split
search has a numpy kernel only; see ``test_split_search.py``)."""

import numpy as np
import pytest

from tinydes import _kernels
from tinydes._kernels import (_assign_clusters_np, _both_wrong_counts_np,
                              _cluster_means_np, _pairwise_sqdist_np, _tree_walk_np)
from tinydes.data import Dataset
from tinydes.trees import ForestSpec, PoolConfig, generate_pool

pytestmark = pytest.mark.skipif(_kernels.BACKEND != "numba",
                                reason="requires the numba backend for comparison")


def random_case(seed, n=400, f=9, classes=5):
    rng = np.random.RandomState(seed)
    X = (rng.randint(0, 40, (n, f)) / 4.0).astype(np.float32)
    y = rng.randint(0, classes, n).astype(np.int64)
    return X, y, classes


class TestTreeWalk:
    def test_labels_and_visits_equal(self):
        X, y, classes = random_case(3, n=500, f=7)
        d = Dataset(X, y.astype(np.uint16), classes)
        pool = generate_pool(d, PoolConfig((ForestSpec(6, 8),)), seed=1)
        for t in pool.trees:
            la, va = _kernels._tree_walk_nb(t.feature, t.threshold, t.jump, X)
            lb, vb = _tree_walk_np(t.feature, t.threshold, t.jump, X)
            np.testing.assert_array_equal(la, lb)
            np.testing.assert_array_equal(va, vb)


class TestAssignClusters:
    def test_labels_equal_dists_close(self):
        rng = np.random.RandomState(4)
        X = rng.randn(300, 12).astype(np.float32)
        C = rng.randn(5, 12).astype(np.float32)
        la, da = _kernels._assign_clusters_nb(X, C)
        lb, db = _assign_clusters_np(X, C)
        np.testing.assert_array_equal(la, lb)
        np.testing.assert_allclose(da, db, rtol=1e-12)


class TestClusterMeans:
    def test_counts_exact_means_close(self):
        rng = np.random.RandomState(5)
        X = rng.randn(200, 6).astype(np.float32)
        labels = rng.randint(0, 4, 200).astype(np.int64)
        ma, ca = _kernels._cluster_means_nb(X, labels, 4)
        mb, cb = _cluster_means_np(X, labels, 4)
        np.testing.assert_array_equal(ca, cb)
        np.testing.assert_allclose(ma, mb, rtol=1e-6)


class TestPairwiseSqdist:
    def test_close(self):
        # numba squares f32 differences; the numpy fallback expands
        # ||q-d||^2 in f64, so agreement is to f32 rounding only
        rng = np.random.RandomState(6)
        Q = rng.randn(40, 10).astype(np.float32)
        D = rng.randn(70, 10).astype(np.float32)
        a = _kernels._pairwise_sqdist_nb(Q, D)
        b = _pairwise_sqdist_np(Q, D)
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5)


class TestBothWrongCounts:
    def test_exact(self):
        rng = np.random.RandomState(7)
        w = rng.rand(9, 50) > 0.5
        a = _kernels._both_wrong_counts_nb(np.ascontiguousarray(w))
        b = _both_wrong_counts_np(w)
        np.testing.assert_array_equal(a, b)

