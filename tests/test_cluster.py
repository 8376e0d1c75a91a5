import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmeans_oracle
from tinydes import cluster
from tinydes.cluster import KMeansModel, assign_batch, fit_kmeans
from tinydes.errors import ClusterError, ShapeError


def brute_force_two_cluster_inertia(points):
    """Best 2-partition by exhaustive enumeration; the k-means oracle."""
    n = points.shape[0]
    best = (np.inf, None)
    for bits in itertools.product([0, 1], repeat=n):
        sel = np.array(bits, bool)
        if sel.all() or (~sel).all():
            continue
        inertia = 0.0
        for mask in (sel, ~sel):
            c = points[mask].mean(axis=0)
            inertia += float(np.square(points[mask] - c).sum())
        if inertia < best[0]:
            best = (inertia, sel)
    return best


FOUR_POINTS = np.array([[0, 0], [0, 1], [10, 10], [10, 11]], np.float32)


class TestFitKmeans:
    def test_two_well_separated_pairs(self):
        # brute force says the optimal 2-partition splits the pairs
        inertia, sel = brute_force_two_cluster_inertia(FOUR_POINTS)
        assert inertia == pytest.approx(1.0)
        m = fit_kmeans(FOUR_POINTS, 2, seed=0)
        got = sorted(m.centroids.tolist())
        assert got[0] == pytest.approx([0.0, 0.5])
        assert got[1] == pytest.approx([10.0, 10.5])
        assert m.inertia == pytest.approx(inertia)

    def test_k1_mean_and_inertia(self):
        pts = np.array([[1, 2], [3, 4], [5, 0]], np.float32)
        m = fit_kmeans(pts, 1, seed=5)
        np.testing.assert_allclose(m.centroids[0], pts.mean(axis=0), rtol=1e-6)
        expected = float(np.square(pts - pts.mean(axis=0)).sum())
        assert m.inertia == pytest.approx(expected, rel=1e-5)

    def test_k_equals_n(self):
        pts = np.array([[0, 0], [5, 5], [9, 1]], np.float32)
        m = fit_kmeans(pts, 3, seed=1)
        assert m.inertia == pytest.approx(0.0)
        assert {tuple(c) for c in m.centroids.tolist()} == {tuple(p) for p in pts.tolist()}

    def test_too_few_points(self):
        with pytest.raises(ClusterError):
            fit_kmeans(np.zeros((2, 3), np.float32), 3, seed=0)

    def test_bitwise_determinism(self):
        rng = np.random.RandomState(0)
        pts = rng.rand(300, 8).astype(np.float32)
        a = fit_kmeans(pts, 5, seed=77)
        b = fit_kmeans(pts, 5, seed=77)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.inertia == b.inertia and a.iterations_run == b.iterations_run

    def test_assignment_optimality_after_fit(self):
        rng = np.random.RandomState(3)
        pts = rng.randn(200, 4).astype(np.float32)
        m = fit_kmeans(pts, 4, seed=9)
        labels = assign_batch(m, pts)
        d_all = np.square(pts[:, None, :].astype(np.float64) -
                          m.centroids[None].astype(np.float64)).sum(axis=2)
        np.testing.assert_array_equal(labels, np.argmin(d_all, axis=1))

    def test_no_empty_clusters(self):
        # adversarial data: a huge tight mass plus a few remote singles tempts
        # Lloyd into empty clusters; the repair rule must leave none
        rng = np.random.RandomState(5)
        pts = np.vstack([
            rng.randn(200, 2).astype(np.float32) * 0.01,
            np.array([[50, 50], [51, 51], [-40, 60]], np.float32),
        ])
        for seed in range(12):
            m = fit_kmeans(pts, 6, seed=seed)
            counts = np.bincount(assign_batch(m, pts), minlength=6)
            assert (counts >= 1).all(), f"empty cluster at seed {seed}"

    def test_distinct_centroids(self):
        rng = np.random.RandomState(8)
        pts = rng.rand(60, 3).astype(np.float32)
        m = fit_kmeans(pts, 4, seed=2)
        for i in range(4):
            for j in range(i + 1, 4):
                gap = np.square(m.centroids[i].astype(np.float64) -
                                m.centroids[j].astype(np.float64)).sum()
                assert gap > 1e-18

    def test_inertia_nonincreasing_over_max_iter_sweep(self):
        # running longer can only keep or shrink the final inertia
        rng = np.random.RandomState(11)
        pts = rng.rand(150, 5).astype(np.float32)
        prev = np.inf
        for it in (1, 2, 3, 5, 10, 50):
            m = fit_kmeans(pts, 4, seed=4, max_iter=it)
            assert m.inertia <= prev * (1 + 1e-6) + 1e-9
            prev = m.inertia

    def test_inertia_increase_raises_typed_error(self, monkeypatch):
        # the check must survive `python -O`, so it is an exception, not an assert
        real = cluster._kernels.sqdist_rows
        calls = []

        def growing(X, c, out):
            calls.append(None)
            return real(X, c, out) + 1e3 * len(calls)

        monkeypatch.setattr(cluster._kernels, "sqdist_rows", growing)
        rng = np.random.RandomState(3)
        with pytest.raises(ClusterError, match="inertia increased"):
            fit_kmeans(rng.rand(60, 3).astype(np.float32), 3, seed=1)


    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_point_raises_typed_error(self, bad):
        # a DSEL row that standardizes to +-inf would give non-finite centroids
        pts = np.random.RandomState(0).rand(20, 3).astype(np.float32)
        pts[7, 1] = pts[12, 0] = bad
        with pytest.raises(ClusterError, match="^point 7 has a non-finite value$"):
            fit_kmeans(pts, 2, seed=0)


def outcome(fit, points, k, seed, max_iter):
    """A fit's centroid, inertia and iteration-count bits, or its error."""
    try:
        m = fit(points, k, seed, max_iter=max_iter)
    except ClusterError as exc:
        return str(exc)
    return m.centroids.tobytes(), np.float64(m.inertia).tobytes(), m.iterations_run


# 1e-30 and 1e-19 give float32 squares that underflow (to zero or to
# subnormals); 1e19 and 1e20 give squares that overflow to +inf
MAGNITUDES = (1.0, 1e-30, 1e-19, 1e19, 1e20)


def exact_sqdist(x, c):
    return sum((Fraction(float(a)) - Fraction(float(b))) ** 2 for a, b in zip(x, c))


class TestBoundMargin:
    """The rounding margin and the bounds against exact rational distances."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_features=st.integers(1, 40))
    def test_bounds_hold_exactly(self, data, n_features):
        # any finite float32, or only values whose squares underflow
        bound = data.draw(st.sampled_from([None, 2.0**-70]))
        vec = st.lists(st.floats(-bound if bound else None, bound, width=32,
                                 allow_nan=False, allow_infinity=False),
                       min_size=n_features, max_size=n_features)
        x, c, c2 = (np.array(data.draw(vec), np.float32) for _ in range(3))
        margin = cluster._margin(n_features)
        d = float(cluster._kernels.sqdist_rows(x[None], c, np.empty((1, n_features),
                                                                   np.float32))[0])
        exact = exact_sqdist(x, c)
        if d != np.inf:
            assert exact * Fraction(margin.lo) - Fraction(margin.tiny) <= Fraction(d)
            assert Fraction(d) <= exact * Fraction(margin.hi) + Fraction(margin.tiny)
        lower = cluster._lower_bounds(np.array([[d]]), margin)
        assert Fraction(float(lower[0, 0])) ** 2 <= exact
        # fit_kmeans' shift of a centroid that moves from c to c2
        move = np.sqrt(np.square(c2.astype(np.float64) - c.astype(np.float64)).sum(keepdims=True))
        cluster._drift(lower, move, margin)
        assert Fraction(float(lower[0, 0])) ** 2 <= exact_sqdist(x, c2)


class TestBoundedLloyd:
    """The bounded fit against the unbounded oracle, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k=st.integers(1, 8), n_features=st.integers(1, 6),
           n_distinct=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           max_iter=st.sampled_from([0, 1, 2, 5, 300]))
    def test_same_bits_as_oracle(self, data, k, n_features, n_distinct, seed, max_iter):
        # rows repeat a few distinct points, so k often exceeds the distinct
        # count and empty clusters must be repaired
        distinct = np.array(data.draw(st.lists(
            st.floats(-8, 8, width=32), min_size=n_distinct * n_features,
            max_size=n_distinct * n_features)), np.float32).reshape(n_distinct, n_features)
        scale = np.array(data.draw(st.lists(st.sampled_from(MAGNITUDES), min_size=n_features,
                                            max_size=n_features)), np.float32)
        rows = data.draw(st.lists(st.integers(0, n_distinct - 1), min_size=k, max_size=40))
        points = distinct[rows] * scale
        assert outcome(fit_kmeans, points, k, seed, max_iter) == \
            outcome(kmeans_oracle.fit_kmeans, points, k, seed, max_iter)

    @pytest.mark.parametrize("n, n_features, k", [(300, 784, 5), (500, 64, 8), (200, 130, 3)])
    def test_same_bits_on_wide_rows(self, n, n_features, k):
        # pixel-like rows: most cells zero, wide enough for pairwise sums
        rng = np.random.RandomState(n_features)
        ink = rng.rand(n, n_features) < 0.2
        points = np.where(ink, rng.randn(n, n_features), 0).astype(np.float32)
        for seed in range(3):
            assert outcome(fit_kmeans, points, k, seed, 300) == \
                outcome(kmeans_oracle.fit_kmeans, points, k, seed, 300)

    def test_skips_distances(self, monkeypatch):
        # the bounds must rule out some distances: on separated blobs the fit
        # computes well under the k per point per assignment of the oracle
        real = cluster._kernels.sqdist_rows
        rows = []

        def counting(X, c, out):
            rows.append(X.shape[0])
            return real(X, c, out)

        monkeypatch.setattr(cluster._kernels, "sqdist_rows", counting)
        rng = np.random.RandomState(4)
        points = (rng.randn(400, 6) + 6 * rng.randint(0, 4, (400, 1))).astype(np.float32)
        m = fit_kmeans(points, 4, seed=2)
        assert m.iterations_run > 1
        assert sum(rows) < 0.6 * 4 * 400 * (m.iterations_run + 1)


class TestModel:
    def test_k_is_the_centroid_count(self):
        # k is read off the centroids, so no model can claim another count
        m = fit_kmeans(FOUR_POINTS, 2, seed=0)
        assert (m.k, m.n_features) == m.centroids.shape == (2, 2)
        with pytest.raises(TypeError):
            KMeansModel(m.centroids, m.k + 1, 0.0, 0)


class TestAssign:
    def test_on_centroid(self):
        m = fit_kmeans(FOUR_POINTS, 2, seed=0)
        np.testing.assert_array_equal(assign_batch(m, m.centroids), [0, 1])
        _, dists = cluster._kernels.assign_clusters(m.centroids, m.centroids)
        np.testing.assert_array_equal(dists, [0.0, 0.0])

    def test_equidistant_tie_smallest_id(self):
        m = KMeansModel(np.array([[1, 0], [0, 0], [2, 0]], np.float32), 0.0, 0)
        # exactly on centroid 0; then equidistant from 0 and 1, tied to 0
        np.testing.assert_array_equal(assign_batch(m, [[1.0, 0.0], [0.5, 3.0]]), [0, 0])

    def test_recomputed_squared_distances(self):
        # x=(9,9) against {(0,0.5),(10,10.5)}: 153.25 vs 3.25
        m = KMeansModel(np.array([[0, 0.5], [10, 10.5]], np.float32), 0.0, 0)
        x = np.array([[9.0, 9.0]], np.float32)
        assert assign_batch(m, x)[0] == 1
        _, dist = cluster._kernels.assign_clusters(x, m.centroids)
        assert dist[0] == pytest.approx(3.25)
        other = float(np.square(np.array([9, 9.0]) - np.array([0, 0.5])).sum())
        assert other == pytest.approx(153.25)

    def test_shape_error(self):
        m = KMeansModel(np.zeros((2, 3), np.float32), 0.0, 0)
        with pytest.raises(ShapeError):
            assign_batch(m, [[1.0, 2.0]])
