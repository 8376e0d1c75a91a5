"""The unbounded k-means: the reference that ``cluster.fit_kmeans`` (whose
Lloyd assignments skip distances that bounds rule out) is checked against.

``fit_kmeans`` here assigns every point against every centroid in each
iteration with ``assign_clusters``. Its seeding, empty-cluster repair,
inertia check and stopping rule are written out as production writes them,
so the two must agree in every centroid bit, the inertia bits and the
iteration count.
"""

import numpy as np

from tinydes import _kernels
from tinydes._rng import SplitMix64
from tinydes.cluster import KMeansModel
from tinydes.errors import ClusterError, ShapeError


def _sqdist_to(points, centroid):
    _, d = _kernels.assign_clusters(points, centroid.reshape(1, -1))
    return d


def _plusplus_init(points, k, rng):
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float32)
    first = rng.bounded(n)
    centroids[0] = points[first]
    if k == 1:
        return centroids
    d2 = _sqdist_to(points, centroids[0])
    for c in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = rng.bounded(n)  # all remaining mass on duplicates
        else:
            r = rng.float64() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        centroids[c] = points[idx]
        d2 = np.minimum(d2, _sqdist_to(points, centroids[c]))
    return centroids


def _repair_empty(points, centroids, labels, dists, counts):
    """Give each empty cluster the point farthest from its current centroid."""
    for c in range(centroids.shape[0]):
        if counts[c] > 0:
            continue
        far = int(np.argmax(dists))
        old = int(labels[far])
        centroids[c] = points[far]
        labels[far] = c
        dists[far] = 0.0
        counts[old] -= 1
        counts[c] = 1


def fit_kmeans(points, k, seed, max_iter=300, tol=1e-4):
    pts = np.ascontiguousarray(points, dtype=np.float32)
    if pts.ndim != 2:
        raise ShapeError(f"points must be 2-D, got shape {pts.shape}")
    n = pts.shape[0]
    if k < 1:
        raise ClusterError(f"k must be >= 1, got {k}")
    if n < k:
        raise ClusterError(f"cannot fit {k} clusters on {n} points")
    rng = SplitMix64(seed)
    centroids = _plusplus_init(pts, k, rng)
    prev_inertia = np.inf
    iterations = 0
    for _ in range(max_iter):
        labels, dists = _kernels.assign_clusters(pts, centroids)
        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            _repair_empty(pts, centroids, labels, dists, counts)
        inertia = float(dists.sum())
        if inertia > prev_inertia * (1 + 1e-6) + 1e-9:
            raise ClusterError(f"inertia increased from {prev_inertia!r} to {inertia!r}")
        prev_inertia = inertia
        new_centroids = _kernels.cluster_means(pts, labels, k)
        shift = float(np.sqrt(np.square(new_centroids.astype(np.float64) -
                                        centroids.astype(np.float64)).sum(axis=1)).max())
        centroids = new_centroids
        iterations += 1
        if shift < tol:
            break
    # final assignment; keep seizing points until no cluster is empty
    labels, dists = _kernels.assign_clusters(pts, centroids)
    for _ in range(k):
        counts = np.bincount(labels, minlength=k)
        if (counts > 0).all():
            break
        centroids = centroids.copy()
        _repair_empty(pts, centroids, labels, dists, counts)
        labels, dists = _kernels.assign_clusters(pts, centroids)
    return KMeansModel(centroids, float(dists.sum()), iterations)
