"""k-means over the standardized selection set; clusters are the competence regions.

k-means++ seeding, Lloyd iterations, empty clusters repaired by seizing the
point currently farthest from its own centroid. Distances square float32
differences and accumulate in float64 everywhere, matching the compact
inference engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._rng import SplitMix64
from .errors import ClusterError, ShapeError


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray  # float32 [k, n_features]
    k: int
    inertia: float
    iterations_run: int

    def __post_init__(self):
        c = np.ascontiguousarray(self.centroids, dtype=np.float32)
        c.flags.writeable = False
        object.__setattr__(self, "centroids", c)

    @property
    def n_features(self) -> int:
        return self.centroids.shape[1]


def _sqdist_to(points: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    _, d = _kernels.assign_clusters(points, centroid.reshape(1, -1))
    return d


def _plusplus_init(points: np.ndarray, k: int, rng: SplitMix64) -> np.ndarray:
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


def fit_kmeans(points, k: int, seed: int, max_iter: int = 300, tol: float = 1e-4) -> KMeansModel:
    """Lloyd's algorithm with k-means++ seeding; stops when the largest
    centroid shift drops below ``tol`` or after ``max_iter`` iterations."""
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
        # float32 centroid rounding allows microscopic upticks; anything larger
        # is a genuine Lloyd violation.
        if inertia > prev_inertia * (1 + 1e-6) + 1e-9:
            raise ClusterError(f"inertia increased from {prev_inertia!r} to {inertia!r}")
        prev_inertia = inertia
        new_centroids, _ = _kernels.cluster_means(pts, labels, k)
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
    return KMeansModel(centroids, k, float(dists.sum()), iterations)


def assign(m: KMeansModel, x) -> tuple[int, float]:
    """Nearest centroid by squared L2; ties go to the smaller cluster id.
    Returns (cluster id, squared distance)."""
    vec = np.asarray(x, dtype=np.float32).ravel()
    if vec.shape[0] != m.n_features:
        raise ShapeError(f"expected {m.n_features} features, got {vec.shape[0]}")
    labels, dists = _kernels.assign_clusters(vec.reshape(1, -1), m.centroids)
    return int(labels[0]), float(dists[0])


def assign_batch(m: KMeansModel, X) -> np.ndarray:
    """Cluster ids for every row of X."""
    mat = np.ascontiguousarray(X, dtype=np.float32)
    if mat.shape[1] != m.n_features:
        raise ShapeError(f"expected {m.n_features} features, got {mat.shape[1]}")
    labels, _ = _kernels.assign_clusters(mat, m.centroids)
    return labels
