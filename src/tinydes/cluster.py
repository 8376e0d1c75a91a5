"""k-means over the standardized selection set; clusters are the competence regions.

k-means++ seeding, Lloyd iterations, empty clusters repaired by seizing the
point currently farthest from its own centroid. Every distance is a cell of
``_kernels.sqdist_table`` (float32 squares summed in float64, as in the
compact inference engine): seeding fills it a centroid's row at a time,
bounded Lloyd steps cell by cell, the final repair and ``assign_batch`` whole.

Lloyd assignments after the first are bounded (Elkan, ICML 2003): each point
keeps a float64 lower bound on its Euclidean distance to each centroid,
lowered by the centroid's shift, and a distance other than its own is
computed only where the bound, less a rounding margin (``_margin``), cannot
show that it exceeds the own one. A skipped distance can neither win nor
tie, so every bit matches an assignment against every centroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._rng import SplitMix64
from .errors import ClusterError, ShapeError


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray  # float32 [k, n_features]
    inertia: float
    iterations_run: int

    def __post_init__(self):
        c = np.ascontiguousarray(self.centroids, dtype=np.float32)
        c.flags.writeable = False
        object.__setattr__(self, "centroids", c)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def n_features(self) -> int:
        return self.centroids.shape[1]


def _plusplus_init(points: np.ndarray, k: int, rng: SplitMix64):
    """(centroids, float64 [k, n] distances of every point to each)."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float32)
    dists = np.empty((k, n), dtype=np.float64)
    first = rng.bounded(n)
    centroids[0] = points[first]
    _kernels.sqdist_table(points, centroids[:1], out=dists[:1])
    d2 = dists[0].copy()
    for c in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = rng.bounded(n)  # all remaining mass on duplicates
        else:
            r = rng.float64() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        centroids[c] = points[idx]
        _kernels.sqdist_table(points, centroids[c : c + 1], out=dists[c : c + 1])
        np.minimum(d2, dists[c], out=d2)
    return centroids, dists


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


# The lower bound of a distance whose computed square is +inf: sqrt(float32
# max), rounded down. A square is +inf only when some float32 difference
# squares past float32 max, so the points are at least this far apart.
_INF_DISTANCE = float(np.sqrt(np.finfo(np.float32).max)) * (1.0 - 2.0**-20)


class _Margin(NamedTuple):
    lo: float  # computed >= exact * lo - tiny
    hi: float  # computed <= exact * hi + tiny
    tiny: float
    drift: float  # inflates a float64 shift to an upper bound


def _margin(n_features: int) -> _Margin:
    """Rounding bounds of a computed squared distance over ``n_features``.

    Each term is (1 + d1)^2 (1 + d2) times its exact square, |d| <= 2^-24,
    from the float32 difference and square, plus at most 2^-150 where the
    square underflows; any float64 sum of n terms adds gamma_(n-1) <=
    (n - 1) 2^-52. The relative part 2^-22 + (n + 2) 2^-52 covers both with
    room for the float64 roundings of the bound arithmetic, and n 2^-149
    covers the underflows.
    """
    rel = 2.0**-22 + (n_features + 2) * 2.0**-52
    return _Margin(1.0 - rel, 1.0 + rel, n_features * 2.0**-149,
                   1.0 + (n_features + 8) * 2.0**-52)


def _lower_bounds(dists, margin: _Margin):
    """Lower bounds on the Euclidean distances whose computed squares are
    ``dists``."""
    # the last factor rounds the float64 arithmetic downwards
    low = np.sqrt(np.maximum(dists - margin.tiny, 0.0) / margin.hi) * (1.0 - 2.0**-50)
    return np.minimum(low, _INF_DISTANCE, out=low)


def _drift(lower, moves, margin: _Margin):
    """Lower each centroid's bounds by its shift ``moves``, rounding
    downwards; a bound never goes below zero."""
    lower -= (moves * margin.drift)[:, None]
    lower *= 1.0 - 2.0**-51
    np.maximum(lower, 0.0, out=lower)


def _bounded_assign(points, centroids, labels, lower, margin: _Margin):
    """``assign_clusters(points, centroids)`` from the previous ``labels`` and
    the (k, n) ``lower`` bounds; refreshes the bound of every distance it
    computes."""
    k, n = lower.shape
    cols = np.arange(n)
    own = np.zeros((k, n), dtype=bool)
    own[labels, cols] = True
    dm = _kernels.sqdist_table(points, centroids, own, np.full((k, n), np.inf))
    # a skipped distance provably exceeds the own one: it can neither win
    # nor tie, and +inf in its cell keeps it from being the nearest
    todo = lower * lower * margin.lo - margin.tiny <= dm[labels, cols]
    todo &= ~own
    _kernels.sqdist_table(points, centroids, todo, dm)
    todo |= own
    np.copyto(lower, _lower_bounds(dm, margin), where=todo)
    return _kernels.nearest(dm)


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
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ClusterError(f"point {int(np.argmin(finite))} has a non-finite value")
    rng = SplitMix64(seed)
    centroids, seed_dists = _plusplus_init(pts, k, rng)
    margin = _margin(pts.shape[1])
    lower = _lower_bounds(seed_dists, margin)
    labels, dists = _kernels.nearest(seed_dists)
    prev_inertia = np.inf
    iterations = 0
    for _ in range(max_iter):
        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            _repair_empty(pts, centroids, labels, dists, counts)
            lower.fill(0.0)  # the next assignment computes every distance
        inertia = float(dists.sum())
        # float32 centroid rounding allows microscopic upticks; anything larger
        # is a genuine Lloyd violation.
        if inertia > prev_inertia * (1 + 1e-6) + 1e-9:
            raise ClusterError(f"inertia increased from {prev_inertia!r} to {inertia!r}")
        prev_inertia = inertia
        new_centroids = _kernels.cluster_means(pts, labels, k)
        moves = np.sqrt(np.square(new_centroids.astype(np.float64) -
                                  centroids.astype(np.float64)).sum(axis=1))
        shift = float(moves.max())
        _drift(lower, moves, margin)
        centroids = new_centroids
        iterations += 1
        labels, dists = _bounded_assign(pts, centroids, labels, lower, margin)
        if shift < tol:
            break
    # keep seizing points until no cluster is empty
    for _ in range(k):
        counts = np.bincount(labels, minlength=k)
        if (counts > 0).all():
            break
        centroids = centroids.copy()
        _repair_empty(pts, centroids, labels, dists, counts)
        labels, dists = _kernels.assign_clusters(pts, centroids)
    return KMeansModel(centroids, float(dists.sum()), iterations)


def assign_batch(m: KMeansModel, X) -> np.ndarray:
    """Cluster ids for every row of X."""
    mat = np.ascontiguousarray(X, dtype=np.float32)
    if mat.shape[1] != m.n_features:
        raise ShapeError(f"expected {m.n_features} features, got {mat.shape[1]}")
    labels, _ = _kernels.assign_clusters(mat, m.centroids)
    return labels
