"""The six selection methods over a shared pool and selection set.

Single Best and Static Selection pick at train time; KNORA-U/E pick per
query from nearest-neighbor regions; the clustering method precomputes one
accuracy-then-diversity ensemble per k-means cell; Oracle is the ceiling.

Every tie anywhere resolves to the smallest index or class id, so results
are independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .cluster import KMeansModel, assign_batch
from .data import Dataset, Standardizer, apply_standardizer
from .errors import ModelCorruptError, SelectionError, ShapeError
from .trees import ClassifierPool


@dataclass(frozen=True)
class Dsel:
    """Standardized selection samples plus the pool's correctness cache."""

    samples: np.ndarray  # float32 [n_dsel, n_features]
    labels: np.ndarray  # uint16 [n_dsel]
    correctness: np.ndarray  # bool [pool_size, n_dsel]

    @property
    def pool_size(self) -> int:
        return self.correctness.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class CompetenceModel:
    """Each cluster's ranked ensemble; the model of a smaller J is ``top(j)``.
    A row that lists a classifier twice raises ``SelectionError``."""

    kmeans: KMeansModel
    ranking: np.ndarray  # uint16 [k, J], each cluster's distinct ensemble, best first

    def __post_init__(self):
        rows = self.per_cluster_ensemble
        c = np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(axis=1))
        if c.size:
            raise SelectionError(f"cluster {c[0]}'s ensemble lists a classifier twice")

    @property
    def j(self) -> int:
        return self.ranking.shape[1]

    @cached_property
    def per_cluster_ensemble(self) -> np.ndarray:
        """The ranking's rows sorted ascending, read-only."""
        ensembles = np.sort(self.ranking, axis=1)
        ensembles.flags.writeable = False
        return ensembles

    def top(self, j: int) -> CompetenceModel:
        """The model of each cluster's j best classifiers."""
        if not 1 <= j <= self.j:
            raise SelectionError(f"J {j} outside 1..{self.j}")
        return CompetenceModel(self.kmeans, self.ranking[:, :j])


@dataclass(frozen=True)
class SelectionResult:
    label: int
    cost: int  # nodes visited plus one unit per centroid distance


def build_dsel(pool: ClassifierPool, dsel_data: Dataset, s: Standardizer) -> Dsel:
    std = apply_standardizer(s, dsel_data.features)
    corr = pool_predictions(pool, std)[0] == dsel_data.labels
    return Dsel(np.ascontiguousarray(std, dtype=np.float32), dsel_data.labels.copy(), corr)


def single_best(dsel: Dsel) -> int:
    """Classifier with the highest selection-set accuracy; ties to smaller index."""
    if dsel.n_samples == 0:
        raise SelectionError("empty selection set")
    return int(_rank_top(dsel.correctness.mean(axis=1), 1)[0])


def static_selection(dsel: Dsel, pct: float) -> np.ndarray:
    """The floor(pct * pool_size) most accurate classifiers, ascending indices."""
    if not (0.0 < pct <= 1.0):
        raise SelectionError(f"pct must be in (0, 1], got {pct}")
    m = int(np.floor(pct * dsel.pool_size))
    if m == 0:
        raise SelectionError(f"pct {pct} selects zero of {dsel.pool_size} classifiers")
    return np.sort(_rank_top(dsel.correctness.mean(axis=1), m))


def _rank_top(scores: np.ndarray, take: int) -> np.ndarray:
    """Indices of the `take` largest scores; ties to smaller index."""
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    return order[:take]


def build_competence_model(dsel: Dsel, kmeans: KMeansModel, n_acc: int, j: int) -> CompetenceModel:
    """Per cluster: shortlist the n_acc most accurate classifiers, then rank
    the j with the smallest mean pairwise double-fault within the shortlist
    (ties: higher accuracy, then smaller index). Clusters with no selection
    samples fall back to global accuracy/diversity. The ranking does not
    depend on j past its first j places, so ``top`` of one built at the
    largest J gives every smaller J's model."""
    pool_size = dsel.pool_size
    if not (1 <= j <= n_acc <= pool_size):
        raise SelectionError(f"need 1 <= J({j}) <= N_acc({n_acc}) <= pool({pool_size})")
    member_of = assign_batch(kmeans, dsel.samples)
    ranking = np.empty((kmeans.k, j), dtype=np.uint16)
    for c in range(kmeans.k):
        cols = np.nonzero(member_of == c)[0]
        region = cols if cols.size > 0 else np.arange(dsel.n_samples)
        acc = dsel.correctness[:, region].mean(axis=1)
        shortlist = _rank_top(acc, n_acc)
        wrong = ~dsel.correctness[np.ix_(shortlist, region)]
        pair_counts = _kernels.both_wrong_counts(np.ascontiguousarray(wrong))
        mean_df = (pair_counts.sum(axis=1) - pair_counts.diagonal()) / (
            region.size * max(1, n_acc - 1))
        # smallest mean double-fault, then highest accuracy, then smallest index
        ranking[c] = shortlist[np.lexsort((shortlist, -acc[shortlist], mean_df))[:j]]
    return CompetenceModel(kmeans, ranking)


# ---------------------------------------------------------------------------
# Batched evaluation paths used by the benchmark harness. The caller walks
# the pool once (``pool_predictions``) and computes the KNORA regions
# (``knora_regions``) and the test rows' cluster ids (``assign_batch``) once;
# every method reads those, and none recomputes them. The batch calls take
# no query matrix: the regions or the cluster ids, their third argument, give
# the query axis, and ``vote_batch``, the one rule that votes and charges the
# visits of the trees that vote, rejects a walk of other queries.
# ``des_clustering_predict`` is the clustering path on one row; every path is
# checked against a per-query oracle kept with the tests.
# ---------------------------------------------------------------------------


# (tree, row) pairs per tree walk, so each of the walk's arrays is 512 KiB at
# most and a block's arrays stay in cache; the header of
# ``benchmarks/kernel_bench.py`` has the timings.
WALK_BLOCK_PAIRS = 1 << 16


def pool_predictions(pool: ClassifierPool, X) -> tuple[np.ndarray, np.ndarray]:
    """Labels and visit counts, [pool_size, n] each, of every (classifier,
    sample) pair, walked in blocks of ``WALK_BLOCK_PAIRS`` pairs."""
    mat = np.ascontiguousarray(X, dtype=np.float32)
    if mat.ndim != 2:
        raise ShapeError(f"expected a 2-D sample matrix, got shape {mat.shape}")
    widest = int(pool.feature.max())
    if widest >= mat.shape[1]:
        raise ModelCorruptError(f"pool reads feature {widest}; the input has {mat.shape[1]}")
    n = mat.shape[0]
    labels = np.empty(pool.pool_size * n, dtype=np.int64)
    visits = np.empty_like(labels)
    for s in range(0, labels.size, WALK_BLOCK_PAIRS):
        tree, row = np.divmod(np.arange(s, min(s + WALK_BLOCK_PAIRS, labels.size)), n)
        labels[s:s + row.size], visits[s:s + row.size] = _kernels.tree_walk(
            pool.feature, pool.threshold, pool.jump, pool.first[tree], row, mat)
    return labels.reshape(pool.pool_size, n), visits.reshape(pool.pool_size, n)


def vote_rows(preds: np.ndarray, weights: np.ndarray, n_classes: int) -> np.ndarray:
    """Row-wise weighted plurality: preds/weights are [n_queries, m] aligned.

    One bincount over (row, class) bins; ties go to the smallest class id.
    Callers pass whole-number weights, so every float64 vote total is exact
    whatever order the bins are summed in."""
    n = preds.shape[0]
    bins = (np.arange(n, dtype=np.int64)[:, None] * n_classes + preds).ravel()
    votes = np.bincount(bins, weights=np.ravel(weights), minlength=n * n_classes)
    return np.argmax(votes.reshape(n, n_classes), axis=1)


def vote_batch(pool: ClassifierPool, pool_preds, pool_visits, weights):
    """(labels, costs) of one vote per query over ``pool_predictions`` of the
    queries. ``weights`` is [n_queries, pool_size] whole numbers, 0 for a
    tree that does not vote; a query's cost is the visits of those that do."""
    for name, walk in (("pool_preds", pool_preds), ("pool_visits", pool_visits)):
        if walk.shape != (pool.pool_size, len(weights)):
            raise ShapeError(f"{name} shape {walk.shape} != {(pool.pool_size, len(weights))}")
    labels = vote_rows(pool_preds.T, weights, pool.n_classes)
    return labels, np.where(weights.T > 0, pool_visits, 0).sum(axis=0)


def _k_nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Per row, the k smallest distances' columns, near to far, ties to the
    smaller column: exactly ``np.argsort(d2, axis=1, kind="stable")[:, :k]``.

    argpartition picks some k smallest per row. The pick is the stable one
    unless a value equal to the row's k-th distance lies outside it, which
    shows as more than k entries <= that distance (or fewer than k, when
    the k-th is NaN); only such rows are sorted in full. The picked columns
    are then ordered by (distance, column)."""
    if k == 0:
        return np.empty((d2.shape[0], 0), dtype=np.intp)
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    picked = np.take_along_axis(d2, part, axis=1)
    kth = picked.max(axis=1)
    redo = np.nonzero((d2 <= kth[:, None]).sum(axis=1) != k)[0]
    order = np.lexsort((part, picked), axis=1)
    part = np.take_along_axis(part, order, axis=1)
    if redo.size:
        part[redo] = np.argsort(d2[redo], axis=1, kind="stable")[:, :k]
    return part


# Cells of one query-to-selection-set distance block: bounds the float64
# matrix that ``knora_regions`` holds at once to 8 MiB, plus an index array
# of the same size inside ``_k_nearest``. Blocks that fit in cache beat
# larger ones; the header of ``benchmarks/kernel_bench.py`` has the timings.
REGION_CHUNK_CELLS = 1 << 20


def knora_regions(dsel: Dsel, X, k: int) -> np.ndarray:
    """intp [n_queries, k]: each query's k nearest selection samples, near to
    far, ties to the smaller index (exactly a stable argsort's first k).

    Distances are computed a block of rows at a time and never kept; both
    KNORA rules read the same regions, so a caller running both computes
    them once and passes them to each. A NaN or an infinity in a selection
    sample or a query leaves no distance to rank, so it raises
    ``SelectionError``."""
    if dsel.n_samples < k:
        raise SelectionError(f"region size {k} exceeds {dsel.n_samples} selection samples")
    mat = np.ascontiguousarray(X, dtype=np.float32)
    n = mat.shape[0]
    regions = np.empty((n, k), dtype=np.intp)
    chunk = max(1, REGION_CHUNK_CELLS // max(1, dsel.n_samples))
    ref = dsel.samples.astype(np.float64)  # cast and summed once for every block
    norms = _kernels.sq_norms(ref)
    # a finite float32 row's float64 norm is finite, so only a NaN or an
    # infinity in the row makes it non-finite
    finite = np.isfinite(norms)
    if not finite.all():
        raise SelectionError(f"selection sample {int(np.argmin(finite))} has a non-finite value")
    finite = np.isfinite(mat).all(axis=1)
    if not finite.all():
        raise SelectionError(f"query {int(np.argmin(finite))} has a non-finite value")
    for s in range(0, n, chunk):
        d2 = _kernels.pairwise_sqdist(mat[s:s + chunk], ref, norms)
        regions[s:s + chunk] = _k_nearest(d2, k)
    return regions


def knora_u_batch(dsel: Dsel, pool: ClassifierPool, regions, pool_preds, pool_visits):
    """KNORA-U (union rule), one answer per row of ``regions``: (labels, costs).

    Every classifier correct on at least one of a query's k nearest
    selection samples votes with weight equal to its number of correct
    region samples; if none qualifies, the whole pool votes with weight 1.
    Votes are whole numbers, so totals are exact and ties go to the smaller
    class id. The caller passes ``knora_regions(dsel, X, k)`` as
    ``regions`` and ``pool_predictions(pool, X)`` as ``pool_preds,
    pool_visits``."""
    counts = dsel.correctness[:, regions].sum(axis=2).T.astype(np.float64)
    counts[~counts.any(axis=1)] = 1.0
    return vote_batch(pool, pool_preds, pool_visits, counts)


def knora_e_batch(dsel: Dsel, pool: ClassifierPool, regions, pool_preds, pool_visits):
    """KNORA-E (eliminate rule), one answer per row of ``regions``: (labels, costs).

    The local oracles, classifiers correct on the whole region, each vote 1.
    While there are none, the region drops its farthest sample; if it
    empties, the whole pool votes. Ties go to the smaller class id. The
    caller passes the same ``regions``, ``pool_preds`` and ``pool_visits``
    as to ``knora_u_batch``."""
    # lead[c, q] = how many of q's nearest neighbours c gets right before its
    # first miss. The largest region with a local oracle has max(lead) samples
    # and its oracles are the classifiers that reach it; when that size is 0,
    # every classifier does, which is the whole-pool fallback.
    lead = np.logical_and.accumulate(dsel.correctness[:, regions], axis=2).sum(axis=2)
    return vote_batch(pool, pool_preds, pool_visits, (lead == lead.max(axis=0)).T)


def des_clustering_batch(cm: CompetenceModel, pool: ClassifierPool, clusters,
                         pool_preds, pool_visits):
    """Clustering-method prediction per entry of ``clusters``: (labels, costs).

    The caller passes ``assign_batch(cm.kmeans, X)`` as ``clusters`` and
    ``pool_predictions(pool, X)`` as ``pool_preds, pool_visits``."""
    member = np.zeros((cm.kmeans.k, pool.pool_size), dtype=bool)
    np.put_along_axis(member, cm.ranking.astype(np.intp), True, axis=1)
    labels, costs = vote_batch(pool, pool_preds, pool_visits, member[clusters])
    return labels, cm.kmeans.k + costs


def des_clustering_predict(cm: CompetenceModel, pool: ClassifierPool, x) -> SelectionResult:
    """One probe's ``des_clustering_batch`` answer: the unweighted majority
    vote of the precomputed ensemble of x's cluster. Cost counts nodes
    visited plus one unit per centroid distance."""
    row = np.asarray(x, dtype=np.float32).reshape(1, -1)
    clusters = assign_batch(cm.kmeans, row)
    labels, costs = des_clustering_batch(cm, pool, clusters, *pool_predictions(pool, row))
    return SelectionResult(int(labels[0]), int(costs[0]))
