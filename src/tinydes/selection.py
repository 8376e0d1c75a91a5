"""The six selection methods over a shared pool and selection set.

Single Best and Static Selection pick at train time; KNORA-U/E pick per
query from nearest-neighbor regions; the clustering method precomputes one
accuracy-then-diversity ensemble per k-means cell; Oracle is the ceiling.

Every tie anywhere resolves to the smallest index or class id, so results
are independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cluster import KMeansModel, assign, assign_batch
from .data import Dataset, Standardizer, apply_standardizer
from .errors import SelectionError, ShapeError, VoteError
from .trees import ClassifierPool, predict_batch, predict_tree


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
    kmeans: KMeansModel
    per_cluster_accuracy: np.ndarray  # float64 [k, pool_size]
    per_cluster_ensemble: np.ndarray  # uint16 [k, J], rows sorted ascending
    n_acc: int
    j: int


@dataclass(frozen=True)
class SelectionResult:
    label: int
    votes: np.ndarray  # float64 [n_classes]
    ensemble_used: np.ndarray  # classifier indices
    cost: int  # nodes visited (+ one unit per centroid distance where applicable)


def correctness_matrix(pool: ClassifierPool, X, y) -> np.ndarray:
    """bool [pool_size, n]: entry (c, s) means classifier c gets sample s right."""
    mat = np.ascontiguousarray(X, dtype=np.float32)
    target = np.asarray(y, dtype=np.int64)
    out = np.empty((pool.pool_size, mat.shape[0]), dtype=bool)
    for c, tree in enumerate(pool.trees):
        labels, _ = predict_batch(tree, mat)
        out[c] = labels == target
    return out


def build_dsel(pool: ClassifierPool, dsel_data: Dataset, s: Standardizer) -> Dsel:
    std = apply_standardizer(s, dsel_data.features)
    corr = correctness_matrix(pool, std, dsel_data.labels)
    return Dsel(np.ascontiguousarray(std, dtype=np.float32), dsel_data.labels.copy(), corr)


def single_best(dsel: Dsel) -> int:
    """Classifier with the highest selection-set accuracy; ties to smaller index."""
    if dsel.n_samples == 0:
        raise SelectionError("empty selection set")
    acc = dsel.correctness.mean(axis=1)
    return int(np.argmax(acc))


def static_selection(dsel: Dsel, pct: float) -> np.ndarray:
    """The floor(pct * pool_size) most accurate classifiers, ascending indices."""
    if not (0.0 < pct <= 1.0):
        raise SelectionError(f"pct must be in (0, 1], got {pct}")
    m = int(np.floor(pct * dsel.pool_size))
    if m == 0:
        raise SelectionError(f"pct {pct} selects zero of {dsel.pool_size} classifiers")
    acc = dsel.correctness.mean(axis=1)
    order = np.lexsort((np.arange(dsel.pool_size), -acc))
    return np.sort(order[:m])


def double_fault(dsel: Dsel, a: int, b: int, region) -> float:
    """Fraction of region samples both classifiers get wrong; lower = more diverse."""
    idx = np.asarray(region, dtype=np.int64)
    if idx.size == 0:
        raise SelectionError("empty region")
    wrong_a = ~dsel.correctness[a, idx]
    wrong_b = ~dsel.correctness[b, idx]
    return float((wrong_a & wrong_b).mean())


def _rank_top(scores: np.ndarray, take: int) -> np.ndarray:
    """Indices of the `take` largest scores; ties to smaller index."""
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    return order[:take]


def build_competence_model(dsel: Dsel, kmeans: KMeansModel, n_acc: int, j: int) -> CompetenceModel:
    """Per cluster: shortlist the n_acc most accurate classifiers, then keep
    the j with the smallest mean pairwise double-fault within the shortlist
    (ties: higher accuracy, then smaller index). Clusters with no selection
    samples fall back to global accuracy/diversity."""
    pool_size = dsel.pool_size
    if not (1 <= j <= n_acc <= pool_size):
        raise SelectionError(f"need 1 <= J({j}) <= N_acc({n_acc}) <= pool({pool_size})")
    k = kmeans.k
    member_of = assign_batch(kmeans, dsel.samples)
    accuracy = np.empty((k, pool_size), dtype=np.float64)
    ensembles = np.empty((k, j), dtype=np.uint16)
    global_acc = dsel.correctness.mean(axis=1)
    all_cols = np.arange(dsel.n_samples)
    for c in range(k):
        cols = np.nonzero(member_of == c)[0]
        region = cols if cols.size > 0 else all_cols
        acc = dsel.correctness[:, region].mean(axis=1) if cols.size > 0 else global_acc
        accuracy[c] = acc
        shortlist = _rank_top(acc, n_acc)
        wrong = ~dsel.correctness[np.ix_(shortlist, region)]
        pair_counts = _kernels.both_wrong_counts(np.ascontiguousarray(wrong))
        if n_acc > 1:
            mean_df = (pair_counts.sum(axis=1) - pair_counts.diagonal()) / (
                region.size * (n_acc - 1))
        else:
            mean_df = np.zeros(1, dtype=np.float64)
        # smallest mean double-fault, then highest accuracy, then smallest index
        pick = np.lexsort((shortlist, -acc[shortlist], mean_df))[:j]
        ensembles[c] = np.sort(shortlist[pick])
    return CompetenceModel(kmeans, accuracy, ensembles, n_acc, j)


def des_clustering_predict(cm: CompetenceModel, pool: ClassifierPool, x) -> SelectionResult:
    """Unweighted majority vote of the precomputed ensemble of x's cluster.
    Cost counts nodes visited plus one unit per centroid distance."""
    vec = np.asarray(x, dtype=np.float32).ravel()
    cluster, _ = assign(cm.kmeans, vec)
    ensemble = cm.per_cluster_ensemble[cluster].astype(np.int64)
    votes = np.zeros(pool.n_classes, dtype=np.float64)
    cost = cm.kmeans.k
    for cid in ensemble:
        label, visits = predict_tree(pool.trees[cid], vec)
        votes[label] += 1.0
        cost += visits
    return SelectionResult(int(np.argmax(votes)), votes, ensemble, cost)


def oracle_accuracy(pool: ClassifierPool, test: Dataset, s: Standardizer) -> float:
    """Fraction of test samples at least one pool member classifies correctly."""
    if test.n_samples == 0:
        raise SelectionError("empty test set")
    std = apply_standardizer(s, test.features)
    corr = correctness_matrix(pool, std, test.labels)
    return float(corr.any(axis=0).mean())


def majority_vote(predictions, weights=None) -> tuple[int, np.ndarray]:
    """Weighted plurality over class-id predictions; ties to smallest class id.
    Returns (winner, per-class vote table)."""
    preds = np.asarray(predictions, dtype=np.int64)
    if preds.size == 0:
        raise VoteError("no predictions to vote on")
    if weights is None:
        w = np.ones(preds.size, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != preds.shape:
            raise ShapeError(f"weights shape {w.shape} != predictions shape {preds.shape}")
        if (w < 0).any():
            raise VoteError("negative vote weight")
        if not (w > 0).any():
            raise VoteError("all vote weights are zero")
    table = np.zeros(int(preds.max()) + 1, dtype=np.float64)
    np.add.at(table, preds, w)
    return int(np.argmax(table)), table


# ---------------------------------------------------------------------------
# Batched evaluation paths used by the benchmark harness. The clustering path
# matches ``des_clustering_predict``; the KNORA paths are checked against a
# per-query oracle kept with the tests.
# ---------------------------------------------------------------------------


def pool_predictions(pool: ClassifierPool, X) -> tuple[np.ndarray, np.ndarray]:
    """Labels and visit counts for every (classifier, sample) pair."""
    mat = np.ascontiguousarray(X, dtype=np.float32)
    n = mat.shape[0]
    labels = np.empty((pool.pool_size, n), dtype=np.int64)
    visits = np.empty((pool.pool_size, n), dtype=np.int64)
    for c, tree in enumerate(pool.trees):
        labels[c], visits[c] = predict_batch(tree, mat)
    return labels, visits


def vote_rows(preds: np.ndarray, weights: np.ndarray, n_classes: int) -> np.ndarray:
    """Row-wise weighted plurality: preds/weights are [n_queries, m] aligned.

    One bincount over (row, class) bins; ties go to the smallest class id.
    Callers pass whole-number weights, so every float64 vote total is exact
    whatever order the bins are summed in."""
    n = preds.shape[0]
    bins = (np.arange(n, dtype=np.int64)[:, None] * n_classes + preds).ravel()
    votes = np.bincount(bins, weights=np.ravel(weights), minlength=n * n_classes)
    return np.argmax(votes.reshape(n, n_classes), axis=1)


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
# matrix that ``knora_regions`` holds at once to 128 MiB.
REGION_CHUNK_CELLS = 1 << 24


def knora_regions(dsel: Dsel, X, k: int) -> np.ndarray:
    """intp [n_queries, k]: each query's k nearest selection samples, near to
    far, ties to the smaller index (exactly a stable argsort's first k).

    Distances are computed a block of rows at a time and never kept; both
    KNORA rules read the same regions, so a caller running both computes
    them once and passes them to each."""
    if dsel.n_samples < k:
        raise SelectionError(f"region size {k} exceeds {dsel.n_samples} selection samples")
    mat = np.ascontiguousarray(X, dtype=np.float32)
    n = mat.shape[0]
    regions = np.empty((n, k), dtype=np.intp)
    chunk = max(1, REGION_CHUNK_CELLS // max(1, dsel.n_samples))
    for s in range(0, n, chunk):
        d2 = _kernels.pairwise_sqdist(mat[s:s + chunk], dsel.samples)
        regions[s:s + chunk] = _k_nearest(d2, k)
    return regions


def _knora_batch(dsel: Dsel, pool: ClassifierPool, X, k: int,
                 pool_preds, pool_visits, regions, choose):
    """Shared driver of the KNORA batch paths: one vote per query over
    ``choose(region correctness)``, which returns the whole-number vote
    weight of every classifier per query ([n_queries, pool_size], 0 = not
    selected)."""
    mat = np.ascontiguousarray(X, dtype=np.float32)
    if regions is None:
        regions = knora_regions(dsel, mat, k)
    elif regions.shape != (mat.shape[0], k):
        raise ShapeError(f"regions shape {regions.shape} != {(mat.shape[0], k)}")
    if pool_preds is None:
        pool_preds, pool_visits = pool_predictions(pool, mat)
    # region[c, q, i] = classifier c correct on query q's i-th nearest
    weights = choose(dsel.correctness[:, regions])
    labels = vote_rows(pool_preds.T, weights, pool.n_classes)
    costs = np.where(weights.T > 0, pool_visits, 0).sum(axis=0)
    return labels, costs


def _knora_u_weights(region: np.ndarray) -> np.ndarray:
    counts = region.sum(axis=2).T.astype(np.float64)
    counts[~counts.any(axis=1)] = 1.0
    return counts


def _knora_e_weights(region: np.ndarray) -> np.ndarray:
    # lead[c, q] = how many of q's nearest neighbours c gets right before its
    # first miss. The largest region with a local oracle has max(lead) samples
    # and its oracles are the classifiers that reach it; when that size is 0,
    # every classifier does, which is the whole-pool fallback.
    lead = np.logical_and.accumulate(region, axis=2).sum(axis=2)
    return (lead == lead.max(axis=0)).T.astype(np.float64)


def knora_u_batch(dsel: Dsel, pool: ClassifierPool, X, k: int,
                  pool_preds=None, pool_visits=None, regions=None):
    """KNORA-U (union rule) over a query matrix. Returns (labels, costs).

    Every classifier correct on at least one of a query's k nearest
    selection samples votes with weight equal to its number of correct
    region samples; if none qualifies, the whole pool votes with weight 1.
    Votes are whole numbers, so totals are exact and ties go to the smaller
    class id. ``regions`` takes precomputed ``knora_regions(dsel, X, k)``."""
    return _knora_batch(dsel, pool, X, k, pool_preds, pool_visits, regions,
                        _knora_u_weights)


def knora_e_batch(dsel: Dsel, pool: ClassifierPool, X, k: int,
                  pool_preds=None, pool_visits=None, regions=None):
    """KNORA-E (eliminate rule) over a query matrix. Returns (labels, costs).

    The local oracles, classifiers correct on the whole region, each vote 1.
    While there are none, the region drops its farthest sample; if it
    empties, the whole pool votes. Ties go to the smaller class id.
    ``regions`` is as in ``knora_u_batch``."""
    return _knora_batch(dsel, pool, X, k, pool_preds, pool_visits, regions,
                        _knora_e_weights)


def des_clustering_batch(cm: CompetenceModel, pool: ClassifierPool, X,
                         pool_preds=None, pool_visits=None):
    """Vectorized clustering-method prediction. Returns (labels, costs)."""
    mat = np.ascontiguousarray(X, dtype=np.float32)
    if pool_preds is None:
        ref = np.unique(cm.per_cluster_ensemble)
        pool_preds = np.zeros((pool.pool_size, mat.shape[0]), dtype=np.int64)
        pool_visits = np.zeros_like(pool_preds)
        for cid in ref:
            pool_preds[cid], pool_visits[cid] = predict_batch(pool.trees[cid], mat)
    clusters = assign_batch(cm.kmeans, mat)
    ens = cm.per_cluster_ensemble[clusters].astype(np.int64)  # [n, J]
    cols = np.arange(mat.shape[0])[:, None]
    labels = vote_rows(pool_preds[ens, cols], np.ones(ens.shape), pool.n_classes)
    costs = cm.kmeans.k + pool_visits[ens, cols].sum(axis=1)
    return labels, costs
