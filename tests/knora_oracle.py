"""Per-query KNORA-U and KNORA-E: the loop-over-classifiers reference that
the vectorized ``knora_u_batch`` / ``knora_e_batch`` are checked against.

Each query sorts its own distance row with a lexsort on (distance, index),
shrinks KNORA-E's region one neighbour at a time and walks every selected
tree, so it shares no region, weight or vote code with the batch paths.
"""

import numpy as np

from tinydes import _kernels
from tinydes.errors import SelectionError
from tinydes.selection import Dsel, SelectionResult
from tinydes.trees import ClassifierPool, predict_tree


def _region_indices(dsel: Dsel, x: np.ndarray, k: int) -> np.ndarray:
    """k nearest selection samples, ordered near to far, ties to smaller index."""
    if dsel.n_samples < k:
        raise SelectionError(f"region size {k} exceeds {dsel.n_samples} selection samples")
    q = x.reshape(1, -1)
    d2 = _kernels.pairwise_sqdist(q, dsel.samples)[0]
    order = np.lexsort((np.arange(d2.shape[0]), d2))
    return order[:k]


def _vote(weights_per_classifier, classifier_ids, pool, x, n_classes):
    """Aggregate weighted votes of the given classifiers' predictions on x."""
    votes = np.zeros(n_classes, dtype=np.float64)
    cost = 0
    for cid, w in zip(classifier_ids, weights_per_classifier):
        label, visits = predict_tree(pool.trees[cid], x)
        votes[label] += w
        cost += visits
    return votes, cost


def knora_u(dsel: Dsel, pool: ClassifierPool, x, k: int) -> SelectionResult:
    """Union rule: every classifier correct on >= 1 region sample votes with
    weight equal to its number of correct region samples. If nobody qualifies,
    the whole pool votes with weight 1."""
    vec = np.asarray(x, dtype=np.float32).ravel()
    region = _region_indices(dsel, vec, k)
    counts = dsel.correctness[:, region].sum(axis=1)
    selected = np.nonzero(counts > 0)[0]
    if selected.size == 0:
        selected = np.arange(pool.pool_size)
        weights = np.ones(pool.pool_size, dtype=np.float64)
    else:
        weights = counts[selected].astype(np.float64)
    votes, cost = _vote(weights, selected, pool, vec, pool.n_classes)
    return SelectionResult(int(np.argmax(votes)), votes, selected, cost)


def knora_e(dsel: Dsel, pool: ClassifierPool, x, k: int) -> SelectionResult:
    """Eliminate rule: select local oracles (correct on the whole region),
    shrinking the region by dropping the farthest neighbor until some
    classifier qualifies; if the region empties, the whole pool votes."""
    vec = np.asarray(x, dtype=np.float32).ravel()
    region = _region_indices(dsel, vec, k)
    selected = np.empty(0, dtype=np.int64)
    for size in range(k, 0, -1):
        perfect = dsel.correctness[:, region[:size]].all(axis=1)
        hits = np.nonzero(perfect)[0]
        if hits.size > 0:
            selected = hits
            break
    if selected.size == 0:
        selected = np.arange(pool.pool_size)
    weights = np.ones(selected.size, dtype=np.float64)
    votes, cost = _vote(weights, selected, pool, vec, pool.n_classes)
    return SelectionResult(int(np.argmax(votes)), votes, selected, cost)
