"""Reference forms of five selection quantities that production computes
another way: a per-query weighted vote (``vote_rows`` votes every row at
once), the pairwise double-fault (``build_competence_model`` counts it with
``both_wrong_counts``), the per-cluster ensembles (``build_competence_model``
ranks with lexsorts), the oracle accuracy (crossval's ``oracle`` row is a
column-any of the fold's pool walk) and the DES-Clustering answer
(``des_clustering_batch`` votes every query from one pool walk).

Each is written the plain way, one classifier or one query at a time.
"""

import itertools
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from tinydes.cluster import assign_batch
from tinydes.data import apply_standardizer
from tinydes.errors import SelectionError

from conftest import per_tree_predictions
from tree_oracle import predict_tree


class OracleAnswer(NamedTuple):
    """A per-query oracle's answer, with the vote table and the classifiers
    that voted, which the batch paths do not return."""

    label: int
    votes: np.ndarray  # float64 per class id
    ensemble_used: np.ndarray  # classifier indices
    cost: int  # nodes visited, plus one unit per centroid distance where applicable


def majority_vote(predictions, weights=None) -> tuple[int, np.ndarray]:
    """Weighted plurality over class-id predictions; ties, including a row
    whose weights are all zero, go to the smallest class id. Returns
    (winner, per-class vote table)."""
    preds = np.asarray(predictions, dtype=np.int64)
    if preds.size == 0:
        raise ValueError("no predictions to vote on")
    w = np.ones(preds.size) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != preds.shape or (w < 0).any():
        raise ValueError("weights must be non-negative and aligned with the predictions")
    table = np.zeros(int(preds.max()) + 1, dtype=np.float64)
    np.add.at(table, preds, w)
    return int(np.argmax(table)), table


def double_fault(dsel, a: int, b: int, region) -> float:
    """Fraction of region samples both classifiers get wrong; lower = more diverse."""
    idx = np.asarray(region, dtype=np.int64)
    if idx.size == 0:
        raise SelectionError("empty region")
    wrong_a = ~dsel.correctness[a, idx]
    wrong_b = ~dsel.correctness[b, idx]
    return float((wrong_a & wrong_b).mean())


def brute_force_competence(dsel, kmeans, n_acc, j):
    """Per-cluster ensembles [k, J] by exhaustive search under the documented
    tie rules, in exact fractions: shortlist the n_acc most accurate
    classifiers (ties: smaller index), then keep the J-subset whose sorted
    (mean double-fault, -accuracy, index) keys are smallest. A cluster with
    no selection samples ranks on the whole selection set."""
    member_of = assign_batch(kmeans, dsel.samples)
    wrong = ~dsel.correctness
    rows = []
    for c in range(kmeans.k):
        cols = np.nonzero(member_of == c)[0]
        region = cols if cols.size else np.arange(dsel.n_samples)
        acc = [Fraction(int(dsel.correctness[i, region].sum()), region.size)
               for i in range(dsel.pool_size)]
        shortlist = sorted(range(dsel.pool_size), key=lambda i: (-acc[i], i))[:n_acc]
        df = {}
        for a in shortlist:
            both = [Fraction(int((wrong[a, region] & wrong[b, region]).sum()), region.size)
                    for b in shortlist if b != a]
            df[a] = sum(both) / len(both) if both else Fraction(0)
        best = min(itertools.combinations(shortlist, j),
                   key=lambda subset: sorted((df[i], -acc[i], i) for i in subset))
        rows.append(sorted(best))
    return np.array(rows)


def oracle_accuracy(pool, test, s) -> float:
    """Fraction of test samples at least one pool member classifies
    correctly, from one ``predict_tree`` walk per (classifier, sample) pair."""
    std = apply_standardizer(s, test.features)
    correct = per_tree_predictions(pool, std)[0] == test.labels
    return float(correct.any(axis=0).mean())


def des_clustering(cm, pool, x) -> OracleAnswer:
    """DES-Clustering for one query: its cluster from ``assign_batch``, as
    ``brute_force_competence`` assigns the selection samples, then one
    ``predict_tree`` walk per member of that cluster's ensemble and a
    ``majority_vote``. Cost counts the nodes visited plus one unit per
    centroid distance."""
    vec = np.asarray(x, dtype=np.float32).ravel()
    cluster = assign_batch(cm.kmeans, vec[None])[0]
    ensemble = cm.per_cluster_ensemble[cluster].astype(np.int64)
    labels, visits = zip(*(predict_tree(pool, t, vec) for t in ensemble))
    label, votes = majority_vote(labels)
    return OracleAnswer(label, votes, ensemble, cm.kmeans.k + sum(visits))
