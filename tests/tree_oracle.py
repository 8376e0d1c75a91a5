"""The recursive ``train_tree``, the reference the stack-grown
``trees.train_tree`` is checked against, and ``predict_tree``, the
one-sample walk that ``selection.pool_predictions`` is checked against.

``train_tree`` below grows a tree by recursion, one ``best_split`` call per
searched node, and turns each split's two rows into its threshold on the
spot. ``best_split`` and ``split_threshold`` are the radix-sort kernel and
the scalar threshold rule it called. Given the same data, sample indices,
depth, candidate count and seed, the production ``train_tree`` must give the
same feature, threshold bits and jump arrays.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from tinydes._rng import SplitMix64
from tinydes.errors import CapacityError, ModelCorruptError
from tinydes.trees import DecisionTree

LEAF = -1
_CAND_BLOCK = 128  # candidate feature subsets drawn per block


def best_split(keys, labels, n_classes, totals):
    """Best split of a node over its (n, m) candidate ``keys``.

    ``labels`` are the node's class ids and ``totals`` their class counts.
    Returns ``(col, (p0, p1), score, found)``: p0 and p1 are the node
    positions of the last row left of the cut and the first row right of it
    in column ``col``'s key order. Pass ``keys`` as the transpose of a
    C-contiguous (m, n) array to avoid a copy.
    """
    n, m = keys.shape
    if n < 2:
        return -1, (-1, -1), -1.0, False
    total = np.asarray(totals, dtype=np.int64)
    cols = np.arange(m)[:, None]
    kt = np.ascontiguousarray(keys.T)  # one candidate column per row
    order = kt.argsort(axis=1, kind="stable")
    sk = kt[cols, order]
    ys = labels.astype(np.min_scalar_type(n_classes - 1))[order]
    by_class = ys.argsort(axis=1, kind="stable")
    start = total.cumsum() - total
    sl = np.empty((m, n), dtype=np.int64)
    sl[cols, by_class] = np.arange(1, 2 * n, 2) - (2 * start).repeat(total)
    sl.cumsum(axis=1, out=sl)
    sr = (2 * total)[ys].cumsum(axis=1)
    np.subtract(int(total @ total), sr, out=sr)
    sr += sl
    nl = np.arange(1, n, dtype=np.float64)
    score = sl[:, :-1] / nl
    score += sr[:, :-1] / (n - nl)
    # every real score is positive, so -1 marks non-boundaries
    np.putmask(score, sk[:, :-1] == sk[:, 1:], -1.0)
    # row-major argmax: smallest column first, then smallest threshold
    j, i = divmod(int(score.argmax()), n - 1)
    if score[j, i] < 0:
        return -1, (-1, -1), -1.0, False
    return j, (int(order[j, i]), int(order[j, i + 1])), float(score[j, i]), True


def split_threshold(v0, v1) -> float:
    """float32 threshold between adjacent distinct values ``v0 < v1``: their
    midpoint, or ``v0`` when the midpoint rounds up to ``v1``, so that
    ``<= threshold`` keeps exactly the values up to ``v0``."""
    v0 = np.float32(v0)
    v1 = np.float32(v1)
    thr = np.float32((np.float64(v0) + np.float64(v1)) * 0.5)
    return float(v0 if thr >= v1 else thr)


_kernels = SimpleNamespace(best_split=best_split, split_threshold=split_threshold)


def _majority(counts: np.ndarray) -> int:
    # ties resolve to the smallest class id
    return int(counts.argmax())


def train_tree(data: Dataset, sample_indices, max_depth: int, max_features: int,
               rng_seed: int) -> DecisionTree:
    """Greedy CART growth over the given (possibly repeated) sample indices.

    At each node ``max_features`` distinct candidate features are drawn from a
    seeded stream; the split maximizing the exact Gini score is taken, with
    ties toward the smaller feature id and threshold. Growth stops at
    ``max_depth``, node purity, or when no split reduces impurity.
    """
    idx0 = np.asarray(sample_indices, dtype=np.int64)
    if idx0.size == 0:
        raise ValueError("sample_indices must be non-empty")
    X = data.features
    # feature-major codes: a node's candidate cells are one 1-D take into
    # contiguous feature rows, several times faster than 2-D fancy indexing
    n_samples = data.n_samples
    codes_flat = data.rank_codes.T.reshape(-1)
    n_classes = data.n_classes
    rng = SplitMix64(rng_seed)

    def candidate_rows():
        # rows drawn past the last node are never used; the stream is private
        while True:
            yield from rng.sample_sorted_rows(data.n_features, max_features, _CAND_BLOCK)

    candidates = candidate_rows()

    feat_out: list[int] = []
    thr_out: list[float] = []
    jump_out: list[int] = []

    def emit(f: int, t: float, j: int) -> int:
        feat_out.append(f)
        thr_out.append(t)
        jump_out.append(j)
        return len(feat_out) - 1

    def grow(idx: np.ndarray, y: np.ndarray, counts: np.ndarray, depth: int) -> None:
        majority = _majority(counts)
        if depth >= max_depth or counts[majority] == idx.size:
            emit(LEAF, 0.0, majority)
            return
        cands = next(candidates)
        kt = codes_flat.take(cands[:, None] * n_samples + idx)  # one candidate per row
        col, (p0, p1), score, found = _kernels.best_split(kt.T, y, n_classes, counts)
        if found and score <= float(counts @ counts) / idx.size:
            found = False
        if not found:
            emit(LEAF, 0.0, majority)
            return
        feature = int(cands[col])
        thr = _kernels.split_threshold(X[idx[p0], feature], X[idx[p1], feature])
        mask = kt[col] <= kt[col, p0]
        y_left = y[mask]
        left_counts = np.bincount(y_left, minlength=n_classes)
        pos = emit(feature, thr, 0)
        grow(idx[mask], y_left, left_counts, depth + 1)
        jump_out[pos] = len(feat_out)
        grow(idx[right := ~mask], y[right], counts - left_counts, depth + 1)

    y0 = data.labels[idx0].astype(np.int64)
    grow(idx0, y0, np.bincount(y0, minlength=n_classes), 0)
    if len(feat_out) > 65535:
        raise CapacityError(f"tree grew {len(feat_out)} nodes; the 16-bit node index caps at 65535")
    return DecisionTree(
        np.array(feat_out, dtype=np.int16),
        np.array(thr_out, dtype=np.float32),
        np.array(jump_out, dtype=np.uint16),
    )


def pool_tree(pool, i: int) -> DecisionTree:
    """Tree ``i`` of a pool: views into the pool's node columns."""
    s = slice(pool.first[i], pool.first[i] + pool.count[i])
    return DecisionTree(pool.feature[s], pool.threshold[s], pool.jump[s])


def predict_tree(pool, tree: int, x) -> tuple[int, int]:
    """Walk one sample through tree ``tree``, one node at a time; returns
    (class id, nodes visited)."""
    vec = np.asarray(x, dtype=np.float32).ravel()
    feature, threshold, jump = pool_tree(pool, tree)
    pos = 0
    visits = 1
    while (f := int(feature[pos])) >= 0:
        if f >= vec.shape[0]:
            raise ModelCorruptError(f"node {pos} references feature {f} beyond input length")
        pos = pos + 1 if vec[f] <= threshold[pos] else int(jump[pos])
        visits += 1
    return int(jump[pos]), visits
