"""The recursive ``train_tree``, the reference the stack-grown
``trees.train_tree`` is checked against, and ``predict_tree``, the
one-sample walk that ``selection.pool_predictions`` is checked against.

``train_tree`` below grows a tree by recursion. At each searched node it
calls ``split_oracle.value_best_split`` on the node's float values of the
candidate features, ordered by their rank codes, and sends the rows whose
value is at most the returned threshold left. Given the same data, sample
indices, depth, candidate count and seed, the production ``train_tree``
must give the same feature, threshold bits and jump arrays. The reference
keeps its own record of a tree's columns, ``Tree``, rather than
production's pool.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from tinydes._rng import SplitMix64
from tinydes.errors import CapacityError, ModelCorruptError

from split_oracle import value_best_split

LEAF = -1
_CAND_BLOCK = 128  # candidate feature subsets drawn per block


class Tree(NamedTuple):
    """One tree's preorder node columns."""

    feature: np.ndarray  # int16; -1 marks a leaf
    threshold: np.ndarray  # float32; 0 for leaves
    jump: np.ndarray  # uint16; right child index, or class id at leaves

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def _majority(counts: np.ndarray) -> int:
    # ties resolve to the smallest class id
    return int(counts.argmax())


def train_tree(data: Dataset, sample_indices, max_depth: int, max_features: int,
               rng_seed: int) -> Tree:
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
    codes = data.rank_codes
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
        values = X[np.ix_(idx, cands)]
        col, thr, score, found = value_best_split(values, y, n_classes,
                                                  codes[np.ix_(idx, cands)])
        if not found or score <= float(counts @ counts) / idx.size:
            emit(LEAF, 0.0, majority)
            return
        mask = values[:, col] <= thr
        y_left = y[mask]
        left_counts = np.bincount(y_left, minlength=n_classes)
        pos = emit(int(cands[col]), thr, 0)
        grow(idx[mask], y_left, left_counts, depth + 1)
        jump_out[pos] = len(feat_out)
        grow(idx[right := ~mask], y[right], counts - left_counts, depth + 1)

    y0 = data.labels[idx0].astype(np.int64)
    grow(idx0, y0, np.bincount(y0, minlength=n_classes), 0)
    if len(feat_out) > 65535:
        raise CapacityError(f"tree grew {len(feat_out)} nodes; the 16-bit node index caps at 65535")
    return Tree(
        np.array(feat_out, dtype=np.int16),
        np.array(thr_out, dtype=np.float32),
        np.array(jump_out, dtype=np.uint16),
    )


def pool_tree(pool, i: int) -> Tree:
    """Tree ``i`` of a pool: views into the pool's node columns."""
    s = slice(pool.first[i], pool.first[i] + pool.count[i])
    return Tree(pool.feature[s], pool.threshold[s], pool.jump[s])


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
