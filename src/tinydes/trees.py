"""CART trees on flat preorder node arrays, and the pool of forests.

A pool is described by its forests' ``(n_trees, max_depth)`` pairs alone;
``DEFAULT_FORESTS`` is the paper's 25 trees of depth 10 and 20 of depth 5.

Node layout: ``feature[i] < 0`` marks a leaf whose class id sits in
``jump[i]``. Internal nodes send ``x[feature] <= threshold`` to node ``i+1``
and everything else to node ``jump[i]`` (an index within the tree). This is
the exact record the compact binary format stores, so the training graph
and the embedded interpreter walk identical structures. A pool lays its
trees end to end in the format's field types, as the node section does, and
``ClassifierPool.from_trees`` checks the layout once with ``check_nodes``,
which ``load_tiny`` shares. Batch prediction walks every (tree, row) pair
over those columns at once; ``predict_tree`` walks one sample through one tree.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._rng import SplitMix64, derive_seed
from .errors import CapacityError, ModelCorruptError
from .data import Dataset

LEAF = -1
DEFAULT_FORESTS = ((25, 10), (20, 5))  # (n_trees, max_depth) per forest
_CAND_BLOCK = 128  # candidate feature subsets drawn per block
_MAX_FEATURES = 1 << 15  # feature ids must fit the int16 node field


def _field(values, dtype, what: str) -> np.ndarray:
    """``values`` as a ``dtype`` array; a finite value the dtype cannot hold
    raises ``CapacityError`` instead of wrapping or overflowing."""
    a = np.asarray(values)
    floating = np.issubdtype(dtype, np.floating)
    info = np.finfo(dtype) if floating else np.iinfo(dtype)
    bad = a[(a < info.min) | (a > info.max)]
    if floating:  # infinities fit the field; check_nodes rejects them
        bad = bad[np.isfinite(bad)]
    if bad.size:
        raise CapacityError(f"{what} {bad[0]} outside the {info.dtype} field")
    return a.astype(dtype)


class DecisionTree(NamedTuple):
    """One tree's preorder node columns, as ``train_tree`` grows them."""

    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray  # 0 for leaves
    jump: np.ndarray  # right child index, or class id at leaves

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def check_nodes(feat, thr, jump, first, count, n_features: int, n_classes: int) -> None:
    """Raise ``ModelCorruptError`` for a tree with no nodes, else a
    directory range past the node columns, else a non-finite threshold.
    Then raise for the first tree, in directory order, with a faulty node:
    an internal node's feature >= n_features, else a right-child jump
    outside (position in the tree, node count), else a leaf class >= n_classes.

    Directory ranges may overlap or leave gaps, so each fault is taken as a
    maximum over each tree's node range: one ``maximum.reduceat`` per column
    over the (start, end) bounds, in memory proportional to the node pool,
    whatever the ranges add up to. An internal node g of the tree at
    ``first`` needs g - first < jump, that is g + 1 - jump <= first.
    """
    n = feat.shape[0]
    if (count < 1).any():
        raise ModelCorruptError("empty tree in directory")
    if (first + count > n).any():
        raise ModelCorruptError("tree directory points past the node pool")
    if not np.isfinite(thr).all():
        raise ModelCorruptError("non-finite node threshold")
    internal = feat >= 0
    # one spare entry per column: a tree may end at n, and reduceat needs index n
    code = np.zeros(n + 1, dtype=np.int8)  # 2: feature out of range, 1: leaf class
    back = np.zeros(n + 1, dtype=np.int64)  # g + 1 - jump at internal nodes
    fwd = np.zeros(n + 1, dtype=np.int64)  # jump at internal nodes
    np.multiply(feat >= n_features, 2, out=code[:-1])
    code[:-1] += (jump >= n_classes) & ~internal
    np.subtract(np.arange(1, n + 1), jump, out=back[:-1])
    back[:-1] *= internal
    np.multiply(jump, internal, out=fwd[:-1])
    # even segments are the trees; odd ones, from a tree's end to the next
    # tree's start, are discarded
    bounds = np.column_stack((first, first + count)).ravel()
    code, back, fwd = (np.maximum.reduceat(a, bounds)[::2] for a in (code, back, fwd))
    bad_jump = (back > first) | (fwd >= count)
    failing = np.flatnonzero(code | bad_jump)
    if failing.size:
        t = failing[0]
        what = ("feature index out of range" if code[t] == 2
                else "right-child jump violates preorder" if bad_jump[t]
                else "leaf class out of range")
        raise ModelCorruptError(f"tree {t}: {what}")


@dataclass(frozen=True)
class ClassifierPool:
    """A pool's trees end to end in the ``.tdes`` node columns, with a (first,
    count) directory; ``from_trees`` builds it and checks the layout."""

    feature: np.ndarray  # int16 [n_nodes]; negative at leaves
    threshold: np.ndarray  # float32 [n_nodes]
    jump: np.ndarray  # uint16 [n_nodes]; right child - first, or class id at leaves
    first: np.ndarray  # intp [pool_size]; each tree's first node
    count: np.ndarray  # intp [pool_size]; each tree's node count
    n_classes: int

    @classmethod
    def from_trees(cls, trees, n_classes: int) -> ClassifierPool:
        """Lay the (feature, threshold, jump) trees end to end. A value too
        wide for a node field (a finite threshold beyond float32 too), the u16
        node count or the u16 class count raises ``CapacityError``; a layout
        ``check_nodes`` rejects, NaN and infinite thresholds among it,
        ``ModelCorruptError``."""
        if not trees:
            raise ModelCorruptError("pool has no trees")
        feature, threshold, jump = (np.concatenate(col) for col in zip(*trees))
        count = np.array([len(t[0]) for t in trees], dtype=np.intp)
        _field(count, np.uint16, "node count")
        _field(n_classes, np.uint16, "class count")
        feature = _field(feature, np.int16, "feature id")
        jump = _field(jump, np.uint16, "jump")
        threshold = _field(threshold, np.float32, "threshold")
        first = count.cumsum() - count
        check_nodes(feature, threshold, jump, first, count, _MAX_FEATURES, n_classes)
        for col in (feature, threshold, jump):
            col.flags.writeable = False
        return cls(feature, threshold, jump, first, count, int(n_classes))

    @property
    def pool_size(self) -> int:
        return self.count.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def tree(self, i: int) -> DecisionTree:
        """Tree ``i``'s three columns: views into the pool's."""
        s = slice(self.first[i], self.first[i] + self.count[i])
        return DecisionTree(self.feature[s], self.threshold[s], self.jump[s])

    def fingerprint(self) -> int:
        """CRC32 over each tree's feature, threshold and jump bytes in turn;
        identifies a pool across bench rows."""
        crc = 0
        for i in range(self.pool_size):
            for col in self.tree(i):
                crc = zlib.crc32(col.tobytes(), crc)
        return crc


def _majority(counts: np.ndarray) -> int:
    # ties resolve to the smallest class id
    return int(counts.argmax())


def train_tree(data: Dataset, sample_indices, max_depth: int, max_features: int,
               rng_seed: int) -> DecisionTree:
    """Greedy CART growth over the given (possibly repeated) sample indices.

    At each node ``max_features`` (at least 1; every feature when it is the
    feature count or more) distinct candidate features are drawn from a
    seeded stream; the split maximizing the exact Gini score is taken, with
    ties toward the smaller feature id and threshold. Growth stops at
    ``max_depth``, node purity, or when no split reduces impurity.

    Nodes grow from an explicit stack in preorder: a split pushes its right
    child, then its left, and the right child patches its parent's jump when
    it is emitted. Each split records its feature and the two rows around
    the cut; one ``split_threshold`` call turns them all into thresholds
    once the tree is grown.
    """
    idx0 = np.asarray(sample_indices, dtype=np.int64)
    if idx0.size == 0:
        raise ValueError("sample_indices must be non-empty")
    if max_features < 1:
        raise ValueError(f"max_features must be at least 1, got {max_features}")
    if data.n_features > _MAX_FEATURES:
        raise CapacityError(f"{data.n_features} features; the int16 feature id caps "
                            f"at {_MAX_FEATURES - 1}")
    # feature-major codes: a node's candidate cells are one 1-D take into
    # contiguous feature rows, several times faster than 2-D fancy indexing
    n_samples = data.n_samples
    codes_flat = data.rank_codes.T.reshape(-1)
    n_classes = data.n_classes
    rng = SplitMix64(rng_seed)

    def candidate_rows():
        # (features, first flat code cell of each); rows drawn past the last
        # node are never used, and the stream is private
        while True:
            rows = rng.sample_sorted_rows(data.n_features, max_features, _CAND_BLOCK)
            yield from zip(rows, rows * n_samples)

    candidates = candidate_rows()
    consts = _kernels.split_constants(idx0.size)

    feature: list[int] = []
    jump: list[int] = []
    splits: list[tuple[int, int, int, int]] = []  # (node, feature, row p0, row p1)
    y0 = data.labels[idx0].astype(np.min_scalar_type(n_classes - 1))
    # (rows, labels, class counts, depth, parent whose jump this node sets)
    stack = [(idx0, y0, np.bincount(y0, minlength=n_classes), 0, -1)]
    while stack:
        idx, y, counts, depth, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            jump[parent] = node
        majority = _majority(counts)
        if depth < max_depth and counts[majority] < idx.size:
            cands, cells = next(candidates)
            kt = codes_flat.take(cells[:, None] + idx)  # one candidate per row
            total_sq = int(counts @ counts)
            col, (p0, p1), score, found = _kernels.best_split(kt.T, y, n_classes, counts,
                                                              total_sq, consts)
            if found and score > total_sq / idx.size:
                f = int(cands[col])
                feature.append(f)
                jump.append(0)
                splits.append((node, f, idx[p0], idx[p1]))
                mask = kt[col] <= kt[col, p0]
                right = ~mask
                y_left = y[mask]
                left_counts = np.bincount(y_left, minlength=n_classes)
                stack.append((idx[right], y[right], counts - left_counts, depth + 1, node))
                stack.append((idx[mask], y_left, left_counts, depth + 1, -1))
                continue
        feature.append(LEAF)
        jump.append(majority)
    threshold = np.zeros(len(feature), dtype=np.float32)
    if splits:
        nodes, feats, r0, r1 = np.array(splits, dtype=np.int64).T
        X = data.features
        threshold[nodes] = _kernels.split_threshold(X[r0, feats], X[r1, feats])
    return DecisionTree(np.array(feature), threshold, np.array(jump))


def predict_tree(pool: ClassifierPool, tree: int, x) -> tuple[int, int]:
    """Walk one sample through tree ``tree``; returns (class id, nodes visited)."""
    vec = np.asarray(x, dtype=np.float32).ravel()
    feature, threshold, jump = pool.tree(tree)
    pos = 0
    visits = 1
    while (f := int(feature[pos])) >= 0:
        if f >= vec.shape[0]:
            raise ModelCorruptError(f"node {pos} references feature {f} beyond input length")
        pos = pos + 1 if vec[f] <= threshold[pos] else int(jump[pos])
        visits += 1
    return int(jump[pos]), visits


def bootstrap_indices(rng: SplitMix64, n: int) -> np.ndarray:
    """n draws with replacement from range(n)."""
    return (rng.next_block(n) % np.uint64(n)).astype(np.int64)


def generate_pool(train: Dataset, forests=DEFAULT_FORESTS, seed: int = 0) -> ClassifierPool:
    """Train one forest per ``(n_trees, max_depth)`` pair on seeded
    bootstraps of ``train``; each node draws isqrt(n_features) candidate
    features, Breiman's floor(sqrt(d)).

    Per-tree streams derive from ``seed XOR mix64(tree_index)`` so the pool is
    identical whether trees are trained serially or in parallel.
    """
    max_features = math.isqrt(train.n_features)
    trees = []
    for n_trees, max_depth in forests:
        for _ in range(n_trees):
            stream = SplitMix64(derive_seed(seed, len(trees)))
            boot = bootstrap_indices(stream, train.n_samples)
            grow_seed = stream.next()
            trees.append(train_tree(train, boot, max_depth, max_features, grow_seed))
    return ClassifierPool.from_trees(trees, train.n_classes)
