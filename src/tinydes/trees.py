"""CART trees on flat preorder node arrays, and the two-forest pool.

Node layout: ``feature[i] < 0`` marks a leaf whose class id sits in
``jump[i]``. Internal nodes send ``x[feature] <= threshold`` to node ``i+1``
and everything else to node ``jump[i]`` (an index within the tree). This is
the exact record the compact binary format stores, so the training graph
and the embedded interpreter walk identical structures. A pool lays its
trees' nodes end to end once, as the format's node section does
(``ClassifierPool.nodes``); batch prediction walks every (tree, row) pair
over those columns at once, and ``predict_tree`` walks one sample through
one tree.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from ._rng import SplitMix64, derive_seed
from .errors import CapacityError, ModelCorruptError
from .data import Dataset

LEAF = -1
_CAND_BLOCK = 128  # candidate feature subsets drawn per block
_MAX_FEATURES = 1 << 15  # feature ids must fit the int16 node field


def _field(values, dtype, what: str) -> np.ndarray:
    """``values`` as a contiguous ``dtype`` array; a value the dtype cannot
    hold raises ``CapacityError`` instead of wrapping."""
    a = np.asarray(values)
    if a.size:
        info = np.iinfo(dtype)
        lo, hi = a.min(), a.max()
        if lo < info.min or hi > info.max:
            bad = lo if lo < info.min else hi
            raise CapacityError(f"{what} {bad} outside the {info.dtype} node field")
    return np.ascontiguousarray(a, dtype=dtype)


@dataclass(frozen=True)
class DecisionTree:
    feature: np.ndarray  # int16 [n_nodes]; -1 marks a leaf
    threshold: np.ndarray  # float32 [n_nodes]; 0 for leaves
    jump: np.ndarray  # uint16 [n_nodes]; right child index, or class id at leaves
    depth: int
    n_classes: int

    def __post_init__(self):
        f = _field(self.feature, np.int16, "feature id")
        t = np.ascontiguousarray(self.threshold, dtype=np.float32)
        j = _field(self.jump, np.uint16, "jump")
        for arr in (f, t, j):
            arr.flags.writeable = False
        object.__setattr__(self, "feature", f)
        object.__setattr__(self, "threshold", t)
        object.__setattr__(self, "jump", j)

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]


@dataclass(frozen=True)
class ForestSpec:
    n_trees: int
    max_depth: int


@dataclass(frozen=True)
class PoolConfig:
    forests: tuple[ForestSpec, ...] = (ForestSpec(25, 10), ForestSpec(20, 5))
    max_features: int | None = None  # None: floor(sqrt(n_features))

    @property
    def pool_size(self) -> int:
        return sum(f.n_trees for f in self.forests)


@dataclass(frozen=True)
class PoolNodes:
    """A pool's node columns end to end, with jumps relative to each tree's
    first node, as the ``.tdes`` node section stores them. Every internal
    node's children lie inside its own tree and after it, and every leaf's
    class is below the pool's ``n_classes``."""

    feature: np.ndarray  # intp [n_nodes]; negative at leaves
    threshold: np.ndarray  # float32 [n_nodes]
    jump: np.ndarray  # intp [n_nodes]; right child - first, or class id at leaves
    first: np.ndarray  # intp [pool_size]; each tree's first node
    count: np.ndarray  # intp [pool_size]; each tree's node count
    width: int  # 1 + the largest feature id: the narrowest input the pool reads


@dataclass(frozen=True)
class ClassifierPool:
    trees: tuple[DecisionTree, ...]
    origins: tuple[str, ...]  # forest tag per tree, "A", "B", ...
    seed: int

    @property
    def pool_size(self) -> int:
        return len(self.trees)

    @property
    def n_classes(self) -> int:
        return self.trees[0].n_classes

    def fingerprint(self) -> int:
        """CRC32 over all node bytes; identifies a pool across bench rows."""
        crc = 0
        for t in self.trees:
            crc = zlib.crc32(t.feature.tobytes(), crc)
            crc = zlib.crc32(t.threshold.tobytes(), crc)
            crc = zlib.crc32(t.jump.tobytes(), crc)
        return crc

    def node_bytes(self) -> int:
        return 8 * sum(t.n_nodes for t in self.trees)

    @cached_property
    def nodes(self) -> PoolNodes:
        """Every tree's nodes end to end, built and checked on first use."""
        count = np.array([t.n_nodes for t in self.trees], dtype=np.intp)
        if count.size == 0 or count.min() < 1:
            raise ModelCorruptError("pool has no trees or a tree with no nodes")
        first = count.cumsum() - count
        feat = np.concatenate([t.feature for t in self.trees]).astype(np.intp)
        thr = np.concatenate([t.threshold for t in self.trees])
        jump = np.concatenate([t.jump for t in self.trees]).astype(np.intp)
        owner = np.arange(count.size).repeat(count)
        local = np.arange(feat.size) - first[owner]
        internal = feat >= 0
        bad = np.flatnonzero(np.where(internal, (jump <= local) | (jump >= count[owner]),
                                      jump >= self.n_classes))
        if bad.size:
            i = bad[0]
            what = (f"right child {jump[i]} violates preorder" if internal[i]
                    else f"leaf class {jump[i]} is not below n_classes {self.n_classes}")
            raise ModelCorruptError(f"tree {owner[i]} node {local[i]}: {what}")
        return PoolNodes(feat, thr, jump, first, count, int(feat.max()) + 1)


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
                                                              total_sq)
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
    if len(feature) > 65535:
        raise CapacityError(f"tree grew {len(feature)} nodes; the 16-bit node index caps at 65535")
    threshold = np.zeros(len(feature), dtype=np.float32)
    if splits:
        nodes, feats, r0, r1 = np.array(splits, dtype=np.int64).T
        X = data.features
        threshold[nodes] = _kernels.split_threshold(X[r0, feats], X[r1, feats])
    return DecisionTree(feature, threshold, jump, depth=max_depth, n_classes=n_classes)


def predict_tree(t: DecisionTree, x) -> tuple[int, int]:
    """Walk one sample from the root; returns (class id, nodes visited)."""
    vec = np.asarray(x, dtype=np.float32).ravel()
    n = t.n_nodes
    pos = 0
    visits = 0
    while True:
        visits += 1
        if visits > n:
            raise ModelCorruptError("tree walk did not terminate")
        f = int(t.feature[pos])
        if f < 0:
            return int(t.jump[pos]), visits
        if f >= vec.shape[0]:
            raise ModelCorruptError(f"node {pos} references feature {f} beyond input length")
        nxt = pos + 1 if vec[f] <= t.threshold[pos] else int(t.jump[pos])
        if not (pos < nxt < n):
            raise ModelCorruptError(f"node {pos} jumps to invalid index {nxt}")
        pos = nxt


def bootstrap_indices(rng: SplitMix64, n: int) -> np.ndarray:
    """n draws with replacement from range(n)."""
    return (rng.next_block(n) % np.uint64(n)).astype(np.int64)


def generate_pool(train: Dataset, config: PoolConfig | None = None, seed: int = 0) -> ClassifierPool:
    """Train the configured forests on seeded bootstraps of ``train``.

    Per-tree streams derive from ``seed XOR mix64(tree_index)`` so the pool is
    identical whether trees are trained serially or in parallel.
    """
    config = config or PoolConfig()
    max_features = config.max_features
    if max_features is None:
        max_features = max(1, int(np.floor(np.sqrt(train.n_features))))
    max_features = min(max_features, train.n_features)
    trees = []
    origins = []
    tree_index = 0
    for fi, forest in enumerate(config.forests):
        tag = chr(ord("A") + fi)
        for _ in range(forest.n_trees):
            stream = SplitMix64(derive_seed(seed, tree_index))
            boot = bootstrap_indices(stream, train.n_samples)
            grow_seed = stream.next()
            trees.append(train_tree(train, boot, forest.max_depth, max_features, grow_seed))
            origins.append(tag)
            tree_index += 1
    return ClassifierPool(tuple(trees), tuple(origins), seed)
