"""Hot numeric kernels, one numpy kernel per rule.

Split search, tree walks, cluster assignment and means, KNORA distances and
double-fault counts are vectorized numpy; the engine's per-probe
``tiny_infer`` is plain Python (see "Compact-engine inference"). They share
one arithmetic contract:

  * split scores are exact integer class-count sums divided once in float64;
    the kernel scores all candidate columns at once from the class totals
    they share, in the order of integer rank codes (see "Split search");
  * tree walks compare float32 values against float32 thresholds;
  * distances square float32 differences and accumulate in float64
    (``sqdist_rows``). A computed distance lies within a relative
    2^-22 + (n + 2) 2^-52 plus an absolute n 2^-149 of the exact one, for
    n features in any summation order; k-means' bounded assignment skips
    a distance only by that margin (see ``cluster``).

Every consumer breaks distance ties by explicit index rules, never by
accumulation order. ``benchmarks/kernel_bench.py`` times the kernels.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# Split search: maximize sum_children( sum_c count_c^2 / n_child ).
# Equivalent to minimizing weighted Gini impurity; counts are exact integers
# and each child contributes one float64 division. Ties resolve to the smallest
# feature id, then the smallest threshold.
#
# The kernel reads integer keys only, never the float values. ``rank_codes``
# gives each column's dense ranks: equal values share a code and codes order
# like the values, in the smallest unsigned dtype that holds them (uint8 for
# pixel columns, uint16 up to 65 536 distinct values). Keys tie exactly where
# float32 values compare equal (-0.0 == 0.0), and the rows are put in stable
# key order, so the permutation is the one a stable argsort of the values
# gives: every sorted label, count and score is the one a value sort gives.
# Any keys that tie exactly where the values do and otherwise order like them
# give the same bits; ``train_tree`` passes the pool's codes restricted to a
# node's rows. The kernel returns the node positions of the two rows around
# the cut, and ``split_threshold`` turns their two values into the threshold.
#
# Comparison sort. Every node sorts composites ``key << b | position`` (b
# position bits). Composites of one row are distinct, so numpy's plain sort,
# a SIMD quicksort on x86, puts them in exactly the order a stable argsort of
# the keys gives; ``& low`` recovers the positions and ``>> b`` the keys. The
# node's labels sort the same way.
#
# It scores every candidate column in one vectorized pass. All columns
# partition the same rows, so they share the class totals T. Walk a column
# in key order; if the row that ends a prefix has class y and r earlier rows
# of the prefix also have class y, L_y grows from r to r+1 and sum_c L_c^2
# grows by 2r+1. Hence, per prefix,
#
#   sum_c L_c^2       = cumsum(2r + 1)
#   sum_c (T_c-L_c)^2 = sum_c T_c^2 - 2 cumsum(T[y]) + sum_c L_c^2
#
# Both are exact integer identities, so every score equals, bit for bit, the
# one a per-column class-count loop computes. For r, sort each column's
# key-ordered labels as composites. Class c starts at start_c = cumsum(T)_c
# - T_c in every column, so the row at class-sorted position k has
# r = k - start[class]. A third composite, ``position << (b+1) | 2r+1`` in
# class order, sorts back to key order, and its low bits are then 2r+1.
# Prefixes that end inside a run of equal keys are masked.
#
# Node dtype. Composites and prefix sums share one dtype: int32 when
# n <= INT32_NODE_ROWS and the key (or label) bits plus b fit in 31; int64
# otherwise. sum_c L_c^2 <= n^2, and the largest intermediate,
# cumsum(2 T[y]), reaches 2 sum_c T_c^2 <= 2 n^2 < 2^31 for n <= 32 767;
# there b <= 15, so the 2b + 1 bits of the rank composite fit too. With
# uint8 or uint16 keys and at most 65 536 classes, every node up to 32 767
# rows is int32. Each score is still exact integers divided once in float64,
# so the dtype never changes a bit. Memory is a few (m, n) arrays of that
# dtype and numpy's intp indices for ``take``, with no (n, m, classes)
# one-hot.
#
# Per-size constants. The odd numbers 2k+1, the positions and the prefix
# sizes n_l, n - n_l are views of ``split_constants`` arrays, which
# ``train_tree`` builds once per tree for its largest node.
# ---------------------------------------------------------------------------


def rank_codes(X):
    """Per-column dense ranks of the float32 2-D matrix ``X``.

    Equal values share a code, and codes order like the values. The dtype is
    the smallest unsigned type that holds the largest code. The result is the
    transpose of a C-contiguous (features, samples) array, so ``.T`` gives
    each feature's codes as one contiguous row.
    """
    n = X.shape[0]
    xt = np.empty((X.shape[1], n), dtype=np.float32)
    np.add(X.T, np.float32(0.0), out=xt)  # -0.0 + 0.0 is 0.0
    # an int32 key that orders like the float32: negatives flip their
    # magnitude bits, so a larger magnitude gives a smaller key
    key = xt.view(np.int32)
    key ^= (key >> 31) & 0x7FFFFFFF
    b = (n - 1).bit_length()  # position bits
    comp = key.astype(np.int64)
    comp <<= b
    comp |= np.arange(n, dtype=np.int64)
    comp.sort(axis=1)  # composites are distinct: keys, then positions
    cells = comp & ((1 << b) - 1)  # positions in key order, then flat cells
    cells += np.arange(0, xt.size, n, dtype=np.int64)[:, None]
    comp >>= b  # the sorted keys
    ranks = np.zeros(xt.shape, dtype=np.int32)
    np.cumsum(comp[:, 1:] != comp[:, :-1], axis=1, dtype=np.int32, out=ranks[:, 1:])
    codes = np.empty(xt.shape, dtype=np.min_scalar_type(int(ranks[:, -1].max())))
    # a scatter of values already in the codes' dtype is the cheap one
    codes.reshape(-1)[cells.reshape(-1)] = ranks.astype(codes.dtype).reshape(-1)
    return codes.T


# The largest node whose prefix sums fit int32; see "Node dtype" above.
INT32_NODE_ROWS = 32767


class SplitConstants(NamedTuple):
    """Per-size arrays of split search, for nodes of up to ``n`` rows (see
    ``split_constants``)."""

    ints32: np.ndarray  # int32 0, 1, ..., 2 min(n, INT32_NODE_ROWS) - 1
    ints64: np.ndarray  # int64 0, 1, ..., 2n - 1
    sizes: np.ndarray  # float64 1, 2, ..., n - 1: the left prefix sizes


def split_constants(n: int) -> SplitConstants:
    """The arrays that ``best_split`` takes views of, for every node of up to
    ``n`` rows."""
    return SplitConstants(np.arange(2 * min(n, INT32_NODE_ROWS), dtype=np.int32),
                          np.arange(2 * n, dtype=np.int64),
                          np.arange(1, n, dtype=np.float64))


def node_dtype(n: int, key_dtype, n_classes: int):
    """The dtype of an n-row node's composites and prefix sums: int32 where
    every value provably fits (see "Node dtype" above), int64 otherwise."""
    if n > INT32_NODE_ROWS:
        return np.int64
    bits = max(8 * np.dtype(key_dtype).itemsize, (n_classes - 1).bit_length())
    return np.int32 if (n - 1).bit_length() + bits <= 31 else np.int64


def best_split(keys, labels, totals, total_sq, consts):
    """Best split of a node over its (n, m) candidate ``keys``, unsigned
    integer codes of at most 32 bits.

    ``labels`` are the node's class ids, ``totals`` their int64 counts of
    every class and ``total_sq`` the int ``totals @ totals``. ``consts`` are
    ``split_constants`` for at least n rows. Returns
    ``(col, (p0, p1), score, found)``: p0 and p1 are the node positions of
    the last row left of the cut and the first row right of it in column
    ``col``'s key order. Pass ``keys`` as the transpose of a
    C-contiguous (m, n) array to avoid a copy.
    """
    n = keys.shape[0]
    if n < 2:
        return -1, (-1, -1), -1.0, False
    total = totals if totals.dtype == np.int64 else totals.astype(np.int64)
    ct = node_dtype(n, keys.dtype, total.shape[0])
    ints = consts.ints32 if ct is np.int32 else consts.ints64
    start = total.cumsum() - total
    start <<= 1
    odd = ints[1:2 * n:2] - start.astype(ct).repeat(total)  # 2r+1 in class order
    # key << b | position is distinct per row, so an unstable sort of the
    # composites orders rows as a stable argsort of the keys does
    b = (n - 1).bit_length()  # position bits
    low = (1 << b) - 1
    pos = ints[:n]
    sk = keys.T.astype(ct)
    sk <<= b
    sk |= pos
    sk.sort(axis=1)
    order = sk & low
    sk >>= b
    ys = labels.take(order)
    sl = ys.astype(ct)
    sl <<= b
    sl |= pos
    sl.sort(axis=1)  # class order
    sl &= low
    sl <<= b + 1
    sl |= odd
    sl.sort(axis=1)  # key order again
    sl &= (2 << b) - 1
    np.add.accumulate(sl, axis=1, dtype=ct, out=sl)
    sr = (2 * total).astype(ct).take(ys)
    np.add.accumulate(sr, axis=1, dtype=ct, out=sr)
    np.subtract(total_sq, sr, out=sr)
    sr += sl
    nl = consts.sizes[:n - 1]
    score = sl[:, :-1] / nl
    score += sr[:, :-1] / nl[::-1]  # n - nl
    # every real score is positive, so -1 marks non-boundaries
    np.putmask(score, sk[:, :-1] == sk[:, 1:], -1.0)
    # row-major argmax: smallest column first, then smallest threshold
    j, i = divmod(int(score.argmax()), n - 1)
    if score[j, i] < 0:
        return -1, (-1, -1), -1.0, False
    return j, (int(order[j, i]), int(order[j, i + 1])), float(score[j, i]), True


def split_threshold(v0, v1):
    """float32 thresholds between adjacent distinct values ``v0 < v1``
    (scalars or arrays): their midpoint, or ``v0`` where the midpoint rounds
    up to ``v1``, so that ``<= threshold`` keeps exactly the values up to
    ``v0``."""
    v0 = np.asarray(v0, dtype=np.float32)
    v1 = np.asarray(v1, dtype=np.float32)
    thr = ((v0.astype(np.float64) + v1) * 0.5).astype(np.float32)
    return np.where(thr >= v1, v0, thr)


# ---------------------------------------------------------------------------
# Flat-tree walk of a whole pool. The node columns are every tree's preorder
# nodes end to end, as ``.tdes`` stores them: a node is a leaf when its
# feature is negative, and its jump is then the class id; otherwise its left
# child is the next node and its right child sits ``jump`` nodes after its
# tree's first node. One call walks any (tree, row) pairs at once, each from
# its tree's first node. Every step moves each pair one node down; a leaf
# steps to itself, so the walk steps until every pair is at a leaf, and
# visits count the nodes on each path. The columns must be valid: every
# pool, a grown tree's one-tree pool among them, is built by
# ``ClassifierPool.from_trees``, whose ``check_nodes`` (shared with
# ``load_tiny``) requires children to lie inside their tree and after their
# parent, which ends every walk; callers check that every feature id is
# below the input width. The int16/uint16 columns are widened to intp once
# per call; index sums of the narrow gathers are slower.
# ---------------------------------------------------------------------------


def tree_walk(feat, thr, jump, roots, rows, X):
    """(labels, visits) of each pair: the tree whose first node is
    ``roots[i]`` applied to row ``rows[i]`` of the C-contiguous ``X``."""
    flat = X.reshape(-1)
    leaf = feat < 0
    col = np.maximum(feat, 0).astype(np.intp)  # leaves read column 0 and stay put
    jump = jump.astype(np.intp)
    cell = rows * X.shape[1]
    pos = roots.copy()
    visits = np.ones(pos.shape[0], dtype=np.int64)
    while True:
        internal = ~leaf[pos]
        if not internal.any():
            return jump[pos], visits
        go_left = flat.take(cell + col[pos]) <= thr[pos]
        pos = np.where(internal, np.where(go_left, pos + 1, roots + jump[pos]), pos)
        visits += internal


# ---------------------------------------------------------------------------
# Squared-L2 cluster assignment: float32 differences/squares, float64
# accumulation, ties to the smallest cluster id. ``sqdist_rows`` is the one
# per-row arithmetic, ``sqdist_table`` the one (k, n) table built from it in
# blocks of ``block_rows`` rows, and ``nearest`` the one assignment rule;
# k-means seeding, bounded Lloyd steps and ``assign_clusters`` all use them.
# ---------------------------------------------------------------------------


def block_rows(n_features):
    """Rows per block of a distance pass: a float32 block of 2^22 cells."""
    return max(1, (1 << 22) // max(1, n_features))


def sqdist_rows(X, c, out):
    """float64 squared distances of the rows of ``X`` to the centroid ``c``.
    The float32 differences and squares go into ``out``, an array of X's
    shape that may be ``X`` itself."""
    with np.errstate(over="ignore"):
        np.subtract(X, c, out=out)
        np.square(out, out=out)
    return out.sum(axis=1, dtype=np.float64)


def sqdist_table(X, C, todo=None, out=None):
    """The float64 (k, n) table whose cell (c, i) is row i of ``X``'s squared
    distance to centroid c of ``C``. With a bool (k, n) ``todo``, only its
    cells are computed and ``out`` keeps the others.

    Every block works in one scratch buffer: a block of every row is a
    contiguous slice of ``X``, read in place; a ``todo`` block is gathered
    into the buffer first. ``X`` is never written."""
    if out is None:
        out = np.empty((C.shape[0], X.shape[0]), dtype=np.float64)
    step = block_rows(X.shape[1])
    buf = np.empty((min(step, X.shape[0]), X.shape[1]), dtype=X.dtype)
    for c in range(C.shape[0]):
        rows = None if todo is None else np.flatnonzero(todo[c])
        for s in range(0, X.shape[0] if rows is None else rows.size, step):
            if rows is None:
                cells = slice(s, s + step)
                xb = X[cells]
            else:
                cells = rows[s : s + step]
                # the rows are in range; "clip" lets take write into buf
                # directly, where "raise" would fill a temporary and copy it
                xb = X.take(cells, axis=0, out=buf[: cells.size], mode="clip")
            out[c, cells] = sqdist_rows(xb, C[c], buf[: xb.shape[0]])
    return out


def nearest(dm):
    """Each column's nearest centroid in the (k, n) distances ``dm``, ties to
    the smallest id, and its distance."""
    labels = dm.argmin(axis=0)
    return labels, dm[labels, np.arange(dm.shape[1])]


def assign_clusters(X, C):
    """(labels, squared distances) of each row of ``X``'s nearest centroid."""
    return nearest(sqdist_table(X, C))


def cluster_means(X, labels, k):
    out = np.zeros((k, X.shape[1]), dtype=np.float32)
    for c in range(k):
        mask = labels == c
        cnt = int(mask.sum())
        if cnt > 0:
            out[c] = (X[mask].sum(axis=0, dtype=np.float64) / cnt).astype(np.float32)
    return out


# ---------------------------------------------------------------------------
# Dense query-to-reference squared distances (KNORA region search).
# ---------------------------------------------------------------------------


def sq_norms(A):
    """float64 squared norms of the rows of the float64 matrix ``A``."""
    return np.square(A).sum(axis=1)


def pairwise_sqdist(Q, D, dd):
    # qq - 2 Q.D + dd, evaluated in the product's buffer. Bit-identical to
    # the expression: scaling by -2 is exact and qq + (-x) is qq - x. A
    # float64 D is not copied, and dd is sq_norms of it: a caller with many
    # query blocks casts and sums the reference rows once.
    Qd = Q.astype(np.float64)
    Dd = np.asarray(D, dtype=np.float64)
    out = Qd @ Dd.T
    out *= -2.0
    out += sq_norms(Qd)[:, None]
    out += dd[None, :]
    np.maximum(out, 0.0, out=out)
    return out


# ---------------------------------------------------------------------------
# Double-fault pair counts: for each classifier pair, how many evaluation
# samples both get wrong, as exact integer counts.
# ---------------------------------------------------------------------------


def both_wrong_counts(wrong):
    w = wrong.astype(np.int64)
    return w @ w.T


# ---------------------------------------------------------------------------
# Compact-engine inference, one probe at a time. The per-probe cost is Python
# overhead, not arithmetic. The model is only read: a probe allocates its
# standardized copy, centroid differences and votes, so threads may share an
# engine. The node columns are Python lists built once, and the walk reads
# the features it visits through a memoryview of the standardized probe
# rather than a list of all of them. Indexing the view or a list gives the
# Python float equal to the float32 value, so each comparison is float32's,
# and no numpy scalar is indexed per node.
# ---------------------------------------------------------------------------


def tiny_infer(x, mean, inv_std, centroids, roots, feat, thr, jump, n_classes):
    """Standardize ``x``, pick the nearest centroid, walk that cluster's
    trees and vote among ``n_classes``; returns (label, cost).

    ``roots[c]`` lists the first node of each tree of cluster c. ``feat``,
    ``thr`` and ``jump`` are the node columns as lists: a node is a leaf
    when its feature is negative, and its jump is then the class; otherwise
    the right child sits ``jump`` nodes after its tree's first node.
    Distances are float32 squares summed in float64, ties to the smallest
    cluster (a NaN probe goes to cluster 0); votes tie to the smallest
    class. Cost = nodes visited + k.
    """
    with np.errstate(over="ignore"):  # f32 values may saturate to inf, as in C
        sx = np.subtract(x, mean)
        np.multiply(sx, inv_std, out=sx)
        diff = np.subtract(sx, centroids)
        np.square(diff, out=diff)
        cluster = diff.sum(axis=1, dtype=np.float64).argmin()
    xs = memoryview(sx)
    votes = [0] * n_classes
    visits = 0
    trees = roots[cluster]
    for base in trees:
        pos = base
        f = feat[pos]
        while f >= 0:
            pos = pos + 1 if xs[f] <= thr[pos] else base + jump[pos]
            f = feat[pos]
            visits += 1
        votes[jump[pos]] += 1
    return votes.index(max(votes)), visits + len(trees) + centroids.shape[0]
