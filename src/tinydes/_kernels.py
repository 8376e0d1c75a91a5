"""Hot numeric kernels, one numpy kernel per rule.

Split search, tree walks, cluster assignment and means, KNORA distances and
double-fault counts are vectorized numpy; the engine's per-probe
``tiny_infer`` is plain Python (see "Compact-engine inference"). They share
one arithmetic contract:

  * split scores are exact int64 class-count sums divided once in float64;
    the kernel scores all candidate columns at once from the class totals
    they share, in the order of integer rank codes (see "Split search");
  * tree walks compare float32 values against float32 thresholds;
  * distances square float32 differences and accumulate in float64.

Every consumer breaks distance ties by explicit index rules, never by
accumulation order. ``benchmarks/kernel_bench.py`` times the kernels.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# Split search: maximize sum_children( sum_c count_c^2 / n_child ).
# Equivalent to minimizing weighted Gini impurity; counts are exact int64 and
# each child contributes one float64 division. Ties resolve to the smallest
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
# Comparison sort. Nodes below SMALL_NODE_ROWS rows cast keys and labels to
# int32 and take their stable argsort, a timsort (insertion sort on short
# rows): cheapest on a few rows, far dearer on many. Codes are below the
# sample count, itself below 2^31, so the cast is exact. Every other node
# sorts composites ``key << b | position`` (b position bits). Composites of
# one row are distinct, so numpy's plain sort, a SIMD quicksort on x86, puts
# them in exactly the order a stable argsort of the keys gives; ``& low``
# recovers the positions and ``>> b`` the keys. The node's labels sort the
# same way. Composites are int32 while the key dtype's bits (or the label
# bits) plus b fit in 31 bits, as for uint16 keys below 2^15 rows and uint8
# keys below 2^23, and int64 otherwise. On a 2-vCPU AVX-512 Xeon (numpy
# 2.4), each rule's kernel time over that of a kernel which stable-argsorts
# the uint8/uint16 keys as they come (numpy's radix sort for those dtypes),
# mean of three random nodes per size, best of seven alternated runs:
#
#   rows                 10    26    32    60   100   300  1000  3000  30000
#   uint8,  m = 28
#     int32 argsort    0.84  0.84  0.94  1.51  1.77  2.58
#     composite        0.98  0.81  0.91  0.85  0.89  0.87  0.88  0.87   1.02
#   uint16, m = 8
#     int32 argsort    0.84  0.85  0.91  1.08  1.52  2.65
#     composite        1.03  1.04  1.01  1.05  1.03  0.92  0.93  0.95   0.93
#
# (m = 28 and 8 are the candidate counts of 784 and 64 features.) With
# uint16 keys at m = 8 the sorts are a small share of the kernel, which is
# then the fixed cost of its ~35 numpy calls, so the rules differ little.
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
# Both are exact int64 identities, so every score equals, bit for bit, the
# one a per-column class-count loop computes. For r, stably sort each
# column's key-ordered labels (as composites, or by argsort). Class
# c starts at start_c = cumsum(T)_c - T_c in every column, so the row at
# class-sorted position k has r = k - start[class]. Memory is a few (m, n)
# int64 arrays, with no (n, m, classes) one-hot. Prefixes that end inside a
# run of equal keys are masked.
# ---------------------------------------------------------------------------


def rank_codes(X):
    """Per-column dense ranks of the 2-D matrix ``X``.

    Equal values share a code, and codes order like the values. The dtype is
    the smallest unsigned type that holds the largest code. The result is the
    transpose of a C-contiguous (features, samples) array, so ``.T`` gives
    each feature's codes as one contiguous row.
    """
    xt = np.ascontiguousarray(np.asarray(X).T)
    order = np.argsort(xt, axis=1)
    sv = np.sort(xt, axis=1)  # equals xt along order: only tie order differs
    ranks = np.zeros(xt.shape, dtype=np.int64)
    np.cumsum(sv[:, 1:] != sv[:, :-1], axis=1, out=ranks[:, 1:])
    codes = np.empty(xt.shape, dtype=np.min_scalar_type(int(ranks[:, -1].max())))
    np.put_along_axis(codes, order, ranks, axis=1)
    return codes.T


# Nodes below this many rows sort by a stable int32 argsort rather than as
# composites; see "Comparison sort" above.
SMALL_NODE_ROWS = 32


def best_split(keys, labels, n_classes, totals, total_sq):
    """Best split of a node over its (n, m) candidate ``keys``, unsigned
    integer codes of at most 32 bits.

    ``labels`` are the node's class ids, ``totals`` their int64 class
    counts and ``total_sq`` the int ``totals @ totals``.
    Returns ``(col, (p0, p1), score, found)``: p0 and p1 are the node
    positions of the last row left of the cut and the first row right of it
    in column ``col``'s key order. Pass ``keys`` as the transpose of a
    C-contiguous (m, n) array to avoid a copy.
    """
    n, m = keys.shape
    if n < 2:
        return -1, (-1, -1), -1.0, False
    total = totals if totals.dtype == np.int64 else totals.astype(np.int64)
    off = np.arange(0, m * n, n)[:, None]  # each column's first flat cell
    if n < SMALL_NODE_ROWS:
        # stable timsorts of int32 keys and labels
        kt = keys.T.astype(np.int32)
        order = kt.argsort(axis=1, kind="stable")
        sk = kt.take(order + off)
        ys = labels.astype(np.int32).take(order)
        by_class = ys.argsort(axis=1, kind="stable")
    else:
        # key << b | position is distinct per row, so an unstable sort of
        # the composites orders rows as a stable argsort of the keys does
        b = (n - 1).bit_length()  # position bits
        fits = b + max(8 * keys.dtype.itemsize, (n_classes - 1).bit_length()) <= 31
        ct = np.int32 if fits else np.int64
        low = (1 << b) - 1
        pos = np.arange(n, dtype=ct)
        sk = keys.T.astype(ct)
        sk <<= b
        sk |= pos
        sk.sort(axis=1)
        order = sk & low
        sk >>= b
        ys = labels.take(order)
        by_class = ys.astype(ct)
        by_class <<= b
        by_class |= pos
        by_class.sort(axis=1)
        by_class &= low
    start = total.cumsum() - total
    sl = np.empty((m, n), dtype=np.int64)
    sl.put(by_class + off, np.arange(1, 2 * n, 2) - (2 * start).repeat(total))
    sl.cumsum(axis=1, out=sl)
    sr = (2 * total).take(ys).cumsum(axis=1)
    np.subtract(total_sq, sr, out=sr)
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
# visits count the nodes on each path. The columns must be valid:
# ``ClassifierPool.from_trees`` checks once that children lie inside their
# tree and after their parent, which ends every walk, and callers check that
# every feature id is below the input width. The int16/uint16 columns are
# widened to intp once per call; index sums of the narrow gathers are slower.
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
# accumulation, ties to the smallest cluster id.
# ---------------------------------------------------------------------------


def assign_clusters(X, C):
    n = X.shape[0]
    k = C.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    step = max(1, (1 << 22) // max(1, X.shape[1]))
    # one difference buffer per call, reused for every block and cluster
    buf = np.empty((min(n, step), X.shape[1]), dtype=np.result_type(X, C))
    with np.errstate(over="ignore"):
        for s in range(0, n, step):
            xb = X[s : s + step]
            d = buf[: xb.shape[0]]
            dm = np.empty((xb.shape[0], k), dtype=np.float64)
            for c in range(k):
                np.subtract(xb, C[c], out=d)
                np.square(d, out=d)
                dm[:, c] = d.sum(axis=1, dtype=np.float64)
            lb = np.argmin(dm, axis=1)
            labels[s : s + step] = lb
            dists[s : s + step] = dm[np.arange(xb.shape[0]), lb]
    return labels, dists


def cluster_means(X, labels, k):
    nf = X.shape[1]
    out = np.zeros((k, nf), dtype=np.float32)
    counts = np.zeros(k, dtype=np.int64)
    for c in range(k):
        mask = labels == c
        cnt = int(mask.sum())
        counts[c] = cnt
        if cnt > 0:
            out[c] = (X[mask].sum(axis=0, dtype=np.float64) / cnt).astype(np.float32)
    return out, counts


# ---------------------------------------------------------------------------
# Dense query-to-reference squared distances (KNORA region search).
# ---------------------------------------------------------------------------


def pairwise_sqdist(Q, D):
    # qq - 2 Q.D + dd, evaluated in the product's buffer. Bit-identical to
    # the expression: scaling by -2 is exact and qq + (-x) is qq - x.
    Qd = Q.astype(np.float64)
    Dd = D.astype(np.float64)
    out = Qd @ Dd.T
    out *= -2.0
    out += np.square(Qd).sum(axis=1)[:, None]
    out += np.square(Dd).sum(axis=1)[None, :]
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
# overhead, not arithmetic. numpy writes into buffers that ``load_tiny``
# allocates once, the node columns are Python lists built once, and the walk
# reads each feature it visits through a memoryview of the probe buffer, so
# no per-probe list of all features is built. Indexing the view or a list
# gives the Python float equal to the float32 value, so each comparison is
# float32's, and no numpy scalar is indexed per node.
# ---------------------------------------------------------------------------


def tiny_infer(x, mean, inv_std, centroids, roots, feat, thr, jump, sx, xs, diff, votes):
    """Standardize ``x`` into ``sx``, pick the nearest centroid, walk that
    cluster's trees and vote into ``votes``; returns (label, cost).

    ``xs`` is a memoryview of ``sx``, through which the walk reads features,
    and ``diff`` is a float32 (k, n_features) buffer for the centroid
    differences. ``roots[c]`` lists the first node of each tree of cluster
    c. ``feat``, ``thr`` and ``jump`` are the node columns as lists: a node
    is a leaf when its feature is negative, and its jump is then the class;
    otherwise the right child sits ``jump`` nodes after its tree's first
    node. Distances are float32 squares summed in float64, ties to the
    smallest cluster (a NaN probe goes to cluster 0); votes tie to the
    smallest class. Cost = nodes visited + k.
    """
    with np.errstate(over="ignore"):  # f32 values may saturate to inf, as in C
        np.subtract(x, mean, out=sx)
        np.multiply(sx, inv_std, out=sx)
        np.subtract(sx, centroids, out=diff)
        np.square(diff, out=diff)
        cluster = diff.sum(axis=1, dtype=np.float64).argmin()
    votes[:] = [0] * len(votes)
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
