"""Hot numeric kernels with two interchangeable backends.

Every batch kernel exists twice: a numba ``@njit`` version (``*_nb``) and a
vectorized numpy version (``*_np``). The engine's per-probe ``tiny_infer``
exists once, in plain Python (see "Compact-engine inference"). The active
backend is chosen once at import from the ``TINYDES_BACKEND`` environment
variable (``numba`` or ``numpy``; default numba when importable). Both
backends follow the same tie rules and the same arithmetic contract:

  * split scores are exact int64 class-count sums divided once in float64,
    so the two backends pick bit-identical splits. The numba kernel updates
    per-column counts row by row; the numpy kernel scores all candidate
    columns at once from the class totals they share, in the order of
    integer rank codes (see "Split search"); both compute the same integers;
  * tree walks compare float32 values against float32 thresholds;
  * distances square float32 differences and accumulate in float64.

float64 accumulation order differs between backends (sequential vs numpy
pairwise), so distance values may differ in the last ulps; every consumer
breaks ties by explicit index rules, never by accumulation order.

``benchmarks/kernel_bench.py`` times the two backends side by side.
"""

from __future__ import annotations

import os

import numpy as np

_env = os.environ.get("TINYDES_BACKEND", "").strip().lower()
if _env not in ("", "numba", "numpy"):
    raise ValueError(f"TINYDES_BACKEND must be 'numba' or 'numpy', got {_env!r}")

_want_numba = _env != "numpy"
_have_numba = False
if _want_numba:
    try:
        from numba import njit, prange

        _have_numba = True
    except ImportError:
        if _env == "numba":
            raise
        _have_numba = False

BACKEND = "numba" if _have_numba else "numpy"


def use_numba() -> bool:
    return BACKEND == "numba"


# ---------------------------------------------------------------------------
# Split search: maximize sum_children( sum_c count_c^2 / n_child ).
# Equivalent to minimizing weighted Gini impurity; counts are exact int64,
# each child contributes one float64 division, so scores are bit-identical
# across backends. Ties resolve to the smallest feature id, then the smallest
# threshold.
#
# The numpy kernel orders rows by integer keys, not by the float values.
# ``rank_codes`` gives each column's dense ranks: equal values share a code
# and codes order like the values, in the smallest unsigned dtype that holds
# them (uint8 for pixel columns, uint16 up to 65 536 distinct values), which
# numpy's stable argsort radix-sorts. Keys tie exactly where float32 values
# compare equal (-0.0 == 0.0), and both sorts are stable, so the permutation
# is the one a stable argsort of the values gives: every sorted label, count
# and score is unchanged, and so is the order within runs of equal values.
# Any keys that tie exactly where the values do and otherwise order like
# them give the same bits; ``train_tree`` passes the pool's codes restricted
# to a node's rows. Boundaries are masked on the sorted keys; the threshold's
# two values are read from ``values`` through the same permutation.
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
# one a per-column class-count loop computes. For r, stably argsort each
# column's key-ordered labels (a radix sort for uint8/uint16 labels). Class
# c starts at start_c = cumsum(T)_c - T_c in every column, so the row at
# class-sorted position k has r = k - start[class]. Memory is a few (m, n)
# int64 arrays, with no (n, m, classes) one-hot. Prefixes that end inside a
# run of equal keys are masked.
# ---------------------------------------------------------------------------


def rank_codes(X):
    """Per-column dense ranks of the 2-D matrix ``X``.

    Equal values share a code, and codes order like the values. The dtype is
    the smallest unsigned type that holds the largest code.
    """
    xt = np.ascontiguousarray(np.asarray(X).T)
    order = np.argsort(xt, axis=1)
    sv = np.sort(xt, axis=1)  # equals xt along order: only tie order differs
    ranks = np.zeros(xt.shape, dtype=np.int64)
    np.cumsum(sv[:, 1:] != sv[:, :-1], axis=1, out=ranks[:, 1:])
    codes = np.empty(xt.shape, dtype=np.min_scalar_type(int(ranks[:, -1].max())))
    np.put_along_axis(codes, order, ranks, axis=1)
    return np.ascontiguousarray(codes.T)


def _best_split_np(values, labels, n_classes, keys):
    n, m = values.shape
    if n < 2:
        return -1, 0.0, -1.0, False
    total = np.bincount(labels, minlength=n_classes).astype(np.int64)
    cols = np.arange(m)[:, None]
    kt = np.ascontiguousarray(keys.T)  # one candidate column per row
    order = np.argsort(kt, axis=1, kind="stable")
    sk = kt[cols, order]
    ys = labels.astype(np.min_scalar_type(n_classes - 1))[order]
    by_class = np.argsort(ys, axis=1, kind="stable")
    start = np.cumsum(total) - total
    sl = np.empty((m, n), dtype=np.int64)
    sl[cols, by_class] = 2 * (np.arange(n) - np.repeat(start, total)) + 1
    np.cumsum(sl, axis=1, out=sl)
    sr = np.cumsum((2 * total)[ys], axis=1)
    np.subtract(int(total @ total), sr, out=sr)
    sr += sl
    nl = np.arange(1, n, dtype=np.float64)
    score = sl[:, :-1] / nl
    score += sr[:, :-1] / (n - nl)
    # every real score is positive, so -1 marks non-boundaries
    score[sk[:, :-1] == sk[:, 1:]] = -1.0
    # row-major argmax: smallest column first, then smallest threshold
    j, i = divmod(int(np.argmax(score)), n - 1)
    if score[j, i] < 0:
        return -1, 0.0, -1.0, False
    v0 = values[order[j, i], j]
    v1 = values[order[j, i + 1], j]
    thr = np.float32((np.float64(v0) + np.float64(v1)) * 0.5)
    if thr >= v1:
        # f32 midpoint rounded up to the right value; fall back to the left
        # value so '<= thr' reproduces the scored partition.
        thr = v0
    return j, float(thr), float(score[j, i]), True


if _have_numba:

    @njit(cache=True)
    def _best_split_nb(values, labels, n_classes):  # pragma: no cover - jitted
        n, m = values.shape
        total = np.zeros(n_classes, dtype=np.int64)
        for i in range(n):
            total[labels[i]] += 1
        s_total = np.int64(0)
        for c in range(n_classes):
            s_total += total[c] * total[c]
        best_score = -1.0
        best_col = -1
        best_thr = np.float32(0.0)
        for j in range(m):
            col = values[:, j].copy()
            order = np.argsort(col)
            cl = np.zeros(n_classes, dtype=np.int64)
            cr = total.copy()
            sl = np.int64(0)
            sr = s_total
            for i in range(n - 1):
                y = labels[order[i]]
                sl += 2 * cl[y] + 1
                cl[y] += 1
                sr -= 2 * cr[y] - 1
                cr[y] -= 1
                v0 = col[order[i]]
                v1 = col[order[i + 1]]
                if v0 == v1:
                    continue
                nl = i + 1
                nr = n - nl
                score = sl / nl + sr / nr
                if score > best_score:
                    thr = np.float32((np.float64(v0) + np.float64(v1)) * 0.5)
                    if thr >= v1:
                        thr = v0
                    best_score = score
                    best_col = j
                    best_thr = thr
        return best_col, best_thr, best_score, best_col >= 0

    def _best_split_dispatch(values, labels, n_classes, keys):
        # the numba kernel sorts the values itself; keys only serve numpy
        col, thr, score, ok = _best_split_nb(values, labels, n_classes)
        return int(col), float(thr), float(score), bool(ok)

    best_split = _best_split_dispatch
else:
    best_split = _best_split_np


# ---------------------------------------------------------------------------
# Flat-tree walk. Nodes are preorder; left child is pos+1, right child is
# jump[pos]; leaves store the class id in jump. Returns -1 labels on
# structural corruption instead of trapping; wrappers raise.
# ---------------------------------------------------------------------------


def _tree_walk_np(feat, thr, jump, X):
    n = X.shape[0]
    nn = feat.shape[0]
    pos = np.zeros(n, dtype=np.int64)
    labels = np.full(n, -1, dtype=np.int64)
    visits = np.ones(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    rows = np.arange(n)
    for _ in range(nn + 1):
        f = feat[pos[active]]
        leaf = f < 0
        act_rows = rows[active]
        leaf_rows = act_rows[leaf]
        labels[leaf_rows] = jump[pos[leaf_rows]]
        active[leaf_rows] = False
        if not active.any():
            break
        act_rows = act_rows[~leaf]
        p = pos[act_rows]
        goleft = X[act_rows, feat[p]] <= thr[p]
        nxt = np.where(goleft, p + 1, jump[p].astype(np.int64))
        bad = nxt >= nn
        if bad.any():
            labels[act_rows[bad]] = -1
            active[act_rows[bad]] = False
            act_rows = act_rows[~bad]
            nxt = nxt[~bad]
        pos[act_rows] = nxt
        visits[act_rows] += 1
    return labels, visits


if _have_numba:

    @njit(cache=True, parallel=True)
    def _tree_walk_nb(feat, thr, jump, X):  # pragma: no cover - jitted
        n = X.shape[0]
        nn = feat.shape[0]
        labels = np.empty(n, dtype=np.int64)
        visits = np.empty(n, dtype=np.int64)
        for r in prange(n):
            pos = 0
            steps = 0
            lab = np.int64(-1)
            while steps <= nn:
                steps += 1
                f = feat[pos]
                if f < 0:
                    lab = np.int64(jump[pos])
                    break
                if X[r, f] <= thr[pos]:
                    pos = pos + 1
                else:
                    pos = np.int64(jump[pos])
                if pos >= nn:
                    break
            labels[r] = lab
            visits[r] = steps
        return labels, visits

    tree_walk = _tree_walk_nb
else:
    tree_walk = _tree_walk_np


# ---------------------------------------------------------------------------
# Squared-L2 cluster assignment: float32 differences/squares, float64
# accumulation, ties to the smallest cluster id.
# ---------------------------------------------------------------------------


def _assign_clusters_np(X, C):
    n = X.shape[0]
    k = C.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    step = max(1, (1 << 22) // max(1, X.shape[1]))
    with np.errstate(over="ignore"):
        for s in range(0, n, step):
            xb = X[s : s + step]
            dm = np.empty((xb.shape[0], k), dtype=np.float64)
            for c in range(k):
                d = xb - C[c]
                dm[:, c] = np.square(d).sum(axis=1, dtype=np.float64)
            lb = np.argmin(dm, axis=1)
            labels[s : s + step] = lb
            dists[s : s + step] = dm[np.arange(xb.shape[0]), lb]
    return labels, dists


if _have_numba:

    @njit(cache=True, parallel=True)
    def _assign_clusters_nb(X, C):  # pragma: no cover - jitted
        n, nf = X.shape
        k = C.shape[0]
        labels = np.empty(n, dtype=np.int64)
        dists = np.empty(n, dtype=np.float64)
        for r in prange(n):
            best = np.inf
            bid = 0
            for c in range(k):
                acc = 0.0
                for i in range(nf):
                    d = X[r, i] - C[c, i]
                    acc += d * d
                if acc < best:
                    best = acc
                    bid = c
            labels[r] = bid
            dists[r] = best
        return labels, dists

    assign_clusters = _assign_clusters_nb
else:
    assign_clusters = _assign_clusters_np


def _cluster_means_np(X, labels, k):
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


if _have_numba:

    @njit(cache=True)
    def _cluster_means_nb(X, labels, k):  # pragma: no cover - jitted
        n, nf = X.shape
        sums = np.zeros((k, nf), dtype=np.float64)
        counts = np.zeros(k, dtype=np.int64)
        for r in range(n):
            c = labels[r]
            counts[c] += 1
            for i in range(nf):
                sums[c, i] += X[r, i]
        out = np.zeros((k, nf), dtype=np.float32)
        for c in range(k):
            if counts[c] > 0:
                for i in range(nf):
                    out[c, i] = np.float32(sums[c, i] / counts[c])
        return out, counts

    cluster_means = _cluster_means_nb
else:
    cluster_means = _cluster_means_np


# ---------------------------------------------------------------------------
# Dense query-to-reference squared distances (KNORA region search).
# ---------------------------------------------------------------------------


def _pairwise_sqdist_np(Q, D):
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


if _have_numba:

    @njit(cache=True, parallel=True)
    def _pairwise_sqdist_nb(Q, D):  # pragma: no cover - jitted
        nq, nf = Q.shape
        nd = D.shape[0]
        out = np.empty((nq, nd), dtype=np.float64)
        for r in prange(nq):
            for s in range(nd):
                acc = 0.0
                for i in range(nf):
                    d = Q[r, i] - D[s, i]
                    acc += d * d
                out[r, s] = acc
        return out

    pairwise_sqdist = _pairwise_sqdist_nb
else:
    pairwise_sqdist = _pairwise_sqdist_np


# ---------------------------------------------------------------------------
# Double-fault pair counts: for each classifier pair, how many evaluation
# samples both get wrong. Exact integer counts in both backends.
# ---------------------------------------------------------------------------


def _both_wrong_counts_np(wrong):
    w = wrong.astype(np.int64)
    return w @ w.T


if _have_numba:

    @njit(cache=True)
    def _both_wrong_counts_nb(wrong):  # pragma: no cover - jitted
        p, m = wrong.shape
        out = np.zeros((p, p), dtype=np.int64)
        for a in range(p):
            for b in range(a, p):
                cnt = np.int64(0)
                for s in range(m):
                    if wrong[a, s] and wrong[b, s]:
                        cnt += 1
                out[a, b] = cnt
                out[b, a] = cnt
        return out

    both_wrong_counts = _both_wrong_counts_nb
else:
    both_wrong_counts = _both_wrong_counts_np


# ---------------------------------------------------------------------------
# Compact-engine inference, one probe at a time. The per-probe cost is Python
# overhead, not arithmetic, so the walk reads Python lists that ``load_tiny``
# builds once: a Python float holds a float32 value exactly, so each
# comparison is float32's, and no numpy scalar is indexed per node. A kernel
# over Python lists has no numba twin.
# ---------------------------------------------------------------------------


def tiny_infer(x, mean, inv_std, centroids, roots, feat, thr, jump, sx, votes):
    """Standardize ``x`` into ``sx``, pick the nearest centroid, walk that
    cluster's trees and vote into ``votes``; returns (label, cost).

    ``roots[c]`` lists the first node of each tree of cluster c. ``feat``,
    ``thr`` and ``jump`` are the node columns as lists: a node is a leaf when
    its feature is negative, and its jump is then the class; otherwise the
    right child sits ``jump`` nodes after its tree's first node. Distances
    are float32 squares summed in float64, ties to the smallest cluster (a
    NaN probe goes to cluster 0); votes tie to the smallest class. Cost =
    nodes visited + k.
    """
    with np.errstate(over="ignore"):  # f32 values may saturate to inf, as in C
        np.subtract(x, mean, out=sx)
        np.multiply(sx, inv_std, out=sx)
        cluster = np.square(sx - centroids).sum(axis=1, dtype=np.float64).argmin()
    xs = sx.tolist()
    for c in range(len(votes)):
        votes[c] = 0
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
