"""The value-reading split kernel: the reference that ``_kernels.best_split``
(which reads rank codes only) is checked against.

``value_best_split`` scores candidate columns as the production kernel does
but reads the node's float values: it counts the class totals itself and
turns the two values around the cut into the threshold inline. Together
with ``split_threshold`` the production kernel must give the same column,
threshold bits, score bits and found flag.
"""

import numpy as np


def value_best_split(values, labels, n_classes, keys):
    """(col, float32 threshold as float, score, found) of the best split of
    the (n, m) ``values``; rows are ordered by ``keys`` as in the kernel."""
    n, m = values.shape
    if n < 2:
        return -1, 0.0, -1.0, False
    total = np.bincount(labels, minlength=n_classes).astype(np.int64)
    cols = np.arange(m)[:, None]
    kt = np.ascontiguousarray(keys.T)
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
    score[sk[:, :-1] == sk[:, 1:]] = -1.0
    j, i = divmod(int(np.argmax(score)), n - 1)
    if score[j, i] < 0:
        return -1, 0.0, -1.0, False
    v0 = values[order[j, i], j]
    v1 = values[order[j, i + 1], j]
    thr = np.float32((np.float64(v0) + np.float64(v1)) * 0.5)
    if thr >= v1:
        thr = v0
    return j, float(thr), float(score[j, i]), True
