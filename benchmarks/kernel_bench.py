# Times the numba kernels against the pure-numpy fallbacks on synthetic
# MNIST-shaped data. Run:  python benchmarks/kernel_bench.py
#
# Representative results (numba 0.66, numpy 2.2, one desktop core):
#
#   best_split      30000x28           numba  88 ms    numpy 300 ms (*)
#   tree_walk       depth-10, 30000    numba   2 ms    numpy   8 ms
#   assign_clusters 24000x784, k=5     numba  53 ms    numpy 208 ms
#   tiny_infer      5000 probes        numba  42 ms
#
# (*) Measured with the earlier per-column numpy split loop. On a 2-vCPU
#     Intel Xeon host with numpy 2.4 and Python 3.11, that loop takes about
#     310 ms on this input and the current all-columns kernel about 130 ms.

import time

import numpy as np

from tinydes import _kernels
from tinydes._kernels import (_assign_clusters_np, _best_split_np,
                              _tree_walk_np)
from tinydes.data import Dataset
from tinydes.tinyformat import export_tiny, load_tiny
from tinydes.trees import ForestSpec, PoolConfig, generate_pool

if _kernels.BACKEND != "numba":
    raise SystemExit("run this with the numba backend available "
                     "(unset TINYDES_BACKEND)")


def bench(label, fn, reps=5):
    fn()  # warmup / jit compile
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    dt = (time.perf_counter() - t0) / reps
    print(f"{label:<44} {dt * 1e3:10.2f} ms")
    return dt


rng = np.random.RandomState(0)

n, f, classes = 30000, 784, 10
X = rng.rand(n, f).astype(np.float32)
y = rng.randint(0, classes, n).astype(np.int64)
sub = np.ascontiguousarray(X[:, :28])

print("== split search (30000 samples x 28 candidate features) ==")
bench("best_split numba", lambda: _kernels._best_split_nb(sub, y, classes))
bench("best_split numpy", lambda: _best_split_np(sub, y, classes))

print("== batch tree walk (one depth-10 tree, 30000 samples) ==")
data = Dataset(X[:4000], y[:4000].astype(np.uint16), classes)
pool = generate_pool(data, PoolConfig((ForestSpec(1, 10),)), seed=3)
tree = pool.trees[0]
bench("tree_walk numba", lambda: _kernels._tree_walk_nb(
    tree.feature, tree.threshold, tree.jump, X))
bench("tree_walk numpy", lambda: _tree_walk_np(
    tree.feature, tree.threshold, tree.jump, X))

print("== cluster assignment (24000 x 784, k=5) ==")
C = rng.rand(5, f).astype(np.float32)
Xa = X[:24000]
bench("assign_clusters numba", lambda: _kernels._assign_clusters_nb(Xa, C))
bench("assign_clusters numpy", lambda: _assign_clusters_np(Xa, C))

print("== compact-engine inference (5000 probes) ==")
from tinydes.cluster import fit_kmeans
from tinydes.data import fit_standardizer, apply_standardizer
from tinydes.selection import build_competence_model, build_dsel

small = Dataset(X[:2000], y[:2000].astype(np.uint16), classes)
s = fit_standardizer(small)
std = Dataset(apply_standardizer(s, small.features), small.labels, classes)
pool = generate_pool(std, PoolConfig((ForestSpec(10, 8),)), seed=1)
dsel = build_dsel(pool, Dataset(X[2000:4000], y[2000:4000].astype(np.uint16), classes), s)
km = fit_kmeans(dsel.samples, 5, seed=2)
cm = build_competence_model(dsel, km, 8, 5)
blob, _ = export_tiny(s, cm, pool)
engine = load_tiny(blob)
probes = X[:5000]


def run_engine():
    for i in range(probes.shape[0]):
        engine.predict(probes[i])


bench("tiny_infer numba (5000 probes)", run_engine, reps=3)

import os

print()
print("re-run with TINYDES_BACKEND=numpy to time the fallback engine "
      f"(current backend: {_kernels.BACKEND}, pid {os.getpid()})")
