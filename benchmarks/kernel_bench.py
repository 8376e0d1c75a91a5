# Times the pure-numpy kernels, and the numba kernels beside them when numba
# is installed, on synthetic MNIST-shaped data.
# Run:  PYTHONPATH=src python benchmarks/kernel_bench.py
#
# Representative results (numba 0.66, numpy 2.2, one desktop core):
#
#   best_split      30000x28           numba  88 ms    numpy 300 ms (*)
#   tree_walk       depth-10, 30000    numba   2 ms    numpy   8 ms
#   assign_clusters 24000x784, k=5     numba  53 ms    numpy 208 ms
#
# (*) Measured with the earlier per-column numpy split loop. On a 2-vCPU
#     Intel Xeon host with numpy 2.4 and Python 3.11, that loop takes about
#     310 ms on this input, the all-columns kernel sorting float values about
#     150 ms, and the current kernel sorting rank codes about 66 ms.
#
# Numpy backend alone (2-vCPU Intel Xeon, numpy 2.4, Python 3.11, BLAS and
# OpenMP pinned to one thread):
#
#   best_split      30000x28, uint16 keys    66 ms   float-value sort: 150 ms
#   best_split      30000x28 pixels, uint8   53 ms   float-value sort: 128 ms
#   rank_codes      1250x784 pixels          43 ms   once per pool
#   sample_sorted_rows  128 x (28 of 784)   0.36 ms  128 per-node draws: 4.6 ms
#   tree_walk       depth-10, 30000          22 ms
#   assign_clusters 24000x784, k=5          291 ms
#   pairwise_sqdist 5592x3000x64            180 ms   one KNORA distance chunk;
#                                                    four-temporary form: 250 ms
#   k_nearest       k=7 of 3000             179 ms   stable argsort top-7: 1467 ms
#   knora_regions   6000 queries, k=7       354 ms   one float64 fold, 2 chunks
#   load_tiny       31 KB model, J=5       0.13 ms
#   tiny_infer      5000 probes             169 ms   numpy-scalar walk: 281 ms

import time

import numpy as np

from tinydes import _kernels
from tinydes._kernels import (_assign_clusters_np, _best_split_np,
                              _pairwise_sqdist_np, _tree_walk_np, rank_codes)
from tinydes._rng import SplitMix64
from tinydes.data import Dataset
from tinydes.selection import Dsel, _k_nearest, knora_regions
from tinydes.tinyformat import export_tiny, load_tiny
from tinydes.trees import ForestSpec, PoolConfig, generate_pool

NUMBA = _kernels.BACKEND == "numba"


def bench(label, fn, reps=5, numba_only=False):
    if numba_only and not NUMBA:
        print(f"{label:<44} {'skipped (no numba)':>13}")
        return None
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
keys = rank_codes(sub)

print("== split search (30000 samples x 28 candidate features) ==")
bench("best_split numba", lambda: _kernels._best_split_nb(sub, y, classes),
      numba_only=True)
bench("best_split numpy (uint16 keys)", lambda: _best_split_np(sub, y, classes, keys))
px = rng.randint(0, 256, (30000, 28)).astype(np.float32)
px_keys = rank_codes(px)
bench("best_split numpy, pixels (uint8 keys)",
      lambda: _best_split_np(px, y, classes, px_keys))

# One pixels784 pool's training rows, and one block of train_tree's
# candidate feature subsets.
print("== pool set-up (1250 x 784 pixels; 128 subsets of 28 of 784) ==")
pool_px = rng.randint(0, 256, (1250, 784)).astype(np.float32)
bench("rank_codes", lambda: rank_codes(pool_px))
stream = SplitMix64(5)
bench("sample_sorted_rows", lambda: stream.sample_sorted_rows(784, 28, 128))

print("== batch tree walk (one depth-10 tree, 30000 samples) ==")
data = Dataset(X[:4000], y[:4000].astype(np.uint16), classes)
pool = generate_pool(data, PoolConfig((ForestSpec(1, 10),)), seed=3)
tree = pool.trees[0]
bench("tree_walk numba", lambda: _kernels._tree_walk_nb(
    tree.feature, tree.threshold, tree.jump, X), numba_only=True)
bench("tree_walk numpy", lambda: _tree_walk_np(
    tree.feature, tree.threshold, tree.jump, X))

print("== cluster assignment (24000 x 784, k=5) ==")
C = rng.rand(5, f).astype(np.float32)
Xa = X[:24000]
bench("assign_clusters numba", lambda: _kernels._assign_clusters_nb(Xa, C),
      numba_only=True)
bench("assign_clusters numpy", lambda: _assign_clusters_np(Xa, C))

# One chunk of crossval-float64's KNORA search: (1 << 24) // 3000 query rows;
# knora_regions runs one fold's 6000 test rows, in two chunks.
print("== KNORA region search (5592 x 3000 x 64, k=7) ==")
Qk = rng.randn(5592, 64).astype(np.float32)
Dk = rng.randn(3000, 64).astype(np.float32)
d2 = _pairwise_sqdist_np(Qk, Dk)
bench("pairwise_sqdist numpy", lambda: _pairwise_sqdist_np(Qk, Dk), reps=3)
bench("k_nearest (k=7)", lambda: _k_nearest(d2, 7), reps=3)
bench("stable argsort top-7 (full sort)",
      lambda: np.argsort(d2, axis=1, kind="stable")[:, :7], reps=3)
del d2
Qf = rng.randn(6000, 64).astype(np.float32)
dsel_k = Dsel(Dk, np.zeros(3000, np.uint16), np.zeros((1, 3000), bool))
bench("knora_regions (6000 queries, k=7)", lambda: knora_regions(dsel_k, Qf, 7), reps=3)

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
print(f"== compact engine ({len(blob)}-byte model; 5000 probes) ==")


def run_engine():
    for i in range(probes.shape[0]):
        engine.predict(probes[i])


bench("load_tiny", lambda: load_tiny(blob), reps=50)
bench("tiny_infer (5000 probes)", run_engine, reps=3)
