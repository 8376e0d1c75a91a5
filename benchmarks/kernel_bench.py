# Times the numpy kernels on synthetic MNIST-shaped data, with BLAS and
# OpenMP pinned to one thread before numpy is imported, as perfbench/run.py
# pins them; the first line printed shows the settings.
# Run:  PYTHONPATH=src python benchmarks/kernel_bench.py
#
# Every figure below is a raw wall time from one session, with no
# calibration unit, and the rows were recorded in different sessions: the
# same host has moved 2-3x between sessions. Figures do not compare across
# sessions, so time both sides of a change in the same session.
#
# 2-vCPU Intel Xeon, numpy 2.4, Python 3.11, BLAS and OpenMP pinned to one
# thread:
#
#   best_split      30000x28, uint16 keys    31 ms   put-scatter form: 40 ms
#                   30000x28, uint32 keys    51 ms   int64 composites; 54 ms
#   best_split      30000x28 pixels, uint8   37 ms   put-scatter form: 44 ms
#   best_split      n=10, uint8, m=28        43 us   int32 argsort rule: 40 us
#                   n=10, uint16, m=8        36 us                       30 us
#                   n=26, uint8, m=28        48 us                       50 us
#                   n=26, uint16, m=8        42 us                       36 us
#   best_split      n=60, uint8, m=28        90 us   put-scatter form: 100 us
#                   n=60, uint16, m=8        66 us                    74 us
#                   n=300, uint8, m=28      283 us                   336 us
#                   n=300, uint16, m=8      120 us                   140 us
#   rank_codes      1250x784 pixels          27 ms   once per pool; argsort and
#                                                    a second sort: 39 ms
#   sample_sorted_rows  128 x (28 of 784)   0.36 ms  128 per-node draws: 4.6 ms
#   generate_pool   1250x784 pixel fold     455 ms   grown trees as a second
#                                                    record, checked only in
#                                                    the pool: 441 ms
#   fit_kmeans      1250x784 pixel fold      27 ms   k=5, 3 iterations; every
#                                                    distance in every
#                                                    assignment: 41 ms
#   tree_walk       one 2^16-pair block      21 ms   45-tree pool, 784 features
#   pool_predictions  45 trees x 30000     343 ms   every (tree, row) pair, in
#                                                    2^16-pair blocks
#   assign_clusters 24000x784, k=5          115 ms   a gathered copy of every
#                                                    block of rows: 144 ms
#   sqdist_table    1250x784, k=5, 35 % of  2.1 ms   a new array per gathered
#                   the cells (bounded step)         block: 2.3 ms
#   pairwise_sqdist 349x3000x64             6.1 ms   one KNORA distance block
#   k_nearest       k=7 of 3000, 349 rows   6.1 ms   stable argsort top-7: 85 ms
#   knora_regions   6000 queries, k=7       197 ms   one float64 fold, 18 blocks
#                                                    of 2^20 cells; 2 blocks of
#                                                    2^24 cells: 304 ms
#   load_csv        12000x64 floats          94 ms   csv.reader and float() per
#                                                    cell: 352 ms
#   load_idx        60000x784 plain IDX      96 ms   the pixel file read whole
#                   pair, image mapped               into a buffer: 119 ms
#   load_idx        its 5000-row limit       11 ms   mapped before too: 11 ms
#   load_tiny       31 KB model, J=5      0.094 ms   allocating the engine's
#                                                    scratch buffers: 0.095 ms
#   load_tiny       108 KB pixels784      0.828 ms   check_nodes over
#                   engine, J=20                     interleaved (start, end)
#                                                    bounds: 0.835 ms
#   tiny_infer      5000 probes              78 ms   writing into buffers
#                                                    kept on the engine: 75 ms
#
# The best_split and generate_pool rows time this script's inputs with
# split_constants built once, as train_tree builds them once per tree. They
# are medians of rounds in one process, each round timing this kernel and
# an earlier form in turn: 2000 calls on one small node, five on a
# 30000-row node, three pools. The 30000-row, n=60 and n=300 rows are nine
# rounds against the put-scatter form (a put in place of the third sort,
# int64 prefix sums, aranges built per node). The n=10 and n=26 rows are
# eleven rounds, timed later in one process, against the kernel that sorted
# nodes below 32 rows by a stable int32 argsort of keys and labels and
# scattered 2r+1 back with one put; the single composite rule won 2, 4, 7
# and 2 of 11 rounds on the four small nodes, and 5 of 11 pools (408 ms
# either way in that session).
#
# The generate_pool row is the median of three processes of 11, 15 and 15
# rounds, each round growing this fold's pool with this package and with
# the commit before ``train_tree`` returned a one-tree pool, imported from a
# `git archive` as a second package, the two taking turns to go first. Both
# give the same pool. Each tree now passes ``ClassifierPool.from_trees`` on
# its own, about 130 us for a 173-node tree, or some 6 ms a pool. Process
# medians were 455, 490 and 447 ms against 441, 508 and 437 ms, and this
# package was faster in 10 of 41 rounds.
#
# Each rule forced at every node size, before that small-node rule was
# removed: microseconds per call, the fastest of repeated calls on each of
# three random nodes per size (70 % zero codes for uint8), averaged, the
# rules taking turns call by call; "composite + put" is the composite rule
# with the put in place of the third sort. m = 28 and 8 are the candidate
# counts of 784 and 64 features.
#
#   rows                 10    26    32    60   100   300  1000  3000  30000
#   uint8,  m = 28
#     int32 argsort      53    72   100   158   244   846
#     composite          58    63    74    85   115   279  1225  3811  39955
#     composite + put    56    64    78    92   124   305  1398  4303  43264
#   uint16, m = 8
#     int32 argsort      40    48    55    78   115   329
#     composite          48    51    53    60    70   120   274   858   8224
#     composite + put    47    51    54    61    72   122   303   943   8825
#
# The pixels784 load_tiny row is the median of five processes, each the
# median of fifteen rounds, each round the median of 41 loads by each
# loader, the two taking turns to go first. The other loader, from the
# commit before the end-to-end directory rule, was imported from a
# `git archive` of that commit as a second package; its check_nodes
# accepted overlapping and gapped directories, so it reduced each column
# over (start, end) bounds with a spare entry and dropped the odd segments.
# Per-process medians ranged 0.68-0.97 ms against 0.70-1.01 ms, and the
# current loader was faster in 52 of 75 rounds; check_nodes alone on the
# model's 10 730 nodes took 68.8 against 81.5 us (14 of 15 rounds).
#
# The rank_codes and fit_kmeans rows are medians of nine rounds in one
# process, each round timing the kernel and its previous form in turn (an
# argsort and a second full sort; ``tests/kmeans_oracle.py``). The
# load_tiny and tiny_infer rows are medians of twelve processes per form,
# the forms alternating, each process the median of seven rounds; the
# other form is the engine that kept one probe's standardized copy,
# centroid differences and votes in buffers allocated by load_tiny. In one
# process, eleven alternated rounds of 5000 probes through the two kernels
# gave per-probe p50s of 14.1 and 13.8 us, then 14.8 and 14.8 us: the 3 %
# between processes is within the host's drift. The assign_clusters row
# is the median of fifteen rounds in one process, each round the median of
# five calls of each form, the forms taking turns to go first; the form
# that gathers every block into a new array was slower in all fifteen, and
# both gave the same bits. The sqdist_table row is fifteen such rounds of
# 41 calls, where the earlier form gathered each block into a new array and
# the kernel gathers into its one buffer (take's "raise" mode would fill a
# temporary and copy it: 3.1 ms). The
# knora_regions and load_csv rows are medians of six runs of each form,
# alternated in one process. pool_predictions against one walk per tree on
# the same pool, three alternated processes each: medians 251 and 483 ms,
# with the host's speed varying 1.7x between those runs.
#
# The load_idx rows load datagen.pixel_dataset(1) written as a plain IDX
# pair. They are the medians of three processes of 15 rounds, each round
# loading with this package and with the commit before a full load mapped
# the image file, imported from a `git archive` as a second package, the
# two taking turns to go first; both give the same bits. Process medians
# were 105, 96 and 96 ms against 126, 122 and 119 ms for the full load,
# this package faster in 42 of 45 rounds; with the limit, where both map,
# 13.5, 11.2 and 10.9 ms against 13.0, 11.1 and 11.3 ms (25 of 45).
#
# Block sizes of selection.py, one BLAS thread. WALK_BLOCK_PAIRS: 45 trees
# over 6 000 rows of 64 features took 33 ms in blocks of 2^16 pairs, 36 ms
# in one pass and 97 ms one tree at a time. REGION_CHUNK_CELLS (k = 7):
# 6 000 queries against 3 000 samples of 64 features took a median 226 ms
# at 2^20 cells against 438 ms at 2^24 (128 MiB), and 2 500 against 1 250
# of 784 features took 154 and 155 ms; 2^18-2^22 were swept and 2^20 was
# fastest on the first shape.

import os
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import numpy as np

from tinydes._kernels import (assign_clusters, best_split, pairwise_sqdist, rank_codes,
                              split_constants, sq_norms, sqdist_table, tree_walk)
from tinydes._rng import SplitMix64
from tinydes.cluster import fit_kmeans
from tinydes.data import Dataset, apply_standardizer, fit_standardizer, load_csv, load_idx
from tinydes.selection import (REGION_CHUNK_CELLS, WALK_BLOCK_PAIRS, Dsel, _k_nearest,
                               knora_regions, pool_predictions)
from tinydes.tinyformat import export_tiny, load_tiny
from tinydes.trees import generate_pool


def bench(label, fn, reps=5):
    fn()  # warmup
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    dt = (time.perf_counter() - t0) / reps
    if dt < 1e-3:
        print(f"{label:<44} {dt * 1e6:10.1f} us")
    else:
        print(f"{label:<44} {dt * 1e3:10.2f} ms")
    return dt


def pixel_fold(rng, n, f, classes):
    """Standardized MNIST-like rows: mostly zero pixels, class-dependent ink."""
    labels = rng.randint(0, classes, n)
    template = rng.rand(classes, f) < 0.2
    ink = rng.rand(n, f) < np.where(template[labels], 0.6, 0.05)
    px = np.where(ink, rng.randint(1, 256, (n, f)), 0).astype(np.float32)
    d = Dataset(px, labels.astype(np.uint16), classes)
    return Dataset(apply_standardizer(fit_standardizer(d), px), d.labels, classes)


print("threads: " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
rng = np.random.RandomState(0)

n, f, classes = 30000, 784, 10
X = rng.rand(n, f).astype(np.float32)
y = rng.randint(0, classes, n).astype(np.int64)
sub = np.ascontiguousarray(X[:, :28])
keys = rank_codes(sub)  # (n, m) view of C-contiguous (m, n) codes, as train_tree gathers
totals = np.bincount(y, minlength=classes)
total_sq = int(totals @ totals)
consts = split_constants(n)  # as train_tree builds them, once per tree

print("== split search (30000 samples x 28 candidate features) ==")
bench("best_split (uint16 keys)", lambda: best_split(keys, y, totals, total_sq, consts))
wide = np.ascontiguousarray(keys.T, dtype=np.uint32).T  # int64 composites
bench("best_split (uint32 keys)", lambda: best_split(wide, y, totals, total_sq, consts))
px = rng.randint(0, 256, (30000, 28)).astype(np.float32)
px_keys = rank_codes(px)
bench("best_split, pixels (uint8 keys)",
      lambda: best_split(px_keys, y, totals, total_sq, consts))

# Small nodes, where most split searches fall: pixel codes (mostly the zero
# code) at pixels784's 28 candidates, continuous codes at float64's 8.
print("== split search, small nodes ==")
srng = np.random.RandomState(1)  # leaves rng's stream to the rows below
for n_rows in (10, 26, 60, 300):
    yn = y[:n_rows].astype(np.uint8)
    tn = np.bincount(yn, minlength=classes)
    tn_sq = int(tn @ tn)
    k8 = np.where(srng.rand(28, n_rows) < 0.7, 0, srng.randint(1, 256, (28, n_rows)))
    k8 = k8.astype(np.uint8)
    k16 = srng.randint(0, 3000, (8, n_rows)).astype(np.uint16)
    cn = split_constants(n_rows)
    bench(f"best_split n={n_rows}, uint8 keys, m=28",
          lambda: best_split(k8.T, yn, tn, tn_sq, cn), reps=2000)
    bench(f"best_split n={n_rows}, uint16 keys, m=8",
          lambda: best_split(k16.T, yn, tn, tn_sq, cn), reps=2000)

# One pixels784 pool's training rows, one block of train_tree's candidate
# feature subsets, and the default 45-tree pool grown on a pixel-like fold
# of that shape.
print("== pool set-up (1250 x 784 pixels; 128 subsets of 28 of 784) ==")
pool_px = rng.randint(0, 256, (1250, 784)).astype(np.float32)
bench("rank_codes", lambda: rank_codes(pool_px))
stream = SplitMix64(5)
bench("sample_sorted_rows", lambda: stream.sample_sorted_rows(784, 28, 128))
fold = pixel_fold(srng, 1250, 784, classes)
bench("generate_pool (45 trees, pixel fold)", lambda: generate_pool(fold, seed=7), reps=3)
# one fold's DES-Clustering regions, on a DSEL of the same shape
bench("fit_kmeans (pixel fold, k=5)", lambda: fit_kmeans(fold.features, 5, seed=2), reps=3)

# One default pool (25 trees of depth 10, 20 of depth 5) walked over every
# (tree, row) pair: one block of pairs, and all of them as pool_predictions
# walks them, block by block.
print("== pool tree walk (45 trees, 30000 samples) ==")
data = Dataset(X[:4000], y[:4000].astype(np.uint16), classes)
pool = generate_pool(data, seed=3)
pairs = np.arange(WALK_BLOCK_PAIRS)
roots, rows = pool.first[pairs // n], pairs % n
bench("tree_walk (one block of 2^16 pairs)",
      lambda: tree_walk(pool.feature, pool.threshold, pool.jump, roots, rows, X))
bench("pool_predictions (45 x 30000 pairs)", lambda: pool_predictions(pool, X), reps=3)

print("== cluster assignment (24000 x 784, k=5) ==")
C = rng.rand(5, f).astype(np.float32)
Xa = X[:24000]
bench("assign_clusters", lambda: assign_clusters(Xa, C))
# A bounded Lloyd step's second table on a pixel fold: 35 % of the cells.
todo = np.random.RandomState(2).rand(5, 1250) < 0.35
table = np.full((5, 1250), np.inf)
bench("sqdist_table (1250 x 784, k=5, 35 % of cells)",
      lambda: sqdist_table(fold.features, fold.features[:5], todo, table))

# One block of crossval-float64's KNORA search: REGION_CHUNK_CELLS // 3000
# query rows; knora_regions runs one fold's 6000 test rows, in 18 blocks.
block = REGION_CHUNK_CELLS // 3000
print(f"== KNORA region search ({block} x 3000 x 64, k=7) ==")
Qk = rng.randn(block, 64).astype(np.float32)
Dk = rng.randn(3000, 64).astype(np.float32)
ddk = sq_norms(Dk.astype(np.float64))  # as knora_regions sums them, once per search
d2 = pairwise_sqdist(Qk, Dk, ddk)
bench("pairwise_sqdist", lambda: pairwise_sqdist(Qk, Dk, ddk), reps=3)
bench("k_nearest (k=7)", lambda: _k_nearest(d2, 7), reps=3)
bench("stable argsort top-7 (full sort)",
      lambda: np.argsort(d2, axis=1, kind="stable")[:, :7], reps=3)
del d2
Qf = rng.randn(6000, 64).astype(np.float32)
dsel_k = Dsel(Dk, np.zeros(3000, np.uint16), np.zeros((1, 3000), bool))
bench("knora_regions (6000 queries, k=7)", lambda: knora_regions(dsel_k, Qf, 7), reps=3)

# crossval-float64's input: 12 000 rows of 64 float32 features written with
# %.9g, plus a header and an integer label column.
print("== CSV ingestion (12000 x 64 floats) ==")
with tempfile.TemporaryDirectory() as tmp:
    csv_path = Path(tmp) / "float64.csv"
    Xc = rng.randn(12000, 64).astype(np.float32)
    csv_path.write_text(",".join(f"f{j}" for j in range(64)) + ",label\n" + "".join(
        ",".join("%.9g" % v for v in row) + f",{i % 10}\n" for i, row in enumerate(Xc.tolist())))
    bench("load_csv", lambda: load_csv(csv_path, "label"), reps=3)

from tinydes.selection import build_competence_model, build_dsel

small = Dataset(X[:2000], y[:2000].astype(np.uint16), classes)
s = fit_standardizer(small)
std = Dataset(apply_standardizer(s, small.features), small.labels, classes)
pool = generate_pool(std, ((10, 8),), seed=1)
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

# The engine that perfbench's crossval-pixels784 workload serves and loads
# (45 trees, k=5, J=20), trained as perfbench/workloads.py trains it on the
# seed-1 pixels.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import datagen
import workloads
import tinydes

pixels, pixel_labels = datagen.pixel_dataset(1)
n_train = workloads.fold_train_rows(workloads.DESK_SCALE_ROWS)
pixel_rows = pixels[:n_train + workloads.ENGINE_PROBES].astype(np.float32)
pixel_blob = workloads.train_engine(tinydes, pixel_rows, pixel_labels, n_train, 1)[0]
print(f"== compact engine, pixels784 workload ({len(pixel_blob)}-byte model) ==")
bench("load_tiny", lambda: load_tiny(pixel_blob), reps=50)

# pixels784's source file: the same 60 000 seed-1 pixels written as a plain
# IDX pair, loaded whole and with the desk-scale limit. Both map the image.
print("== IDX ingestion (60000 x 784 pixels, plain files) ==")
with tempfile.TemporaryDirectory() as tmp:
    images, label_file = Path(tmp) / "images-idx3-ubyte", Path(tmp) / "labels-idx1-ubyte"
    datagen.write_idx_pair(pixels, pixel_labels, images, label_file)
    bench("load_idx (60000 rows)", lambda: load_idx(images, label_file), reps=3)
    bench("load_idx (5000-row limit)",
          lambda: load_idx(images, label_file, workloads.DESK_SCALE_ROWS, seed=1), reps=3)
