import importlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from tinydes.cluster import assign_batch, fit_kmeans
from tinydes.data import (Dataset, apply_standardizer, desk_scale_rows, fit_standardizer,
                          stratified_split)
from tinydes.selection import (build_competence_model, build_dsel, knora_regions,
                               pool_predictions)
from tinydes.trees import ClassifierPool, generate_pool

from tree_oracle import predict_tree


def make_blobs(n_per_class=120, n_features=12, n_classes=4, seed=0, spread=1.0):
    """Gaussian class blobs; learnable but not trivially separable."""
    rng = np.random.RandomState(seed)
    centers = rng.randn(n_classes, n_features).astype(np.float32) * 2.5
    feats = np.vstack([
        centers[c] + spread * rng.randn(n_per_class, n_features).astype(np.float32)
        for c in range(n_classes)
    ])
    labels = np.repeat(np.arange(n_classes), n_per_class).astype(np.uint16)
    perm = rng.permutation(feats.shape[0])
    return Dataset(feats[perm], labels[perm], n_classes)


def desk_scale_subset(d, limit, seed):
    """The subset of the full load ``d`` that a load with ``limit`` and
    ``seed`` must give: ``d`` itself when there is no limit or ``d`` fits."""
    rows = desk_scale_rows(d.labels, d.n_classes, limit, seed)
    return d if rows is None else d.subset(rows)


def build_pipeline(data, forests=((6, 6), (4, 3)), k=3, n_acc=6, j=3, seed=17,
                   dsel_fraction=0.5):
    """Train pool + dsel + kmeans + competence model on a dataset; returns a dict."""
    pool_train, dsel_part = stratified_split(data, 1.0 - dsel_fraction, seed)
    s = fit_standardizer(pool_train)
    std_train = Dataset(apply_standardizer(s, pool_train.features),
                        pool_train.labels, data.n_classes)
    pool = generate_pool(std_train, forests, seed=seed + 1)
    dsel = build_dsel(pool, dsel_part, s)
    km = fit_kmeans(dsel.samples, k, seed=seed + 2)
    cm = build_competence_model(dsel, km, min(n_acc, pool.pool_size), j)
    return {"data": data, "pool_train": pool_train, "dsel_part": dsel_part,
            "standardizer": s, "pool": pool, "dsel": dsel, "kmeans": km, "cm": cm}


def pool_of(trees, n_classes):
    """A pool of the given (feature, threshold, jump) trees, built and
    checked by ``ClassifierPool.from_trees``."""
    return ClassifierPool.from_trees(tuple(trees), n_classes)


def leaf(cls):
    """A constant classifier's columns: one leaf of class ``cls``."""
    return [-1], [0.0], [cls]


def per_tree_predictions(pool, X):
    """(labels, visits), [pool_size, n] each, from one ``predict_tree`` walk
    per (classifier, sample) pair: the reference for the pool walk."""
    pairs = [[predict_tree(pool, t, x) for x in X] for t in range(pool.pool_size)]
    out = np.array(pairs, dtype=np.int64).reshape(pool.pool_size, len(X), 2)
    return out[..., 0], out[..., 1]


def shared_inputs(pool, X, dsel=None, k=None, kmeans=None):
    """What crossval computes once per fold and passes to a batch path, in
    the path's argument order: ``knora_regions(dsel, X, k)`` when k is
    given, else the cluster ids ``assign_batch(kmeans, X)``, then
    ``(pool_preds, pool_visits)`` of the pool walk. Splat it after a batch
    call's two leading arguments."""
    mat = np.ascontiguousarray(X, dtype=np.float32)
    queries = knora_regions(dsel, mat, k) if k is not None else assign_batch(kmeans, mat)
    return (queries, *pool_predictions(pool, mat))


@pytest.fixture(scope="session")
def blob_data():
    return make_blobs()


@pytest.fixture(scope="session")
def pipeline(blob_data):
    return build_pipeline(blob_data)


def mnist_paths():
    """Locate the MNIST IDX pair, if present. Returns (images, labels) or None."""
    candidates = []
    env = os.environ.get("TINYDES_MNIST_DIR")
    if env:
        candidates.append(Path(env))
    here = Path(__file__).resolve().parent
    candidates += [here / "data" / "mnist", here.parent / "data" / "mnist"]
    names = [("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
             ("train-images.idx3-ubyte", "train-labels.idx1-ubyte"),
             ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz")]
    for base in candidates:
        for img, lab in names:
            if (base / img).exists() and (base / lab).exists():
                return str(base / img), str(base / lab)
    return None


PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def import_perfbench(name: str):
    """A module of the benchmark harness, imported with ``perfbench`` on the
    path only while it and its own imports load, as
    ``test_tracer_contract`` imports ``spans``. Nothing in it is changed."""
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


ACCEPTANCE_LINES = []


def record_criterion(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"[{status}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def record_skip(name: str, reason: str):
    ACCEPTANCE_LINES.append(f"[SKIP] {name} -- {reason}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
