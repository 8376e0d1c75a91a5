"""Workload set-up: seeded inputs on disk, the crossval command line, and
the deployable engine with its reference answers.

Both workloads run ``tinydes crossval`` and serve a ``.tdes`` engine. The
set-up trains that engine (45 trees, k=5, J=20) through the same public
pipeline as ``tinydes train`` and records, for every held-out probe, the
``(label, cost)`` that ``des_clustering_predict`` gives; the timed engine
phase compares every engine answer against it. The engine trains on as many
rows as one crossval fold does, split into pool and DSEL rows the same way,
so it has the shape of the J=20 model that ``des_j20_*`` describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import datagen
from checks import sha256

ENGINE_PROBES = 1000  # held-out probes per pass; p90 then has 100 samples beyond it
ENGINE_K = 5
ENGINE_J = 20
N_SPLITS = 2  # the fewest folds crossval accepts; one call still trains two pools
DSEL_FRACTION = 0.5  # crossval's default
DESK_SCALE_ROWS = 5000  # crossval's default desk-scale subset
METHODS = ("single_best", "static_selection", "knora_u", "knora_e", "des_clustering", "oracle")


@dataclass
class Prepared:
    crossval_argv: list
    report_dir: Path
    input_sha256: str
    model: bytes
    engine: object  # the loaded TinyEngine
    probes: list  # raw float32 rows
    probe_labels: np.ndarray
    reference: list  # (label, cost) per probe from des_clustering_predict
    crossval_rows: int  # samples crossval uses after any desk-scale subset
    features: np.ndarray  # the generated input, for descriptors


def fold_train_rows(crossval_rows: int) -> int:
    """Training rows of one crossval fold: all but the fold's test rows."""
    return crossval_rows - crossval_rows // N_SPLITS


def train_engine(td, features, labels, n_train: int, seed: int):
    """Train, export and load the deployable model on the first ``n_train``
    rows; return (model bytes, engine, reference (label, cost) per probe,
    probes, probe labels). The probes are the rows that follow."""
    data = td.Dataset(features[:n_train], labels[:n_train], datagen.N_CLASSES)
    probes = features[n_train:n_train + ENGINE_PROBES]
    pool_part, dsel_part = td.stratified_split(data, 1.0 - DSEL_FRACTION, seed + 1)
    s = td.fit_standardizer(pool_part)
    std_pool = td.Dataset(td.apply_standardizer(s, pool_part.features), pool_part.labels,
                          data.n_classes)
    pool = td.generate_pool(std_pool, seed=seed + 2)
    dsel = td.build_dsel(pool, dsel_part, s)
    km = td.fit_kmeans(dsel.samples, ENGINE_K, seed + 3)
    cm = td.build_competence_model(dsel, km, -(-pool.pool_size // 2), ENGINE_J)
    blob, _ = td.export_tiny(s, cm, pool)
    engine = td.load_tiny(blob)
    std_probes = td.apply_standardizer(s, probes)
    reference = []
    for x in std_probes:
        r = td.des_clustering_predict(cm, pool, x)
        reference.append((int(r.label), int(r.cost)))
    rows = list(np.ascontiguousarray(probes, dtype=np.float32))
    return blob, engine, reference, rows, labels[n_train:n_train + ENGINE_PROBES]


def setup_pixels784(td, seed: int, work: Path):
    pixels, labels = datagen.pixel_dataset(seed)
    images, label_file = work / "pixels-images-idx3-ubyte", work / "pixels-labels-idx1-ubyte"
    datagen.write_idx_pair(pixels, labels, images, label_file)
    digest = sha256(images.read_bytes() + label_file.read_bytes())
    rows = min(pixels.shape[0], DESK_SCALE_ROWS)
    n_train = fold_train_rows(rows)
    features = pixels[:n_train + ENGINE_PROBES].astype(np.float32)
    blob, engine, ref, probes, probe_labels = train_engine(td, features, labels, n_train, seed)
    out = work / "crossval"
    argv = ["crossval", "--dataset", str(images), "--labels", str(label_file),
            "--name", "pixels784", "--splits", str(N_SPLITS), "--repeats", "1",
            "--seed", str(seed), "--out", str(out)]
    return Prepared(argv, out, digest, blob, engine, probes, probe_labels, ref, rows, pixels)


def setup_float64(td, seed: int, work: Path):
    features, labels = datagen.float_dataset(seed)
    path = work / "float64.csv"
    path.write_text(datagen.csv_text(features, labels), encoding="utf-8")
    digest = sha256(path.read_bytes())
    n_train = fold_train_rows(features.shape[0])
    blob, engine, ref, probes, probe_labels = train_engine(td, features, labels, n_train, seed)
    out = work / "crossval"
    argv = ["crossval", "--dataset", str(path), "--label-column", "label",
            "--name", "float64", "--full"]
    for m in METHODS:
        argv += ["--method", m]
    argv += ["--splits", str(N_SPLITS), "--repeats", "1", "--seed", str(seed), "--out", str(out)]
    return Prepared(argv, out, digest, blob, engine, probes, probe_labels, ref,
                    features.shape[0], features)


SETUPS = {
    "crossval-pixels784": setup_pixels784,
    "crossval-float64": setup_float64,
}


def descriptors(prep: Prepared) -> dict:
    """Input shape and value structure, plus the per-fold sizes crossval sees."""
    d = datagen.describe(prep.features)
    test = prep.crossval_rows // N_SPLITS
    d.update({
        "crossval_rows": prep.crossval_rows,
        "fold_test_rows": test,
        "fold_dsel_rows": round((prep.crossval_rows - test) * DSEL_FRACTION),
        "engine_train_rows": fold_train_rows(prep.crossval_rows),
        "engine_probes": len(prep.probes),
        "engine_model_bytes": len(prep.model),
    })
    return d
