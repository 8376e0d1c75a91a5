"""Dataset ingestion (IDX and CSV), standardization, splits and fold plans.

Features are float32 matrices, labels are uint16 class ids. Pixel bytes are
widened to float without /255 scaling; the standardizer owns all scaling.
"""

from __future__ import annotations

import csv
import gzip
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from ._rng import SplitMix64, derive_seed
from .errors import FormatError, IoError, ShapeError, StratificationError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Flattened feature matrix with contiguous integer class labels."""

    features: np.ndarray  # float32 [n_samples, n_features]
    labels: np.ndarray  # uint16 [n_samples]
    n_classes: int
    feature_names: list[str] | None = None
    label_values: list | None = None  # original label per contiguous id (CSV)

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float32)
        labs = np.asarray(self.labels, dtype=np.uint16)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ShapeError(f"features must be a non-empty 2-D matrix, got shape {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise ShapeError(f"labels shape {labs.shape} does not match {feats.shape[0]} samples")
        if not np.isfinite(feats).all():
            raise FormatError("features contain NaN or Inf")
        if labs.size and int(labs.max()) >= self.n_classes:
            raise FormatError(f"label {int(labs.max())} >= n_classes {self.n_classes}")
        feats.flags.writeable = False
        labs.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @cached_property
    def rank_codes(self) -> np.ndarray:
        """Per-feature dense ranks of ``features`` (see ``_kernels.rank_codes``),
        the split-search sort keys. Computed once; features are read-only."""
        return _kernels.rank_codes(self.features)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.n_classes,
                       self.feature_names, self.label_values)


@dataclass(frozen=True)
class Standardizer:
    """Per-feature centering/scaling statistics fitted on training data only."""

    mean: np.ndarray  # float32 [n_features]
    inv_std: np.ndarray  # float32 [n_features]

    def __post_init__(self):
        m = np.ascontiguousarray(self.mean, dtype=np.float32)
        s = np.ascontiguousarray(self.inv_std, dtype=np.float32)
        if m.ndim != 1 or m.shape != s.shape:
            raise ShapeError("mean and inv_std must be 1-D vectors of equal length")
        if not (s > 0).all():
            raise ShapeError("inv_std must be strictly positive")
        m.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "inv_std", s)

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class FoldPlan:
    """Stratified repeated k-fold assignments, one fold id per sample per repeat."""

    n_splits: int
    n_repeats: int
    seed: int
    assignments: np.ndarray  # uint16 [n_repeats, n_samples]

    def train_test_indices(self, repeat: int, fold: int):
        a = self.assignments[repeat]
        test = np.nonzero(a == fold)[0]
        train = np.nonzero(a != fold)[0]
        return train, test

    def iter_folds(self):
        for r in range(self.n_repeats):
            for f in range(self.n_splits):
                train, test = self.train_test_indices(r, f)
                yield r, f, train, test


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated IDX file: expected {n} bytes for {what}, got {len(buf)}")
    return buf


def _open_maybe_gz(path):
    p = str(path)
    try:
        if p.endswith(".gz"):
            return gzip.open(p, "rb")
        return open(p, "rb")
    except OSError as exc:
        raise IoError(f"cannot open {p}: {exc}") from exc


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair (the MNIST family layout)."""
    with _open_maybe_gz(images_path) as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header"))
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(f"bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
        pixels = _read_exact(f, count * rows * cols, "pixel data")
    with _open_maybe_gz(labels_path) as f:
        magic, n_labels = struct.unpack(">II", _read_exact(f, 8, "label header"))
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(f"bad label magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}")
        raw_labels = _read_exact(f, n_labels, "label data")
    if count != n_labels:
        raise FormatError(f"image count {count} != label count {n_labels}")
    if count < 1:
        raise FormatError("IDX pair contains no samples")
    feats = np.frombuffer(pixels, dtype=np.uint8).astype(np.float32).reshape(count, rows * cols)
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.uint16)
    return Dataset(feats, labels, int(labels.max()) + 1)


def load_csv(path, label_column) -> Dataset:
    """Load a rectangular numeric CSV; labels re-encoded to contiguous ids.

    ``label_column`` is a header name or a 0-based column index. An optional
    header row is detected by non-numeric cells in the first row.
    """
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = [row for row in csv.reader(f) if row]
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    if not rows:
        raise FormatError(f"empty CSV file: {path}")

    def _numeric(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    header = None
    if not all(_numeric(c) for c in rows[0]):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise FormatError(f"CSV has a header but no data rows: {path}")

    width = len(rows[0])
    if isinstance(label_column, str):
        if header is None or label_column not in header:
            raise FormatError(f"label column {label_column!r} not found in CSV header")
        label_idx = header.index(label_column)
    else:
        label_idx = int(label_column)
        if label_idx < 0:
            label_idx += width
    if not (0 <= label_idx < width):
        raise FormatError(f"label column index {label_column} out of range for {width} columns")

    feats = np.empty((len(rows), width - 1), dtype=np.float32)
    raw_labels = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise FormatError(f"ragged CSV: row {i} has {len(row)} cells, expected {width}")
        col = 0
        for j, cell in enumerate(rows[i]):
            if j == label_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                feats[i, col] = float(cell)
            except ValueError:
                raise FormatError(f"non-numeric feature cell {cell!r} at row {i}, column {j}") from None
            col += 1
    values = sorted(set(raw_labels), key=lambda v: (float(v) if _numeric(v) else float("inf"), v))
    mapping = {v: i for i, v in enumerate(values)}
    labels = np.array([mapping[v] for v in raw_labels], dtype=np.uint16)
    names = None
    if header is not None:
        names = [h for j, h in enumerate(header) if j != label_idx]
    return Dataset(feats, labels, len(values), names, list(values))


def fit_standardizer(train: Dataset) -> Standardizer:
    """Per-feature mean and 1/sigma (population std); constant features get inv_std=1."""
    feats = train.features
    mean = feats.mean(axis=0, dtype=np.float64)
    var = np.square(feats - mean.astype(np.float32)).mean(axis=0, dtype=np.float64)
    std = np.sqrt(var)
    inv = np.where(std > 0, 1.0 / np.where(std > 0, std, 1.0), 1.0)
    return Standardizer(mean.astype(np.float32), inv.astype(np.float32))


def apply_standardizer(s: Standardizer, x) -> np.ndarray:
    """(x - mean) * inv_std in float32; accepts a vector or a matrix. Finite
    values whose result leaves float32 saturate to +-inf, as in the engine."""
    arr = np.asarray(x, dtype=np.float32)
    if arr.shape[-1] != s.n_features:
        raise ShapeError(f"expected {s.n_features} features, got {arr.shape[-1]}")
    with np.errstate(over="ignore"):
        return (arr - s.mean) * s.inv_std


def invert_standardizer(s: Standardizer, z) -> np.ndarray:
    """Inverse of :func:`apply_standardizer` (used by round-trip checks)."""
    arr = np.asarray(z, dtype=np.float32)
    if arr.shape[-1] != s.n_features:
        raise ShapeError(f"expected {s.n_features} features, got {arr.shape[-1]}")
    return arr / s.inv_std + s.mean


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def stratified_indices(d: Dataset, fraction: float, seed: int) -> np.ndarray:
    """Ascending row indices of the first part of :func:`stratified_split`:
    round-half-up(fraction * class_count) seeded picks of each class."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    first_sel = []
    for cls in range(d.n_classes):
        idx = np.nonzero(d.labels == cls)[0]
        if idx.size == 0:
            continue
        if idx.size < 2:
            raise StratificationError(f"class {cls} has {idx.size} sample(s); need >= 2 to split")
        take = min(_round_half_up(fraction * idx.size), idx.size)
        rng = SplitMix64(derive_seed(seed, cls))
        perm = idx.copy()
        rng.shuffle(perm)
        first_sel.append(perm[:take])
    return np.sort(np.concatenate(first_sel)) if first_sel else np.empty(0, dtype=np.int64)


def stratified_split(d: Dataset, fraction: float, seed: int):
    """Split into two class-stratified parts; the first receives
    round-half-up(fraction * class_count) samples of each class."""
    first = stratified_indices(d, fraction, seed)
    if first.size in (0, d.n_samples):
        counts = np.bincount(d.labels, minlength=d.n_classes).tolist()
        raise StratificationError(
            f"fraction {fraction} of class counts {counts} leaves a part with no samples")
    mask = np.zeros(d.n_samples, dtype=bool)
    mask[first] = True
    second = np.nonzero(~mask)[0]
    return d.subset(first), d.subset(second)


def make_fold_plan(d: Dataset, n_splits: int, n_repeats: int, seed: int) -> FoldPlan:
    """Repeated stratified k-fold assignment.

    Per repeat, each class is dealt base = count // n_splits samples per fold
    and the remainder goes to the currently lightest folds, so per-class and
    total fold sizes both stay within one sample of proportional.
    """
    if n_splits < 2:
        raise ValueError(f"n_splits must be >= 2, got {n_splits}")
    counts = np.bincount(d.labels, minlength=d.n_classes)
    for cls in range(d.n_classes):
        if 0 < counts[cls] < n_splits:
            raise StratificationError(
                f"class {cls} has {counts[cls]} samples, fewer than n_splits={n_splits}")
    assignments = np.empty((n_repeats, d.n_samples), dtype=np.uint16)
    class_order = np.argsort(-counts, kind="stable")  # big classes placed first
    for r in range(n_repeats):
        rep_seed = derive_seed(seed, r)
        loads = np.zeros(n_splits, dtype=np.int64)
        for cls in class_order:
            idx = np.nonzero(d.labels == cls)[0]
            if idx.size == 0:
                continue
            rng = SplitMix64(derive_seed(rep_seed, int(cls) + 1))
            perm = idx.copy()
            rng.shuffle(perm)
            base = idx.size // n_splits
            extra = idx.size % n_splits
            fold_rank = np.arange(n_splits)
            rng.shuffle(fold_rank)
            order = np.lexsort((fold_rank, loads))
            quota = np.full(n_splits, base, dtype=np.int64)
            quota[order[:extra]] += 1
            start = 0
            for fold in range(n_splits):
                assignments[r, perm[start : start + quota[fold]]] = fold
                start += quota[fold]
            loads += quota
    return FoldPlan(n_splits, n_repeats, seed, assignments)
