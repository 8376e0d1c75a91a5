"""Dataset ingestion (IDX and CSV), standardization, splits and fold plans.

Features are float32 matrices, labels are uint16 class ids. Pixel bytes are
widened to float without /255 scaling; the standardizer owns all scaling.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
import mmap
import os
import stat
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from ._rng import SplitMix64, derive_seed
from .errors import CapacityError, FormatError, IoError, ShapeError, StratificationError

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


IDX_READ_CHUNK = 1 << 20


def _read_exact(f, n: int, what: str) -> bytearray:
    """Exactly ``n`` bytes of ``f``. They are read a chunk at a time into one
    growing buffer, so a forged header that declares more than the file
    holds (up to 2^96 bytes) fails on the bytes present instead of
    requesting a buffer of its size; this serves plain and gzip files alike."""
    buf = bytearray()
    while len(buf) < n:
        part = f.read(min(n - len(buf), IDX_READ_CHUNK))
        if not part:
            raise FormatError(f"truncated IDX file: expected {n} bytes for {what}, got {len(buf)}")
        buf += part
    return buf


def _open_maybe_gz(path):
    p = str(path)
    try:
        if p.endswith(".gz"):
            return gzip.open(p, "rb")
        return open(p, "rb")
    except OSError as exc:
        raise IoError(f"cannot open {p}: {exc}") from exc


def _read_rows(f, offset: int, n_rows: int, width: int, keep) -> np.ndarray:
    """Rows ``keep`` (every row when None) of the uint8 (n_rows, width)
    matrix that starts at ``offset`` in the plain file ``f``, long enough to
    hold it: copied out of a read-only map, which is closed before this
    returns."""
    with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mm:
        matrix = np.frombuffer(mm, np.uint8, n_rows * width, offset).reshape(n_rows, width)
        rows = matrix.copy() if keep is None else matrix[keep]
        del matrix  # the map cannot close while a view exports it
    return rows


def load_idx(images_path, labels_path, limit: int | None = None, seed: int = 0) -> Dataset:
    """Load an IDX image/label file pair (the MNIST family layout).

    Both headers are checked first, and the label file is read whole. With
    a ``limit``, the rows of :func:`desk_scale_rows` are picked from the
    label file, and only those rows are converted to float32 and checked by
    ``Dataset``. A plain image file is mapped, with or without a limit: its
    length is checked against its header and only the kept rows are read.
    A gzip stream or a pipe is read and checked whole. Either way the rows
    are those of the full load's subset, and a short file fails with the
    same message."""
    with _open_maybe_gz(images_path) as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header"))
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(f"bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
        size = count * rows * cols
        # a regular file is mapped; a gzip stream or a pipe is read whole
        st = None if isinstance(f, gzip.GzipFile) else os.fstat(f.fileno())
        mapped = st is not None and stat.S_ISREG(st.st_mode)
        if mapped:
            have = st.st_size - 16
            if have < size:
                raise FormatError(f"truncated IDX file: expected {size} bytes for pixel data, "
                                  f"got {have}")
        else:
            pixels = _read_exact(f, size, "pixel data")
        with _open_maybe_gz(labels_path) as g:
            magic, n_labels = struct.unpack(">II", _read_exact(g, 8, "label header"))
            if magic != IDX_LABEL_MAGIC:
                raise FormatError(f"bad label magic 0x{magic:08x}, "
                                  f"expected 0x{IDX_LABEL_MAGIC:08x}")
            raw_labels = _read_exact(g, n_labels, "label data")
        if count != n_labels:
            raise FormatError(f"image count {count} != label count {n_labels}")
        if count < 1:
            raise FormatError("IDX pair contains no samples")
        labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.uint16)
        n_classes = int(labels.max()) + 1
        keep = desk_scale_rows(labels, n_classes, limit, seed)
        if keep is not None:
            labels = labels[keep]
        if mapped:
            images = _read_rows(f, 16, count, rows * cols, keep)
        else:
            images = np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows * cols)
            if keep is not None:
                images = images[keep]
    return Dataset(images.astype(np.float32), labels, n_classes)


def load_csv(path, label_column, limit: int | None = None, seed: int = 0) -> Dataset:
    """Load a rectangular numeric CSV; labels re-encoded to contiguous ids.

    ``label_column`` is a header name or a 0-based column index. An optional
    header row is detected by non-numeric cells in the first row. Rows are
    split as ``csv.reader`` splits them and feature cells are read as
    ``float()`` reads them; a text without quotes goes through numpy's C
    reader, which gives the same values (see ``_parse_plain``). More distinct
    labels than the u16 class count holds raise ``CapacityError``. With a
    ``limit``, the whole text is parsed and checked, and the rows of
    :func:`desk_scale_rows` are kept, so the load fails where and as the
    full load fails.
    """
    try:
        with open(path, newline="", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"CSV is not UTF-8: {path}: {exc}") from None
    with np.errstate(over="ignore"):  # a cell beyond float32's range stores as inf
        parsed = _parse_plain(text, label_column)
        if parsed is None:
            parsed = _parse_rows([row for row in csv.reader(io.StringIO(text, newline=""))
                                  if row], path, label_column)
    header, label_idx, feats, raw_labels = parsed
    values = sorted(set(raw_labels), key=_label_key)
    if len(values) > 65535:
        raise CapacityError(f"{len(values)} distinct labels exceed the u16 class count limit")
    mapping = {v: i for i, v in enumerate(values)}
    labels = np.array([mapping[v] for v in raw_labels], dtype=np.uint16)
    names = None
    if header is not None:
        names = [h for j, h in enumerate(header) if j != label_idx]
    d = Dataset(feats, labels, len(values), names, list(values))
    keep = desk_scale_rows(labels, d.n_classes, limit, seed)
    return d if keep is None else d.subset(keep)


def _numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _label_key(value: str):
    """Numeric labels by value, then the rest by name. A label that reads as
    NaN sorts by name, since NaN compares unequal to every key."""
    try:
        number = float(value)
    except ValueError:
        return (math.inf, value)
    return (math.inf, value) if math.isnan(number) else (number, value)


def _header(first_row: list[str]) -> list[str] | None:
    """The stripped names of a first row with a non-numeric cell, else None."""
    if all(_numeric(c) for c in first_row):
        return None
    return [c.strip() for c in first_row]


def _label_index(header, width: int, label_column) -> int:
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
    if header is not None and len(header) != width:
        raise FormatError(f"CSV header has {len(header)} names, data rows have {width} cells")
    return label_idx


def _parse_rows(rows: list[list[str]], path, label_column):
    """(header, label index, float32 features, label strings) from the
    non-empty rows of ``csv.reader``, one cell at a time: the reader of every
    text ``_parse_plain`` refuses, and the one that raises the typed errors
    with their row and column."""
    if not rows:
        raise FormatError(f"empty CSV file: {path}")
    header = _header(rows[0])
    if header is not None:
        rows = rows[1:]
        if not rows:
            raise FormatError(f"CSV has a header but no data rows: {path}")
    width = len(rows[0])
    label_idx = _label_index(header, width, label_column)
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
    return header, label_idx, feats, raw_labels


# Quotes, and the ASCII separators that numpy's float parser skips as
# whitespace and ``float()`` rejects. One ``in`` scan per character is far
# cheaper than a regular expression over the text.
_NOT_PLAIN = '"\x1c\x1d\x1e\x1f'


def _parse_plain(text: str, label_column):
    """What ``_parse_rows`` returns, read by numpy's C reader, or None where
    that reader could read the text differently: quotes, the separators
    above, a line longer than ``csv``'s field limit, or any text numpy
    refuses (ragged rows, cells ``float()`` accepts and numpy does not, such
    as ``1_0``). Without quotes, ``csv.reader``'s rows are the text's lines
    split at commas, with CR LF, CR and LF each ending a line and empty
    lines skipped. float64 cells stored as float32 round as ``float()``
    stored into float32 does."""
    if any(c in text for c in _NOT_PLAIN):
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [line for line in text.split("\n") if line]
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = _header(lines[0].split(","))
    if header is not None:
        lines = lines[1:]
        if not lines:
            return None
    width = lines[0].count(",") + 1
    label_idx = _label_index(header, width, label_column)
    raw_labels = []

    def label(cell: str) -> float:
        raw_labels.append(cell.strip())
        return 0.0

    try:
        table = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2,
                           converters={label_idx: label})
    except ValueError:
        return None
    feats = np.delete(table, label_idx, axis=1).astype(np.float32)
    return header, label_idx, feats, raw_labels


def fit_standardizer(train: Dataset) -> Standardizer:
    """Per-feature mean and 1/sigma (population std); constant features get inv_std=1.

    Deviations are squared in float32; a column whose squares overflow that
    (|x - mean| above ~1.8e19) has its variance recomputed in float64.
    """
    feats = train.features
    mean = feats.mean(axis=0, dtype=np.float64)
    with np.errstate(over="ignore"):
        var = np.square(feats - mean.astype(np.float32)).mean(axis=0, dtype=np.float64)
    wide = np.flatnonzero(~np.isfinite(var))
    var[wide] = np.square(feats[:, wide] - mean[wide]).mean(axis=0)
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


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def stratified_indices(labels: np.ndarray, n_classes: int, fraction: float,
                       seed: int) -> np.ndarray:
    """Ascending row indices of the first part of :func:`stratified_split`:
    round-half-up(fraction * class_count) seeded picks of each class."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    first_sel = []
    for cls in range(n_classes):
        idx = np.nonzero(labels == cls)[0]
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


def desk_scale_rows(labels: np.ndarray, n_classes: int, limit: int | None,
                    seed: int) -> np.ndarray | None:
    """The rows of a class-stratified subset of about ``limit`` samples: the
    ``limit / n`` part of :func:`stratified_indices`, or None (every row)
    when there is no limit or the n rows fit within it."""
    n = labels.shape[0]
    if limit is None or n <= limit:
        return None
    return stratified_indices(labels, n_classes, limit / n, seed)


def stratified_split(d: Dataset, fraction: float, seed: int):
    """Split into two class-stratified parts; the first receives
    round-half-up(fraction * class_count) samples of each class."""
    first = stratified_indices(d.labels, d.n_classes, fraction, seed)
    if first.size in (0, d.n_samples):
        counts = np.bincount(d.labels, minlength=d.n_classes).tolist()
        raise StratificationError(
            f"fraction {fraction} of class counts {counts} leaves a part with no samples")
    mask = np.zeros(d.n_samples, dtype=bool)
    mask[first] = True
    second = np.nonzero(~mask)[0]
    return d.subset(first), d.subset(second)


def make_fold_plan(d: Dataset, n_splits: int, n_repeats: int, seed: int) -> np.ndarray:
    """Repeated stratified k-fold assignment: the uint16 [n_repeats,
    n_samples] table of each sample's fold per repeat. Fold f of repeat r
    tests the rows where ``plan[r] == f`` and trains on the rest.

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
    return assignments
