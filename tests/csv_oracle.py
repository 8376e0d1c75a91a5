"""The row-by-row CSV loader: the reference that ``data.load_csv`` is
checked against.

``load_csv`` below is the loader as it was before numpy's C reader took over
plain texts: ``csv.reader`` splits the rows and ``float()`` parses each
feature cell. For any text, the production loader must give the same
feature bits, labels, label values and names, or raise the same exception
type with the same message. The one known difference is deliberate: labels
that read as NaN are ordered here by set iteration, which depends on the
hash seed, and by name there.
"""

import csv

import numpy as np

from tinydes.data import Dataset
from tinydes.errors import FormatError, IoError


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
                with np.errstate(over="ignore"):  # beyond float32's range: inf
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
