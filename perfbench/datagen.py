"""Seeded input generators for the benchmark workloads.

The class structure (stroke templates, class centres) comes from a fixed
constant; the workload seed only draws the samples. Every seed therefore
gives a dataset from the same distribution, and a metric's spread across
seeds is the spread of the draw, not of the problem.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

N_CLASSES = 10
_STRUCTURE_SEED = 0x7D35  # fixed: the distribution never depends on the workload seed

# MNIST's shape: 60 000 images of 28 x 28 single-byte pixels.
PIXEL_SAMPLES = 60000
PIXEL_SIDE = 28
_PIXEL_CHUNK = 5000  # rows drawn per generator call, to bound memory
_JITTER = 1  # a sample's template is shifted by up to this many pixels each way

# A continuous table with no repeated values and a larger selection set.
FLOAT_SAMPLES = 12000
FLOAT_FEATURES = 64
_FLOAT_SPREAD = 1.6


def _pixel_templates() -> np.ndarray:
    """float32 [class, shift, pixel]: ink probability of every shifted template."""
    rng = np.random.default_rng(_STRUCTURE_SEED)
    yy, xx = np.mgrid[0:PIXEL_SIDE, 0:PIXEL_SIDE]
    shifts = [(dy, dx) for dy in range(-_JITTER, _JITTER + 1)
              for dx in range(-_JITTER, _JITTER + 1)]
    table = np.empty((N_CLASSES, len(shifts), PIXEL_SIDE * PIXEL_SIDE), dtype=np.float32)
    for c in range(N_CLASSES):
        field = np.zeros((PIXEL_SIDE, PIXEL_SIDE))
        for _ in range(5):  # each class is a few Gaussian strokes
            cy, cx = rng.uniform(8, 20, 2)
            ry, rx = rng.uniform(1.2, 4.0, 2)
            field += np.exp(-((yy - cy) ** 2 / (2 * ry * ry) + (xx - cx) ** 2 / (2 * rx * rx)))
        ink = 0.85 * np.clip(field, 0.0, 1.0)
        for s, (dy, dx) in enumerate(shifts):
            table[c, s] = np.roll(ink, (dy, dx), axis=(0, 1)).ravel()
    return table


def pixel_dataset(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(uint8 [60000, 784] pixels, uint8 [60000] labels), drawn from ``seed``.

    A pixel is background (0) unless a draw falls under its shifted class
    template; inked pixels are mostly saturated with an anti-aliasing tail,
    so each column holds few distinct values, as in MNIST.
    """
    table = _pixel_templates()
    n_px = PIXEL_SIDE * PIXEL_SIDE
    pixels = np.empty((PIXEL_SAMPLES, n_px), dtype=np.uint8)
    labels = np.empty(PIXEL_SAMPLES, dtype=np.uint8)
    for chunk, start in enumerate(range(0, PIXEL_SAMPLES, _PIXEL_CHUNK)):
        stop = min(start + _PIXEL_CHUNK, PIXEL_SAMPLES)
        rng = np.random.default_rng([seed, chunk])
        lab = rng.integers(0, N_CLASSES, stop - start)
        shift = rng.integers(0, table.shape[1], stop - start)
        inked = rng.random((stop - start, n_px), dtype=np.float32) < table[lab, shift]
        fade = rng.standard_exponential((stop - start, n_px), dtype=np.float32) * 45.0
        value = np.clip(255.0 - fade, 1.0, 255.0).astype(np.uint8)
        pixels[start:stop] = np.where(inked, value, 0)
        labels[start:stop] = lab
    return pixels, labels


def write_idx_pair(pixels: np.ndarray, labels: np.ndarray, images_path: Path,
                   labels_path: Path) -> None:
    """Write the IDX image and label files ``tinydes`` reads (MNIST layout)."""
    n = pixels.shape[0]
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, PIXEL_SIDE, PIXEL_SIDE))
        f.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def float_dataset(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(float32 [12000, 64] features, int64 [12000] labels): overlapping
    Gaussian classes, drawn from ``seed``, with no value repeated in a column."""
    centres = np.random.default_rng(_STRUCTURE_SEED).normal(0.0, 1.0, (N_CLASSES, FLOAT_FEATURES))
    rng = np.random.default_rng([seed, 1])
    labels = rng.integers(0, N_CLASSES, FLOAT_SAMPLES)
    noise = rng.normal(0.0, _FLOAT_SPREAD, (FLOAT_SAMPLES, FLOAT_FEATURES))
    features = (centres[labels] + noise).astype(np.float32)
    for j in range(FLOAT_FEATURES):  # float32 rounding repeats a few values; split them
        col = features[:, j]
        while True:
            order = np.argsort(col, kind="stable")
            dup = order[1:][col[order[1:]] == col[order[:-1]]]
            if dup.size == 0:
                break
            col[dup] = np.nextafter(col[dup], np.float32(np.inf))
    return features, labels


def csv_text(features: np.ndarray, labels: np.ndarray) -> str:
    """Header row plus one row per sample; ``%.9g`` round-trips every float32."""
    head = ",".join(f"f{j}" for j in range(features.shape[1])) + ",label"
    rows = ["%s,%d" % (",".join("%.9g" % v for v in row), lab)
            for row, lab in zip(features.tolist(), labels.tolist())]
    return head + "\n" + "\n".join(rows) + "\n"


def describe(features: np.ndarray) -> dict:
    """Input descriptors a perf change cites: shape, mean distinct values per
    feature and the share of zero cells."""
    n, d = features.shape
    if features.dtype == np.uint8:
        distinct = [np.count_nonzero(np.bincount(features[:, j], minlength=256))
                    for j in range(d)]
    else:
        distinct = [np.unique(features[:, j]).size for j in range(d)]
    return {
        "samples": n,
        "features": d,
        "mean_distinct_per_feature": float(np.mean(distinct)),
        "zero_share": float(np.count_nonzero(features == 0) / features.size),
    }
