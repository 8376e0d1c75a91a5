"""Compact flat-binary model (.tdes), its Python engine, C89 emitter.

A file is the 24-byte ``HEADER`` (magic "TDES", version u32, n_features u32,
n_classes u16, pool_size u16, k u16, J u16, n_nodes_total u32), then the
sections of ``_layout`` in file order, zero padding to a 4-byte boundary,
and a crc32 (poly 0xEDB88320, reflected) over all preceding bytes; all
little-endian. docs/FORMAT.md has the same table and a worked hex example.

Only trees referenced by an ensemble row are stored; the manifest sidecar
records the remap table and per-section byte sizes.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import Standardizer
from .errors import (CapacityError, ChecksumError, FormatError,
                     ModelCorruptError, ShapeError)
from .selection import CompetenceModel
from .trees import ClassifierPool, check_nodes

MAGIC = b"TDES"
VERSION = 1
HEADER = struct.Struct("<4sIIHHHHI")
# per retained tree: its first node, counted in records from the node
# section's start, and its node count
DIR_DTYPE = np.dtype([("off", "<u4"), ("cnt", "<u2")])
NODE_DTYPE = np.dtype([("feature", "<i2"), ("threshold", "<f4"), ("right_jump", "<u2")])


def _layout(nf: int, pool_size: int, k: int, j: int, n_nodes: int):
    """The sections after the header, in file order, as (name, dtype,
    shape); the names are the manifest's ``bytes.*`` keys."""
    return (("standardizer", np.dtype("<f4"), (2, nf)),  # mean row, then inv_std row
            ("centroids", np.dtype("<f4"), (k, nf)),
            ("ensembles", np.dtype("<u2"), (k, j)),  # classifier ids after remapping
            ("directory", DIR_DTYPE, (pool_size,)),
            ("nodes", NODE_DTYPE, (n_nodes,)))


def _pad_to4(n: int) -> int:
    return (-n) % 4


def export_tiny(s: Standardizer, cm: CompetenceModel, pool: ClassifierPool):
    """Serialize standardizer + centroids + ensembles + referenced trees.

    Returns (model bytes, manifest text). Trees no ensemble references are
    dropped and classifier ids remapped; the manifest records the mapping.
    """
    nf, k, j = s.n_features, cm.kmeans.k, cm.j
    referenced = np.unique(cm.per_cluster_ensemble).astype(np.int64)
    if referenced.max(initial=0) >= pool.pool_size:
        raise ModelCorruptError("ensemble references a classifier outside the pool")
    if referenced.size > 65535:
        raise CapacityError(f"{referenced.size} retained classifiers exceed the u16 limit")
    if k > 65535 or j > 65535:
        raise CapacityError("cluster/ensemble count exceeds the u16 limit")

    # the retained trees' node ranges, cut from the pool's checked columns
    count = pool.count[referenced]
    offsets = count.cumsum() - count
    n_nodes_total = int(count.sum())
    take = (pool.first[referenced] - offsets).repeat(count) + np.arange(n_nodes_total)
    values = {
        "standardizer": (s.mean, s.inv_std),
        "centroids": cm.kmeans.centroids,
        "ensembles": np.searchsorted(referenced, cm.per_cluster_ensemble),
        "directory": np.rec.fromarrays((offsets, count), dtype=DIR_DTYPE),
        "nodes": np.rec.fromarrays((pool.feature[take], pool.threshold[take], pool.jump[take]),
                                   dtype=NODE_DTYPE),
    }
    parts = {"header": HEADER.pack(MAGIC, VERSION, nf, pool.n_classes, referenced.size, k, j,
                                   n_nodes_total)}
    for name, dtype, shape in _layout(nf, referenced.size, k, j, n_nodes_total):
        section = np.asarray(values[name], dtype)
        if section.shape != shape:
            raise ShapeError(f"{name} section is {section.shape}, the header implies {shape}")
        parts[name] = section.tobytes()
    body = b"".join(parts.values())
    parts["padding"] = bytes(_pad_to4(len(body)))
    body += parts["padding"]
    parts["crc"] = struct.pack("<I", zlib.crc32(body))
    blob = body + parts["crc"]

    lines = [
        "format = tdes",
        f"version = {VERSION}",
        f"n_features = {nf}",
        f"n_classes = {pool.n_classes}",
        f"k_clusters = {k}",
        f"ensemble_size = {j}",
        f"pool_size_source = {pool.pool_size}",
        f"pool_size_retained = {referenced.size}",
        f"trees_dropped = {pool.pool_size - referenced.size}",
        f"n_nodes_total = {n_nodes_total}",
    ]
    lines += [f"bytes.{name} = {len(part)}" for name, part in parts.items()]
    lines.append(f"bytes.total = {len(blob)}")
    lines.append(f"rom_estimate_bytes = {len(blob) - 4}")
    lines += [f"remap.{new} = {int(old)}" for new, old in enumerate(referenced)]
    manifest = "\n".join(lines) + "\n"
    return blob, manifest


@dataclass(frozen=True)
class TinyEngine:
    """Read-only view of a loaded model; threads may share one engine.

    The numpy arrays hold the model's other sections. The node records are
    kept once, as the Python lists that each probe walks: ``walk_feature``,
    ``walk_threshold`` (each float32 as the Python float of equal value) and
    ``walk_jump``; ``emit_static_source`` and ``inspect`` read them too.
    ``load_tiny`` also derives ``cluster_roots``, the first node of each of
    a cluster's J trees. Each probe allocates its own temporaries.
    """

    n_features: int
    n_classes: int
    pool_size: int
    k: int
    j: int
    mean: np.ndarray
    inv_std: np.ndarray
    centroids: np.ndarray
    ensembles: np.ndarray
    dir_offset: np.ndarray
    walk_feature: list
    walk_threshold: list
    walk_jump: list
    cluster_roots: list

    def predict(self, raw_x):
        return tiny_predict(self, raw_x)


def load_tiny(data: bytes) -> TinyEngine:
    """Validate magic, version, CRC, every index bound and the layout that
    ``export_tiny`` writes; raises rather than repairs."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise FormatError("model must be a byte buffer")
    buf = bytes(data)
    if len(buf) < HEADER.size + 4:
        raise FormatError(f"buffer of {len(buf)} bytes is smaller than header + crc")
    magic, version, nf, n_classes, pool_size, k, j, n_nodes = HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    (stored_crc,) = struct.unpack_from("<I", buf, len(buf) - 4)
    if zlib.crc32(buf[:-4]) != stored_crc:
        raise ChecksumError("crc32 mismatch")
    if nf < 1 or n_classes < 1 or pool_size < 1 or k < 1 or j < 1:
        raise FormatError("zero-sized section in header")

    layout = _layout(nf, pool_size, k, j, n_nodes)
    sizes = [dtype.itemsize * math.prod(shape) for _, dtype, shape in layout]
    body = HEADER.size + sum(sizes)
    expected = body + _pad_to4(body) + 4
    if expected != len(buf):
        raise FormatError(f"file is {len(buf)} bytes; header implies {expected}")
    starts = itertools.accumulate(sizes, initial=HEADER.size)
    standardizer, centroids, ensembles, directory, nodes = (
        np.frombuffer(buf, dtype, math.prod(shape), start).reshape(shape)
        for (_, dtype, shape), start in zip(layout, starts))

    if not np.isfinite(standardizer).all():
        raise ModelCorruptError("non-finite standardizer values")
    if not np.isfinite(centroids).all():
        raise ModelCorruptError("non-finite centroid values")
    if (ensembles >= pool_size).any():
        raise ModelCorruptError("ensemble entry references a missing tree")
    if (ensembles[:, 1:] <= ensembles[:, :-1]).any():
        raise ModelCorruptError("ensemble row is not strictly ascending")
    dir_off = directory["off"].astype(np.int64)
    # contiguous copies: check_nodes and tolist on the 8-byte-strided record
    # fields make a load 7-10 % slower
    feat, thr, jump = (np.ascontiguousarray(nodes[name]) for name in NODE_DTYPE.names)
    check_nodes(feat, thr, jump, dir_off, directory["cnt"].astype(np.int64), nf, n_classes)

    mean, inv_std = standardizer
    return TinyEngine(
        n_features=nf, n_classes=n_classes, pool_size=pool_size, k=k, j=j,
        mean=mean, inv_std=inv_std, centroids=centroids, ensembles=ensembles,
        dir_offset=dir_off,
        walk_feature=feat.tolist(), walk_threshold=thr.tolist(), walk_jump=jump.tolist(),
        cluster_roots=dir_off[ensembles].tolist(),
    )


def tiny_predict(e: TinyEngine, raw_x) -> tuple[int, int]:
    """Standardize, pick the nearest centroid, walk that cluster's trees,
    majority vote. Cost = nodes visited + k."""
    vec = np.asarray(raw_x, dtype=np.float32).ravel()
    if vec.shape[0] != e.n_features:
        raise ShapeError(f"expected {e.n_features} features, got {vec.shape[0]}")
    return _kernels.tiny_infer(vec, e.mean, e.inv_std, e.centroids, e.cluster_roots,
                               e.walk_feature, e.walk_threshold, e.walk_jump, e.n_classes)


# ---------------------------------------------------------------------------
# Static C89 source emission.
# ---------------------------------------------------------------------------


def _c_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return f"{v:.1f}f"
    return f"{np.float32(v):.9g}f"


def _c_array(name: str, ctype: str, values, fmt) -> str:
    vals = [fmt(v) for v in values]
    rows = [", ".join(vals[i : i + 8]) for i in range(0, len(vals), 8)]
    body = ",\n    ".join(rows)
    return f"static const {ctype} {name}[{len(vals)}] = {{\n    {body}\n}};\n"


def emit_static_source(model_bytes: bytes) -> str:
    """Emit a single self-contained C89 translation unit with the model as
    constant arrays and a ``tinydes_predict(const float* x)`` entry point
    that gives the engine's labels, except at a centroid near-tie, where the
    C's in-order distance sums and the engine's pairwise ones can differ."""
    e = load_tiny(model_bytes)
    out = []
    out.append("/* Self-contained flat decision-ensemble classifier. */\n")
    out.append("/* Entry point: int tinydes_predict(const float* x);    */\n\n")
    out.append(f"#define TINYDES_N_FEATURES {e.n_features}\n")
    out.append(f"#define TINYDES_N_CLASSES {e.n_classes}\n")
    out.append(f"#define TINYDES_K {e.k}\n")
    out.append(f"#define TINYDES_J {e.j}\n\n")
    out.append(_c_array("tinydes_mean", "float", e.mean, _c_float))
    out.append(_c_array("tinydes_inv_std", "float", e.inv_std, _c_float))
    out.append(_c_array("tinydes_centroids", "float", e.centroids.ravel(), _c_float))
    out.append(_c_array("tinydes_ensembles", "unsigned short", e.ensembles.ravel(), str))
    out.append(_c_array("tinydes_tree_offset", "unsigned long", e.dir_offset, lambda v: f"{v}ul"))
    out.append(_c_array("tinydes_node_feature", "short", e.walk_feature, str))
    out.append(_c_array("tinydes_node_threshold", "float", e.walk_threshold, _c_float))
    out.append(_c_array("tinydes_node_jump", "unsigned short", e.walk_jump, str))
    out.append("""
int tinydes_predict(const float* x)
{
    static float sx[TINYDES_N_FEATURES];
    static unsigned short votes[TINYDES_N_CLASSES];
    double best;
    int best_id;
    int c;
    int i;
    int jj;

    for (i = 0; i < TINYDES_N_FEATURES; i++) {
        float centered = x[i] - tinydes_mean[i];
        sx[i] = centered * tinydes_inv_std[i];
    }
    best = 0.0;
    best_id = -1;
    for (c = 0; c < TINYDES_K; c++) {
        double acc = 0.0;
        for (i = 0; i < TINYDES_N_FEATURES; i++) {
            float d = sx[i] - tinydes_centroids[c * TINYDES_N_FEATURES + i];
            float sq = d * d;
            acc += sq;
        }
        if (best_id < 0 || acc < best) {
            best = acc;
            best_id = c;
        }
    }
    for (c = 0; c < TINYDES_N_CLASSES; c++) {
        votes[c] = 0;
    }
    for (jj = 0; jj < TINYDES_J; jj++) {
        unsigned short tree = tinydes_ensembles[best_id * TINYDES_J + jj];
        unsigned long base = tinydes_tree_offset[tree];
        unsigned long pos = 0;
        for (;;) {
            short f = tinydes_node_feature[base + pos];
            if (f < 0) {
                votes[tinydes_node_jump[base + pos]] += 1;
                break;
            }
            if (sx[f] <= tinydes_node_threshold[base + pos]) {
                pos += 1;
            } else {
                pos = tinydes_node_jump[base + pos];
            }
        }
    }
    best_id = 0;
    for (c = 1; c < TINYDES_N_CLASSES; c++) {
        if (votes[c] > votes[best_id]) {
            best_id = c;
        }
    }
    return best_id;
}
""")
    return "".join(out)
