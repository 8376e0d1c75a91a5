import dataclasses
import re
import shutil
import struct
import subprocess
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinydes.cluster import KMeansModel
from tinydes.data import Standardizer, apply_standardizer
from tinydes.errors import (CapacityError, ChecksumError, FormatError,
                            ModelCorruptError, ShapeError, TinyDesError)
from tinydes.selection import (CompetenceModel, build_competence_model,
                               des_clustering_predict)
from tinydes.tinyformat import (HEADER, NODE_DTYPE, emit_static_source,
                                export_tiny, load_tiny, tiny_predict)

from conftest import build_pipeline, leaf, make_blobs, pool_of
from selection_oracle import des_clustering as des_clustering_oracle
from tree_oracle import Tree, pool_tree


def minimal_model():
    """1 cluster, J=1, single-leaf tree, 2 features: 68 bytes total."""
    s = Standardizer(np.array([1.0, 2.0], np.float32), np.array([0.5, 0.25], np.float32))
    pool = pool_of([leaf(3)], 4)
    km = KMeansModel(np.array([[0.5, -1.5]], np.float32), 0.0, 1)
    cm = CompetenceModel(km, np.array([[0]], np.uint16))
    return s, cm, pool


def near_tie_model():
    """784 features, identity standardizer, k=2, each cluster's one tree a
    leaf of its own class; and a probe whose two centroid distances differ
    by rounding alone. numpy's pairwise row sum gives 1 + 3*2^-52 to
    centroid 0 and 1 + 2^-52 to centroid 1; summed in feature order they
    are 1.0 and 1 + 2^-52."""
    nf, tiny = 784, 2.0 ** -30
    probe = np.full(nf, tiny, np.float32)
    probe[0] = 1.0
    centroids = np.zeros((2, nf), np.float32)
    centroids[1] = probe
    centroids[1, :2] = 0.0, tiny - 2.0 ** -26
    s = Standardizer(np.zeros(nf, np.float32), np.ones(nf, np.float32))
    cm = CompetenceModel(KMeansModel(centroids, 0.0, 1), np.array([[0], [1]], np.uint16))
    return s, cm, pool_of([leaf(0), leaf(1)], 2), probe


@pytest.fixture(scope="module")
def trained(request):
    data = make_blobs(n_per_class=90, n_features=8, n_classes=4, seed=10)
    return build_pipeline(data, forests=((5, 5), (4, 3)), k=3, n_acc=5, j=3, seed=23)


class TestExport:
    def test_minimal_layout_size(self):
        s, cm, pool = minimal_model()
        blob, manifest = export_tiny(s, cm, pool)
        # 24 header + 16 standardizer + 8 centroid + 2 ensemble + 6 directory
        # + 8 node + 0 pad + 4 crc
        assert len(blob) == 68
        assert blob[:4] == b"TDES"
        assert "bytes.total = 68" in manifest
        assert "rom_estimate_bytes = 64" in manifest

    def test_crc_is_reflected_polynomial(self):
        # zlib's crc32 is the 0xEDB88320 reflected CRC; pin the test vector
        assert zlib.crc32(b"123456789") == 0xCBF43926
        s, cm, pool = minimal_model()
        blob, _ = export_tiny(s, cm, pool)
        (stored,) = struct.unpack("<I", blob[-4:])
        assert stored == zlib.crc32(blob[:-4])

    def test_deterministic_bytes(self, trained):
        p = trained
        b1, m1 = export_tiny(p["standardizer"], p["cm"], p["pool"])
        b2, m2 = export_tiny(p["standardizer"], p["cm"], p["pool"])
        assert b1 == b2 and m1 == m2

    def test_dead_tree_elimination(self):
        # 2 of 5 trees referenced: 3 dropped, remap has 2 entries
        s = Standardizer(np.zeros(1, np.float32), np.ones(1, np.float32))
        pool = pool_of([leaf(c % 3) for c in range(5)], 3)
        km = KMeansModel(np.zeros((1, 1), np.float32), 0.0, 0)
        cm = CompetenceModel(km, np.array([[1, 4]], np.uint16))
        blob, manifest = export_tiny(s, cm, pool)
        e = load_tiny(blob)
        assert e.pool_size == 2
        assert "remap.0 = 1" in manifest and "remap.1 = 4" in manifest
        assert "trees_dropped = 3" in manifest
        # remapped ensembles reference the retained directory
        np.testing.assert_array_equal(e.ensembles, [[0, 1]])

    def test_dead_tree_elimination_soundness(self, trained):
        # dropping unreferenced trees never changes predictions
        p = trained
        blob, _ = export_tiny(p["standardizer"], p["cm"], p["pool"])
        engine = load_tiny(blob)
        referenced = np.unique(p["cm"].per_cluster_ensemble)
        assert engine.pool_size == referenced.size
        rng = np.random.RandomState(0)
        probes = rng.randn(200, 8).astype(np.float32) * 3
        for x in probes:
            ref = des_clustering_predict(p["cm"], p["pool"],
                                         apply_standardizer(p["standardizer"], x))
            assert tiny_predict(engine, x)[0] == ref.label

    def test_format_doc_hex_dump(self):
        # the worked example's dump in docs/FORMAT.md, offsets checked line by line
        doc = Path(__file__).resolve().parents[1] / "docs" / "FORMAT.md"
        dump = b""
        for offset, hexbytes in re.findall(r"^([0-9a-f]{4})  ((?:[0-9a-f]{2} )*[0-9a-f]{2})",
                                           doc.read_text(encoding="utf-8"), re.MULTILINE):
            assert int(offset, 16) == len(dump)
            dump += bytes.fromhex(hexbytes)
        assert dump == export_tiny(*minimal_model())[0]
        assert len(dump) == 68 and struct.unpack("<I", dump[-4:]) == (0x10DFCA98,)
        assert load_tiny(dump).predict([0.25, -7.0]) == (3, 2)

    def test_capacity_error_many_classifiers(self):
        s, cm, pool = minimal_model()
        big = CompetenceModel(cm.kmeans, np.array([[70000]], np.uint32))
        with pytest.raises((CapacityError, ModelCorruptError)):
            export_tiny(s, big, pool)

    def test_manifest_section_sums(self, trained):
        p = trained
        assert_manifest_sums(*export_tiny(p["standardizer"], p["cm"], p["pool"]))


def assert_manifest_sums(blob, manifest):
    """The manifest's ``bytes.*`` sections add up to the blob."""
    sizes = {}
    for line in manifest.splitlines():
        if line.startswith("bytes."):
            key, val = line.split(" = ")
            sizes[key[6:]] = int(val)
    section_sum = sum(v for k, v in sizes.items() if k not in ("crc", "total"))
    assert section_sum == len(blob) - 4
    assert sizes["total"] == len(blob)


class TestLoad:
    def test_round_trip(self, trained):
        p = trained
        blob, _ = export_tiny(p["standardizer"], p["cm"], p["pool"])
        e = load_tiny(blob)
        assert (e.n_features, e.n_classes, e.k, e.j) == (8, 4, 3, 3)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nf=st.integers(1, 5), n_classes=st.integers(1, 5),
           k=st.integers(1, 4), j=st.integers(1, 5), pool_size=st.integers(1, 6))
    def test_round_trip_random_pools(self, seed, nf, n_classes, k, j, pool_size):
        rng = np.random.RandomState(seed)
        trees = [random_tree(rng, nf, n_classes, 4) for _ in range(pool_size)]
        pool = pool_of(trees, n_classes)
        s = Standardizer(rng.randn(nf), np.exp(rng.randn(nf)))
        centroids = rng.randn(k, nf).astype(np.float32)
        ensembles = distinct_rows(rng, k, min(j, pool_size), pool_size)
        cm = CompetenceModel(KMeansModel(centroids, 0.0, 0), ensembles)
        blob, manifest = export_tiny(s, cm, pool)
        # the same inputs, and the same trees built into a second pool, give
        # the same bytes
        assert export_tiny(s, cm, pool) == (blob, manifest)
        assert export_tiny(s, cm, pool_of(trees, n_classes)) == (blob, manifest)
        assert_manifest_sums(blob, manifest)
        engine = load_tiny(blob)
        np.testing.assert_array_equal(engine.mean, s.mean)
        np.testing.assert_array_equal(engine.inv_std, s.inv_std)
        np.testing.assert_array_equal(engine.centroids, centroids)
        for x in rng.randn(40, nf).astype(np.float32) * 3:
            assert engine.predict(x) == des_answer(cm, pool, apply_standardizer(s, x))

    def test_truncated(self):
        s, cm, pool = minimal_model()
        blob, _ = export_tiny(s, cm, pool)
        for cut in (0, 3, 10, 27, len(blob) - 5, len(blob) - 1):
            with pytest.raises((FormatError, ChecksumError)):
                load_tiny(blob[:cut])

    def test_bad_magic_and_version(self):
        s, cm, pool = minimal_model()
        blob, _ = export_tiny(s, cm, pool)
        bad = b"XDES" + blob[4:]
        with pytest.raises(FormatError):
            load_tiny(bad)
        bad = bytearray(blob)
        bad[4] = 99  # version
        body = bytes(bad[:-4])
        with pytest.raises(FormatError):
            load_tiny(body + struct.pack("<I", zlib.crc32(body)))

    def test_corrupted_byte_checksum(self):
        s, cm, pool = minimal_model()
        blob, _ = export_tiny(s, cm, pool)
        for pos in range(0, len(blob) - 4, 7):
            bad = bytearray(blob)
            bad[pos] ^= 0x40
            with pytest.raises((ChecksumError, FormatError)):
                load_tiny(bytes(bad))

    def test_ensemble_out_of_range(self):
        s, cm, pool = minimal_model()
        blob, _ = export_tiny(s, cm, pool)
        bad = bytearray(blob)
        # ensemble section lives at offset 24 + 16 + 8 = 48
        struct.pack_into("<H", bad, 48, 9)
        body = bytes(bad[:-4])
        with pytest.raises(ModelCorruptError):
            load_tiny(body + struct.pack("<I", zlib.crc32(body)))

    @pytest.mark.parametrize("row", [(0, 0, 2), (0, 2, 2), (1, 0, 2), (0, 2, 1)])
    def test_ensemble_row_not_strictly_ascending(self, row):
        # export writes each ensemble row's distinct trees in ascending order
        blob, _ = export_tiny(*three_tree_model())
        bad = bytearray(blob)
        # ensemble section at 24 + 16 + 8: one cluster's three u16 ids
        struct.pack_into("<3H", bad, 48, *row)
        body = bytes(bad[:-4])
        with pytest.raises(ModelCorruptError, match="^ensemble row is not strictly ascending$"):
            load_tiny(body + struct.pack("<I", zlib.crc32(body)))

    def test_jump_out_of_range(self):
        s, cm, pool = minimal_model()
        blob, _ = export_tiny(s, cm, pool)
        bad = bytearray(blob)
        # node record at 56: feature i16, threshold f32, jump u16
        struct.pack_into("<h", bad, 56, 2)  # internal node referencing feature 2 (nf=2)
        body = bytes(bad[:-4])
        with pytest.raises(ModelCorruptError):
            load_tiny(body + struct.pack("<I", zlib.crc32(body)))

    def test_fuzz_typed_errors_only(self):
        s, cm, pool = minimal_model()
        blob, _ = export_tiny(s, cm, pool)
        rng = np.random.RandomState(1)
        for trial in range(2000):
            buf = bytearray(blob)
            mode = trial % 3
            if mode == 0:
                buf = buf[: rng.randint(0, len(buf) + 1)]
            elif mode == 1:
                for _ in range(rng.randint(1, 6)):
                    buf[rng.randint(0, len(buf))] ^= 1 << rng.randint(0, 8)
            else:
                buf = bytearray(rng.bytes(rng.randint(0, 200)))
            try:
                engine = load_tiny(bytes(buf))
                engine.predict(np.zeros(engine.n_features, np.float32))
            except TinyDesError:
                pass  # typed rejection is the contract


DIRECTORY_DTYPE = np.dtype([("off", "<u4"), ("cnt", "<u2")])


def three_tree_model():
    """Two features, three classes, identity standardizer, one cluster whose
    ensemble holds three trees of 5, 3 and 1 nodes (nodes 0-4, 5-7, 8)."""
    s = Standardizer(np.zeros(2, np.float32), np.ones(2, np.float32))
    shapes = (([0, 1, -1, -1, -1], [0.0, 0.5, 0, 0, 0], [4, 3, 0, 1, 2]),
              ([1, -1, -1], [-1.0, 0, 0], [2, 2, 0]),
              ([-1], [0], [1]))
    pool = pool_of(shapes, 3)
    km = KMeansModel(np.zeros((1, 2), np.float32), 0.0, 0)
    cm = CompetenceModel(km, np.array([[0, 1, 2]], np.uint16))
    return s, cm, pool


def sections(blob):
    """Copies of the directory and node sections, and where they start."""
    _, _, nf, _, pool_size, k, j, n_nodes = HEADER.unpack_from(blob, 0)
    start = HEADER.size + 8 * nf + 4 * k * nf + 2 * k * j
    directory = np.frombuffer(blob, DIRECTORY_DTYPE, pool_size, start).copy()
    nodes = np.frombuffer(blob, NODE_DTYPE, n_nodes, start + 6 * pool_size).copy()
    return directory, nodes, start


def with_sections(blob, directory, nodes):
    """``blob`` with new directory and node sections of the same sizes, and
    a recomputed crc."""
    _, _, start = sections(blob)
    end = start + directory.nbytes + nodes.nbytes
    body = blob[:start] + directory.tobytes() + nodes.tobytes() + blob[end:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def loop_oracle(blob):
    """The per-tree validation loop of ``load_tiny``'s layout checks, from
    the directory checks on. Returns the (type, message) it raises, or None
    when the model is accepted."""
    _, _, nf, n_classes, *_ = HEADER.unpack_from(blob, 0)
    directory, nodes, _ = sections(blob)
    return directory_loop(directory, nodes, nf, n_classes)


def directory_loop(directory, nodes, nf, n_classes):
    """``loop_oracle`` on a directory and a node section as arrays."""
    pool_size, n_nodes = directory.shape[0], nodes.shape[0]
    dir_off = directory["off"].astype(np.int64)
    dir_cnt = directory["cnt"].astype(np.int64)
    if (dir_cnt < 1).any():
        return ModelCorruptError, "empty tree in directory"
    end = 0  # each tree starts where the one before it ends
    for lo, cnt in zip(dir_off.tolist(), dir_cnt.tolist()):
        if lo != end:
            return ModelCorruptError, "tree directory does not lay the trees end to end"
        end += cnt
    if end != n_nodes:
        return ModelCorruptError, "tree directory does not lay the trees end to end"
    feat, jump = nodes["feature"], nodes["right_jump"]
    if not np.isfinite(nodes["threshold"]).all():
        return ModelCorruptError, "non-finite node threshold"
    for t in range(pool_size):
        lo, cnt = int(dir_off[t]), int(dir_cnt[t])
        tf = feat[lo : lo + cnt]
        tj = jump[lo : lo + cnt].astype(np.int64)
        internal = tf >= 0
        if (tf[internal] >= nf).any():
            return ModelCorruptError, f"tree {t}: feature index out of range"
        pos_idx = np.nonzero(internal)[0]
        if ((tj[pos_idx] <= pos_idx) | (tj[pos_idx] >= cnt)).any():
            return ModelCorruptError, f"tree {t}: right-child jump violates preorder"
        if (tj[~internal] >= n_classes).any():
            return ModelCorruptError, f"tree {t}: leaf class out of range"
    return None


def load_outcome(blob):
    try:
        load_tiny(blob)
    except TinyDesError as exc:
        return type(exc), str(exc)
    return None


def directory_pool(blob):
    """A pool holding, per directory entry, the tree its node range spells
    out: the reference reading of any accepted model."""
    e = load_tiny(blob)
    directory, nodes, _ = sections(blob)
    trees = [(nodes["feature"][o : o + c], nodes["threshold"][o : o + c],
              nodes["right_jump"][o : o + c]) for o, c in directory.tolist()]
    km = KMeansModel(e.centroids, 0.0, 0)
    cm = CompetenceModel(km, e.ensembles)
    return e, cm, pool_of(trees, e.n_classes)


class TestNodeChecks:
    """Each node fault, with the exact message, and the vectorized checks
    against the per-tree loop on fuzzed node and directory sections."""

    def corrupt(self, node=None, field=None, value=None, entry=None, off_cnt=None):
        blob, _ = export_tiny(*three_tree_model())
        directory, nodes, _ = sections(blob)
        if node is not None:
            nodes[field][node] = value
        if entry is not None:
            directory[entry] = off_cnt
        return with_sections(blob, directory, nodes)

    def expect(self, blob, message):
        with pytest.raises(ModelCorruptError) as info:
            load_tiny(blob)
        assert str(info.value) == message
        assert loop_oracle(blob) == (ModelCorruptError, message)

    def test_feature_index_out_of_range(self):
        self.expect(self.corrupt(node=5, field="feature", value=2),
                    "tree 1: feature index out of range")

    @pytest.mark.parametrize("node, jump, tree", [(1, 0, 0), (1, 1, 0), (5, 0, 1)])
    def test_backward_or_self_jump(self, node, jump, tree):
        self.expect(self.corrupt(node=node, field="right_jump", value=jump),
                    f"tree {tree}: right-child jump violates preorder")

    def test_leaf_class_out_of_range(self):
        self.expect(self.corrupt(node=8, field="right_jump", value=3),
                    "tree 2: leaf class out of range")

    def test_zero_count_directory_entry(self):
        self.expect(self.corrupt(entry=1, off_cnt=(5, 0)), "empty tree in directory")

    def test_directory_past_node_pool(self):
        self.expect(self.corrupt(entry=2, off_cnt=(8, 2)),
                    "tree directory does not lay the trees end to end")

    def test_first_tree_and_first_fault_win(self):
        blob = self.corrupt(node=8, field="right_jump", value=9)  # tree 2 leaf
        directory, nodes, _ = sections(blob)
        nodes["right_jump"][0] = 9  # tree 0: jump past its end
        nodes["feature"][2] = 7  # tree 0: a leaf turned into a bad internal node
        self.expect(with_sections(blob, directory, nodes), "tree 0: feature index out of range")

    @pytest.mark.parametrize("directory", [
        [(0, 5), (1, 4), (8, 1)],  # node 1's right child: node 3 in tree 0, node 4 in tree 1
        [(0, 5), (0, 5), (5, 3)],
        [(8, 1), (5, 3), (0, 5)],
        [(0, 5), (8, 1), (8, 1)],  # nodes 5-7 belong to no tree
        [(0, 5), (5, 2), (7, 1)],  # end to end, but node 8 belongs to no tree
    ])
    def test_overlapping_and_gapped_directories(self, directory):
        # export lays the trees end to end and the loader accepts nothing else
        blob, _ = export_tiny(*three_tree_model())
        table, nodes, _ = sections(blob)
        table[:] = directory
        self.expect(with_sections(blob, table, nodes),
                    "tree directory does not lay the trees end to end")

    @settings(max_examples=400, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 8), st.sampled_from(["feature", "right_jump"]),
                                    st.integers(-2, 9)), max_size=4),
           bad_threshold=st.tuples(st.sampled_from(range(36)),  # a node, one time in four
                                   st.sampled_from([np.nan, np.inf, -np.inf])),
           entries=st.lists(st.tuples(st.integers(0, 2),
                                      st.integers(0, 8).flatmap(lambda off: st.tuples(
                                          st.just(off), st.integers(1, 9 - off)))
                                      | st.tuples(st.integers(0, 10), st.integers(0, 10))),
                            max_size=3))
    def test_vectorized_checks_match_loop(self, edits, bad_threshold, entries):
        blob, _ = export_tiny(*three_tree_model())
        directory, nodes, _ = sections(blob)
        for node, field, value in edits:
            nodes[field][node] = value if field == "feature" else value & 0xFFFF
        if bad_threshold[0] < nodes.shape[0]:
            nodes["threshold"][bad_threshold[0]] = bad_threshold[1]
        for entry, off_cnt in entries:
            directory[entry] = off_cnt  # overlaps, gaps and bad ranges alike
        blob = with_sections(blob, directory, nodes)
        outcome = load_outcome(blob)
        assert outcome == loop_oracle(blob)
        if outcome is None:
            e, cm, pool = directory_pool(blob)
            for x in [(a, b) for a in (-1.0, 0.0, 0.5, 2.0) for b in (-1.0, 0.5, np.nan)]:
                ref = des_clustering_predict(cm, pool, np.array(x, np.float32))
                assert e.predict(x) == (ref.label, ref.cost)


def as_directory(trees):
    """The .tdes directory and node section that hold ``trees`` end to end."""
    count = np.array([len(f) for f, _, _ in trees], np.int64)
    directory = np.empty(len(trees), DIRECTORY_DTYPE)
    directory["off"], directory["cnt"] = count.cumsum() - count, count
    nodes = np.empty(int(count.sum()), NODE_DTYPE)
    for name, col in zip(NODE_DTYPE.names, zip(*trees)):
        nodes[name] = np.concatenate(col)
    return directory, nodes


class TestOneLayoutCheck:
    """``ClassifierPool.from_trees`` and ``load_tiny`` share one layout
    check: edited trees make the pool raise exactly what the per-tree loop
    gives for the same columns as a ``.tdes`` directory, whose feature
    bound is the int16 field's."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(1, 4),
           depths=st.lists(st.integers(0, 4), min_size=1, max_size=4),
           edits=st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(["feature", "jump",
                                                                            "class"]),
                                    st.integers(0, 12)), max_size=4),
           bad_threshold=st.tuples(st.integers(0, 2**16),  # a node, one time in three
                                   st.sampled_from([None] * 6 + [np.nan, np.inf, -np.inf])),
           empty=st.lists(st.integers(0, 15), max_size=2))
    def test_pool_raises_what_the_loop_gives(self, seed, n_classes, depths, edits,
                                             bad_threshold, empty):
        rng = np.random.RandomState(seed)
        trees = [[a.tolist() for a in random_tree(rng, 3, n_classes, d)] for d in depths]
        pick, value = bad_threshold
        if value is not None:
            thr = trees[pick % len(trees)][1]
            thr[pick % len(thr)] = value
        for pick, what, value in edits:
            feat, _, jump = trees[pick % len(trees)]
            if what == "feature":  # leaves and internal nodes turn into each other
                feat[pick % len(feat)] = value - 1
                continue
            # "jump" edits an internal node's right child, "class" a leaf's class
            nodes = [i for i, f in enumerate(feat) if (f < 0) == (what == "class")]
            jump[nodes[pick % len(nodes)] if nodes else pick % len(feat)] = value
        for t in empty:
            if t < len(trees):
                trees[t] = [[], [], []]
        try:
            pool = pool_of(trees, n_classes)
            outcome = None
        except TinyDesError as exc:
            outcome = type(exc), str(exc)
        directory, nodes = as_directory(trees)
        assert outcome == directory_loop(directory, nodes, 1 << 15, n_classes)
        if outcome is None:
            np.testing.assert_array_equal(pool.feature, nodes["feature"])
            np.testing.assert_array_equal(pool.jump, nodes["right_jump"])


def spine_tree(n_internal, n_classes):
    """A left spine of ``n_internal`` feature-0 splits, 2 * n_internal + 1
    nodes: split i has threshold n_internal - i, and its right child, the
    leaf of class i % n_classes, follows the spine's last leaf in reverse."""
    m = n_internal
    feat = [0] * m + [-1] * (m + 1)
    thr = [float(m - i) for i in range(m)] + [0.0] * (m + 1)
    jump = [2 * m - i for i in range(m)] + [m % n_classes] + \
        [i % n_classes for i in reversed(range(m))]
    return feat, thr, jump


class TestU16Edges:
    """A tree of 65,535 nodes and 65,535 classes round-trip through export
    and load; one more of either raises ``CapacityError`` when the pool is
    built. A model whose ensembles reference 65,535 trees round-trips; one
    that references 65,536 raises ``CapacityError`` at export."""

    def round_trip(self, pool, tree):
        """The engine of a one-cluster model whose ensemble is ``tree``
        alone, after checking its node section and answers."""
        s = Standardizer(np.zeros(1, np.float32), np.ones(1, np.float32))
        cm = CompetenceModel(KMeansModel(np.zeros((1, 1), np.float32), 0.0, 0),
                             np.array([[tree]], np.uint16))
        engine = load_tiny(export_tiny(s, cm, pool)[0])
        for name, col in zip(("feature", "threshold", "jump"), pool_tree(pool, tree)):
            np.testing.assert_array_equal(getattr(engine, "walk_" + name), col)
        for x in (-1.0, 0.5, 100.5, 32766.5, 40000.0):
            ref = des_clustering_predict(cm, pool, np.array([x], np.float32))
            assert engine.predict([x]) == (ref.label, ref.cost)
        return engine

    def test_node_count(self):
        tree = spine_tree(32767, 5)
        assert len(tree[0]) == 65535
        engine = self.round_trip(pool_of([leaf(1), tree], 5), 1)
        # splits 0..32667, then the leaf of class 32667 % 5, plus one centroid
        assert engine.predict([100.5]) == (2, 32670)
        # one node past the field: a leaf no node reaches
        wide = tuple(col + [0] for col in tree)
        with pytest.raises(CapacityError, match="^node count 65536 outside the uint16 field$"):
            pool_of([leaf(1), wide], 5)

    def test_class_count(self):
        engine = self.round_trip(pool_of([leaf(65534)], 65535), 0)
        assert engine.n_classes == 65535 and engine.predict([0.0]) == (65534, 2)
        with pytest.raises(CapacityError, match="^class count 65536 outside the uint16 field$"):
            pool_of([leaf(0)], 65536)

    @pytest.mark.parametrize("retained", [65535, 65536])
    def test_retained_classifiers(self, retained):
        # k = 2 clusters of J = 32 768 distinct single-leaf trees: at 65 535
        # the rows are trees 0..32 767 and 32 767..65 534, sharing one
        j = 32768
        pool = pool_of([leaf(t % 2) for t in range(retained)], 2)
        ensembles = np.arange(j) + np.array([[0], [retained - j]])
        s = Standardizer(np.zeros(1, np.float32), np.ones(1, np.float32))
        cm = CompetenceModel(KMeansModel(np.array([[-1.0], [1.0]], np.float32), 0.0, 0),
                             ensembles.astype(np.uint16))
        if retained == 65536:
            with pytest.raises(CapacityError,
                               match="^65536 retained classifiers exceed the u16 limit$"):
                export_tiny(s, cm, pool)
            return
        engine = load_tiny(export_tiny(s, cm, pool)[0])
        assert engine.pool_size == 65535
        for x in (-1.0, 1.0):
            ref = des_clustering_predict(cm, pool, np.array([x], np.float32))
            assert engine.predict([x]) == (ref.label, ref.cost)


def random_tree(rng, nf, n_classes, depth):
    """A random preorder tree whose thresholds are multiples of 1/4."""
    feat, thr, jump = [], [], []

    def grow(d):
        pos = len(feat)
        if d == 0 or rng.rand() < 0.25:
            feat.append(-1)
            thr.append(0.0)
            jump.append(rng.randint(n_classes))
            return
        feat.append(rng.randint(nf))
        thr.append(rng.randint(-8, 9) / 4)
        jump.append(0)
        grow(d - 1)
        jump[pos] = len(feat)
        grow(d - 1)

    grow(depth)
    return Tree(np.array(feat, np.int16), np.array(thr, np.float32), np.array(jump, np.uint16))


def distinct_rows(rng, k, j, pool_size):
    """k random ensembles of j distinct trees each, as export writes them."""
    rows = [np.sort(rng.permutation(pool_size)[:j]) for _ in range(k)]
    return np.array(rows, np.uint16)


def des_answer(cm, pool, x):
    """``des_clustering_predict``'s (label, cost) for the standardized x,
    after checking that the per-query oracle gives the same."""
    got, want = des_clustering_predict(cm, pool, x), des_clustering_oracle(cm, pool, x)
    assert (got.label, got.cost) == (want.label, want.cost)
    return got.label, got.cost


def pinned_probes():
    """300 Gaussian probes for the ``trained`` model, then rows with +-inf,
    NaN and values whose float32 squares overflow."""
    rng = np.random.RandomState(29)
    probes = rng.randn(300, 8).astype(np.float32) * 3
    special = []
    for value in (np.inf, -np.inf, np.nan, 1e20, -1e20, 3e38):
        for col in (0, 3, 7):
            x = probes[col].copy()
            x[col] = value
            special.append(x)
    return np.vstack([probes, special])


# crc32 of the (label, cost) pairs, as little-endian int32, that the engine
# gave on ``pinned_probes`` while it still walked the numpy node arrays
PINNED_ANSWERS_CRC = 0xAC45ABDD


class TestTinyPredict:
    def test_single_leaf_cost(self):
        s, cm, pool = minimal_model()
        blob, _ = export_tiny(s, cm, pool)
        e = load_tiny(blob)
        label, cost = tiny_predict(e, [7.0, -2.0])
        assert label == 3
        assert cost == 1 + 1  # one node + one centroid distance

    def test_shape_error(self):
        s, cm, pool = minimal_model()
        e = load_tiny(export_tiny(s, cm, pool)[0])
        with pytest.raises(ShapeError):
            tiny_predict(e, [1.0, 2.0, 3.0])

    def test_differential_vs_reference(self, trained):
        p = trained
        blob, _ = export_tiny(p["standardizer"], p["cm"], p["pool"])
        engine = load_tiny(blob)
        rng = np.random.RandomState(3)
        probes = rng.randn(500, 8).astype(np.float32) * 4
        mismatches = 0
        for x in probes:
            ref = des_clustering_predict(p["cm"], p["pool"],
                                         apply_standardizer(p["standardizer"], x))
            lab, cost = tiny_predict(engine, x)
            if lab != ref.label or cost != ref.cost:
                mismatches += 1
        assert mismatches == 0

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nf=st.integers(1, 4), n_classes=st.integers(1, 4),
           k=st.integers(1, 3), j=st.integers(1, 4), pool_size=st.integers(1, 5))
    def test_edge_probes_match_reference(self, seed, nf, n_classes, k, j, pool_size):
        rng = np.random.RandomState(seed)
        trees = tuple(random_tree(rng, nf, n_classes, 4) for _ in range(pool_size))
        pool = pool_of(trees, n_classes)
        # every probe below standardizes exactly: dyadic means, power-of-two scales
        s = Standardizer(rng.randint(-4, 5, nf) / 2, 2.0 ** rng.randint(-2, 3, nf))
        centroids = (rng.randint(-8, 9, (k, nf)) / 4).astype(np.float32)
        ensembles = distinct_rows(rng, k, min(j, pool_size), pool_size)
        cm = CompetenceModel(KMeansModel(centroids, 0.0, 0), ensembles)
        engine = load_tiny(export_tiny(s, cm, pool)[0])
        grid = np.unique(np.concatenate([t.threshold for t in trees] + [centroids.ravel()]))
        exact = [rng.choice(grid, nf).astype(np.float32) for _ in range(12)]  # on thresholds
        exact += [(centroids[a] + centroids[b]) / 2  # equidistant from two centroids
                  for a in range(k) for b in range(a + 1, k)]
        probes = [z / s.inv_std + s.mean for z in exact]
        for z, x in zip(exact, probes):
            np.testing.assert_array_equal(apply_standardizer(s, x), z)
        # besides the extremes: -0.0, a float32 subnormal, and one float32 ulp
        # either side of the raw value that standardizes onto a root's threshold
        edges = [(rng.randint(nf), value)
                 for value in (np.inf, -np.inf, np.nan, 1e20, -1e20, 3e38, -0.0, 1e-45)]
        for t in trees:
            f = int(t.feature[0])
            if f >= 0:
                at = t.threshold[0] / s.inv_std[f] + s.mean[f]
                edges += [(f, np.nextafter(at, np.float32(side))) for side in (-np.inf, np.inf)]
        for col, value in edges:
            x = probes[0].copy()
            x[col] = value
            probes.append(x)
        for x in probes:
            assert engine.predict(x) == des_answer(cm, pool, apply_standardizer(s, x))

    def test_pinned_answers(self, trained):
        p = trained
        engine = load_tiny(export_tiny(p["standardizer"], p["cm"], p["pool"])[0])
        answers = [engine.predict(x) for x in pinned_probes()]
        assert zlib.crc32(np.array(answers, dtype="<i4").tobytes()) == PINNED_ANSWERS_CRC
        for x, got in zip(pinned_probes(), answers):
            ref = des_clustering_predict(p["cm"], p["pool"],
                                         apply_standardizer(p["standardizer"], x))
            assert got == (ref.label, ref.cost)

    def test_shared_engine_is_safe(self, trained):
        # the engine is frozen and each probe allocates its own temporaries,
        # so two threads may share one; a short switch interval makes the
        # threads interleave inside probes
        p = trained
        engine = load_tiny(export_tiny(p["standardizer"], p["cm"], p["pool"])[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            engine.k = 1
        probes = list(pinned_probes()) * 3
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as threads:
                answers = list(threads.map(engine.predict, probes, timeout=60))
        finally:
            sys.setswitchinterval(old)
        for x, got in zip(probes, answers):
            ref = des_clustering_predict(p["cm"], p["pool"],
                                         apply_standardizer(p["standardizer"], x))
            assert got == (ref.label, ref.cost)

    def test_answers_do_not_depend_on_probe_order(self, trained):
        # two engines take the same probes, shuffled and interleaved: an
        # answer that read state left in the scratch buffers by an earlier
        # probe would differ from the reference
        p = trained
        models = [build_competence_model(p["dsel"], p["kmeans"], 5, j) for j in (1, 3)]
        engines = [load_tiny(export_tiny(p["standardizer"], cm, p["pool"])[0]) for cm in models]
        probes = pinned_probes()
        order = np.random.RandomState(17).permutation(len(models) * len(probes))
        for m, i in zip(order % len(models), order // len(models)):
            ref = des_clustering_predict(models[m], p["pool"],
                                         apply_standardizer(p["standardizer"], probes[i]))
            assert engines[m].predict(probes[i]) == (ref.label, ref.cost)

    def test_centroid_near_tie_matches_reference(self):
        s, cm, pool, probe = near_tie_model()
        engine = load_tiny(export_tiny(s, cm, pool)[0])
        ref = des_clustering_predict(cm, pool, apply_standardizer(s, probe))
        assert ref.label == 1
        assert tiny_predict(engine, probe) == (ref.label, ref.cost)

    def test_mean_cost_grows_with_j(self, trained):
        p = trained
        costs = {}
        for j in (1, 3):
            cm = build_competence_model(p["dsel"], p["kmeans"], 5, j)
            engine = load_tiny(export_tiny(p["standardizer"], cm, p["pool"])[0])
            rng = np.random.RandomState(5)
            probes = rng.randn(300, 8).astype(np.float32)
            costs[j] = np.mean([engine.predict(x)[1] for x in probes])
        assert costs[1] < costs[3]


HAVE_CC = shutil.which("gcc") or shutil.which("cc")

DRIVER = r"""
#include <stdio.h>
#include <stdlib.h>

extern int tinydes_predict(const float* x);

int main(int argc, char** argv)
{
    FILE* f;
    float x[NF];
    if (argc != 2) return 2;
    f = fopen(argv[1], "rb");
    if (!f) return 3;
    while (fread(x, sizeof(float), NF, f) == NF) {
        printf("%d\n", tinydes_predict(x));
    }
    fclose(f);
    return 0;
}
"""


def compile_and_run(tmp_path, source, probes):
    cc = shutil.which("gcc") or shutil.which("cc")
    model_c = tmp_path / "model.c"
    model_c.write_text(source)
    driver_c = tmp_path / "driver.c"
    driver_c.write_text(DRIVER.replace("NF", str(probes.shape[1])))
    exe = tmp_path / "runner"
    subprocess.run(
        [cc, "-std=c89", "-pedantic", "-Wall", "-Wextra", "-Werror", "-O2",
         str(model_c), str(driver_c), "-o", str(exe)],
        check=True, capture_output=True)
    probe_file = tmp_path / "probes.bin"
    probe_file.write_bytes(probes.astype("<f4").tobytes())
    out = subprocess.run([str(exe), str(probe_file)], check=True,
                         capture_output=True, text=True)
    return [int(line) for line in out.stdout.split()]


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
class TestEmitStaticSource:
    def test_single_leaf_constant_function(self, tmp_path):
        s, cm, pool = minimal_model()
        blob, _ = export_tiny(s, cm, pool)
        source = emit_static_source(blob)
        assert "int tinydes_predict(const float* x)" in source
        probes = np.random.RandomState(0).randn(20, 2).astype(np.float32)
        assert compile_and_run(tmp_path, source, probes) == [3] * 20

    def test_differential_100_probes(self, tmp_path, trained):
        p = trained
        blob, _ = export_tiny(p["standardizer"], p["cm"], p["pool"])
        engine = load_tiny(blob)
        source = emit_static_source(blob)
        rng = np.random.RandomState(11)
        probes = rng.randn(100, 8).astype(np.float32) * 3
        got = compile_and_run(tmp_path, source, probes)
        want = [tiny_predict(engine, x)[0] for x in probes]
        assert got == want

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the C sums centroid distances "
                                           "in feature order, the engine pairwise")
    def test_centroid_near_tie_matches_engine(self, tmp_path):
        s, cm, pool, probe = near_tie_model()
        blob, _ = export_tiny(s, cm, pool)
        got = compile_and_run(tmp_path, emit_static_source(blob), probe[None])
        assert got == [tiny_predict(load_tiny(blob), probe)[0]]

    def test_array_bytes_match_manifest_rom(self, trained):
        p = trained
        blob, manifest = export_tiny(p["standardizer"], p["cm"], p["pool"])
        e = load_tiny(blob)
        # sizeof accounting of the emitted arrays
        emitted = (4 * 2 * e.n_features            # mean + inv_std
                   + 4 * e.k * e.n_features        # centroids
                   + 2 * e.k * e.j                 # ensembles
                   + 8 * e.pool_size               # tree offsets (u32 stored as long)
                   + 8 * len(e.walk_feature))      # 2 + 4 + 2 per node
        rom = int(next(line.split(" = ")[1] for line in manifest.splitlines()
                       if line.startswith("rom_estimate_bytes")))
        # manifest counts the 24-byte header and 6-byte directory entries;
        # the source stores offsets as wider integers. Allow that slack.
        assert abs(emitted - rom) <= 24 + 2 * e.pool_size + 3

