import shutil
import struct
import subprocess
import zlib

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
from tinydes.tinyformat import (HEADER, NODE_DTYPE, _check_node_layout,
                                emit_static_source, export_tiny, load_tiny,
                                tiny_predict)
from tinydes.trees import ClassifierPool, DecisionTree

from conftest import build_pipeline, make_blobs


def minimal_model():
    """1 cluster, J=1, single-leaf tree, 2 features: 68 bytes total."""
    s = Standardizer(np.array([1.0, 2.0], np.float32), np.array([0.5, 0.25], np.float32))
    tree = DecisionTree(np.array([-1], np.int16), np.array([0.0], np.float32),
                        np.array([3], np.uint16), 0, 4)
    pool = ClassifierPool((tree,), ("A",), 7)
    km = KMeansModel(np.array([[0.5, -1.5]], np.float32), 1, 0.0, 1)
    cm = CompetenceModel(km, np.ones((1, 1)), np.array([[0]], np.uint16), 1, 1)
    return s, cm, pool


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
        trees = tuple(
            DecisionTree(np.array([-1], np.int16), np.array([0.0], np.float32),
                         np.array([c % 3], np.uint16), 0, 3) for c in range(5))
        pool = ClassifierPool(trees, tuple("AAAAA"), 0)
        km = KMeansModel(np.zeros((1, 1), np.float32), 1, 0.0, 0)
        cm = CompetenceModel(km, np.ones((1, 5)), np.array([[1, 4]], np.uint16), 2, 2)
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

    def test_capacity_error_many_classifiers(self):
        s, cm, pool = minimal_model()
        big = CompetenceModel(cm.kmeans, cm.per_cluster_accuracy,
                              np.array([[70000]], np.uint32).astype(np.uint32), 1, 1)
        with pytest.raises((CapacityError, ModelCorruptError)):
            export_tiny(s, big, pool)

    def test_manifest_section_sums(self, trained):
        p = trained
        blob, manifest = export_tiny(p["standardizer"], p["cm"], p["pool"])
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
    trees = tuple(DecisionTree(np.array(f, np.int16), np.array(t, np.float32),
                               np.array(j, np.uint16), 2, 3) for f, t, j in shapes)
    pool = ClassifierPool(trees, ("A", "A", "A"), 0)
    km = KMeansModel(np.zeros((1, 2), np.float32), 1, 0.0, 0)
    cm = CompetenceModel(km, np.ones((1, 3)), np.array([[0, 1, 2]], np.uint16), 3, 3)
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
    """The per-tree validation loop that ``load_tiny`` ran before its checks
    were vectorized, from the directory checks on. Returns the (type,
    message) it raises, or None when the model is accepted."""
    _, _, nf, n_classes, pool_size, _, _, n_nodes = HEADER.unpack_from(blob, 0)
    directory, nodes, _ = sections(blob)
    dir_off = directory["off"].astype(np.int64)
    dir_cnt = directory["cnt"].astype(np.int64)
    if (dir_cnt < 1).any():
        return ModelCorruptError, "empty tree in directory"
    if ((dir_off + dir_cnt) > n_nodes).any():
        return ModelCorruptError, "tree directory points past the node pool"
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
    """A pool holding, per directory entry, the trees its node range spells
    out, overlaps and all: the reference reading of any accepted model."""
    e = load_tiny(blob)
    directory, nodes, _ = sections(blob)
    trees = tuple(DecisionTree(nodes["feature"][o : o + c], nodes["threshold"][o : o + c],
                               nodes["right_jump"][o : o + c], 0, e.n_classes)
                  for o, c in directory.tolist())
    km = KMeansModel(e.centroids, e.k, 0.0, 0)
    cm = CompetenceModel(km, np.ones((e.k, e.pool_size)), e.ensembles, e.j, e.j)
    return e, cm, ClassifierPool(trees, ("A",) * len(trees), 0)


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
                    "tree directory points past the node pool")

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
    ])
    def test_overlapping_and_gapped_directories(self, directory):
        blob, _ = export_tiny(*three_tree_model())
        table, nodes, _ = sections(blob)
        table[:] = directory
        blob = with_sections(blob, table, nodes)
        assert load_outcome(blob) is None and loop_oracle(blob) is None
        e, cm, pool = directory_pool(blob)
        for x in [(a, b) for a in (-1.0, 0.0, 2.0) for b in (-2.0, 0.5, 1.0)]:
            ref = des_clustering_predict(cm, pool, np.array(x, np.float32))
            assert e.predict(x) == (ref.label, ref.cost)

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
    return DecisionTree(np.array(feat, np.int16), np.array(thr, np.float32),
                        np.array(jump, np.uint16), depth, n_classes)


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
        pool = ClassifierPool(trees, ("A",) * pool_size, 0)
        # every probe below standardizes exactly: dyadic means, power-of-two scales
        s = Standardizer(rng.randint(-4, 5, nf) / 2, 2.0 ** rng.randint(-2, 3, nf))
        centroids = (rng.randint(-8, 9, (k, nf)) / 4).astype(np.float32)
        ensembles = np.sort(rng.randint(0, pool_size, (k, j)), axis=1).astype(np.uint16)
        cm = CompetenceModel(KMeansModel(centroids, k, 0.0, 0), np.ones((k, pool_size)),
                             ensembles, j, j)
        engine = load_tiny(export_tiny(s, cm, pool)[0])
        grid = np.unique(np.concatenate([t.threshold for t in trees] + [centroids.ravel()]))
        exact = [rng.choice(grid, nf).astype(np.float32) for _ in range(12)]  # on thresholds
        exact += [(centroids[a] + centroids[b]) / 2  # equidistant from two centroids
                  for a in range(k) for b in range(a + 1, k)]
        probes = [z / s.inv_std + s.mean for z in exact]
        for z, x in zip(exact, probes):
            np.testing.assert_array_equal(apply_standardizer(s, x), z)
        for value in (np.inf, -np.inf, np.nan, 1e20, -1e20, 3e38):
            x = probes[0].copy()
            x[rng.randint(nf)] = value
            probes.append(x)
        for x in probes:
            ref = des_clustering_predict(cm, pool, apply_standardizer(s, x))
            assert engine.predict(x) == (ref.label, ref.cost)

    def test_pinned_answers(self, trained):
        p = trained
        engine = load_tiny(export_tiny(p["standardizer"], p["cm"], p["pool"])[0])
        answers = [engine.predict(x) for x in pinned_probes()]
        assert zlib.crc32(np.array(answers, dtype="<i4").tobytes()) == PINNED_ANSWERS_CRC
        for x, got in zip(pinned_probes(), answers):
            ref = des_clustering_predict(p["cm"], p["pool"],
                                         apply_standardizer(p["standardizer"], x))
            assert got == (ref.label, ref.cost)

    def test_scratch_reuse_no_model_reallocation(self, trained):
        p = trained
        engine = load_tiny(export_tiny(p["standardizer"], p["cm"], p["pool"])[0])
        sx_id = id(engine.scratch_x)
        votes_id = id(engine.scratch_votes)
        x = np.zeros(8, np.float32)
        for _ in range(50):
            engine.predict(x)
        assert id(engine.scratch_x) == sx_id
        assert id(engine.scratch_votes) == votes_id

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

    def test_array_bytes_match_manifest_rom(self, trained):
        p = trained
        blob, manifest = export_tiny(p["standardizer"], p["cm"], p["pool"])
        e = load_tiny(blob)
        # sizeof accounting of the emitted arrays
        emitted = (4 * 2 * e.n_features            # mean + inv_std
                   + 4 * e.k * e.n_features        # centroids
                   + 2 * e.k * e.j                 # ensembles
                   + 8 * e.pool_size               # tree offsets (u32 stored as long)
                   + 8 * e.node_feature.shape[0])  # 2 + 4 + 2 per node
        rom = int(next(line.split(" = ")[1] for line in manifest.splitlines()
                       if line.startswith("rom_estimate_bytes")))
        # manifest counts the 24-byte header and 6-byte directory entries;
        # the source stores offsets as wider integers. Allow that slack.
        assert abs(emitted - rom) <= 24 + 2 * e.pool_size + 3


def test_node_layout_check_raises_typed_error():
    _check_node_layout(np.dtype([("a", "<i2"), ("b", "<f4"), ("c", "<u2")]))
    with pytest.raises(FormatError, match="9 bytes"):
        _check_node_layout(np.dtype([("a", "<i2"), ("b", "<f4"), ("c", "<u2"), ("d", "u1")]))
