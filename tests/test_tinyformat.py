import shutil
import struct
import subprocess
import zlib

import numpy as np
import pytest

from tinydes.cluster import KMeansModel
from tinydes.data import Standardizer, apply_standardizer
from tinydes.errors import (CapacityError, ChecksumError, FormatError,
                            ModelCorruptError, ShapeError, TinyDesError)
from tinydes.selection import (CompetenceModel, build_competence_model,
                               des_clustering_predict)
from tinydes.tinyformat import (_check_node_layout, emit_static_source,
                                export_tiny, load_tiny, tiny_predict)
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
