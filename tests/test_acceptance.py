"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 2 reproduce published full-scale numbers and need the MNIST
IDX training pair on disk (see README: data/mnist/ or TINYDES_MNIST_DIR).
They skip, loudly, when the files are absent. Everything else runs on
synthetic or hand-built fixtures.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from tinydes import bench
from tinydes.bench import DatasetSpec, ExperimentConfig, run_experiment
from tinydes.cluster import fit_kmeans
from tinydes.data import apply_standardizer
from tinydes.errors import TinyDesError
from tinydes.selection import (build_competence_model, des_clustering_predict,
                               knora_e_batch, static_selection)
from tinydes.tinyformat import emit_static_source, export_tiny, load_tiny, tiny_predict

from conftest import (build_pipeline, import_perfbench, make_blobs, mnist_paths,
                      record_criterion, record_skip, shared_inputs)
from selection_oracle import brute_force_competence, oracle_accuracy
from test_selection import constant_pool, dsel_from_correctness
from test_tinyformat import HAVE_CC, compile_and_run


MNIST = mnist_paths()


def mnist_config(**over):
    base = dict(
        datasets=(DatasetSpec(name="mnist", images=MNIST[0], labels=MNIST[1]),)
        if MNIST else (),
        methods=("single_best", "static_selection", "des_clustering", "oracle"),
        j_values=(5, 10, 15, 20),
        k_clusters=5,
        k_neighbors=7,
        n_acc=None,  # ceil(45/2) = 23
        pct_static=0.5,
        n_splits=5,
        n_repeats=2,
        dsel_fraction=0.5,
        seed=42,
        profile="full",
    )
    base.update(over)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def mnist_full_table():
    cfg = mnist_config()
    t0 = time.perf_counter()
    table = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return table, elapsed


def row_acc(table, method, params=""):
    row = next(r for r in table.rows if r.method == method and r.params == params)
    assert row.status == "ok", row.error
    return row.mean_accuracy


class TestCriterion1FullMnist:
    @pytest.mark.skipif(MNIST is None, reason="MNIST IDX pair not available")
    def test_full_mnist_reproduction(self, mnist_full_table):
        table, elapsed = mnist_full_table
        sb = row_acc(table, "single_best")
        dc20 = row_acc(table, "des_clustering", "J=20")
        orc = row_acc(table, "oracle")
        ok = (abs(sb - 0.763) <= 0.05 and abs(dc20 - 0.926) <= 0.04
              and abs(orc - 0.999) <= 0.005)
        record_criterion(
            "C1 full-MNIST reproduction",
            ok,
            f"single_best={sb:.3f} (target 0.763±0.05), "
            f"DESC_20={dc20:.3f} (0.926±0.04), oracle={orc:.4f} (0.999±0.005), "
            f"elapsed {elapsed:.0f}s")

    def test_skip_note(self):
        if MNIST is None:
            record_skip("C1 full-MNIST reproduction",
                        "MNIST IDX files not present (set TINYDES_MNIST_DIR)")


class TestCriterion2Monotonicity:
    @pytest.mark.skipif(MNIST is None, reason="MNIST IDX pair not available")
    def test_full_mnist_j_trend(self, mnist_full_table):
        table, _ = mnist_full_table
        accs = [row_acc(table, "des_clustering", f"J={j}") for j in (5, 10, 15, 20)]
        gaps = np.diff(accs)
        ok = bool((gaps >= -0.002).all())
        record_criterion(
            "C2a full-MNIST J monotonicity",
            ok,
            "DESC accuracies " + " -> ".join(f"{a:.4f}" for a in accs))

    @pytest.mark.skipif(MNIST is None, reason="MNIST IDX pair not available")
    def test_desk_scale_j_trend(self):
        cfg = mnist_config(profile="desk-scale", methods=("des_clustering",), j_values=(5, 20))
        t0 = time.perf_counter()
        table = run_experiment(cfg)
        elapsed = time.perf_counter() - t0
        a5 = row_acc(table, "des_clustering", "J=5")
        a20 = row_acc(table, "des_clustering", "J=20")
        ok = a5 < a20 and elapsed <= 120
        record_criterion(
            "C2b desk-scale J trend",
            ok,
            f"DESC_5={a5:.4f} < DESC_20={a20:.4f}, elapsed {elapsed:.0f}s (limit 120)")

    def test_skip_note(self):
        if MNIST is None:
            record_skip("C2 J monotonicity (full + desk-scale)",
                        "MNIST IDX files not present (set TINYDES_MNIST_DIR)")


class TestCriterion2gGeneratedPixels:
    def test_generated_pixel_j_trend(self, tmp_path):
        # the paper's claim that a larger ensemble buys accuracy at a higher
        # cost, on the benchmark's seeded MNIST-shaped pixels at desk scale
        datagen = import_perfbench("datagen")
        images, labels = tmp_path / "images-idx3-ubyte", tmp_path / "labels-idx1-ubyte"
        datagen.write_idx_pair(*datagen.pixel_dataset(1), images, labels)
        cfg = mnist_config(
            datasets=(DatasetSpec(name="pixels", images=str(images), labels=str(labels)),),
            methods=("des_clustering",), n_splits=2, n_repeats=1, profile="desk-scale")
        table = run_experiment(cfg)
        params = [f"J={j}" for j in cfg.j_values]
        accs = [row_acc(table, "des_clustering", p) for p in params]
        costs = [next(r.mean_cost for r in table.rows if r.params == p) for p in params]
        ok = all(a < b for a, b in zip(accs, accs[1:])) and \
            all(a < b for a, b in zip(costs, costs[1:]))
        record_criterion(
            "C2g generated-pixel J trend",
            ok,
            "DESC accuracies " + " < ".join(f"{a:.4f}" for a in accs)
            + "; mean cost " + " < ".join(f"{c:.1f}" for c in costs))


class TestCriterion3StaticCardinality:
    def test_static_selects_22_of_45(self):
        rng = np.random.RandomState(0)
        dsel = dsel_from_correctness(rng.rand(45, 200) > 0.4)
        sel = static_selection(dsel, 0.5)
        record_criterion("C3 static selection cardinality",
                         sel.shape == (22,) and np.unique(sel).size == 22,
                         f"pool 45, pct 0.5 -> {sel.shape[0]} classifiers (expected 22)")


@pytest.fixture(scope="module")
def cost_system():
    """45-tree pool + competence structures on a synthetic image-like set."""
    data = make_blobs(n_per_class=400, n_features=24, n_classes=5, seed=42, spread=2.0)
    return build_pipeline(data, forests=((25, 10), (20, 5)), k=5, n_acc=23, j=20,
                          seed=101)


class TestCriterion4CostMonotonicity:
    def test_engine_cost_strictly_increasing_in_j(self, cost_system):
        p = cost_system
        rng = np.random.RandomState(7)
        probes = (rng.randn(1000, 24) * 2).astype(np.float32)
        means = []
        for j in (5, 10, 15, 20):
            cm = build_competence_model(p["dsel"], p["kmeans"], 23, j)
            engine = load_tiny(export_tiny(p["standardizer"], cm, p["pool"])[0])
            costs = np.array([engine.predict(x)[1] for x in probes])
            means.append(costs.mean())
        ok = all(a < b for a, b in zip(means, means[1:]))
        record_criterion(
            "C4 cost monotonicity across J",
            ok,
            "mean node-visit cost " + " < ".join(f"{m:.1f}" for m in means))


class TestCriterion5OracleDominance:
    def test_dominance_per_fold_and_equivalence(self, tmp_path):
        from test_bench import write_blob_csv
        csv = write_blob_csv(tmp_path / "b.csv", n_per_class=70, n_features=6,
                             n_classes=3, seed=13)
        cfg = ExperimentConfig(
            datasets=(DatasetSpec(name="b", csv=str(csv), label_column=-1),),
            methods=("single_best", "static_selection", "knora_u", "knora_e",
                     "des_clustering", "oracle"),
            j_values=(2, 3), k_clusters=3, k_neighbors=5, n_acc=5,
            n_splits=2, n_repeats=1, seed=3, forests=((4, 4), (3, 2)))
        table = run_experiment(cfg)
        by_fold = {}
        for fr in table.fold_records:
            by_fold.setdefault((fr.repeat, fr.fold), {})[(fr.method, fr.params)] = fr.accuracy
        dominated = all(
            cell[("oracle", "")] >= acc
            for cell in by_fold.values() for acc in cell.values())

        # definition equivalence on an independent fixture: a crossval fold's
        # oracle row against a column-any of one predict_tree walk per pair
        train = make_blobs(n_per_class=50, n_features=5, n_classes=4, seed=21)
        test = make_blobs(n_per_class=30, n_features=5, n_classes=4, seed=22)
        one = replace(cfg, methods=("oracle",))
        [record] = bench._evaluate_fold(one, train, test, 9)
        orc = record.accuracy
        s, pool, _ = bench.fit_pool(train, one.dsel_fraction, one.forests, 9)
        equivalent = orc == oracle_accuracy(pool, test, s)
        record_criterion(
            "C5 oracle dominance and equivalence",
            dominated and equivalent,
            f"dominates on {len(by_fold)} folds x {len(cfg.methods) + 1} methods; "
            f"column-any equivalence exact ({orc:.4f})")


class TestCriterion6RoundTrip:
    def test_tiny_matches_reference_on_1e4_probes(self, cost_system):
        p = cost_system
        cm = p["cm"]
        engine = load_tiny(export_tiny(p["standardizer"], cm, p["pool"])[0])
        rng = np.random.RandomState(99)
        n = 10_000
        probes = (rng.randn(n, 24) * 3).astype(np.float32)
        mismatches = 0
        for x in probes:
            ref = des_clustering_predict(cm, p["pool"],
                                         apply_standardizer(p["standardizer"], x))
            if tiny_predict(engine, x)[0] != ref.label:
                mismatches += 1
        record_criterion("C6 round-trip fidelity (10^4 probes)",
                         mismatches == 0, f"{mismatches} mismatches / {n}")


class TestCriterion7BruteForceSelection:
    def test_competence_model_matches_exhaustive(self):
        rng = np.random.RandomState(5)
        failures = 0
        trials = 120
        for trial in range(trials):
            pool_size = rng.randint(2, 7)       # <= 6
            n_acc = rng.randint(1, min(pool_size, 4) + 1)  # <= 4
            j = rng.randint(1, min(n_acc, 3) + 1)          # <= 3
            k = rng.randint(1, 4)
            m = rng.randint(max(k, 6), 25)
            samples = rng.randn(m, 2).astype(np.float32)
            corr = rng.rand(pool_size, m) > rng.uniform(0.2, 0.7)
            dsel = dsel_from_correctness(corr, samples=samples)
            km = fit_kmeans(samples, k, seed=trial)
            got = build_competence_model(dsel, km, n_acc, j).per_cluster_ensemble
            want = brute_force_competence(dsel, km, n_acc, j)
            if not np.array_equal(got, want):
                failures += 1
        record_criterion("C7 brute-force selection oracle",
                         failures == 0, f"{failures} mismatches / {trials} instances")


class TestCriterion8KnoraESemantics:
    def test_three_fixture_families(self):
        def knora_e_one(dsel, classes, k):
            """One-row knora_e_batch call at query 0.0: (label, cost, selected
            classifiers). Its second run gives classifier c 2**c visits, so the
            cost spells out the selected set in binary."""
            pool = constant_pool(classes)
            x = np.zeros((1, 1), np.float32)
            regions, preds, visits = shared_inputs(pool, x, dsel, k)
            labels, costs = knora_e_batch(dsel, pool, regions, preds, visits)
            bits = (1 << np.arange(pool.pool_size, dtype=np.int64))[:, None]
            _, mask = knora_e_batch(dsel, pool, regions, preds, bits)
            chosen = [c for c in range(pool.pool_size) if int(mask[0]) >> c & 1]
            return int(labels[0]), int(costs[0]), chosen

        samples = np.arange(5, dtype=np.float32).reshape(5, 1)  # query 0 orders 0..4
        ok = True
        details = []

        # local Oracle exists at full region size
        corr = np.zeros((3, 5), bool)
        corr[1] = True
        dsel = dsel_from_correctness(corr, samples=samples)
        ok &= knora_e_one(dsel, [0, 2, 1], k=5) == (2, 1, [1])
        details.append("oracle-exists")

        # shrink once: classifier 0 fails only the farthest of 3 neighbors
        corr = np.array([[1, 1, 0, 0, 0],
                         [0, 1, 1, 0, 0]], bool)
        dsel = dsel_from_correctness(corr, samples=samples)
        ok &= knora_e_one(dsel, [3, 1], k=3) == (3, 1, [0])
        details.append("shrink-once")

        # shrink to empty: nobody ever correct -> whole pool majority
        corr = np.zeros((4, 5), bool)
        dsel = dsel_from_correctness(corr, samples=samples)
        ok &= knora_e_one(dsel, [2, 0, 2, 1], k=5) == (2, 4, [0, 1, 2, 3])
        details.append("shrink-to-empty->whole-pool")

        record_criterion("C8 KNORA-E selection semantics", ok, ", ".join(details))


class TestCriterion9FormatRobustness:
    def test_fuzz_100k_loads(self, cost_system):
        p = cost_system
        cm_small = build_competence_model(p["dsel"], p["kmeans"], 4, 2)
        blob, _ = export_tiny(p["standardizer"], cm_small, p["pool"])
        import struct
        import zlib

        rng = np.random.RandomState(0)
        n_trials = 100_000
        untyped = 0
        loaded_ok = 0
        for trial in range(n_trials):
            mode = trial % 5
            buf = bytearray(blob)
            if mode == 0:  # truncate
                buf = buf[: rng.randint(0, len(buf) + 1)]
            elif mode == 1:  # random bit flips
                for _ in range(rng.randint(1, 9)):
                    buf[rng.randint(0, len(buf))] ^= 1 << rng.randint(0, 8)
            elif mode == 2:  # random garbage
                buf = bytearray(rng.bytes(rng.randint(0, 4 * len(blob))))
            elif mode == 3:  # header field scribble with CRC fixed up
                off = rng.randint(4, 28)
                struct.pack_into("<I", buf, min(off, len(buf) - 8),
                                 int(rng.randint(0, 1 << 31)))
                body = bytes(buf[:-4])
                buf = bytearray(body + struct.pack("<I", zlib.crc32(body)))
            else:  # section scribble with CRC fixed up
                off = rng.randint(24, len(buf) - 5)
                buf[off : off + 2] = rng.bytes(2)
                body = bytes(buf[:-4])
                buf = bytearray(body + struct.pack("<I", zlib.crc32(body)))
            try:
                engine = load_tiny(bytes(buf))
                loaded_ok += 1
                engine.predict(np.zeros(engine.n_features, np.float32))
            except TinyDesError:
                pass
            except Exception:  # noqa: BLE001 - the criterion counts these
                untyped += 1
        record_criterion(
            "C9 format robustness (10^5 fuzzed loads)",
            untyped == 0,
            f"{n_trials} buffers, {untyped} untyped failures, "
            f"{loaded_ok} survivors predicted safely")


class TestCriterion10EmittedSourceDifferential:
    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
    def test_ten_models_hundred_probes(self, tmp_path):
        rng = np.random.RandomState(31)
        mismatches = 0
        total = 0
        for trial in range(10):
            nf = int(rng.randint(3, 9))
            classes = int(rng.randint(2, 5))
            data = make_blobs(n_per_class=40 + 10 * trial, n_features=nf,
                              n_classes=classes, seed=trial, spread=1.5)
            p = build_pipeline(
                data,
                forests=((int(rng.randint(2, 5)), int(rng.randint(2, 5))),
                         (int(rng.randint(2, 4)), 2)),
                k=int(rng.randint(1, 4)), n_acc=4, j=int(rng.randint(1, 4)),
                seed=trial * 7 + 1)
            blob, _ = export_tiny(p["standardizer"], p["cm"], p["pool"])
            engine = load_tiny(blob)
            source = emit_static_source(blob)
            probes = (rng.randn(100, nf) * 2).astype(np.float32)
            work = tmp_path / f"m{trial}"
            work.mkdir()
            got = compile_and_run(work, source, probes)
            want = [tiny_predict(engine, x)[0] for x in probes]
            total += len(probes)
            mismatches += sum(g != w for g, w in zip(got, want))
        record_criterion(
            "C10 emitted C source differential",
            mismatches == 0,
            f"10 models x 100 probes, {mismatches} mismatches / {total}")
