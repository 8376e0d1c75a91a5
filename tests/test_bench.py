import re
from types import SimpleNamespace

import numpy as np
import pytest

from tinydes import _kernels, bench
from tinydes.bench import (DatasetSpec, ExperimentConfig, config_from_text,
                           config_to_text, desk_scale_subset, emit_report,
                           measure_inference, run_experiment)
from tinydes.data import Dataset
from tinydes.errors import IoError, NondeterminismError
from tinydes.tinyformat import export_tiny, load_tiny

from conftest import build_pipeline, make_blobs


def write_blob_csv(path, n_per_class=60, n_features=6, n_classes=3, seed=0):
    data = make_blobs(n_per_class, n_features, n_classes, seed)
    lines = []
    for i in range(data.n_samples):
        cells = [f"{v:.6g}" for v in data.features[i]] + [str(int(data.labels[i]))]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return write_blob_csv(tmp_path_factory.mktemp("ds") / "blobs.csv")


def small_config(csv_path, out_dir, **over):
    base = dict(
        datasets=(DatasetSpec(name="blobs", csv=str(csv_path), label_column=-1),),
        methods=("single_best", "static_selection", "knora_u", "knora_e",
                 "des_clustering", "oracle"),
        j_values=(2, 4),
        k_clusters=3,
        k_neighbors=5,
        n_acc=5,
        pct_static=0.5,
        n_splits=2,
        n_repeats=1,
        dsel_fraction=0.5,
        seed=7,
        out_dir=str(out_dir),
        forests=((4, 4), (3, 2)),
        profile="desk-scale",
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestConfigSerialization:
    def test_round_trip_stable(self, csv_path, tmp_path):
        cfg = small_config(csv_path, tmp_path)
        text = config_to_text(cfg)
        again = config_from_text(text)
        assert again == cfg
        assert config_to_text(again) == text

    def test_bad_line(self):
        with pytest.raises(IoError):
            config_from_text("not a config line\n")


@pytest.fixture(scope="module")
def table(csv_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("rep")
    cfg = small_config(csv_path, out)
    return run_experiment(cfg), cfg, out


class TestRunExperiment:
    def test_all_methods_present(self, table):
        t, cfg, _ = table
        keys = {(r.method, r.params) for r in t.rows}
        assert ("single_best", "") in keys
        assert ("oracle", "") in keys
        assert ("des_clustering", "J=2") in keys
        assert ("des_clustering", "J=4") in keys
        assert ("knora_u", "k=5") in keys
        assert all(r.status == "ok" for r in t.rows)
        assert all(r.n_folds == 2 for r in t.rows)

    def test_oracle_dominates(self, table):
        t, _, _ = table
        oracle = next(r for r in t.rows if r.method == "oracle")
        for r in t.rows:
            if r.method != "oracle":
                assert oracle.mean_accuracy >= r.mean_accuracy - 1e-12
        # fold level, exact
        by_fold = {}
        for fr in t.fold_records:
            by_fold.setdefault((fr.repeat, fr.fold), {})[(fr.method, fr.params)] = fr.accuracy
        for cell in by_fold.values():
            orc = cell[("oracle", "")]
            assert all(orc >= v for v in cell.values())

    def test_same_pool_fingerprint_per_fold(self, table):
        t, _, _ = table
        by_fold = {}
        for fr in t.fold_records:
            by_fold.setdefault((fr.repeat, fr.fold), set()).add(fr.pool_fingerprint)
        for prints in by_fold.values():
            assert len(prints) == 1

    def test_deterministic_reports(self, csv_path, tmp_path):
        cfg1 = small_config(csv_path, tmp_path / "a", methods=("single_best", "oracle"),
                            j_values=(2,))
        cfg2 = small_config(csv_path, tmp_path / "b", methods=("single_best", "oracle"),
                            j_values=(2,))
        p1 = emit_report(run_experiment(cfg1), tmp_path / "a")
        p2 = emit_report(run_experiment(cfg2), tmp_path / "b")
        for name in ("results.csv", "folds.csv", "accuracy_table.txt", "cost_table.txt"):
            a = open(p1[name], "rb").read()
            b = open(p2[name], "rb").read()
            assert a == b, f"{name} differs between identical runs"

    def test_seed_isolation_across_dataset_lists(self, csv_path, tmp_path):
        other = write_blob_csv(tmp_path / "other.csv", seed=9)
        solo = small_config(csv_path, tmp_path / "s", methods=("single_best",), j_values=(2,))
        both = small_config(csv_path, tmp_path / "d", methods=("single_best",), j_values=(2,))
        both = ExperimentConfig(**{**both.__dict__,
                                   "datasets": both.datasets + (
                                       DatasetSpec(name="other", csv=str(other),
                                                   label_column=-1),)})
        t1 = run_experiment(solo)
        t2 = run_experiment(both)
        rows1 = [(fr.repeat, fr.fold, fr.accuracy, fr.pool_fingerprint)
                 for fr in t1.fold_records if fr.dataset == "blobs"]
        rows2 = [(fr.repeat, fr.fold, fr.accuracy, fr.pool_fingerprint)
                 for fr in t2.fold_records if fr.dataset == "blobs"]
        assert rows1 == rows2

    def test_desk_scale_subset_stratified(self):
        data = make_blobs(n_per_class=300, n_features=4, n_classes=3, seed=4)
        sub = desk_scale_subset(data, 90, seed=1)
        assert sub.n_samples == 90
        assert np.bincount(sub.labels).tolist() == [30, 30, 30]
        assert desk_scale_subset(data, 5000, seed=1) is data


def count_distance_calls(monkeypatch):
    calls = []
    real = _kernels.pairwise_sqdist

    def counting(Q, D):
        calls.append(Q.shape[0])
        return real(Q, D)

    monkeypatch.setattr(_kernels, "pairwise_sqdist", counting)
    return calls


class TestSharedKnoraRegions:
    @pytest.fixture(scope="class")
    def fold_data(self):
        data = make_blobs(n_per_class=40, n_features=6, n_classes=3, seed=3)
        idx = np.arange(data.n_samples)
        return data.subset(idx[idx % 4 != 0]), data.subset(idx[idx % 4 == 0])

    @pytest.mark.parametrize("methods, searches", [
        (("knora_u", "knora_e"), 1),
        (("knora_e", "knora_u"), 1),
        (("knora_u",), 1),
        (("knora_e",), 1),
        (("single_best", "static_selection", "des_clustering", "oracle"), 0),
    ])
    def test_one_distance_search_per_fold(self, monkeypatch, tmp_path, fold_data,
                                          methods, searches):
        cfg = small_config("unused.csv", tmp_path, methods=methods)
        calls = count_distance_calls(monkeypatch)
        outcomes, _ = bench._evaluate_fold(cfg, *fold_data, 11)
        assert len(calls) == searches
        for key, oc in outcomes.items():
            assert not oc.error, key
            alone, _ = bench._evaluate_fold(
                small_config("unused.csv", tmp_path, methods=(key.partition("|")[0],)),
                *fold_data, 11)
            assert (oc.accuracy, oc.mean_cost) == (alone[key].accuracy, alone[key].mean_cost)

    def test_region_failure_fails_both_methods(self, monkeypatch, csv_path, tmp_path):
        cfg = small_config(csv_path, tmp_path, methods=("knora_u", "knora_e", "oracle"),
                           k_neighbors=1000)
        calls = count_distance_calls(monkeypatch)
        rows = {r.method: r for r in run_experiment(cfg).rows}
        assert calls == []
        assert rows["oracle"].status == "ok"
        for method in ("knora_u", "knora_e"):
            assert rows[method].status == "failed"
            assert rows[method].params == "k=1000"
            assert re.fullmatch(r"SelectionError: region size 1000 exceeds \d+ selection samples",
                                rows[method].error)


class TestEmitReport:
    def test_aggregation_recompute(self, table, tmp_path):
        t, cfg, out = table
        paths = emit_report(t, out)
        folds = {}
        with open(paths["folds.csv"]) as f:
            header = f.readline().strip().split(",")
            for line in f:
                cells = line.rstrip("\n").split(",")
                row = dict(zip(header, cells))
                key = (row["dataset"], row["method"], row["params"])
                folds.setdefault(key, []).append(float(row["accuracy"]))
        with open(paths["results.csv"]) as f:
            header = f.readline().strip().split(",")
            for line in f:
                cells = line.rstrip("\n").split(",")
                row = dict(zip(header, cells))
                accs = np.array(folds[(row["dataset"], row["method"], row["params"])])
                assert float(row["mean_accuracy"]) == accs.mean()
                assert float(row["std_accuracy"]) == accs.std()

    def test_table_layout_order(self, table, tmp_path):
        t, cfg, out = table
        paths = emit_report(t, out)
        text = open(paths["accuracy_table.txt"]).read()
        order = ["Single Best", "Static Selection", "KNORA-U", "KNORA-E",
                 "DES-Clustering_2", "DES-Clustering_4", "Oracle"]
        positions = [text.index(name) for name in order]
        assert positions == sorted(positions)

    def test_timings_separate(self, table, tmp_path):
        t, _, out = table
        paths = emit_report(t, out)
        assert "timings.csv" in paths
        with open(paths["timings.csv"]) as f:
            assert "wall_per_inference_s" in f.readline()

    def test_empty_table_rejected(self, tmp_path):
        from tinydes.bench import ResultTable
        with pytest.raises(IoError):
            emit_report(ResultTable(), tmp_path)

    def test_rerun_identical(self, table, tmp_path):
        t, _, _ = table
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        p1 = emit_report(t, d1)
        p2 = emit_report(t, d2)
        for name in p1:
            assert open(p1[name], "rb").read() == open(p2[name], "rb").read()


class TestMeasureInference:
    def test_costs_stable_across_reps(self):
        data = make_blobs(n_per_class=50, n_features=5, n_classes=3, seed=2)
        p = build_pipeline(data, forests=((3, 3),), k=2, n_acc=3, j=2, seed=5)
        engine = load_tiny(export_tiny(p["standardizer"], p["cm"], p["pool"])[0])
        probes = make_blobs(n_per_class=20, n_features=5, n_classes=3, seed=6)
        stats = measure_inference(engine, probes, warmup=1, reps=3)
        assert stats["n_probes"] == probes.n_samples
        assert stats["mean_cost"] > 0
        assert stats["mean_wall_s"] > 0
        assert 0 < stats["p50_wall_s"] <= stats["p99_wall_s"]

    def test_wall_percentiles(self, monkeypatch):
        # probe i takes i + 1 us on a fake clock; reps pool their samples
        clock = [0.0]

        class SteppingEngine:
            def predict(self, x):
                clock[0] += (int(x[0]) + 1) * 1e-6
                return 0, 1

        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        probes = Dataset(np.arange(100, dtype=np.float32).reshape(100, 1),
                         np.zeros(100, np.uint16), 1)
        stats = measure_inference(SteppingEngine(), probes, warmup=0, reps=2)
        assert stats["p50_wall_s"] == pytest.approx(50.5e-6)
        assert stats["p99_wall_s"] == pytest.approx(99.01e-6)
        assert stats["mean_wall_s"] == pytest.approx(50.5e-6)

    def test_single_leaf_cost(self):
        from test_tinyformat import minimal_model
        s, cm, pool = minimal_model()
        engine = load_tiny(export_tiny(s, cm, pool)[0])
        probes = make_blobs(n_per_class=5, n_features=2, n_classes=4, seed=1)
        stats = measure_inference(engine, probes, warmup=0, reps=2)
        assert stats["mean_cost"] == 2.0 and stats["std_cost"] == 0.0

    def test_varying_cost_raises_typed_error(self):
        class DriftingEngine:
            calls = 0

            def predict(self, x):
                self.calls += 1
                return 0, self.calls

        probes = make_blobs(n_per_class=3, n_features=2, n_classes=2, seed=1)
        with pytest.raises(NondeterminismError, match="varied across reps"):
            measure_inference(DriftingEngine(), probes, warmup=0, reps=2)
