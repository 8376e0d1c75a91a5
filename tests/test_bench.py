import re
import string
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinydes import _kernels, bench
from tinydes._rng import derive_seed
from tinydes.bench import (DatasetSpec, ExperimentConfig, FoldRecord, ResultRow,
                           ResultTable, config_settings, config_to_text, emit_report,
                           measure_inference, run_experiment)
from tinydes.data import Dataset, load_csv, make_fold_plan
from tinydes.errors import IoError, NondeterminismError, SelectionError
from tinydes.tinyformat import export_tiny, load_tiny

from conftest import build_pipeline, desk_scale_subset, make_blobs, shared_inputs


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


# Lines config_settings rejects: a dataset key without three parts, a value
# its parser rejects, an unknown key, forests that are not n:depth pairs, an
# unknown dataset field, no "=", an empty list, an empty out_dir, and a
# dataset name with a dot (its key would have four parts).
BAD_CONFIG_LINES = ["dataset.foo = bar", "seed = abc", "k_cluster = 7", "forests = 3",
                    "dataset.a.csvv = x", "not a config line", "j_values = ,",
                    "out_dir =", "forests = 3:4:5", "dataset.a.b.csv = x"]


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


spec_names = st.text(string.ascii_letters + string.digits + "_-", min_size=1, max_size=8)
file_paths = st.text(string.ascii_letters + string.digits + "/._-", min_size=1, max_size=16)
dataset_specs = st.one_of(
    st.builds(DatasetSpec, name=spec_names, csv=file_paths,
              label_column=st.integers(-3, 20) | st.text(string.ascii_letters, min_size=1)),
    st.builds(DatasetSpec, name=spec_names, images=file_paths, labels=file_paths))
random_configs = st.builds(
    ExperimentConfig,
    # config_settings orders datasets by name
    datasets=st.lists(dataset_specs, max_size=3, unique_by=lambda d: d.name).map(
        lambda ds: tuple(sorted(ds, key=lambda d: d.name))),
    methods=st.lists(st.sampled_from(bench.METHOD_ORDER), min_size=1).map(tuple),
    j_values=st.lists(st.integers(-5, 50), min_size=1).map(tuple),
    k_clusters=st.integers(), k_neighbors=st.integers(),
    n_acc=st.none() | st.integers(),
    pct_static=st.floats(allow_nan=False), dsel_fraction=st.floats(allow_nan=False),
    n_splits=st.integers(), n_repeats=st.integers(), seed=st.integers(),
    out_dir=file_paths,
    forests=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 20)), min_size=1).map(tuple),
    profile=st.sampled_from(bench.PROFILES))


class TestConfigSerialization:
    def test_round_trip_stable(self, csv_path, tmp_path):
        cfg = small_config(csv_path, tmp_path)
        text = config_to_text(cfg)
        again = ExperimentConfig(**config_settings(text))
        assert again == cfg
        assert config_to_text(again) == text

    @settings(max_examples=200, deadline=None)
    @given(cfg=random_configs)
    def test_round_trip_random(self, cfg):
        text = config_to_text(cfg)
        assert ExperimentConfig(**config_settings(text)) == cfg
        assert config_to_text(ExperimentConfig(**config_settings(text))) == text

    def test_text_pinned(self):
        # key order and value forms of the config.txt snapshot
        assert config_to_text(small_config("data/blobs.csv", "reports")) == (
            "seed = 7\n"
            "profile = desk-scale\n"
            "methods = single_best,static_selection,knora_u,knora_e,des_clustering,oracle\n"
            "j_values = 2,4\n"
            "k_clusters = 3\n"
            "k_neighbors = 5\n"
            "n_acc = 5\n"
            "pct_static = 0.5\n"
            "n_splits = 2\n"
            "n_repeats = 1\n"
            "dsel_fraction = 0.5\n"
            "forests = 4:4,3:2\n"
            "out_dir = reports\n"
            "dataset.blobs.csv = data/blobs.csv\n"
            "dataset.blobs.label_column = -1\n")

    def test_bad_line(self):
        with pytest.raises(IoError):
            config_settings("not a config line\n")

    # the last four repeat a key, which may be given once: the line that
    # repeats it fails, whatever value it gives and whatever lies between
    @pytest.mark.parametrize("line", BAD_CONFIG_LINES + [
        "seed=3", "seed = 4",
        "dataset.a.csv = x.csv\n# dataset.a.csv = y.csv\n\ndataset.a.csv = y.csv",
        "dataset.a.label_column = 0\nk_clusters = 3\n dataset.a.label_column = 0"])
    def test_rejected_line(self, line):
        with pytest.raises(IoError) as exc:
            config_settings(f"seed = 3\n{line}\n")
        assert str(exc.value) == f"bad config line: {line.splitlines()[-1]!r}"

    def test_label_column_digits_are_an_index(self):
        assert DatasetSpec("a", csv="a.csv", label_column="-2").label_column == -2
        assert DatasetSpec("a", csv="a.csv", label_column="12").label_column == 12
        assert DatasetSpec("a", csv="a.csv", label_column="y1").label_column == "y1"

    @pytest.mark.parametrize("profile", ["fulll", "", "Full"])
    def test_unknown_profile_rejected(self, profile):
        with pytest.raises(IoError, match=f"^profile must be desk-scale or full, got {profile}$"):
            ExperimentConfig(profile=profile).validate()

    def test_smallest_forest_accepted(self):
        ExperimentConfig(forests=((1, 0),), j_values=(1,)).validate()

    @pytest.mark.parametrize("name, value, shown", [
        ("methods", ("oracle", "bogus"), "oracle,bogus"), ("methods", (), ""),
        ("j_values", (5, 0), "5,0"), ("j_values", (), ""), ("k_clusters", 0, "0"),
        ("k_neighbors", -1, "-1"), ("pct_static", 0.0, "0.0"), ("pct_static", 1.5, "1.5"),
        ("n_splits", 1, "1"), ("n_repeats", 0, "0"), ("dsel_fraction", 1.0, "1.0"),
        ("forests", ((2, 3), (0, 3)), "2:3,0:3"), ("forests", ((2, -1),), "2:-1"),
        ("forests", (), ""), ("out_dir", "", ""),
        ("methods", ("des_clustering", "des_clustering", "oracle"),
         "des_clustering,des_clustering,oracle"), ("j_values", (3, 3), "3,3")])
    def test_setting_out_of_range(self, name, value, shown):
        # the message is the setting's rule, with the value as config.txt prints it
        rule = next(s.rule for s in bench.SETTINGS if s.name == name)
        with pytest.raises(IoError) as exc:
            ExperimentConfig(**{name: value}).validate()
        assert str(exc.value) == f"{name} must be {rule}, got {shown}"

    @pytest.mark.parametrize("over, max_j, n_acc", [
        (dict(forests=((3, 2),)), 20, 2), (dict(n_acc=4, j_values=(2, 5)), 5, 4)])
    def test_j_above_n_acc_rejected_with_des_clustering(self, over, max_j, n_acc):
        with pytest.raises(IoError, match=f"^J {max_j} exceeds the accuracy shortlist "
                                          f"N_acc={n_acc}$"):
            ExperimentConfig(**over).validate()
        ExperimentConfig(**over, methods=("oracle",)).validate()

    @pytest.mark.parametrize("fields, given", [
        (dict(csv="b.csv", images="b.idx"), "csv=+images="),
        (dict(csv="b.csv", images="b.idx", labels="b.lab"), "csv=+images=+labels="),
        (dict(csv="b.csv", labels="b.lab"), "csv=+labels="),
        (dict(images="b.idx"), "images="), (dict(labels="b.lab"), "labels="), ({}, "neither"),
        # a label column is a CSV's: config_to_text would drop it from an IDX pair
        (dict(images="b.idx", labels="b.lab", label_column="3"), "label_column=+images=+labels="),
        (dict(label_column="y"), "label_column=")])
    def test_dataset_names_one_source(self, fields, given):
        # a valid dataset named first does not hide the bad one
        cfg = ExperimentConfig(datasets=(DatasetSpec("a", csv="a.csv"), DatasetSpec("b", **fields)))
        with pytest.raises(IoError) as exc:
            cfg.validate()
        assert str(exc.value) == f"dataset 'b' needs either csv= or images=+labels=, got {given}"
        ExperimentConfig(datasets=(DatasetSpec("a", csv="a.csv"),
                                   DatasetSpec("b", images="b.idx", labels="b.lab"))).validate()
        ExperimentConfig(datasets=(DatasetSpec("a", csv="a.csv", label_column="y"),
                                   DatasetSpec("b", images="b.idx", labels="b.lab",
                                               label_column="-1"))).validate()

    # a name that would add a field to a report's CSV row, split or end a
    # config.txt line, or not survive the config parser's strip
    @pytest.mark.parametrize("name", ["", "a,b", "a.b", "a=b", 'a"b', "a\rb", "a\nb", "a\x85b",
                                      " a", "a ", "\ta"])
    def test_dataset_name_rejected(self, name):
        cfg = ExperimentConfig(datasets=(DatasetSpec("a", csv="a.csv"),
                                         DatasetSpec(name, csv="b.csv")))
        with pytest.raises(IoError) as exc:
            cfg.validate()
        assert str(exc.value) == (f"dataset name {name!r} must be non-empty printable text "
                                  'without surrounding spaces or any of . , = "')

    def test_dataset_name_with_inner_space_accepted(self):
        cfg = ExperimentConfig(datasets=(DatasetSpec("my data-1_b", csv="b.csv"),))
        cfg.validate()
        assert ExperimentConfig(**config_settings(config_to_text(cfg))) == cfg

    def test_readme_table_lists_every_setting(self):
        # README's settings table: one row per SETTINGS row, in config.txt
        # order, whose Value column is the row's rule
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| Key | Value | Flag |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
        rows = [line.split(" | ") for line in table.splitlines()]
        assert [(key.strip("|` "), value) for key, value, _ in rows] == [
            (s.name, s.rule) for s in bench.SETTINGS]


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
            a = Path(p1[name]).read_bytes()
            b = Path(p2[name]).read_bytes()
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

    def test_folds_split_by_the_plan(self, tmp_path, monkeypatch):
        # one feature holding the row id, so each part's features name its
        # rows; fold (repeat, fold) tests the rows where plan[repeat] == fold
        # and trains on the rest, in row order, with its own derived seed
        n, n_splits, n_repeats = 47, 3, 2
        labels = np.arange(n) % 3
        path = tmp_path / "rows.csv"
        path.write_text("".join(f"{i},{c}\n" for i, c in enumerate(labels)))
        cfg = small_config(path, tmp_path / "r", n_splits=n_splits, n_repeats=n_repeats)
        calls = []
        monkeypatch.setattr(bench, "_evaluate_fold",
                            lambda cfg, train, test, seed: calls.append((train, test, seed)) or [])
        run_experiment(cfg)
        ds_seed = bench._dataset_seed(cfg.seed, "blobs")
        plan = make_fold_plan(cfg.datasets[0].load(), n_splits, n_repeats,
                              derive_seed(ds_seed, 0))
        assert len(calls) == n_repeats * n_splits
        for (repeat, fold), (train, test, seed) in zip(np.ndindex(n_repeats, n_splits), calls):
            assert seed == derive_seed(ds_seed, 1 + repeat * n_splits + fold)
            train_rows, test_rows = (part.features[:, 0].astype(np.int64) for part in (train, test))
            np.testing.assert_array_equal(test_rows, np.flatnonzero(plan[repeat] == fold))
            assert (np.diff(train_rows) > 0).all()
            np.testing.assert_array_equal(np.union1d(train_rows, test_rows), np.arange(n))
            assert train_rows.size + test_rows.size == n
            np.testing.assert_array_equal(train.labels, labels[train_rows])
            np.testing.assert_array_equal(test.labels, labels[test_rows])

    def test_desk_scale_subset_stratified(self, tmp_path):
        path = write_blob_csv(tmp_path / "big.csv", n_per_class=300, n_features=4, seed=4)
        sub = load_csv(path, -1, 90, seed=1)
        assert sub.n_samples == 90
        assert np.bincount(sub.labels).tolist() == [30, 30, 30]
        assert load_csv(path, -1, 5000, seed=1).n_samples == 900

    @pytest.mark.parametrize("limit", [None, 50, 180, 500])
    def test_spec_load_takes_the_desk_scale_subset(self, csv_path, tmp_path, limit):
        # each loader picks its own rows, a CSV's after parsing, an IDX
        # pair's before its pixels are converted; both must give the subset
        # of the full load
        rng = np.random.RandomState(2)
        img, lab = tmp_path / "i", tmp_path / "l"
        img.write_bytes(struct.pack(">IIII", 0x803, 180, 2, 3)
                        + rng.randint(0, 256, 180 * 6, dtype=np.uint8).tobytes())
        lab.write_bytes(struct.pack(">II", 0x801, 180)
                        + rng.randint(0, 3, 180).astype(np.uint8).tobytes())
        for spec in (DatasetSpec("c", csv=str(csv_path)),
                     DatasetSpec("i", images=str(img), labels=str(lab))):
            got = spec.load(limit, seed=9)
            want = desk_scale_subset(spec.load(), limit, seed=9)
            assert (got.n_samples < 180) == (limit is not None and limit < 180)
            assert ((got.features.tobytes(), got.labels.tobytes(), got.n_classes,
                     got.label_values)
                    == (want.features.tobytes(), want.labels.tobytes(), want.n_classes,
                        want.label_values))


class TestRowRule:
    @settings(max_examples=12, deadline=None)
    @given(failing=st.sets(st.integers(0, 2)))
    def test_a_method_failing_on_any_fold_is_one_failed_row(self, csv_path,
                                                             tmp_path_factory, failing):
        # Single Best fails on the drawn folds of a 3-fold run, each with an
        # error naming its fold seed; Oracle runs on every fold
        seeds = []
        real_fold, real_single_best = bench._evaluate_fold, bench.single_best

        def fold_spy(cfg, train, test, fold_seed):
            seeds.append(fold_seed)
            return real_fold(cfg, train, test, fold_seed)

        def failing_single_best(dsel):
            if len(seeds) - 1 in failing:
                raise SelectionError(f"fold seed {seeds[-1]}")
            return real_single_best(dsel)

        out = tmp_path_factory.mktemp("rule")
        cfg = small_config(csv_path, out, methods=("single_best", "oracle"), n_splits=3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench, "_evaluate_fold", fold_spy)
            mp.setattr(bench, "single_best", failing_single_best)
            t = run_experiment(cfg)
        paths = emit_report(t, out)

        assert sorted((r.method, r.params) for r in t.rows) == [("oracle", ""),
                                                                 ("single_best", "")]
        rows = {r.method: r for r in t.rows}
        assert rows["oracle"].status == "ok" and rows["oracle"].n_folds == 3
        sb = rows["single_best"]
        assert (sb.status == "failed") == bool(failing)
        if failing:
            assert sb.error == f"SelectionError: fold seed {seeds[max(failing)]}"
            assert (sb.n_folds, sb.model_bytes) == (0, 0)
        else:
            assert (sb.error, sb.n_folds) == ("", 3)
        ok_methods = sorted(m for m, r in rows.items() if r.status == "ok")
        for name in ("folds.csv", "timings.csv"):
            lines = Path(paths[name]).read_text().splitlines()[1:]
            assert sorted(line.split(",")[1] for line in lines) == [
                m for m in ok_methods for _ in range(3)]
        for name in ("accuracy_table.txt", "cost_table.txt"):
            [line] = [line for line in Path(paths[name]).read_text().splitlines()
                      if line.startswith("Single Best")]
            assert line.endswith(" failed") == bool(failing)


def count_distance_calls(monkeypatch):
    calls = []
    real = _kernels.pairwise_sqdist

    def counting(Q, *reference):
        calls.append(Q.shape[0])
        return real(Q, *reference)

    monkeypatch.setattr(_kernels, "pairwise_sqdist", counting)
    return calls


@pytest.fixture(scope="module")
def fold_data():
    data = make_blobs(n_per_class=40, n_features=6, n_classes=3, seed=3)
    idx = np.arange(data.n_samples)
    return data.subset(idx[idx % 4 != 0]), data.subset(idx[idx % 4 == 0])


class TestSharedKnoraRegions:
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
        records = bench._evaluate_fold(cfg, *fold_data, 11)
        assert len(calls) == searches
        for r in records:
            assert not r.error, (r.method, r.params)
            [alone] = [a for a in bench._evaluate_fold(
                small_config("unused.csv", tmp_path, methods=(r.method,)),
                *fold_data, 11) if a.params == r.params]
            assert (r.accuracy, r.mean_cost) == (alone.accuracy, alone.mean_cost)

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


class TestFoldTimings:
    def test_shared_stages_not_charged_to_a_method(self, monkeypatch, tmp_path, fold_data):
        # on a clock that only the shared region search and k-means advance,
        # no method may be charged time, whichever runs first
        clock = [0.0]

        def ticking(fn):
            def wrapped(*args):
                clock[0] += 1.0
                return fn(*args)
            return wrapped

        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(bench, "knora_regions", ticking(bench.knora_regions))
        monkeypatch.setattr(bench, "fit_kmeans", ticking(bench.fit_kmeans))
        records = bench._evaluate_fold(small_config("unused.csv", tmp_path), *fold_data, 11)
        assert clock[0] == 2.0
        assert len(records) == 7
        assert {(r.method, r.params): r.wall_per_inference_s for r in records
                if r.wall_per_inference_s or r.error} == {}


class TestClusterIdsOncePerFold:
    def test_one_assignment_serves_every_j(self, monkeypatch, tmp_path, fold_data):
        real = _kernels.assign_clusters
        calls = []

        def counting(X, C):
            calls.append(X.shape[0])
            return real(X, C)

        monkeypatch.setattr(_kernels, "assign_clusters", counting)
        per_j_count = []
        for j_values in ((2,), (2, 4), (2, 4, 5)):
            calls.clear()
            bench._evaluate_fold(small_config("unused.csv", tmp_path, methods=("des_clustering",),
                                              j_values=j_values), *fold_data, 11)
            per_j_count.append(len(calls))
        assert per_j_count[0] == per_j_count[1] == per_j_count[2]

    def test_answers_equal_per_j_calls(self, monkeypatch, tmp_path, fold_data):
        # one ranking per fold, built at the largest J, serves every J: each
        # J's model and answers equal those of a model built at that J alone,
        # with the walk and the cluster ids computed afresh from the fold's
        # test rows, which the fold's one pool walk receives
        real_cm, real_dc = bench.build_competence_model, bench.des_clustering_batch
        real_walk = bench.pool_predictions
        builds, seen, test_rows = [], [], []

        def walk_spy(pool, X):
            test_rows.append(X)
            return real_walk(pool, X)

        def cm_spy(dsel, km, n_acc, j):
            builds.append((dsel, km, n_acc, j))
            return real_cm(dsel, km, n_acc, j)

        def dc_spy(cm, pool, clusters, preds, visits):
            dsel, km, n_acc, _ = builds[-1]
            alone = real_cm(dsel, km, n_acc, cm.j)
            np.testing.assert_array_equal(cm.ranking, alone.ranking)
            got = real_dc(cm, pool, clusters, preds, visits)
            X = test_rows[-1]
            for a, b in zip(got, real_dc(alone, pool, *shared_inputs(pool, X, kmeans=km))):
                np.testing.assert_array_equal(a, b)
            seen.append(cm.j)
            return got

        monkeypatch.setattr(bench, "pool_predictions", walk_spy)
        monkeypatch.setattr(bench, "build_competence_model", cm_spy)
        monkeypatch.setattr(bench, "des_clustering_batch", dc_spy)
        for j_values in ((2,), (2, 4), (2, 4, 5)):
            builds.clear()
            seen.clear()
            cfg = small_config("unused.csv", tmp_path, methods=("des_clustering",),
                               j_values=j_values)
            records = bench._evaluate_fold(cfg, *fold_data, 11)
            assert [j for *_, j in builds] == [max(j_values)]
            assert seen == list(j_values)
            assert not any(r.error for r in records)


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
        text = Path(paths["accuracy_table.txt"]).read_text()
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
        with pytest.raises(IoError):
            emit_report(ResultTable(ExperimentConfig()), tmp_path)

    def test_cells_the_pinned_runs_never_write(self, tmp_path):
        # a failed row's NaN cells, no bytes and no folds; a fingerprint
        # below 2^28 zero-padded to 8 hex digits
        failed = ResultRow("d", "knora_e", "k=7", float("nan"), float("nan"), float("nan"),
                           0, 0, status="failed", error="SelectionError: no region")
        ok = ResultRow("d", "oracle", "", 0.75, 0.25, 3.5, 0, 1)
        record = FoldRecord("oracle", "", 0.75, 3.5, 1e-06, 0, 42, dataset="d", repeat=1)
        paths = emit_report(ResultTable(ExperimentConfig(), [ok, failed], [record]), tmp_path)
        assert Path(paths["results.csv"]).read_bytes() == (
            b"dataset,method,params,mean_accuracy,std_accuracy,mean_cost,model_bytes,"
            b"n_folds,status,error\n"
            b"d,knora_e,k=7,nan,nan,nan,0,0,failed,SelectionError: no region\n"
            b"d,oracle,,0.75,0.25,3.5,0,1,ok,\n")
        assert Path(paths["folds.csv"]).read_bytes() == (
            b"dataset,method,params,repeat,fold,accuracy,mean_cost,pool_fingerprint\n"
            b"d,oracle,,1,0,0.75,3.5,0000002a\n")
        assert Path(paths["timings.csv"]).read_bytes() == (
            b"dataset,method,params,repeat,fold,wall_per_inference_s\n"
            b"d,oracle,,1,0,1e-06\n")

    def test_rerun_identical(self, table, tmp_path):
        t, _, _ = table
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        p1 = emit_report(t, d1)
        p2 = emit_report(t, d2)
        for name in p1:
            assert Path(p1[name]).read_bytes() == Path(p2[name]).read_bytes()


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
        assert stats["probes_per_s"] > 0

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
        # 200 timed probes over 2 * 5050 us of wall time
        assert stats["probes_per_s"] == pytest.approx(200 / 10100e-6)

    def test_single_leaf_cost(self):
        from test_tinyformat import minimal_model
        s, cm, pool = minimal_model()
        engine = load_tiny(export_tiny(s, cm, pool)[0])
        probes = make_blobs(n_per_class=5, n_features=2, n_classes=4, seed=1)
        stats = measure_inference(engine, probes, warmup=0, reps=2)
        assert stats["mean_cost"] == 2.0 and stats["std_cost"] == 0.0

    @pytest.mark.parametrize("warmup, reps", [(1, 0), (1, -4), (-2, 3)])
    def test_bad_counts_raise_before_any_probe(self, warmup, reps):
        class CountingEngine:
            calls = 0

            def predict(self, x):
                self.calls += 1
                return 0, 1

        engine = CountingEngine()
        probes = make_blobs(n_per_class=3, n_features=2, n_classes=2, seed=1)
        with pytest.raises(IoError, match=f"^reps must be >= 1 and warmup >= 0, "
                                          f"got reps={reps}, warmup={warmup}$"):
            measure_inference(engine, probes, warmup=warmup, reps=reps)
        assert engine.calls == 0

    def test_varying_cost_raises_typed_error(self):
        class DriftingEngine:
            calls = 0

            def predict(self, x):
                self.calls += 1
                return 0, self.calls

        probes = make_blobs(n_per_class=3, n_features=2, n_classes=2, seed=1)
        with pytest.raises(NondeterminismError, match="varied across reps"):
            measure_inference(DriftingEngine(), probes, warmup=0, reps=2)
