import argparse
import re
import warnings
import zlib

import numpy as np
import pytest

from tinydes import bench, cli
from tinydes.bench import DEFAULT_FULL_METHODS, METHOD_ORDER, PARSERS
from tinydes.cli import build_parser, main
from tinydes.tinyformat import load_tiny

from test_bench import BAD_CONFIG_LINES, write_blob_csv


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return write_blob_csv(tmp_path_factory.mktemp("cli") / "blobs.csv",
                          n_per_class=80, n_features=5, n_classes=3, seed=1)


@pytest.fixture(scope="module")
def model_dir(csv_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    rc = main(["train", "--dataset", str(csv_path), "--j", "2,3",
               "--clusters", "2", "--n-acc", "4", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    return out


def write_tiny_column_csv(path):
    """Column ``a`` spans [0, 1e-15] except one row at 1e25, which
    standardizes to +inf; seed 2 puts that row in the DSEL."""
    rng = np.random.RandomState(0)
    lines = ["a,b,c,label"]
    for i in range(120):
        a = 1e25 if i == 7 else rng.uniform(0, 1e-15)
        lines.append(f"{a!r},{rng.randn()!r},{rng.randn()!r},{i % 3}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestTrain:
    def test_model_bytes_pinned(self, model_dir):
        # crc32 of each file without its trailer, which is itself the crc32
        # of what precedes it: the crc32 of a whole file is a constant
        want = {2: (524, 0xD9DF08CF), 3: (764, 0x71CF5101)}
        for j, (size, crc) in want.items():
            blob = (model_dir / f"model_j{j}.tdes").read_bytes()
            assert (len(blob), zlib.crc32(blob[:-4])) == (size, crc)

    def test_writes_models_and_manifests(self, model_dir):
        for j in (2, 3):
            blob = (model_dir / f"model_j{j}.tdes").read_bytes()
            engine = load_tiny(blob)
            assert engine.j == j
            manifest = (model_dir / f"model_j{j}.manifest").read_text()
            assert f"ensemble_size = {j}" in manifest
            assert f"bytes.total = {len(blob)}" in manifest

    def test_one_ranking_writes_every_j(self, csv_path, tmp_path, monkeypatch):
        # one ranking serves every J of a run: "--j 5,20" writes the bytes of
        # separate "--j 5" and "--j 20" runs, and ranks once
        real, builds = bench.build_competence_model, []
        monkeypatch.setattr(bench, "build_competence_model",
                            lambda *args: builds.append(args[3]) or real(*args))
        for j_values in ("5,20", "5", "20"):
            assert main(["train", "--dataset", str(csv_path), "--j", j_values, "--seed", "3",
                         "--out", str(tmp_path / j_values)]) == 0
        assert builds == [20, 5, 20]
        for j in (5, 20):
            for suffix in ("tdes", "manifest"):
                name = f"model_j{j}.{suffix}"
                assert (tmp_path / "5,20" / name).read_bytes() == (
                    tmp_path / str(j) / name).read_bytes()

    def test_zero_n_acc_rejected(self, csv_path, tmp_path, capsys):
        # 0 is a shortlist size, not "use the default"
        rc = main(["train", "--dataset", str(csv_path), "--j", "2", "--clusters", "2",
                   "--n-acc", "0", "--out", str(tmp_path / "m")])
        assert rc == 1
        assert re.search(r"IoError: n_acc must be from 1 to the pool size 45, got 0",
                         capsys.readouterr().err)
        assert not (tmp_path / "m" / "model_j2.tdes").exists()

    @pytest.mark.parametrize("fraction", ["0", "1.5"])
    def test_bad_dsel_fraction_rejected(self, csv_path, tmp_path, capsys, fraction):
        rc = main(["train", "--dataset", str(csv_path), "--j", "2", "--clusters", "2",
                   "--dsel-fraction", fraction, "--out", str(tmp_path / "m")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: IoError: dsel_fraction must be a float in (0, 1), got {float(fraction)!r}\n")
        assert not (tmp_path / "m" / "model_j2.tdes").exists()

    def test_non_finite_dsel_row_rejected(self, tmp_path, capsys):
        # no model whose centroids load_tiny would reject is written
        path = write_tiny_column_csv(tmp_path / "tiny.csv")
        rc = main(["train", "--dataset", str(path), "--seed", "2", "--j", "3",
                   "--clusters", "2", "--out", str(tmp_path / "m")])
        assert rc == 1
        assert re.fullmatch(r"error: ClusterError: point \d+ has a non-finite value\n",
                            capsys.readouterr().err)
        assert not (tmp_path / "m" / "model_j3.tdes").exists()

    @pytest.mark.parametrize("rows, flags, err", [
        # one sample of class y cannot be split between the pool and the DSEL
        ("1.0,x\n2.0,x\n3.0,y\n", [], "StratificationError: class 1 has 1 sample"),
        ("1.0,x\n2.0,x\n3.0,y\n4.0,y\n", ["--clusters", "3"],
         "ClusterError: cannot fit 3 clusters on 2 points"),
    ])
    def test_failed_fit_creates_no_output_dir(self, tmp_path, capsys, rows, flags, err):
        path = tmp_path / "small.csv"
        path.write_text("a,label\n" + rows)
        rc = main(["train", "--dataset", str(path), "--label-column", "label", *flags,
                   "--out", str(tmp_path / "m")])
        assert rc == 1
        assert err in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_idx_mode(self, tmp_path):
        from test_data import write_idx_pair
        rng = np.random.RandomState(0)
        pixels = rng.randint(0, 256, 60 * 9).astype(np.uint8)
        labels = (np.arange(60) % 2).astype(np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels.tolist(), labels.tolist(), 3, 3)
        rc = main(["train", "--dataset", str(img), "--labels", str(lab),
                   "--j", "2", "--clusters", "2", "--n-acc", "3",
                   "--out", str(tmp_path / "m")])
        assert rc == 0
        engine = load_tiny((tmp_path / "m" / "model_j2.tdes").read_bytes())
        assert engine.n_features == 9

    def test_upper_case_csv_suffix(self, csv_path, tmp_path):
        upper = tmp_path / "blobs.CSV"
        upper.write_bytes(csv_path.read_bytes())
        rc = main(["train", "--dataset", str(upper), "--j", "2", "--clusters", "2",
                   "--n-acc", "4", "--seed", "3", "--out", str(tmp_path / "m")])
        assert rc == 0
        assert load_tiny((tmp_path / "m" / "model_j2.tdes").read_bytes()).n_features == 5

    def test_idx_without_labels_flag(self, tmp_path, capsys):
        rc = main(["train", "--dataset", str(tmp_path / "x-images-idx3-ubyte"),
                   "--out", str(tmp_path)])
        assert rc == 1


class TestInspect(object):
    def test_valid_model(self, model_dir, capsys):
        rc = main(["inspect", "--model", str(model_dir / "model_j2.tdes")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "crc                = ok" in out
        assert "ensemble_size (J)  = 2" in out

    def test_corrupt_model(self, model_dir, tmp_path, capsys):
        blob = bytearray((model_dir / "model_j2.tdes").read_bytes())
        blob[30] ^= 0xFF
        bad = tmp_path / "bad.tdes"
        bad.write_bytes(bytes(blob))
        rc = main(["inspect", "--model", str(bad)])
        assert rc == 1
        assert "ChecksumError" in capsys.readouterr().err


class TestExportSrc:
    def test_emits_c_source(self, model_dir, tmp_path):
        out = tmp_path / "model.c"
        rc = main(["export-src", "--model", str(model_dir / "model_j2.tdes"),
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "int tinydes_predict(const float* x)" in text
        assert "#define TINYDES_N_FEATURES 5" in text


class TestBenchInfer:
    def test_reports_cost(self, model_dir, csv_path, capsys):
        rc = main(["bench-infer", "--model", str(model_dir / "model_j2.tdes"),
                   "--dataset", str(csv_path), "--warmup", "1", "--reps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean cost per probe" in out
        assert "p50 / p99 per probe" in out
        assert re.search(r"throughput +: [1-9][0-9]* probes/s", out)


    @pytest.mark.parametrize("warmup, reps", [("1", "0"), ("1", "-4"), ("-1", "3"), ("-2", "3")])
    def test_bad_count_is_usage_error(self, model_dir, csv_path, monkeypatch, capsys,
                                      warmup, reps):
        # rejected before the model or the probes load
        loads = []
        monkeypatch.setattr(cli, "load_tiny", lambda blob: loads.append(blob))
        rc = main(["bench-infer", "--model", str(model_dir / "model_j2.tdes"),
                   "--dataset", str(csv_path), "--warmup", warmup, "--reps", reps])
        assert rc == 2 and loads == []
        assert capsys.readouterr().err == (f"error: --reps must be >= 1 and --warmup >= 0, "
                                           f"got {reps} and {warmup}\n")

    def test_least_counts_run(self, model_dir, csv_path, capsys):
        rc = main(["bench-infer", "--model", str(model_dir / "model_j2.tdes"),
                   "--dataset", str(csv_path), "--warmup", "0", "--reps", "1"])
        assert rc == 0
        assert re.search(r"^reps +: 1$", capsys.readouterr().out, re.M)


class TestCrossval:
    def test_flags_run(self, csv_path, tmp_path, capsys):
        rc = main(["crossval", "--dataset", str(csv_path), "--name", "blobs",
                   "--method", "single_best", "--method", "des_clustering",
                   "--method", "oracle", "--j", "2", "--clusters", "2",
                   "--n-acc", "4", "--splits", "2", "--repeats", "1",
                   "--seed", "5", "--out", str(tmp_path / "rep")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "single_best" in out and "oracle" in out
        assert (tmp_path / "rep" / "results.csv").exists()
        assert (tmp_path / "rep" / "config.txt").exists()

    def test_config_file_with_override(self, csv_path, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "seed = 11\n"
            "methods = single_best,oracle\n"
            "j_values = 2\n"
            "n_splits = 2\n"
            "n_repeats = 1\n"
            "forests = 3:3,2:2\n"
            "n_acc = 3\n"
            "k_clusters = 2\n"
            f"dataset.blobs.csv = {csv_path}\n"
            "dataset.blobs.label_column = -1\n")
        rc = main(["crossval", "--config", str(cfg), "--seed", "12",
                   "--out", str(tmp_path / "rep2")])
        assert rc == 0
        snap = (tmp_path / "rep2" / "config.txt").read_text()
        assert "seed = 12" in snap  # flag overrides file

    def test_upper_case_csv_suffix(self, csv_path, tmp_path):
        upper = tmp_path / "blobs.CSV"
        upper.write_bytes(csv_path.read_bytes())
        rc = main(["crossval", "--dataset", str(upper), "--method", "oracle",
                   "--splits", "2", "--repeats", "1", "--out", str(tmp_path / "r")])
        assert rc == 0
        assert (tmp_path / "r" / "results.csv").exists()

    def test_large_finite_column(self, tmp_path, capsys):
        # deviations near 1e20 overflow a float32 square in fit_standardizer
        rng = np.random.RandomState(0)
        labels = rng.randint(0, 3, 300)
        X = rng.randn(300, 4) + labels[:, None]
        X[:, 1] *= 1e20
        path = tmp_path / "big.csv"
        path.write_text("".join(",".join(f"{v:.6g}" for v in row) + f",{y}\n"
                                for row, y in zip(X, labels)))
        rc = main(["crossval", "--dataset", str(path), "--method", "des_clustering",
                   "--method", "oracle", "--j", "2", "--clusters", "2", "--splits", "2",
                   "--repeats", "1", "--out", str(tmp_path / "r")])
        assert rc == 0, capsys.readouterr().err
        assert "FAILED" not in capsys.readouterr().out

    def test_non_finite_dsel_row_fails_des_clustering(self, tmp_path, capsys):
        path = write_tiny_column_csv(tmp_path / "tiny.csv")
        rc = main(["crossval", "--dataset", str(path), "--method", "des_clustering",
                   "--method", "knora_u", "--method", "knora_e", "--method", "oracle",
                   "--j", "3", "--clusters", "2", "--seed", "2",
                   "--splits", "2", "--repeats", "1", "--out", str(tmp_path / "r")])
        assert rc == 0
        out = capsys.readouterr().out
        assert re.search(r"des_clustering J=3 +FAILED: ClusterError: point \d+ has a "
                         r"non-finite value", out)
        for method in ("knora_u", "knora_e"):
            assert re.search(method + r" k=\d+ +FAILED: SelectionError: selection sample "
                             r"\d+ has a non-finite value", out)
        # des_clustering ran on the other fold, but a method that fails on
        # any fold reports no mean
        assert not re.search(r"des_clustering J=3 +acc", out)

    def test_non_finite_test_row_fails_knora_only(self, tmp_path, capsys):
        # seed 0 holds the row that standardizes to +inf as a test row in one
        # fold and as a pool row in the other. DES-Clustering sends it to
        # cluster 0, as the engine and the emitted C do (every centroid
        # distance is +inf), and scores both folds; KNORA cannot rank it.
        path = write_tiny_column_csv(tmp_path / "tiny.csv")
        rc = main(["crossval", "--dataset", str(path), "--method", "des_clustering",
                   "--method", "knora_u", "--j", "3", "--clusters", "2", "--seed", "0",
                   "--splits", "2", "--repeats", "1", "--out", str(tmp_path / "r")])
        assert rc == 0
        out = capsys.readouterr().out
        assert not re.search(r"knora_u k=\d+ +acc", out)
        results = (tmp_path / "r" / "results.csv").read_text().splitlines()
        knora_u, des_clustering = (line.split(",") for line in results[1:])
        assert knora_u[1:3] + knora_u[7:9] == ["knora_u", "k=7", "0", "failed"]
        assert re.fullmatch(r"SelectionError: query \d+ has a non-finite value", knora_u[9])
        assert des_clustering[1:3] + des_clustering[7:9] == ["des_clustering", "J=3", "2", "ok"]

    def test_cell_beyond_float32_range(self, tmp_path, capsys):
        # a typed error, and no RuntimeWarning on the way
        path = tmp_path / "big.csv"
        path.write_text("".join(f"{i},{i % 2}\n" for i in range(20)) + "1e39,1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["crossval", "--dataset", str(path), "--method", "oracle",
                       "--splits", "2", "--repeats", "1", "--out", str(tmp_path / "r")])
        assert [str(w.message) for w in caught] == []
        assert rc == 1
        assert capsys.readouterr().err == "error: FormatError: features contain NaN or Inf\n"

    def test_no_dataset_errors(self, capsys):
        rc = main(["crossval"])
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [("--name", "other"), ("--labels", "b.lab"),
                                             ("--label-column", "-1")])
    def test_dataset_flag_without_dataset_is_usage_error(self, tmp_path, csv_path, capsys,
                                                          flag, value):
        # the config names the dataset; a flag that would describe a
        # --dataset file has nothing to describe, so it is an error, even
        # when its value is the default
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset.blobs.csv = {csv_path}\n")
        out = tmp_path / "rep"
        rc = main(["crossval", "--config", str(cfg), flag, value, "--method", "oracle",
                   "--splits", "2", "--repeats", "1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag} given without --dataset\n"
        assert not out.exists()

    def test_missing_file_typed_error(self, tmp_path, capsys):
        rc = main(["crossval", "--dataset", str(tmp_path / "nope.csv"),
                   "--method", "oracle", "--splits", "2", "--repeats", "1",
                   "--out", str(tmp_path / "r")])
        assert rc == 1

    # "limit" is no longer a setting, so its lines are unknown keys; the
    # bytes line is not UTF-8; the file also sets n_splits and the dataset's
    # csv, so the last four repeat a key, which a config file may give once
    @pytest.mark.parametrize("line", BAD_CONFIG_LINES + [
        "profile = fulll", "limit = 0", "limit = -5", "forests = 2:-1", "forests = 0:3",
        "n_acc = 100", b"seed = \xff\xfe", "n_splits = 3", "seed = 1\nseed = 2",
        "dataset.blobs.csv = other.csv",
        "dataset.blobs.label_column = -1\ndataset.blobs.label_column = 0"])
    def test_bad_config_file_typed_error(self, csv_path, tmp_path, capsys, line):
        cfg = tmp_path / "exp.cfg"
        line = line if isinstance(line, bytes) else line.encode("utf-8")
        cfg.write_bytes(b"n_splits = 2\n" + line + f"\ndataset.blobs.csv = {csv_path}\n".encode())
        rc = main(["crossval", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 1
        assert re.search(r"^error: IoError: (bad config line"
                         r"|profile must be desk-scale or full, got fulll"
                         r"|forests must be comma-separated trees:depth pairs with trees >= 1 "
                         r"and depth >= 0, got (2:-1|0:3)"
                         r"|n_acc must be from 1 to the pool size 45, got 100"
                         r"|config file is not UTF-8: )",
                         capsys.readouterr().err)
        assert not (tmp_path / "r").exists()

    # a method or a J given twice would score each fold twice under one key
    @pytest.mark.parametrize("flags, message", [
        (["--method", "des_clustering", "--method", "des_clustering", "--method", "oracle",
          "--j", "3,3"], "methods must be comma-separated distinct names among "
         + ", ".join(METHOD_ORDER) + ", got des_clustering,des_clustering,oracle"),
        (["--method", "des_clustering", "--method", "oracle", "--j", "3,3"],
         "j_values must be comma-separated distinct integers >= 1, got 3,3")])
    def test_repeated_values_rejected(self, csv_path, tmp_path, monkeypatch, capsys,
                                      flags, message):
        loads = []
        monkeypatch.setattr(bench, "load_csv", lambda *a: loads.append(a))
        rc = main(["crossval", "--dataset", str(csv_path), *flags, "--clusters", "2",
                   "--splits", "2", "--repeats", "1", "--out", str(tmp_path / "r")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: IoError: {message}\n"
        assert loads == [] and not (tmp_path / "r").exists()

    # a dataset that gives two sources, or half of one, stops the run before
    # any dataset loads, even when an earlier dataset is valid
    @pytest.mark.parametrize("lines, given", [
        ("dataset.a.images = a.idx\n", "csv=+images="),
        ("dataset.b.labels = b.lab\n", "labels="),
        ("dataset.b.images = b.idx\ndataset.b.labels = b.lab\ndataset.b.label_column = 3\n",
         "label_column=+images=+labels=")])
    def test_dataset_source_rejected(self, csv_path, tmp_path, monkeypatch, capsys,
                                     lines, given):
        loads = []
        monkeypatch.setattr(bench, "load_csv", lambda *a: loads.append(a))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset.a.csv = {csv_path}\n" + lines)
        rc = main(["crossval", "--config", str(cfg), "--method", "oracle", "--splits", "2",
                   "--repeats", "1", "--out", str(tmp_path / "r")])
        assert rc == 1
        name = lines.split(".")[1]
        assert capsys.readouterr().err == (
            f"error: IoError: dataset '{name}' needs either csv= or images=+labels=, "
            f"got {given}\n")
        assert loads == [] and not (tmp_path / "r").exists()

    # "a,b" would add a field to every report row and "a.b" a part to its
    # config.txt key; either stops the run before the dataset loads
    @pytest.mark.parametrize("name", ["a,b", "a.b"])
    def test_bad_dataset_name_rejected(self, csv_path, tmp_path, monkeypatch, capsys, name):
        loads = []
        monkeypatch.setattr(bench, "load_csv", lambda *a: loads.append(a))
        rc = main(["crossval", "--dataset", str(csv_path), "--name", name, "--method", "oracle",
                   "--splits", "2", "--repeats", "1", "--out", str(tmp_path / "r")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: IoError: dataset name {name!r} ")
        assert loads == [] and not (tmp_path / "r").exists()

    @pytest.mark.parametrize("flag", ["--j", "--out"])
    def test_empty_value_rejected(self, csv_path, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.chdir(tmp_path)
        argv = ["crossval", "--dataset", str(csv_path), "--method", "oracle",
                "--splits", "2", "--repeats", "1", "--out", str(tmp_path / "r"), flag, ""]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_n_acc_auto_flag_overrides_file(self, csv_path, tmp_path):
        # "--n-acc auto" is "n_acc = auto", and it overrides the file's value
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"n_acc = 3\ndataset.blobs.csv = {csv_path}\n")
        rc = main(["crossval", "--config", str(cfg), "--method", "oracle", "--splits", "2",
                   "--repeats", "1", "--n-acc", "auto", "--out", str(tmp_path / "r")])
        assert rc == 0
        assert "n_acc = auto\n" in (tmp_path / "r" / "config.txt").read_text()

    @pytest.mark.parametrize("command", ["train", "crossval", "bench-infer"])
    def test_dataset_flags_have_help(self, command):
        # crossval may take its datasets from a --config file instead
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        actions = {a.dest: a for a in sub.choices[command]._actions}
        assert all(actions[dest].help for dest in ("dataset", "labels", "label_column"))
        assert actions["dataset"].required == (command != "crossval")

    @pytest.mark.parametrize("command", ["train", "crossval"])
    def test_setting_flags_use_the_settings_parsers(self, command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        actions = [a for a in sub.choices[command]._actions if a.dest in PARSERS]
        assert {a.dest for a in actions if a.type is None} == (
            {"methods", "profile"} if command == "crossval" else set())
        assert all(a.type is PARSERS[a.dest] for a in actions if a.type is not None)

    # the full profile runs DEFAULT_FULL_METHODS unless a methods line or
    # --method names the methods, whether a flag or the file sets the profile
    @pytest.mark.parametrize("lines, flags, methods", [
        (None, ["--full"], DEFAULT_FULL_METHODS),
        ("profile = full\n", [], DEFAULT_FULL_METHODS),
        ("seed = 4\n", ["--full"], DEFAULT_FULL_METHODS),
        ("profile = full\nmethods = " + ",".join(METHOD_ORDER) + "\n", [], METHOD_ORDER),
        ("profile = full\n", ["--method", "knora_u"], ["knora_u"]),
    ])
    def test_full_profile_default_methods(self, csv_path, tmp_path, lines, flags, methods):
        cfg = tmp_path / "exp.cfg"
        if lines is None:
            flags = [*flags, "--dataset", str(csv_path)]
        else:
            cfg.write_text(lines + f"forests = 4:3\ndataset.blobs.csv = {csv_path}\n")
            flags = [*flags, "--config", str(cfg)]
        rc = main(["crossval", *flags, "--j", "2", "--clusters", "2", "--n-acc", "2",
                   "--splits", "2", "--repeats", "1", "--out", str(tmp_path / "r")])
        assert rc == 0
        assert f"methods = {','.join(methods)}\n" in (tmp_path / "r" / "config.txt").read_text()

    def test_flags_set_config_fields(self, csv_path, tmp_path):
        rc = main(["crossval", "--dataset", str(csv_path), "--name", "blobs", "--full",
                   "--j", "2,3", "--clusters", "2", "--neighbors", "3", "--n-acc", "4",
                   "--pct-static", "0.25", "--splits", "2", "--repeats", "1",
                   "--dsel-fraction", "0.4", "--seed", "9", "--out", str(tmp_path / "r")])
        assert rc == 0
        snap = (tmp_path / "r" / "config.txt").read_text()
        assert snap == (
            "seed = 9\n"
            "profile = full\n"
            "methods = single_best,static_selection,des_clustering,oracle\n"
            "j_values = 2,3\n"
            "k_clusters = 2\n"
            "k_neighbors = 3\n"
            "n_acc = 4\n"
            "pct_static = 0.25\n"
            "n_splits = 2\n"
            "n_repeats = 1\n"
            "dsel_fraction = 0.4\n"
            "forests = 25:10,20:5\n"
            f"out_dir = {tmp_path / 'r'}\n"
            f"dataset.blobs.csv = {csv_path}\n"
            "dataset.blobs.label_column = -1\n")
