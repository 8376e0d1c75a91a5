import csv
import gzip
import io
import json
import math
import mmap
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_oracle
import tinydes
from tinydes import data
from tinydes.data import (Dataset, Standardizer, apply_standardizer, desk_scale_rows,
                          fit_standardizer, load_csv, load_idx, make_fold_plan,
                          stratified_indices, stratified_split)
from tinydes.errors import (CapacityError, FormatError, IoError, ShapeError,
                            StratificationError, TinyDesError)

from conftest import desk_scale_subset


def write_idx_pair(tmp_path, pixels, labels, rows, cols, name="t"):
    img = tmp_path / f"{name}-images-idx3-ubyte"
    lab = tmp_path / f"{name}-labels-idx1-ubyte"
    n = len(labels)
    img.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + bytes(pixels))
    lab.write_bytes(struct.pack(">II", 0x801, n) + bytes(labels))
    return img, lab


class TestLoadIdx:
    def test_single_sample_byte_widening(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [0, 255, 0, 255], [3], 2, 2)
        d = load_idx(img, lab)
        assert d.n_samples == 1 and d.n_features == 4
        assert d.features.dtype == np.float32
        np.testing.assert_array_equal(d.features[0], [0.0, 255.0, 0.0, 255.0])
        assert d.labels[0] == 3

    def test_truncated_labels(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, list(range(40)), list(range(10)), 2, 2)
        lab.write_bytes(struct.pack(">II", 0x801, 10) + bytes(range(9)))
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_truncated_pixels(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [1] * 8, [0, 1], 2, 2)
        img.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes([1] * 7))
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_bad_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [1] * 4, [0], 2, 2)
        img.write_bytes(struct.pack(">IIII", 0x804, 1, 2, 2) + bytes([1] * 4))
        with pytest.raises(FormatError):
            load_idx(img, lab)
        img, lab = write_idx_pair(tmp_path, [1] * 4, [0], 2, 2)
        lab.write_bytes(struct.pack(">II", 0x999, 1) + bytes([0]))
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [1] * 8, [0, 1], 2, 2)
        lab.write_bytes(struct.pack(">II", 0x801, 1) + bytes([0]))
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_gzipped_pair(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [0, 255, 0, 255], [3], 2, 2)
        d = load_idx(*gzip_pair(img, lab))
        assert d.n_samples == 1 and d.labels[0] == 3

    @pytest.mark.parametrize("gz", [False, True])
    def test_forged_header_raises_format_error(self, tmp_path, gz):
        # 2^32-1 images of 2^32-1 x 2^32-1 pixels: the declared size is
        # checked against the bytes present, chunk by chunk, before any
        # buffer of that size is requested
        img, lab = write_idx_pair(tmp_path, [1] * 4, [0], 2, 2)
        img.write_bytes(struct.pack(">IIII", 0x803, *[0xFFFFFFFF] * 3) + bytes(4))
        if gz:
            img = img.with_name(img.name + ".gz")
            img.write_bytes(gzip.compress(struct.pack(">IIII", 0x803, *[0xFFFFFFFF] * 3)
                                          + bytes(4)))
        with pytest.raises(FormatError) as exc:
            load_idx(img, lab)
        assert str(exc.value) == (f"truncated IDX file: expected {0xFFFFFFFF ** 3} bytes "
                                  "for pixel data, got 4")

    def test_read_spans_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "IDX_READ_CHUNK", 3)
        img, lab = write_idx_pair(tmp_path, list(range(40)), list(range(10)), 2, 2)
        d = load_idx(img, lab)
        np.testing.assert_array_equal(d.features.ravel(), np.arange(40))
        np.testing.assert_array_equal(d.labels, np.arange(10))
        lab.write_bytes(struct.pack(">II", 0x801, 10) + bytes(range(9)))
        with pytest.raises(FormatError) as exc:
            load_idx(img, lab)
        assert str(exc.value) == "truncated IDX file: expected 10 bytes for label data, got 9"


def gzip_pair(img, lab):
    """Gzipped copies of an IDX pair, named as the loader expects."""
    out = []
    for p in (img, lab):
        gz = p.with_name(p.name + ".gz")
        gz.write_bytes(gzip.compress(p.read_bytes()))
        out.append(gz)
    return out


def idx_outcome(load):
    """What a load gives: the features' bytes, the labels and the class
    count, or the exception's type and message."""
    try:
        d = load()
    except TinyDesError as exc:
        return ("raise", type(exc), str(exc))
    return ("ok", d.features.shape, d.features.tobytes(), d.labels.tobytes(), d.n_classes)


@st.composite
def idx_pairs(draw):
    """(pixels, labels, rows, cols) of a small IDX pair; labels up to 4, so
    some classes have one sample and cannot be split."""
    count = draw(st.integers(1, 40))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(0, 4), min_size=count, max_size=count))
    pixels = draw(st.binary(min_size=count * rows * cols, max_size=count * rows * cols))
    return pixels, labels, rows, cols


def bad_pair(tmp_path, case):
    """An IDX pair that fails to load as ``case`` says. Where it declares
    rows, it declares 10, so a limit of 1 would subset it."""
    img, lab = write_idx_pair(tmp_path, list(range(40)), list(range(10)), 2, 2)
    if case in ("truncated_labels", "chunked_truncation"):
        lab.write_bytes(struct.pack(">II", 0x801, 10) + bytes(range(9)))
    elif case == "truncated_pixels":
        img.write_bytes(struct.pack(">IIII", 0x803, 10, 2, 2) + bytes(39))
    elif case == "bad_image_magic":
        img.write_bytes(struct.pack(">IIII", 0x804, 10, 2, 2) + bytes(40))
    elif case == "bad_label_magic":
        lab.write_bytes(struct.pack(">II", 0x999, 10) + bytes(10))
    elif case == "count_mismatch":
        lab.write_bytes(struct.pack(">II", 0x801, 9) + bytes(9))
    elif case == "no_samples":
        img.write_bytes(struct.pack(">IIII", 0x803, 0, 2, 2))
        lab.write_bytes(struct.pack(">II", 0x801, 0))
    elif case.startswith("forged_header"):
        img.write_bytes(struct.pack(">IIII", 0x803, *[0xFFFFFFFF] * 3) + bytes(4))
    if case.endswith("_gz"):
        img, lab = gzip_pair(img, lab)
    return img, lab


class TestLoadIdxLimit:
    """A load with a limit picks its rows from the label file and converts
    only those; it must give what the full load followed by
    ``desk_scale_subset`` gives, and fail where and as the full load fails."""

    @settings(max_examples=150, deadline=None)
    @given(pair=idx_pairs(), gz=st.booleans(), extra=st.integers(-45, 3),
           seed=st.integers(0, 2**64 - 1))
    def test_matches_subset_of_full_load(self, tmp_path_factory, pair, gz, extra, seed):
        pixels, labels, rows, cols = pair
        img, lab = write_idx_pair(tmp_path_factory.mktemp("idx"), pixels, labels, rows, cols)
        if gz:
            img, lab = gzip_pair(img, lab)
        limit = max(1, len(labels) + extra)  # below, at and above the row count
        full = load_idx(img, lab)
        expected = np.frombuffer(pixels, np.uint8).reshape(len(labels), rows * cols)
        np.testing.assert_array_equal(full.features, expected.astype(np.float32))
        np.testing.assert_array_equal(full.labels, labels)
        assert full.n_classes == max(labels) + 1
        assert idx_outcome(lambda: load_idx(img, lab, None, seed)) == idx_outcome(lambda: full)
        assert (idx_outcome(lambda: load_idx(img, lab, limit, seed))
                == idx_outcome(lambda: desk_scale_subset(full, limit, seed)))

    @pytest.mark.parametrize("case", [
        "truncated_labels", "truncated_pixels", "bad_image_magic", "bad_label_magic",
        "count_mismatch", "no_samples", "forged_header", "forged_header_gz",
        "chunked_truncation"])
    def test_failure_same_with_limit(self, tmp_path, monkeypatch, case):
        if case == "chunked_truncation":
            monkeypatch.setattr(data, "IDX_READ_CHUNK", 3)
        img, lab = bad_pair(tmp_path, case)
        with pytest.raises(FormatError) as full:
            load_idx(img, lab)
        with pytest.raises(FormatError) as limited:
            load_idx(img, lab, 1, seed=5)
        assert str(limited.value) == str(full.value)

    @pytest.mark.parametrize("gz, limit", [
        pytest.param(False, 20, id="False"), pytest.param(True, 20, id="True"),
        pytest.param(False, None, id="False-full"), pytest.param(True, None, id="True-full")])
    def test_plain_file_reads_kept_rows_only(self, tmp_path, monkeypatch, gz, limit):
        # a plain image file is mapped, with or without a limit, its kept
        # rows copied out and the map closed; a gzipped one streams whole
        img, lab = write_idx_pair(tmp_path, np.arange(200, dtype=np.uint8),
                                  np.arange(50, dtype=np.uint8) % 5, 2, 2)
        if gz:
            img, lab = gzip_pair(img, lab)
        full = load_idx(img, lab)
        reads, maps = [], []
        real_read, real_mmap = data._read_exact, mmap.mmap

        def reading(f, n, what):
            reads.append(what)
            return real_read(f, n, what)

        def mapping(*args, **kwargs):
            maps.append(real_mmap(*args, **kwargs))
            return maps[-1]

        monkeypatch.setattr(data, "_read_exact", reading)
        monkeypatch.setattr(data.mmap, "mmap", mapping)
        got = load_idx(img, lab, limit, seed=4)
        assert idx_outcome(lambda: got) == idx_outcome(lambda: desk_scale_subset(full, limit, 4))
        assert ("pixel data" in reads) == gz and len(maps) == (not gz)
        assert all(m.closed for m in maps)

    def test_pipe_streams_whole(self, tmp_path):
        # a pipe has no length to check and cannot be mapped
        img, lab = write_idx_pair(tmp_path, np.arange(200, dtype=np.uint8),
                                  np.arange(50, dtype=np.uint8) % 5, 2, 2)
        fifo = tmp_path / "images-fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(img.read_bytes(),), daemon=True)
        writer.start()
        try:
            got = load_idx(fifo, lab, 20, seed=4)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert idx_outcome(lambda: got) == idx_outcome(lambda: load_idx(img, lab, 20, seed=4))

    def test_peak_memory_below_full_float32_matrix(self, tmp_path):
        n, width = 20000, 784
        rng = np.random.RandomState(0)
        img, lab = write_idx_pair(tmp_path, rng.randint(0, 256, n * width, dtype=np.uint8),
                                  (np.arange(n) % 10).astype(np.uint8), 28, 28)
        tracemalloc.start()
        try:
            d = load_idx(img, lab, 500, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.n_samples == 500 and d.n_classes == 10
        assert peak < n * width * 4  # 62.7 MB, the full matrix in float32


class TestLoadCsv:
    def test_label_reencoding(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2,7\n3,4,7\n5,6,9\n7,8,9\n")
        d = load_csv(p, 2)
        assert d.n_classes == 2
        np.testing.assert_array_equal(d.labels, [0, 0, 1, 1])
        assert d.label_values == ["7", "9"]

    def test_labels_past_the_u16_class_count(self, tmp_path):
        # one distinct label per row: 65 537 labels, whose ids overflow u16
        p = tmp_path / "many.csv"
        p.write_text("".join(f"{i % 7},{i}\n" for i in range(65537)))
        with pytest.raises(CapacityError,
                           match="^65537 distinct labels exceed the u16 class count limit$"):
            load_csv(p, 1)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(FormatError):
            load_csv(p, 0)

    def test_iris_style_fixture(self, tmp_path):
        rng = np.random.RandomState(3)
        lines = ["sl,sw,pl,pw,species"]
        for i in range(150):
            vals = rng.rand(4) * 5
            lines.append(",".join(f"{v:.2f}" for v in vals) + f",{i % 3}")
        p = tmp_path / "iris.csv"
        p.write_text("\n".join(lines) + "\n")
        d = load_csv(p, "species")
        assert d.n_samples == 150 and d.n_features == 4 and d.n_classes == 3
        assert d.feature_names == ["sl", "sw", "pl", "pw"]

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e39"])
    def test_limit_fails_as_the_full_load(self, tmp_path, cell):
        # every row is parsed and checked before the limit picks rows, so a
        # bad cell fails the load even in a row the limit drops
        labels = np.arange(60) % 3
        dropped = np.setdiff1d(np.arange(60), desk_scale_rows(labels, 3, 30, seed=2))[0]
        path = tmp_path / "bad.csv"
        path.write_text("".join(f"{cell if i == dropped else i},{c}\n"
                                for i, c in enumerate(labels)))
        with pytest.raises(FormatError) as whole:
            load_csv(path, -1)
        with pytest.raises(FormatError) as limited:
            load_csv(path, -1, 30, seed=2)
        assert str(limited.value) == str(whole.value)

    @pytest.mark.parametrize("cell", ["1e39", "-1e39", '"1e39"'])
    def test_cell_beyond_float32_range(self, tmp_path, cell):
        # the cell becomes inf without a warning, plain or quoted, and the
        # NaN/Inf check refuses it
        p = tmp_path / "big.csv"
        p.write_text(f"1,0\n{cell},1\n")
        with pytest.raises(FormatError, match="^features contain NaN or Inf$"):
            load_csv(p, -1)

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2,0\n3,4\n")
        with pytest.raises(FormatError):
            load_csv(p, 2)

    def test_non_numeric_feature(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("a,b,y\n1,oops,0\n2,3,1\n")
        with pytest.raises(FormatError):
            load_csv(p, "y")

    @pytest.mark.parametrize("text, label, kind, message", [
        ("", 0, FormatError, "empty CSV file: {path}"),
        ("\n\r\n\r", 0, FormatError, "empty CSV file: {path}"),
        ("a,b,y\n", "y", FormatError, "CSV has a header but no data rows: {path}"),
        ("a,b,y\n\n", 2, FormatError, "CSV has a header but no data rows: {path}"),
        ("a,b,y\n1,2,0\n", "z", FormatError, "label column 'z' not found in CSV header"),
        ("1,2,0\n", "y", FormatError, "label column 'y' not found in CSV header"),
        ("1,2,0\n", 3, FormatError, "label column index 3 out of range for 3 columns"),
        ("1,2,0\n", -4, FormatError, "label column index -4 out of range for 3 columns"),
        ("a,y\n1,2,0\n", -5, FormatError, "label column index -5 out of range for 3 columns"),
        ("1,2,0\n3,4\n", 2, FormatError, "ragged CSV: row 1 has 2 cells, expected 3"),
        ("a,b,y\n1,2,0\n3,4,1,\n", "y", FormatError, "ragged CSV: row 1 has 4 cells, expected 3"),
        ("a,b,y\n1,oops,0\n", "y", FormatError,
         "non-numeric feature cell 'oops' at row 0, column 1"),
        ("a,b,y\n1,,0\n", "y", FormatError, "non-numeric feature cell '' at row 0, column 1"),
        ("a,b,y\n2,1_0,0\n3,1x,1\n", "y", FormatError,
         "non-numeric feature cell '1x' at row 1, column 1"),
        ("a,b,y\n1,nan,0\n", "y", FormatError, "features contain NaN or Inf"),
        ("a,b,y\n1,-1e400,0\n", "y", FormatError, "features contain NaN or Inf"),
        ("a,y\n1,2,0\n3,4,1\n", 0, FormatError, "CSV header has 2 names, data rows have 3 cells"),
        ("a,b,c,y\n1,2,0\n", 0, FormatError, "CSV header has 4 names, data rows have 3 cells"),
        ("a,b,y\n1,2\n3,4\n", "y", FormatError,
         "label column index y out of range for 2 columns"),
    ])
    @pytest.mark.parametrize("reader", ["default", "rows"])
    def test_error_messages(self, tmp_path, monkeypatch, text, label, kind, message, reader):
        # the same message whichever reader parses the text
        if reader == "rows":
            monkeypatch.setattr(data, "_parse_plain", lambda text, label_column: None)
        p = tmp_path / "bad.csv"
        p.write_bytes(text.encode())
        with pytest.raises(kind) as exc:
            load_csv(p, label)
        assert str(exc.value) == message.format(path=p)

    @pytest.mark.parametrize("raw", [b"\xffa,y\n1,0\n", b"a,y\n1,0\n2,\xe9\n"])
    def test_not_utf8(self, tmp_path, raw):
        p = tmp_path / "latin1.csv"
        p.write_bytes(raw)
        with pytest.raises(FormatError) as exc:
            load_csv(p, 1)
        assert str(exc.value).startswith(f"CSV is not UTF-8: {p}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("make", [lambda p: p / "missing.csv", lambda p: p])
    def test_io_error_message(self, tmp_path, make):
        p = make(tmp_path)
        with pytest.raises(OSError) as cause:
            open(p, newline="", encoding="utf-8").close()
        with pytest.raises(IoError) as exc:
            load_csv(p, 0)
        assert str(exc.value) == f"cannot open {p}: {cause.value}"

    @pytest.mark.parametrize("text, plain", [
        ("a,b,label\n1,2,0\n3,4,1\n", True),
        ("\n\r\n1,2,0\r3,4,1\r\n \t1e400 ,nan,x\n", True),
        ("a,b,label\n1,2,0\n3,4,1,\n", False),  # ragged
        ('"a",b,label\n1,2,0\n', False),  # quotes
        ("a,b,label\n1_0,2,0\n", False),  # float() syntax numpy rejects
        ("a,b,label\n1\x1c,2,0\n", False),  # whitespace to numpy only
        ("a,b,label\n" + "1" * 140000 + ",2,0\n", False),  # past csv's field limit
    ])
    def test_reader_choice(self, tmp_path, monkeypatch, text, plain):
        results = []
        real = data._parse_plain

        def spy(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(data, "_parse_plain", spy)
        p = tmp_path / "c.csv"
        p.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                load_csv(p, 2)
            except (FormatError, csv.Error):
                pass
        assert (results[0] is not None) == plain

    def test_label_ids_do_not_depend_on_hash_seed(self, tmp_path):
        # NaN compares unequal to every key, so a NaN sort key would leave
        # the order to set iteration, which follows PYTHONHASHSEED
        p = tmp_path / "nan.csv"
        p.write_text("".join(f"{i},{v}\n" for i, v in enumerate(["2", "nan", "1", "0", "3",
                                                                    "NaN", "b", "a"])))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(tinydes.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
        script = ("import json, sys; from tinydes.data import load_csv; "
                  "d = load_csv(sys.argv[1], 1); "
                  "print(json.dumps([d.label_values, d.labels.tolist()]))")
        outs = set()
        for seed in range(1, 7):
            env["PYTHONHASHSEED"] = str(seed)
            out = subprocess.run([sys.executable, "-c", script, str(p)], env=env,
                                 capture_output=True, text=True, timeout=60)
            assert out.returncode == 0, out.stderr
            outs.add(out.stdout)
        assert len(outs) == 1
        assert json.loads(outs.pop()) == [["0", "1", "2", "3", "NaN", "a", "b", "nan"],
                                          [2, 7, 1, 0, 3, 4, 6, 5]]


# Cells for the differential test: float() and numpy agree on the first
# group; the second holds syntax only one of them reads, text, quotes and
# values past float32's range.
NUMERIC_CELLS = ["0", "1", "2", "-2.5", "+7", ".5", "5.", "1e5", "-0.0", "0.0", " 3 ", "4\t",
                 "\t-6e-3 ", "3.4028235e38", "-3.4028234e38", "1e-46", "7e-45"]
ODD_CELLS = ["1_0", "nan", "NaN", "-inf", "Infinity", "1e39", "-1e39", "1e400", "0x10", "1d5",
             "٣", "\x1c1", "1\x1f", " 1", "", " ", "a", "label", "#1", '"1"', '"a,b"',
             '"q""q"', '"1\r\n2"', 'b"c', "\x0b8", "9\x0c"]
LINE_ENDS = ["\n", "\r\n", "\r"]
BLANK_LINES = ["", " ", "\t", "  "]


def sometimes(percent):
    return st.integers(0, 99).map(lambda x: x < percent)


@st.composite
def csv_texts(draw):
    """(text, label column): a small CSV, mostly well formed, drawn with the
    syntax either reader could treat differently."""
    odd = draw(sometimes(40))
    width = draw(st.integers(1 if odd else 2, 4))
    numbers = st.one_of(st.sampled_from(NUMERIC_CELLS),
                        st.floats(width=32, allow_nan=False, allow_infinity=False)
                        .map(lambda v: "%.9g" % v),
                        st.floats(allow_nan=False, allow_infinity=False).map(repr))
    cell = st.one_of(numbers, numbers, st.sampled_from(ODD_CELLS)) if odd else numbers
    name = st.sampled_from(["a", "b", " c ", "label", "y"])
    if odd:
        name = st.one_of(name, st.sampled_from(["1", "nan", "", '"q"']))
    names = [draw(name) for _ in range(width)]
    at = draw(st.integers(0, width - 1))  # the label's column
    header = draw(st.booleans())
    rows = [names] if header else []
    for _ in range(draw(st.integers(0 if odd else 1, 5))):
        row = [draw(cell) for _ in range(width - 1)]
        row.insert(at, draw(st.sampled_from(["0", "1", "2", "nan", "NaN", "a", " b", "inf"])))
        if odd and draw(sometimes(10)):
            row = row[:-1] if draw(st.booleans()) else row + [draw(cell)]
        rows.append(row)
    if odd and draw(sometimes(20)):
        rows = [row + [""] for row in rows]  # trailing commas
    text = ""
    for row in rows:
        while draw(sometimes(20)):
            text += draw(st.sampled_from(BLANK_LINES)) + draw(st.sampled_from(LINE_ENDS))
        text += ",".join(row) + draw(st.sampled_from(LINE_ENDS))
    if rows and draw(st.booleans()):
        text = text.rstrip("\r\n")
    labels = [at, at - width] + ([names[at]] if header else [])
    if odd:
        labels += [width, -width - 1, "z"]
    return text, draw(st.sampled_from(labels))


def header_width_outcome(text, oracle_outcome):
    """What ``load_csv`` raises where the row-by-row reference, which never
    compared the header with the rows, gave ``oracle_outcome``; None where
    the outcomes must agree. The rule applies when the first non-empty row
    is a header whose width differs from the first data row's, and no
    label-column error comes first."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    if len(rows) < 2 or all(data._numeric(c) for c in rows[0]) or len(rows[0]) == len(rows[1]):
        return None
    if oracle_outcome[0] == "raise" and oracle_outcome[2].startswith("label column"):
        return None
    return ("raise", FormatError,
            f"CSV header has {len(rows[0])} names, data rows have {len(rows[1])} cells")


def csv_outcome(loader, path, label):
    """What ``loader`` gives for the file: its dataset, with features as
    uint32 bits and NaN-valued label names apart, or its exception."""
    try:
        d = loader(path, label)
    except Warning:
        raise  # neither loader may warn: a warning is an error in this suite
    except Exception as exc:
        return ("raise", type(exc), str(exc))
    per_row = [d.label_values[i] for i in d.labels.tolist()]
    order = d.label_values
    if any(v.lower().lstrip("+-") == "nan" for v in order):
        order = sorted(order)  # the old key put NaN labels in hash-seed order
    return ("ok", d.features.shape, d.features.view(np.uint32).tobytes(), per_row, order,
            d.n_classes, d.feature_names)


class TestLoadCsvMatchesRowReader:
    @settings(max_examples=400, deadline=None)
    @given(case=csv_texts())
    def test_same_result_or_error(self, tmp_path_factory, case):
        text, label = case
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = csv_outcome(csv_oracle.load_csv, path, label)
        expected = header_width_outcome(text, expected) or expected
        assert csv_outcome(load_csv, path, label) == expected

    def test_workload_shape_bits(self, tmp_path):
        # 64 float32 columns written with %.9g, as the benchmark's CSV is
        rng = np.random.default_rng(5)
        feats = (rng.standard_normal((300, 64)) * 10.0 ** rng.integers(-8, 9, (300, 64)))
        feats = feats.astype(np.float32)
        lines = [",".join(f"f{j}" for j in range(64)) + ",label"]
        lines += [",".join("%.9g" % v for v in row) + f",{i % 3}"
                  for i, row in enumerate(feats.tolist())]
        p = tmp_path / "w.csv"
        p.write_text("\n".join(lines) + "\n")
        d = load_csv(p, "label")
        np.testing.assert_array_equal(d.features.view(np.uint32), feats.view(np.uint32))
        assert csv_outcome(load_csv, p, "label") == csv_outcome(csv_oracle.load_csv, p, "label")


class TestStandardizer:
    def test_hand_arithmetic(self):
        d = Dataset(np.array([[2.0], [4.0]], np.float32), np.array([0, 1], np.uint16), 2)
        s = fit_standardizer(d)
        assert s.mean[0] == pytest.approx(3.0)
        assert s.inv_std[0] == pytest.approx(1.0)

    def test_constant_column(self):
        d = Dataset(np.full((3, 1), 5.0, np.float32), np.array([0, 1, 0], np.uint16), 2)
        s = fit_standardizer(d)
        assert s.mean[0] == 5.0 and s.inv_std[0] == 1.0

    def test_pixel_range_column(self):
        # population sigma of [0, 255] is 127.5
        d = Dataset(np.array([[0.0], [255.0]], np.float32), np.array([0, 1], np.uint16), 2)
        s = fit_standardizer(d)
        assert s.mean[0] == pytest.approx(127.5)
        assert s.inv_std[0] == pytest.approx(1.0 / 127.5)
        assert apply_standardizer(s, [255.0])[0] == pytest.approx(1.0)

    def test_identity_at_mean(self):
        s = Standardizer(np.array([3.0, -1.0], np.float32), np.array([2.0, 5.0], np.float32))
        np.testing.assert_array_equal(apply_standardizer(s, s.mean), [0.0, 0.0])
        assert apply_standardizer(s, [4.0, -1.0])[0] == pytest.approx(2.0)

    def test_shape_error(self):
        s = Standardizer(np.array([3.0], np.float32), np.array([1.0], np.float32))
        with pytest.raises(ShapeError):
            apply_standardizer(s, [1.0, 2.0])

    def test_overflow_saturates_without_warning(self):
        # finite inputs whose standardized value leaves float32 become +-inf
        # silently, as the engine's do; the subtraction can overflow too
        s = Standardizer(np.array([0.0, -3e38], np.float32), np.array([4.0, 1.0], np.float32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_standardizer(s, np.array([[3e38, 3e38], [-3e38, 0.0]], np.float32))
        want = np.array([[np.inf, np.inf], [-np.inf, 3e38]], np.float32)
        np.testing.assert_array_equal(out, want)

    def test_inv_std_positive(self):
        with pytest.raises(ShapeError):
            Standardizer(np.zeros(2, np.float32), np.array([1.0, 0.0], np.float32))

    def test_large_finite_column(self):
        # deviations near 1e20 overflow a float32 square; that column's
        # variance comes from float64, and every other column keeps its bits
        rng = np.random.RandomState(3)
        X = rng.randn(300, 4).astype(np.float32)
        big = X.copy()
        big[:, 1] *= np.float32(1e20)
        labels = rng.randint(0, 2, 300).astype(np.uint16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = fit_standardizer(Dataset(big, labels, 2))
        plain = fit_standardizer(Dataset(X, labels, 2))
        rest = [0, 2, 3]
        for got, want in ((s.mean, plain.mean), (s.inv_std, plain.inv_std)):
            np.testing.assert_array_equal(got[rest].view(np.uint32), want[rest].view(np.uint32))
        assert np.isfinite(s.inv_std).all() and (s.inv_std > 0).all()
        want = 1.0 / big[:, 1].astype(np.float64).std()
        assert s.inv_std[1] == pytest.approx(want, rel=1e-6)


class TestStratifiedSplit:
    def test_round_half_up_counts(self):
        d = Dataset(np.arange(10, dtype=np.float32).reshape(10, 1),
                    np.array([0] * 5 + [1] * 5, np.uint16), 2)
        a, b = stratified_split(d, 0.5, 3)
        assert a.n_samples == 6 and b.n_samples == 4
        assert np.bincount(a.labels).tolist() == [3, 3]
        assert np.bincount(b.labels).tolist() == [2, 2]

    def test_even_split(self):
        d = Dataset(np.arange(4, dtype=np.float32).reshape(4, 1),
                    np.array([0, 0, 1, 1], np.uint16), 2)
        a, b = stratified_split(d, 0.5, 1)
        assert np.bincount(a.labels, minlength=2).tolist() == [1, 1]
        assert np.bincount(b.labels, minlength=2).tolist() == [1, 1]

    def test_deterministic(self):
        rng = np.random.RandomState(1)
        d = Dataset(rng.rand(40, 3).astype(np.float32),
                    rng.randint(0, 4, 40).astype(np.uint16), 4)
        a1, b1 = stratified_split(d, 0.3, 99)
        a2, b2 = stratified_split(d, 0.3, 99)
        np.testing.assert_array_equal(a1.features, a2.features)
        np.testing.assert_array_equal(b1.labels, b2.labels)

    def test_disjoint_exhaustive(self):
        rng = np.random.RandomState(2)
        feats = rng.rand(37, 2).astype(np.float32)
        d = Dataset(feats, (np.arange(37) % 3).astype(np.uint16), 3)
        a, b = stratified_split(d, 0.4, 7)
        seen = np.vstack([a.features, b.features])
        assert seen.shape[0] == 37
        assert {tuple(r) for r in seen} == {tuple(r) for r in feats}

    @pytest.mark.parametrize("fraction, empty", [(0.125, "first"), (0.875, "second")])
    def test_empty_part_raises_typed_error(self, fraction, empty):
        # one class of 2 rows: round-half-up(0.25) = 0 and (1.75) = 2 rows go first
        d = Dataset(np.zeros((2, 1), np.float32), np.array([0, 0], np.uint16), 1)
        with pytest.raises(StratificationError,
                           match=rf"^fraction {fraction} of class counts \[2\] leaves a part"):
            stratified_split(d, fraction, 0)

    def test_singleton_class_rejected(self):
        d = Dataset(np.zeros((3, 1), np.float32), np.array([0, 0, 1], np.uint16), 2)
        with pytest.raises(StratificationError):
            stratified_split(d, 0.5, 0)


class TestFoldPlan:
    def test_exact_divisibility(self):
        d = Dataset(np.random.RandomState(0).rand(100, 2).astype(np.float32),
                    np.array([0] * 50 + [1] * 50, np.uint16), 2)
        plan = make_fold_plan(d, 5, 1, 4)
        for f in range(5):
            mask = plan[0] == f
            assert mask.sum() == 20
            assert np.bincount(d.labels[mask]).tolist() == [10, 10]

    def test_repeats_differ(self):
        d = Dataset(np.random.RandomState(0).rand(60, 2).astype(np.float32),
                    (np.arange(60) % 3).astype(np.uint16), 3)
        plan = make_fold_plan(d, 5, 2, 11)
        assert plan.shape == (2, 60)
        assert not np.array_equal(plan[0], plan[1])

    def test_unbalanced_allocation(self):
        # 6+4 samples over 4 folds: totals stay within one of 10/4, class
        # remainders land on the lightest folds
        d = Dataset(np.arange(10, dtype=np.float32).reshape(10, 1),
                    np.array([0] * 6 + [1] * 4, np.uint16), 2)
        plan = make_fold_plan(d, 4, 1, 123)
        totals = np.bincount(plan[0], minlength=4)
        assert sorted(totals.tolist()) == [2, 2, 3, 3]
        for f in range(4):
            counts = np.bincount(d.labels[plan[0] == f], minlength=2)
            assert abs(counts[0] - 6 / 4) <= 1 and abs(counts[1] - 4 / 4) <= 1

    def test_partition_exact(self):
        # one fold id per row per repeat, every fold tested in every repeat:
        # the folds' test rows partition the rows (run_experiment's split of
        # each fold is checked in test_bench's TestRunExperiment)
        rng = np.random.RandomState(9)
        d = Dataset(rng.rand(83, 2).astype(np.float32),
                    rng.randint(0, 4, 83).astype(np.uint16), 4)
        plan = make_fold_plan(d, 4, 3, 5)
        assert (plan.shape, plan.dtype) == ((3, 83), np.uint16)
        for r in range(3):
            assert np.bincount(plan[r]).size == 4 and np.bincount(plan[r]).all()

    def test_stratification_bound(self):
        rng = np.random.RandomState(3)
        labels = rng.randint(0, 5, 127).astype(np.uint16)
        labels[:25] = np.arange(25) % 5  # every class big enough
        d = Dataset(rng.rand(127, 2).astype(np.float32), labels, 5)
        plan = make_fold_plan(d, 5, 2, 77)
        class_counts = np.bincount(labels, minlength=5)
        for r in range(2):
            for f in range(5):
                cnt = np.bincount(labels[plan[r] == f], minlength=5)
                assert (np.abs(cnt - class_counts / 5) <= 1).all()

    def test_small_class_rejected(self):
        d = Dataset(np.zeros((10, 1), np.float32),
                    np.array([0] * 8 + [1] * 2, np.uint16), 2)
        with pytest.raises(StratificationError):
            make_fold_plan(d, 5, 1, 0)

    def test_deterministic(self):
        d = Dataset(np.random.RandomState(0).rand(40, 2).astype(np.float32),
                    (np.arange(40) % 2).astype(np.uint16), 2)
        p1 = make_fold_plan(d, 4, 2, 21)
        p2 = make_fold_plan(d, 4, 2, 21)
        np.testing.assert_array_equal(p1, p2)


class TestDatasetInvariants:
    def test_rejects_nan(self):
        feats = np.array([[np.nan]], np.float32)
        with pytest.raises(FormatError):
            Dataset(feats, np.array([0], np.uint16), 1)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(FormatError):
            Dataset(np.zeros((2, 1), np.float32), np.array([0, 3], np.uint16), 2)

    def test_immutable(self):
        d = Dataset(np.zeros((2, 1), np.float32), np.array([0, 1], np.uint16), 2)
        with pytest.raises(ValueError):
            d.features[0, 0] = 1.0


def row_id_dataset(labels, n_classes):
    """One feature holding the row index, so a part's features name its rows."""
    n = len(labels)
    return Dataset(np.arange(n, dtype=np.float32).reshape(n, 1),
                   np.asarray(labels, np.uint16), n_classes)


@st.composite
def class_layouts(draw, min_count):
    """Labels with every present class at least ``min_count`` strong, some
    classes absent, in a drawn order."""
    counts = draw(st.lists(st.one_of(st.just(0), st.integers(min_count, 40)),
                           min_size=1, max_size=5).filter(any))
    labels = [c for c, k in enumerate(counts) for _ in range(k)]
    return draw(st.permutations(labels)), len(counts)


def row_ids(part):
    return part.features[:, 0].astype(np.int64)


class TestSplitProperties:
    @settings(max_examples=120, deadline=None)
    @given(layout=class_layouts(2), fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**64 - 1))
    def test_stratified_split_invariants(self, layout, fraction, seed):
        labels, n_classes = layout
        d = row_id_dataset(labels, n_classes)
        n = len(labels)
        ia = stratified_indices(d.labels, d.n_classes, fraction, seed)
        ib = np.setdiff1d(np.arange(n), ia)
        assert (np.diff(ia) > 0).all() and ia.dtype == np.int64
        counts = np.bincount(d.labels, minlength=n_classes)
        taken = np.bincount(d.labels[ia], minlength=n_classes)
        for cls, cnt in enumerate(counts.tolist()):
            assert taken[cls] == min(math.floor(fraction * cnt + 0.5), cnt)
        if ia.size == 0 or ib.size == 0:
            with pytest.raises(StratificationError, match="leaves a part with no samples"):
                stratified_split(d, fraction, seed)
            return
        a, b = stratified_split(d, fraction, seed)
        np.testing.assert_array_equal(row_ids(a), ia)
        np.testing.assert_array_equal(row_ids(b), ib)
        np.testing.assert_array_equal(a.labels, d.labels[ia])
        np.testing.assert_array_equal(b.labels, d.labels[ib])

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), n_splits=st.integers(2, 6), n_repeats=st.integers(1, 3),
           seed=st.integers(0, 2**64 - 1))
    def test_fold_plan_invariants(self, data, n_splits, n_repeats, seed):
        labels, n_classes = data.draw(class_layouts(n_splits))
        d = row_id_dataset(labels, n_classes)
        plan = make_fold_plan(d, n_splits, n_repeats, seed)
        counts = np.bincount(d.labels, minlength=n_classes)
        n = len(labels)
        assert (plan.shape, plan.dtype) == ((n_repeats, n), np.uint16)
        for r in range(n_repeats):
            a = plan[r]
            assert a.max() < n_splits
            sizes = np.bincount(a, minlength=n_splits)
            assert sizes.sum() == n and sizes.max() - sizes.min() <= 1
            assert (np.abs(sizes - n / n_splits) < 1).all()
            for f in range(n_splits):
                per_class = np.bincount(d.labels[a == f], minlength=n_classes)
                assert (np.abs(per_class - counts / n_splits) < 1).all()


def labelled_rows(n, n_classes, seed):
    rng = np.random.RandomState(seed)
    labels = rng.randint(0, n_classes, n)
    labels[:2 * n_classes] = np.arange(2 * n_classes) % n_classes
    return row_id_dataset(labels, n_classes)


def crc(a):
    return zlib.crc32(np.ascontiguousarray(a, dtype=np.int64).tobytes())


class TestGoldenIndices:
    """crc32 pins of split and fold-plan indices, recorded before the shuffle
    drew its bounds in one block: any change to a seeded permutation shows."""

    @pytest.mark.parametrize("n, n_classes, seed, fraction, split_seed, first, second", [
        (37, 3, 1, 0.4, 7, 0x7C8FD986, 0x685486FB),
        (600, 5, 2, 0.5, 11, 0xC3B4EC89, 0xDEF45A95),
        (5000, 10, 3, 0.3, 12345, 0x56D48A04, 0x19517EAD),
    ])
    def test_stratified_split(self, n, n_classes, seed, fraction, split_seed, first, second):
        a, b = stratified_split(labelled_rows(n, n_classes, seed), fraction, split_seed)
        assert (crc(row_ids(a)), crc(row_ids(b))) == (first, second)

    @pytest.mark.parametrize("n, n_classes, seed, n_splits, n_repeats, plan_seed, pin", [
        (83, 4, 4, 4, 3, 5, 0xD15ED54F),
        (600, 5, 5, 5, 2, 21, 0xDA78A478),
        (5000, 10, 6, 2, 1, 9, 0xCE31F4B4),
    ])
    def test_fold_plan(self, n, n_classes, seed, n_splits, n_repeats, plan_seed, pin):
        plan = make_fold_plan(labelled_rows(n, n_classes, seed), n_splits, n_repeats, plan_seed)
        assert crc(plan) == pin
