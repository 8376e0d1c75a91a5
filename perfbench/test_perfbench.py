"""Tests of the benchmark's own code. Run: python3 -m pytest perfbench"""

import io
import signal
import statistics
import sys
import time
import threading
import types
from types import SimpleNamespace

import numpy as np
import pytest

import calib
import checks
import datagen
import run
import spans

RESULTS_HEAD = ("dataset,method,params,mean_accuracy,std_accuracy,mean_cost,model_bytes,"
                "n_folds,status,error\n")


def test_pixel_generator_is_seeded():
    a_px, a_lab = datagen.pixel_dataset(5)
    b_px, b_lab = datagen.pixel_dataset(5)
    c_px, c_lab = datagen.pixel_dataset(6)
    assert a_px.shape == (60000, 784) and a_px.dtype == np.uint8
    assert a_px.tobytes() == b_px.tobytes() and a_lab.tobytes() == b_lab.tobytes()
    assert a_px.tobytes() != c_px.tobytes() and a_lab.tobytes() != c_lab.tobytes()


def test_float_generator_is_seeded_distinct_and_round_trips():
    feats, labels = datagen.float_dataset(5)
    text = datagen.csv_text(feats, labels)
    assert text == datagen.csv_text(*datagen.float_dataset(5))
    assert text != datagen.csv_text(*datagen.float_dataset(6))
    assert all(np.unique(feats[:, j]).size == feats.shape[0] for j in range(feats.shape[1]))
    parsed = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert (parsed[:, :-1].astype(np.float32) == feats).all()
    assert (parsed[:, -1].astype(np.int64) == labels).all()


def test_idx_pair_layout(tmp_path):
    pixels = np.arange(2 * 784, dtype=np.uint32).astype(np.uint8).reshape(2, 784)
    datagen.write_idx_pair(pixels, np.array([3, 7], np.uint8), tmp_path / "i", tmp_path / "l")
    images = (tmp_path / "i").read_bytes()
    assert images[:16] == bytes.fromhex("00000803 00000002 0000001c 0000001c")
    assert images[16:] == pixels.tobytes()
    assert (tmp_path / "l").read_bytes() == bytes.fromhex("00000801 00000002 03 07")


def test_describe_counts_distinct_values_and_zeros():
    d = datagen.describe(np.array([[0, 5], [0, 5], [1, 6], [0, 7]], dtype=np.uint8))
    assert d["mean_distinct_per_feature"] == 2.5 and d["zero_share"] == 3 / 8


def test_speed_factor_arithmetic():
    # calibration units took 4 and 6 ms around a block; reference is 5 ms
    assert calib.speed_factor([0.004, 0.006], reference=0.005) == pytest.approx(1.0)
    # a host running at half the reference speed: 2 s raw reads as 1 s
    assert 2.0 * calib.speed_factor([0.006], reference=0.003) == pytest.approx(1.0)


def test_clock_normalizes_by_calibration_on_both_sides(monkeypatch):
    windows = iter([[0.002, 0.002], [0.004], [0.006, 0.006]])
    monkeypatch.setattr(calib, "measure_window", lambda: next(windows))
    clock = calib.Clock(reference=0.003)
    result, _, factor = clock.block(lambda x: x + 1, 6)
    assert result == 7 and factor == pytest.approx(0.003 / statistics.fmean([0.002, 0.002, 0.004]))
    _, _, factor = clock.block(lambda: None, sample=False)
    assert factor == pytest.approx(0.003 / statistics.fmean([0.004, 0.006, 0.006]))
    assert clock.samples == [0.002, 0.002, 0.004, 0.006, 0.006]


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_long_block_is_calibrated_during_and_units_are_taken_out():
    clock = calib.Clock()
    before = len(clock.samples)
    _, raw, _ = clock.block(_spin, 0.45)
    inside = len(clock.samples) - before - calib.WINDOW_UNITS
    assert inside >= 3
    assert raw == pytest.approx(0.45 - sum(clock.samples[before:before + inside]), abs=0.005)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_traced_block_records_calibration_as_child_spans():
    clock, tracer = calib.Clock(), spans.Tracer()
    _, raw, _ = clock.block(lambda: tracer.span("x.root", _spin, 0.45), tracer=tracer)
    sp = tracer.spans
    assert sp[0][0] == "x.root" and len(sp) >= 4
    assert all(name == calib.CALIB_SPAN and parent == 0 for name, _, _, parent, _ in sp[1:])
    total, _, _ = spans.totals(sp)
    assert total["x.root"] == pytest.approx(raw, abs=0.002)
    layers = spans.layer_self_times(sp)
    assert layers["x"] == pytest.approx(total["x.root"])


def test_single_thread_check():
    calib.check_single_thread(0.100, 0.100, "block")
    calib.check_single_thread(0.102, 0.100, "block")  # clock granularity
    with pytest.raises(calib.CalibrationError):
        calib.check_single_thread(0.200, 0.100, "block")


def test_calibration_fails_while_another_thread_works():
    stop = threading.Event()

    def spin():
        x = 0
        while not stop.is_set():
            x += 1

    worker = threading.Thread(target=spin)
    worker.start()
    try:
        with pytest.raises(calib.CalibrationError):
            for _ in range(5):  # one clean reading is possible if the spinner stalls
                calib.measure_window()
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()


def test_percentile_rule():
    assert checks.samples_beyond(100, 90) == 10
    assert checks.samples_beyond(99, 90) == 9
    assert checks.percentile(list(range(101)), 90) == pytest.approx(90.0)
    with pytest.raises(ValueError):
        checks.percentile(list(range(99)), 90)
    assert checks.highest_percentile(10000) == 99.9
    assert checks.highest_percentile(1000) == 99.0
    assert checks.highest_percentile(999) == 90.0
    assert checks.highest_percentile(20) == 50.0
    assert checks.highest_percentile(19) is None


def test_self_time_is_span_minus_children():
    sp = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 3.0, 0, 1],
        ["b", 2.0, 4.0, 0, 1],  # overlaps a: the union 1..4 is covered once
        ["c", 5.0, 6.0, 0, 1],
        ["d", 5.2, 5.5, 3, 1],
    ]
    assert spans.self_times(sp) == pytest.approx([6.0, 2.0, 2.0, 0.7, 0.3])


def test_tracer_nests_counts_and_restores():
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(n):
        return n * 2

    def outer(n):
        return mod.inner(n) + mod.inner(n)

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    calls = []
    wraps = (
        (mod.__name__, "outer", "x.outer", True, None),
        (mod.__name__, "inner", "y.inner", False, lambda c, a, r: calls.append((a, r))),
        (mod.__name__, "absent", "y.absent", False, None),
    )
    tracer = spans.Tracer()
    try:
        tracer.install(wraps)
        assert mod.outer(3) == 12
        assert mod.outer(1) == 4
    finally:
        tracer.uninstall()
        del sys.modules[mod.__name__]
    assert mod.outer is outer and mod.inner is inner
    assert tracer.missing == [f"{mod.__name__}.absent"]
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("x.outer", -1, 1), ("y.inner", 0, 1), ("y.inner", 0, 1),
        ("x.outer", -1, 2), ("y.inner", 3, 2), ("y.inner", 3, 2)]
    assert calls == [((3,), 6), ((3,), 6), ((1,), 2), ((1,), 2)]
    total, own, n = spans.totals(tracer.spans)
    roots = sum(e - s for _, s, e, p, _ in tracer.spans if p < 0)
    assert sum(spans.layer_self_times(tracer.spans).values()) == pytest.approx(roots)
    assert n == {"x.outer": 2, "y.inner": 4}
    assert total["x.outer"] == pytest.approx(roots)


def test_band_span_names_and_unused_wrappers():
    """Split-search spans carry their node-size band; a wrapper that is never
    called, or whose span name no longer fits the call, is reported."""
    mod = types.ModuleType("perfbench_fake_kernels")
    def best_split(values):
        return len(values)

    mod.best_split, mod.idle = best_split, lambda: None
    sys.modules[mod.__name__] = mod
    wraps = ((mod.__name__, "best_split", spans.best_split_span, False, None),
             (mod.__name__, "idle", "y.idle", False, None))
    tracer = spans.Tracer()
    try:
        tracer.install(wraps)
        assert mod.best_split(np.zeros((150, 2))) == 150
        assert mod.best_split([1, 2, 3]) == 3  # no shape: named after the function
    finally:
        tracer.uninstall()
        del sys.modules[mod.__name__]
    assert [sp[0] for sp in tracer.spans] == ["kernels.best_split.n_100_999", "best_split"]
    assert tracer.unused() == [f"{mod.__name__}.idle"]
    assert len(tracer.missing) == 1 and tracer.missing[0].startswith("span name of best_split")


def test_verdict_fails_on_any_untraced_or_failed_operation():
    ops = checks.Ops()
    ops.record(10, 0)
    assert run.verdict(ops, [], [])
    assert not run.verdict(ops, [], ["tinydes._kernels.best_split"])
    assert not run.verdict(ops, ["kernels.best_split_s"], [])
    ops.record(1, 1, "probe differs")
    assert not run.verdict(ops, [], [])


def test_size_band():
    assert [spans.size_band(n) for n in (1, 99, 100, 999, 1000)] == [
        "n_lt100", "n_lt100", "n_100_999", "n_100_999", "n_ge1000"]


def test_ops_counting():
    ops = checks.Ops()
    ops.record(3, 0)
    ops.record(5, 2, "two bad")
    assert (ops.attempted, ops.failed, ops.notes) == (8, 2, ["two bad"])
    with pytest.raises(ValueError):
        ops.record(1, 2)


def test_failed_rows_and_probe_mismatches():
    rows = checks.parse_results(
        RESULTS_HEAD + "d,knora_u,k=7,0.9,0.0,10.0,0,2,ok,\n"
        "d,knora_e,k=7,nan,nan,nan,0,0,failed,SelectionError: x\n")
    assert checks.failed_rows(rows) == 1
    assert checks.row(rows, "knora_u", "k=7")["mean_accuracy"] == "0.9"
    got = [(1, 5), (2, 6), None]
    assert checks.probe_mismatches(got, [(1, 5), (2, 7), (3, 3)]) == 2


def test_crossval_phase_counts_failures(tmp_path):
    """A failed row, a report that changes between calls and an exception
    are each counted as failed operations."""
    out = tmp_path / "out"
    bodies = iter([
        RESULTS_HEAD + "d,oracle,,1.0,0.0,5.0,0,2,ok,\n",
        RESULTS_HEAD + "d,oracle,,0.9,0.0,5.0,0,2,ok,\n",
        RESULTS_HEAD + "d,oracle,,1.0,0.0,5.0,0,2,ok,\nd,knora_e,k=7,,,,0,0,failed,x\n",
        None,
    ])

    def main(argv):
        body = next(bodies)
        if body is None:
            raise RuntimeError("crossval crashed")
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.csv").write_text(body)
        (out / "folds.csv").write_text("dataset,method,params,repeat,fold,accuracy,"
                                       "mean_cost,pool_fingerprint\nd,oracle,,0,0,1.0,5.0,0a\n")
        return 0

    td = SimpleNamespace(cli=SimpleNamespace(main=main))
    prep = SimpleNamespace(crossval_argv=["crossval"], report_dir=out)
    ops = checks.Ops()
    timings, rows = run.crossval_phase(td, calib.Clock(), prep, ops, 0.0, calls_wanted=4)
    assert len(timings) == 4 and checks.failed_rows(rows) == 0
    # call 1 ok (2 ops); call 2 differs (2 ops, 1 failed); call 3 differs and
    # has a failed row (3 ops, 2 failed); call 4 raises (1 op, 1 failed)
    assert (ops.attempted, ops.failed) == (8, 4)
