#!/usr/bin/env python3
"""Benchmark of ``tinydes`` end to end and layer by layer (see README.md here).

    python3 perfbench/run.py --workload crossval-pixels784 --seed 1 --seconds 50 --trace 0

Every workload sets up three times, runs ``tinydes crossval`` in-process
through ``cli.main`` and then serves a ``.tdes`` engine to one closed-loop
caller; ``--seconds`` bounds the three phases together. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

import os

# Pin every thread pool before numpy loads: calibrated times assume one busy
# thread, and KNORA's distance product would otherwise start BLAS threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["TINYDES_BACKEND"] = "numpy"

import argparse
import contextlib
import io
import json
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calib
import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

SETUP_REPS = 3
MIN_CROSSVAL_CALLS = 2  # byte-identity of the reports needs two calls
# The engine is served in slices before each crossval call and after the
# last, so that its samples span the run: the host's speed shifts for seconds
# at a time in ways the calibration unit does not follow for the engine.
ENGINE_SLICE_SHARE = 0.05  # of --seconds per slice; the last slice runs to the deadline
PROBES_PER_BLOCK = 200  # about 30 ms of probes between calibrations
LOADS_PER_BLOCK = 10  # model loads after each block of probes
MIN_PASSES = 2


def import_tinydes():
    src = ROOT / "src"
    if not (src / "tinydes" / "__init__.py").is_file():
        raise SystemExit(f"error: no tinydes sources at {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import tinydes
    import tinydes.cli  # noqa: F401  (crossval entry point)
    if Path(tinydes.__file__).resolve().parent != (src / "tinydes").resolve():
        raise SystemExit(f"error: imported tinydes from {tinydes.__file__}, not from {src}")
    return tinydes


class Report:
    """Collects metrics under the names and units BENCHMARK.json declares."""

    def __init__(self, declared: list):
        self.declared = {m["name"]: m["unit"] for m in declared}
        self.metrics: dict = {}

    def add(self, name: str, value, raw=None, n=None) -> None:
        unit = self.declared[name]
        self.metrics[name] = {"value": float(value), "unit": unit}
        extra = []
        if raw is not None:
            extra.append(f"raw {raw:.6g}")
        if n is not None:
            extra.append(f"n={n}")
        print(f"  {name:<36} {float(value):>14.6g} {unit:<6} {', '.join(extra)}")

    def missing(self) -> list:
        return [name for name in self.declared if name not in self.metrics]


def verdict(ops, missing_metrics: list, not_traced: list) -> bool:
    """A run is correct when no operation failed, every declared metric was
    produced and every traced function was found, called and counted."""
    return ops.failed == 0 and not missing_metrics and not not_traced


def run_crossval(td, argv, tracer=None):
    """One ``tinydes crossval`` call; returns (exit code, traceback text)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                return td.cli.main(argv), ""
            return tracer.span("cli.main", td.cli.main, argv, new_group=True), ""
    except Exception:  # counted as a failed operation, traceback kept
        return None, traceback.format_exc()


def crossval_phase(td, clock, prep, ops, until, calls_wanted=None, tracer=None,
                   before_call=None):
    """Repeat the crossval call while another fits before ``until`` (a
    ``perf_counter`` time), at least twice, or ``calls_wanted`` times; every
    call's reports must be byte-identical. ``before_call`` runs before each
    call, outside its timing. Returns the
    (raw seconds, speed factor) of each call and the first call's
    ``results.csv`` rows."""
    timings, first = [], None
    while True:
        if before_call is not None:
            before_call()
        shutil.rmtree(prep.report_dir, ignore_errors=True)
        (rc, err), raw, factor = clock.block(run_crossval, td, prep.crossval_argv, tracer,
                                             tracer=tracer)
        timings.append((raw, factor))
        try:
            results = (prep.report_dir / "results.csv").read_bytes()
            folds = (prep.report_dir / "folds.csv").read_bytes()
        except OSError as exc:
            results, folds, err = b"", b"", err or str(exc)
        rows = checks.parse_results(results.decode("utf-8")) if results else []
        if first is None:
            first = (results, folds, rows)
        broken = rc != 0 or bool(err) or (results, folds) != first[:2]
        ops.record(1 + len(rows), checks.failed_rows(rows) + int(broken),
                   f"crossval call {len(timings)}: exit {rc} {err.strip()[-300:]}")
        if err:
            print(err, file=sys.stderr)
        if calls_wanted is not None:
            if len(timings) >= calls_wanted:
                break
        elif (len(timings) >= MIN_CROSSVAL_CALLS and time.perf_counter()
              + statistics.median(r for r, _ in timings) > until):
            break
    results, folds, rows = first
    print(f"  results.csv sha256 {checks.sha256(results)}")
    print(f"  folds.csv   sha256 {checks.sha256(folds)}")
    print(f"  pool fingerprints  {' '.join(checks.fold_fingerprints(folds.decode('utf-8')))}")
    return timings, rows


def probe_pass(engine, rows):
    """Closed loop, one caller, no think time: each probe is sent when the
    previous answer is back. Returns answers and per-probe seconds."""
    predict, now = engine.predict, time.perf_counter
    answers, latency = [], []
    for x in rows:
        t0 = now()
        try:
            answer = predict(x)
        except Exception:  # a failed probe, counted by the caller
            answer = None
        latency.append(now() - t0)
        answers.append(answer)
    return answers, latency


def load_block(load, model: bytes, n: int, tracer=None):
    times, failures = [], 0
    for _ in range(n):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                load(model)
            else:
                tracer.span("tinyformat.load", load, model, new_group=True)
        except Exception:  # a failed load, counted by the caller
            failures += 1
        times.append(time.perf_counter() - t0)
    return times, failures


def engine_samples() -> dict:
    return {"lat": [], "lat_raw": [], "loads": [], "loads_raw": [], "span_factor": [],
            "probes": 0, "pass_raw": 0.0, "pass_norm": 0.0}


def engine_phase(td, clock, prep, ops, budget_s, tracer=None, out=None):
    """Serve whole passes over the probes, with a few model loads after each
    block of probes, so that both are sampled across the whole phase. Blocks
    are short and calibrated between, not during, so that no calibration
    lands inside a timed call. Returns per-probe and per-load times
    (normalized and raw), pass totals and, when traced, the speed factor of
    every span, added to ``out`` when given."""
    out = engine_samples() if out is None else out

    def timed(fn, *args):
        mark = len(tracer) if tracer is not None else 0
        result, raw, factor = clock.block(fn, *args, sample=False)
        if tracer is not None:
            out["span_factor"] += [factor] * (len(tracer) - mark)
        return result, raw, factor

    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < budget_s:
        for lo in range(0, len(prep.probes), PROBES_PER_BLOCK):
            hi = lo + PROBES_PER_BLOCK
            (answers, latency), raw, factor = timed(probe_pass, prep.engine, prep.probes[lo:hi])
            ops.record(len(answers), checks.probe_mismatches(answers, prep.reference[lo:hi]),
                       "engine answers differ from des_clustering_predict")
            out["lat"] += [t * factor for t in latency]
            out["lat_raw"] += latency
            out["probes"] += len(answers)
            out["pass_raw"] += raw
            out["pass_norm"] += raw * factor
            (times, failures), _, factor = timed(
                load_block, td.load_tiny, prep.model, LOADS_PER_BLOCK, tracer)
            ops.record(len(times), failures, "load_tiny raised")
            out["loads"] += [t * factor for t in times]
            out["loads_raw"] += times
        passes += 1
    return out


def print_environment(td, clock):
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    print(f"env: backend={td.BACKEND} numpy={np.__version__} python={platform.python_version()} "
          f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} {threads}")
    print(f"env: reference calibration {calib.REFERENCE_CALIB_S * 1e3:.3f} ms, "
          f"first measured {clock.samples[0] * 1e3:.3f} ms")


def end_to_end(td, clock, report, prep, ops, seconds, deadline, setup):
    """Untraced run: crossval calls with an engine slice before each, then
    the engine until ``deadline`` (for at least one slice); every end-to-end
    metric."""
    print("crossval phase, with engine slices between calls:")
    slice_s = seconds * ENGINE_SLICE_SHARE
    eng = engine_samples()
    timings, rows = crossval_phase(
        td, clock, prep, ops, deadline - 2 * slice_s,
        before_call=lambda: engine_phase(td, clock, prep, ops, slice_s, out=eng))
    engine_s = max(slice_s, deadline - time.perf_counter())
    print(f"last engine slice ({engine_s:.1f} s):")
    engine_phase(td, clock, prep, ops, engine_s, out=eng)
    norm = [raw * f for raw, f in timings]
    print("metrics (host times at reference speed; raw = measured seconds):")
    report.add("setup_s", statistics.median(s for s, _ in setup),
               raw=statistics.median(r for _, r in setup), n=len(setup))
    report.add("crossval_s", statistics.median(norm),
               raw=statistics.median(r for r, _ in timings), n=len(timings))
    if rows:
        j20 = checks.row(rows, "des_clustering", "J=20")
        report.add("des_j20_accuracy", j20["mean_accuracy"])
        report.add("des_j20_cost", j20["mean_cost"])
        report.add("des_j20_model_bytes", j20["model_bytes"])
        report.add("knora_u_accuracy", checks.row(rows, "knora_u", "k=7")["mean_accuracy"])
        report.add("knora_e_accuracy", checks.row(rows, "knora_e", "k=7")["mean_accuracy"])
    n = len(eng["lat"])
    report.add("probe_p50_us", 1e6 * checks.percentile(eng["lat"], 50),
               raw=1e6 * checks.percentile(eng["lat_raw"], 50), n=n)
    report.add("probe_p90_us", 1e6 * checks.percentile(eng["lat"], 90),
               raw=1e6 * checks.percentile(eng["lat_raw"], 90), n=n)
    top = checks.highest_percentile(n)
    print(f"  (highest percentile with >= {checks.MIN_BEYOND} samples beyond it: p{top:g} = "
          f"{1e6 * checks.percentile(eng['lat'], top):.1f} us of n={n}; not gated)")
    report.add("probe_per_s", eng["probes"] / eng["pass_norm"],
               raw=eng["probes"] / eng["pass_raw"], n=eng["probes"])
    report.add("load_ms", 1e3 * statistics.median(eng["loads"]),
               raw=1e3 * statistics.median(eng["loads_raw"]), n=len(eng["loads"]))
    engine_acc = float(np.mean(np.array([r[0] for r in prep.reference]) == prep.probe_labels))
    print(f"  (engine on {len(prep.probes)} held-out probes: accuracy {engine_acc:.4f}, "
          f"mean cost {np.mean([r[1] for r in prep.reference]):.2f} visits)")


def per_layer(td, clock, report, prep, ops, seconds, deadline, work):
    """Traced run: every per-layer metric. Returns the wrap targets that were
    missing, never called or not counted; a per-layer figure read from them
    would be a silent zero."""
    print("untraced crossval call:")
    untraced, _ = crossval_phase(td, clock, prep, ops, 0.0, calls_wanted=1)
    tracer = spans.Tracer()
    print("traced crossval call:")
    with tracer:
        traced, rows = crossval_phase(td, clock, prep, ops, 0.0, calls_wanted=1, tracer=tracer)
    (t_raw, f), (u_raw, u_f) = traced[0], untraced[0]
    sp = tracer.spans
    selfs = spans.self_times(sp)
    total, own, calls = spans.totals(sp, selfs)
    c = tracer.counts
    layer_self = spans.layer_self_times(sp, selfs)
    spans.write_spans(sp, work / "spans-crossval.csv")

    def t(name):
        return total.get(name, 0.0) * f

    print("per-layer metrics (span times at reference speed):")
    bs_calls = c["kernels.best_split.calls"]
    bands = [band for band, _, _ in spans.SIZE_BANDS]
    report.add("kernels.best_split_s", sum(t(f"kernels.best_split.{band}") for band in bands))
    report.add("kernels.best_split.calls", bs_calls)
    report.add("kernels.best_split.rows", c["kernels.best_split.rows"])
    report.add("kernels.best_split.found_ratio", c["kernels.best_split.found"] / max(bs_calls, 1))
    for band in bands:
        report.add(f"kernels.best_split_s.{band}", t(f"kernels.best_split.{band}"))
        report.add(f"kernels.best_split.calls.{band}", c[f"kernels.best_split.calls.{band}"])
        report.add(f"kernels.best_split.rows.{band}", c[f"kernels.best_split.rows.{band}"])
    report.add("trees.generate_pool_s", t("trees.generate_pool"))
    report.add("trees.train_tree_self_s", own.get("trees.train_tree", 0.0) * f)
    report.add("trees.train_tree_calls", c["trees.train_tree_calls"])
    report.add("trees.nodes", c["trees.nodes"])
    for name in ("data.load", "data.split", "data.standardize", "selection.knora_u",
                 "selection.knora_e", "kernels.pairwise_sqdist", "selection.build_dsel",
                 "selection.pool_predictions", "kernels.tree_walk", "cluster.fit_kmeans",
                 "selection.competence", "selection.des_clustering", "tinyformat.export",
                 "bench.emit_report"):
        report.add(name + "_s", t(name))
    report.add("selection.queries", c["selection.queries"])
    report.add("kernels.tree_walk_rows", c["kernels.tree_walk_rows"])
    report.add("cluster.kmeans_iterations", c["cluster.kmeans_iterations"])
    report.add("tinyformat.export_calls", c["tinyformat.export_calls"])
    report.add("bench.run_experiment_self_s",
               (own.get("bench.run_experiment", 0.0) + own.get("bench.fold", 0.0)) * f)
    calib_s = layer_self.pop("calib", 0.0)
    for layer in ("cli", "bench", "data", "trees", "kernels", "cluster", "selection",
                  "tinyformat"):
        report.add(f"layer.{layer}.self_s", layer_self.get(layer, 0.0) * f)
    traced_s, untraced_s = t_raw * f, u_raw * u_f
    overhead = traced_s / untraced_s
    report.add("trace.crossval_s", traced_s, raw=t_raw)
    self_sum = sum(layer_self.values()) * f
    # Not a check: the spans nest under one root, so this holds by construction.
    print(f"  layer self times sum to {self_sum:.4f} s against traced crossval {traced_s:.4f} s "
          f"(untraced {untraced_s:.4f} s; {calib_s:.4f} s of in-block calibration left out)")
    folds = max(calls.get("bench.fold", 1), 1)
    print(f"  descriptors: per fold DSEL {c['selection.dsel_rows'] / folds:.0f} rows, "
          f"test {c['selection.pool_prediction_rows'] / folds:.0f} rows")
    rows_all = max(c["kernels.best_split.rows"], 1)
    print("  descriptors: best_split share by node size: " + ", ".join(
        f"{band} calls {c[f'kernels.best_split.calls.{band}'] / max(bs_calls, 1):.3f} "
        f"rows {c[f'kernels.best_split.rows.{band}'] / rows_all:.3f}"
        for band, _, _ in spans.SIZE_BANDS))

    print("traced engine phase:")
    etracer = spans.Tracer()
    with etracer:
        eng = engine_phase(td, clock, prep, ops,
                           max(3 * seconds * ENGINE_SLICE_SHARE, deadline - time.perf_counter()),
                           etracer)
    esp = etracer.spans
    spans.write_spans(esp, work / "spans-engine.csv")
    factor = eng["span_factor"]
    predict = [(e - s) * k for (n, s, e, _, _), k in zip(esp, factor) if n == "tinyformat.predict"]
    infer = [(e - s) * k for (n, s, e, _, _), k in zip(esp, factor) if n == "kernels.tiny_infer"]
    loads = [(e - s) * k for (n, s, e, _, _), k in zip(esp, factor) if n == "tinyformat.load"]
    report.add("tinyformat.load_s", statistics.median(loads), n=len(loads))
    report.add("tinyformat.predict_s", statistics.fmean(predict), n=len(predict))
    report.add("kernels.tiny_infer_s", statistics.fmean(infer), n=len(infer))
    report.add("tinyformat.predict_p99_us", 1e6 * checks.percentile(predict, 99), n=len(predict))
    visits = etracer.counts["tinyformat.node_visits"] / max(etracer.counts["tinyformat.predict_calls"], 1)
    report.add("tinyformat.node_visits", visits)
    # Node visits are the engine's own cost minus k, and every probe's cost is
    # already checked against des_clustering_predict; crossval's J=20 model is
    # a model of the same shape trained on other rows, so this is a comparison.
    if rows:
        print(f"  engine node visits + k = {visits + prep.engine.k:.2f}; crossval des_j20_cost "
              f"{float(checks.row(rows, 'des_clustering', 'J=20')['mean_cost']):.2f}")
    report.add("env.calib_ms", clock.median_ms(), n=len(clock.samples))
    report.add("env.tracing_overhead", overhead)
    never = set(tracer.unused()) & set(etracer.unused())
    return sorted(set(tracer.missing + etracer.missing) | never)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + args.seconds

    clock = calib.Clock()
    td, import_raw, import_factor = clock.block(import_tinydes)
    print_environment(td, clock)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = checks.Ops()

    setup, first, prep = [], None, None
    for _ in range(SETUP_REPS):
        prep = None  # release the previous input before drawing the next
        prep, raw, factor = clock.block(
            workloads.SETUPS[args.workload], td, args.seed, work)
        setup.append((import_raw * import_factor + raw * factor, import_raw + raw))
        fingerprint = (prep.input_sha256, checks.sha256(prep.model), prep.reference)
        first = first or fingerprint
        ops.record(1, int(fingerprint != first), "set-up is not deterministic")
    print(f"workload {args.workload} seed {args.seed}: input sha256 {prep.input_sha256}, "
          f"model sha256 {checks.sha256(prep.model)}")
    print("descriptors: " + ", ".join(
        f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in workloads.descriptors(prep).items()))
    prep.features = None

    report = Report(spec["per_layer"] if args.trace else spec["end_to_end"])
    not_traced = []
    if args.trace:
        not_traced = per_layer(td, clock, report, prep, ops, args.seconds, deadline, work)
    else:
        end_to_end(td, clock, report, prep, ops, args.seconds, deadline, setup)
    for problem in not_traced:
        print(f"not traced: {problem}")
    missing = report.missing()
    if missing:
        print(f"missing metrics: {', '.join(missing)}")
    for note in ops.notes:
        print(f"failure: {note}")
    print(f"operations: attempted {ops.attempted}, failed {ops.failed}; "
          f"calibration median {clock.median_ms():.3f} ms over {len(clock.samples)} units")
    correct = verdict(ops, missing, not_traced)
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": report.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
