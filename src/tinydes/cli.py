"""Command-line interface.

Subcommands: train, crossval, bench-infer, export-src, inspect.
Flags override values from an optional --config key=value file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .bench import (DEFAULT_FULL_METHODS, METHOD_ORDER, PARSERS, DatasetSpec,
                    ExperimentConfig, config_settings, emit_report, fit_competence,
                    fit_pool, measure_inference, run_experiment)
from .errors import IoError, TinyDesError
from .tinyformat import emit_static_source, export_tiny, load_tiny


def _add_dataset_flags(p, required=True):
    p.add_argument("--dataset", required=required,
                   help="IDX image file or CSV file (a .csv suffix, any case, switches modes)")
    p.add_argument("--labels", help="IDX label file (IDX mode)")
    p.add_argument("--label-column",
                   help="CSV label column name or index (CSV mode; default -1, the last)")


def _spec_from_flags(args, name="cli") -> DatasetSpec:
    path = args.dataset
    if path.lower().endswith(".csv"):
        column = "-1" if args.label_column is None else args.label_column
        return DatasetSpec(name=name, csv=path, label_column=column)
    if not args.labels:
        raise TinyDesError("--labels is required for IDX datasets")
    return DatasetSpec(name=name, images=path, labels=args.labels)


def _setting(p, flag, name, **kw):
    """A flag that sets ExperimentConfig field ``name`` and reads its value
    as that field's config line does; a flag not given leaves no attribute,
    so the field keeps its value."""
    p.add_argument(flag, dest=name, type=PARSERS[name], default=argparse.SUPPRESS, **kw)


def _model_flags(p):
    _setting(p, "--j", "j_values", help="ensemble size(s), comma separated")
    _setting(p, "--clusters", "k_clusters", help="k-means cluster count")
    _setting(p, "--n-acc", "n_acc", help="accuracy shortlist size, or auto (ceil(pool / 2))")
    _setting(p, "--dsel-fraction", "dsel_fraction")
    _setting(p, "--seed", "seed")
    _setting(p, "--out", "out_dir", help="output directory")


def _settings(args) -> dict:
    """The ExperimentConfig fields that the given flags set."""
    return {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
            if hasattr(args, f.name)}


def cmd_train(args) -> int:
    cfg = ExperimentConfig(**_settings(args))
    cfg.validate()
    data = _spec_from_flags(args).load()
    s, pool, dsel = fit_pool(data, cfg.dsel_fraction, cfg.forests, cfg.seed)
    ranked = fit_competence(dsel, cfg, cfg.seed)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for j in cfg.j_values:
        blob, manifest = export_tiny(s, ranked.top(j), pool)
        model_path = out / f"model_j{j}.tdes"
        model_path.write_bytes(blob)
        (out / f"model_j{j}.manifest").write_text(manifest, encoding="utf-8")
        print(f"wrote {model_path} ({len(blob)} bytes, pool {pool.pool_size} trees, "
              f"k={cfg.k_clusters}, J={j})")
    return 0


def cmd_crossval(args) -> int:
    stray = [flag for flag, value in (("--name", args.name), ("--labels", args.labels),
                                      ("--label-column", args.label_column))
             if value is not None]
    if stray and not args.dataset:
        print(f"error: {', '.join(stray)} given without --dataset", file=sys.stderr)
        return 2
    try:
        settings = (config_settings(Path(args.config).read_text(encoding="utf-8"))
                    if args.config else {})
    except UnicodeDecodeError as exc:
        raise IoError(f"config file is not UTF-8: {args.config}: {exc}") from None
    settings.update(_settings(args))
    if args.dataset:
        name = "dataset" if args.name is None else args.name
        settings["datasets"] = (_spec_from_flags(args, name=name),)
    # methods that neither the file nor --method gives follow the profile
    settings["methods"] = tuple(settings.get(
        "methods", DEFAULT_FULL_METHODS if settings.get("profile") == "full" else METHOD_ORDER))
    cfg = ExperimentConfig(**settings)
    if not cfg.datasets:
        print("error: no datasets configured (use --dataset or a --config file)",
              file=sys.stderr)
        return 2
    table = run_experiment(cfg)
    paths = emit_report(table, cfg.out_dir)
    for r in table.rows:
        tag = f"{r.method}" + (f" {r.params}" if r.params else "")
        if r.status == "ok":
            print(f"{r.dataset:>12}  {tag:<28} acc {r.mean_accuracy:.4f} "
                  f"({r.std_accuracy:.4f})  cost {r.mean_cost:10.1f}")
        else:
            print(f"{r.dataset:>12}  {tag:<28} FAILED: {r.error}")
    print("reports:", ", ".join(sorted(paths.values())))
    return 0


def cmd_bench_infer(args) -> int:
    if args.reps < 1 or args.warmup < 0:
        print(f"error: --reps must be >= 1 and --warmup >= 0, got {args.reps} and "
              f"{args.warmup}", file=sys.stderr)
        return 2
    engine = load_tiny(Path(args.model).read_bytes())
    probes = _spec_from_flags(args).load()
    stats = measure_inference(engine, probes, warmup=args.warmup, reps=args.reps)
    print(f"probes             : {stats['n_probes']}")
    print(f"reps               : {stats['reps']}")
    print(f"mean wall per probe: {stats['mean_wall_s'] * 1e6:.2f} us "
          f"(std {stats['std_wall_s'] * 1e6:.2f})")
    print(f"p50 / p99 per probe: {stats['p50_wall_s'] * 1e6:.2f} / "
          f"{stats['p99_wall_s'] * 1e6:.2f} us")
    print(f"throughput         : {stats['probes_per_s']:.0f} probes/s")
    print(f"mean cost per probe: {stats['mean_cost']:.2f} node visits + centroid units "
          f"(std {stats['std_cost']:.2f})")
    return 0


def cmd_export_src(args) -> int:
    source = emit_static_source(Path(args.model).read_bytes())
    Path(args.out).write_text(source, encoding="utf-8")
    print(f"wrote {args.out} ({len(source)} chars)")
    return 0


def cmd_inspect(args) -> int:
    blob = Path(args.model).read_bytes()
    engine = load_tiny(blob)
    print(f"file               = {args.model}")
    print(f"bytes              = {len(blob)}")
    print(f"n_features         = {engine.n_features}")
    print(f"n_classes          = {engine.n_classes}")
    print(f"k_clusters         = {engine.k}")
    print(f"ensemble_size (J)  = {engine.j}")
    print(f"trees retained     = {engine.pool_size}")
    print(f"node records       = {len(engine.walk_feature)}")
    print(f"rom_estimate_bytes = {len(blob) - 4}")
    print("crc                = ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tinydes",
                                 description="train, benchmark and compact "
                                             "clustering-selected tree ensembles")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit the full pipeline and export .tdes models")
    _add_dataset_flags(p)
    _model_flags(p)
    p.set_defaults(fn=cmd_train, j_values=(20,), out_dir="models")

    p = sub.add_parser("crossval", help="repeated stratified cross-validation benchmark")
    p.add_argument("--config", help="key=value config file; flags override")
    _add_dataset_flags(p, required=False)  # a --config file may name the datasets
    p.add_argument("--name", help="name of the --dataset file in reports (default: dataset)")
    p.add_argument("--method", dest="methods", action="append", choices=METHOD_ORDER,
                   default=argparse.SUPPRESS,
                   help="repeatable; default: all six (KNORA excluded with --full)")
    _model_flags(p)
    _setting(p, "--neighbors", "k_neighbors")
    _setting(p, "--pct-static", "pct_static")
    _setting(p, "--splits", "n_splits")
    _setting(p, "--repeats", "n_repeats")
    scale = p.add_mutually_exclusive_group()
    scale.add_argument("--desk-scale", dest="profile", action="store_const",
                       const="desk-scale", default=argparse.SUPPRESS,
                       help="stratified 5000-sample subset (default)")
    scale.add_argument("--full", dest="profile", action="store_const", const="full",
                       default=argparse.SUPPRESS, help="entire dataset")
    p.set_defaults(fn=cmd_crossval)

    p = sub.add_parser("bench-infer", help="time a .tdes engine on probe data")
    p.add_argument("--model", required=True)
    _add_dataset_flags(p)
    p.add_argument("--warmup", type=int, default=1, help="untimed passes, >= 0 (default 1)")
    p.add_argument("--reps", type=int, default=3, help="timed passes, >= 1 (default 3)")
    p.set_defaults(fn=cmd_bench_infer)

    p = sub.add_parser("export-src", help="emit the C89 source form of a .tdes model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export_src)

    p = sub.add_parser("inspect", help="validate a .tdes file and print its counts and sizes")
    p.add_argument("--model", required=True)
    p.set_defaults(fn=cmd_inspect)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TinyDesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
