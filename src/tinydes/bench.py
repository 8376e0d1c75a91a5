"""Cross-validated benchmark harness and report writer.

One pool is trained per fold and shared by every configured method. Reported
cost is the deterministic node-visit count (+1 per centroid distance for the
clustering methods); wall-clock numbers go to a separate timings file so the
main report files are byte-reproducible under a fixed seed.
"""

from __future__ import annotations

import functools
import re
import time
import zlib
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from ._rng import derive_seed
from .cluster import assign_batch, fit_kmeans
from .data import (Dataset, apply_standardizer, fit_standardizer, load_csv, load_idx,
                   make_fold_plan, stratified_split)
from .errors import IoError, NondeterminismError, TinyDesError
from .selection import (build_competence_model, build_dsel, des_clustering_batch,
                        knora_e_batch, knora_regions, knora_u_batch,
                        pool_predictions, single_best, static_selection,
                        vote_batch)
from .tinyformat import NODE_DTYPE, export_tiny
from .trees import DEFAULT_FORESTS, generate_pool

# report labels, formatted with the value of the method's "name=value"
# params, in report order
METHOD_LABELS = {"single_best": "Single Best", "static_selection": "Static Selection",
                 "knora_u": "KNORA-U (k={})", "knora_e": "KNORA-E (k={})",
                 "des_clustering": "DES-Clustering_{}", "oracle": "Oracle"}
METHOD_ORDER = list(METHOD_LABELS)

# KNORA-U and KNORA-E share one query-to-DSEL distance matrix per fold,
# which is still out of budget for the full-size image datasets; they stay
# opt-in there.
DEFAULT_FULL_METHODS = ["single_best", "static_selection", "des_clustering", "oracle"]
DESK_SCALE_LIMIT = 5000


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    images: str | None = None  # IDX image file
    labels: str | None = None  # IDX label file
    csv: str | None = None
    label_column: str | int = -1

    def __post_init__(self):
        # a digit string ("3", "-1") is a column index, any other a header name
        if isinstance(self.label_column, str) and re.fullmatch(r"-?[0-9]+", self.label_column):
            object.__setattr__(self, "label_column", int(self.label_column))

    def load(self, limit: int | None = None, seed: int = 0) -> Dataset:
        """The dataset, or with a ``limit`` its class-stratified subset of
        about ``limit`` rows, from the loader of the one source the spec
        names (``ExperimentConfig.validate`` checks that); each loader
        picks its own rows."""
        if self.csv is not None:
            return load_csv(self.csv, self.label_column, limit, seed)
        return load_idx(self.images, self.labels, limit, seed)


PROFILES = ("desk-scale", "full")


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[DatasetSpec, ...] = ()
    methods: tuple[str, ...] = tuple(METHOD_ORDER)
    j_values: tuple[int, ...] = (5, 10, 15, 20)
    k_clusters: int = 5
    k_neighbors: int = 7
    n_acc: int | None = None  # None: ceil(pool_size / 2)
    pct_static: float = 0.5
    n_splits: int = 5
    n_repeats: int = 2
    dsel_fraction: float = 0.5
    seed: int = 42
    out_dir: str = "results"
    forests: tuple[tuple[int, int], ...] = DEFAULT_FORESTS  # (n_trees, max_depth) pairs
    profile: str = "desk-scale"  # one of PROFILES

    @property
    def pool_size(self) -> int:
        return sum(n for n, _ in self.forests)

    def resolve_n_acc(self) -> int:
        return -(-self.pool_size // 2) if self.n_acc is None else self.n_acc

    def validate(self) -> None:
        """Raise IoError for the first setting outside its SETTINGS rule, then
        for a dataset whose name the reports' CSV rows or a config key could
        not hold, or that does not name exactly one source (a label column
        is a CSV's), then for an N_acc outside 1..pool size or a J over N_acc."""
        for s in SETTINGS:
            value = getattr(self, s.name)
            if not s.check(value):
                raise IoError(f"{s.name} must be {s.rule}, got {s.show(value)}")
        for ds in self.datasets:
            # isprintable rejects CR, LF and every other line break
            if (not ds.name or ds.name != ds.name.strip() or not ds.name.isprintable()
                    or set(ds.name) & set('.,="')):
                raise IoError(f"dataset name {ds.name!r} must be non-empty printable text "
                              'without surrounding spaces or any of . , = "')
            # a label column is a CSV's; -1, the default, is no field at all
            given = [f for f in _SPEC_FIELDS if getattr(ds, f) not in (None, -1)]
            if given not in (["csv"], ["csv", "label_column"], ["images", "labels"]):
                raise IoError(f"dataset {ds.name!r} needs either csv= or images=+labels=, "
                              f"got {'+'.join(f + '=' for f in given) or 'neither'}")
        n_acc = self.resolve_n_acc()
        if not 1 <= n_acc <= self.pool_size:
            raise IoError(f"n_acc must be from 1 to the pool size {self.pool_size}, "
                          f"got {n_acc}")
        if "des_clustering" in self.methods and max(self.j_values) > n_acc:
            raise IoError(f"J {max(self.j_values)} exceeds the accuracy shortlist "
                          f"N_acc={n_acc}")


def nonempty(text: str) -> str:
    """``text`` itself; an empty value raises ValueError."""
    if not text:
        raise ValueError("empty value")
    return text


def _items(text: str, parse) -> tuple:
    """The parsed items of a comma-separated list; empty items are skipped,
    and at least one is needed."""
    items = tuple(parse(v) for v in text.split(",") if v)
    if not items:
        raise ValueError(f"no items in {text!r}")
    return items


def parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated ints, such as the ensemble sizes "5,10,20"."""
    return _items(text, int)


def _forest(text: str) -> tuple[int, int]:
    n, depth = text.split(":")
    return int(n), int(depth)


def int_or_auto(text: str) -> int | None:
    return None if text == "auto" else int(text)


def _auto_text(value: int | None) -> str:
    return "auto" if value is None else str(value)


# Every ExperimentConfig field but ``datasets``, in config.txt line order.
# ``parse`` reads the text after "name = " and raises ValueError on text it
# rejects, ``show`` prints the value back, and ``check`` accepts the values
# that ``rule`` describes. n_acc's range depends on the pool, so validate
# checks it with the forests.
Setting = namedtuple("Setting", "name parse show check rule")
SETTINGS = (
    Setting("seed", int, str, lambda v: True, "an integer"),
    Setting("profile", nonempty, str, lambda v: v in PROFILES, " or ".join(PROFILES)),
    Setting("methods", lambda t: _items(t, str), ",".join,
            lambda v: 0 < len(v) == len(set(v)) and all(m in METHOD_ORDER for m in v),
            "comma-separated distinct names among " + ", ".join(METHOD_ORDER)),
    Setting("j_values", parse_ints, lambda v: ",".join(map(str, v)),
            lambda v: 0 < len(v) == len(set(v)) and min(v) >= 1,
            "comma-separated distinct integers >= 1"),
    Setting("k_clusters", int, str, lambda v: v >= 1, "an integer >= 1"),
    Setting("k_neighbors", int, str, lambda v: v >= 1, "an integer >= 1"),
    Setting("n_acc", int_or_auto, _auto_text, lambda v: True,
            "an integer from 1 to the pool size, or auto (ceil(pool / 2))"),
    Setting("pct_static", float, repr, lambda v: 0.0 < v <= 1.0, "a float in (0, 1]"),
    Setting("n_splits", int, str, lambda v: v >= 2, "an integer >= 2"),
    Setting("n_repeats", int, str, lambda v: v >= 1, "an integer >= 1"),
    Setting("dsel_fraction", float, repr, lambda v: 0.0 < v < 1.0, "a float in (0, 1)"),
    Setting("forests", lambda t: _items(t, _forest),
            lambda v: ",".join(f"{n}:{d}" for n, d in v),
            lambda v: len(v) > 0 and all(n >= 1 and d >= 0 for n, d in v),
            "comma-separated trees:depth pairs with trees >= 1 and depth >= 0"),
    Setting("out_dir", nonempty, str, bool, "a non-empty path"),
)
PARSERS = {s.name: s.parse for s in SETTINGS}
# The fields a ``dataset.<name>.<field>`` line may set.
_SPEC_FIELDS = ("csv", "label_column", "images", "labels")


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = [f"{s.name} = {s.show(getattr(cfg, s.name))}" for s in SETTINGS]
    for ds in cfg.datasets:
        names = ("csv", "label_column") if ds.csv is not None else ("images", "labels")
        lines += [f"dataset.{ds.name}.{f} = {getattr(ds, f)}" for f in names]
    return "\n".join(lines) + "\n"


def config_settings(text: str) -> dict:
    """The ExperimentConfig fields that ``key = value`` lines, as
    ``config_to_text`` writes them, set; blank lines and ``#`` comments are
    skipped. A line without "=", with an unknown key, with a key an earlier
    line gave or with a value its parser rejects raises IoError."""
    settings = {}
    specs: dict[str, dict[str, str]] = {}
    given = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, val = (part.strip() for part in line.split("=", 1))
            if key in given:
                raise KeyError(key)
            given.add(key)
            if key.startswith("dataset."):
                _, name, fieldname = key.split(".")
                if fieldname not in _SPEC_FIELDS:
                    raise KeyError(fieldname)
                specs.setdefault(name, {})[fieldname] = val
            else:
                settings[key] = PARSERS[key](val)
        except (KeyError, ValueError) as exc:
            raise IoError(f"bad config line: {raw!r}") from exc
    settings["datasets"] = tuple(DatasetSpec(name, **specs[name]) for name in sorted(specs))
    return settings


@dataclass
class FoldRecord:
    """One method's result on one fold. ``_evaluate_fold`` fills the
    method's fields and ``run_experiment`` the fold's place; a method that
    failed has its error, NaN accuracy and cost, and no time or bytes."""
    method: str
    params: str
    accuracy: float
    mean_cost: float
    wall_per_inference_s: float
    model_bytes: int
    pool_fingerprint: int
    error: str = ""
    dataset: str = ""
    repeat: int = 0
    fold: int = 0


@dataclass
class ResultRow:
    dataset: str
    method: str
    params: str
    mean_accuracy: float
    std_accuracy: float
    mean_cost: float
    model_bytes: int
    n_folds: int
    status: str = "ok"
    error: str = ""


@dataclass
class ResultTable:
    config: ExperimentConfig
    rows: list[ResultRow] = field(default_factory=list)
    fold_records: list[FoldRecord] = field(default_factory=list)


def _dataset_seed(master: int, name: str) -> int:
    return derive_seed(master, zlib.crc32(name.encode("utf-8")))


def fit_pool(train: Dataset, dsel_fraction: float, forests, seed: int):
    """Split ``train`` into pool-training rows and a DSEL, standardize on the
    pool rows, grow the forests' ``(n_trees, max_depth)`` pairs and build
    the DSEL.

    Returns (standardizer, pool, dsel). The ``train`` command and every
    crossval fold fit through here, so a seed gives both the same pool.
    """
    pool_train, dsel_part = stratified_split(train, 1.0 - dsel_fraction,
                                             derive_seed(seed, 1))
    s = fit_standardizer(pool_train)
    std_train = Dataset(apply_standardizer(s, pool_train.features), pool_train.labels,
                        train.n_classes)
    pool = generate_pool(std_train, forests, derive_seed(seed, 2))
    return s, pool, build_dsel(pool, dsel_part, s)


def fit_competence(dsel, cfg: ExperimentConfig, seed: int):
    """Cluster the DSEL and rank each cluster's ensemble as deep as the
    largest J, once for the ``train`` command and once per crossval fold."""
    km = fit_kmeans(dsel.samples, cfg.k_clusters, derive_seed(seed, 3))
    return build_competence_model(dsel, km, cfg.resolve_n_acc(), max(cfg.j_values))


def _evaluate_fold(cfg: ExperimentConfig, train: Dataset, test: Dataset,
                   fold_seed: int):
    """Train one pool and run every configured method on it.

    Returns one FoldRecord per (method, params), in run order.
    """
    s, pool, dsel = fit_pool(train, cfg.dsel_fraction, cfg.forests, fold_seed)
    test_std = np.ascontiguousarray(apply_standardizer(s, test.features), dtype=np.float32)
    target = test.labels.astype(np.int64)
    n_test = test.n_samples
    preds, visits = pool_predictions(pool, test_std)

    dsel_bytes = dsel.samples.nbytes + dsel.labels.nbytes
    std_bytes = s.mean.nbytes + s.inv_std.nbytes
    fingerprint = pool.fingerprint()
    records: list[FoldRecord] = []

    def run(method: str, params: str, fn, stage=lambda: None):
        """Time ``fn`` per test row. A ``stage`` is shared work that ``fn``
        reads from a cache; it runs first, outside the method's time, but
        its failure fails the method as one of ``fn`` would."""
        try:
            stage()
            t0 = time.perf_counter()
            acc, cost, model_bytes = fn()
        except TinyDesError as exc:
            records.append(FoldRecord(method, params, np.nan, np.nan, 0.0, 0, fingerprint,
                                      error=f"{type(exc).__name__}: {exc}"))
            return
        wall = (time.perf_counter() - t0) / max(1, n_test)
        records.append(FoldRecord(method, params, acc, cost, wall, model_bytes, fingerprint))

    # KNORA-U and KNORA-E share one region search, made by whichever runs
    # first; a search that fails caches nothing, so each fails alike.
    @functools.cache
    def regions():
        return knora_regions(dsel, test_std, cfg.k_neighbors)

    # one k-means, one ranking and one cluster assignment per fold serve every J
    @functools.cache
    def clustering():
        ranked = fit_competence(dsel, cfg, fold_seed)
        return ranked, assign_batch(ranked.kmeans, test_std)

    def _knora(batch_fn):
        labels, costs = batch_fn(dsel, pool, regions(), preds, visits)
        return (float((labels == target).mean()), float(costs.mean()),
                NODE_DTYPE.itemsize * pool.n_nodes + std_bytes + dsel_bytes)

    def _chosen(select, *args):
        """Every test row's vote of the train-time pick ``select(*args)``."""
        sel = select(*args)
        weights = np.zeros((n_test, pool.pool_size))
        weights[:, sel] = 1.0
        labels, costs = vote_batch(pool, preds, visits, weights)
        return (float((labels == target).mean()), float(costs.mean()),
                NODE_DTYPE.itemsize * int(pool.count[sel].sum()) + std_bytes)

    for method in cfg.methods:
        if method == "single_best":
            run(method, "", lambda: _chosen(single_best, dsel))
        elif method == "static_selection":
            run(method, f"pct={cfg.pct_static:g}",
                lambda: _chosen(static_selection, dsel, cfg.pct_static))
        elif method == "knora_u":
            run(method, f"k={cfg.k_neighbors}", lambda: _knora(knora_u_batch), regions)
        elif method == "knora_e":
            run(method, f"k={cfg.k_neighbors}", lambda: _knora(knora_e_batch), regions)
        elif method == "des_clustering":
            for j in cfg.j_values:
                def _dc(j=j):
                    ranked, clusters = clustering()
                    cm = ranked.top(j)
                    labels, costs = des_clustering_batch(cm, pool, clusters, preds, visits)
                    blob, _ = export_tiny(s, cm, pool)
                    return (float((labels == target).mean()), float(costs.mean()),
                            len(blob))
                run(method, f"J={j}", _dc, clustering)
        elif method == "oracle":
            def _or():
                return (float((preds == target).any(axis=0).mean()),
                        float(visits.sum(axis=0).mean()), 0)
            run(method, "", _or)
    return records


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Repeated stratified cross-validation of every (dataset, method) pair.

    Fold seeds derive from the master seed and the dataset name, so adding or
    removing other datasets never changes a dataset's folds.
    """
    cfg.validate()
    table = ResultTable(config=cfg)
    for spec in cfg.datasets:
        ds_seed = _dataset_seed(cfg.seed, spec.name)
        limit = DESK_SCALE_LIMIT if cfg.profile == "desk-scale" else None
        data = spec.load(limit, derive_seed(ds_seed, 999))
        plan = make_fold_plan(data, cfg.n_splits, cfg.n_repeats, derive_seed(ds_seed, 0))
        by_key: dict[tuple[str, str], list[FoldRecord]] = {}
        for repeat, fold in np.ndindex(cfg.n_repeats, cfg.n_splits):
            test = plan[repeat] == fold
            fold_seed = derive_seed(ds_seed, 1 + repeat * cfg.n_splits + fold)
            for r in _evaluate_fold(cfg, data.subset(np.flatnonzero(~test)),
                                    data.subset(np.flatnonzero(test)), fold_seed):
                r.dataset, r.repeat, r.fold = spec.name, repeat, fold
                by_key.setdefault((r.method, r.params), []).append(r)
        # one row per key: a method that failed on any fold is one failed
        # row with its last error, and none of its folds are reported
        for key in sorted(by_key, key=_method_sort_key):
            records = by_key[key]
            errors = [r.error for r in records if r.error]
            if errors:
                table.rows.append(ResultRow(spec.name, *key, float("nan"), float("nan"),
                                            float("nan"), 0, 0, status="failed",
                                            error=errors[-1]))
                continue
            method, params = key
            accs = np.array([r.accuracy for r in records])
            table.rows.append(ResultRow(
                dataset=spec.name, method=method, params=params,
                mean_accuracy=float(accs.mean()),
                std_accuracy=float(accs.std()),  # population std, like the tables
                mean_cost=float(np.mean([r.mean_cost for r in records])),
                model_bytes=records[-1].model_bytes,
                n_folds=len(records)))
            table.fold_records.extend(records)
    return table


def _method_sort_key(key: tuple[str, str]) -> tuple[int, int]:
    """A (method, params) key's report order: METHOD_ORDER, then J."""
    method, params = key
    return METHOD_ORDER.index(method), int(params[2:]) if params.startswith("J=") else 0


def measure_inference(engine, probes: Dataset, warmup: int = 1, reps: int = 3):
    """Per-probe wall-clock and deterministic cost for a loaded tiny engine.

    Runs `warmup` untimed passes, then `reps` timed passes. The cost metric
    must be identical across reps; wall-clock of course is not. Wall-clock
    mean, std, p50 and p99 are over every timed probe of every rep, and
    ``probes_per_s`` is the number of timed probes over the sum of their
    wall times.
    """
    if probes.n_samples == 0:
        raise IoError("no probes to measure")
    if reps < 1 or warmup < 0:
        raise IoError(f"reps must be >= 1 and warmup >= 0, got reps={reps}, warmup={warmup}")
    feats = probes.features
    n = probes.n_samples
    for _ in range(warmup):
        for i in range(n):
            engine.predict(feats[i])
    walls = []
    ref_costs = None
    for _ in range(reps):
        costs = np.empty(n, dtype=np.int64)
        for i in range(n):
            t0 = time.perf_counter()
            _, cost = engine.predict(feats[i])
            walls.append(time.perf_counter() - t0)
            costs[i] = cost
        if ref_costs is None:
            ref_costs = costs
        elif (costs != ref_costs).any():
            raise NondeterminismError("cost metric varied across reps")
    walls_arr = np.array(walls)
    p50, p99 = np.percentile(walls_arr, [50, 99])
    return {
        "mean_wall_s": float(walls_arr.mean()),
        "std_wall_s": float(walls_arr.std()),
        "p50_wall_s": float(p50),
        "p99_wall_s": float(p99),
        "probes_per_s": float(walls_arr.size / walls_arr.sum()),
        "mean_cost": float(ref_costs.mean()),
        "std_cost": float(ref_costs.std()),
        "n_probes": n,
        "reps": reps,
    }


def emit_report(table: ResultTable, out_dir) -> dict[str, str]:
    """Write results.csv, folds.csv, rendered accuracy/cost tables, the config
    snapshot, and (separately, as it is nondeterministic) timings.csv.
    Returns {logical name: path}."""
    from pathlib import Path

    if not table.rows:
        raise IoError("empty result table")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from exc

    paths = {}

    def write(name: str, text: str):
        p = out / name
        try:
            p.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot write {p}: {exc}") from exc
        paths[name] = str(p)

    def write_csv(name: str, records, columns):
        """One line per record of its ``columns`` attributes, under a header
        of their names: a fingerprint as 8 hex digits, a float as its repr,
        anything else as str."""
        def cell(column: str, v) -> str:
            if column == "pool_fingerprint":
                return f"{v:08x}"
            return repr(float(v)) if isinstance(v, float) else str(v)
        lines = [columns] + [[cell(c, getattr(r, c)) for c in columns] for r in records]
        write(name, "".join(",".join(line) + "\n" for line in lines))

    rows = sorted(table.rows, key=lambda r: (r.dataset, _method_sort_key((r.method, r.params))))
    write_csv("results.csv", rows, [f.name for f in fields(ResultRow)])
    frecs = sorted(table.fold_records,
                   key=lambda r: (r.dataset, _method_sort_key((r.method, r.params)),
                                  r.repeat, r.fold))
    place = ["dataset", "method", "params", "repeat", "fold"]
    write_csv("folds.csv", frecs, place + ["accuracy", "mean_cost", "pool_fingerprint"])
    write_csv("timings.csv", frecs, place + ["wall_per_inference_s"])

    datasets = sorted({r.dataset for r in rows})
    label_of = {(r.method, r.params): METHOD_LABELS[r.method].format(r.params.partition("=")[2])
                for r in rows}
    keys = sorted(label_of, key=_method_sort_key)
    cell = {(r.dataset, r.method, r.params): r for r in rows}
    width = max(len(v) for v in label_of.values()) + 2

    def grid(value_fn, title):
        out_lines = [title, ""]
        head = " " * width + "".join(f"{d:>16}" for d in datasets)
        out_lines.append(head)
        for key in keys:
            row = label_of[key].ljust(width)
            for d in datasets:
                r = cell.get((d, *key))
                row += f"{value_fn(r):>16}" if r is not None else f"{'-':>16}"
            out_lines.append(row)
        return "\n".join(out_lines) + "\n"

    write("accuracy_table.txt", grid(
        lambda r: "failed" if r.status != "ok" else f"{r.mean_accuracy:.3f} ({r.std_accuracy:.3f})",
        "Overall accuracy (std) by dataset and method"))
    write("cost_table.txt", grid(
        lambda r: "failed" if r.status != "ok" else f"{r.mean_cost:.1f}",
        "Mean inference cost (node visits + centroid distances) by dataset and method"))
    write("config.txt", config_to_text(table.config))
    return paths
