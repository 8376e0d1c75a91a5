"""Cross-validated benchmark harness and report writer.

One pool is trained per fold and shared by every configured method. Reported
cost is the deterministic node-visit count (+1 per centroid distance for the
clustering methods); wall-clock numbers go to a separate timings file so the
main report files are byte-reproducible under a fixed seed.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from ._rng import derive_seed
from .cluster import fit_kmeans
from .data import (Dataset, apply_standardizer, fit_standardizer,
                   load_csv, load_idx, make_fold_plan, stratified_indices,
                   stratified_split)
from .errors import IoError, NondeterminismError, TinyDesError
from .selection import (build_competence_model, build_dsel, des_clustering_batch,
                        knora_e_batch, knora_regions, knora_u_batch,
                        pool_predictions, single_best, static_selection,
                        vote_rows)
from .tinyformat import export_tiny
from .trees import ForestSpec, PoolConfig, generate_pool

METHOD_ORDER = ["single_best", "static_selection", "knora_u", "knora_e",
                "des_clustering", "oracle"]

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

    def load(self) -> Dataset:
        if self.csv is not None:
            col = self.label_column
            if isinstance(col, str) and col.lstrip("-").isdigit():
                col = int(col)
            return load_csv(self.csv, col)
        if self.images is None or self.labels is None:
            raise IoError(f"dataset {self.name!r} needs either csv= or images=+labels=")
        return load_idx(self.images, self.labels)


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
    forests: tuple[tuple[int, int], ...] = ((25, 10), (20, 5))
    profile: str = "desk-scale"  # or "full"
    limit: int | None = None  # explicit subset size; None: profile default

    def pool_config(self) -> PoolConfig:
        return PoolConfig(tuple(ForestSpec(n, d) for n, d in self.forests))

    def subset_limit(self) -> int | None:
        if self.limit is not None:
            return self.limit
        return DESK_SCALE_LIMIT if self.profile == "desk-scale" else None

    def resolve_n_acc(self) -> int:
        if self.n_acc is not None:
            return self.n_acc
        return int(np.ceil(self.pool_config().pool_size / 2))

    def validate(self) -> None:
        for m in self.methods:
            if m not in METHOD_ORDER:
                raise IoError(f"unknown method {m!r}; choose from {METHOD_ORDER}")
        if not (0.0 < self.dsel_fraction < 1.0):
            raise IoError(f"dsel_fraction must be in (0, 1), got {self.dsel_fraction}")
        if not (0.0 < self.pct_static <= 1.0):
            raise IoError(f"pct_static must be in (0, 1], got {self.pct_static}")
        if self.n_splits < 2 or self.n_repeats < 1:
            raise IoError("need n_splits >= 2 and n_repeats >= 1")
        if self.k_clusters < 1 or self.k_neighbors < 1:
            raise IoError("need k_clusters >= 1 and k_neighbors >= 1")
        if any(j < 1 for j in self.j_values) or not self.j_values:
            raise IoError(f"j_values must be positive, got {self.j_values}")
        n_acc = self.resolve_n_acc()
        if "des_clustering" in self.methods and max(self.j_values) > n_acc:
            raise IoError(f"J {max(self.j_values)} exceeds the accuracy shortlist "
                          f"N_acc={n_acc}")


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = [
        f"seed = {cfg.seed}",
        f"profile = {cfg.profile}",
        f"methods = {','.join(cfg.methods)}",
        f"j_values = {','.join(str(j) for j in cfg.j_values)}",
        f"k_clusters = {cfg.k_clusters}",
        f"k_neighbors = {cfg.k_neighbors}",
        f"n_acc = {'auto' if cfg.n_acc is None else cfg.n_acc}",
        f"pct_static = {cfg.pct_static!r}",
        f"n_splits = {cfg.n_splits}",
        f"n_repeats = {cfg.n_repeats}",
        f"dsel_fraction = {cfg.dsel_fraction!r}",
        f"forests = {','.join(f'{n}:{d}' for n, d in cfg.forests)}",
        f"limit = {'auto' if cfg.limit is None else cfg.limit}",
        f"out_dir = {cfg.out_dir}",
    ]
    for ds in cfg.datasets:
        if ds.csv is not None:
            lines.append(f"dataset.{ds.name}.csv = {ds.csv}")
            lines.append(f"dataset.{ds.name}.label_column = {ds.label_column}")
        else:
            lines.append(f"dataset.{ds.name}.images = {ds.images}")
            lines.append(f"dataset.{ds.name}.labels = {ds.labels}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ExperimentConfig:
    plain: dict[str, str] = {}
    ds_fields: dict[str, dict[str, str]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise IoError(f"bad config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key.startswith("dataset."):
            _, name, fieldname = key.split(".", 2)
            ds_fields.setdefault(name, {})[fieldname] = val
        else:
            plain[key] = val
    kwargs = {}
    if "seed" in plain:
        kwargs["seed"] = int(plain["seed"])
    if "profile" in plain:
        kwargs["profile"] = plain["profile"]
    if "methods" in plain:
        kwargs["methods"] = tuple(m for m in plain["methods"].split(",") if m)
    if "j_values" in plain:
        kwargs["j_values"] = tuple(int(v) for v in plain["j_values"].split(",") if v)
    for key in ("k_clusters", "k_neighbors", "n_splits", "n_repeats"):
        if key in plain:
            kwargs[key] = int(plain[key])
    if "n_acc" in plain:
        kwargs["n_acc"] = None if plain["n_acc"] == "auto" else int(plain["n_acc"])
    if "limit" in plain:
        kwargs["limit"] = None if plain["limit"] == "auto" else int(plain["limit"])
    for key in ("pct_static", "dsel_fraction"):
        if key in plain:
            kwargs[key] = float(plain[key])
    if "forests" in plain:
        kwargs["forests"] = tuple(
            tuple(int(x) for x in part.split(":")) for part in plain["forests"].split(",") if part)
    if "out_dir" in plain:
        kwargs["out_dir"] = plain["out_dir"]
    specs = []
    for name in sorted(ds_fields):
        f = ds_fields[name]
        col: str | int = f.get("label_column", -1)
        if isinstance(col, str) and col.lstrip("-").isdigit():
            col = int(col)
        specs.append(DatasetSpec(
            name=name,
            images=f.get("images"),
            labels=f.get("labels"),
            csv=f.get("csv"),
            label_column=col,
        ))
    kwargs["datasets"] = tuple(specs)
    return ExperimentConfig(**kwargs)


@dataclass
class FoldRecord:
    dataset: str
    method: str
    params: str
    repeat: int
    fold: int
    accuracy: float
    mean_cost: float
    wall_per_inference_s: float
    pool_fingerprint: int


@dataclass
class ResultRow:
    dataset: str
    method: str
    params: str
    mean_accuracy: float
    std_accuracy: float
    mean_cost: float
    mean_wall_per_inference_s: float
    model_bytes: int
    n_folds: int
    status: str = "ok"
    error: str = ""


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)
    fold_records: list[FoldRecord] = field(default_factory=list)
    config: ExperimentConfig | None = None


def _dataset_seed(master: int, name: str) -> int:
    return derive_seed(master, zlib.crc32(name.encode("utf-8")))


def desk_scale_subset(d: Dataset, limit: int, seed: int) -> Dataset:
    """Class-stratified subset of about `limit` samples."""
    if d.n_samples <= limit:
        return d
    return d.subset(stratified_indices(d, limit / d.n_samples, seed))


def _method_key(method: str, params: str) -> str:
    return f"{method}|{params}" if params else method


@dataclass
class _FoldOutcome:
    accuracy: float
    mean_cost: float
    wall_s: float
    model_bytes: int
    error: str = ""


def _evaluate_fold(cfg: ExperimentConfig, train: Dataset, test: Dataset,
                   fold_seed: int):
    """Train one pool and run every configured method on it.

    Returns (per-method outcomes dict, pool fingerprint).
    """
    pool_train, dsel_part = stratified_split(train, 1.0 - cfg.dsel_fraction,
                                             derive_seed(fold_seed, 1))
    s = fit_standardizer(pool_train)
    std_train = Dataset(apply_standardizer(s, pool_train.features), pool_train.labels,
                        train.n_classes)
    pool = generate_pool(std_train, cfg.pool_config(), derive_seed(fold_seed, 2))
    dsel = build_dsel(pool, dsel_part, s)
    test_std = np.ascontiguousarray(apply_standardizer(s, test.features), dtype=np.float32)
    target = test.labels.astype(np.int64)
    n_test = test.n_samples
    preds, visits = pool_predictions(pool, test_std)
    correct = preds == target[None, :]

    dsel_bytes = dsel.samples.nbytes + dsel.labels.nbytes
    std_bytes = 8 * s.n_features
    outcomes: dict[str, _FoldOutcome] = {}

    def run(method: str, params: str, fn):
        key = _method_key(method, params)
        t0 = time.perf_counter()
        try:
            acc, cost, model_bytes = fn()
        except TinyDesError as exc:
            outcomes[key] = _FoldOutcome(np.nan, np.nan, 0.0, 0,
                                         error=f"{type(exc).__name__}: {exc}")
            return
        wall = (time.perf_counter() - t0) / max(1, n_test)
        outcomes[key] = _FoldOutcome(acc, cost, wall, model_bytes)

    # KNORA-U and KNORA-E share one region search, made by whichever runs
    # first; a search that fails caches nothing, so each fails alike.
    region_cache = []

    def _knora(batch_fn):
        if not region_cache:
            region_cache.append(knora_regions(dsel, test_std, cfg.k_neighbors))
        labels, costs = batch_fn(dsel, pool, test_std, cfg.k_neighbors, preds, visits,
                                 region_cache[0])
        return (float((labels == target).mean()), float(costs.mean()),
                pool.node_bytes() + std_bytes + dsel_bytes)

    for method in cfg.methods:
        if method == "single_best":
            def _sb():
                best = single_best(dsel)
                acc = float(correct[best].mean())
                cost = float(visits[best].mean())
                return acc, cost, pool.trees[best].n_nodes * 8 + std_bytes
            run(method, "", _sb)
        elif method == "static_selection":
            def _st():
                sel = static_selection(dsel, cfg.pct_static)
                labels = vote_rows(preds[sel].T, np.ones((n_test, sel.size)), pool.n_classes)
                acc = float((labels == target).mean())
                cost = float(visits[sel].sum(axis=0).mean())
                size = 8 * sum(pool.trees[i].n_nodes for i in sel) + std_bytes
                return acc, cost, size
            run(method, f"pct={cfg.pct_static:g}", _st)
        elif method == "knora_u":
            run(method, f"k={cfg.k_neighbors}", lambda: _knora(knora_u_batch))
        elif method == "knora_e":
            run(method, f"k={cfg.k_neighbors}", lambda: _knora(knora_e_batch))
        elif method == "des_clustering":
            km_cache = []
            n_acc = min(cfg.resolve_n_acc(), pool.pool_size)
            for j in cfg.j_values:
                def _dc(j=j):
                    if not km_cache:
                        km_cache.append(fit_kmeans(dsel.samples, cfg.k_clusters,
                                                   derive_seed(fold_seed, 3)))
                    cm = build_competence_model(dsel, km_cache[0], n_acc, j)
                    labels, costs = des_clustering_batch(cm, pool, test_std, preds, visits)
                    blob, _ = export_tiny(s, cm, pool)
                    return (float((labels == target).mean()), float(costs.mean()),
                            len(blob))
                run(method, f"J={j}", _dc)
        elif method == "oracle":
            def _or():
                return float(correct.any(axis=0).mean()), float(visits.sum(axis=0).mean()), 0
            run(method, "", _or)
        else:
            raise IoError(f"unknown method {method!r}; choose from {METHOD_ORDER}")
    return outcomes, pool.fingerprint()


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Repeated stratified cross-validation of every (dataset, method) pair.

    Fold seeds derive from the master seed and the dataset name, so adding or
    removing other datasets never changes a dataset's folds.
    """
    cfg.validate()
    table = ResultTable(config=cfg)
    for spec in cfg.datasets:
        full = spec.load()
        ds_seed = _dataset_seed(cfg.seed, spec.name)
        limit = cfg.subset_limit()
        data = desk_scale_subset(full, limit, derive_seed(ds_seed, 999)) if limit else full
        plan = make_fold_plan(data, cfg.n_splits, cfg.n_repeats, derive_seed(ds_seed, 0))
        per_method: dict[str, list[FoldRecord]] = {}
        model_bytes: dict[str, int] = {}
        errors: dict[str, str] = {}
        for repeat, fold, train_idx, test_idx in plan.iter_folds():
            fold_seed = derive_seed(ds_seed, 1 + repeat * cfg.n_splits + fold)
            outcomes, fingerprint = _evaluate_fold(
                cfg, data.subset(train_idx), data.subset(test_idx), fold_seed)
            for key, oc in outcomes.items():
                method, _, params = key.partition("|")
                if oc.error:
                    errors[key] = oc.error
                    continue
                per_method.setdefault(key, []).append(FoldRecord(
                    spec.name, method, params, repeat, fold,
                    oc.accuracy, oc.mean_cost, oc.wall_s, fingerprint))
                model_bytes[key] = oc.model_bytes
        for key in sorted(per_method, key=_method_sort_key):
            records = per_method[key]
            method, _, params = key.partition("|")
            accs = np.array([r.accuracy for r in records])
            table.rows.append(ResultRow(
                dataset=spec.name, method=method, params=params,
                mean_accuracy=float(accs.mean()),
                std_accuracy=float(accs.std()),  # population std, like the tables
                mean_cost=float(np.mean([r.mean_cost for r in records])),
                mean_wall_per_inference_s=float(np.mean([r.wall_per_inference_s for r in records])),
                model_bytes=model_bytes[key],
                n_folds=len(records)))
            table.fold_records.extend(records)
        for key, err in sorted(errors.items()):
            method, _, params = key.partition("|")
            table.rows.append(ResultRow(spec.name, method, params,
                                        float("nan"), float("nan"), float("nan"), 0.0,
                                        0, 0, status="failed", error=err))
    return table


def _method_sort_key(key: str):
    method, _, params = key.partition("|")
    rank = METHOD_ORDER.index(method) if method in METHOD_ORDER else len(METHOD_ORDER)
    jnum = 0
    if params.startswith("J="):
        jnum = int(params[2:])
    return (rank, jnum, params)


def measure_inference(engine, probes: Dataset, warmup: int = 1, reps: int = 3):
    """Per-probe wall-clock and deterministic cost for a loaded tiny engine.

    Runs `warmup` untimed passes, then `reps` timed passes. The cost metric
    must be identical across reps; wall-clock of course is not. Wall-clock
    mean, std, p50 and p99 are over every timed probe of every rep.
    """
    if probes.n_samples == 0:
        raise IoError("no probes to measure")
    feats = probes.features
    n = probes.n_samples
    for _ in range(warmup):
        for i in range(n):
            engine.predict(feats[i])
    walls = []
    ref_costs = None
    for _ in range(max(1, reps)):
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
        "mean_cost": float(ref_costs.mean()),
        "std_cost": float(ref_costs.std()),
        "n_probes": n,
        "reps": max(1, reps),
    }


def _fmt(v: float) -> str:
    return repr(float(v))


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

    rows = sorted(table.rows, key=lambda r: (r.dataset, _method_sort_key(_method_key(r.method, r.params))))
    lines = ["dataset,method,params,mean_accuracy,std_accuracy,mean_cost,model_bytes,n_folds,status,error"]
    for r in rows:
        lines.append(",".join([
            r.dataset, r.method, r.params, _fmt(r.mean_accuracy), _fmt(r.std_accuracy),
            _fmt(r.mean_cost), str(r.model_bytes), str(r.n_folds), r.status, r.error]))
    write("results.csv", "\n".join(lines) + "\n")

    frecs = sorted(table.fold_records,
                   key=lambda r: (r.dataset, _method_sort_key(_method_key(r.method, r.params)),
                                  r.repeat, r.fold))
    lines = ["dataset,method,params,repeat,fold,accuracy,mean_cost,pool_fingerprint"]
    for r in frecs:
        lines.append(",".join([
            r.dataset, r.method, r.params, str(r.repeat), str(r.fold),
            _fmt(r.accuracy), _fmt(r.mean_cost), f"{r.pool_fingerprint:08x}"]))
    write("folds.csv", "\n".join(lines) + "\n")

    lines = ["dataset,method,params,repeat,fold,wall_per_inference_s"]
    for r in frecs:
        lines.append(",".join([r.dataset, r.method, r.params, str(r.repeat), str(r.fold),
                               _fmt(r.wall_per_inference_s)]))
    write("timings.csv", "\n".join(lines) + "\n")

    datasets = sorted({r.dataset for r in rows})
    label_of = {}
    for r in rows:
        if r.method == "des_clustering":
            label_of[_method_key(r.method, r.params)] = f"DES-Clustering_{r.params[2:]}"
        elif r.method == "knora_u":
            label_of[_method_key(r.method, r.params)] = f"KNORA-U ({r.params})"
        elif r.method == "knora_e":
            label_of[_method_key(r.method, r.params)] = f"KNORA-E ({r.params})"
        else:
            label_of[_method_key(r.method, r.params)] = {
                "single_best": "Single Best", "static_selection": "Static Selection",
                "oracle": "Oracle"}.get(r.method, r.method)
    keys = sorted(label_of, key=_method_sort_key)
    cell = {(r.dataset, _method_key(r.method, r.params)): r for r in rows}
    width = max(len(v) for v in label_of.values()) + 2

    def grid(value_fn, title):
        out_lines = [title, ""]
        head = " " * width + "".join(f"{d:>16}" for d in datasets)
        out_lines.append(head)
        for key in keys:
            row = label_of[key].ljust(width)
            for d in datasets:
                r = cell.get((d, key))
                row += f"{value_fn(r):>16}" if r is not None else f"{'-':>16}"
            out_lines.append(row)
        return "\n".join(out_lines) + "\n"

    write("accuracy_table.txt", grid(
        lambda r: "failed" if r.status != "ok" else f"{r.mean_accuracy:.3f} ({r.std_accuracy:.3f})",
        "Overall accuracy (std) by dataset and method"))
    write("cost_table.txt", grid(
        lambda r: "failed" if r.status != "ok" else f"{r.mean_cost:.1f}",
        "Mean inference cost (node visits + centroid distances) by dataset and method"))
    if table.config is not None:
        write("config.txt", config_to_text(table.config))
    return paths
