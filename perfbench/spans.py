"""In-memory span tracing by wrapping ``tinydes`` functions where callers look them up.

A span records a name, a start, an end, its parent span and a group id;
spans of one fold, or of one probe, share the group id. Spans stay in memory
until the run ends. Wrappers live only in this file: the program itself is
not instrumented, and ``uninstall`` restores every original function.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

from calib import CALIB_SPAN

# Node-size bands of split search, in rows: the input a size-dispatched
# split path would branch on.
SIZE_BANDS = (("n_lt100", 0, 100), ("n_100_999", 100, 1000), ("n_ge1000", 1000, None))


def size_band(n: int) -> str:
    for name, lo, hi in SIZE_BANDS:
        if n >= lo and (hi is None or n < hi):
            return name
    raise ValueError(f"negative node size {n}")


def best_split_span(args) -> str:
    """Span name of one split search: the node-size band is part of it, so
    band times come from the spans like every other time."""
    return "kernels.best_split." + size_band(args[0].shape[0])


def _count_best_split(c, args, result):
    n = args[0].shape[0]
    band = size_band(n)
    c["kernels.best_split.calls"] += 1
    c["kernels.best_split.rows"] += n
    c["kernels.best_split.found"] += bool(result[3])
    c["kernels.best_split.calls." + band] += 1
    c["kernels.best_split.rows." + band] += n


def _count_train_tree(c, args, result):
    c["trees.train_tree_calls"] += 1
    c["trees.nodes"] += result.n_nodes


def _count_queries(c, args, result):
    c["selection.queries"] += args[2].shape[0]


def _count_tree_walk(c, args, result):
    c["kernels.tree_walk_rows"] += args[3].shape[0]


def _count_build_dsel(c, args, result):
    c["selection.dsel_rows"] += result.n_samples


def _count_pool_predictions(c, args, result):
    c["selection.pool_prediction_rows"] += result[0].shape[1]


def _count_kmeans(c, args, result):
    c["cluster.kmeans_iterations"] += result.iterations_run


def _count_export(c, args, result):
    c["tinyformat.export_calls"] += 1


def _count_predict(c, args, result):
    c["tinyformat.predict_calls"] += 1
    c["tinyformat.node_visits"] += result[1] - args[0].k


# (module, attribute, span name, opens a new group, counter). Each entry
# names the module a caller looks the function up in, so the wrapper is the
# object that caller actually calls. A span name may be a function of the
# call's arguments.
WRAPS = (
    ("tinydes.cli", "run_experiment", "bench.run_experiment", False, None),
    ("tinydes.cli", "emit_report", "bench.emit_report", False, None),
    ("tinydes.bench", "_evaluate_fold", "bench.fold", True, None),
    ("tinydes.bench", "load_idx", "data.load", False, None),
    ("tinydes.bench", "load_csv", "data.load", False, None),
    ("tinydes.bench", "stratified_split", "data.split", False, None),
    ("tinydes.bench", "make_fold_plan", "data.split", False, None),
    ("tinydes.bench", "fit_standardizer", "data.standardize", False, None),
    ("tinydes.bench", "apply_standardizer", "data.standardize", False, None),
    ("tinydes.selection", "apply_standardizer", "data.standardize", False, None),
    ("tinydes.bench", "generate_pool", "trees.generate_pool", False, None),
    ("tinydes.trees", "train_tree", "trees.train_tree", False, _count_train_tree),
    ("tinydes._kernels", "best_split", best_split_span, False, _count_best_split),
    ("tinydes._kernels", "tree_walk", "kernels.tree_walk", False, _count_tree_walk),
    ("tinydes._kernels", "pairwise_sqdist", "kernels.pairwise_sqdist", False, None),
    ("tinydes._kernels", "assign_clusters", "kernels.assign_clusters", False, None),
    ("tinydes._kernels", "cluster_means", "kernels.cluster_means", False, None),
    ("tinydes._kernels", "both_wrong_counts", "kernels.both_wrong_counts", False, None),
    ("tinydes._kernels", "tiny_infer", "kernels.tiny_infer", False, None),
    ("tinydes.bench", "build_dsel", "selection.build_dsel", False, _count_build_dsel),
    ("tinydes.bench", "pool_predictions", "selection.pool_predictions", False,
     _count_pool_predictions),
    ("tinydes.bench", "knora_u_batch", "selection.knora_u", False, _count_queries),
    ("tinydes.bench", "knora_e_batch", "selection.knora_e", False, _count_queries),
    ("tinydes.bench", "fit_kmeans", "cluster.fit_kmeans", False, _count_kmeans),
    ("tinydes.bench", "build_competence_model", "selection.competence", False, None),
    ("tinydes.bench", "des_clustering_batch", "selection.des_clustering", False, None),
    ("tinydes.bench", "export_tiny", "tinyformat.export", False, _count_export),
    ("tinydes.tinyformat", "tiny_predict", "tinyformat.predict", True, _count_predict),
)


class Tracer:
    """Collects spans and counts from wrapped functions while installed.

    The stack holds span records, not indices, so a calibration span opened
    from a signal handler between two statements of ``span`` cannot take
    another span's place.
    """

    def __init__(self):
        self._records: list[list] = []  # [name, start, end, parent record, group]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []  # wrap targets and counts that no longer fit
        self._stack: list[list] = []
        self._group = 0
        self._patched: list[tuple] = []
        self._installed: list[tuple] = []  # ("module.attribute", span name) per wrapper
        self._called: set[str] = set()

    def span(self, name, fn, *args, new_group: bool = False, counter=None, **kwargs):
        """Call ``fn`` inside a span; the benchmark's own root spans use this too."""
        if callable(name):
            try:
                name = name(args)
            except (AttributeError, IndexError, TypeError) as exc:
                # a changed signature breaks a name, never the traced call
                self.missing.append(f"span name of {fn.__name__}: {type(exc).__name__}: {exc}")
                name = fn.__name__
        if new_group:
            self._group += 1
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._group]
        self._records.append(rec)
        self._stack.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            try:
                counter(self.counts, args, result)
            except (AttributeError, IndexError, TypeError) as exc:
                self.missing.append(f"count of {name}: {type(exc).__name__}: {exc}")
        return result

    @property
    def spans(self) -> list[tuple]:
        """Finished spans as (name, start, end, parent index or -1, group)."""
        index = {id(rec): i for i, rec in enumerate(self._records)}
        return [(name, start, end, -1 if parent is None else index[id(parent)], group)
                for name, start, end, parent, group in self._records]

    def __len__(self) -> int:
        return len(self._records)

    def unused(self) -> list[str]:
        """Installed wrappers of a span name that no wrapper of it was called
        for: a re-routed call path would otherwise read as zero time. (Either
        loader of ``data.load`` suffices, as a workload reads one format.)"""
        called = {name for target, name in self._installed if target in self._called}
        return [target for target, name in self._installed if name not in called]

    def install(self, wraps=WRAPS) -> None:
        for module_name, attr, name, new_group, counter in wraps:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue

            def wrapper(*args, _fn=original, _name=name, _group=new_group, _counter=counter,
                        _target=f"{module_name}.{attr}", **kwargs):
                self._called.add(_target)
                return self.span(_name, _fn, *args, new_group=_group, counter=_counter, **kwargs)

            setattr(module, attr, wrapper)
            self._patched.append((module, attr, original))
            self._installed.append((f"{module_name}.{attr}", name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of its interval its children cover."""
    children: defaultdict[int, list] = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _calibration_beneath(spans) -> list[float]:
    """Per span: the calibration time that ran inside it."""
    out = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if name == CALIB_SPAN:
            p = parent
            while p >= 0:
                out[p] += end - start
                p = spans[p][3]
    return out


def totals(spans, selfs=None) -> tuple[dict, dict, dict]:
    """(total seconds, self seconds, calls) per span name. Totals exclude
    calibration run inside a span and count only the outermost span of a
    name, so recursion is not counted twice."""
    selfs = self_times(spans) if selfs is None else selfs
    calib = _calibration_beneath(spans)
    total: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    for i, (name, start, end, parent, _) in enumerate(spans):
        own[name] += selfs[i]
        calls[name] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += end - start - calib[i]
    return dict(total), dict(own), dict(calls)


def layer_self_times(spans, selfs=None) -> dict:
    """Self time per layer, the layer being a span name's prefix; calibration
    units run during the block form the layer ``calib``."""
    selfs = self_times(spans) if selfs is None else selfs
    out: defaultdict[str, float] = defaultdict(float)
    for rec, s in zip(spans, selfs):
        out[rec[0].split(".", 1)[0]] += s
    return dict(out)


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("name,start_s,end_s,parent,group\n")
        t0 = spans[0][1] if spans else 0.0
        for name, start, end, parent, group in spans:
            f.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{group}\n")
