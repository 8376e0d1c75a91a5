"""The tracer contract: the names ``perfbench/spans.py`` wraps exist, and
its counters read the arguments and results they mean to.

perfbench wraps functions where their callers look them up and counts
``selection.queries`` from the third argument of the KNORA batch calls. A
renamed function, or a signature that moves the query axis off the third
argument, would otherwise show only in a traced benchmark run, or not at
all: a pool walk in that place would count pool rows. This file reads
perfbench and changes nothing in it.
"""

import importlib
import sys
from pathlib import Path

from tinydes import bench
from tinydes.bench import DatasetSpec

from conftest import shared_inputs
from test_bench import (fold_data, small_config,  # noqa: F401 (fold_data is a fixture)
                        write_blob_csv)
from test_selection import tie_heavy_case

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import spans  # imports perfbench's calib, so perfbench is on the path until then
finally:
    sys.path.remove(PERFBENCH)


def test_every_wrap_target_resolves():
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.WRAPS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_knora_pair_counts_its_queries():
    dsel, pool, queries = tie_heavy_case()
    inputs = shared_inputs(pool, queries, dsel, 7)
    assert queries.shape[0] != pool.pool_size  # a count of pool rows would differ
    with spans.Tracer() as tracer:
        bench.knora_u_batch(dsel, pool, *inputs)
        bench.knora_e_batch(dsel, pool, *inputs)
    assert tracer.missing == []
    assert tracer.counts["selection.queries"] == 2 * queries.shape[0]
    assert [s[0] for s in tracer.spans] == ["selection.knora_u", "selection.knora_e"]


def test_fold_calls_every_batch_wrapper(tmp_path, fold_data):
    # one crossval fold: each batch call is called where the tracer wraps it,
    # and the KNORA pair counts the fold's test rows
    train, test = fold_data
    cfg = small_config("unused.csv", tmp_path, methods=("knora_u", "knora_e", "des_clustering"))
    with spans.Tracer() as tracer:
        records = bench._evaluate_fold(cfg, train, test, 11)
    assert not any(r.error for r in records)
    assert tracer.missing == []
    called = {s[0] for s in tracer.spans}
    assert {"selection.knora_u", "selection.knora_e", "selection.des_clustering"} <= called
    assert tracer.counts["selection.queries"] == 2 * test.n_samples


def test_pool_counts_its_trees_and_nodes(fold_data):
    # train_tree returns a one-tree pool; its counter reads the tree's nodes
    train, _ = fold_data
    with spans.Tracer() as tracer:
        pool = bench.generate_pool(train, ((4, 4), (3, 2)), 5)
    assert tracer.missing == []
    assert tracer.counts["trees.train_tree_calls"] == pool.pool_size == 7
    assert tracer.counts["trees.nodes"] == pool.n_nodes


def test_run_experiment_splits_each_dataset_once(tmp_path):
    # each dataset is loaded and split into its fold plan once, outside its
    # folds; the folds' own DSEL splits sit inside their fold spans
    paths = [write_blob_csv(tmp_path / f"{name}.csv", seed=seed)
             for name, seed in (("a", 1), ("b", 2))]
    cfg = small_config(paths[0], tmp_path / "out", methods=("oracle",), datasets=tuple(
        DatasetSpec(name=p.stem, csv=str(p), label_column=-1) for p in paths))
    with spans.Tracer() as tracer:
        bench.run_experiment(cfg)
    assert tracer.missing == []
    top = [name for name, _, _, parent, _ in tracer.spans if parent == -1]
    assert top == ["data.load", "data.split", "bench.fold", "bench.fold"] * 2
