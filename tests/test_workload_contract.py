"""The benchmark's set-up contract: what ``perfbench/workloads.py`` calls.

``train_engine`` fits the deployable model through the public ``tinydes``
names one by one and records ``des_clustering_predict``'s ``(label, cost)``
per probe as the reference every timed engine answer is checked against. A
renamed fit function, a changed signature or a missing result field would
otherwise show only in a benchmark run. This file reads perfbench and
changes nothing in it.
"""

from types import SimpleNamespace

import numpy as np

import tinydes
from tinydes.cluster import assign_batch
from tinydes.selection import des_clustering_batch, pool_predictions

from conftest import import_perfbench

datagen = import_perfbench("datagen")
workloads = import_perfbench("workloads")

N_TRAIN = 400
N_PROBES = 200


def recording_tinydes(made: dict):
    """The public ``tinydes`` names, where the fits whose results
    ``train_engine`` keeps to itself also store them in ``made``."""
    td = SimpleNamespace(**{name: getattr(tinydes, name) for name in tinydes.__all__})

    def recording(name):
        fit = getattr(tinydes, name)

        def call(*args, **kwargs):
            made[name] = fit(*args, **kwargs)
            return made[name]
        return call

    for name in ("fit_standardizer", "generate_pool", "build_competence_model"):
        setattr(td, name, recording(name))
    return td


def test_train_engine_reference_is_the_batch_rule():
    features, labels = datagen.float_dataset(3)
    features, labels = features[:N_TRAIN + N_PROBES], labels[:N_TRAIN + N_PROBES]
    made = {}
    blob, engine, reference, probes, probe_labels = workloads.train_engine(
        recording_tinydes(made), features, labels, N_TRAIN, 3)
    assert len(reference) == len(probes) == len(probe_labels) == N_PROBES
    # the shipped engine gives every reference answer
    assert [engine.predict(x) for x in probes] == reference
    # and the references are crossval's rule, one call over every probe
    s, pool, cm = (made[n] for n in ("fit_standardizer", "generate_pool",
                                     "build_competence_model"))
    std = tinydes.apply_standardizer(s, np.array(probes))
    got, costs = des_clustering_batch(cm, pool, assign_batch(cm.kmeans, std),
                                      *pool_predictions(pool, std))
    assert list(zip(got.tolist(), costs.tolist())) == reference
    assert blob == tinydes.export_tiny(s, cm, pool)[0]
    assert (cm.j, cm.kmeans.k, pool.pool_size) == (workloads.ENGINE_J, workloads.ENGINE_K, 45)
