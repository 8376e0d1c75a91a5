import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinydes import _kernels
from tinydes.cluster import KMeansModel, fit_kmeans
from tinydes.data import Dataset, apply_standardizer
from tinydes import selection
from tinydes.errors import SelectionError, ShapeError, VoteError
from tinydes.selection import (CompetenceModel, Dsel, build_competence_model,
                               build_dsel, correctness_matrix,
                               des_clustering_batch, des_clustering_predict,
                               double_fault, knora_e_batch, knora_regions,
                               knora_u_batch, majority_vote, oracle_accuracy,
                               pool_predictions, single_best, static_selection,
                               vote_rows)
from tinydes.selection import _k_nearest
from tinydes.trees import (ClassifierPool, DecisionTree, ForestSpec, PoolConfig,
                           generate_pool)

from conftest import make_blobs
from knora_oracle import knora_e, knora_u


def leaf_tree(cls, n_classes=4):
    """Constant classifier."""
    return DecisionTree(np.array([-1], np.int16), np.array([0.0], np.float32),
                        np.array([cls], np.uint16), 0, n_classes)


def threshold_tree(feature, thr, left_cls, right_cls, n_classes=4):
    return DecisionTree(np.array([feature, -1, -1], np.int16),
                        np.array([thr, 0, 0], np.float32),
                        np.array([2, left_cls, right_cls], np.uint16), 1, n_classes)


def dsel_from_correctness(correctness, samples=None, labels=None):
    """Hand-built Dsel: correctness rows given directly."""
    corr = np.asarray(correctness, bool)
    m = corr.shape[1]
    if samples is None:
        samples = np.arange(m, dtype=np.float32).reshape(m, 1)
    if labels is None:
        labels = np.zeros(m, np.uint16)
    return Dsel(np.asarray(samples, np.float32), np.asarray(labels, np.uint16), corr)


def constant_pool(classes, n_classes=4):
    trees = tuple(leaf_tree(c, n_classes) for c in classes)
    return ClassifierPool(trees, tuple("A" * len(trees)), 0)


class TestBuildDsel:
    def test_perfect_stump_all_true(self):
        d = Dataset(np.array([[0.0], [1.0]], np.float32), np.array([1, 1], np.uint16), 2)
        pool = ClassifierPool((leaf_tree(1, 2),), ("A",), 0)
        from tinydes.data import Standardizer
        s = Standardizer(np.zeros(1, np.float32), np.ones(1, np.float32))
        dsel = build_dsel(pool, d, s)
        assert dsel.correctness.all()

    def test_constant_classifier_row(self):
        d = Dataset(np.zeros((3, 1), np.float32), np.array([0, 1, 0], np.uint16), 2)
        pool = ClassifierPool((leaf_tree(0, 2),), ("A",), 0)
        from tinydes.data import Standardizer
        s = Standardizer(np.zeros(1, np.float32), np.ones(1, np.float32))
        dsel = build_dsel(pool, d, s)
        np.testing.assert_array_equal(dsel.correctness[0], [True, False, True])

    def test_correctness_reproducible_and_matches_oracle(self, pipeline):
        dsel, pool = pipeline["dsel"], pipeline["pool"]
        again = correctness_matrix(pool, dsel.samples, dsel.labels)
        np.testing.assert_array_equal(dsel.correctness, again)
        # column-any over correctness == oracle accuracy on the same samples
        raw = pipeline["dsel_part"]
        assert dsel.correctness.any(axis=0).mean() == pytest.approx(
            oracle_accuracy(pool, raw, pipeline["standardizer"]))


class TestSingleBestAndStatic:
    def test_tie_smallest_index(self):
        dsel = dsel_from_correctness([
            [1, 1, 1, 0, 0, 1, 0, 0, 0, 0],
            [1, 1, 1, 1, 1, 1, 1, 1, 1, 0],
            [1, 1, 1, 1, 1, 1, 1, 1, 1, 0],
        ])
        assert single_best(dsel) == 1

    def test_single_classifier(self):
        assert single_best(dsel_from_correctness([[1, 0]])) == 0

    def test_static_cardinality_default(self):
        rng = np.random.RandomState(0)
        dsel = dsel_from_correctness(rng.rand(45, 60) > 0.4)
        sel = static_selection(dsel, 0.5)
        assert sel.shape == (22,)
        assert np.array_equal(sel, np.unique(sel))

    def test_static_full_pool(self):
        dsel = dsel_from_correctness(np.ones((7, 5), bool))
        np.testing.assert_array_equal(static_selection(dsel, 1.0), np.arange(7))

    def test_static_top2(self):
        dsel = dsel_from_correctness([
            [1] * 9 + [0],   # 0.9
            [1] * 1 + [0] * 9,  # 0.1
            [1] * 8 + [0] * 2,  # 0.8
            [1] * 7 + [0] * 3,  # 0.7
        ])
        np.testing.assert_array_equal(static_selection(dsel, 0.5), [0, 2])

    def test_static_zero_selected(self):
        dsel = dsel_from_correctness(np.ones((3, 4), bool))
        with pytest.raises(SelectionError):
            static_selection(dsel, 0.1)


class TestKnoraU:
    def test_single_competent_classifier(self):
        corr = np.zeros((3, 7), bool)
        corr[2, [0, 2, 4]] = True  # classifier 2 correct on 3 of 7
        dsel = dsel_from_correctness(corr)
        pool = constant_pool([1, 2, 3])
        res = knora_u(dsel, pool, [0.0], k=7)
        np.testing.assert_array_equal(res.ensemble_used, [2])
        assert res.votes[3] == 3  # classifier 2 predicts class 3, weight 3
        assert res.label == 3

    def test_all_wrong_fallback_whole_pool(self):
        dsel = dsel_from_correctness(np.zeros((3, 4), bool))
        pool = constant_pool([2, 2, 1])
        res = knora_u(dsel, pool, [1.0], k=4)
        assert res.ensemble_used.shape == (3,)
        assert res.votes[2] == 2 and res.votes[1] == 1
        assert res.label == 2

    def test_weighted_aggregation(self):
        # counts {2, 0, 5} predicting classes {1, _, 0} -> votes {0:5, 1:2}
        corr = np.zeros((3, 7), bool)
        corr[0, [0, 1]] = True
        corr[2, [0, 1, 2, 3, 4]] = True
        dsel = dsel_from_correctness(corr)
        pool = constant_pool([1, 3, 0])
        res = knora_u(dsel, pool, [0.0], k=7)
        assert res.votes[0] == 5 and res.votes[1] == 2
        assert res.label == 0
        np.testing.assert_array_equal(res.ensemble_used, [0, 2])

    def test_region_is_k_nearest(self):
        # correctness varies along the axis; only the k nearest rows count
        samples = np.array([[0.0], [1.0], [2.0], [3.0]], np.float32)
        corr = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], bool)
        dsel = dsel_from_correctness(corr, samples=samples)
        pool = constant_pool([0, 1], n_classes=2)
        res = knora_u(dsel, pool, [0.1], k=2)  # region = samples 0, 1
        np.testing.assert_array_equal(res.ensemble_used, [0])

    def test_region_larger_than_dsel(self):
        dsel = dsel_from_correctness(np.ones((2, 3), bool))
        pool = constant_pool([0, 1], n_classes=2)
        with pytest.raises(SelectionError):
            knora_u(dsel, pool, [0.0], k=4)
        queries = np.zeros((2, 1), np.float32)
        for call in (lambda: knora_u_batch(dsel, pool, queries, 4),
                     lambda: knora_e_batch(dsel, pool, queries, 4),
                     lambda: knora_regions(dsel, queries, 4)):
            with pytest.raises(SelectionError, match="region size 4 exceeds 3 selection samples"):
                call()


class TestKnoraE:
    def test_local_oracle_exists(self):
        corr = np.zeros((4, 7), bool)
        corr[1] = True
        corr[3, [0, 1]] = True
        dsel = dsel_from_correctness(corr)
        pool = constant_pool([0, 3, 1, 2])
        res = knora_e(dsel, pool, [0.0], k=7)
        np.testing.assert_array_equal(res.ensemble_used, [1])
        assert res.label == 3

    def test_shrink_once(self):
        # near->far correctness: c0=(T,F), c1=(T,T): at k=2 only c1 perfect
        samples = np.array([[0.0], [1.0]], np.float32)
        corr = np.array([[1, 0], [1, 1]], bool)
        dsel = dsel_from_correctness(corr, samples=samples)
        pool = constant_pool([2, 3])
        res = knora_e(dsel, pool, [0.0], k=2)
        np.testing.assert_array_equal(res.ensemble_used, [1])
        # and with c1 also failing the far sample, shrink to the near one
        corr2 = np.array([[1, 0], [0, 1]], bool)
        dsel2 = dsel_from_correctness(corr2, samples=samples)
        res2 = knora_e(dsel2, pool, [0.0], k=2)
        np.testing.assert_array_equal(res2.ensemble_used, [0])

    def test_shrink_to_empty_whole_pool(self):
        dsel = dsel_from_correctness(np.zeros((5, 3), bool))
        pool = constant_pool([1, 1, 0, 2, 1])
        res = knora_e(dsel, pool, [0.0], k=3)
        np.testing.assert_array_equal(res.ensemble_used, np.arange(5))
        assert res.label == 1  # majority of {1,1,0,2,1}

    def test_majority_tie_smallest_class(self):
        dsel = dsel_from_correctness(np.zeros((2, 2), bool))
        pool = constant_pool([3, 1])
        res = knora_e(dsel, pool, [0.0], k=2)
        assert res.label == 1


class TestDoubleFault:
    def test_correct_everywhere_zero(self):
        dsel = dsel_from_correctness([[1, 1, 1, 1], [0, 0, 0, 0]])
        assert double_fault(dsel, 0, 1, [0, 1, 2, 3]) == 0.0

    def test_self_pair(self):
        dsel = dsel_from_correctness([[1, 0, 0, 0]])
        assert double_fault(dsel, 0, 0, [0, 1, 2, 3]) == pytest.approx(0.75)

    def test_hand_enumeration(self):
        dsel = dsel_from_correctness([[1, 0, 1, 0], [1, 1, 0, 0]])
        assert double_fault(dsel, 0, 1, [0, 1, 2, 3]) == pytest.approx(0.25)

    def test_empty_region(self):
        dsel = dsel_from_correctness([[1, 0]])
        with pytest.raises(SelectionError):
            double_fault(dsel, 0, 0, [])


def brute_force_competence(dsel, kmeans, n_acc, j):
    """Independent oracle: exhaustive shortlist + subset enumeration under the
    documented tie rules."""
    from tinydes.cluster import assign_batch
    member_of = assign_batch(kmeans, dsel.samples)
    pool_size = dsel.pool_size
    rows = []
    for c in range(kmeans.k):
        cols = np.nonzero(member_of == c)[0]
        region = cols if cols.size else np.arange(dsel.n_samples)
        acc = [dsel.correctness[i, region].mean() for i in range(pool_size)]
        shortlist = sorted(range(pool_size), key=lambda i: (-acc[i], i))[:n_acc]
        df = {}
        for a in shortlist:
            others = [b for b in shortlist if b != a]
            if others:
                df[a] = float(np.mean([double_fault(dsel, a, b, region) for b in others]))
            else:
                df[a] = 0.0
        best = None
        for subset in itertools.combinations(shortlist, j):
            key = tuple(sorted((df[i], -acc[i], i) for i in subset))
            if best is None or key < best[0]:
                best = (key, subset)
        rows.append(sorted(best[1]))
    return np.array(rows)


class TestBuildCompetenceModel:
    def test_nacc_equals_j_identity(self):
        rng = np.random.RandomState(2)
        samples = rng.randn(30, 2).astype(np.float32)
        dsel = dsel_from_correctness(rng.rand(6, 30) > 0.5, samples=samples)
        km = fit_kmeans(samples, 2, seed=3)
        cm = build_competence_model(dsel, km, 4, 4)
        for c in range(2):
            acc = cm.per_cluster_accuracy[c]
            expect = sorted(sorted(range(6), key=lambda i: (-acc[i], i))[:4])
            np.testing.assert_array_equal(cm.per_cluster_ensemble[c], expect)

    def test_matches_brute_force_small(self):
        rng = np.random.RandomState(7)
        samples = rng.randn(20, 2).astype(np.float32)
        dsel = dsel_from_correctness(rng.rand(4, 20) > 0.4, samples=samples)
        km = fit_kmeans(samples, 2, seed=1)
        cm = build_competence_model(dsel, km, 3, 2)
        np.testing.assert_array_equal(cm.per_cluster_ensemble,
                                      brute_force_competence(dsel, km, 3, 2))

    def test_row_shape_and_distinctness(self, pipeline):
        cm = pipeline["cm"]
        for row in cm.per_cluster_ensemble:
            assert np.unique(row).size == row.size

    def test_j20_rows_on_45_pool(self):
        rng = np.random.RandomState(5)
        samples = rng.randn(80, 3).astype(np.float32)
        dsel = dsel_from_correctness(rng.rand(45, 80) > 0.45, samples=samples)
        km = fit_kmeans(samples, 5, seed=2)
        cm = build_competence_model(dsel, km, 23, 20)
        assert cm.per_cluster_ensemble.shape == (5, 20)
        for row in cm.per_cluster_ensemble:
            assert np.unique(row).size == 20
            assert row.max() < 45

    def test_parameter_validation(self):
        dsel = dsel_from_correctness(np.ones((4, 5), bool))
        km = KMeansModel(np.zeros((1, 1), np.float32), 1, 0.0, 0)
        with pytest.raises(SelectionError):
            build_competence_model(dsel, km, 5, 2)  # n_acc > pool
        with pytest.raises(SelectionError):
            build_competence_model(dsel, km, 2, 3)  # j > n_acc

    def test_empty_cluster_uses_global_accuracy(self):
        # second centroid far from every sample -> cluster 1 empty
        samples = np.zeros((6, 1), np.float32)
        corr = np.array([[1, 1, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0]], bool)
        dsel = dsel_from_correctness(corr, samples=samples)
        km = KMeansModel(np.array([[0.0], [99.0]], np.float32), 2, 0.0, 0)
        cm = build_competence_model(dsel, km, 2, 1)
        np.testing.assert_allclose(cm.per_cluster_accuracy[1], [4 / 6, 2 / 6])
        assert cm.per_cluster_ensemble[1, 0] == 0


class TestDesClusteringPredict:
    def test_unanimous(self):
        km = KMeansModel(np.zeros((1, 1), np.float32), 1, 0.0, 0)
        pool = constant_pool([3, 3, 3], n_classes=8)
        cm = CompetenceModel(km, np.ones((1, 3)), np.array([[0, 1, 2]], np.uint16), 3, 3)
        res = des_clustering_predict(cm, pool, [0.0])
        assert res.label == 3 and res.votes[3] == 3
        assert res.cost == 3 + 1  # three leaf visits + one centroid

    def test_vote_tie_smallest_class(self):
        km = KMeansModel(np.zeros((1, 1), np.float32), 1, 0.0, 0)
        pool = constant_pool([0, 0, 1, 1, 3], n_classes=4)
        cm = CompetenceModel(km, np.ones((1, 5)), np.array([[0, 1, 2, 3, 4]], np.uint16), 5, 5)
        assert des_clustering_predict(cm, pool, [0.0]).label == 0

    def test_cluster_routing(self):
        # two clusters with disjoint ensembles: the query's cell decides
        km = KMeansModel(np.array([[-5.0], [5.0]], np.float32), 2, 0.0, 0)
        pool = constant_pool([0, 1], n_classes=2)
        cm = CompetenceModel(km, np.ones((2, 2)), np.array([[0], [1]], np.uint16), 1, 1)
        res = des_clustering_predict(cm, pool, [5.0])
        np.testing.assert_array_equal(res.ensemble_used, [1])
        assert res.label == 1
        res = des_clustering_predict(cm, pool, [-5.0])
        np.testing.assert_array_equal(res.ensemble_used, [0])
        assert res.label == 0

    def test_ensemble_membership_invariant(self, pipeline):
        cm, pool, dsel = pipeline["cm"], pipeline["pool"], pipeline["dsel"]
        from tinydes.cluster import assign
        for i in range(0, dsel.n_samples, 7):
            x = dsel.samples[i]
            res = des_clustering_predict(cm, pool, x)
            cluster, _ = assign(cm.kmeans, x)
            assert set(res.ensemble_used) == set(cm.per_cluster_ensemble[cluster])


class TestOracle:
    def test_contains_perfect_classifier(self, blob_data):
        from tinydes.data import Standardizer, fit_standardizer
        # a pool with one tree per class that answers that class plus one
        # deep tree trained on everything
        s = fit_standardizer(blob_data)
        std = Dataset(apply_standardizer(s, blob_data.features), blob_data.labels,
                      blob_data.n_classes)
        pool = ClassifierPool(tuple(leaf_tree(c, 4) for c in range(4)), tuple("AAAA"), 0)
        assert oracle_accuracy(pool, blob_data, s) == 1.0

    def test_all_missed(self):
        from tinydes.data import Standardizer
        d = Dataset(np.zeros((3, 1), np.float32), np.array([1, 1, 1], np.uint16), 2)
        pool = ClassifierPool((leaf_tree(0, 2),), ("A",), 0)
        s = Standardizer(np.zeros(1, np.float32), np.ones(1, np.float32))
        assert oracle_accuracy(pool, d, s) == 0.0

    def test_dominance_and_equivalence(self, pipeline, blob_data):
        # oracle >= every other method on a held-out set, and equals the
        # column-any of an independently recomputed correctness matrix
        s, pool, dsel, cm = (pipeline["standardizer"], pipeline["pool"],
                             pipeline["dsel"], pipeline["cm"])
        test = make_blobs(n_per_class=40, seed=123)
        orc = oracle_accuracy(pool, test, s)
        std = apply_standardizer(s, test.features)
        corr = correctness_matrix(pool, std, test.labels)
        assert orc == pytest.approx(corr.any(axis=0).mean())

        target = test.labels.astype(np.int64)
        accs = {}
        best = single_best(dsel)
        preds, _ = pool_predictions(pool, std)
        accs["single_best"] = (preds[best] == target).mean()
        sel = static_selection(dsel, 0.5)
        lab = vote_rows(preds[sel].T, np.ones((test.n_samples, sel.size)), pool.n_classes)
        accs["static"] = (lab == target).mean()
        lab, _ = knora_u_batch(dsel, pool, std, 5)
        accs["knora_u"] = (lab == target).mean()
        lab, _ = knora_e_batch(dsel, pool, std, 5)
        accs["knora_e"] = (lab == target).mean()
        lab, _ = des_clustering_batch(cm, pool, std)
        accs["des_clustering"] = (lab == target).mean()
        for name, acc in accs.items():
            assert orc >= acc, f"oracle beaten by {name}"


class TestMajorityVote:
    def test_plain(self):
        label, votes = majority_vote([3, 3, 5])
        assert label == 3 and votes[3] == 2 and votes[5] == 1

    def test_tie_rule(self):
        assert majority_vote([0, 1], [1.0, 1.0])[0] == 0

    def test_weighted(self):
        label, votes = majority_vote([0, 1, 1], [5.0, 2.0, 2.0])
        assert label == 0 and votes[0] == 5 and votes[1] == 4

    def test_all_zero_weights(self):
        with pytest.raises(VoteError):
            majority_vote([0, 1], [0.0, 0.0])

    def test_order_free(self):
        rng = np.random.RandomState(0)
        for _ in range(30):
            preds = rng.randint(0, 4, 9)
            w = rng.rand(9).round(2)
            if not w.any():
                continue
            label, _ = majority_vote(preds, w)
            perm = rng.permutation(9)
            label2, _ = majority_vote(preds[perm], w[perm])
            assert label == label2


class TestBatchEquivalence:
    def test_knora_batch_matches_per_query(self, pipeline, blob_data):
        s, pool, dsel = pipeline["standardizer"], pipeline["pool"], pipeline["dsel"]
        test = make_blobs(n_per_class=15, seed=31)
        std = np.ascontiguousarray(apply_standardizer(s, test.features))
        for batch_fn, single_fn in ((knora_u_batch, knora_u), (knora_e_batch, knora_e)):
            labels, costs = batch_fn(dsel, pool, std, 5)
            for i in range(std.shape[0]):
                res = single_fn(dsel, pool, std[i], 5)
                assert labels[i] == res.label
                assert costs[i] == res.cost

    def test_des_clustering_batch_matches_per_query(self, pipeline):
        cm, pool, dsel = pipeline["cm"], pipeline["pool"], pipeline["dsel"]
        labels, costs = des_clustering_batch(cm, pool, dsel.samples)
        for i in range(0, dsel.n_samples, 3):
            res = des_clustering_predict(cm, pool, dsel.samples[i])
            assert labels[i] == res.label and costs[i] == res.cost

    def test_cost_monotone_in_j(self, pipeline):
        dsel, pool, km = pipeline["dsel"], pipeline["pool"], pipeline["kmeans"]
        probes = dsel.samples[:50]
        prev = -np.inf
        for j in (1, 2, 4, 6):
            cm = build_competence_model(dsel, km, 6, j)
            _, costs = des_clustering_batch(cm, pool, probes)
            mean = costs.mean()
            assert mean > prev
            prev = mean


def tie_heavy_case(seed=2024):
    """Integer-valued DSEL whose rows each appear three times, and integer
    queries on the same small grid, so many distances tie at the k-th
    neighbour. Returns (dsel, pool, queries)."""
    rng = np.random.RandomState(seed)
    n_classes = 4
    train_x = rng.randint(0, 4, size=(200, 3)).astype(np.float32)
    train_y = ((train_x[:, 0] + train_x[:, 1] + rng.randint(0, 2, 200))
               % n_classes).astype(np.uint16)
    pool = generate_pool(Dataset(train_x, train_y, n_classes),
                         PoolConfig((ForestSpec(5, 4), ForestSpec(4, 2))), seed=seed)
    base = rng.randint(0, 3, size=(20, 3)).astype(np.float32)
    samples = np.repeat(base, 3, axis=0)[rng.permutation(60)]
    labels = ((samples[:, 0] + samples[:, 1]) % n_classes).astype(np.uint16)
    flip = rng.rand(60) < 0.25
    labels[flip] = rng.randint(0, n_classes, int(flip.sum()))
    dsel = Dsel(samples, labels, correctness_matrix(pool, samples, labels))
    queries = rng.randint(0, 3, size=(90, 3)).astype(np.float32)
    return dsel, pool, queries


class TestKNearest:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), m=st.integers(1, 15),
           n_values=st.integers(1, 4))
    def test_equals_stable_argsort(self, data, n, m, n_values):
        cells = data.draw(st.lists(st.integers(0, n_values - 1), min_size=n * m,
                                   max_size=n * m))
        d2 = np.array(cells, dtype=np.float64).reshape(n, m)
        k = data.draw(st.integers(1, m))
        expect = np.argsort(d2, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(_k_nearest(d2, k), expect)

    def test_nan_and_inf_rows(self):
        d2 = np.array([[np.nan, 1.0, np.nan, 0.0, np.inf],
                       [np.inf, np.inf, 2.0, np.nan, np.inf]])
        for k in range(1, 6):
            expect = np.argsort(d2, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(_k_nearest(d2, k), expect)

    def test_zero_k(self):
        assert _k_nearest(np.ones((3, 4)), 0).shape == (3, 0)


class TestKnoraBatchTies:
    def test_batch_matches_per_query_with_ties(self):
        dsel, pool, queries = tie_heavy_case()
        d2 = _kernels.pairwise_sqdist(queries, dsel.samples)
        for k in (1, 2, 4, 7, dsel.n_samples):
            kth = np.sort(d2, axis=1)[:, k - 1]
            if k < dsel.n_samples:
                # ties straddle the k-th neighbour: those rows take the
                # full-sort branch of _k_nearest
                assert ((d2 <= kth[:, None]).sum(axis=1) > k).any()
            for batch_fn, single_fn in ((knora_u_batch, knora_u), (knora_e_batch, knora_e)):
                labels, costs = batch_fn(dsel, pool, queries, k)
                for i in range(queries.shape[0]):
                    res = single_fn(dsel, pool, queries[i], k)
                    assert (labels[i], costs[i]) == (res.label, res.cost), (batch_fn, k, i)

    @pytest.mark.parametrize("batch_fn", [knora_u_batch, knora_e_batch])
    def test_zero_queries(self, batch_fn):
        dsel, pool, queries = tie_heavy_case()
        labels, costs = batch_fn(dsel, pool, queries[:0], 7)
        assert labels.shape == (0,) and costs.shape == (0,)

    # crc32 of the little-endian int64 labels and costs, recorded from the
    # batch paths that sorted every distance row and looped over queries
    @pytest.mark.parametrize("batch_fn, k, label_crc, cost_crc", [
        (knora_u_batch, 1, 0x0069B21D, 0x047B3ADD),
        (knora_u_batch, 4, 0x5AD3CDE5, 0x8B36B8E8),
        (knora_u_batch, 7, 0x4E0373E6, 0x8D0A84B4),
        (knora_u_batch, 60, 0x69B28637, 0xE6710BDC),
        (knora_e_batch, 1, 0x0069B21D, 0x047B3ADD),
        (knora_e_batch, 4, 0x56216DF0, 0xCE3D1136),
        (knora_e_batch, 7, 0x56216DF0, 0xCE3D1136),
        (knora_e_batch, 60, 0x56216DF0, 0xCE3D1136),
    ])
    def test_golden(self, batch_fn, k, label_crc, cost_crc):
        dsel, pool, queries = tie_heavy_case()
        labels, costs = batch_fn(dsel, pool, queries, k)
        assert zlib.crc32(labels.astype("<i8").tobytes()) == label_crc
        assert zlib.crc32(costs.astype("<i8").tobytes()) == cost_crc


class TestKnoraRegions:
    # REGION_CHUNK_CELLS of 60 * 7 gives 7-row blocks over the 60-sample
    # selection set (13 blocks for 90 queries); 1 gives one row per block.
    @pytest.mark.parametrize("cells, blocks", [(None, [90]), (60 * 7, [7] * 12 + [6]),
                                               (1, [1] * 90)])
    @pytest.mark.parametrize("k", [1, 4, 7, 60])
    def test_equals_stable_argsort_top_k(self, monkeypatch, cells, blocks, k):
        dsel, _, queries = tie_heavy_case()
        d2 = _kernels.pairwise_sqdist(queries, dsel.samples)
        expect = np.argsort(d2, axis=1, kind="stable")[:, :k]
        seen = []
        real = _kernels.pairwise_sqdist

        def counting(Q, D):
            seen.append(Q.shape[0])
            return real(Q, D)

        monkeypatch.setattr(_kernels, "pairwise_sqdist", counting)
        if cells is not None:
            monkeypatch.setattr(selection, "REGION_CHUNK_CELLS", cells)
        got = knora_regions(dsel, queries, k)
        assert seen == blocks
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("batch_fn", [knora_u_batch, knora_e_batch])
    def test_precomputed_regions(self, batch_fn):
        dsel, pool, queries = tie_heavy_case()
        regions = knora_regions(dsel, queries, 7)
        own = batch_fn(dsel, pool, queries, 7)
        shared = batch_fn(dsel, pool, queries, 7, None, None, regions)
        for a, b in zip(own, shared):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(ShapeError, match="regions shape"):
            batch_fn(dsel, pool, queries, 6, None, None, regions)
        with pytest.raises(ShapeError, match="regions shape"):
            batch_fn(dsel, pool, queries[:-1], 7, None, None, regions)


class TestVoteRows:
    def test_ties_and_zero_weights(self):
        preds = np.array([[2, 1, 0], [3, 3, 1], [0, 1, 2]])
        weights = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
        # row 0: classes 1 and 2 tie -> 1; row 1: 3 vs 1 tie -> 1; row 2: none -> 0
        np.testing.assert_array_equal(vote_rows(preds, weights, 4), [1, 1, 0])

    def test_matches_majority_vote(self):
        rng = np.random.RandomState(3)
        preds = rng.randint(0, 5, size=(40, 7))
        weights = rng.randint(0, 4, size=(40, 7)).astype(np.float64)
        weights[:, 0] += 1.0
        labels = vote_rows(preds, weights, 5)
        for i in range(preds.shape[0]):
            assert labels[i] == majority_vote(preds[i], weights[i])[0]

    def test_empty(self):
        assert vote_rows(np.empty((0, 3), np.int64), np.empty((0, 3)), 4).shape == (0,)
