import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinydes import _kernels
from tinydes.cluster import KMeansModel, assign_batch, fit_kmeans
from tinydes.data import Dataset, apply_standardizer
from tinydes import selection
from tinydes.errors import SelectionError, ShapeError
from tinydes.selection import (CompetenceModel, Dsel, build_competence_model,
                               build_dsel, des_clustering_batch, des_clustering_predict,
                               knora_e_batch, knora_regions, knora_u_batch,
                               single_best, static_selection, vote_rows)
from tinydes.selection import _k_nearest
from tinydes.trees import generate_pool

from conftest import leaf, make_blobs, per_tree_predictions, pool_of, shared_inputs
from knora_oracle import knora_e, knora_u
from selection_oracle import (brute_force_competence, double_fault, majority_vote,
                              oracle_accuracy)


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
    """One constant classifier per entry of ``classes``."""
    return pool_of([leaf(c) for c in classes], n_classes)


class TestBuildDsel:
    def test_perfect_stump_all_true(self):
        d = Dataset(np.array([[0.0], [1.0]], np.float32), np.array([1, 1], np.uint16), 2)
        pool = constant_pool([1], n_classes=2)
        from tinydes.data import Standardizer
        s = Standardizer(np.zeros(1, np.float32), np.ones(1, np.float32))
        dsel = build_dsel(pool, d, s)
        assert dsel.correctness.all()

    def test_constant_classifier_row(self):
        d = Dataset(np.zeros((3, 1), np.float32), np.array([0, 1, 0], np.uint16), 2)
        pool = constant_pool([0], n_classes=2)
        from tinydes.data import Standardizer
        s = Standardizer(np.zeros(1, np.float32), np.ones(1, np.float32))
        dsel = build_dsel(pool, d, s)
        np.testing.assert_array_equal(dsel.correctness[0], [True, False, True])

    def test_correctness_reproducible_and_matches_oracle(self, pipeline):
        dsel, pool = pipeline["dsel"], pipeline["pool"]
        again = per_tree_predictions(pool, dsel.samples)[0] == dsel.labels
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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_rows=st.integers(1, 4), m=st.integers(1, 6),
           pct=st.sampled_from([0.2, 0.25, 0.5, 0.75, 1.0]))
    def test_identical_rows_tie_to_smallest_index(self, data, n_rows, m, pct):
        # a pool of copies of a few correctness rows: among classifiers with
        # the same row (so the same accuracy), the smaller index ranks first
        rows = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                           min_size=n_rows, max_size=n_rows)))
        which = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=10))
        dsel = dsel_from_correctness(rows[which])
        hits = [int(rows[w].sum()) for w in which]
        ranked = sorted(range(len(which)), key=lambda i: (-hits[i], i))
        assert single_best(dsel) == ranked[0]
        take = int(np.floor(pct * len(which)))
        if take == 0:
            with pytest.raises(SelectionError):
                static_selection(dsel, pct)
            return
        assert static_selection(dsel, pct).tolist() == sorted(ranked[:take])


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
        with pytest.raises(SelectionError, match="region size 4 exceeds 3 selection samples"):
            knora_regions(dsel, np.zeros((2, 1), np.float32), 4)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rows_raise(self, bad):
        # a typed error before any distance, not regions ranked from NaNs
        corr = np.ones((2, 3), bool)
        samples = np.zeros((3, 1), np.float32)
        samples[1, 0] = bad
        queries = np.zeros((2, 1), np.float32)
        with pytest.raises(SelectionError, match="selection sample 1 has a non-finite value"):
            knora_regions(dsel_from_correctness(corr, samples), queries, 2)
        queries[1, 0] = bad
        with pytest.raises(SelectionError, match="query 1 has a non-finite value"):
            knora_regions(dsel_from_correctness(corr), queries, 2)


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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_rows=st.integers(1, 3), m=st.integers(1, 8))
    def test_identical_rows_tie_to_smallest_index(self, data, n_rows, m):
        # a pool of copies of a few correctness rows: of two classifiers with
        # the same row, the smaller index is shortlisted and kept first
        rows = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                           min_size=n_rows, max_size=n_rows)))
        which = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=7))
        dsel = dsel_from_correctness(rows[which])
        # centroids on the 1-D sample grid 0..m-1, or off it: a cluster may be empty
        centres = data.draw(st.lists(st.integers(-2, m + 2), min_size=1, max_size=3,
                                     unique=True))
        km = KMeansModel(np.array(centres, np.float32)[:, None], len(centres), 0.0, 0)
        n_acc = data.draw(st.integers(1, len(which)))
        j = data.draw(st.integers(1, n_acc))
        got = build_competence_model(dsel, km, n_acc, j).per_cluster_ensemble
        np.testing.assert_array_equal(got, brute_force_competence(dsel, km, n_acc, j))
        for ensemble in got.tolist():
            for a, b in itertools.combinations(range(len(which)), 2):
                if which[a] == which[b] and b in ensemble:
                    assert a in ensemble

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_rows=st.integers(1, 3), m=st.integers(1, 8))
    def test_top_of_the_deepest_ranking_is_each_j(self, data, n_rows, m):
        # copies of a few correctness rows tie on accuracy and double-fault;
        # a far centroid leaves its cluster empty
        rows = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                           min_size=n_rows, max_size=n_rows)))
        which = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=7))
        dsel = dsel_from_correctness(rows[which])
        centres = data.draw(st.lists(st.integers(-2, m + 2), min_size=1, max_size=3,
                                     unique=True))
        centres += [m + 50] if data.draw(st.booleans()) else []
        km = KMeansModel(np.array(centres, np.float32)[:, None], len(centres), 0.0, 0)
        n_acc = data.draw(st.one_of(st.just(1), st.just(len(which)),
                                    st.integers(1, len(which))))
        deepest = build_competence_model(dsel, km, n_acc, n_acc)
        for j in range(1, n_acc + 1):
            alone, top = build_competence_model(dsel, km, n_acc, j), deepest.top(j)
            assert top.j == j
            np.testing.assert_array_equal(top.ranking, alone.ranking)
            np.testing.assert_array_equal(top.per_cluster_ensemble, alone.per_cluster_ensemble)
            np.testing.assert_array_equal(top.per_cluster_accuracy, alone.per_cluster_accuracy)
            np.testing.assert_array_equal(top.per_cluster_ensemble,
                                          brute_force_competence(dsel, km, n_acc, j))
        for j in (0, n_acc + 1):
            with pytest.raises(SelectionError, match=f"J {j} outside 1..{n_acc}"):
                deepest.top(j)
        assert not deepest.per_cluster_ensemble.flags.writeable

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
        cm = CompetenceModel(km, np.ones((1, 3)), np.array([[0, 1, 2]], np.uint16))
        res = des_clustering_predict(cm, pool, [0.0])
        assert res.label == 3 and res.votes[3] == 3
        assert res.cost == 3 + 1  # three leaf visits + one centroid

    def test_vote_tie_smallest_class(self):
        km = KMeansModel(np.zeros((1, 1), np.float32), 1, 0.0, 0)
        pool = constant_pool([0, 0, 1, 1, 3], n_classes=4)
        cm = CompetenceModel(km, np.ones((1, 5)), np.array([[0, 1, 2, 3, 4]], np.uint16))
        assert des_clustering_predict(cm, pool, [0.0]).label == 0

    def test_cluster_routing(self):
        # two clusters with disjoint ensembles: the query's cell decides
        km = KMeansModel(np.array([[-5.0], [5.0]], np.float32), 2, 0.0, 0)
        pool = constant_pool([0, 1], n_classes=2)
        cm = CompetenceModel(km, np.ones((2, 2)), np.array([[0], [1]], np.uint16))
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
        pool = constant_pool(range(4))
        assert oracle_accuracy(pool, blob_data, s) == 1.0

    def test_all_missed(self):
        from tinydes.data import Standardizer
        d = Dataset(np.zeros((3, 1), np.float32), np.array([1, 1, 1], np.uint16), 2)
        pool = constant_pool([0], n_classes=2)
        s = Standardizer(np.zeros(1, np.float32), np.ones(1, np.float32))
        assert oracle_accuracy(pool, d, s) == 0.0

    def test_dominance_and_equivalence(self, pipeline, blob_data):
        # oracle >= every other method on a held-out set, and equals the
        # column-any of the pool walk that crossval's oracle row reads
        s, pool, dsel, cm = (pipeline["standardizer"], pipeline["pool"],
                             pipeline["dsel"], pipeline["cm"])
        test = make_blobs(n_per_class=40, seed=123)
        orc = oracle_accuracy(pool, test, s)
        std = apply_standardizer(s, test.features)
        target = test.labels.astype(np.int64)
        preds, visits, regions = shared_inputs(pool, std, dsel, 5)
        assert orc == pytest.approx((preds == target).any(axis=0).mean())

        accs = {}
        best = single_best(dsel)
        accs["single_best"] = (preds[best] == target).mean()
        sel = static_selection(dsel, 0.5)
        lab = vote_rows(preds[sel].T, np.ones((test.n_samples, sel.size)), pool.n_classes)
        accs["static"] = (lab == target).mean()
        lab, _ = knora_u_batch(dsel, pool, std, 5, preds, visits, regions)
        accs["knora_u"] = (lab == target).mean()
        lab, _ = knora_e_batch(dsel, pool, std, 5, preds, visits, regions)
        accs["knora_e"] = (lab == target).mean()
        lab, _ = des_clustering_batch(cm, pool, std, *shared_inputs(pool, std, kmeans=cm.kmeans))
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
        # every class ties at zero votes, so the smallest class id wins
        label, votes = majority_vote([2, 1], [0.0, 0.0])
        assert label == 0 and not votes.any()

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
            labels, costs = batch_fn(dsel, pool, std, 5, *shared_inputs(pool, std, dsel, 5))
            for i in range(std.shape[0]):
                res = single_fn(dsel, pool, std[i], 5)
                assert labels[i] == res.label
                assert costs[i] == res.cost

    def test_des_clustering_batch_matches_per_query(self, pipeline):
        cm, pool, dsel = pipeline["cm"], pipeline["pool"], pipeline["dsel"]
        labels, costs = des_clustering_batch(
            cm, pool, dsel.samples, *shared_inputs(pool, dsel.samples, kmeans=cm.kmeans))
        for i in range(0, dsel.n_samples, 3):
            res = des_clustering_predict(cm, pool, dsel.samples[i])
            assert labels[i] == res.label and costs[i] == res.cost

    def test_precomputed_cluster_ids(self, monkeypatch, pipeline):
        dsel, pool, km = pipeline["dsel"], pipeline["pool"], pipeline["kmeans"]
        probes = dsel.samples[:40]
        dsel_ids = assign_batch(km, dsel.samples)
        cm = build_competence_model(dsel, km, 6, 3)
        preds, visits, clusters = shared_inputs(pool, probes, kmeans=km)
        expect = des_clustering_batch(cm, pool, probes, preds, visits, clusters)
        # the batch path reads the walk and the cluster ids it is given
        for name in ("assign_clusters", "tree_walk"):
            monkeypatch.setattr(_kernels, name, None)
        for a, b in zip(des_clustering_batch(cm, pool, probes, preds, visits, clusters),
                        expect):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(ShapeError, match="cluster ids shape"):
            des_clustering_batch(cm, pool, probes, preds, visits, dsel_ids)

    def test_cost_monotone_in_j(self, pipeline):
        dsel, pool, km = pipeline["dsel"], pipeline["pool"], pipeline["kmeans"]
        probes = dsel.samples[:50]
        prev = -np.inf
        for j in (1, 2, 4, 6):
            cm = build_competence_model(dsel, km, 6, j)
            _, costs = des_clustering_batch(cm, pool, probes,
                                            *shared_inputs(pool, probes, kmeans=km))
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
    pool = generate_pool(Dataset(train_x, train_y, n_classes), ((5, 4), (4, 2)), seed=seed)
    base = rng.randint(0, 3, size=(20, 3)).astype(np.float32)
    samples = np.repeat(base, 3, axis=0)[rng.permutation(60)]
    labels = ((samples[:, 0] + samples[:, 1]) % n_classes).astype(np.uint16)
    flip = rng.rand(60) < 0.25
    labels[flip] = rng.randint(0, n_classes, int(flip.sum()))
    dsel = Dsel(samples, labels, per_tree_predictions(pool, samples)[0] == labels)
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
                labels, costs = batch_fn(dsel, pool, queries, k,
                                         *shared_inputs(pool, queries, dsel, k))
                for i in range(queries.shape[0]):
                    res = single_fn(dsel, pool, queries[i], k)
                    assert (labels[i], costs[i]) == (res.label, res.cost), (batch_fn, k, i)

    @pytest.mark.parametrize("batch_fn", [knora_u_batch, knora_e_batch])
    def test_zero_queries(self, batch_fn):
        dsel, pool, queries = tie_heavy_case()
        labels, costs = batch_fn(dsel, pool, queries[:0], 7,
                                 *shared_inputs(pool, queries[:0], dsel, 7))
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
        labels, costs = batch_fn(dsel, pool, queries, k, *shared_inputs(pool, queries, dsel, k))
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

        def counting(Q, *reference):
            seen.append(Q.shape[0])
            return real(Q, *reference)

        monkeypatch.setattr(_kernels, "pairwise_sqdist", counting)
        if cells is not None:
            monkeypatch.setattr(selection, "REGION_CHUNK_CELLS", cells)
        got = knora_regions(dsel, queries, k)
        assert seen == blocks
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, expect)

    def test_reference_rows_cast_once(self, monkeypatch):
        # every block gets the same float64 selection rows and norms, and the
        # blocks give the bits of one distance matrix over all queries
        dsel, _, queries = tie_heavy_case()
        expect = knora_regions(dsel, queries, 7)
        seen = []
        real = _kernels.pairwise_sqdist

        def recording(Q, D, dd):
            seen.append((D, dd))
            return real(Q, D, dd)

        monkeypatch.setattr(_kernels, "pairwise_sqdist", recording)
        monkeypatch.setattr(selection, "REGION_CHUNK_CELLS", 60 * 7)
        got = knora_regions(dsel, queries, 7)
        assert len(seen) == 13
        D, dd = seen[0]
        assert D.dtype == dd.dtype == np.float64
        np.testing.assert_array_equal(D, dsel.samples)
        assert all(d is D and n is dd for d, n in seen)
        np.testing.assert_array_equal(got, expect)
        whole = real(queries, dsel.samples)
        blocks = np.concatenate([real(queries[s:s + 7], D, dd) for s in range(0, len(queries), 7)])
        np.testing.assert_array_equal(blocks.view(np.uint64), whole.view(np.uint64))

    @pytest.mark.parametrize("batch_fn", [knora_u_batch, knora_e_batch])
    def test_precomputed_regions(self, monkeypatch, batch_fn):
        dsel, pool, queries = tie_heavy_case()
        preds, visits, regions = shared_inputs(pool, queries, dsel, 7)
        expect = batch_fn(dsel, pool, queries, 7, preds, visits, regions)
        # the batch path reads the walk and the regions it is given
        for name in ("pairwise_sqdist", "tree_walk"):
            monkeypatch.setattr(_kernels, name, None)
        for a, b in zip(batch_fn(dsel, pool, queries, 7, preds, visits, regions), expect):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(ShapeError, match="regions shape"):
            batch_fn(dsel, pool, queries, 6, preds, visits, regions)
        with pytest.raises(ShapeError, match="regions shape"):
            batch_fn(dsel, pool, queries[:-1], 7, preds, visits, regions)


class TestWalkShape:
    # the batch paths read the caller's walk: one of other queries or of
    # another pool raises instead of voting misaligned rows
    @pytest.mark.parametrize("batch_fn", [knora_u_batch, knora_e_batch])
    def test_knora(self, batch_fn):
        dsel, pool, queries = tie_heavy_case()
        preds, visits, regions = shared_inputs(pool, queries, dsel, 7)
        with pytest.raises(ShapeError, match=r"pool_preds shape \(9, 90\) != \(9, 89\)"):
            batch_fn(dsel, pool, queries[:-1], 7, preds, visits, regions[:-1])
        with pytest.raises(ShapeError, match=r"pool_visits shape \(9, 89\) != \(9, 90\)"):
            batch_fn(dsel, pool, queries, 7, preds, visits[:, :-1], regions)
        with pytest.raises(ShapeError, match=r"pool_preds shape \(8, 90\)"):
            batch_fn(dsel, pool, queries, 7, preds[:-1], visits[:-1], regions)

    def test_des_clustering(self):
        dsel, pool, queries = tie_heavy_case()
        cm = build_competence_model(dsel, fit_kmeans(dsel.samples, 3, seed=1), 4, 2)
        preds, visits, clusters = shared_inputs(pool, queries, kmeans=cm.kmeans)
        with pytest.raises(ShapeError, match=r"pool_preds shape \(9, 90\) != \(9, 89\)"):
            des_clustering_batch(cm, pool, queries[:-1], preds, visits, clusters[:-1])
        with pytest.raises(ShapeError, match=r"pool_preds shape \(9, 89\) != \(9, 90\)"):
            des_clustering_batch(cm, pool, queries, preds[:, :-1], visits[:, :-1], clusters)
        with pytest.raises(ShapeError, match=r"pool_visits shape \(9, 89\) != \(9, 90\)"):
            des_clustering_batch(cm, pool, queries, preds, visits[:, :-1], clusters)


class TestVoteRows:
    def test_ties_and_zero_weights(self):
        preds = np.array([[2, 1, 0], [3, 3, 1], [0, 1, 2]])
        weights = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
        # row 0: classes 1 and 2 tie -> 1; row 1: 3 vs 1 tie -> 1; row 2: none -> 0
        np.testing.assert_array_equal(vote_rows(preds, weights, 4), [1, 1, 0])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_classes=st.integers(1, 6), m=st.integers(1, 9),
           kinds=st.lists(st.sampled_from(["weighted", "all_tie", "all_zero"]),
                          min_size=1, max_size=8))
    def test_matches_majority_vote(self, data, n_classes, m, kinds):
        cells = st.lists(st.integers(0, n_classes - 1), min_size=m, max_size=m)
        preds = np.array(data.draw(st.lists(cells, min_size=len(kinds), max_size=len(kinds))))
        cells = st.lists(st.integers(0, 4), min_size=m, max_size=m)
        weights = np.array(data.draw(st.lists(cells, min_size=len(kinds),
                                              max_size=len(kinds))), dtype=np.float64)
        for i, kind in enumerate(kinds):
            if kind == "all_tie":
                # weight lcm / count gives every predicted class the same total
                count = np.bincount(preds[i])
                weights[i] = np.lcm.reduce(count[count > 0]) // count[preds[i]]
            elif kind == "all_zero":
                weights[i] = 0.0
        labels = vote_rows(preds, weights, n_classes)
        for i, kind in enumerate(kinds):
            assert labels[i] == majority_vote(preds[i], weights[i])[0]
            if kind == "all_tie":
                assert labels[i] == preds[i].min()
            elif kind == "all_zero":
                assert labels[i] == 0

    def test_empty(self):
        assert vote_rows(np.empty((0, 3), np.int64), np.empty((0, 3)), 4).shape == (0,)
