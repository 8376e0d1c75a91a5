import numpy as np
import pytest

from tinydes._rng import SplitMix64, derive_seed
from tinydes.data import Dataset
from tinydes.errors import ModelCorruptError
from tinydes.selection import pool_predictions
from tinydes.trees import (ClassifierPool, DecisionTree, ForestSpec, PoolConfig,
                           bootstrap_indices, generate_pool, predict_tree, train_tree)

from conftest import make_blobs


def dataset_1d(values, labels):
    return Dataset(np.asarray(values, np.float32).reshape(-1, 1),
                   np.asarray(labels, np.uint16), int(max(labels)) + 1)


# independent recursive CART oracle used by the brute-force checks
def exhaustive_best_split(X, y, n_classes):
    """Best (feature, threshold) over all features and midpoints, by the same
    score and tie rules, computed the slow obvious way."""
    best = None
    n = X.shape[0]
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = np.float32((np.float64(lo) + np.float64(hi)) * 0.5)
            if thr >= hi:
                thr = lo
            mask = X[:, f] <= thr
            nl, nr = int(mask.sum()), int((~mask).sum())
            sl = int(np.square(np.bincount(y[mask], minlength=n_classes)).sum())
            sr = int(np.square(np.bincount(y[~mask], minlength=n_classes)).sum())
            score = sl / nl + sr / nr
            if best is None or score > best[0]:
                best = (score, f, float(thr))
    return best


def validate_tree(t: DecisionTree) -> None:
    """Full traversal check of the preorder/jump invariants: every node is
    reached once, right children come after their parent inside the tree,
    and no path is deeper than the recorded depth."""
    n = t.n_nodes
    seen = np.zeros(n, dtype=bool)
    stack = [(0, 0)]
    max_depth = 0
    while stack:
        pos, d = stack.pop()
        assert 0 <= pos < n and not seen[pos], f"node index {pos} out of range or revisited"
        seen[pos] = True
        max_depth = max(max_depth, d)
        if t.feature[pos] < 0:
            continue
        right = int(t.jump[pos])
        assert pos < right < n, f"node {pos}: right child {right} violates preorder"
        stack.append((right, d + 1))
        stack.append((pos + 1, d + 1))
    assert seen.all(), "unreachable nodes in tree"
    assert max_depth <= t.depth, f"observed depth {max_depth} exceeds recorded {t.depth}"


def recursive_predict(tree: DecisionTree, x, pos=0):
    if tree.feature[pos] < 0:
        return int(tree.jump[pos])
    if x[tree.feature[pos]] <= tree.threshold[pos]:
        return recursive_predict(tree, x, pos + 1)
    return recursive_predict(tree, x, int(tree.jump[pos]))


class TestTrainTree:
    def test_pure_input_single_leaf(self):
        d = dataset_1d([1, 2, 3], [1, 1, 1])
        t = train_tree(d, [0, 1, 2], max_depth=4, max_features=1, rng_seed=0)
        assert t.n_nodes == 1
        assert t.feature[0] == -1 and t.jump[0] == 1

    def test_textbook_split(self):
        # thresholds 1.5 / 2.5 / 3.5; only 2.5 yields two pure children
        d = dataset_1d([1, 2, 3, 4], [0, 0, 1, 1])
        t = train_tree(d, [0, 1, 2, 3], max_depth=1, max_features=1, rng_seed=0)
        assert t.n_nodes == 3
        assert t.feature[0] == 0
        assert t.threshold[0] == pytest.approx(2.5)
        assert predict_tree(t, [2.0]) == (0, 2)
        assert predict_tree(t, [2.5]) == (0, 2)  # boundary goes left
        assert predict_tree(t, [2.6]) == (1, 2)

    def test_depth_zero_majority_stump(self):
        d = dataset_1d([1, 2, 3, 4, 5], [0, 1, 1, 1, 2])
        t = train_tree(d, list(range(5)), max_depth=0, max_features=1, rng_seed=0)
        assert t.n_nodes == 1 and t.jump[0] == 1

    def test_majority_tie_smallest_class(self):
        d = dataset_1d([1, 2, 3, 4], [2, 2, 1, 1])
        t = train_tree(d, list(range(4)), max_depth=0, max_features=1, rng_seed=0)
        assert t.jump[0] == 1

    def test_no_impurity_reducing_split(self):
        # identical feature values, mixed labels: nothing to split on
        d = dataset_1d([7, 7, 7], [0, 1, 0])
        t = train_tree(d, [0, 1, 2], max_depth=3, max_features=1, rng_seed=0)
        assert t.n_nodes == 1 and t.jump[0] == 0

    def test_depth_bound_and_structure(self):
        data = make_blobs(n_per_class=60, n_features=6, n_classes=3, seed=2)
        for depth in (1, 2, 4, 7):
            t = train_tree(data, np.arange(data.n_samples), depth, 3, rng_seed=depth)
            validate_tree(t)
            assert observed_depth(t) <= depth

    def test_root_split_matches_exhaustive_search(self):
        # all features as candidates: greedy root equals exhaustive search
        rng = np.random.RandomState(0)
        for trial in range(25):
            n = rng.randint(4, 21)
            f = rng.randint(1, 3)
            X = rng.randint(0, 6, (n, f)).astype(np.float32)
            y = rng.randint(0, 3, n)
            d = Dataset(X, y.astype(np.uint16), 3)
            t = train_tree(d, np.arange(n), max_depth=1, max_features=f, rng_seed=trial)
            best = exhaustive_best_split(X, y, 3)
            parent = float(np.square(np.bincount(y, minlength=3)).sum()) / n
            if best is None or best[0] <= parent:
                assert t.n_nodes == 1
            else:
                assert t.n_nodes == 3
                assert t.feature[0] == best[1]
                assert t.threshold[0] == pytest.approx(best[2])

    def test_brute_force_prediction_equivalence(self):
        data = make_blobs(n_per_class=50, n_features=5, n_classes=3, seed=4)
        t = train_tree(data, np.arange(data.n_samples), 6, 2, rng_seed=9)
        labels, visits = pool_predictions(ClassifierPool((t,), ("A",), 0), data.features)
        for i in range(data.n_samples):
            assert labels[0, i] == recursive_predict(t, data.features[i])
            lab, vis = predict_tree(t, data.features[i])
            assert (lab, vis) == (labels[0, i], visits[0, i])


def observed_depth(t: DecisionTree) -> int:
    stack = [(0, 0)]
    deepest = 0
    while stack:
        pos, d = stack.pop()
        deepest = max(deepest, d)
        if t.feature[pos] >= 0:
            stack.append((pos + 1, d + 1))
            stack.append((int(t.jump[pos]), d + 1))
    return deepest


class TestPredictTree:
    def test_single_leaf(self):
        t = DecisionTree(np.array([-1], np.int16), np.array([0.0], np.float32),
                         np.array([4], np.uint16), 0, 5)
        assert predict_tree(t, [123.0]) == (4, 1)

    def test_corrupt_jump_raises(self):
        t = DecisionTree(np.array([0, -1, -1], np.int16),
                         np.array([0.5, 0, 0], np.float32),
                         np.array([9, 0, 1], np.uint16), 1, 2)
        with pytest.raises(ModelCorruptError):
            predict_tree(t, [1.0])


class TestGeneratePool:
    def test_default_config_counts(self, blob_data):
        pool = generate_pool(blob_data, seed=3)
        assert pool.pool_size == 45
        assert pool.origins[:25] == tuple("A" * 25)
        assert pool.origins[25:] == tuple("B" * 20)

    def test_single_stump_config(self):
        d = dataset_1d([1, 2, 3, 4], [0, 0, 0, 1])
        pool = generate_pool(d, PoolConfig((ForestSpec(1, 0),)), seed=1)
        assert pool.pool_size == 1
        assert pool.trees[0].n_nodes == 1

    def test_seed_determinism(self, blob_data):
        cfg = PoolConfig((ForestSpec(4, 5), ForestSpec(3, 3)))
        p1 = generate_pool(blob_data, cfg, seed=8)
        p2 = generate_pool(blob_data, cfg, seed=8)
        assert p1.fingerprint() == p2.fingerprint()
        for a, b in zip(p1.trees, p2.trees):
            np.testing.assert_array_equal(a.feature, b.feature)
            np.testing.assert_array_equal(a.threshold, b.threshold)
            np.testing.assert_array_equal(a.jump, b.jump)

    def test_different_seeds_differ(self, blob_data):
        cfg = PoolConfig((ForestSpec(4, 5),))
        assert generate_pool(blob_data, cfg, seed=1).fingerprint() != \
               generate_pool(blob_data, cfg, seed=2).fingerprint()

    def test_all_trees_structurally_valid(self, blob_data):
        pool = generate_pool(blob_data, PoolConfig((ForestSpec(5, 6), ForestSpec(5, 3))), seed=6)
        for t in pool.trees:
            validate_tree(t)


class TestBootstrap:
    def test_distinct_fraction_near_632(self):
        # mean distinct fraction over 1000 seeded draws of n=100: 1 - 1/e
        n = 100
        fracs = np.empty(1000)
        for i in range(1000):
            idx = bootstrap_indices(SplitMix64(derive_seed(42, i)), n)
            assert idx.shape == (n,) and idx.min() >= 0 and idx.max() < n
            fracs[i] = np.unique(idx).size / n
        assert abs(fracs.mean() - (1 - 1 / np.e)) < 0.02
