import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinydes import _kernels
from tinydes._rng import SplitMix64, derive_seed
from tinydes.data import Dataset
from tinydes.errors import CapacityError, ModelCorruptError
from tinydes.selection import pool_predictions
from tinydes.trees import ClassifierPool, bootstrap_indices, generate_pool, train_tree

from conftest import leaf, make_blobs, pool_of
from tree_oracle import pool_tree, predict_tree
from tree_oracle import train_tree as recursive_train_tree


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


def validate_tree(t, depth: int) -> None:
    """Full traversal check of the preorder/jump invariants of one tree's
    columns, a one-tree pool's among them: every node is reached once, right
    children come after their parent inside the tree, and no path is deeper
    than ``depth``."""
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
    assert max_depth <= depth, f"observed depth {max_depth} exceeds {depth}"


def recursive_predict(tree, x, pos=0):
    if tree.feature[pos] < 0:
        return int(tree.jump[pos])
    if x[tree.feature[pos]] <= tree.threshold[pos]:
        return recursive_predict(tree, x, pos + 1)
    return recursive_predict(tree, x, int(tree.jump[pos]))


class TestTrainTree:
    def test_returns_one_tree_pool(self):
        # the grown tree is a pool of one, in the node fields, checked and
        # read-only like every pool
        data = make_blobs(n_per_class=30, n_features=4, n_classes=3, seed=7)
        t = train_tree(data, np.arange(data.n_samples), 5, 2, rng_seed=3)
        assert isinstance(t, ClassifierPool)
        assert (t.pool_size, t.n_classes) == (1, 3) and t.n_nodes > 1
        assert (t.first.tolist(), t.count.tolist()) == ([0], [t.n_nodes])
        assert (t.feature.dtype, t.threshold.dtype, t.jump.dtype) == (
            np.int16, np.float32, np.uint16)
        with pytest.raises(ValueError):
            t.jump[0] = 0

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
        labels, visits = pool_predictions(t, [[2.0], [2.5], [2.6]])
        assert labels.tolist() == [[0, 0, 1]]  # the boundary, 2.5, goes left
        assert visits.tolist() == [[2, 2, 2]]

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

    def test_zero_gain_split_not_taken(self):
        # 1|2 leaves both children with one row of each class: its score, 2,
        # equals the parent's, so the node stays a leaf
        d = dataset_1d([1, 1, 2, 2], [0, 1, 0, 1])
        t = train_tree(d, [0, 1, 2, 3], max_depth=3, max_features=1, rng_seed=0)
        assert t.n_nodes == 1 and t.jump[0] == 0

    def test_depth_bound_and_structure(self):
        data = make_blobs(n_per_class=60, n_features=6, n_classes=3, seed=2)
        for depth in (1, 2, 4, 7):
            t = train_tree(data, np.arange(data.n_samples), depth, 3, rng_seed=depth)
            validate_tree(t, depth)
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

    def test_max_features_below_one_rejected(self):
        d = Dataset(np.array([[0, 1], [1, 0], [2, 2]], np.float32),
                    np.array([0, 1, 0], np.uint16), 2)
        for m in (0, -1):
            with mock.patch.object(_kernels, "best_split", side_effect=AssertionError), \
                    pytest.raises(ValueError, match=f"^max_features must be at least 1, got {m}$"):
                train_tree(d, [0, 1, 2], max_depth=3, max_features=m, rng_seed=0)

    def test_max_features_above_feature_count_takes_all(self):
        d = make_blobs(n_per_class=20, n_features=3, n_classes=2, seed=1)
        idx = np.arange(d.n_samples)
        same_tree(train_tree(d, idx, 4, 4, rng_seed=5), train_tree(d, idx, 4, 3, rng_seed=5))

    def test_brute_force_prediction_equivalence(self):
        data = make_blobs(n_per_class=50, n_features=5, n_classes=3, seed=4)
        pool = train_tree(data, np.arange(data.n_samples), 6, 2, rng_seed=9)
        labels, visits = pool_predictions(pool, data.features)
        for i in range(data.n_samples):
            assert labels[0, i] == recursive_predict(pool, data.features[i])
            lab, vis = predict_tree(pool, 0, data.features[i])
            assert (lab, vis) == (labels[0, i], visits[0, i])


_V0 = np.nextafter(np.float32(1), np.float32(2))  # odd mantissa: midpoint rounds up
# -0.0 and 0.0 tie; (_V0, next) and (3, next) are adjacent float32 pairs, the
# first falling back to its left value; +-1e-45 are the smallest subnormals
PALETTE = np.array([-0.0, 0.0, _V0, np.nextafter(_V0, np.float32(2)), 3.0,
                    np.nextafter(np.float32(3), np.float32(4)), -1.5, 1e-45, -1e-45],
                   np.float32)


def same_tree(a, b) -> None:
    np.testing.assert_array_equal(a.feature, b.feature)
    np.testing.assert_array_equal(a.threshold.view(np.uint32), b.threshold.view(np.uint32))
    np.testing.assert_array_equal(a.jump, b.jump)


class TestAgainstRecursiveOracle:
    """The stack-grown tree against the recursive ``train_tree`` it replaced
    (``tests/tree_oracle.py``, which searches splits with
    ``split_oracle.value_best_split``): the same feature, threshold-bit and
    jump arrays."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_base=st.integers(1, 12), n_rows=st.integers(1, 40),
           nf=st.integers(1, 6), n_classes=st.integers(1, 12), depth=st.integers(0, 10),
           wide=st.booleans(), seed=st.integers(0, 2**64 - 1))
    def test_same_arrays(self, data, n_base, n_rows, nf, n_classes, depth, wide, seed):
        cells = data.draw(st.lists(st.integers(0, PALETTE.size - 1), min_size=n_base * nf,
                                   max_size=n_base * nf))
        # rows copied from a few base rows repeat whole
        copies = data.draw(st.lists(st.integers(0, n_base - 1), min_size=n_rows,
                                    max_size=n_rows))
        X = PALETTE[np.array(cells)].reshape(n_base, nf)[np.array(copies)]
        y = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n_rows, max_size=n_rows))
        if wide:  # 300 distinct filler values push every code to uint16
            filler = np.zeros((300, nf), np.float32)
            filler[:, 0] = 10 + np.arange(300)
            X = np.concatenate([X, filler])
            y = y + [i % n_classes for i in range(300)]
        d = Dataset(X, np.array(y, np.uint16), n_classes)
        assert d.rank_codes.dtype == (np.uint16 if wide else np.uint8)
        idx = data.draw(st.lists(st.integers(0, d.n_samples - 1), min_size=1, max_size=60))
        max_features = data.draw(st.integers(1, nf))
        same_tree(train_tree(d, idx, depth, max_features, seed),
                  recursive_train_tree(d, idx, depth, max_features, seed))

    def test_default_pool_trees(self, blob_data):
        # generate_pool's bootstraps and seeds, depths 10 and 5
        pool = generate_pool(blob_data, ((2, 10), (2, 5)), seed=4)
        for i, depth in enumerate((10, 10, 5, 5)):
            t = pool_tree(pool, i)
            stream = SplitMix64(derive_seed(4, i))
            boot = bootstrap_indices(stream, blob_data.n_samples)
            same_tree(t, recursive_train_tree(blob_data, boot, depth, 3, stream.next()))


class TestNodeFieldCapacity:
    def test_feature_and_jump_out_of_range(self):
        # int16 would wrap 40000 to -25536, a leaf; uint16 70000 to 4464
        with pytest.raises(CapacityError, match="feature id 40000"):
            pool_of([([40000, -1, -1], [0.5, 0, 0], [2, 0, 1])], 2)
        with pytest.raises(CapacityError, match="jump 70000"):
            pool_of([([0, -1, -1], [0.5, 0, 0], [2, 0, 70000])], 2)
        with pytest.raises(CapacityError, match="jump -1"):
            pool_of([([0, -1, -1], [0.5, 0, 0], [2, -1, 1])], 2)
        with pytest.raises(CapacityError, match="class count 65536"):
            pool_of([leaf(0)], 65536)
        pool = pool_of([([32767, -32768, -1], [0.5, 0, 0], [2, 65534, 1])], 65535)
        assert pool.feature.tolist() == [32767, -32768, -1] and pool.jump[1] == 65534

    def test_threshold_beyond_float32(self):
        # the float32 cast would overflow to inf, with a RuntimeWarning
        for big in ("1e+39", "-1e+39"):
            with pytest.raises(CapacityError,
                               match=f"^threshold {re.escape(big)} outside the float32 field$"):
                pool_of([([0, -1, -1], [float(big), 0.0, 0.0], [2, 0, 1])], 2)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ModelCorruptError, match="^non-finite node threshold$"):
                pool_of([([0, -1, -1], [bad, 0.0, 0.0], [2, 0, 1])], 2)
        top = float(np.finfo(np.float32).max)
        assert pool_of([([0, -1, -1], [top, 0.0, 0.0], [2, 0, 1])], 2).threshold[0] == top

    def test_too_many_features_raise_before_growth(self):
        d = Dataset(np.eye(2, 32769, 32768, dtype=np.float32), np.array([0, 1], np.uint16), 2)
        with mock.patch.object(_kernels, "best_split", side_effect=AssertionError):
            with pytest.raises(CapacityError, match="32769 features"):
                train_tree(d, [0, 1], 3, 1, 0)

    def test_largest_feature_id(self):
        # 32768 features: the last one's id, 32767, is the int16 maximum
        d = Dataset(np.eye(2, 32768, 32767, dtype=np.float32), np.array([0, 1], np.uint16), 2)
        t = train_tree(d, [0, 1], 1, 32768, 0)
        assert t.feature.tolist() == [32767, -1, -1]


def observed_depth(t) -> int:
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
    """One tree's answers through the pool walk; the one-sample reference
    walk, ``tree_oracle.predict_tree``, is checked against it in
    ``test_pool_walk``."""

    def test_single_leaf(self):
        labels, visits = pool_predictions(pool_of([leaf(4)], 5), [[123.0]])
        assert (labels.tolist(), visits.tolist()) == ([[4]], [[1]])

    def test_corrupt_jump_raises(self):
        # a right child past the tree's end is rejected when the pool is built
        with pytest.raises(ModelCorruptError, match="^tree 0: right-child jump violates preorder$"):
            pool_of([([0, -1, -1], [0.5, 0, 0], [9, 0, 1])], 2)

    def test_feature_beyond_input_length(self):
        pool = pool_of([leaf(0), ([1, -1, -1], [0.5, 0, 0], [2, 0, 1])], 2)
        with pytest.raises(ModelCorruptError, match="^pool reads feature 1; the input has 1$"):
            pool_predictions(pool, [[0.0]])
        labels, visits = pool_predictions(pool, [[0.0, 0.0]])
        assert (labels[1].tolist(), visits[1].tolist()) == ([0], [2])


class TestGeneratePool:
    def test_default_config_counts(self, blob_data):
        pool = generate_pool(blob_data, seed=3)
        assert pool.pool_size == 45

    def test_single_stump_config(self):
        d = dataset_1d([1, 2, 3, 4], [0, 0, 0, 1])
        pool = generate_pool(d, ((1, 0),), seed=1)
        assert pool.pool_size == 1
        assert pool.n_nodes == 1

    def test_seed_determinism(self, blob_data):
        p1 = generate_pool(blob_data, ((4, 5), (3, 3)), seed=8)
        p2 = generate_pool(blob_data, ((4, 5), (3, 3)), seed=8)
        assert p1.fingerprint() == p2.fingerprint()
        for col in ("feature", "threshold", "jump", "first", "count"):
            np.testing.assert_array_equal(getattr(p1, col), getattr(p2, col))

    def test_different_seeds_differ(self, blob_data):
        assert generate_pool(blob_data, ((4, 5),), seed=1).fingerprint() != \
               generate_pool(blob_data, ((4, 5),), seed=2).fingerprint()

    def test_all_trees_structurally_valid(self, blob_data):
        pool = generate_pool(blob_data, ((5, 6), (5, 3)), seed=6)
        for i, depth in enumerate([6] * 5 + [3] * 5):
            validate_tree(pool_tree(pool, i), depth)


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
