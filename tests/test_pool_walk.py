"""The pool walk: every (tree, row) pair at once over the pool's flat node
columns (``ClassifierPool.feature``/``threshold``/``jump`` from
``ClassifierPool.from_trees``, walked by ``_kernels.tree_walk``), checked
against ``tree_oracle.predict_tree`` one pair at a time, and the layout faults the pool
rejects when it is built."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinydes import _kernels, selection
from tinydes.errors import ModelCorruptError, ShapeError
from tinydes.selection import pool_predictions

from conftest import leaf, per_tree_predictions, pool_of
from tree_oracle import pool_tree
from test_tinyformat import random_tree


def pool3(*trees):
    return pool_of(trees, 3)


def stump(feature=0, thr=0.5):
    return ([feature, -1, -1], [thr, 0, 0], [2, 0, 1])


class TestPoolWalkMatchesPredictTree:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nf=st.integers(1, 4), n_classes=st.integers(1, 5),
           depths=st.lists(st.integers(0, 6), min_size=1, max_size=6),
           n_rows=st.integers(0, 25), block=st.sampled_from([1, 2, 3, 7, 64, 1 << 16]))
    def test_random_pools(self, seed, nf, n_classes, depths, n_rows, block):
        # depth 0 is a single leaf; each node is a leaf with chance 1/4
        rng = np.random.RandomState(seed)
        pool = pool_of([random_tree(rng, nf, n_classes, d) for d in depths], n_classes)
        grid = np.unique(pool.threshold)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-45], np.float32)
        # most cells sit exactly on some threshold, where x <= thr goes left
        X = rng.choice(np.concatenate([grid, grid, special]), (n_rows, nf)).astype(np.float32)
        X[rng.rand(n_rows, nf) < 0.2] = np.float32(rng.randn())
        with mock.patch.object(selection, "WALK_BLOCK_PAIRS", block):
            labels, visits = pool_predictions(pool, X)
        want_labels, want_visits = per_tree_predictions(pool, X)
        np.testing.assert_array_equal(labels, want_labels)
        np.testing.assert_array_equal(visits, want_visits)

    def test_nan_goes_right_and_threshold_goes_left(self):
        pool = pool3(stump(1, 0.5), leaf(2))
        X = np.array([[9, 0.5], [9, np.nan], [9, 0.25], [9, 0.75]], np.float32)
        labels, visits = pool_predictions(pool, X)
        np.testing.assert_array_equal(labels, [[0, 1, 0, 1], [2, 2, 2, 2]])
        np.testing.assert_array_equal(visits, [[2, 2, 2, 2], [1, 1, 1, 1]])

    def test_walks_in_blocks_of_pairs(self, pipeline):
        # the tree walk sees every (tree, row) pair once, in blocks of at
        # most WALK_BLOCK_PAIRS; a block may span trees
        pool, X = pipeline["pool"], pipeline["dsel"].samples
        calls = []
        real = _kernels.tree_walk

        def spy(feat, thr, jump, roots, rows, mat):
            calls.append((roots.copy(), rows.copy()))
            return real(feat, thr, jump, roots, rows, mat)

        with mock.patch.object(_kernels, "tree_walk", spy), \
                mock.patch.object(selection, "WALK_BLOCK_PAIRS", 100):
            pool_predictions(pool, X)
        assert max(r.size for r, _ in calls) == 100
        roots = np.concatenate([r for r, _ in calls])
        rows = np.concatenate([w for _, w in calls])
        n = X.shape[0]
        np.testing.assert_array_equal(roots, pool.first.repeat(n))
        np.testing.assert_array_equal(rows, np.tile(np.arange(n), pool.pool_size))


class TestPoolNodes:
    def test_columns_are_the_trees_end_to_end(self):
        a, b = stump(1, 0.5), leaf(2)
        pool = pool3(a, b, a)
        np.testing.assert_array_equal(pool.feature, [1, -1, -1, -1, 1, -1, -1])
        np.testing.assert_array_equal(pool.jump, [2, 0, 1, 2, 2, 0, 1])
        np.testing.assert_array_equal(pool.first, [0, 3, 4])
        np.testing.assert_array_equal(pool.count, [3, 1, 3])
        assert (pool.feature.dtype, pool.threshold.dtype, pool.jump.dtype) == \
            (np.int16, np.float32, np.uint16)
        assert (pool.pool_size, pool.n_nodes, pool.n_classes) == (3, 7, 3)
        assert not any(c.flags.writeable for c in (pool.feature, pool.threshold, pool.jump))
        assert [pool_tree(pool, i).n_nodes for i in range(3)] == [3, 1, 3]


class TestCorruptPoolRaises:
    """A layout fault raises when the pool is built, with the message
    ``load_tiny`` gives for the same tree in a ``.tdes`` file."""

    def test_backward_jump(self):
        # node 0's right child is node 0 itself: the walk would never end
        with pytest.raises(ModelCorruptError, match="^tree 1: right-child jump violates"):
            pool3(stump(), ([0, -1, -1], [0.5, 0, 0], [0, 0, 1]))

    def test_cycle_between_internal_nodes(self):
        with pytest.raises(ModelCorruptError, match="^tree 0: right-child jump violates"):
            pool3(([0, 0, -1, -1], [0.5, 0.5, 0, 0], [2, 0, 0, 1]))

    def test_jump_out_of_its_tree(self):
        # a right child at local node 3 of a 3-node tree would be the next
        # tree's root in the flat columns: it must not be walked
        with pytest.raises(ModelCorruptError, match="^tree 0: right-child jump violates"):
            pool3(([0, -1, -1], [0.5, 0, 0], [3, 0, 1]), stump())

    def test_left_child_out_of_its_tree(self):
        # the last node is internal: its left child is the next tree's root
        with pytest.raises(ModelCorruptError, match="^tree 0: right-child jump violates"):
            pool3(([0, -1, 0], [0.5, 0, 0.5], [2, 0, 2]), stump())

    @pytest.mark.parametrize("width", [0, 1, 2])
    def test_feature_beyond_input_width(self, width):
        # feature 2 of a 2-wide row would read the next row's first cell
        pool = pool3(stump(0), stump(2))
        with pytest.raises(ModelCorruptError,
                           match=f"^pool reads feature 2; the input has {width}$"):
            pool_predictions(pool, np.zeros((3, width), np.float32))
        assert pool_predictions(pool, np.zeros((3, 3), np.float32))[0].shape == (2, 3)

    def test_leaf_class_not_below_n_classes(self):
        # a class-4 vote among 3 classes would land in the next row's vote
        # bins, or past the last row's
        with pytest.raises(ModelCorruptError, match="^tree 0: leaf class out of range$"):
            pool3(*(leaf(c) for c in (4, 1, 1)))
        with pytest.raises(ModelCorruptError, match="^tree 1: leaf class out of range$"):
            pool3(stump(), leaf(3))

    def test_tree_with_no_nodes(self):
        with pytest.raises(ModelCorruptError, match="^empty tree in directory$"):
            pool3(stump(), ([], [], []))
        with pytest.raises(ModelCorruptError, match="^pool has no trees$"):
            pool3()

    def test_not_a_matrix(self):
        with pytest.raises(ShapeError):
            pool_predictions(pool3(stump()), np.zeros(3, np.float32))
