"""Bulk splitmix64 draws against the scalar loops that define them.

``sample_sorted_rows`` and ``shuffle`` take their bounds from one
``next_block``. The per-draw loops below are the reference: same picks, same
permutation, and the stream left in the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinydes._rng import MASK64, SplitMix64, mix64

seeds = st.integers(0, MASK64)


def sample_sorted(rng, n, m):
    """Reference: one partial Fisher-Yates draw with a bounded() call per pick."""
    if m >= n:
        return list(range(n))
    idx = list(range(n))
    for i in range(m):
        j = i + rng.bounded(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:m])


def shuffle(rng, seq):
    """Reference: Fisher-Yates from the top, one bounded(i + 1) per position."""
    for i in range(len(seq) - 1, 0, -1):
        j = rng.bounded(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


class TestSampleSortedRows:
    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, n=st.integers(1, 60), m=st.integers(1, 70), count=st.integers(0, 12))
    def test_rows_equal_sequential_draws(self, seed, n, m, count):
        bulk, ref = SplitMix64(seed), SplitMix64(seed)
        rows = bulk.sample_sorted_rows(n, m, count)
        assert rows.shape == (count, min(m, n)) and rows.dtype == np.int64
        assert rows.tolist() == [sample_sorted(ref, n, m) for _ in range(count)]
        assert bulk.state == ref.state
        # a scalar draw is the splitmix64 output of the state it steps from
        assert SplitMix64(seed).next() == mix64(seed)

    @pytest.mark.parametrize("n, m, count", [(1, 1, 3), (5, 1, 4), (784, 28, 128),
                                             (64, 8, 7), (4, 4, 2), (3, 9, 2), (9, 3, 0)])
    def test_edges_and_pool_shapes(self, n, m, count):
        bulk, ref = SplitMix64(7), SplitMix64(7)
        rows = bulk.sample_sorted_rows(n, m, count)
        assert rows.tolist() == [sample_sorted(ref, n, m) for _ in range(count)]
        assert bulk.state == ref.state

    def test_whole_range_draws_nothing(self):
        rng = SplitMix64(3)
        rows = rng.sample_sorted_rows(5, 5, 3)
        assert rows.tolist() == [list(range(5))] * 3
        assert rng.state == 3

    def test_blocks_continue_one_stream(self):
        bulk, ref = SplitMix64(11), SplitMix64(11)
        rows = np.vstack([bulk.sample_sorted_rows(100, 10, c) for c in (3, 0, 5)])
        assert rows.tolist() == [sample_sorted(ref, 100, 10) for _ in range(8)]
        assert bulk.state == ref.state


class TestShuffle:
    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, n=st.integers(0, 40))
    def test_list_and_array_equal_loop(self, seed, n):
        ref = list(range(10, 10 + n))
        ref_rng = SplitMix64(seed)
        shuffle(ref_rng, ref)
        as_list = list(range(10, 10 + n))
        list_rng = SplitMix64(seed)
        list_rng.shuffle(as_list)
        as_array = np.arange(10, 10 + n, dtype=np.int64)
        array_rng = SplitMix64(seed)
        array_rng.shuffle(as_array)
        assert as_list == ref
        assert as_array.tolist() == ref and as_array.dtype == np.int64
        assert list_rng.state == ref_rng.state == array_rng.state

    @pytest.mark.parametrize("n", [0, 1, 2, 1000, 4321])
    def test_sizes(self, n):
        for seed in (0, 99):
            ref = list(range(n))
            ref_rng = SplitMix64(seed)
            shuffle(ref_rng, ref)
            arr = np.arange(n, dtype=np.int64)
            rng = SplitMix64(seed)
            rng.shuffle(arr)
            assert arr.tolist() == ref
            assert rng.state == ref_rng.state

    def test_short_sequences_draw_nothing(self):
        for seq in ([], [4], np.array([4])):
            rng = SplitMix64(5)
            rng.shuffle(seq)
            assert rng.state == 5
