import gzip
import math
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinydes.data import (Dataset, Standardizer, apply_standardizer,
                          fit_standardizer, invert_standardizer, load_csv,
                          load_idx, make_fold_plan, stratified_indices,
                          stratified_split)
from tinydes.errors import FormatError, ShapeError, StratificationError


def write_idx_pair(tmp_path, pixels, labels, rows, cols, name="t"):
    img = tmp_path / f"{name}-images-idx3-ubyte"
    lab = tmp_path / f"{name}-labels-idx1-ubyte"
    n = len(labels)
    img.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + bytes(pixels))
    lab.write_bytes(struct.pack(">II", 0x801, n) + bytes(labels))
    return img, lab


class TestLoadIdx:
    def test_single_sample_byte_widening(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [0, 255, 0, 255], [3], 2, 2)
        d = load_idx(img, lab)
        assert d.n_samples == 1 and d.n_features == 4
        assert d.features.dtype == np.float32
        np.testing.assert_array_equal(d.features[0], [0.0, 255.0, 0.0, 255.0])
        assert d.labels[0] == 3

    def test_truncated_labels(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, list(range(40)), list(range(10)), 2, 2)
        lab.write_bytes(struct.pack(">II", 0x801, 10) + bytes(range(9)))
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_truncated_pixels(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [1] * 8, [0, 1], 2, 2)
        img.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes([1] * 7))
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_bad_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [1] * 4, [0], 2, 2)
        img.write_bytes(struct.pack(">IIII", 0x804, 1, 2, 2) + bytes([1] * 4))
        with pytest.raises(FormatError):
            load_idx(img, lab)
        img, lab = write_idx_pair(tmp_path, [1] * 4, [0], 2, 2)
        lab.write_bytes(struct.pack(">II", 0x999, 1) + bytes([0]))
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [1] * 8, [0, 1], 2, 2)
        lab.write_bytes(struct.pack(">II", 0x801, 1) + bytes([0]))
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_gzipped_pair(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, [0, 255, 0, 255], [3], 2, 2)
        for p in (img, lab):
            gz = p.with_name(p.name + ".gz")
            gz.write_bytes(gzip.compress(p.read_bytes()))
        d = load_idx(str(img) + ".gz", str(lab) + ".gz")
        assert d.n_samples == 1 and d.labels[0] == 3


class TestLoadCsv:
    def test_label_reencoding(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2,7\n3,4,7\n5,6,9\n7,8,9\n")
        d = load_csv(p, 2)
        assert d.n_classes == 2
        np.testing.assert_array_equal(d.labels, [0, 0, 1, 1])
        assert d.label_values == ["7", "9"]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(FormatError):
            load_csv(p, 0)

    def test_iris_style_fixture(self, tmp_path):
        rng = np.random.RandomState(3)
        lines = ["sl,sw,pl,pw,species"]
        for i in range(150):
            vals = rng.rand(4) * 5
            lines.append(",".join(f"{v:.2f}" for v in vals) + f",{i % 3}")
        p = tmp_path / "iris.csv"
        p.write_text("\n".join(lines) + "\n")
        d = load_csv(p, "species")
        assert d.n_samples == 150 and d.n_features == 4 and d.n_classes == 3
        assert d.feature_names == ["sl", "sw", "pl", "pw"]

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2,0\n3,4\n")
        with pytest.raises(FormatError):
            load_csv(p, 2)

    def test_non_numeric_feature(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("a,b,y\n1,oops,0\n2,3,1\n")
        with pytest.raises(FormatError):
            load_csv(p, "y")


class TestStandardizer:
    def test_hand_arithmetic(self):
        d = Dataset(np.array([[2.0], [4.0]], np.float32), np.array([0, 1], np.uint16), 2)
        s = fit_standardizer(d)
        assert s.mean[0] == pytest.approx(3.0)
        assert s.inv_std[0] == pytest.approx(1.0)

    def test_constant_column(self):
        d = Dataset(np.full((3, 1), 5.0, np.float32), np.array([0, 1, 0], np.uint16), 2)
        s = fit_standardizer(d)
        assert s.mean[0] == 5.0 and s.inv_std[0] == 1.0

    def test_pixel_range_column(self):
        # population sigma of [0, 255] is 127.5
        d = Dataset(np.array([[0.0], [255.0]], np.float32), np.array([0, 1], np.uint16), 2)
        s = fit_standardizer(d)
        assert s.mean[0] == pytest.approx(127.5)
        assert s.inv_std[0] == pytest.approx(1.0 / 127.5)
        assert apply_standardizer(s, [255.0])[0] == pytest.approx(1.0)

    def test_identity_at_mean(self):
        s = Standardizer(np.array([3.0, -1.0], np.float32), np.array([2.0, 5.0], np.float32))
        np.testing.assert_array_equal(apply_standardizer(s, s.mean), [0.0, 0.0])
        assert apply_standardizer(s, [4.0, -1.0])[0] == pytest.approx(2.0)

    def test_shape_error(self):
        s = Standardizer(np.array([3.0], np.float32), np.array([1.0], np.float32))
        with pytest.raises(ShapeError):
            apply_standardizer(s, [1.0, 2.0])

    def test_round_trip(self):
        rng = np.random.RandomState(5)
        feats = (rng.rand(200, 7) * 100).astype(np.float32)
        d = Dataset(feats, rng.randint(0, 3, 200).astype(np.uint16), 3)
        s = fit_standardizer(d)
        back = invert_standardizer(s, apply_standardizer(s, feats))
        scale = np.maximum(np.abs(feats), 1.0)
        assert (np.abs(back - feats) / scale).max() < 1e-5

    def test_overflow_saturates_without_warning(self):
        # finite inputs whose standardized value leaves float32 become +-inf
        # silently, as the engine's do; the subtraction can overflow too
        s = Standardizer(np.array([0.0, -3e38], np.float32), np.array([4.0, 1.0], np.float32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_standardizer(s, np.array([[3e38, 3e38], [-3e38, 0.0]], np.float32))
        want = np.array([[np.inf, np.inf], [-np.inf, 3e38]], np.float32)
        np.testing.assert_array_equal(out, want)

    def test_inv_std_positive(self):
        with pytest.raises(ShapeError):
            Standardizer(np.zeros(2, np.float32), np.array([1.0, 0.0], np.float32))


class TestStratifiedSplit:
    def test_round_half_up_counts(self):
        d = Dataset(np.arange(10, dtype=np.float32).reshape(10, 1),
                    np.array([0] * 5 + [1] * 5, np.uint16), 2)
        a, b = stratified_split(d, 0.5, 3)
        assert a.n_samples == 6 and b.n_samples == 4
        assert np.bincount(a.labels).tolist() == [3, 3]
        assert np.bincount(b.labels).tolist() == [2, 2]

    def test_even_split(self):
        d = Dataset(np.arange(4, dtype=np.float32).reshape(4, 1),
                    np.array([0, 0, 1, 1], np.uint16), 2)
        a, b = stratified_split(d, 0.5, 1)
        assert np.bincount(a.labels, minlength=2).tolist() == [1, 1]
        assert np.bincount(b.labels, minlength=2).tolist() == [1, 1]

    def test_deterministic(self):
        rng = np.random.RandomState(1)
        d = Dataset(rng.rand(40, 3).astype(np.float32),
                    rng.randint(0, 4, 40).astype(np.uint16), 4)
        a1, b1 = stratified_split(d, 0.3, 99)
        a2, b2 = stratified_split(d, 0.3, 99)
        np.testing.assert_array_equal(a1.features, a2.features)
        np.testing.assert_array_equal(b1.labels, b2.labels)

    def test_disjoint_exhaustive(self):
        rng = np.random.RandomState(2)
        feats = rng.rand(37, 2).astype(np.float32)
        d = Dataset(feats, (np.arange(37) % 3).astype(np.uint16), 3)
        a, b = stratified_split(d, 0.4, 7)
        seen = np.vstack([a.features, b.features])
        assert seen.shape[0] == 37
        assert {tuple(r) for r in seen} == {tuple(r) for r in feats}

    @pytest.mark.parametrize("fraction, empty", [(0.125, "first"), (0.875, "second")])
    def test_empty_part_raises_typed_error(self, fraction, empty):
        # one class of 2 rows: round-half-up(0.25) = 0 and (1.75) = 2 rows go first
        d = Dataset(np.zeros((2, 1), np.float32), np.array([0, 0], np.uint16), 1)
        with pytest.raises(StratificationError,
                           match=rf"^fraction {fraction} of class counts \[2\] leaves a part"):
            stratified_split(d, fraction, 0)

    def test_singleton_class_rejected(self):
        d = Dataset(np.zeros((3, 1), np.float32), np.array([0, 0, 1], np.uint16), 2)
        with pytest.raises(StratificationError):
            stratified_split(d, 0.5, 0)


class TestFoldPlan:
    def test_exact_divisibility(self):
        d = Dataset(np.random.RandomState(0).rand(100, 2).astype(np.float32),
                    np.array([0] * 50 + [1] * 50, np.uint16), 2)
        plan = make_fold_plan(d, 5, 1, 4)
        for f in range(5):
            mask = plan.assignments[0] == f
            assert mask.sum() == 20
            assert np.bincount(d.labels[mask]).tolist() == [10, 10]

    def test_repeats_differ(self):
        d = Dataset(np.random.RandomState(0).rand(60, 2).astype(np.float32),
                    (np.arange(60) % 3).astype(np.uint16), 3)
        plan = make_fold_plan(d, 5, 2, 11)
        assert plan.assignments.shape == (2, 60)
        assert not np.array_equal(plan.assignments[0], plan.assignments[1])

    def test_unbalanced_allocation(self):
        # 6+4 samples over 4 folds: totals stay within one of 10/4, class
        # remainders land on the lightest folds
        d = Dataset(np.arange(10, dtype=np.float32).reshape(10, 1),
                    np.array([0] * 6 + [1] * 4, np.uint16), 2)
        plan = make_fold_plan(d, 4, 1, 123)
        totals = np.bincount(plan.assignments[0], minlength=4)
        assert sorted(totals.tolist()) == [2, 2, 3, 3]
        for f in range(4):
            counts = np.bincount(d.labels[plan.assignments[0] == f], minlength=2)
            assert abs(counts[0] - 6 / 4) <= 1 and abs(counts[1] - 4 / 4) <= 1

    def test_partition_exact(self):
        rng = np.random.RandomState(9)
        d = Dataset(rng.rand(83, 2).astype(np.float32),
                    rng.randint(0, 4, 83).astype(np.uint16), 4)
        plan = make_fold_plan(d, 4, 3, 5)
        for r in range(3):
            union = set()
            for f in range(4):
                train, test = plan.train_test_indices(r, f)
                assert set(train) & set(test) == set()
                assert len(train) + len(test) == 83
                assert union & set(test) == set()
                union |= set(test)
            assert union == set(range(83))

    def test_stratification_bound(self):
        rng = np.random.RandomState(3)
        labels = rng.randint(0, 5, 127).astype(np.uint16)
        labels[:25] = np.arange(25) % 5  # every class big enough
        d = Dataset(rng.rand(127, 2).astype(np.float32), labels, 5)
        plan = make_fold_plan(d, 5, 2, 77)
        class_counts = np.bincount(labels, minlength=5)
        for r in range(2):
            for f in range(5):
                cnt = np.bincount(labels[plan.assignments[r] == f], minlength=5)
                assert (np.abs(cnt - class_counts / 5) <= 1).all()

    def test_small_class_rejected(self):
        d = Dataset(np.zeros((10, 1), np.float32),
                    np.array([0] * 8 + [1] * 2, np.uint16), 2)
        with pytest.raises(StratificationError):
            make_fold_plan(d, 5, 1, 0)

    def test_deterministic(self):
        d = Dataset(np.random.RandomState(0).rand(40, 2).astype(np.float32),
                    (np.arange(40) % 2).astype(np.uint16), 2)
        p1 = make_fold_plan(d, 4, 2, 21)
        p2 = make_fold_plan(d, 4, 2, 21)
        np.testing.assert_array_equal(p1.assignments, p2.assignments)


class TestDatasetInvariants:
    def test_rejects_nan(self):
        feats = np.array([[np.nan]], np.float32)
        with pytest.raises(FormatError):
            Dataset(feats, np.array([0], np.uint16), 1)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(FormatError):
            Dataset(np.zeros((2, 1), np.float32), np.array([0, 3], np.uint16), 2)

    def test_immutable(self):
        d = Dataset(np.zeros((2, 1), np.float32), np.array([0, 1], np.uint16), 2)
        with pytest.raises(ValueError):
            d.features[0, 0] = 1.0


def row_id_dataset(labels, n_classes):
    """One feature holding the row index, so a part's features name its rows."""
    n = len(labels)
    return Dataset(np.arange(n, dtype=np.float32).reshape(n, 1),
                   np.asarray(labels, np.uint16), n_classes)


@st.composite
def class_layouts(draw, min_count):
    """Labels with every present class at least ``min_count`` strong, some
    classes absent, in a drawn order."""
    counts = draw(st.lists(st.one_of(st.just(0), st.integers(min_count, 40)),
                           min_size=1, max_size=5).filter(any))
    labels = [c for c, k in enumerate(counts) for _ in range(k)]
    return draw(st.permutations(labels)), len(counts)


def row_ids(part):
    return part.features[:, 0].astype(np.int64)


class TestSplitProperties:
    @settings(max_examples=120, deadline=None)
    @given(layout=class_layouts(2), fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**64 - 1))
    def test_stratified_split_invariants(self, layout, fraction, seed):
        labels, n_classes = layout
        d = row_id_dataset(labels, n_classes)
        n = len(labels)
        ia = stratified_indices(d, fraction, seed)
        ib = np.setdiff1d(np.arange(n), ia)
        assert (np.diff(ia) > 0).all() and ia.dtype == np.int64
        counts = np.bincount(d.labels, minlength=n_classes)
        taken = np.bincount(d.labels[ia], minlength=n_classes)
        for cls, cnt in enumerate(counts.tolist()):
            assert taken[cls] == min(math.floor(fraction * cnt + 0.5), cnt)
        if ia.size == 0 or ib.size == 0:
            with pytest.raises(StratificationError, match="leaves a part with no samples"):
                stratified_split(d, fraction, seed)
            return
        a, b = stratified_split(d, fraction, seed)
        np.testing.assert_array_equal(row_ids(a), ia)
        np.testing.assert_array_equal(row_ids(b), ib)
        np.testing.assert_array_equal(a.labels, d.labels[ia])
        np.testing.assert_array_equal(b.labels, d.labels[ib])

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), n_splits=st.integers(2, 6), n_repeats=st.integers(1, 3),
           seed=st.integers(0, 2**64 - 1))
    def test_fold_plan_invariants(self, data, n_splits, n_repeats, seed):
        labels, n_classes = data.draw(class_layouts(n_splits))
        d = row_id_dataset(labels, n_classes)
        plan = make_fold_plan(d, n_splits, n_repeats, seed)
        counts = np.bincount(d.labels, minlength=n_classes)
        n = len(labels)
        for r in range(n_repeats):
            a = plan.assignments[r]
            assert a.max() < n_splits
            sizes = np.bincount(a, minlength=n_splits)
            assert sizes.sum() == n and sizes.max() - sizes.min() <= 1
            assert (np.abs(sizes - n / n_splits) < 1).all()
            for f in range(n_splits):
                train, test = plan.train_test_indices(r, f)
                assert np.union1d(train, test).tolist() == list(range(n))
                assert train.size + test.size == n
                per_class = np.bincount(d.labels[test], minlength=n_classes)
                assert (np.abs(per_class - counts / n_splits) < 1).all()


def labelled_rows(n, n_classes, seed):
    rng = np.random.RandomState(seed)
    labels = rng.randint(0, n_classes, n)
    labels[:2 * n_classes] = np.arange(2 * n_classes) % n_classes
    return row_id_dataset(labels, n_classes)


def crc(a):
    return zlib.crc32(np.ascontiguousarray(a, dtype=np.int64).tobytes())


class TestGoldenIndices:
    """crc32 pins of split and fold-plan indices, recorded before the shuffle
    drew its bounds in one block: any change to a seeded permutation shows."""

    @pytest.mark.parametrize("n, n_classes, seed, fraction, split_seed, first, second", [
        (37, 3, 1, 0.4, 7, 0x7C8FD986, 0x685486FB),
        (600, 5, 2, 0.5, 11, 0xC3B4EC89, 0xDEF45A95),
        (5000, 10, 3, 0.3, 12345, 0x56D48A04, 0x19517EAD),
    ])
    def test_stratified_split(self, n, n_classes, seed, fraction, split_seed, first, second):
        a, b = stratified_split(labelled_rows(n, n_classes, seed), fraction, split_seed)
        assert (crc(row_ids(a)), crc(row_ids(b))) == (first, second)

    @pytest.mark.parametrize("n, n_classes, seed, n_splits, n_repeats, plan_seed, pin", [
        (83, 4, 4, 4, 3, 5, 0xD15ED54F),
        (600, 5, 5, 5, 2, 21, 0xDA78A478),
        (5000, 10, 6, 2, 1, 9, 0xCE31F4B4),
    ])
    def test_fold_plan(self, n, n_classes, seed, n_splits, n_repeats, plan_seed, pin):
        plan = make_fold_plan(labelled_rows(n, n_classes, seed), n_splits, n_repeats, plan_seed)
        assert crc(plan.assignments) == pin
