import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafage import models
from leafage.core import explain
from leafage.data import (
    Dataset,
    SplitSpec,
    Standardizer,
    generate_artificial,
    load_csv,
    one_vs_rest,
    save_csv,
    standardized,
    train_test_split,
)
from leafage.errors import DataError, ExplanationError, ModelError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_three_row_csv(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,x\n3,4,y\n5,6,x\n")
        ds = load_csv(path, "label")
        assert ds.d == 2 and ds.n == 3
        assert ds.column_names == ["a", "b"]
        assert ds.class_names == ["x", "y"]
        assert np.array_equal(ds.labels, [0, 1, 0])
        assert np.allclose(ds.features, [[1, 2], [3, 4], [5, 6]])

    def test_nan_cell_names_position(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,NaN,x\n3,4,y\n")
        with pytest.raises(DataError, match=r"row 1.*'b'"):
            load_csv(path, "label")

    def test_unparseable_cell_names_position(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,x\n3,oops,y\n")
        with pytest.raises(DataError, match=r"row 2.*'b'.*oops"):
            load_csv(path, "label")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(str(tmp_path / "absent.csv"), "label")

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(path, "label")

    def test_duplicate_column(self, tmp_path):
        path = write(tmp_path, "a,a,label\n1,2,x\n3,4,y\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path, "label")

    def test_too_few_rows(self, tmp_path):
        path = write(tmp_path, "a,label\n1,x\n")
        with pytest.raises(DataError, match="at least 2"):
            load_csv(path, "label")

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "a,label\n1,x\n2,x\n")
        with pytest.raises(DataError, match="2 distinct labels"):
            load_csv(path, "label")

    def test_banknote_style_columns(self, tmp_path):
        # Mirrors the public banknote authentication layout: 4 numeric
        # features (variance, skewness, curtosis, entropy) and a 0/1 class.
        path = write(
            tmp_path,
            "variance,skewness,curtosis,entropy,class\n"
            "3.6216,8.6661,-2.8073,-0.44699,0\n"
            "4.5459,8.1674,-2.4586,-1.4621,0\n"
            "-2.343,12.9516,3.2055,-2.9188,1\n"
            "-1.3971,3.3191,-1.3927,-1.9948,1\n",
        )
        ds = load_csv(path, "class")
        assert ds.d == 4
        assert ds.class_names == ["0", "1"]

    def test_roundtrip_via_save(self, tmp_path):
        ds = generate_artificial(5, seed=3)
        path = str(tmp_path / "ad.csv")
        save_csv(ds, path)
        back = load_csv(path, "label")
        assert np.array_equal(back.features, ds.features)
        assert back.class_names == ds.class_names
        assert np.array_equal(back.labels, ds.labels)
        assert (tmp_path / "ad.csv").read_bytes().startswith(b"x1,x2,label\r\n")

    def test_save_refuses_a_feature_named_label(self, tmp_path):
        ds = load_csv(write(tmp_path, "label,x2,class\n1,2,A\n3,4,B\n"), "class")
        out = tmp_path / "out.csv"
        with pytest.raises(DataError, match="feature column 'label'"):
            save_csv(ds, str(out))
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "label,x1,x2\nA,1,2\nB,3,4\n",
        "x1,x2,label\n1,2,A\n3,4,B\n",
    ])
    def test_byte_order_mark_skipped(self, tmp_path, text):
        # Spreadsheets' "CSV UTF-8" export starts the file with a BOM.
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8-sig")
        ds = load_csv(str(path), "label")
        assert ds.column_names == ["x1", "x2"]
        assert ds.class_names == ["A", "B"]
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("cell", ["oops", "inf"])
    def test_rows_numbered_without_blank_lines(self, tmp_path, cell):
        # An unparseable and a non-finite cell on one row name the same row.
        path = write(tmp_path, f"a,b,label\n1,2,x\n\n3,{cell},y\n")
        with pytest.raises(DataError, match=r"row 2, column 'b'"):
            load_csv(path, "label")

    @pytest.mark.parametrize("cell, message", [
        ("inf", "non-finite feature value at row 2, column 'b'"),
        ("oops", "unparseable numeric cell at row 2, column 'b'"),
    ])
    def test_cell_error_names_the_file(self, tmp_path, cell, message):
        path = write(tmp_path, f"a,b,label\n1,2,x\n3,{cell},y\n")
        with pytest.raises(DataError) as info:
            load_csv(path, "label")
        assert str(info.value).startswith(f"{path}: {message}")

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "a,label\n1,x\n\n2,y\n")
        assert load_csv(path, "label").features.tolist() == [[1.0], [2.0]]

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("a,label\n1,x\n2\n", "row 2 has 1 cells, expected 2"),
    ])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        with pytest.raises(DataError, match=message):
            load_csv(write(tmp_path, text), "label")


class TestSplit:
    def test_sizes_7_3(self):
        ds = generate_artificial(5, seed=0)
        train, test = train_test_split(ds, SplitSpec(train_fraction=0.7, seed=1))
        assert (train.n, test.n) == (7, 3)

    def test_same_seed_identical(self):
        ds = generate_artificial(50, seed=0)
        a = train_test_split(ds, SplitSpec(seed=9))
        b = train_test_split(ds, SplitSpec(seed=9))
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_partition_disjoint_and_complete(self, n, seed):
        features = np.arange(n, dtype=float)[:, None]
        labels = np.arange(n) % 2
        ds = Dataset(features, labels, ["v"], ["a", "b"])
        try:
            train, test = train_test_split(ds, SplitSpec(seed=seed))
        except DataError:
            assert n < 4  # tiny n can produce an empty partition
            return
        seen = np.concatenate([train.features[:, 0], test.features[:, 0]])
        assert sorted(seen.tolist()) == list(range(n))

    def test_class_proportions_over_seeds(self):
        # Monte-Carlo: a split of n=1000 keeps train class
        # fractions within +-10 points of the full dataset across seeds.
        ds = generate_artificial(500, seed=7)
        overall = np.bincount(ds.labels, minlength=len(ds.class_names))[1] / ds.n
        for seed in range(100):
            train, _ = train_test_split(ds, SplitSpec(seed=seed))
            counts = np.bincount(train.labels, minlength=len(train.class_names))
            frac = counts[1] / train.n
            assert abs(frac - overall) < 0.10

    def test_empty_partition_rejected(self):
        ds = generate_artificial(1, seed=0)  # n=2
        with pytest.raises(DataError, match="empty partition"):
            train_test_split(ds, SplitSpec(train_fraction=0.9, seed=0))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_frozen_permutation_rule(self, data):
        n = data.draw(st.integers(min_value=2, max_value=300))
        # Fractions j / 2n put fraction * n on a half, where the rounding shows.
        fraction = data.draw(st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            st.integers(min_value=1, max_value=2 * n - 1).map(lambda j: j / (2 * n)),
        ))
        seed = data.draw(st.integers(min_value=0, max_value=2**63))
        # Frozen reference: the split rule every committed output was made with.
        members = np.arange(n)
        perm = members[np.random.default_rng(seed).permutation(members.size)]
        k = math.floor(fraction * members.size + 0.5)
        want = np.sort(perm[:k]), np.sort(perm[k:])
        features = np.arange(n, dtype=float)[:, None]
        ds = Dataset(features, np.arange(n) % 2, ["v"], ["a", "b"])
        spec = SplitSpec(train_fraction=fraction, seed=seed)
        if want[0].size == 0 or want[1].size == 0:
            with pytest.raises(DataError, match="empty partition"):
                train_test_split(ds, spec)
            return
        got = train_test_split(ds, spec)
        for part, idx in zip(got, want):
            assert part.features[:, 0].tolist() == idx.tolist()
            assert part.labels.tolist() == (idx % 2).tolist()

    @pytest.mark.parametrize("fraction", [0.0, 1.0, math.nan, "0.5", None])
    def test_bad_fraction_rejected(self, fraction):
        with pytest.raises(
            DataError, match="train_fraction must lie strictly between 0 and 1"
        ):
            SplitSpec(train_fraction=fraction)

    @pytest.mark.parametrize("seed", [-1, 0.5, 1.0, True, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(DataError, match="seed must be"):
            SplitSpec(seed=seed)

    def test_numpy_integer_seed(self):
        ds = generate_artificial(5, seed=0)
        a = train_test_split(ds, SplitSpec(seed=np.uint32(3)))
        b = train_test_split(ds, SplitSpec(seed=3))
        assert all(np.array_equal(x.features, y.features) for x, y in zip(a, b))

    def test_single_row_rejected(self):
        ds = Dataset(np.zeros((1, 1)), [0], ["a"], ["x"])
        with pytest.raises(DataError, match="fewer than 2 rows"):
            train_test_split(ds, SplitSpec())


class TestOneVsRest:
    def three_class(self):
        features = np.arange(12, dtype=float).reshape(6, 2)
        labels = np.array([0, 1, 2, 1, 2, 2])
        return Dataset(features, labels, ["a", "b"], ["c0", "c1", "c2"])

    def test_three_class_counts(self):
        ds = self.three_class()
        binary = one_vs_rest(ds, "c0")
        assert binary.class_names == ["rest", "c0"]
        counts = np.bincount(binary.labels, minlength=len(binary.class_names))
        assert counts.tolist() == [5, 1]

    def test_binary_relabel_same_partition(self):
        ds = generate_artificial(10, seed=0)
        binary = one_vs_rest(ds, "A")
        assert binary.class_names == ["rest", "A"]
        assert np.array_equal(binary.labels == 1, ds.labels == 0)

    def test_unknown_class(self):
        with pytest.raises(DataError, match="unknown positive class"):
            one_vs_rest(self.three_class(), "nope")

    def test_positive_class_named_rest(self):
        ds = replace(self.three_class(), class_names=["c0", "rest", "c2"])
        binary = one_vs_rest(ds, "rest")
        assert binary.class_names == ["not rest", "rest"]
        assert np.array_equal(binary.labels == 1, ds.labels == 1)

    def test_features_bit_for_bit(self):
        ds = self.three_class()
        binary = one_vs_rest(ds, "c2")
        assert binary.n == ds.n
        assert np.array_equal(binary.features, ds.features)


class TestArtificial:
    def test_sample_statistics(self):
        ds = generate_artificial(10000, seed=11)
        a = ds.features[ds.labels == 0]
        b = ds.features[ds.labels == 1]
        assert np.all(np.abs(a.mean(axis=0) - [0.0, 0.0]) < 0.05)
        assert np.all(np.abs(b.mean(axis=0) - [0.0, 1.0]) < 0.05)
        assert np.all(np.abs(a.var(axis=0) - 2.0) < 0.1)
        assert np.all(np.abs(b.var(axis=0) - 2.0) < 0.1)

    def test_minimal_size(self):
        ds = generate_artificial(1, seed=0)
        assert ds.n == 2
        assert np.bincount(ds.labels, minlength=len(ds.class_names)).tolist() == [1, 1]

    def test_empty_class_rejected(self):
        with pytest.raises(DataError, match="n_per_class must be at least 1"):
            generate_artificial(0, seed=0)

    @pytest.mark.parametrize("n_per_class", [2.5, 2.0, True, "2"])
    def test_n_per_class_must_be_an_integer(self, n_per_class):
        with pytest.raises(DataError, match="n_per_class must be an integer"):
            generate_artificial(n_per_class, 0)

    @pytest.mark.parametrize("seed", [-1, 0.5, True, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(DataError, match="seed must be"):
            generate_artificial(10, seed)

    def test_deterministic(self):
        assert np.array_equal(
            generate_artificial(20, seed=4).features,
            generate_artificial(20, seed=4).features,
        )

    def test_classes_highly_non_separable(self):
        # The Bayes-optimal linear rule (threshold x2 at 0.5) errs between
        # 30% and 50% of the time: overlapping but not pure noise.
        ds = generate_artificial(10000, seed=2)
        predicted = (ds.features[:, 1] > 0.5).astype(int)
        error = float(np.mean(predicted != ds.labels))
        assert 0.3 < error < 0.5


class TestStandardizer:
    def test_train_statistics(self):
        ds = generate_artificial(200, seed=1)
        sc = Standardizer.fit(ds.features)
        z = sc.transform(ds.features)
        assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-9)

    def test_constant_column_flagged(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        sc = Standardizer.fit(x)
        assert sc.scales[0] == 1.0
        z = sc.transform(x)
        assert np.all(z[:, 0] == 0.0)

    @pytest.mark.parametrize("column, values", [
        # The square of 1e200 overflows, so the std would be infinite and
        # the column would standardize to 0 everywhere.
        (1, [1.0, 1e200, 3.0, 4.0]),
        (1, [1.0, -1e200, 3.0, 4.0]),
        # The sum of the column, and so its mean, overflows.
        (0, [1.7e308] * 4),
    ])
    def test_overflow_names_the_column(self, column, values):
        x = np.column_stack([np.arange(4.0)] * 2)
        x[:, column] = values
        with pytest.raises(DataError, match=f"column {column}"):
            Standardizer.fit(x)

    @pytest.mark.parametrize("d", [1, 2])
    def test_zero_rows(self, d):
        with pytest.raises(DataError, match="zero rows"):
            Standardizer.fit(np.empty((0, d)))

    @pytest.mark.parametrize("shape", [(3, 1), (3, 3), (1,)])
    def test_batch_of_another_width_rejected(self, shape):
        sc = Standardizer.fit(generate_artificial(5, seed=0).features)
        with pytest.raises(
            DataError, match=f"batch has {shape[-1]} columns, the standardizer "
            "was fitted on 2"
        ):
            sc.transform(np.zeros(shape))

    def test_standardized_dataset_helper(self):
        ds = generate_artificial(30, seed=0)
        sc = Standardizer.fit(ds.features)
        zds = standardized(ds, sc)
        assert np.array_equal(zds.labels, ds.labels)
        assert np.allclose(zds.features, sc.transform(ds.features))


class TestDatasetInvariants:
    def test_row_count_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), ["a", "b"], ["x"])

    @pytest.mark.parametrize("features, labels, columns, message", [
        (np.zeros(3), [0, 0, 0], ["a"], "must be two-dimensional"),
        (np.zeros((2, 2)), [0, 0], ["a"], "column_names length"),
        (np.zeros((2, 0)), [0, 0], [], "at least one feature column"),
        (np.zeros((2, 1)), [0, 2], ["a"], "label codes out of range"),
    ])
    def test_malformed_dataset_rejected(self, features, labels, columns, message):
        with pytest.raises(DataError, match=message):
            Dataset(features, labels, columns, ["x", "y"])

    @pytest.mark.parametrize("features, labels, shape", [
        (np.zeros((2, 1)), np.array([[0], [1]]), "(2, 1)"),
        (np.zeros((1, 1)), 0, "()"),
    ])
    def test_labels_must_be_one_dimensional(self, features, labels, shape):
        message = f"labels must be one-dimensional, got shape {shape}"
        with pytest.raises(DataError, match=re.escape(message)):
            Dataset(features, labels, ["v"], ["A", "B"])

    def test_label_codes_must_be_whole(self):
        for labels in ([0.5, 1.7, 0, 1], ["a", "b", "a", "b"], [np.nan, 0, 1, 0]):
            with pytest.raises(DataError, match="label codes must be whole numbers"):
                Dataset(np.zeros((4, 1)), labels, ["v"], ["A", "B"])
        for labels in ([0, 1, 0, 1], [False, True, False, True], [0.0, 1.0, 0.0, 1.0]):
            ds = Dataset(np.zeros((4, 1)), labels, ["v"], ["A", "B"])
            assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 0, 1]

    def test_names_are_stored_as_lists(self):
        ds = Dataset(np.zeros((2, 2)), [0, 1], ("x1", "x2"), ("A", "B"))
        assert ds.column_names == ["x1", "x2"] and ds.class_names == ["A", "B"]
        assert ds.column_names == generate_artificial(1, seed=0).column_names

    @pytest.mark.parametrize("columns, classes, field", [
        ("ab", ["A", "B"], "column_names"),
        ([1, 2], ["A", "B"], "column_names"),
        (["a", "b"], ["A", 7], "class_names"),
        (["a", "b"], "AB", "class_names"),
        (["a", b"b"], ["A", "B"], "column_names"),
        (None, ["A", "B"], "column_names"),
    ])
    def test_names_must_be_strings(self, columns, classes, field):
        with pytest.raises(DataError, match=f"{field} must be a list of strings"):
            Dataset(np.zeros((2, 2)), [0, 1], columns, classes)

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(DataError, match=r"duplicate column names \['x'\]"):
            Dataset(np.zeros((2, 3)), [0, 1], ["x", "y", "x"], ["A", "B"])

    def test_duplicate_class_names_rejected(self):
        # one_vs_rest(ds, "A") would put the second "A" into rest.
        with pytest.raises(DataError, match=r"duplicate class names \['A'\]"):
            Dataset(np.zeros((3, 1)), [0, 1, 2], ["v"], ["A", "A", "B"])

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(DataError, match="non-finite"):
            Dataset(bad, np.array([0, 1]), ["a", "b"], ["x", "y"])

    def test_immutable(self):
        ds = generate_artificial(3, seed=0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_caller_arrays_neither_frozen_nor_shared(self):
        X = np.array([[0.0, 1.0], [2.0, 3.0]])
        y = np.array([0, 1])
        ds = Dataset(X, y, ["a", "b"], ["x", "y"])
        # The caller's arrays stay writable, and writing them after
        # validation leaves the Dataset as it was checked.
        X[0, 0] = np.nan
        y[0] = 1
        assert ds.features.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert ds.labels.tolist() == [0, 1]
        assert not ds.features.flags.writeable and not ds.labels.flags.writeable


# Each public entry point that converts numbers, with the error it documents.
NUMERIC_ENTRY_POINTS = {
    "explain": ExplanationError,
    "Dataset": DataError,
    "Standardizer.fit": DataError,
    "Standardizer.transform": DataError,
    "TrainedModel.fit": ModelError,
    "predict_labels": ModelError,
}


@pytest.mark.parametrize(
    "bad",
    [
        "a", 10**400, 1 + 2j, [0.0, 1.0], "0.5", True,
        np.array([1 + 2j, 0.0]), np.array([True, False]), np.array(["0.5", "0.0"]),
    ],
    ids=[
        "string", "huge-int", "complex", "ragged", "numeric-string", "bool",
        "complex-array", "bool-array", "string-array",
    ],
)
@pytest.mark.parametrize("entry", NUMERIC_ENTRY_POINTS)
def test_unconvertible_value_raises_the_documented_error(entry, bad):
    """Only real numbers convert.  ``bad`` is a row's first value, or the
    whole row when it is an array; a batch of array rows is an array of
    the same dtype."""
    ds = generate_artificial(10, seed=0)
    fitted = models.fit_on_standardized("lr", ds, seed=0)
    if isinstance(bad, np.ndarray):
        row, rows = bad, np.stack([bad] * 4)
    else:
        row = [bad, 0.0]
        rows = [row, [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    labels = [0, 1, 0, 1]
    calls = {
        "explain": lambda: explain(
            fitted.model, ds, row, standardizer=fitted.standardizer
        ),
        "Dataset": lambda: Dataset(rows, labels, ["x1", "x2"], ["A", "B"]),
        "Standardizer.fit": lambda: Standardizer.fit(rows),
        "Standardizer.transform": lambda: fitted.standardizer.transform(row),
        "TrainedModel.fit": lambda: models.ALGORITHMS["lr"]().fit(rows, labels),
        "predict_labels": lambda: fitted.model.predict_labels(rows),
    }
    with pytest.raises(NUMERIC_ENTRY_POINTS[entry], match="numeric"):
        calls[entry]()
