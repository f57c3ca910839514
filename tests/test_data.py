import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from leafage.errors import DataError


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
        # Monte-Carlo: unstratified split of n=1000 keeps train class
        # fractions within +-10 points of the full dataset across seeds.
        ds = generate_artificial(500, seed=7)
        overall = ds.class_counts()[1] / ds.n
        for seed in range(100):
            train, _ = train_test_split(ds, SplitSpec(seed=seed))
            frac = train.class_counts()[1] / train.n
            assert abs(frac - overall) < 0.10

    def test_stratified_keeps_proportions(self):
        ds = generate_artificial(100, seed=0)
        train, test = train_test_split(ds, SplitSpec(seed=5, stratified=True))
        assert train.class_counts()[0] == train.class_counts()[1]
        assert test.class_counts()[0] == test.class_counts()[1]

    def test_empty_partition_rejected(self):
        ds = generate_artificial(1, seed=0)  # n=2
        with pytest.raises(DataError, match="empty partition"):
            train_test_split(ds, SplitSpec(train_fraction=0.9, seed=0))

    def test_bad_fraction_rejected(self):
        with pytest.raises(DataError):
            SplitSpec(train_fraction=1.0)

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
        assert binary.class_counts().tolist() == [5, 1]

    def test_binary_relabel_same_partition(self):
        ds = generate_artificial(10, seed=0)
        binary = one_vs_rest(ds, "A")
        assert binary.class_names == ["rest", "A"]
        assert np.array_equal(binary.labels == 1, ds.labels == 0)

    def test_unknown_class(self):
        with pytest.raises(DataError, match="unknown positive class"):
            one_vs_rest(self.three_class(), "nope")

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
        assert ds.class_counts().tolist() == [1, 1]

    def test_empty_class_rejected(self):
        with pytest.raises(DataError, match="n_per_class must be at least 1"):
            generate_artificial(0, seed=0)

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

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(DataError, match="non-finite"):
            Dataset(bad, np.array([0, 1]), ["a", "b"], ["x", "y"])

    def test_immutable(self):
        ds = generate_artificial(3, seed=0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0
