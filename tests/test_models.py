import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import separable_blobs
import leafage
from leafage.data import Dataset, SplitSpec, generate_artificial, train_test_split
from leafage.errors import ModelError
from leafage import models
from leafage.models import (
    DecisionTreeModel,
    KNearestModel,
    LinearSVMModel,
    LogisticRegressionModel,
    RandomForestModel,
    fit,
)
from leafage.models.neighbors import BLOCK_ELEMENTS


def as_dataset(X, y):
    cols = [f"f{i}" for i in range(X.shape[1])]
    return Dataset(X, y, cols, ["neg", "pos"])


class TestLinearFamily:
    def test_svm_separable_blobs_perfect(self):
        X, y = separable_blobs()
        model = LinearSVMModel().fit(X, y)
        assert np.array_equal(model.predict_labels(X), y)

    def test_lr_separable_blobs_perfect(self):
        X, y = separable_blobs(seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = LogisticRegressionModel().fit(X, y)
        assert np.array_equal(model.predict_labels(X), y)

    def test_lda_separable_blobs_perfect(self):
        X, y = separable_blobs(seed=2)
        model = fit("lda", as_dataset(X, y))
        assert np.array_equal(model.predict_labels(X), y)

    @pytest.mark.parametrize("algorithm", ["lr", "svm", "lda"])
    def test_boundary_exactly_linear(self, algorithm):
        # Points with equal score stay equal-scored along their segment,
        # checked through the exposed hyperplane.
        X, y = separable_blobs(seed=3)
        model = fit(algorithm, as_dataset(X, y))
        w, b = model.weights, model.intercept
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=2)
            # construct a second point with the same score
            direction = np.array([-w[1], w[0]])  # orthogonal to w
            c = a + rng.uniform(-3, 3) * direction
            for lam in rng.uniform(0, 1, 5):
                mid = lam * a + (1 - lam) * c
                assert (mid @ w + b) == pytest.approx(a @ w + b, abs=1e-9)

    def test_lr_nonconvergence_warns_but_returns(self):
        X, y = separable_blobs()
        with pytest.warns(UserWarning, match="did not reach"):
            model = LogisticRegressionModel(max_iter=3).fit(X, y)
        assert model.weights is not None
        assert not model.converged


class TestTrees:
    def test_dt_xor_pattern(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([0, 0, 1, 1])
        # Hand oracle: no single axis-aligned split separates XOR, so the
        # tree must split twice; full growth reaches 100% train accuracy.
        model = DecisionTreeModel().fit(X, y)
        assert np.array_equal(model.predict_labels(X), y)

    def test_dt_deterministic(self):
        ds = generate_artificial(100, seed=5)
        a = DecisionTreeModel().fit(ds.features, ds.labels)
        b = DecisionTreeModel().fit(ds.features, ds.labels)
        grid = np.random.default_rng(0).normal(size=(200, 2))
        assert np.array_equal(a.predict_labels(grid), b.predict_labels(grid))

    def test_rf_single_tree_equals_dt(self):
        ds = generate_artificial(150, seed=2)
        dt = DecisionTreeModel().fit(ds.features, ds.labels)
        rf = RandomForestModel(n_trees=1, bootstrap=False, max_features=None).fit(
            ds.features, ds.labels, seed=123
        )
        grid = np.random.default_rng(1).normal(size=(500, 2)) * 2
        assert np.array_equal(dt.predict_labels(grid), rf.predict_labels(grid))

    def test_rf_deterministic_given_seed(self):
        ds = generate_artificial(80, seed=3)
        grid = np.random.default_rng(2).normal(size=(100, 2))
        a = RandomForestModel().fit(ds.features, ds.labels, seed=7)
        b = RandomForestModel().fit(ds.features, ds.labels, seed=7)
        assert np.array_equal(a.predict_labels(grid), b.predict_labels(grid))


class TestKNN:
    def test_training_rows_recovered(self):
        ds = generate_artificial(100, seed=1)
        model = KNearestModel().fit(ds.features, ds.labels)
        assert np.array_equal(model.predict_labels(ds.features), ds.labels)

    def test_tie_breaks_to_lowest_index(self):
        X = np.array([[0.0], [2.0], [4.0]])
        y = np.array([0, 1, 0])
        model = KNearestModel().fit(X, y)
        # query at 1.0 is equidistant from rows 0 and 1 -> row 0 wins
        assert model.predict_labels(np.array([[1.0]]))[0] == 0


def difference_form_labels(train, labels, rows, block_rows=2048):
    """Reference 1-NN: exact sums of (x - t)^2, argmin takes the lowest index."""
    out = np.empty(rows.shape[0], dtype=np.int64)
    for start in range(0, rows.shape[0], block_rows):
        block = rows[start : start + block_rows]
        diff = block[:, None, :] - train[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        out[start : start + block.shape[0]] = labels[np.argmin(dist2, axis=1)]
    return out


def first_copy_labels(train, labels):
    """Label of the lowest-index training row equal to each training row."""
    first = [int(np.flatnonzero((train == row).all(axis=1))[0]) for row in train]
    return labels[first]


@st.composite
def tie_heavy_knn_cases(draw):
    """Scaled integer-grid training rows, some duplicated under the other
    label, and queries on the rows, on midpoints of row pairs and on random
    points; an offset of 1e6 is where the Gram form cancels worst."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(2, 25))
    cell = st.integers(-3, 3)
    grid = np.array(draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                                  min_size=n, max_size=n)), dtype=np.float64)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if labels.min() == labels.max():
        labels[0] ^= 1
    dup = draw(st.lists(st.integers(0, n - 1), max_size=5))
    grid = np.vstack([grid, grid[dup]])
    labels = np.concatenate([labels, 1 - labels[dup]])
    scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0]))
    offset = draw(st.sampled_from([0.0, 0.7, 1e6, -1e6 + 0.1]))
    train = grid * scale + offset
    pairs = draw(st.lists(st.tuples(st.integers(0, len(grid) - 1),
                                    st.integers(0, len(grid) - 1)), max_size=20))
    mids = np.array([(train[a] + train[b]) / 2 for a, b in pairs]).reshape(-1, d)
    loose = np.array(draw(st.lists(
        st.lists(st.floats(-4, 4), min_size=d, max_size=d), max_size=20
    ))).reshape(-1, d)
    return train, labels, np.vstack([train, mids, loose + offset])


class TestKNNGramForm:
    """The Gram-form predictor against the exact difference form."""

    @given(tie_heavy_knn_cases())
    @settings(max_examples=300, deadline=None)
    def test_labels_equal_difference_form(self, case):
        train, labels, queries = case
        model = KNearestModel().fit(train, labels)
        got = model.predict_labels(queries)
        assert np.array_equal(got, difference_form_labels(train, labels, queries))
        # the first rows of the batch are the training rows themselves
        assert np.array_equal(got[: len(train)], first_copy_labels(train, labels))

    @pytest.mark.parametrize("offset", [0.0, 1e6 + 0.1])
    def test_batch_over_several_blocks(self, offset):
        rng = np.random.default_rng(5)
        n_train, d = 4096, 3
        train = rng.integers(-4, 5, size=(n_train, d)) * 0.1 + offset
        labels = rng.integers(0, 2, size=n_train)
        pairs = rng.integers(0, n_train, size=(300, 2))
        queries = np.vstack([
            train[:300],
            (train[pairs[:, 0]] + train[pairs[:, 1]]) / 2,
            rng.uniform(-5, 5, size=(300, d)) + offset,
        ])
        assert queries.shape[0] > 3 * (BLOCK_ELEMENTS // n_train)
        model = KNearestModel().fit(train, labels)
        assert np.array_equal(
            model.predict_labels(queries),
            difference_form_labels(train, labels, queries),
        )

    def test_non_finite_and_huge_queries(self):
        # Every difference-form distance of an infinite or overflowing query
        # is inf, so row 0 wins; the Gram form alone would pick row 1.
        train = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [2.0, 2.0]])
        labels = np.array([1, 0, 1, 0])
        inf, nan = np.inf, np.nan
        queries = np.array([
            [nan, 0.0], [inf, 0.0], [-inf, 0.0], [inf, inf], [inf, -inf],
            [1e308, 0.0], [1e200, 1e200], [-1e200, 3.0], [1e160, 0.0], [0.0, 0.0],
        ])
        model = KNearestModel().fit(train, labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.predict_labels(queries)
        assert np.array_equal(got, difference_form_labels(train, labels, queries))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_empty_batch(self, d):
        rng = np.random.default_rng(d)
        model = KNearestModel().fit(rng.normal(size=(6, d)), np.arange(6) % 2)
        out = model.predict_labels(np.empty((0, d)))
        assert out.shape == (0,) and out.dtype == np.int64

    def test_relabel_10k_rows_memory_stays_flat(self):
        # ru_maxrss is the process peak, so measure in a fresh interpreter.
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from leafage.models import KNearestModel

            rng = np.random.default_rng(0)
            train = rng.normal(size=(12_000, 2))
            labels = rng.integers(0, 2, size=12_000)
            model = KNearestModel().fit(train, labels)
            model.predict_labels(train[:10])
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            assert (model.predict_labels(train) == labels).all()
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) / 1024.0)
            """
        )
        src = str(Path(leafage.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, check=True, env={**os.environ, "PYTHONPATH": path},
        )
        growth_mb = float(done.stdout.strip())
        assert growth_mb < 100.0, f"peak RSS grew {growth_mb:.0f} MB"


class TestFitFactory:
    def test_unknown_algorithm(self):
        ds = generate_artificial(10, seed=0)
        with pytest.raises(ModelError, match="unknown algorithm"):
            fit("mystery", ds)

    def test_single_class_rejected(self):
        X = np.zeros((5, 2))
        y = np.zeros(5, dtype=int)
        ds = Dataset(X + np.arange(5)[:, None], y, ["a", "b"], ["only", "other"])
        with pytest.raises(ModelError, match="single class"):
            fit("lr", ds)

    @pytest.mark.parametrize("algorithm", models.CANONICAL_ALGORITHMS)
    def test_three_class_labels_rejected(self, algorithm):
        X = np.random.default_rng(0).normal(size=(30, 2))
        y = np.arange(30) % 3
        ds = Dataset(X, y, ["a", "b"], ["x", "y", "z"])
        with pytest.raises(ModelError, match="one-vs-rest"):
            fit(algorithm, ds)

    def test_hyperparams_forwarded(self):
        ds = generate_artificial(50, seed=0)
        model = fit("rf", ds, {"n_trees": 3})
        assert len(model._trees) == 3

    def test_bad_hyperparams(self):
        ds = generate_artificial(10, seed=0)
        with pytest.raises(ModelError, match="bad hyperparameters"):
            fit("rf", ds, {"n_legs": 4})

    @pytest.mark.parametrize("algorithm", models.CANONICAL_ALGORITHMS)
    def test_all_algorithms_beat_majority_on_holdout(self, algorithm):
        X, y = separable_blobs(n_per_class=80, seed=4)
        ds = as_dataset(X, y)
        train, test = train_test_split(ds, SplitSpec(seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit(algorithm, train)
        accuracy = float(np.mean(model.predict_labels(test.features) == test.labels))
        majority = float(np.max(np.bincount(test.labels)) / test.n)
        assert accuracy > majority

    @pytest.mark.parametrize("algorithm", ["lr", "svm", "lda"])
    def test_linear_models_beat_majority_on_ad(self, algorithm):
        ds = generate_artificial(500, seed=6)
        train, test = train_test_split(ds, SplitSpec(seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit(algorithm, train)
        accuracy = float(np.mean(model.predict_labels(test.features) == test.labels))
        majority = float(np.max(np.bincount(test.labels)) / test.n)
        assert accuracy > majority


class TestPredictContract:
    def test_empty_batch(self):
        ds = generate_artificial(10, seed=0)
        for algorithm in models.CANONICAL_ALGORITHMS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                model = fit(algorithm, ds)
            out = model.predict_labels(np.empty((0, 2)))
            assert out.shape == (0,), algorithm
            assert out.dtype == np.int64, algorithm

    def test_repeat_calls_identical(self):
        ds = generate_artificial(40, seed=0)
        model = fit("rf", ds, seed=1)
        rows = np.random.default_rng(3).normal(size=(50, 2))
        assert np.array_equal(model.predict_labels(rows), model.predict_labels(rows))

    def test_dimension_mismatch(self):
        ds = generate_artificial(10, seed=0)
        model = fit("lda", ds)
        with pytest.raises(ModelError, match="dimension mismatch"):
            model.predict_labels(np.zeros((3, 5)))
