import warnings

import numpy as np
import pytest

from conftest import separable_blobs
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
