import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from leafage.core import _euclidean, dissimilarities
from leafage.data import Dataset
from leafage.models.base import BlackBoxModel


def separable_blobs(n_per_class=60, seed=0, gap=4.0):
    """Two uniform discs of radius 0.9 centred ``gap`` apart: margin > 2."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, 2 * np.pi, 2 * n_per_class)
    radii = 0.9 * np.sqrt(rng.uniform(0, 1, 2 * n_per_class))
    points = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    points[:n_per_class, 0] -= gap / 2
    points[n_per_class:, 0] += gap / 2
    labels = np.concatenate(
        [np.zeros(n_per_class, dtype=int), np.ones(n_per_class, dtype=int)]
    )
    return points, labels


def dissim(s, z, rows):
    """``dissimilarities`` with the distances ``explain`` passes it."""
    rows = np.atleast_2d(rows)
    return dissimilarities(s, z, rows, _euclidean(rows, z))


def class_rows(predicted):
    """Each class's row indices, as ``explain`` keeps them."""
    predicted = np.asarray(predicted)
    return np.flatnonzero(predicted == 0), np.flatnonzero(predicted == 1)


def blob_dataset(n_per_class=60, seed=0, gap=4.0):
    X, y = separable_blobs(n_per_class, seed, gap)
    return Dataset(X, y, ["f0", "f1"], ["neg", "pos"], name="blobs")


class FixedLinearModel(BlackBoxModel):
    """Test stub: a frozen linear rule label = [w @ x + b >= 0]."""

    descriptor = "fixed-linear"

    def __init__(self, weights, intercept=0.0):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.intercept = float(intercept)

    def predict_labels(self, rows):
        scores = np.asarray(rows, dtype=np.float64) @ self.weights + self.intercept
        return (scores >= 0.0).astype(np.int64)


class ConstantModel(BlackBoxModel):
    """Test stub: predicts one class everywhere."""

    descriptor = "constant"

    def __init__(self, label=1):
        self.label = int(label)

    def predict_labels(self, rows):
        return np.full(np.asarray(rows).shape[0], self.label, dtype=np.int64)
