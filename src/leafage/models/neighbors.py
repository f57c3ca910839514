"""1-nearest-neighbour classifier (Euclidean, lowest-index tie break)."""
from __future__ import annotations

import numpy as np

from .base import BlackBoxModel, check_matrix, check_training_set

# Query rows per distance block; bounds the (block, n_train, d) temporary.
BLOCK_ROWS = 2048


class KNearestModel(BlackBoxModel):
    """K=1 nearest neighbour over the stored training set.

    Distance ties resolve to the lowest training-row index, so training
    rows are always classified by their own (first) copy.
    """

    descriptor = "knn"

    def __init__(self):
        self.n_features = 0
        self._train: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    def fit(self, features: np.ndarray, labels: np.ndarray, seed: int = 0):
        check_training_set(features, labels)
        self._train = np.asarray(features, dtype=np.float64)
        self._labels = np.asarray(labels, dtype=np.int64)
        self.n_features = self._train.shape[1]
        return self

    def predict_labels(self, rows: np.ndarray) -> np.ndarray:
        rows = check_matrix(rows, self.n_features)
        out = np.empty(rows.shape[0], dtype=np.int64)
        for start in range(0, rows.shape[0], BLOCK_ROWS):
            block = rows[start : start + BLOCK_ROWS]
            diff = block[:, None, :] - self._train[None, :, :]
            dist2 = np.einsum("ijk,ijk->ij", diff, diff)
            out[start : start + block.shape[0]] = self._labels[
                np.argmin(dist2, axis=1)
            ]
        return out
