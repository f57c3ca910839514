"""Black-box classifier interface.

A model is queried only through ``predict_labels``; everything downstream
(neighbourhood sampling, surrogate fitting, fidelity scoring) treats it as
opaque.  The in-process models derive from ``TrainedModel``, which is
fitted once and then never changes.
"""
from __future__ import annotations

import abc

import numpy as np

from ..data import float_array
from ..errors import ModelError


class BlackBoxModel(abc.ABC):
    """Opaque label-prediction interface.

    Implementations must be deterministic once trained: repeated calls on
    the same rows return the same labels, and an empty ``(0, d)`` batch
    returns an empty int64 array.
    """

    descriptor: str = "blackbox"

    @abc.abstractmethod
    def predict_labels(self, rows: np.ndarray) -> np.ndarray:
        """Predicted class code (int64, one per row)."""


class TrainedModel(BlackBoxModel):
    """A black box trained in process, fitted exactly once.

    ``fit`` validates and copies the training set and calls the
    subclass's ``_train``; a second ``fit`` raises ModelError, so labels
    that ``explain()`` keeps for a fitted model stay its labels.
    ``predict_labels`` validates each batch and passes it to the
    subclass's ``_predict``.
    """

    _fit_rows: np.ndarray | None = None

    def fit(self, features: np.ndarray, labels: np.ndarray, seed: int = 0):
        if self._fit_rows is not None:
            raise ModelError(f"{self.descriptor} model is already fitted")
        X, y = check_training_set(features, labels)
        X.flags.writeable = False
        y.flags.writeable = False
        self._train(X, y, seed)
        self._fit_rows = X
        return self

    def predict_labels(self, rows: np.ndarray) -> np.ndarray:
        fit_rows = self._fit_rows
        if fit_rows is None:
            raise ModelError(f"{self.descriptor} model is not fitted")
        return self._predict(check_matrix(rows, fit_rows.shape[1]))

    @abc.abstractmethod
    def _train(self, X: np.ndarray, y: np.ndarray, seed: int) -> None:
        """Train on validated, read-only float64 rows and int64 labels."""

    @abc.abstractmethod
    def _predict(self, rows: np.ndarray) -> np.ndarray:
        """Predicted class code of each row of a validated batch."""


def check_matrix(rows: np.ndarray, n_features: int) -> np.ndarray:
    """Validate a prediction batch against the trained dimension; return
    it as C-ordered float64 rows.

    BLAS rounds a product over a Fortran-ordered batch differently, so a
    row on a linear model's boundary could change label with the layout.
    """
    rows = float_array(rows, "batch rows", ModelError)
    if rows.ndim != 2:
        raise ModelError(f"expected a 2-d batch of rows, got shape {rows.shape}")
    if rows.shape[1] != n_features:
        raise ModelError(
            f"dimension mismatch: model trained on {n_features} features, "
            f"batch has {rows.shape[1]}"
        )
    return np.ascontiguousarray(rows)


def check_training_set(
    features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a training set; return copies of it as float64 rows and
    int64 labels.

    The rows must form a finite numeric 2-d array with one binary label
    per row, both classes present.
    """
    X = float_array(features, "training features", ModelError).copy()
    labels = np.asarray(labels)
    if X.ndim != 2:
        raise ModelError(f"training features must be 2-d, got shape {X.shape}")
    if labels.shape != (X.shape[0],):
        raise ModelError(
            f"{X.shape[0]} training rows but labels of shape {labels.shape}"
        )
    if X.shape[0] < 2:
        raise ModelError("need at least 2 training rows")
    if not np.isfinite(X).all():
        raise ModelError("training features must be finite (no NaN or infinity)")
    codes = np.unique(labels)
    if not np.isin(codes, (0, 1)).all():
        raise ModelError(
            f"labels must be the binary codes 0 and 1, got {codes.tolist()}; "
            "expand a multiclass dataset one-vs-rest (data.one_vs_rest)"
        )
    if codes.size < 2:
        raise ModelError("training set contains a single class")
    return X, labels.astype(np.int64)
