"""Black-box classifier interface.

A model is queried only through ``predict_labels``; everything downstream
(neighbourhood sampling, surrogate fitting, fidelity scoring) treats it as
opaque.  The linear and tree models also expose a real-valued
``predict_scores`` of their own, which the explanation pipeline never
calls.
"""
from __future__ import annotations

import abc

import numpy as np

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


def check_matrix(rows: np.ndarray, n_features: int) -> np.ndarray:
    """Validate a prediction batch against the trained dimension."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ModelError(f"expected a 2-d batch of rows, got shape {rows.shape}")
    if rows.shape[1] != n_features:
        raise ModelError(
            f"dimension mismatch: model trained on {n_features} features, "
            f"batch has {rows.shape[1]}"
        )
    return rows


def check_training_set(
    features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a training set; return it as float64 rows and int64 labels.

    The rows must form a finite numeric 2-d array with one binary label
    per row, both classes present.
    """
    try:
        X = np.asarray(features, dtype=np.float64)
    except (TypeError, ValueError):
        raise ModelError("training features must be numeric") from None
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
    return X, labels.astype(np.int64, copy=False)
