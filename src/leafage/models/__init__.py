"""Reference classifiers behind the black-box interface.

``fit`` is the single entry point used by the CLI and evaluation harness;
it resolves an algorithm name, applies hyperparameter overrides and
returns a trained model.  Trained classifiers are immutable and safe to
share across threads for prediction; an ExternalModel handle is the one
exception (single owner, one request in flight).
"""
from __future__ import annotations

from dataclasses import dataclass

from ..data import Dataset, Standardizer, standardized
from ..errors import ModelError
from .base import BlackBoxModel
from .external import ExternalModel
from .linear import LDAModel, LinearSVMModel, LogisticRegressionModel
from .neighbors import KNearestModel
from .tree import DecisionTreeModel, RandomForestModel

__all__ = [
    "BlackBoxModel",
    "LogisticRegressionModel",
    "LinearSVMModel",
    "LDAModel",
    "DecisionTreeModel",
    "RandomForestModel",
    "KNearestModel",
    "ExternalModel",
    "fit",
    "fit_on_standardized",
    "StandardizedModel",
    "ALGORITHMS",
    "CANONICAL_ALGORITHMS",
]

ALGORITHMS = {
    "lr": LogisticRegressionModel,
    "logistic_regression": LogisticRegressionModel,
    "svm": LinearSVMModel,
    "linear_svm": LinearSVMModel,
    "lda": LDAModel,
    "dt": DecisionTreeModel,
    "decision_tree": DecisionTreeModel,
    "rf": RandomForestModel,
    "random_forest": RandomForestModel,
    "knn": KNearestModel,
    "knn1": KNearestModel,
}

CANONICAL_ALGORITHMS = ("lr", "svm", "lda", "dt", "rf", "knn")


def fit(
    algorithm: str,
    train: Dataset,
    hyperparams: dict | None = None,
    seed: int = 0,
) -> BlackBoxModel:
    """Train one of the reference classifiers on a binary dataset."""
    key = algorithm.lower()
    if key not in ALGORITHMS:
        raise ModelError(
            f"unknown algorithm {algorithm!r}; choose from {CANONICAL_ALGORITHMS}"
        )
    try:
        model = ALGORITHMS[key](**(hyperparams or {}))
    except TypeError as exc:
        raise ModelError(f"bad hyperparameters for {key!r}: {exc}") from None
    return model.fit(train.features, train.labels, seed=seed)


@dataclass(frozen=True)
class StandardizedModel:
    """A classifier together with the feature scaling it was trained under."""

    model: BlackBoxModel
    standardizer: Standardizer


def fit_on_standardized(
    algorithm: str,
    train: Dataset,
    hyperparams: dict | None = None,
    seed: int = 0,
) -> StandardizedModel:
    """Fit a Standardizer on the training rows, then the classifier on the
    standardized features.  This is the pairing every pipeline step
    (explanation, fidelity scoring) expects."""
    scaler = Standardizer.fit(train.features)
    model = fit(algorithm, standardized(train, scaler), hyperparams, seed)
    return StandardizedModel(model=model, standardizer=scaler)
