"""Reference classifiers behind the black-box interface.

``fit`` is the single entry point used by the CLI and evaluation harness;
it resolves one of the six algorithm names and returns a model trained in
that algorithm's one fixed configuration.  Trained classifiers are
immutable and safe to share across threads for prediction: ``fit`` copies
the training rows and labels, so later changes to the caller's arrays do
not reach the model, and a fitted model cannot be fitted again, so
``explain()`` may keep its labels of the training rows.  An ExternalModel
handle is the one exception (single owner, one request in flight).
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
]

ALGORITHMS = {
    cls.descriptor: cls
    for cls in (
        LogisticRegressionModel,
        LinearSVMModel,
        LDAModel,
        DecisionTreeModel,
        RandomForestModel,
        KNearestModel,
    )
}


def fit(
    algorithm: str,
    train: Dataset,
    hyperparams: dict | None = None,
    seed: int = 0,
) -> BlackBoxModel:
    """Train one of the reference classifiers on a binary dataset.

    The classifiers take no hyperparameters; ``hyperparams`` must be empty.
    """
    if algorithm not in ALGORITHMS:
        raise ModelError(
            f"unknown algorithm {algorithm!r}; choose from {tuple(ALGORITHMS)}"
        )
    if hyperparams:
        raise ModelError(
            f"bad hyperparameters for {algorithm!r}: {hyperparams!r}; "
            "the reference classifiers take none"
        )
    return ALGORITHMS[algorithm]().fit(train.features, train.labels, seed=seed)


@dataclass(frozen=True)
class StandardizedModel:
    """A classifier together with the feature scaling it was trained under."""

    model: BlackBoxModel
    standardizer: Standardizer


def fit_on_standardized(
    algorithm: str, train: Dataset, seed: int = 0
) -> StandardizedModel:
    """Fit a Standardizer on the training rows, then the classifier on the
    standardized features.  This is the pairing every pipeline step
    (explanation, fidelity scoring) expects."""
    scaler = Standardizer.fit(train.features)
    model = fit(algorithm, standardized(train, scaler), seed=seed)
    return StandardizedModel(model=model, standardizer=scaler)
