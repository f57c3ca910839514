"""Linear-family reference classifiers: logistic regression, linear SVM
and linear discriminant analysis.

All three expose ``weights`` and ``intercept`` so tests can check that the
decision boundary really is the hyperplane ``weights @ x + intercept = 0``.
Labels are binary codes {0, 1}; a row is predicted 1 iff its score is
non-negative.  Each model runs in one fixed configuration, given by the
module constants below.
"""
from __future__ import annotations

import numpy as np

from ..core import weighted_logistic_fit
from .base import BlackBoxModel, check_matrix, check_training_set

# Logistic regression: L2 penalty on the summed logistic loss (the same
# objective as LR_L2 / n on the mean loss).
LR_L2 = 1.0
# Linear SVM: hinge-loss weight C and subgradient iterations.
SVM_C = 1.0
SVM_MAX_ITER = 2000
# LDA: ridge added to the pooled covariance.
LDA_RIDGE = 1e-6


class LinearBinaryModel(BlackBoxModel):
    """Common prediction plumbing for models with an exposed hyperplane."""

    def __init__(self) -> None:
        self.weights: np.ndarray | None = None
        self.intercept: float = 0.0
        self.n_features: int = 0

    def predict_scores(self, rows: np.ndarray) -> np.ndarray:
        rows = check_matrix(rows, self.n_features)
        return rows @ self.weights + self.intercept

    def predict_labels(self, rows: np.ndarray) -> np.ndarray:
        return (self.predict_scores(rows) >= 0.0).astype(np.int64)


class LogisticRegressionModel(LinearBinaryModel):
    """L2-penalized logistic regression, fitted by the surrogates' damped
    Newton solver with penalty ``LR_L2`` and an unpenalized intercept."""

    descriptor = "lr"

    def fit(self, features: np.ndarray, labels: np.ndarray, seed: int = 0):
        check_training_set(features, labels)
        self.n_features = features.shape[1]
        self.weights, self.intercept = weighted_logistic_fit(
            features, labels, l2=LR_L2
        )
        return self


class LinearSVMModel(LinearBinaryModel):
    """Primal linear SVM trained by deterministic full-batch subgradient
    descent on the hinge loss (Pegasos-style decaying steps)."""

    descriptor = "svm"

    def fit(self, features: np.ndarray, labels: np.ndarray, seed: int = 0):
        check_training_set(features, labels)
        X = np.asarray(features, dtype=np.float64)
        m = np.where(np.asarray(labels) == 1, 1.0, -1.0)
        n, d = X.shape
        self.n_features = d
        lam = 1.0 / (SVM_C * n)
        w = np.zeros(d)
        b = 0.0
        w_avg = np.zeros(d)
        b_avg = 0.0
        for t in range(1, SVM_MAX_ITER + 1):
            margins = m * (X @ w + b)
            active = margins < 1.0
            grad_w = lam * w - (m[active, None] * X[active]).sum(axis=0) / n
            grad_b = -float(m[active].sum()) / n
            eta = 1.0 / (lam * (t + 1))
            w -= eta * grad_w
            b -= eta * grad_b
            # Pegasos projection onto the ball containing the optimum.
            norm = np.linalg.norm(w)
            limit = 1.0 / np.sqrt(lam)
            if norm > limit:
                w *= limit / norm
            w_avg += (w - w_avg) / t
            b_avg += (b - b_avg) / t
        # Averaged iterate: smoother boundary than the last subgradient step.
        self.weights = w_avg
        self.intercept = b_avg
        return self


class LDAModel(LinearBinaryModel):
    """Linear discriminant analysis with a pooled, lightly ridged
    covariance estimate."""

    descriptor = "lda"

    def fit(self, features: np.ndarray, labels: np.ndarray, seed: int = 0):
        check_training_set(features, labels)
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        n, d = X.shape
        self.n_features = d
        x0 = X[y == 0]
        x1 = X[y == 1]
        mu0 = x0.mean(axis=0)
        mu1 = x1.mean(axis=0)
        centered0 = x0 - mu0
        centered1 = x1 - mu1
        denom = max(n - 2, 1)
        pooled = (centered0.T @ centered0 + centered1.T @ centered1) / denom
        pooled += LDA_RIDGE * np.eye(d)
        w = np.linalg.solve(pooled, mu1 - mu0)
        prior_ratio = np.log(x1.shape[0] / x0.shape[0])
        b = float(-0.5 * w @ (mu0 + mu1) + prior_ratio)
        self.weights = w
        self.intercept = b
        return self
