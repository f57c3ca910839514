"""Linear-family reference classifiers: logistic regression, linear SVM
and linear discriminant analysis.

All three expose ``weights`` and ``intercept`` so tests can check that the
decision boundary really is the hyperplane ``weights @ x + intercept = 0``.
Labels are binary codes {0, 1}; a row is predicted 1 iff its score is
non-negative.  Each model runs in one fixed configuration, given by the
module constants below.
"""
from __future__ import annotations

import math

import numpy as np

from ..core import weighted_logistic_fit
from .base import TrainedModel

# Logistic regression: L2 penalty on the summed logistic loss (the same
# objective as LR_L2 / n on the mean loss).
LR_L2 = 1.0
# Linear SVM: hinge-loss weight C and subgradient iterations.
SVM_C = 1.0
SVM_MAX_ITER = 2000
# LDA: ridge added to the pooled covariance.
LDA_RIDGE = 1e-6


class LinearBinaryModel(TrainedModel):
    """Common prediction plumbing for models with an exposed hyperplane."""

    weights: np.ndarray | None = None
    intercept: float = 0.0

    def _predict(self, rows: np.ndarray) -> np.ndarray:
        return (rows @ self.weights + self.intercept >= 0.0).astype(np.int64)


class LogisticRegressionModel(LinearBinaryModel):
    """L2-penalized logistic regression, fitted by the surrogates' damped
    Newton solver with penalty ``LR_L2`` and an unpenalized intercept."""

    descriptor = "lr"

    def _train(self, X: np.ndarray, y: np.ndarray, seed: int) -> None:
        self.weights, self.intercept = weighted_logistic_fit(X, y, l2=LR_L2)


class LinearSVMModel(LinearBinaryModel):
    """Primal linear SVM trained by deterministic full-batch subgradient
    descent on the hinge loss (Pegasos-style decaying steps)."""

    descriptor = "svm"

    def _train(self, X: np.ndarray, y: np.ndarray, seed: int) -> None:
        m = np.where(y == 1, 1.0, -1.0)
        n, d = X.shape
        lam = 1.0 / (SVM_C * n)
        w = np.zeros(d)
        b = 0.0
        w_avg = np.zeros(d)
        b_avg = 0.0
        signed = m[:, None] * X
        limit = 1.0 / np.sqrt(lam)
        for t in range(1, SVM_MAX_ITER + 1):
            active = m * (X @ w + b) < 1.0
            grad_w = lam * w - signed[active].sum(axis=0) / n
            grad_b = -float(m[active].sum()) / n
            eta = 1.0 / (lam * (t + 1))
            w -= eta * grad_w
            b -= eta * grad_b
            # Pegasos projection onto the ball containing the optimum.
            norm = math.sqrt(w @ w)
            if norm > limit:
                w *= limit / norm
            w_avg += (w - w_avg) / t
            b_avg += (b - b_avg) / t
        # Averaged iterate: smoother boundary than the last subgradient step.
        self.weights = w_avg
        self.intercept = b_avg


class LDAModel(LinearBinaryModel):
    """Linear discriminant analysis with a pooled, lightly ridged
    covariance estimate."""

    descriptor = "lda"

    def _train(self, X: np.ndarray, y: np.ndarray, seed: int) -> None:
        n, d = X.shape
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
