"""Local explanations built from real training rows.

The method explains one prediction at a time: find the closest training
row the model labels differently (the closest enemy), gather the training
rows of each predicted class nearest to it, fit a small linear surrogate
on those rows against the model's own labels, and use the surrogate both
for per-feature importances and for a dissimilarity measure that retrieves
the most relevant same-class and opposite-class training examples.

All geometry happens in standardized feature space; :func:`explain`
converts back to original units for reporting.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Standardizer
from .errors import DataError, ExplanationError, NoEnemiesError

__all__ = [
    "LeafageConfig",
    "LocalSurrogate",
    "Example",
    "Explanation",
    "closest_enemy",
    "sample_local_training_set",
    "fit_local_linear",
    "weighted_logistic_fit",
    "dissimilarities",
    "feature_importances",
    "retrieve_examples",
    "explain",
]

DEGENERATE_WEIGHT_NORM = 1e-12
# Ridge penalty, Newton iteration cap and step tolerance of
# weighted_logistic_fit.
SURROGATE_L2 = 1e-4
SURROGATE_MAX_ITER = 100
SURROGATE_TOL = 1e-8


@dataclass(frozen=True)
class LeafageConfig:
    """Knobs for the local explanation procedure; ``seed`` is not read."""

    i_small: int = 10
    k_examples: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.i_small < 2:
            raise DataError("i_small must be an integer greater than 1")
        if self.k_examples < 1:
            raise DataError("k_examples must be at least 1")


@dataclass
class LocalSurrogate:
    """Linear stand-in for the black box near one instance.

    ``weights`` and ``intercept`` live in standardized feature space.
    ``degenerate`` marks surrogates whose fit collapsed (single-class
    neighbourhood or vanishing weights); their dissimilarity falls back to
    plain Euclidean distance and their importances are all zero.
    """

    weights: np.ndarray
    intercept: float
    x_border: int | None = None
    local_indices: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    degenerate: bool = False

    def score(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows, dtype=np.float64) @ self.weights + self.intercept


@dataclass(frozen=True)
class Example:
    """One retrieved training example, reported in original units."""

    index: int
    features: np.ndarray
    dissimilarity: float


@dataclass(frozen=True)
class Explanation:
    """Feature importances plus similar and contrasting training examples."""

    test_instance: np.ndarray
    predicted_class: str
    importances: np.ndarray
    allies: list[Example]
    enemies: list[Example]
    surrogate: LocalSurrogate
    flags: tuple[str, ...] = ()


def _euclidean(rows: np.ndarray, point: np.ndarray) -> np.ndarray:
    diff = rows - point
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def closest_enemy(
    features: np.ndarray, predicted: np.ndarray, z: np.ndarray, c_z: int
) -> int:
    """Index of the nearest row predicted differently from ``c_z``.

    Distance ties break toward the lowest row index.
    """
    predicted = np.asarray(predicted)
    enemy_rows = np.flatnonzero(predicted != c_z)
    if enemy_rows.size == 0:
        raise NoEnemiesError(
            "the model predicts a single class on every reference row; "
            "no closest enemy exists"
        )
    dist = _euclidean(features[enemy_rows], np.asarray(z, dtype=np.float64))
    return int(enemy_rows[np.argmin(dist)])


def sample_local_training_set(
    features: np.ndarray,
    predicted: np.ndarray,
    x_border: int,
    cfg: LeafageConfig,
) -> np.ndarray:
    """Per predicted class, the quota of rows nearest to the closest enemy.

    The quota is ``i_small * d`` rows per class, clamped to class size.
    Ties at the quota boundary keep the lowest row indices.  The result is
    sorted ascending by row index.
    """
    predicted = np.asarray(predicted)
    quota = cfg.i_small * features.shape[1]
    dist = _euclidean(features, features[x_border])
    picked = []
    for cls in np.unique(predicted):
        members = np.flatnonzero(predicted == cls)
        order = np.lexsort((members, dist[members]))
        picked.append(members[order[:quota]])
    return np.sort(np.concatenate(picked))


def _stable_nll(z_lin: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z_lin) - y * z_lin


def weighted_logistic_fit(
    features: np.ndarray,
    targets: np.ndarray,
    sample_weight: np.ndarray | None = None,
    l2: float = SURROGATE_L2,
) -> tuple[np.ndarray, float]:
    """Ridge-regularized logistic fit by damped Newton iterations.

    Minimizes the weighted summed logistic loss plus 0.5 * l2 * ||w||^2;
    the intercept is unpenalized.  Backtracking halves any step that fails
    to decrease the penalized loss, which keeps the solver monotone even
    on separable data where the optimum norm is large.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    n, d = X.shape
    sw = np.ones(n) if sample_weight is None else np.asarray(sample_weight, float)
    Xa = np.hstack([X, np.ones((n, 1))])
    penalty = np.full(d + 1, l2)
    penalty[d] = 0.0
    beta = np.zeros(d + 1)

    def loss(b: np.ndarray) -> float:
        z_lin = Xa @ b
        return float(sw @ _stable_nll(z_lin, y) + 0.5 * l2 * (b[:d] @ b[:d]))

    current = loss(beta)
    for _ in range(SURROGATE_MAX_ITER):
        z_lin = np.clip(Xa @ beta, -35.0, 35.0)
        p = 1.0 / (1.0 + np.exp(-z_lin))
        grad = Xa.T @ (sw * (p - y)) + penalty * beta
        curvature = sw * p * (1.0 - p)
        hess = (Xa * curvature[:, None]).T @ Xa + np.diag(penalty)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(hess + 1e-10 * np.eye(d + 1), grad)
        # Backtracking keeps Newton monotone on near-separable subsets.
        scale = 1.0
        for _ in range(30):
            candidate = beta - scale * step
            new = loss(candidate)
            if new <= current:
                break
            scale *= 0.5
        else:
            break
        moved = scale * np.max(np.abs(step))
        beta = candidate
        current = new
        if moved < SURROGATE_TOL:
            break
    return beta[:d], float(beta[d])


def fit_local_linear(
    features: np.ndarray,
    predicted: np.ndarray,
    local_indices: np.ndarray,
) -> LocalSurrogate:
    """Logistic surrogate on the local subset, targets = model labels.

    Never raises on pathological neighbourhoods: a single-class subset or
    a vanishing weight vector yields a flagged degenerate surrogate.  The
    solve is deterministic.
    """
    local_indices = np.asarray(local_indices, dtype=np.int64)
    if local_indices.size == 0:
        raise ExplanationError("local training set is empty")
    X = np.asarray(features, dtype=np.float64)[local_indices]
    y = np.asarray(predicted)[local_indices].astype(np.float64)
    if np.unique(y).size < 2:
        return LocalSurrogate(
            weights=np.zeros(X.shape[1]),
            intercept=0.0,
            local_indices=local_indices,
            degenerate=True,
        )
    weights, intercept = weighted_logistic_fit(X, y)
    degenerate = bool(np.linalg.norm(weights) < DEGENERATE_WEIGHT_NORM)
    return LocalSurrogate(
        weights=weights,
        intercept=intercept,
        local_indices=local_indices,
        degenerate=degenerate,
    )


def dissimilarities(s: LocalSurrogate, z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Black-box dissimilarity from ``z`` to each row.

    The product of the distance along the surrogate's discriminative
    direction and the plain input-space distance:

        b(t) = |w . t - w . z| * ||t - z||

    For a degenerate surrogate this falls back to ||t - z|| alone.  Both
    rows and ``z`` must be in standardized space.
    """
    z = np.asarray(z, dtype=np.float64)
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != z.shape[0]:
        raise ExplanationError(
            f"dimension mismatch: instance has {z.shape[0]} features, "
            f"rows have {rows.shape[1]}"
        )
    euclid = _euclidean(rows, z)
    if s.degenerate:
        return euclid
    projected = np.abs(rows @ s.weights - z @ s.weights)
    return projected * euclid


def feature_importances(s: LocalSurrogate, z_std: np.ndarray) -> np.ndarray:
    """Per-feature importance |w_i * z_i| in standardized space.

    Degenerate surrogates report all-zero importances.
    """
    z_std = np.asarray(z_std, dtype=np.float64)
    if z_std.shape[0] != s.weights.shape[0]:
        raise ExplanationError(
            f"dimension mismatch: instance has {z_std.shape[0]} features, "
            f"surrogate has {s.weights.shape[0]} weights"
        )
    return np.abs(s.weights * z_std)


def retrieve_examples(
    features: np.ndarray,
    predicted: np.ndarray,
    s: LocalSurrogate,
    z: np.ndarray,
    c_z: int,
    k: int,
) -> tuple[list[tuple[int, float]], list[tuple[int, float]]]:
    """Top-k allies and enemies by ascending dissimilarity.

    Allies share the predicted class ``c_z`` (rows identical to ``z`` are
    dropped as uninformative self-matches); enemies have the opposite
    label.  Fewer than k are returned when a class runs short.  Ties break
    toward the lowest row index.
    """
    if k < 1:
        raise ExplanationError("k must be at least 1")
    predicted = np.asarray(predicted)
    z = np.asarray(z, dtype=np.float64)
    b = dissimilarities(s, z, features)

    def top(mask: np.ndarray) -> list[tuple[int, float]]:
        idx = np.flatnonzero(mask)
        order = np.lexsort((idx, b[idx]))
        return [(int(i), float(b[i])) for i in idx[order[:k]]]

    duplicate = np.all(features == z, axis=1)
    allies = top((predicted == c_z) & ~duplicate)
    enemies = top(predicted != c_z)
    return allies, enemies


def explain(
    model,
    train: Dataset,
    z: np.ndarray,
    cfg: LeafageConfig | None = None,
    standardizer: Standardizer | None = None,
) -> Explanation:
    """End-to-end explanation of the model's prediction for ``z``.

    ``z`` and ``train`` are in original units; ``standardizer`` must be
    the one the model was trained under (fitted on ``train`` when omitted).
    The returned instance and examples are in original units while
    importances are standardized-space magnitudes.

    Pure function of immutable inputs: explanations for different
    instances may run in parallel against a shared model and dataset.
    A non-finite ``z`` and a training set that is not binary are rejected,
    and so is an instance so far from the training rows that its
    standardized values, an importance or a dissimilarity overflows.
    """
    if len(train.class_names) != 2:
        raise DataError(
            f"explain requires a binary dataset, got {len(train.class_names)} "
            "classes; expand it one-vs-rest (data.one_vs_rest)"
        )
    cfg = cfg or LeafageConfig()
    standardizer = standardizer or Standardizer.fit(train.features)
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (train.d,):
        raise ExplanationError(
            f"instance has shape {z.shape}, expected ({train.d},)"
        )
    if not np.all(np.isfinite(z)):
        raise ExplanationError("instance has non-finite feature values")
    X_std = standardizer.transform(train.features)
    # A far instance can overflow a double: such steps run quietly, and a
    # non-finite result is rejected.
    too_far = "instance lies too far from the training rows: {} overflows"
    with np.errstate(over="ignore"):
        z_std = standardizer.transform(z[None, :])[0]
    if not np.all(np.isfinite(z_std)):
        raise ExplanationError(too_far.format("its standardized value"))
    predicted = model.predict_labels(X_std)
    c_z = int(model.predict_labels(z_std[None, :])[0])

    x_border = closest_enemy(X_std, predicted, z_std, c_z)
    local_indices = sample_local_training_set(X_std, predicted, x_border, cfg)
    surrogate = fit_local_linear(X_std, predicted, local_indices)
    surrogate.x_border = x_border

    flags = []
    if surrogate.degenerate:
        flags.append("degenerate_surrogate")
    quota = cfg.i_small * train.d
    class_counts = np.bincount(predicted, minlength=2)
    for cls in range(2):
        if class_counts[cls] < quota:
            flags.append(f"local_sample_shortfall_class_{cls}")

    with np.errstate(over="ignore", invalid="ignore"):
        importances = feature_importances(surrogate, z_std)
        allies, enemies = retrieve_examples(
            X_std, predicted, surrogate, z_std, c_z, cfg.k_examples
        )
    if not np.all(np.isfinite([*importances, *(b for _, b in allies + enemies)])):
        raise ExplanationError(too_far.format("an importance or a dissimilarity"))
    if len(allies) < cfg.k_examples:
        flags.append("ally_shortfall")
    if len(enemies) < cfg.k_examples:
        flags.append("enemy_shortfall")

    def resolve(pairs: list[tuple[int, float]]) -> list[Example]:
        return [
            Example(index=i, features=train.features[i].copy(), dissimilarity=b)
            for i, b in pairs
        ]

    return Explanation(
        test_instance=z,
        predicted_class=train.class_names[c_z],
        importances=importances,
        allies=resolve(allies),
        enemies=resolve(enemies),
        surrogate=surrogate,
        flags=tuple(sorted(set(flags))),
    )
