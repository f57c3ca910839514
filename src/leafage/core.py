"""Local explanations built from real training rows.

The method explains one prediction at a time: find the closest training
row the model labels differently (the closest enemy), gather the training
rows of each predicted class nearest to it, fit a small linear surrogate
on those rows against the model's own labels, and use the surrogate both
for per-feature importances and for a dissimilarity measure that retrieves
the most relevant same-class and opposite-class training examples.

All geometry happens in standardized feature space; :func:`explain`
converts back to original units for reporting.  A distance sums the
squared differences over the features in column order, each column read
whole; with at most two features every order gives the same double.  A
row too far away for its squared distance to fit a double is at
distance ``inf``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import math
import weakref

import numpy as np

from .data import Dataset, Standardizer, check_integer, float_array
from .errors import DataError, ExplanationError, ModelError, NoEnemiesError

__all__ = [
    "LeafageConfig",
    "LocalSurrogate",
    "Example",
    "Explanation",
    "check_instance",
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
        check_integer("i_small", self.i_small)
        check_integer("k_examples", self.k_examples)
        if self.i_small < 2:
            raise DataError("i_small must be an integer greater than 1")
        if self.k_examples < 1:
            raise DataError("k_examples must be at least 1")


@dataclass
class LocalSurrogate:
    """Linear stand-in for the black box near one instance.

    ``weights`` and ``intercept`` live in standardized feature space.
    A surrogate is degenerate when its weights vanish, as a fit to
    single-class targets does; its dissimilarity then falls back to plain
    Euclidean distance.
    """

    weights: np.ndarray
    intercept: float
    x_border: int | None = None
    local_indices: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @property
    def degenerate(self) -> bool:
        # np.linalg.norm's own formula for a 1-D float array, bit for bit.
        return math.sqrt(self.weights.dot(self.weights)) < DEGENERATE_WEIGHT_NORM

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


def check_instance(z, d: int) -> np.ndarray:
    """A new float64 array of ``z``'s values, of shape ``(d,)``;
    ExplanationError on any other shape or on a non-finite value.  The copy
    keeps a later write to the caller's array out of an explanation."""
    z = float_array(z, "instance", ExplanationError).copy()
    if z.shape != (d,):
        raise ExplanationError(f"instance has shape {z.shape}, expected ({d},)")
    if not np.all(np.isfinite(z)):
        raise ExplanationError("instance has non-finite feature values")
    return z


def _euclidean(rows: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Each row's Euclidean distance to ``point``.

    The differences are written feature-major, each feature's values
    contiguous, and their squares are added feature by feature in column
    order.  Rows in Fortran order are read in that order already; other
    layouts are gathered by the subtraction.  A distance whose square
    overflows is ``inf``, without a warning.
    """
    with np.errstate(over="ignore"):
        diff = np.subtract(rows.T, point[:, None], order="C")
        np.multiply(diff, diff, out=diff)
        dist = np.add.reduce(diff, axis=0)
        return np.sqrt(dist, out=dist)


def closest_enemy(distances: np.ndarray, enemy_rows: np.ndarray) -> int:
    """The one of ``enemy_rows``, the rows predicted unlike the instance,
    nearest to it by ``distances``; ties break toward the lowest row index.
    """
    if enemy_rows.size == 0:
        raise NoEnemiesError(
            "the model predicts a single class on every reference row; "
            "no closest enemy exists"
        )
    return int(enemy_rows[np.argmin(distances[enemy_rows])])


def _smallest(idx: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` entries of ``idx`` with the smallest ``keys``, ascending,
    ties toward the lower index: ``idx[np.lexsort((idx, keys))[:k]]``.

    A partition finds the k-th smallest key, and only the rows at or
    below it are sorted.  ``~(keys > kth)`` also keeps NaN keys, which
    lexsort then puts last, as it does on the whole set.
    """
    if 0 < k < idx.size:
        kth = np.partition(keys, k - 1)[k - 1]
        keep = ~(keys > kth)
        idx, keys = idx[keep], keys[keep]
    return idx[np.lexsort((idx, keys))[:k]]


def sample_local_training_set(
    features: np.ndarray,
    class_rows: tuple[np.ndarray, ...],
    x_border: int,
    cfg: LeafageConfig,
) -> np.ndarray:
    """Per class of ``class_rows``, each class's ascending row indices, the
    quota of rows nearest to the closest enemy.

    The quota is ``i_small * d`` rows per class, clamped to class size.
    Ties at the quota boundary keep the lowest row indices.  The result is
    sorted ascending by row index.
    """
    quota = cfg.i_small * features.shape[1]
    dist = _euclidean(features, features[x_border])
    picked = [_smallest(rows, dist[rows], quota) for rows in class_rows]
    return np.sort(np.concatenate(picked))


def weighted_logistic_fit(
    features: np.ndarray,
    targets: np.ndarray,
    sample_weight: np.ndarray | None = None,
    l2: float = SURROGATE_L2,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Ridge-regularized logistic fit by damped Newton iterations.

    Minimizes the weighted summed logistic loss plus 0.5 * l2 * ||w||^2;
    the intercept is unpenalized.  Backtracking halves any step that fails
    to decrease the penalized loss, which keeps the solver monotone even
    on separable data where the optimum norm is large.  When 30 halvings
    of a cold fit's step cannot lower the loss, the fit ends where it is:
    the loss is then at its floating-point minimum, with a gradient near
    zero.  Single-class targets have no finite optimum and, like no rows,
    fit all zeros.

    Newton starts from ``start``, the weights followed by the intercept,
    or from zero.  The optimum does not depend on the start, but the step
    count does: a start near it, such as the solution of a similar fit,
    saves steps (a warm start), and the result then agrees with the cold
    fit's to within the step tolerance rather than bit for bit.  A warm
    fit that ends other than by the step tolerance (the line search
    fails, or the step cap is reached) is redone from zero.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    n, d = X.shape
    beta = np.zeros(d + 1) if start is None else np.array(start, dtype=np.float64)
    if beta.shape != (d + 1,):
        raise ExplanationError(f"start has shape {beta.shape}, expected ({d + 1},)")
    if not np.all(np.isfinite(beta)):
        raise ExplanationError("start has non-finite values")
    if n == 0 or y.min() == y.max():
        return np.zeros(d), 0.0
    sw = np.ones(n) if sample_weight is None else np.asarray(sample_weight, float)
    Xa = np.empty((n, d + 1))
    Xa[:, :d] = X
    Xa[:, d] = 1.0
    penalty = np.full(d + 1, l2)
    penalty[d] = 0.0
    ridge = np.diag(penalty)
    # Every n-length intermediate is written into one of three buffers, and
    # the weighted rows into W, which has the layout of Xa * curvature[:, None]
    # so that W.T @ Xa runs that product's gemm.  Each operation is the one
    # the commented plain expression makes, so the results are bit-equal.
    XaT = np.ascontiguousarray(Xa.T)
    W = np.empty((n, d + 1))
    p, r, c = np.empty(n), np.empty(n), np.empty(n)

    def loss(point: np.ndarray) -> tuple[float, np.ndarray]:
        """The penalized loss at ``point`` and its linear term Xa @ point.
        At zero every row's loss is log1p(1), which is log(2) bit for bit."""
        z = Xa @ point
        # row loss: max(z, 0) + log1p(exp(-|z|)) - y * z
        np.abs(z, out=r)
        np.negative(r, out=r)
        np.exp(r, out=r)
        np.log1p(r, out=r)
        np.maximum(z, 0.0, out=c)
        np.add(c, r, out=c)
        np.multiply(y, z, out=r)
        np.subtract(c, r, out=c)
        return float(sw @ c + 0.5 * l2 * (point[:d] @ point[:d])), z

    # z_lin is the current iterate's linear term, carried over from the
    # line search.
    current, z_lin = loss(beta)
    for _ in range(SURROGATE_MAX_ITER):
        # p = 1 / (1 + exp(-clip(z_lin, -35, 35)))
        np.maximum(z_lin, -35.0, out=p)
        np.minimum(p, 35.0, out=p)
        np.negative(p, out=p)
        np.exp(p, out=p)
        np.add(p, 1.0, out=p)
        np.divide(1.0, p, out=p)
        # gradient: Xa.T @ (sw * (p - y)); curvature: sw * p * (1 - p)
        np.subtract(p, y, out=r)
        np.multiply(sw, r, out=r)
        grad = Xa.T @ r + penalty * beta
        np.multiply(sw, p, out=r)
        np.subtract(1.0, p, out=c)
        np.multiply(r, c, out=c)
        np.multiply(XaT, c, out=W.T)
        hess = W.T @ Xa + ridge
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(hess + 1e-10 * np.eye(d + 1), grad)
        # Backtracking keeps Newton monotone on near-separable subsets.
        scale = 1.0
        for _ in range(30):
            candidate = beta - scale * step
            new, z_new = loss(candidate)
            if new <= current:
                break
            scale *= 0.5
        else:
            break
        moved = scale * np.max(np.abs(step))
        beta, z_lin, current = candidate, z_new, new
        if moved < SURROGATE_TOL:
            return beta[:d], float(beta[d])
    if start is not None:
        # A start far from the optimum can saturate rows, whose curvature
        # then vanishes, and stall the line search: fit from zero instead.
        return weighted_logistic_fit(X, y, sample_weight, l2)
    return beta[:d], float(beta[d])


def fit_local_linear(
    features: np.ndarray,
    predicted: np.ndarray,
    local_indices: np.ndarray,
) -> LocalSurrogate:
    """Logistic surrogate on the local subset, targets = model labels.

    Never raises on a non-empty neighbourhood: a single-class subset
    yields a degenerate surrogate.  The solve is deterministic.
    """
    local_indices = np.asarray(local_indices, dtype=np.int64)
    if local_indices.size == 0:
        raise ExplanationError("local training set is empty")
    X = np.asarray(features, dtype=np.float64)[local_indices]
    y = np.asarray(predicted)[local_indices].astype(np.float64)
    weights, intercept = weighted_logistic_fit(X, y)
    return LocalSurrogate(
        weights=weights, intercept=intercept, local_indices=local_indices
    )


def dissimilarities(
    s: LocalSurrogate, z: np.ndarray, rows: np.ndarray, distances: np.ndarray
) -> np.ndarray:
    """Black-box dissimilarity from ``z`` to each row.

    The product of the distance along the surrogate's discriminative
    direction and the plain input-space distance ``distances`` = ||t - z||:

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
    if np.shape(distances) != (rows.shape[0],):
        raise ExplanationError(
            f"{rows.shape[0]} rows need as many distances, got shape "
            f"{np.shape(distances)}"
        )
    if s.degenerate:
        return distances
    b = rows @ s.weights
    b -= z @ s.weights
    np.abs(b, out=b)
    b *= distances
    return b


def feature_importances(s: LocalSurrogate, z_std: np.ndarray) -> np.ndarray:
    """Per-feature importance |w_i * z_i| in standardized space.

    A degenerate surrogate's importances are near zero, and exactly zero
    when its weights are.
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
    distances: np.ndarray,
    ally_rows: np.ndarray,
    enemy_rows: np.ndarray,
    s: LocalSurrogate,
    z: np.ndarray,
    k: int,
) -> tuple[list[tuple[int, float]], list[tuple[int, float]]]:
    """Top-k allies and enemies by ascending dissimilarity.

    ``distances`` holds each row's distance to ``z``.  Allies come from
    ``ally_rows``, less the rows identical to ``z`` (uninformative
    self-matches), enemies from ``enemy_rows``; both are ascending.  Fewer
    than k are returned when a class runs short.  Ties break toward the
    lowest row index.
    """
    if k < 1:
        raise ExplanationError("k must be at least 1")
    z = np.asarray(z, dtype=np.float64)
    b = dissimilarities(s, z, features, distances)

    def top(idx: np.ndarray) -> list[tuple[int, float]]:
        chosen = _smallest(idx, b[idx], k)
        return list(zip(chosen.tolist(), b[chosen].tolist()))

    # A row equal to z is at distance 0; a row at distance 0 may still
    # differ, when its squared difference underflows, so == confirms.
    at_z = np.flatnonzero(distances == 0.0)
    if at_z.size:
        at_z = at_z[(features[at_z] == z).all(axis=1)]
        ally_rows = ally_rows[~np.isin(ally_rows, at_z, kind="sort")]
    return top(ally_rows), top(enemy_rows)


def _labels(model, rows: np.ndarray) -> np.ndarray:
    """The model's labels of ``rows`` as a new int64 array; ModelError
    unless they are integers of shape ``(len(rows),)``, each 0 or 1."""
    labels = np.asarray(model.predict_labels(rows))
    if labels.dtype.kind in "iu" and labels.shape == (rows.shape[0],):
        converted = labels.astype(np.int64)
        # Only 0 and 1 shift right to 0; an unsigned label past int64's
        # range converts to a negative one.
        if not (converted >> 1).any():
            return converted
    raise ModelError(
        f"{model.descriptor} model must return {rows.shape[0]} integer "
        f"labels of 0 or 1, got a {labels.dtype} array of shape {labels.shape}"
    )


# The training reference explain() keeps: weak references to its model,
# dataset and standardizer, what _training_reference built from them, and
# the surrogates fitted on it, keyed by (closest enemy, i_small), each as
# read-only (weights, intercept, local indices) and whether it is
# degenerate.  Only explain() reads and replaces it, once per call, and it
# is dropped once one of the three objects dies.
_reference: tuple | None = None


def _drop_reference(dead: weakref.ref) -> None:
    global _reference
    ref = _reference
    if ref is not None and any(r is dead for r in ref[:3]):
        _reference = None


def _training_reference(
    model, train: Dataset, standardizer: Standardizer
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The standardized training rows, a Fortran-ordered copy of them for
    :func:`_euclidean`, the model's labels of them, and the ascending row
    indices of class 0 and of class 1, all read-only and built afresh.

    It keeps nothing: :func:`explain` keeps the last one it was given.
    """
    X_std = standardizer.transform(train.features)
    predicted = _labels(model, X_std)
    columns = np.asfortranarray(X_std)
    class_rows = (np.flatnonzero(predicted == 0), np.flatnonzero(predicted == 1))
    for array in (X_std, columns, predicted, *class_rows):
        array.flags.writeable = False
    return X_std, columns, predicted, class_rows


def explain(
    model,
    train: Dataset,
    z: np.ndarray,
    cfg: LeafageConfig | None = None,
    *,
    standardizer: Standardizer,
) -> Explanation:
    """End-to-end explanation of the model's prediction for ``z``.

    ``z`` and ``train`` are in original units; ``standardizer`` must be
    the one the model was trained under.  The returned instance and
    examples are in original units while importances are
    standardized-space magnitudes.

    This function alone keeps the training reference that
    :func:`_training_reference` builds (the standardized training rows,
    the model's labels of them and each class's row indices) from its
    last call: a call with the same model, ``train`` and ``standardizer``
    objects standardizes and labels only ``z``, whatever ran in between.
    Beside it, it keeps one surrogate per closest enemy and ``i_small``
    it has fitted on that reference, so an instance whose closest enemy
    an earlier one met is neither sampled nor fitted again; each call
    gets its own copy.  All of it is freed once any of the three objects
    is.  The labels must be integer arrays of 0 and 1, one per row, or
    ModelError is raised.  Explanations for different instances may run
    in parallel against a shared model and dataset: concurrent calls at
    worst rebuild the kept rows and labels or refit a kept surrogate,
    never mixing two models'.
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
    z = check_instance(z, train.d)
    # A far instance can overflow a double: such steps run quietly, and a
    # non-finite result is rejected.
    too_far = "instance lies too far from the training rows: {} overflows"
    with np.errstate(over="ignore"):
        z_std = standardizer.transform(z[None, :])[0]
    if not all(map(math.isfinite, z_std.tolist())):
        raise ExplanationError(too_far.format("its standardized value"))
    # Reuse is sound because all three objects are immutable: a Dataset
    # and a Standardizer hold read-only copies, a black box's labels are
    # deterministic, and a fitted model cannot be refit.
    global _reference
    ref, triple = _reference, (model, train, standardizer)
    if ref is None or not all(r() is obj for r, obj in zip(ref, triple)):
        weak = (weakref.ref(obj, _drop_reference) for obj in triple)
        ref = _reference = (*weak, *_training_reference(*triple), {})
    X_std, columns, predicted, class_rows, fits = ref[3:]
    c_z = _labels(model, z_std[None, :]).item()
    ally_rows, enemy_rows = class_rows[c_z], class_rows[1 - c_z]

    distances = _euclidean(columns, z_std)
    x_border = closest_enemy(distances, enemy_rows)
    # The surrogate depends on z only through its closest enemy, and the
    # fit is deterministic, so a kept one equals a refit bit for bit.
    key = (x_border, cfg.i_small)
    if key not in fits:
        local_indices = sample_local_training_set(columns, class_rows, x_border, cfg)
        fitted = fit_local_linear(X_std, predicted, local_indices)
        for array in (fitted.weights, fitted.local_indices):
            array.flags.writeable = False
        fits[key] = (
            fitted.weights, fitted.intercept, fitted.local_indices, fitted.degenerate
        )
    weights, intercept, indices, degenerate = fits[key]
    surrogate = LocalSurrogate(weights.copy(), intercept, x_border, indices.copy())

    flags = ["degenerate_surrogate"] if degenerate else []
    quota = cfg.i_small * train.d
    for cls, rows in enumerate(class_rows):
        if rows.size < quota:
            flags.append(f"local_sample_shortfall_class_{cls}")

    with np.errstate(over="ignore", invalid="ignore"):
        importances = feature_importances(surrogate, z_std)
        allies, enemies = retrieve_examples(
            X_std, distances, ally_rows, enemy_rows, surrogate, z_std, cfg.k_examples
        )
    pairs = allies + enemies
    finite = math.isfinite
    if not (
        all(map(finite, importances.tolist())) and all(finite(b) for _, b in pairs)
    ):
        raise ExplanationError(too_far.format("an importance or a dissimilarity"))
    if len(allies) < cfg.k_examples:
        flags.append("ally_shortfall")
    if len(enemies) < cfg.k_examples:
        flags.append("enemy_shortfall")

    # One gather copies every returned row; each example holds a row of it.
    example_rows = train.features[[i for i, _ in pairs]]
    examples = [
        Example(index=i, features=row, dissimilarity=b)
        for (i, b), row in zip(pairs, example_rows)
    ]
    return Explanation(
        test_instance=z,
        predicted_class=train.class_names[c_z],
        importances=importances,
        allies=examples[: len(allies)],
        enemies=examples[len(allies) :],
        surrogate=surrogate,
        flags=tuple(sorted(flags)),
    )
