"""Random forest and the decision tree, its one-tree special case.

Trees split on the Gini criterion with midpoint thresholds, stop only on
pure nodes or exhausted split candidates, and break all ties toward the
lowest feature index and lowest threshold.  Prediction routes whole
batches through the node arrays at once, which keeps the fidelity
experiments (thousands of predicted rows per explained instance) fast.
"""
from __future__ import annotations

import numpy as np

from .base import BlackBoxModel, check_matrix, check_training_set

_LEAF = -1


class _Tree:
    """Flat node arrays: feature < 0 marks a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "prob")

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.prob: list[float] = []

    def add_node(self) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.prob.append(0.0)
        return len(self.feature) - 1

    def finalize(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.prob = np.asarray(self.prob, dtype=np.float64)

    def predict_prob(self, rows: np.ndarray) -> np.ndarray:
        node = np.zeros(rows.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[node]
            internal = feat >= 0
            if not internal.any():
                break
            idx = np.flatnonzero(internal)
            sub = node[idx]
            goes_left = rows[idx, feat[idx]] < self.threshold[sub]
            node[idx] = np.where(goes_left, self.left[sub], self.right[sub])
        return self.prob[node]


def _best_split(
    X: np.ndarray, y: np.ndarray, rows: np.ndarray, feature_ids: np.ndarray
) -> tuple[int, float] | None:
    """Lowest weighted child Gini over midpoint candidates.

    Returns None when every candidate feature is constant on the node.
    Ties resolve to the lowest feature id, then the lowest threshold,
    because features are scanned in ascending order and candidate
    thresholds ascend within a feature.
    """
    n = rows.size
    best = (np.inf, -1, 0.0)
    for f in feature_ids:
        values = X[rows, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sy = y[rows][order]
        distinct = sv[1:] != sv[:-1]
        if not distinct.any():
            continue
        pos_left = np.cumsum(sy)[:-1]
        count_left = np.arange(1, n)
        pos_total = pos_left[-1] + sy[-1]
        pos_right = pos_total - pos_left
        count_right = n - count_left
        p1l = pos_left / count_left
        p1r = pos_right / count_right
        gini_l = 2.0 * p1l * (1.0 - p1l)
        gini_r = 2.0 * p1r * (1.0 - p1r)
        weighted = (count_left * gini_l + count_right * gini_r) / n
        weighted = np.where(distinct, weighted, np.inf)
        k = int(np.argmin(weighted))
        if weighted[k] < best[0]:
            best = (float(weighted[k]), int(f), float((sv[k] + sv[k + 1]) / 2.0))
    if best[1] < 0:
        return None
    return best[1], best[2]


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    min_samples_split: int,
    max_depth: int | None,
    max_features: int | None,
    rng: np.random.Generator,
) -> _Tree:
    d = X.shape[1]
    all_features = np.arange(d)
    tree = _Tree()
    root = tree.add_node()
    stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        ys = y[rows]
        tree.prob[node] = float(ys.mean())
        pure = ys.min() == ys.max()
        depth_capped = max_depth is not None and depth >= max_depth
        if pure or depth_capped or rows.size < min_samples_split:
            continue
        if max_features is not None and max_features < d:
            candidates = np.sort(rng.choice(d, size=max_features, replace=False))
        else:
            candidates = all_features
        split = _best_split(X, y, rows, candidates)
        if split is None and max_features is not None and max_features < d:
            split = _best_split(X, y, rows, all_features)
        if split is None:
            continue
        f, threshold = split
        goes_left = X[rows, f] < threshold
        tree.feature[node] = f
        tree.threshold[node] = threshold
        left = tree.add_node()
        right = tree.add_node()
        tree.left[node] = left
        tree.right[node] = right
        # Right pushed first so the left child is processed (and numbered
        # relative to its subtree) in a fixed order.
        stack.append((right, rows[~goes_left], depth + 1))
        stack.append((left, rows[goes_left], depth + 1))
    tree.finalize()
    return tree


class RandomForestModel(BlackBoxModel):
    """Bootstrap ensemble of Gini trees with sqrt(d) features per split."""

    descriptor = "rf"

    def __init__(
        self,
        n_trees: int = 10,
        bootstrap: bool = True,
        max_features: int | str | None = "sqrt",
        min_samples_split: int = 2,
        max_depth: int | None = None,
    ):
        self.n_trees = n_trees
        self.bootstrap = bootstrap
        self.max_features = max_features
        self.min_samples_split = min_samples_split
        self.max_depth = max_depth
        self.n_features = 0
        self._trees: list[_Tree] = []

    def _resolve_max_features(self, d: int) -> int | None:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        return int(self.max_features)

    def fit(self, features: np.ndarray, labels: np.ndarray, seed: int = 0):
        check_training_set(features, labels)
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        n, d = X.shape
        self.n_features = d
        mf = self._resolve_max_features(d)
        rng = np.random.default_rng(seed)
        self._trees = []
        for _ in range(self.n_trees):
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
                Xb, yb = X[sample], y[sample]
            else:
                Xb, yb = X, y
            self._trees.append(
                _grow(Xb, yb, self.min_samples_split, self.max_depth, mf, rng)
            )
        return self

    def predict_scores(self, rows: np.ndarray) -> np.ndarray:
        rows = check_matrix(rows, self.n_features)
        probs = np.zeros(rows.shape[0])
        for tree in self._trees:
            probs += tree.predict_prob(rows)
        return probs / len(self._trees)

    def predict_labels(self, rows: np.ndarray) -> np.ndarray:
        return (self.predict_scores(rows) >= 0.5).astype(np.int64)


class DecisionTreeModel(RandomForestModel):
    """Single fully grown Gini tree: the forest of one tree on every row,
    every feature a split candidate; only the growth limits are settable."""

    descriptor = "dt"

    def __init__(self, min_samples_split: int = 2, max_depth: int | None = None):
        super().__init__(
            n_trees=1,
            bootstrap=False,
            max_features=None,
            min_samples_split=min_samples_split,
            max_depth=max_depth,
        )
