"""Random forest and the decision tree, its one-tree special case.

Each runs in one fixed configuration.  The forest grows 10 trees, each on
a bootstrap sample with ``max(1, int(sqrt(d)))`` candidate features per
node; the decision tree is one tree on every row with every feature a
candidate.  Trees split on the Gini criterion with midpoint thresholds,
grow until every leaf is pure or its rows share one feature vector, and
break all ties toward the lowest feature index and lowest threshold.

Prediction looks each row up in a threshold grid built by ``fit``.  Per
feature, the sorted union of every tree's thresholds cuts the feature
space into cells, and each cell lies inside exactly one leaf of every
tree, so the forest's score is constant over it.  ``fit`` paints each
leaf's probability over its box of cells, tree by tree in the order the
traversal sums them, then divides by the number of trees: every cell
holds exactly the traversal's score.  A batch then costs one gather, and
per split feature one branch-free binary search over all its values at
once, which keeps the fidelity experiments (thousands of predicted rows
per explained instance) fast.  A forest whose grid would exceed
``GRID_MAX_CELLS`` cells skips the table and routes whole batches through
the node arrays instead, level by level; a single row walks each tree
node to node through memoryviews of its node arrays kept since fit, so a
walk builds none.  That traversal is also the reference the grid is
tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import TrainedModel

_LEAF = -1

# Largest threshold grid fit builds (8 MB of float64 scores).
GRID_MAX_CELLS = 1 << 20


@dataclass(frozen=True, slots=True)
class _Tree:
    """Flat node arrays: feature < 0 marks a leaf.

    ``views`` holds a memoryview of each array, in field order, built once
    for :meth:`walk`.  Memoryviews cannot be pickled, so a pickled tree
    carries its arrays alone and rebuilds the views when loaded.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prob: np.ndarray
    views: tuple[memoryview, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arrays = self.feature, self.threshold, self.left, self.right, self.prob
        object.__setattr__(self, "views", tuple(map(memoryview, arrays)))

    def __reduce__(self):
        return _Tree, tuple(view.obj for view in self.views)

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

    def walk(self, row: list[float]) -> float:
        """Leaf probability of one row, given as Python floats, by one
        node-to-node walk over the kept views; ``x < t`` decides each split
        as in ``predict_prob``."""
        feature, threshold, left, right, prob = self.views
        node = 0
        while (f := feature[node]) >= 0:
            node = left[node] if row[f] < threshold[node] else right[node]
        return prob[node]


def _best_split(
    X: np.ndarray,
    ys: np.ndarray,
    pos_total: int,
    rows: np.ndarray,
    feature_ids: np.ndarray,
) -> tuple[int, float] | None:
    """Lowest weighted child Gini over midpoint candidates; ``ys`` holds
    the labels of the node's ``rows``, ``pos_total`` of them positive.

    Returns None when every candidate feature is constant on the node.
    Ties resolve to the lowest feature id, then the lowest threshold,
    because features are scanned in ascending order and candidate
    thresholds ascend within a feature.
    """
    n = rows.size
    # The split after the i-th sorted row: the same for every feature.
    count_left = np.arange(1, n)
    count_right = n - count_left
    best = (np.inf, -1, 0.0)
    for f in feature_ids:
        values = X[rows, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        distinct = sv[1:] != sv[:-1]
        if not distinct.any():
            continue
        pos_left = np.cumsum(ys[order])[:-1]
        pos_right = pos_total - pos_left
        p1l = pos_left / count_left
        p1r = pos_right / count_right
        gini_l = 2.0 * p1l * (1.0 - p1l)
        gini_r = 2.0 * p1r * (1.0 - p1r)
        weighted = (count_left * gini_l + count_right * gini_r) / n
        weighted = np.where(distinct, weighted, np.inf)
        k = int(np.argmin(weighted))
        if weighted[k] < best[0]:
            low, high = float(sv[k]), float(sv[k + 1])
            threshold = (low + high) / 2.0
            # The midpoint of two adjacent doubles can round onto the lower
            # one, and that of two huge ones overflows; either would leave
            # a child empty.
            if not low < threshold <= high:
                threshold = high
            best = (float(weighted[k]), int(f), threshold)
    if best[1] < 0:
        return None
    return best[1], best[2]


def _grow(
    X: np.ndarray, y: np.ndarray, max_features: int, rng: np.random.Generator
) -> _Tree:
    """Grow one tree, sampling ``max_features`` candidate features per node
    when that is fewer than all ``d``."""
    d = X.shape[1]
    all_features = np.arange(d)
    # One entry per node, appended blank as a split creates the node.
    blank = (_LEAF, 0.0, -1, -1, 0.0)
    columns = feature, threshold, left, right, prob = tuple([v] for v in blank)
    stack: list[tuple[int, np.ndarray]] = [(0, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        ys = y[rows]
        # Labels are 0 or 1: the count is exact, and so is the mean.
        positives = int(np.count_nonzero(ys))
        prob[node] = positives / rows.size
        if positives in (0, rows.size):
            continue
        split = None
        if max_features < d:
            candidates = np.sort(rng.choice(d, size=max_features, replace=False))
            split = _best_split(X, ys, positives, rows, candidates)
        if split is None:
            split = _best_split(X, ys, positives, rows, all_features)
        if split is None:
            continue
        f, t = split
        goes_left = X[rows, f] < t
        feature[node], threshold[node] = f, t
        left[node], right[node] = len(prob), len(prob) + 1
        for column, v in zip(columns, blank):
            column += (v, v)
        # Right pushed first so the left child is processed (and numbered
        # relative to its subtree) in a fixed order.
        stack.append((right[node], rows[~goes_left]))
        stack.append((left[node], rows[goes_left]))
    return _Tree(*(np.array(column) for column in columns))


def _grid_edges(trees: tuple[_Tree, ...]) -> tuple[tuple[int, np.ndarray], ...]:
    """(feature, sorted distinct thresholds) for each feature some tree
    splits on, in ascending feature order."""
    split = sorted(set().union(*(t.feature[t.feature >= 0].tolist() for t in trees)))
    return tuple(
        (f, np.unique(np.concatenate([t.threshold[t.feature == f] for t in trees])))
        for f in split
    )


def _paint(
    tree: _Tree, table: np.ndarray, edges: tuple[tuple[int, np.ndarray], ...]
) -> None:
    """Add each leaf's probability over its box of grid cells.

    Along a feature with thresholds ``e``, a row's cell is the number of
    thresholds at or below its value, so ``x < e[k]`` exactly when the
    cell is at most ``k``: a split on ``e[k]`` sends cells ``[lo, k + 1)``
    left and ``[k + 1, hi)`` right.
    """
    axis = np.full(tree.feature.size, _LEAF)
    cut = np.zeros(tree.feature.size, dtype=np.int64)
    for a, (f, e) in enumerate(edges):
        on = tree.feature == f
        axis[on] = a
        cut[on] = np.searchsorted(e, tree.threshold[on]) + 1
    # Python lists: the walk reads one node at a time.
    axis, cut, left, right, prob = (
        arr.tolist() for arr in (axis, cut, tree.left, tree.right, tree.prob)
    )
    stack = [(0, (0,) * table.ndim, table.shape)]
    while stack:
        node, lo, hi = stack.pop()
        a, k = axis[node], cut[node]
        if a == _LEAF:
            table[tuple(map(slice, lo, hi))] += prob[node]
            continue
        stack.append((left[node], lo, hi[:a] + (k,) + hi[a + 1 :]))
        stack.append((right[node], lo[:a] + (k,) + lo[a + 1 :], hi))


def _padded(edges: np.ndarray) -> np.ndarray:
    """``edges`` followed by +inf up to the least power of two above their
    count."""
    padded = np.full(1 << edges.size.bit_length(), np.inf)
    padded[: edges.size] = edges
    return padded


def _cells(padded: np.ndarray, size: int, values: np.ndarray) -> np.ndarray:
    """``np.searchsorted(edges, values, side="right")`` for the ``size``
    sorted edges ``padded`` starts with, as one binary search over all
    values at once: each halving step moves every position by a multiply,
    not a branch.

    ``pos`` ends as the count of the first ``padded.size - 1`` entries at
    or below the value, which is the answer except for +inf, which also
    counts the padding, and NaN, which compares false with every entry.
    """
    pos = np.zeros(values.size, dtype=np.intp)
    step = padded.size // 2
    while step:
        pos += step * (padded[pos + (step - 1)] <= values)
        step //= 2
    np.minimum(pos, size, out=pos)
    pos[np.isnan(values)] = size
    return pos


class RandomForestModel(TrainedModel):
    """Ensemble of 10 Gini trees, each on a bootstrap sample with sqrt(d)
    candidate features per split."""

    descriptor = "rf"
    n_trees = 10
    # Bootstrap rows and sample sqrt(d) candidate features per node.
    randomized = True

    _trees: tuple[_Tree, ...] = ()
    # The threshold grid as ((feature, edge count, padded edges) per split
    # feature, flat table of scores); None when it would exceed
    # GRID_MAX_CELLS cells.
    _grid: tuple[tuple[tuple[int, int, np.ndarray], ...], np.ndarray] | None = None

    def _train(self, X: np.ndarray, y: np.ndarray, seed: int) -> None:
        n, d = X.shape
        max_features = max(1, int(np.sqrt(d))) if self.randomized else d
        rng = np.random.default_rng(seed)
        trees = []
        for _ in range(self.n_trees):
            sample = rng.integers(0, n, size=n) if self.randomized else slice(None)
            trees.append(_grow(X[sample], y[sample], max_features, rng))
        self._trees = tuple(trees)
        edges = _grid_edges(self._trees)
        self._grid = None
        # Python ints: the product of many features' sizes overflows int64.
        shape = tuple(e.size + 1 for _, e in edges)
        if math.prod(shape) <= GRID_MAX_CELLS:
            table = np.zeros(shape)
            for tree in trees:
                _paint(tree, table, edges)
            table /= len(trees)
            searches = tuple((f, e.size, _padded(e)) for f, e in edges)
            self._grid = searches, table.ravel()

    def _scores(self, rows: np.ndarray) -> np.ndarray:
        """The forest's mean leaf probability of each row of a checked batch."""
        if self._grid is None:
            return self._traverse(rows)
        searches, table = self._grid
        # NaN and +inf land past every threshold and -inf before them, so
        # they go right and left at every node, as ``x < t`` sends them.
        cell = np.zeros(rows.shape[0], dtype=np.intp)
        for f, size, padded in searches:
            cell *= size + 1
            cell += _cells(padded, size, rows[:, f])
        return table[cell]

    def _traverse(self, rows: np.ndarray) -> np.ndarray:
        """Mean leaf probability by routing the batch through every tree.

        A single row (the instance ``explain`` labels) walks each tree in
        Python, far cheaper than a numpy pass per level; the sum in tree
        order and the division are the batch path's, bit for bit.
        """
        if rows.shape[0] == 1:
            row = rows[0].tolist()
            total = 0.0
            for tree in self._trees:
                total += tree.walk(row)
            return np.array([total / len(self._trees)])
        probs = np.zeros(rows.shape[0])
        for tree in self._trees:
            probs += tree.predict_prob(rows)
        return probs / len(self._trees)

    def _predict(self, rows: np.ndarray) -> np.ndarray:
        return (self._scores(rows) >= 0.5).astype(np.int64)


class DecisionTreeModel(RandomForestModel):
    """Single fully grown Gini tree: the forest of one tree on every row,
    every feature a split candidate."""

    descriptor = "dt"
    n_trees = 1
    randomized = False
