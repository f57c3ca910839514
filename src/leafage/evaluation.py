"""Quantitative local-fidelity protocol.

For every test instance, a per-instance hyper-sphere is grown until it
reaches the ceil(p * n_enemy)-th nearest test instance of the opposite
predicted class; the surrogate's scores are then compared against the
black box's labels inside that sphere with the AUC.  Per-setting means
are compared across strategies with a paired Wilcoxon signed-rank test
under Bonferroni correction.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import models
from .core import (
    LeafageConfig,
    LocalSurrogate,
    _euclidean,
    _training_reference,
    closest_enemy,
    fit_local_linear,
    sample_local_training_set,
)
from .data import Dataset, check_fraction, check_integer
from .errors import DataError, NoEnemiesError
from .lime import LimeConfig, QuartileBins, lime_fit, lime_quartile_fit

__all__ = [
    "FidelityConfig",
    "FidelitySummary",
    "WilcoxonResult",
    "auc",
    "wilcoxon_signed_rank",
    "fidelity_sphere",
    "run_setting",
    "results_table",
    "write_results_csv",
    "format_mean_std",
    "STRATEGIES",
    "KNOWN_STRATEGIES",
]

# The default strategy set; ``lime-quartile`` runs only when asked for.
STRATEGIES = ("leafage", "lime", "baseline")
KNOWN_STRATEGIES = (*STRATEGIES, "lime-quartile")

# Sign patterns are enumerated exactly up to this many non-zero
# differences; beyond it the normal approximation with tie correction
# takes over.
WILCOXON_EXACT_LIMIT = 25


@dataclass(frozen=True)
class FidelityConfig:
    """Sphere inclusion fraction."""

    p: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        check_fraction("p", self.p)


@dataclass
class FidelitySummary:
    """Per-instance AUC scores for one (dataset, class, classifier,
    strategy) setting; skipped instances are NaN.  The statistics are
    derived from the scored instances; with none scored they are NaN."""

    setting: tuple[str, str, str, str]
    per_instance_auc: np.ndarray

    @property
    def strategy(self) -> str:
        return self.setting[3]

    @property
    def _scored(self) -> np.ndarray:
        return self.per_instance_auc[~np.isnan(self.per_instance_auc)]

    @property
    def mean(self) -> float:
        return float(self._scored.mean()) if self.n_scored else math.nan

    @property
    def stddev(self) -> float:
        return float(self._scored.std()) if self.n_scored else math.nan

    @property
    def n_scored(self) -> int:
        return int(self._scored.size)

    @property
    def n_skipped(self) -> int:
        return int(self.per_instance_auc.size - self.n_scored)


def _rank_average(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based); tied values share the mean rank."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    boundary = np.concatenate(([True], sv[1:] != sv[:-1]))
    group = np.cumsum(boundary) - 1
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], values.size)
    mean_rank = (starts + ends - 1) / 2.0 + 1.0
    ranks = np.empty(values.size)
    ranks[order] = mean_rank[group]
    return ranks


def auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve by the exact Mann-Whitney count: a tied
    positive/negative pair counts one half; ±inf ties with its equal."""
    labels = np.asarray(labels).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise DataError("labels and scores must have equal length")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs at least one positive and one negative label")
    if np.isnan(scores).any():
        raise DataError("AUC scores must not be NaN")
    pos, neg = scores[labels], np.sort(scores[~labels])
    two_u = sum(int(np.searchsorted(neg, pos, s).sum()) for s in ("left", "right"))
    return (two_u / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class WilcoxonResult:
    """Signed-rank test outcome; ``p_value`` is None when inconclusive."""

    statistic: float
    p_value: float | None
    method: str = ""

    @property
    def inconclusive(self) -> bool:
        return self.p_value is None


def _exact_signed_rank_p(ranks: np.ndarray, stat: float) -> float:
    """Two-sided p by enumerating all sign patterns.

    Works on doubled ranks so tied (half-integer) ranks stay integral;
    the count array is a full convolution over rank polynomials.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        # numpy buffers the overlapping operand, so the shift reads the
        # counts from before this rank.
        counts[r:] += counts[: total + 1 - r]
    denom = 2.0 ** len(ranks)
    t2 = int(np.rint(2.0 * stat))
    p_le = counts[: t2 + 1].sum() / denom
    p_ge = counts[t2:].sum() / denom
    return min(1.0, 2.0 * min(p_le, p_ge))


def _normal_signed_rank_p(ranks: np.ndarray, stat: float) -> float:
    """Two-sided normal approximation with tie-corrected variance."""
    n = ranks.size
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    # Ties remove at most (n^3 - n) / 48, so var stays positive.
    var -= float((tie_counts**3 - tie_counts).sum()) / 48.0
    z = (stat - mean) / math.sqrt(var)
    return math.erfc(abs(z) / math.sqrt(2.0))


def wilcoxon_signed_rank(a: np.ndarray, b: np.ndarray) -> WilcoxonResult:
    """Paired two-sided signed-rank test on a - b.

    A NaN difference is a DataError.  Zero differences are dropped; fewer
    than 6 remaining pairs is marked inconclusive.  Small samples
    (n <= 25) are scored by exact sign enumeration, larger ones by the
    tie-corrected normal approximation.  The statistic is the
    positive-rank sum.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError("paired vectors must have equal length")
    with np.errstate(invalid="ignore"):  # inf - inf is caught below
        diff = a - b
    if np.isnan(diff).any():
        raise DataError("paired differences must not be NaN")
    diff = diff[diff != 0.0]
    n = diff.size
    if n < 6:
        return WilcoxonResult(statistic=math.nan, p_value=None, method="inconclusive")
    ranks = _rank_average(np.abs(diff))
    stat = float(ranks[diff > 0].sum())
    if n <= WILCOXON_EXACT_LIMIT:
        p = _exact_signed_rank_p(ranks, stat)
        method = "exact"
    else:
        p = _normal_signed_rank_p(ranks, stat)
        method = "normal"
    return WilcoxonResult(statistic=stat, p_value=p, method=method)


def fidelity_sphere(
    features: np.ndarray, enemy_rows: np.ndarray, z_index: int, p: float
) -> np.ndarray:
    """Indices of test rows inside the per-instance evaluation ball.

    The radius reaches the ceil(p * n_enemy)-th nearest of ``enemy_rows``,
    the rows predicted unlike the centre ``z_index``.  The centre itself
    is excluded; the ball is closed.  ``p`` lies strictly between 0 and 1.
    """
    check_fraction("p", p)
    check_integer("z_index", z_index)
    if not 0 <= z_index < features.shape[0]:
        raise DataError(f"z_index {z_index} out of range 0..{features.shape[0] - 1}")
    if len(enemy_rows) == 0:
        raise NoEnemiesError("no test instance has the opposite predicted label")
    dist = _euclidean(features, features[z_index])
    k = math.ceil(p * len(enemy_rows)) - 1
    radius = np.partition(dist[enemy_rows], k)[k]
    ball = np.flatnonzero(dist <= radius)
    return ball[ball != z_index]


def run_setting(
    train: Dataset,
    test: Dataset,
    classifier: str,
    strategies: tuple[str, ...] = STRATEGIES,
    *,
    leafage_cfg: LeafageConfig | None = None,
    lime_cfg: LimeConfig | None = None,
    fidelity_cfg: FidelityConfig | None = None,
    model_seed: int = 0,
) -> list[FidelitySummary]:
    """Train one classifier and score every strategy on every test row.

    Test rows that share a closest enemy share one ``leafage`` surrogate.
    ``baseline`` is a constant predictor: every sphere pair ties, so its
    AUC is 0.5 by definition on every scored instance.  ``lime`` and
    ``lime-quartile`` are the continuous and the quartile-discretized LIME
    baselines; both seed instance ``i`` from ``lime_cfg.seed`` and ``i``
    alone.  Each LIME strategy's first fit starts Newton from zero and
    every later one from that first solution, a warm start that saves
    Newton steps; a warm solution agrees with the cold one to within the
    solver's step tolerance, and does not depend on the order of the later
    instances.  An instance is skipped when no test row or no training
    row is predicted unlike it, or else when its sphere holds a single
    predicted class.  Skips are shared by all strategies, so the
    per-instance vectors stay aligned for paired significance testing.
    """
    for strategy in strategies:
        if strategy not in KNOWN_STRATEGIES:
            raise DataError(
                f"unknown strategy {strategy!r}; choose from {KNOWN_STRATEGIES}"
            )
    if len(set(strategies)) != len(strategies):
        raise DataError(f"strategies must be distinct, got {list(strategies)}")
    if len(train.class_names) != 2 or len(test.class_names) != 2:
        raise DataError("run_setting requires binary datasets")
    if test.column_names != train.column_names:
        raise DataError(
            f"test columns {test.column_names} differ from the training "
            f"columns {train.column_names}"
        )
    leafage_cfg = leafage_cfg or LeafageConfig()
    lime_cfg = lime_cfg or LimeConfig()
    fidelity_cfg = fidelity_cfg or FidelityConfig()
    if {"lime", "lime-quartile"} & set(strategies):
        lime_cfg.check_n_samples(train.d)

    fitted = models.fit_on_standardized(classifier, train, seed=model_seed)
    model = fitted.model
    X_train, columns, pred_train, class_rows = _training_reference(
        model, train, fitted.standardizer
    )
    with np.errstate(over="ignore"):
        X_test = fitted.standardizer.transform(test.features)
    if not np.isfinite(X_test).all():
        raise DataError(
            "a standardized test row does not fit in a double; its values lie "
            "too far outside the training rows' spread"
        )
    pred_test = model.predict_labels(X_test)
    quartile_bins = (
        QuartileBins.fit(X_train) if "lime-quartile" in strategies else None
    )

    test_rows = (np.flatnonzero(pred_test == 0), np.flatnonzero(pred_test == 1))
    surrogates: dict[int, LocalSurrogate] = {}
    starts: dict[str, np.ndarray] = {}
    scores = {s: np.full(test.n, np.nan) for s in strategies}
    for i in range(test.n):
        c_z = int(pred_test[i])
        test_enemies, enemy_rows = test_rows[1 - c_z], class_rows[1 - c_z]
        if test_enemies.size == 0 or enemy_rows.size == 0:
            continue
        sphere = fidelity_sphere(X_test, test_enemies, i, fidelity_cfg.p)
        sphere_labels = pred_test[sphere] == 1
        if sphere_labels.all() or not sphere_labels.any():
            continue
        sphere_rows = X_test[sphere]
        z = X_test[i]
        for strategy in strategies:
            if strategy == "baseline":
                scores[strategy][i] = 0.5
                continue
            if strategy == "leafage":
                x_border = closest_enemy(_euclidean(columns, z), enemy_rows)
                if x_border not in surrogates:
                    local = sample_local_training_set(
                        columns, class_rows, x_border, leafage_cfg
                    )
                    surrogates[x_border] = fit_local_linear(X_train, pred_train, local)
                surrogate = surrogates[x_border]
            else:
                seed = np.random.SeedSequence([lime_cfg.seed, i]).generate_state(1)[0]
                cfg_i = replace(lime_cfg, seed=int(seed))
                start = starts.get(strategy)
                if strategy == "lime":
                    surrogate = lime_fit(model, z, cfg_i, start)
                else:
                    surrogate = lime_quartile_fit(model, quartile_bins, z, cfg_i, start)
                if strategy not in starts:
                    starts[strategy] = np.append(surrogate.weights, surrogate.intercept)
            scores[strategy][i] = auc(sphere_labels, surrogate.score(sphere_rows))

    positive = train.class_names[1]
    return [
        FidelitySummary((train.name, positive, classifier, strategy), scores[strategy])
        for strategy in strategies
    ]


def format_mean_std(mean: float, stddev: float) -> str:
    """Table cell rendering: percentages to one decimal place."""
    if math.isnan(mean):
        return "n/a"
    return f"{mean * 100:.1f} ({stddev * 100:.1f})"


def bold_flags(
    summaries: list[FidelitySummary], alpha: float = 0.05
) -> dict[tuple[str, str, str, str], bool]:
    """Which (setting, strategy) cells are emphasized.

    Within a setting: the highest mean, plus every strategy whose paired
    signed-rank test against it is not significant at the Bonferroni
    corrected level alpha / (n_strategies - 1).  Inconclusive tests
    (fewer than 6 non-zero paired differences) cannot establish a
    difference, so those strategies stay emphasized too.
    """
    groups: dict[tuple[str, str, str], list[FidelitySummary]] = {}
    for s in summaries:
        groups.setdefault(s.setting[:3], []).append(s)
    flags: dict[tuple[str, str, str, str], bool] = {}
    for members in groups.values():
        means = [(-math.inf if math.isnan(m.mean) else m.mean) for m in members]
        best = members[int(np.argmax(means))]
        corrected = alpha / max(1, len(members) - 1)
        for m in members:
            if m is best or math.isnan(m.mean):
                flags[m.setting] = not math.isnan(m.mean)
                continue
            paired = ~np.isnan(best.per_instance_auc) & ~np.isnan(m.per_instance_auc)
            result = wilcoxon_signed_rank(
                best.per_instance_auc[paired], m.per_instance_auc[paired]
            )
            flags[m.setting] = result.inconclusive or result.p_value > corrected
    return flags


def results_table(summaries: list[FidelitySummary], alpha: float = 0.05) -> str:
    """Aligned text table; emphasized cells are wrapped in ``**``."""
    return _table_text(summaries, bold_flags(summaries, alpha))


def _table_text(
    summaries: list[FidelitySummary], flags: dict[tuple[str, str, str, str], bool]
) -> str:
    """:func:`results_table` with the emphasis ``flags`` already decided."""
    header = ["dataset", "positive", "classifier", "strategy", "fidelity"]
    rows = [header]
    for s in summaries:
        cell = format_mean_std(s.mean, s.stddev)
        if flags[s.setting]:
            cell = f"**{cell}**"
        rows.append([*s.setting, cell])
    widths = [max(len(r[j]) for r in rows) for j in range(len(header))]
    lines = ["  ".join(r[j].ljust(widths[j]) for j in range(len(header))) for r in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def write_results_csv(
    summaries: list[FidelitySummary], path: str, alpha: float = 0.05
) -> dict[tuple[str, str, str, str], bool]:
    """Machine-readable results, one row per setting and strategy.

    Returns the :func:`bold_flags` it wrote, from which a caller renders
    the table without running the tests again."""
    flags = bold_flags(summaries, alpha)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["setting", "strategy", "mean_auc", "std_auc", "n", "n_skipped", "bold"]
        )
        for s in summaries:
            writer.writerow(
                [
                    "|".join(s.setting[:3]),
                    s.strategy,
                    repr(s.mean),
                    repr(s.stddev),
                    s.n_scored,
                    s.n_skipped,
                    str(flags[s.setting]).lower(),
                ]
            )
    return flags
