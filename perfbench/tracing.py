"""Span tracing installed around the leafage package's public functions.

A :class:`Tracer` wraps each function as it is bound in its caller (a
module global such as ``leafage.evaluation.closest_enemy`` or a class
attribute such as ``KNearestModel.predict_labels``), so calls made inside
the package are seen without changing it.  Every call becomes one span:
layer name, start, end, parent span and the operation it belongs to.
Uninstalling restores every binding.  A target that no longer exists is
reported as absent instead of failing the run.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans.
"""
from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

# Each black box's own prediction entry point, wrapped per class so that a
# subclass overriding ``predict_labels`` is still seen.
_MODEL_CLASSES = (
    ("leafage.models.linear", "LogisticRegressionModel"),
    ("leafage.models.linear", "LinearSVMModel"),
    ("leafage.models.linear", "LDAModel"),
    ("leafage.models.tree", "DecisionTreeModel"),
    ("leafage.models.tree", "RandomForestModel"),
    ("leafage.models.neighbors", "KNearestModel"),
)


@dataclass(frozen=True)
class Target:
    """One binding to wrap.

    ``rows_arg`` names the positional argument whose length is the row
    count of the call; ``watch_degenerate`` records the ``degenerate`` flag
    of the returned surrogate.
    """

    layer: str
    module: str
    attribute: str
    rows_arg: int | None = None
    watch_degenerate: bool = False


TARGETS = (
    Target("data.transform", "leafage.data", "Standardizer.transform"),
    *(
        Target("models.predict", module, f"{cls}.predict_labels", rows_arg=1)
        for module, cls in _MODEL_CLASSES
    ),
    Target("models.fit", "leafage.models", "fit"),
    Target(
        "external.predict",
        "leafage.models.external",
        "ExternalModel.predict_labels",
        rows_arg=1,
    ),
    Target("core.explain", "leafage.core", "explain"),
    Target("core.closest_enemy", "leafage.core", "closest_enemy"),
    Target("core.closest_enemy", "leafage.evaluation", "closest_enemy"),
    Target("core.sample_local", "leafage.core", "sample_local_training_set"),
    Target("core.sample_local", "leafage.evaluation", "sample_local_training_set"),
    Target(
        "core.fit_local", "leafage.core", "fit_local_linear", watch_degenerate=True
    ),
    Target(
        "core.fit_local",
        "leafage.evaluation",
        "fit_local_linear",
        watch_degenerate=True,
    ),
    Target("core.logistic_fit", "leafage.core", "weighted_logistic_fit", rows_arg=0),
    Target("core.logistic_fit", "leafage.lime", "weighted_logistic_fit", rows_arg=0),
    Target("core.retrieve", "leafage.core", "retrieve_examples"),
    Target("core.importances", "leafage.core", "feature_importances"),
    Target("lime.fit", "leafage.evaluation", "lime_fit", watch_degenerate=True),
    Target("lime.sample", "leafage.lime", "lime_sample"),
    Target("evaluation.run_setting", "leafage.evaluation", "run_setting"),
    Target("evaluation.sphere", "leafage.evaluation", "fidelity_sphere"),
    Target("evaluation.auc", "leafage.evaluation", "auc"),
    Target("evaluation.bold_flags", "leafage.evaluation", "bold_flags"),
    Target("evaluation.output", "leafage.evaluation", "results_table"),
    Target("evaluation.output", "leafage.evaluation", "write_results_csv"),
    Target("report.build", "leafage.report", "build_report"),
    Target("report.validate", "leafage.report", "validate_report"),
    Target("report.svg", "leafage.report", "render_svg"),
)


@dataclass
class Span:
    layer: str
    parent: int
    op: int
    start: float = 0.0
    end: float = 0.0
    rows: int = 0
    degenerate: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerStats:
    """Aggregates of one layer's spans.

    ``calls``, ``rows`` and ``durations`` count only outermost spans, so a
    layer calling itself through another binding is not counted twice.
    """

    self_s: float = 0.0
    calls: int = 0
    rows: int = 0
    degenerate: int = 0
    durations: list[float] = field(default_factory=list)
    row_counts: list[int] = field(default_factory=list)


def _resolve(target: Target):
    """(owner, name, inherited) for the binding, or None when it is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    inherited = isinstance(owner, type) and name not in vars(owner)
    return owner, name, inherited


class Tracer:
    """Installs span wrappers on :data:`TARGETS` for one traced phase.

    Use as a context manager; spans stay in memory on ``spans``.  Set
    ``op`` to the current operation's index before each operation.
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object, bool]] = []

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            found = _resolve(target)
            if found is None:
                self.absent.append(f"{target.module}.{target.attribute}")
                continue
            owner, name, inherited = found
            original = getattr(owner, name)
            setattr(owner, name, self._wrap(target, original))
            self._installed.append((owner, name, original, inherited))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original, inherited in reversed(self._installed):
            if inherited:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._installed.clear()

    def _wrap(self, target: Target, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(target.layer, stack[-1] if stack else -1, self.op)
            if target.rows_arg is not None:
                span.rows = len(args[target.rows_arg])
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if target.watch_degenerate:
                span.degenerate = bool(result.degenerate)
            return result

        return traced

    def layers(self) -> dict[str, LayerStats]:
        """Per-layer self time, call and row counts from the recorded spans."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        stats: dict[str, LayerStats] = {}
        for i, span in enumerate(self.spans):
            agg = stats.setdefault(span.layer, LayerStats())
            agg.self_s += span.duration - covered[i]
            if self._nested_in_own_layer(span):
                continue
            agg.calls += 1
            agg.rows += span.rows
            agg.degenerate += span.degenerate
            agg.durations.append(span.duration)
            agg.row_counts.append(span.rows)
        return stats

    def _nested_in_own_layer(self, span: Span) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].layer == span.layer:
                return True
            parent = self.spans[parent].parent
        return False
