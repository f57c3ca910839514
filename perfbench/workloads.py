"""The benchmark's workloads: inputs, set-up, one operation, output checks.

Every workload builds its inputs from the workload seed; the program sees
only the generated rows.  ``setup`` is what a user pays once (data, scaling,
model fit, child spawn) and is timed on its own.  ``operation(i, split)`` is
what a user waits for and is timed in a closed loop; unless ``split`` is
None it may call ``split(label, at_least)`` to end a labelled segment of its
time, after which the runner calibrates, untimed (see ``speed.py``).
``inspect`` runs after each operation, outside the timed region: it checks
the output and keeps only a small :class:`Record` of it, so memory does not
grow with the run.
"""
from __future__ import annotations

import json
import math
import os
import sys
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from leafage import core, data, evaluation, models, report
from leafage.errors import DataError
from leafage.lime import LimeConfig
from leafage.models.external import ExternalModel

CLASSIFIERS = ("lr", "svm", "lda", "dt", "rf", "knn")
STRATEGIES = ("leafage", "lime", "baseline")
ALPHA = 0.05
# Inside a run_setting call, the evaluate workload ends a timed segment
# before a test instance once the segment has run this long.
SEGMENT_S = 0.05
QUERY_POOL = 256
DIGEST_OPS = 32
STUB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "stub_model.py")


Split = Callable[[str, float], None]


@contextmanager
def splitting_per_instance(split: Split | None, label: str):
    """End a timed segment before a test instance of ``run_setting`` once
    the segment has lasted ``SEGMENT_S``, so that a long call is calibrated
    as it runs.  ``fidelity_sphere`` is called once per test instance; its
    binding in ``leafage.evaluation`` is wrapped for the block."""
    original = evaluation.fidelity_sphere
    if split is None:
        yield
        return

    def sphere(*args, **kwargs):
        split(label, SEGMENT_S)
        return original(*args, **kwargs)

    evaluation.fidelity_sphere = sphere
    try:
        yield
    finally:
        evaluation.fidelity_sphere = original


@dataclass
class Record:
    """What is kept of one operation once its output has been checked.

    ``attempted`` and ``failed`` count checked sub-operations; ``digest``
    maps a digest name to the bytes this operation adds to it; ``values``
    holds the numbers the metrics are built from.
    """

    index: int
    attempted: int
    failed: int
    digest: dict[str, bytes] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)


def derived_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def query_pool(train: data.Dataset, seed: int, n: int) -> np.ndarray:
    """``n`` rows drawn under a seed disjoint from the training draw, every
    fourth replaced by a training row so that self-match exclusion runs."""
    fresh = data.generate_artificial((n + 1) // 2, derived_seed(seed, 1)).features
    rng = np.random.default_rng(derived_seed(seed, 2))
    queries = fresh[rng.permutation(fresh.shape[0])[:n]].copy()
    picks = rng.integers(0, train.n, size=queries[::4].shape[0])
    queries[::4] = train.features[picks]
    return queries


def all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(all_finite(v) for v in value)
    return True


def rank_auc(labels: np.ndarray, scores: np.ndarray) -> float | None:
    """Pairwise AUC with ties counted one half; None for a single class."""
    pos = scores[labels == 1]
    neg = scores[labels != 1]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share
    ``q`` of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def mean_of(records: list[Record], key: str) -> float:
    values = [r.values[key] for r in records if not math.isnan(r.values[key])]
    return float(np.mean(values)) if values else float("nan")


def report_problem(index: int, problem: str) -> None:
    print(f"check failed: operation {index}: {problem}", file=sys.stderr)


class Workload:
    """Defaults shared by the workloads; hooks a workload does not need."""

    checks_per_op = 1
    digest_ops = 1
    setup_repeats = 9
    max_ops: int | None = None

    def prepare(self) -> None:
        """Untimed work after set-up: queries and check references."""

    def before_traced(self) -> None:
        """Untimed work before the traced phase."""

    def after_traced(self) -> dict[str, float]:
        """Totals measured outside the tracer over the traced phase."""
        return {}

    def close(self) -> None:
        """Stop whatever the set-up started."""


@dataclass
class ExplainOutput:
    index: int
    explanation: core.Explanation
    report: dict
    svg: str


class ExplainWorkload(Workload):
    """Explain operations: ``explain()``, then ``build_report()``,
    ``validate_report()`` and ``render_svg()`` -- what ``leafage explain
    --svg`` does, in process.  Every query shares one model and one
    training set."""

    digest_ops = DIGEST_OPS
    setup_repeats = 5
    sizes = {"full": 5000, "tiny": 60}

    def __init__(self, seed: int, scale: str, workdir: str):
        self.seed = seed
        self.n_per_class = self.sizes[scale]
        self.workdir = workdir
        self.cfg = core.LeafageConfig(seed=seed)

    def fit_model(self, train: data.Dataset):
        fitted = models.fit_on_standardized("rf", train, seed=self.seed)
        return fitted.model, fitted.standardizer

    def setup(self) -> None:
        self.train = data.generate_artificial(self.n_per_class, self.seed)
        self.model, self.scaler = self.fit_model(self.train)

    def prepare(self) -> None:
        self.queries = query_pool(self.train, self.seed, QUERY_POOL)
        self.train_std = self.scaler.transform(self.train.features)
        self.train_pred = self.model.predict_labels(self.train_std)
        self.query_pred = self.model.predict_labels(self.scaler.transform(self.queries))

    def operation(self, i: int, split: Split | None) -> ExplainOutput:
        z = self.queries[i % len(self.queries)]
        explanation = core.explain(
            self.model, self.train, z, self.cfg, standardizer=self.scaler
        )
        rep = report.build_report(
            explanation, self.train, self.model.descriptor, seed=self.seed
        )
        report.validate_report(rep)
        svg = report.render_svg(rep)
        return ExplainOutput(i, explanation, rep, svg)

    def problems(self, out: ExplainOutput) -> list[str]:
        found = []
        try:
            report.validate_report(out.report)
        except DataError as exc:
            found.append(f"report fails validation: {exc}")
        if not all_finite(out.report):
            found.append("report holds a non-finite number")
        if not (out.svg.startswith("<svg") and out.svg.endswith("</svg>\n")):
            found.append("SVG is malformed")
        e = out.explanation
        q = out.index % len(self.queries)
        c_z = int(self.query_pred[q])
        if e.predicted_class != self.train.class_names[c_z]:
            found.append("predicted class differs from the model's label")
        if any(self.train_pred[a.index] != c_z for a in e.allies):
            found.append("an ally does not carry the predicted class")
        if any(self.train_pred[a.index] == c_z for a in e.enemies):
            found.append("an enemy carries the predicted class")
        z = self.queries[q]
        if any(np.array_equal(self.train.features[a.index], z) for a in e.allies):
            found.append("the instance itself is among its allies")
        for side, flag in (("allies", "ally_shortfall"), ("enemies", "enemy_shortfall")):
            n = len(getattr(e, side))
            if n != len(out.report[side]):
                found.append(f"report {side} differ from the explanation's")
            if n < self.cfg.k_examples and flag not in e.flags:
                found.append(f"fewer than k {side} without a {flag} flag")
        return found

    def local_auc(self, surrogate: core.LocalSurrogate) -> float:
        """AUC of the surrogate's scores against the model's labels on its
        own local training set; NaN when that set is single-class."""
        idx = surrogate.local_indices
        value = rank_auc(self.train_pred[idx], surrogate.score(self.train_std[idx]))
        return float("nan") if value is None else value

    def inspect(self, out: ExplainOutput) -> Record:
        found = self.problems(out)
        for problem in found:
            report_problem(out.index, problem)
        digest = {}
        if out.index < DIGEST_OPS:
            text = json.dumps(out.report, indent=2) + "\n" + out.svg
            digest[f"reports[0:{DIGEST_OPS}]"] = text.encode()
        flags = out.explanation.flags
        return Record(
            out.index,
            1,
            int(bool(found)),
            digest,
            {
                "fidelity": self.local_auc(out.explanation.surrogate),
                "shortfall": float(any("shortfall" in f for f in flags)),
            },
        )

    def headline(
        self, latencies: list[float], records: list[Record], strategy_s: dict
    ) -> dict:
        return {
            "explain_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
            "explain_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
            "explain_per_s": (len(latencies) / sum(latencies), "1/s"),
            "fidelity_local_auc": (mean_of(records, "fidelity"), "auc"),
            "samples": (len(latencies), "count"),
        }

    def fidelity(self, records: list[Record]) -> float:
        return mean_of(records, "fidelity")

    def layer_totals(self, records: list[Record]) -> dict[str, float]:
        return {"core.shortfall.count": sum(r.values["shortfall"] for r in records)}


class ExternalExplainWorkload(ExplainWorkload):
    """Explain operations against an ``ExternalModel`` child process.

    The benchmark process, and so the child it spawns, is pinned to one
    CPU: client and child take turns, and on a virtual machine handing the
    turn to an idle second CPU waits for the host to wake it, which made
    the tail latency depend on the host's load rather than on the program.
    """

    setup_repeats = 9
    sizes = {"full": 1000, "tiny": 60}

    def __init__(self, seed: int, scale: str, workdir: str):
        super().__init__(seed, scale, workdir)
        self.handles: list[tuple[ExternalModel, str]] = []
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def spawn(self) -> ExternalModel:
        stats = os.path.join(self.workdir, f"stub-{len(self.handles)}.json")
        handle = ExternalModel(
            [sys.executable, STUB, stats], n_features=2, descriptor="external"
        )
        self.handles.append((handle, stats))
        # Readiness probe: the child has started once it has answered.
        handle.predict_labels(self.scaler.transform(self.train.features[:1]))
        return handle

    def fit_model(self, train: data.Dataset):
        self.scaler = data.Standardizer.fit(train.features)
        return self.spawn(), self.scaler

    def before_traced(self) -> None:
        self.model = self.spawn()

    def after_traced(self) -> dict[str, float]:
        """Totals the traced child measured itself, probe excluded."""
        handle, stats = self.handles[-1]
        handle.close()
        with open(stats, encoding="utf-8") as fh:
            records = json.load(fh)[1:]
        return {
            "external.bytes_sent": sum(r["received"] for r in records),
            "external.bytes_received": sum(r["sent"] for r in records),
            "external.child_busy_s": sum(r["busy_s"] for r in records),
        }

    def close(self) -> None:
        for handle, _ in self.handles:
            handle.close()


@dataclass
class EvaluateOutput:
    index: int
    summaries: list
    table: str
    csv_path: str


class EvaluateWorkload(Workload):
    """The fidelity protocol as ``leafage evaluate --datasets ad --seed S``
    runs it: every classifier x strategy, then the table and the CSV.
    ``run_setting`` is called once per (classifier, strategy) so that each
    strategy's share is timed; per-instance LIME seeds do not depend on
    which strategies run, so the CSV is the CLI's.  Untraced, each call is
    timed in segments of about ``SEGMENT_S`` labelled with its strategy."""

    checks_per_op = len(CLASSIFIERS) * len(STRATEGIES) + 1
    # One protocol per timed phase, as one `leafage evaluate` process runs it.
    max_ops = 1
    sizes = {"full": (250, 5000), "tiny": (20, 200)}

    def __init__(self, seed: int, scale: str, workdir: str):
        self.seed = seed
        self.n_per_class, lime_samples = self.sizes[scale]
        self.workdir = workdir
        self.leafage_cfg = core.LeafageConfig(i_small=10, seed=seed)
        self.lime_cfg = LimeConfig(n_samples=lime_samples, seed=seed)
        self.fidelity_cfg = evaluation.FidelityConfig(p=0.95, seed=seed)
        self.reference_csv: bytes | None = None

    def setup(self) -> None:
        """Data, split, scaling and one fit of each classifier -- the fits
        ``run_setting`` repeats inside every protocol."""
        full = data.generate_artificial(self.n_per_class, self.seed)
        self.train, self.test = data.train_test_split(
            full, data.SplitSpec(train_fraction=0.7, seed=self.seed)
        )
        scaler = data.Standardizer.fit(self.train.features)
        scaled = data.standardized(self.train, scaler)
        for classifier in CLASSIFIERS:
            models.fit(classifier, scaled, None, self.seed)

    def operation(self, i: int, split: Split | None) -> EvaluateOutput:
        summaries = []
        for classifier in CLASSIFIERS:
            for strategy in STRATEGIES:
                with splitting_per_instance(split, strategy):
                    summaries.extend(
                        evaluation.run_setting(
                            self.train,
                            self.test,
                            classifier,
                            (strategy,),
                            leafage_cfg=self.leafage_cfg,
                            lime_cfg=self.lime_cfg,
                            fidelity_cfg=self.fidelity_cfg,
                            model_seed=self.seed,
                        )
                    )
                if split is not None:
                    split(strategy, 0.0)
        table = evaluation.results_table(summaries, alpha=ALPHA)
        csv_path = os.path.join(self.workdir, f"results-{i}.csv")
        evaluation.write_results_csv(summaries, csv_path, alpha=ALPHA)
        return EvaluateOutput(i, summaries, table, csv_path)

    def problems(self, out: EvaluateOutput, csv_bytes: bytes) -> tuple[list, list]:
        """Problems per (classifier, strategy) call, then of the output step."""
        expected = [(c, s) for c in CLASSIFIERS for s in STRATEGIES]
        got = [(m.setting[2], m.strategy) for m in out.summaries]
        if got != expected:
            return ["summaries do not cover every classifier x strategy"] * len(
                expected
            ), ["output built from incomplete summaries"]
        by_key = dict(zip(got, out.summaries))
        per_call = []
        for classifier, strategy in expected:
            m = by_key[(classifier, strategy)]
            scored = m.per_instance_auc[~np.isnan(m.per_instance_auc)]
            # A setting whose instances were all skipped has a NaN mean.
            mean_ok = 0.0 <= m.mean <= 1.0 if scored.size else math.isnan(m.mean)
            problem = ""
            if ((scored < 0.0) | (scored > 1.0)).any() or not mean_ok:
                problem = "an AUC lies outside [0, 1]"
            elif m.n_skipped != by_key[(classifier, "baseline")].n_skipped:
                problem = "skip count differs from the other strategies'"
            elif strategy == "baseline" and scored.size and not (
                (scored == 0.5).all() and m.mean == 0.5
            ):
                problem = "baseline AUC is not exactly 0.5"
            if problem:
                per_call.append(f"{classifier}/{strategy}: {problem}")
        output = []
        if self.reference_csv is None:
            self.reference_csv = csv_bytes
        if csv_bytes != self.reference_csv:
            output.append("results CSV differs between repeats of the protocol")
        if csv_bytes.count(b"\n") != len(expected) + 1:
            output.append("results CSV does not hold one row per setting")
        if out.table.count("\n") != len(expected) + 2:
            output.append("results table does not hold one row per setting")
        return per_call, output

    def strategy_auc(self, out: EvaluateOutput, strategy: str) -> float:
        """Mean over the classifiers of the strategy's mean sphere AUC."""
        means = [m.mean for m in out.summaries if m.strategy == strategy]
        means = [v for v in means if not math.isnan(v)]
        return float(np.mean(means)) if means else float("nan")

    def inspect(self, out: EvaluateOutput) -> Record:
        with open(out.csv_path, "rb") as fh:
            csv_bytes = fh.read()
        os.remove(out.csv_path)
        per_call, output = self.problems(out, csv_bytes)
        for problem in per_call + output:
            report_problem(out.index, problem)
        return Record(
            out.index,
            self.checks_per_op,
            len(per_call) + int(bool(output)),
            {"results_csv": csv_bytes, "results_table": out.table.encode()}
            if out.index == 0
            else {},
            {
                "fidelity_leafage": self.strategy_auc(out, "leafage"),
                "fidelity_lime": self.strategy_auc(out, "lime"),
                "skipped": sum(
                    m.n_skipped for m in out.summaries if m.strategy == "leafage"
                ),
            },
        )

    def headline(
        self, latencies: list[float], records: list[Record], strategy_s: dict
    ) -> dict:
        return {
            "evaluate_s": (float(np.median(latencies)), "s"),
            "evaluate_leafage_s": (strategy_s["evaluate_leafage_s"], "s"),
            "evaluate_lime_s": (strategy_s["evaluate_lime_s"], "s"),
            "fidelity_leafage_auc": (mean_of(records, "fidelity_leafage"), "auc"),
            "fidelity_lime_auc": (mean_of(records, "fidelity_lime"), "auc"),
            "samples": (len(latencies), "count"),
        }

    def fidelity(self, records: list[Record]) -> float:
        return mean_of(records, "fidelity_leafage")

    def layer_totals(self, records: list[Record]) -> dict[str, float]:
        return {"evaluation.skipped": sum(r.values["skipped"] for r in records)}


WORKLOADS = {
    "explain-rf-10k": ExplainWorkload,
    "evaluate-ad": EvaluateWorkload,
    "explain-external-2k": ExternalExplainWorkload,
}
