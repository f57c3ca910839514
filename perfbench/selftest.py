"""Self-test of the benchmark, on tiny inputs.

    python3 perfbench/selftest.py

Checks that:

- every workload, untraced and traced, runs clean (no failed check) and
  reports exactly the metrics BENCHMARK.json declares for the mode;
- corrupting a workload's outputs before they are checked raises
  ``failed`` above 0;
- a trace target that no longer exists is reported absent, and every
  wrapped binding is restored afterwards;
- the evaluate workload cuts its timed segments and restores the binding
  it wraps to do so;
- the evaluate workload's results CSV is byte-identical to what
  ``leafage evaluate`` writes for the same inputs.

Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import hashlib
import io
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout

import numpy as np

import run
import tracing

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'PASS' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def corrupt_explain(out) -> None:
    """Swap an ally with an enemy in operation 0; put a NaN in operation 1."""
    explanation = out.explanation
    if out.index == 0:
        explanation.allies[0], explanation.enemies[0] = (
            explanation.enemies[0],
            explanation.allies[0],
        )
    elif out.index == 1:
        out.report["importances"][0]["importance"] = float("nan")


def corrupt_evaluate(out) -> None:
    """Push one LIME AUC out of [0, 1] and one baseline AUC off 0.5."""
    for summary in out.summaries[:6]:
        scored = np.flatnonzero(~np.isnan(summary.per_instance_auc))
        if summary.strategy == "lime":
            summary.per_instance_auc[scored[0]] = 1.5
        elif summary.strategy == "baseline":
            summary.per_instance_auc[scored[0]] = 0.49


CORRUPTORS = {
    "explain-rf-10k": corrupt_explain,
    "evaluate-ad": corrupt_evaluate,
    "explain-external-2k": corrupt_explain,
}


def check_workloads() -> None:
    for name in run.import_workloads().WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(name, 0, 0.2, trace, scale="tiny")
            label = f"{name} trace={int(trace)}"
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                f"{label}: clean run has no failed check",
            )
            expect(
                set(result["metrics"]) == set(run.declared_units(trace)),
                f"{label}: reports exactly the declared metrics",
            )
        result = run.run_workload(name, 0, 0.2, False, "tiny", CORRUPTORS[name])
        expect(
            result["failed"] > 0 and not result["correct"],
            f"{name}: corrupted outputs raise failed_frac to "
            f"{result['failed']}/{result['attempted']}",
        )


def check_absent_target() -> None:
    import leafage.core

    original = leafage.core.closest_enemy
    targets = tracing.TARGETS + (
        tracing.Target("gone", "leafage.core", "no_such_function"),
        tracing.Target("gone", "leafage.no_such_module", "anything"),
    )
    with tracing.Tracer(targets) as tracer:
        wrapped = leafage.core.closest_enemy is not original
    expect(
        wrapped and len(tracer.absent) == 2,
        f"missing targets are reported absent: {tracer.absent}",
    )
    expect(leafage.core.closest_enemy is original, "bindings restored after tracing")


def check_segments() -> None:
    import leafage.evaluation
    import workloads

    original = leafage.evaluation.fidelity_sphere
    cuts = []

    def split(label: str, at_least: float) -> None:
        cuts.append(label)

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    wl = workloads.EvaluateWorkload(0, "tiny", workdir)
    try:
        wl.setup()
        wl.operation(0, split)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expect(
        len(cuts) > len(workloads.CLASSIFIERS) * len(workloads.STRATEGIES)
        and set(cuts) == set(workloads.STRATEGIES),
        f"evaluate cuts {len(cuts)} segments labelled by strategy",
    )
    expect(
        leafage.evaluation.fidelity_sphere is original,
        "evaluate restores fidelity_sphere after cutting segments",
    )


def check_csv_matches_cli() -> None:
    from leafage import cli
    from workloads import EvaluateWorkload

    n_per_class, lime_samples = EvaluateWorkload.sizes["tiny"]
    result = run.run_workload("evaluate-ad", 3, 0.2, False, scale="tiny")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as tmp:
        csv_path = os.path.join(tmp, "results.csv")
        argv = ["evaluate", "--datasets", "ad", "--seed", "3"]
        argv += ["--n-per-class", str(n_per_class), "--lime-samples", str(lime_samples)]
        argv += ["--out", csv_path, "--table", os.path.join(tmp, "table.txt")]
        with redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        with open(csv_path, "rb") as fh:
            cli_digest = hashlib.sha256(fh.read()).hexdigest()
    expect(
        status == 0 and cli_digest == result["digests"]["results_csv"],
        "evaluate-ad results CSV is byte-identical to the CLI's",
    )


def main() -> int:
    check_workloads()
    check_absent_target()
    check_segments()
    check_csv_matches_cli()
    print(f"{len(FAILURES)} self-test check(s) failed" if FAILURES else "self-test passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
