"""Benchmark of the leafage package.

Measures what the package's two kinds of user wait for: one explanation
(``explain-rf-10k``, ``explain-external-2k``) and one run of the fidelity
protocol (``evaluate-ad``).  Run from the repository root:

    python3 perfbench/run.py --workload explain-rf-10k --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35

``--trace 0`` measures end to end with no tracing.  ``--trace 1`` splits the
time into an untraced half and a half with span wrappers installed around
the package's public functions, and reports per-layer metrics plus the
tracing overhead.  ``--workload all`` runs every workload traced, each in
its own process.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import os

# numpy's BLAS on one thread, set before numpy loads: the load then comes
# from one thread, and a shared machine's scheduler does not decide how
# BLAS threads interleave with the benchmark's.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import functools
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Per-layer metrics that are one layer's self time per operation.
SELF_TIME_METRICS = {
    "models.predict.s": "models.predict",
    "models.fit.s": "models.fit",
    "data.transform.s": "data.transform",
    "core.explain.self_s": "core.explain",
    "core.closest_enemy.s": "core.closest_enemy",
    "core.sample_local.s": "core.sample_local",
    "core.fit_local.s": "core.fit_local",
    "core.logistic_fit.s": "core.logistic_fit",
    "core.retrieve.s": "core.retrieve",
    "core.importances.s": "core.importances",
    "lime.sample.s": "lime.sample",
    "lime.fit.self_s": "lime.fit",
    "evaluation.run_setting.self_s": "evaluation.run_setting",
    "evaluation.sphere.s": "evaluation.sphere",
    "evaluation.auc.s": "evaluation.auc",
    "evaluation.bold_flags.s": "evaluation.bold_flags",
    "evaluation.output.s": "evaluation.output",
    "report.build.s": "report.build",
    "report.validate.s": "report.validate",
    "report.svg.s": "report.svg",
}


# Counts a workload takes from its own outputs or from the external child;
# 0 where the workload has none.
WORKLOAD_TOTALS = (
    "core.shortfall.count",
    "evaluation.skipped",
    "external.bytes_sent",
    "external.bytes_received",
    "external.child_busy_s",
)


def import_workloads():
    """Import the workloads against the checkout's own ``src``."""
    if not (SRC / "leafage" / "__init__.py").is_file():
        sys.exit(f"perfbench: no leafage package under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import leafage

    if Path(leafage.__file__).resolve().parent != SRC / "leafage":
        sys.exit(f"perfbench: imported leafage from {leafage.__file__}, not {SRC}")
    import workloads

    return workloads


@dataclass
class Phase:
    """One closed loop with one client: the timed segments of every
    operation, the record of every operation and which ones completed."""

    meter: speed.SpeedMeter = field(default_factory=speed.SpeedMeter)
    records: list = field(default_factory=list)
    completed: list[int] = field(default_factory=list)

    def latencies(self, reference: bool = True) -> list[float]:
        """Seconds of each completed operation, at reference speed or as
        measured."""
        per_op = self.meter.totals("owners", reference)
        return [per_op[i] for i in self.completed]


class Runner:
    """Runs a workload's operations and checks each output after it."""

    def __init__(self, wl, record_type, tamper=None):
        self.wl = wl
        self.record_type = record_type
        self.tamper = tamper

    def run(
        self, i: int, meter: speed.SpeedMeter, traced: bool = False
    ) -> tuple[object, bool]:
        """(record, completed); not completed when the operation raised.

        Untraced, the operation may end segments itself
        (``split(label, at_least)``); traced, it gets no ``split``, so that
        no calibration runs inside a span.  The last segment, labelled
        ``"op"``, ends when the operation returns.
        """
        meter.start()
        split = None if traced else functools.partial(meter.split, i)
        try:
            out = self.wl.operation(i, split)
        except Exception:  # a raising operation is counted as failed
            meter.split(i, "op")
            traceback.print_exc(file=sys.stderr)
            n = self.wl.checks_per_op
            return self.record_type(i, n, n), False
        meter.split(i, "op")
        if self.tamper is not None:
            self.tamper(out)
        return self.wl.inspect(out), True

    def closed_loop(self, seconds: float, tracer=None) -> Phase:
        """Operations back to back for ``seconds``, at least one and at most
        the workload's ``max_ops``."""
        phase = Phase()
        start = time.perf_counter()
        limit = self.wl.max_ops
        while not phase.records or (
            time.perf_counter() - start < seconds
            and (limit is None or len(phase.records) < limit)
        ):
            i = len(phase.records)
            if tracer is not None:
                tracer.op = i
            record, completed = self.run(i, phase.meter, tracer is not None)
            phase.records.append(record)
            if completed:
                phase.completed.append(i)
        return phase


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                line.split(":", 1)[1].strip()
                for line in fh
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(tracer: tracing.Tracer, n_ops: int, totals: dict) -> dict:
    """Per-layer metrics of one traced phase, per operation.

    ``totals`` holds the workload's own counts over the phase (bytes, busy
    time, skips, shortfalls); they are divided by the operation count too.
    """
    stats = tracer.layers()

    def layer(name: str) -> tracing.LayerStats:
        return stats.get(name, tracing.LayerStats())

    predict = layer("models.predict")
    logistic = layer("core.logistic_fit")
    external = layer("external.predict")
    rtt = external.durations
    busy = totals.get("external.child_busy_s", 0.0)
    counts = {
        **{metric: layer(name).self_s for metric, name in SELF_TIME_METRICS.items()},
        **{name: totals.get(name, 0.0) for name in WORKLOAD_TOTALS},
        "models.predict.calls": predict.calls,
        "models.predict.rows": predict.rows,
        "core.logistic_fit.calls": logistic.calls,
        "core.logistic_fit.rows": logistic.rows,
        "core.degenerate.count": layer("core.fit_local").degenerate,
        "lime.degenerate.count": layer("lime.fit").degenerate,
        "external.round_trips": external.calls,
        "external.ipc_s": sum(rtt) - busy if rtt else 0.0,
        "trace.spans": len(tracer.spans),
    }
    out = {name: value / n_ops for name, value in counts.items()}
    out["models.predict.us_per_row"] = (
        predict.self_s / predict.rows * 1e6 if predict.rows else 0.0
    )
    rows = external.row_counts
    out["external.rtt_p50_ms"] = median_ms(rtt)
    out["external.rtt_1row_p50_ms"] = median_ms(
        [d for d, r in zip(rtt, rows) if r == 1]
    )
    out["external.rtt_batch_p50_ms"] = median_ms(
        [d for d, r in zip(rtt, rows) if r > 1]
    )
    out["trace.absent"] = float(len(tracer.absent))
    return out


def digests(records: list) -> dict[str, str]:
    """sha256 per digest name over the bytes the records contribute."""
    hashes = {}
    for record in records:
        for name, blob in record.digest.items():
            hashes.setdefault(name, hashlib.sha256()).update(blob)
    return {name: h.hexdigest() for name, h in hashes.items()}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    tamper=None,
) -> dict:
    """Set up, measure and check one workload; returns the result object.

    ``tamper``, when given, edits each output before it is checked; the
    self-test uses it to show that a corrupted output is counted as failed.
    """
    wl_module = import_workloads()
    env = environment(name, seed, seconds, int(trace))  # before any CPU pinning
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    wl = wl_module.WORKLOADS[name](seed, scale, workdir)
    try:
        # Set-up is timed as measured: it is one block of seconds, over
        # which the machine's speed changes too often for calibration
        # around it to follow.
        setups = []
        for repeat in range(wl.setup_repeats):
            if repeat:
                wl.close()
            gc.collect()
            start = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - start)
        setup_s = statistics.median(setups)
        wl.prepare()
        runner = Runner(wl, wl_module.Record, tamper)

        phase_s = seconds / 2 if trace else seconds
        gc.collect()
        plain = runner.closed_loop(phase_s)
        # The digest covers a fixed prefix of operations; run any the timed
        # loop did not reach, untimed.
        while len(plain.records) < wl.digest_ops:
            plain.records.append(runner.run(len(plain.records), speed.SpeedMeter())[0])
        records = list(plain.records)
        if trace:
            wl.before_traced()
            gc.collect()
            with tracing.Tracer() as tracer:
                traced = runner.closed_loop(phase_s, tracer)
            child_totals = wl.after_traced()
            records += traced.records
        latencies = plain.latencies()
        if not latencies:
            sys.exit(f"perfbench: every {name} operation failed")

        attempted = sum(r.attempted for r in records)
        failed = sum(r.failed for r in records)
        per_label = plain.meter.totals("labels", True)
        strategy_s = {
            f"evaluate_{s}_s": per_label.get(s, 0.0) / len(set(plain.meter.owners))
            for s in ("leafage", "lime")
        }
        measured = plain.latencies(reference=False)
        headline = {
            "setup_s": (setup_s, "s"),
            **wl.headline(latencies, plain.records, strategy_s),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "failed_frac": (failed / attempted, "ratio"),
            "measured_op_p50_ms": (wl_module.percentile(measured, 0.5) * 1e3, "ms"),
            "calibration_ms": (plain.meter.median_calibration() * 1e3, "ms"),
        }
        result = {
            "environment": env,
            "headline": headline,
            "digests": digests(plain.records),
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
        }
        if trace:
            totals = {**wl.layer_totals(traced.records), **child_totals}
            layers = layer_metrics(tracer, len(traced.records), totals)
            layers.update(strategy_s)
            layers["calibration.ms"] = headline["calibration_ms"][0]
            layers["op.measured_p50_ms"] = headline["measured_op_p50_ms"][0]
            untraced_p50 = statistics.median(latencies)
            traced_latencies = traced.latencies()
            traced_p50 = (
                statistics.median(traced_latencies) if traced_latencies else untraced_p50
            )
            layers["trace.overhead_ms"] = (traced_p50 - untraced_p50) * 1e3
            layers["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1.0) * 100.0
            result["metrics"] = layers
            result["absent"] = tracer.absent
        else:
            result["metrics"] = {
                "setup_s": setup_s,
                "op_p50_ms": wl_module.percentile(latencies, 0.5) * 1e3,
                "op_p90_ms": wl_module.percentile(latencies, 0.9) * 1e3,
                "ops_per_s": len(latencies) / sum(latencies),
                "fidelity_auc": wl.fidelity(plain.records),
                "peak_rss_mb": headline["peak_rss_mb"][0],
            }
        return result
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_result(result: dict, trace: bool) -> None:
    print("env " + json.dumps(result["environment"], sort_keys=True))
    for name, (value, unit) in result["headline"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, digest in result["digests"].items():
        print(f"digest {name} sha256={digest}")
    units = declared_units(trace)
    kind = "layer" if trace else "end_to_end"
    for name, unit in units.items():
        print(f"{kind} {name} = {result['metrics'][name]:.6g} {unit}")
    for target in result.get("absent", []):
        print(f"layer absent: {target} (no such binding; its metrics read 0)")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload, traced, each in its own process so that peak memory
    is per workload."""
    status = 0
    for name in names:
        print(f"== {name}", flush=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", "1"]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    names = list(import_workloads().WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
