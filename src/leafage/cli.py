"""Command-line entry points.

Subcommands: ``gen-ad`` (write the synthetic two-normal dataset),
``explain`` (one instance -> JSON report, optional SVG), ``evaluate``
(the fidelity protocol over one or more seeds -> CSV + text table) and
``render`` (report JSON -> SVG).  Exit codes: 0 ok, 2 usage, 3 data,
4 model, 5 explanation.  ``LEAFAGE_SEED`` provides the seed when
``--seed`` is omitted.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from collections.abc import Sequence

import numpy as np

from . import models
from .core import LeafageConfig, explain
from .data import (
    Dataset,
    SplitSpec,
    check_fraction,
    float_array,
    generate_artificial,
    load_csv,
    one_vs_rest,
    save_csv,
    train_test_split,
)
from .errors import DataError, ExplanationError, ModelError
from .evaluation import (
    KNOWN_STRATEGIES,
    STRATEGIES,
    FidelityConfig,
    FidelitySummary,
    _table_text,
    run_setting,
    write_results_csv,
)
from .lime import LimeConfig
from .report import build_report, is_number, load_report, render_svg, write_report

EXIT_OK = 0
EXIT_DATA = 3
EXIT_MODEL = 4
EXIT_EXPLANATION = 5

DEFAULT_N_PER_CLASS = 250


def _seed(text: str) -> int:
    """A seed from ``--seed`` or ``LEAFAGE_SEED``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return value


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    try:
        return _seed(os.environ.get("LEAFAGE_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise DataError(f"LEAFAGE_SEED {exc}") from None


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_instance(
    parser: argparse.ArgumentParser, ds: Dataset, selector: str
) -> np.ndarray:
    try:
        index = int(selector)
    except ValueError:
        index = None
    if index is not None:
        if not 0 <= index < ds.n:
            raise DataError(f"instance index {index} out of range 0..{ds.n - 1}")
        return ds.features[index].copy()
    try:
        mapping = json.loads(selector)
    except json.JSONDecodeError:
        parser.error(
            f"--instance must be a row index or a JSON feature map, got {selector!r}"
        )
    if not isinstance(mapping, dict):
        parser.error("--instance JSON must be an object of feature: value pairs")
    missing = [c for c in ds.column_names if c not in mapping]
    extra = [c for c in mapping if c not in ds.column_names]
    if missing or extra:
        raise DataError(
            f"instance features do not match dataset columns "
            f"(missing {missing}, unknown {extra})"
        )
    values = [mapping[c] for c in ds.column_names]
    if not all(map(is_number, values)):
        raise DataError("instance feature values must be numbers")
    return float_array(values, "instance feature values", DataError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leafage",
        description="Local explanations for black-box binary classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-ad", help="write the artificial dataset as CSV")
    gen.add_argument("--n-per-class", type=int, default=DEFAULT_N_PER_CLASS)
    gen.add_argument("--seed", type=_seed, default=None)
    gen.add_argument("--out", required=True)

    exp = sub.add_parser("explain", help="explain one prediction")
    exp.add_argument("--train", required=True, help="training CSV path or 'ad'")
    exp.add_argument("--label-column", default="label")
    exp.add_argument("--model", choices=models.ALGORITHMS, default="rf")
    exp.add_argument(
        "--instance",
        required=True,
        help="training-row index or inline JSON feature map",
    )
    exp.add_argument("--i-small", type=int, default=10)
    exp.add_argument("--k", type=int, default=5)
    exp.add_argument("--seed", type=_seed, default=None)
    exp.add_argument("--n-per-class", type=int, default=DEFAULT_N_PER_CLASS)
    exp.add_argument("--out", required=True, help="report JSON path")
    exp.add_argument("--svg", default=None, help="optional SVG rendering path")

    ev = sub.add_parser("evaluate", help="run the local-fidelity protocol")
    ev.add_argument(
        "--datasets",
        default="ad",
        help="comma-separated CSV paths and/or 'ad'",
    )
    ev.add_argument("--label-column", default="label")
    ev.add_argument(
        "--classifiers",
        default=",".join(models.ALGORITHMS),
        help="comma-separated subset of " + ",".join(models.ALGORITHMS),
    )
    ev.add_argument(
        "--strategies",
        default=",".join(STRATEGIES),
        help="comma-separated subset of " + ",".join(KNOWN_STRATEGIES),
    )
    ev.add_argument("--p", type=float, default=0.95)
    ev.add_argument("--alpha", type=float, default=0.05)
    ev.add_argument("--train-fraction", type=float, default=0.7)
    ev.add_argument("--i-small", type=int, default=10)
    ev.add_argument("--lime-samples", type=int, default=5000)
    ev.add_argument("--n-per-class", type=int, default=DEFAULT_N_PER_CLASS)
    ev.add_argument(
        "--seed",
        type=_seed,
        nargs="+",
        default=None,
        help="one or more distinct seeds, their per-instance AUCs pooled",
    )
    ev.add_argument("--out", required=True, help="results CSV path")
    ev.add_argument("--table", default=None, help="text table path (default stdout)")

    ren = sub.add_parser("render", help="render a report JSON as SVG")
    ren.add_argument("--report", required=True)
    ren.add_argument("--out", required=True)
    return parser


def _check_outputs(
    parser: argparse.ArgumentParser,
    outputs: list[tuple[str, str | None]],
    inputs: Sequence[tuple[str, str]] = (),
) -> None:
    """Check each output before any work: a usage error when it names an
    input or another output, a data error when its directory is missing.

    Each entry is an (option, path) pair; an output path of None is not
    written.  Paths are compared after resolving links and ``..``.
    """
    claimed = {os.path.realpath(path): option for option, path in inputs}
    for option, path in outputs:
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in claimed:
            parser.error(f"{option} {path} names the same file as {claimed[real]}")
        claimed[real] = option
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise DataError(f"cannot write {path}: {os.strerror(errno.ENOENT)}")


def cmd_gen_ad(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_outputs(parser, [("--out", args.out)])
    ds = generate_artificial(args.n_per_class, _resolve_seed(args.seed))
    save_csv(ds, args.out)
    print(f"wrote {ds.n} rows to {args.out}")
    return EXIT_OK


def cmd_explain(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_outputs(
        parser,
        [("--out", args.out), ("--svg", args.svg)],
        [("--train", args.train)] if args.train != "ad" else [],
    )
    seed = _resolve_seed(args.seed)
    cfg = LeafageConfig(i_small=args.i_small, k_examples=args.k)
    if args.train == "ad":
        ds = generate_artificial(args.n_per_class, seed)
    else:
        ds = load_csv(args.train, args.label_column)
    z = _parse_instance(parser, ds, args.instance)
    model = models.fit_on_standardized(args.model, ds, seed=seed)
    explanation = explain(model.model, ds, z, cfg, standardizer=model.standardizer)
    report = build_report(explanation, ds, model.model.descriptor, seed=seed)
    svg = render_svg(report) if args.svg else None
    write_report(report, args.out)
    if svg is not None:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    print(f"wrote explanation report to {args.out}")
    return EXIT_OK


def _binary_variants(ds: Dataset) -> list[Dataset]:
    if len(ds.class_names) == 2:
        return [ds]
    return [one_vs_rest(ds, name) for name in ds.class_names]


def cmd_evaluate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    datasets = _comma_list(args.datasets)
    _check_outputs(
        parser,
        [("--out", args.out), ("--table", args.table)],
        [("--datasets", token) for token in datasets if token != "ad"],
    )
    seeds = args.seed or [_resolve_seed(None)]
    classifiers = _comma_list(args.classifiers)
    strategies = tuple(_comma_list(args.strategies))
    # An empty list runs nothing; a repeated value pools its instances twice.
    for option, values in (
        ("--seed", seeds),
        ("--datasets", datasets),
        ("--classifiers", classifiers),
        ("--strategies", strategies),
    ):
        if not values:
            parser.error(f"{option} needs at least one value")
        if len(set(values)) != len(values):
            parser.error(f"{option} values must be distinct, got {list(values)}")
    unknown = [c for c in classifiers if c not in models.ALGORITHMS]
    if unknown:
        raise ModelError(
            f"unknown classifier {unknown[0]!r}; "
            f"choose from {tuple(models.ALGORITHMS)}"
        )
    check_fraction("alpha", args.alpha)
    leafage_cfg = LeafageConfig(i_small=args.i_small)
    fidelity_cfg = FidelityConfig(p=args.p)

    # Every CSV is read once, before the first setting runs; ``ad`` is
    # drawn per seed.
    csv_variants = {
        token: _binary_variants(load_csv(token, args.label_column))
        for token in datasets
        if token != "ad"
    }

    # Each setting's per-instance AUCs, concatenated in seed order.  Skips
    # are shared by all strategies within a seed, so the pooled vectors of
    # one setting stay aligned for the paired significance test.
    pooled: dict[tuple[str, str, str, str], list[np.ndarray]] = {}
    for seed in seeds:
        lime_cfg = LimeConfig(n_samples=args.lime_samples, seed=seed)
        split = SplitSpec(train_fraction=args.train_fraction, seed=seed)
        for token in datasets:
            if token == "ad":
                variants = _binary_variants(generate_artificial(args.n_per_class, seed))
            else:
                variants = csv_variants[token]
            for binary in variants:
                train, test = train_test_split(binary, split)
                for classifier in classifiers:
                    for summary in run_setting(
                        train,
                        test,
                        classifier,
                        strategies,
                        leafage_cfg=leafage_cfg,
                        lime_cfg=lime_cfg,
                        fidelity_cfg=fidelity_cfg,
                        model_seed=seed,
                    ):
                        pooled.setdefault(summary.setting, []).append(
                            summary.per_instance_auc
                        )
    summaries = [
        FidelitySummary(setting, np.concatenate(parts))
        for setting, parts in pooled.items()
    ]
    # The CSV and the table share one set of significance tests.
    flags = write_results_csv(summaries, args.out, alpha=args.alpha)
    table = _table_text(summaries, flags)
    if args.table:
        with open(args.table, "w", encoding="utf-8") as fh:
            fh.write(table)
    else:
        print(table, end="")
    print(f"wrote {len(summaries)} setting rows to {args.out}")
    return EXIT_OK


def cmd_render(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_outputs(parser, [("--out", args.out)], [("--report", args.report)])
    svg = render_svg(load_report(args.report))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote SVG to {args.out}")
    return EXIT_OK


COMMANDS = {
    "gen-ad": cmd_gen_ad,
    "explain": cmd_explain,
    "evaluate": cmd_evaluate,
    "render": cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](parser, args)
    except DataError as exc:
        print(f"leafage: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # reads raise DataError, so this is an output
        print(
            f"leafage: data error: cannot write {exc.filename or 'output'}: "
            f"{exc.strerror}",
            file=sys.stderr,
        )
        return EXIT_DATA
    except ModelError as exc:
        print(f"leafage: model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ExplanationError as exc:
        print(f"leafage: explanation error: {exc}", file=sys.stderr)
        return EXIT_EXPLANATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
