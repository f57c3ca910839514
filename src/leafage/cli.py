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
import json
import os
import sys

import numpy as np

from . import models
from .core import LeafageConfig, explain
from .data import (
    Dataset,
    SplitSpec,
    generate_artificial,
    load_csv,
    one_vs_rest,
    save_csv,
    train_test_split,
)
from .errors import DataError, ExplanationError, LeafageError, ModelError
from .evaluation import (
    KNOWN_STRATEGIES,
    STRATEGIES,
    FidelityConfig,
    FidelitySummary,
    results_table,
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


def _load_dataset(
    token: str, label_column: str, n_per_class: int, seed: int
) -> Dataset:
    if token == "ad":
        return generate_artificial(n_per_class, seed)
    return load_csv(token, label_column)


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
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise DataError("instance feature values must fit in a double") from None


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
    exp.add_argument("--model", choices=models.CANONICAL_ALGORITHMS, default="rf")
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
        default=",".join(models.CANONICAL_ALGORITHMS),
        help="comma-separated subset of " + ",".join(models.CANONICAL_ALGORITHMS),
    )
    ev.add_argument(
        "--strategies",
        default=",".join(STRATEGIES),
        help="comma-separated subset of " + ",".join(KNOWN_STRATEGIES),
    )
    ev.add_argument("--p", type=float, default=0.95)
    ev.add_argument("--alpha", type=float, default=0.05)
    ev.add_argument("--train-fraction", type=float, default=0.7)
    ev.add_argument("--stratified", action="store_true")
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


def cmd_gen_ad(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    ds = generate_artificial(args.n_per_class, seed)
    save_csv(ds, args.out)
    print(f"wrote {ds.n} rows to {args.out}")
    return EXIT_OK


def _check_output_dirs(*paths: str | None) -> None:
    """Fail before any work when an output's directory does not exist."""
    for path in filter(None, paths):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise DataError(f"cannot write {path}: no such directory")


def cmd_explain(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    cfg = LeafageConfig(i_small=args.i_small, k_examples=args.k, seed=seed)
    _check_output_dirs(args.out, args.svg)
    ds = _load_dataset(args.train, args.label_column, args.n_per_class, seed)
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
    seeds = args.seed or [_resolve_seed(None)]
    datasets = _comma_list(args.datasets)
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
            f"choose from {models.CANONICAL_ALGORITHMS}"
        )
    if not 0.0 < args.alpha < 1.0:
        raise DataError("alpha must lie strictly between 0 and 1")
    _check_output_dirs(args.out, args.table)

    # Each setting's per-instance AUCs, concatenated in seed order.  Skips
    # are shared by all strategies within a seed, so the pooled vectors of
    # one setting stay aligned for the paired significance test.
    pooled: dict[tuple[str, str, str, str], list[np.ndarray]] = {}
    for seed in seeds:
        leafage_cfg = LeafageConfig(i_small=args.i_small, seed=seed)
        lime_cfg = LimeConfig(n_samples=args.lime_samples, seed=seed)
        fidelity_cfg = FidelityConfig(p=args.p, seed=seed)
        split = SplitSpec(
            train_fraction=args.train_fraction, seed=seed, stratified=args.stratified
        )
        for token in datasets:
            ds = _load_dataset(token, args.label_column, args.n_per_class, seed)
            for binary in _binary_variants(ds):
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
    write_results_csv(summaries, args.out, alpha=args.alpha)
    table = results_table(summaries, alpha=args.alpha)
    if args.table:
        with open(args.table, "w", encoding="utf-8") as fh:
            fh.write(table)
    else:
        print(table, end="")
    print(f"wrote {len(summaries)} setting rows to {args.out}")
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    report = load_report(args.report)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(render_svg(report))
    print(f"wrote SVG to {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen-ad":
            return cmd_gen_ad(args)
        if args.command == "explain":
            return cmd_explain(parser, args)
        if args.command == "evaluate":
            return cmd_evaluate(parser, args)
        return cmd_render(args)
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
    except LeafageError as exc:
        print(f"leafage: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
