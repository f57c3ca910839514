#!/usr/bin/env python3
"""Fidelity comparison on the artificial dataset across all six classifiers.

Runs the full protocol (explanation strategies x classifiers) on the
two-normal synthetic dataset, optionally over several seeds with the
median per setting, and prints the aligned results table.

    python scripts/run_ad_experiments.py --seeds 0 1 2 --out results.csv
"""
import argparse
import sys

import numpy as np

from leafage.data import SplitSpec, generate_artificial, train_test_split
from leafage.evaluation import (
    STRATEGIES,
    FidelitySummary,
    results_table,
    run_setting,
    write_results_csv,
)
from leafage.models import CANONICAL_ALGORITHMS


def median_summary(per_seed: list[FidelitySummary]) -> FidelitySummary:
    """Representative run: the seed whose mean is the median of the means."""
    means = np.array([s.mean for s in per_seed])
    pick = int(np.argsort(means, kind="stable")[len(means) // 2])
    return per_seed[pick]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-per-class", type=int, default=250)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--classifiers", nargs="+", default=list(CANONICAL_ALGORITHMS))
    parser.add_argument("--p", type=float, default=0.95)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--out", default=None, help="optional results CSV path")
    args = parser.parse_args(argv)

    collected: dict[tuple, list[FidelitySummary]] = {}
    for seed in args.seeds:
        ds = generate_artificial(args.n_per_class, seed=seed)
        train, test = train_test_split(ds, SplitSpec(seed=seed))
        for classifier in args.classifiers:
            for summary in run_setting(
                train, test, classifier, STRATEGIES, model_seed=seed
            ):
                collected.setdefault(summary.setting, []).append(summary)
        print(f"seed {seed} done", file=sys.stderr)

    summaries = [median_summary(group) for group in collected.values()]
    print(results_table(summaries, alpha=args.alpha), end="")
    if args.out:
        write_results_csv(summaries, args.out, alpha=args.alpha)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
