"""Byte-level goldens for the CLI outputs of every reference classifier.

A small fidelity protocol run (all four strategies over the six black
boxes) and one ``explain`` report per black box are compared with files
under ``tests/golden/``.  Set ``GOLDEN_UPDATE=1`` to rewrite them; do so
only for a change that is meant to alter the outputs.
"""
import os
from pathlib import Path

import pytest

from leafage.cli import main
from leafage.models import CANONICAL_ALGORITHMS

GOLDEN_DIR = Path(__file__).parent / "golden"


def check_golden(produced: Path, name: str) -> None:
    golden = GOLDEN_DIR / name
    if os.environ.get("GOLDEN_UPDATE") == "1":
        golden.write_bytes(produced.read_bytes())
    assert produced.read_bytes() == golden.read_bytes(), f"{name} differs"


def test_evaluate_all_strategies(tmp_path):
    out = tmp_path / "results.csv"
    table = tmp_path / "results.txt"
    code = main(
        ["evaluate", "--datasets", "ad", "--seed", "3", "--n-per-class", "60",
         "--lime-samples", "500",
         "--strategies", "leafage,lime,baseline,lime-quartile",
         "--out", str(out), "--table", str(table)]
    )
    assert code == 0
    check_golden(out, "evaluate_seed3.csv")
    check_golden(table, "evaluate_seed3.txt")


@pytest.mark.parametrize("model", CANONICAL_ALGORITHMS)
def test_explain_report(tmp_path, model):
    out = tmp_path / "report.json"
    code = main(
        ["explain", "--train", "ad", "--instance", "5", "--seed", "2",
         "--n-per-class", "60", "--model", model, "--out", str(out)]
    )
    assert code == 0
    check_golden(out, f"explain_{model}.json")
