"""Byte-level goldens for the CLI outputs of every reference classifier.

The default fidelity protocol run on ``ad`` with seed 0 (also with numpy's
AVX-512 kernels, and then every dispatched kernel, switched off, and with
OpenBLAS's Haswell kernels in place of the ones it picks), a small
run of all four strategies over the six black boxes, and one ``explain``
report per black box are compared with files under ``tests/golden/``.  Set
``GOLDEN_UPDATE=1`` to rewrite them; do so only for a change that is meant
to alter the outputs.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import __cpu_dispatch__, __cpu_features__
import leafage
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


def test_evaluate_default_protocol(tmp_path):
    out = tmp_path / "results.csv"
    table = tmp_path / "results.txt"
    code = main(
        ["evaluate", "--datasets", "ad", "--seed", "0",
         "--out", str(out), "--table", str(table)]
    )
    assert code == 0
    check_golden(out, "evaluate_ad_seed0.csv")
    check_golden(table, "evaluate_ad_seed0.txt")


DISPATCH_OFF = {
    "avx512": ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
    "baseline": tuple(__cpu_dispatch__),
}


@pytest.mark.parametrize("mode", ["avx512", "baseline", "haswell"])
def test_evaluate_default_protocol_without_avx512(tmp_path, mode):
    # numpy picks its SIMD kernels (np.exp among them) at import, and
    # OpenBLAS its gemm and gemv kernels at load; the protocol's bytes must
    # depend neither on numpy's AVX-512 kernels, nor on any numpy kernel
    # above the build's baseline, nor on OpenBLAS's kernels for AVX2 hosts.
    env = dict(os.environ)
    if mode == "haswell":
        if not __cpu_features__.get("AVX2"):
            pytest.skip("this CPU cannot run OpenBLAS's Haswell kernels")
        env["OPENBLAS_CORETYPE"] = "Haswell"
    else:
        disabled = [f for f in DISPATCH_OFF[mode] if __cpu_features__.get(f)]
        if not disabled:
            pytest.skip("this CPU runs none of these dispatch targets")
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    src = str(Path(leafage.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "results.csv"
    table = tmp_path / "results.txt"
    run = subprocess.run(
        [sys.executable, "-m", "leafage.cli", "evaluate", "--datasets", "ad",
         "--seed", "0", "--out", str(out), "--table", str(table)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    assert out.read_bytes() == (GOLDEN_DIR / "evaluate_ad_seed0.csv").read_bytes()
    assert table.read_bytes() == (GOLDEN_DIR / "evaluate_ad_seed0.txt").read_bytes()


@pytest.mark.parametrize("model", CANONICAL_ALGORITHMS)
def test_explain_report(tmp_path, model):
    out = tmp_path / "report.json"
    code = main(
        ["explain", "--train", "ad", "--instance", "5", "--seed", "2",
         "--n-per-class", "60", "--model", model, "--out", str(out)]
    )
    assert code == 0
    check_golden(out, f"explain_{model}.json")
