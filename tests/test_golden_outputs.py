"""Byte-level goldens for the CLI outputs of every reference classifier.

The default fidelity protocol run on ``ad`` with seed 0 (also with numpy's
AVX-512 kernels, and then every dispatched kernel, switched off, and with
OpenBLAS's Haswell kernels in place of the ones it picks), a small
run of all four strategies over the six black boxes, and one ``explain``
report per black box are compared with files under ``tests/golden/``.  The
``explain`` reports, rerun under the same three kernel modes, are compared
field by field instead: their bytes hold on one machine only.  Set
``GOLDEN_UPDATE=1`` to rewrite the goldens; do so only for a change that is
meant to alter the outputs.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import __cpu_dispatch__, __cpu_features__, child_env
from leafage.cli import main
from leafage.models import ALGORITHMS

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
KERNEL_MODES = ["avx512", "baseline", "haswell"]


def kernel_env(mode: str) -> dict[str, str]:
    """The environment of a subprocess that runs with numpy's AVX-512
    kernels off ("avx512"), every numpy dispatch target off ("baseline"),
    or OpenBLAS's Haswell kernels ("haswell"); skips the test when this
    CPU cannot tell the mode from its default."""
    if mode == "haswell":
        return child_env(haswell=True)
    disabled = [f for f in DISPATCH_OFF[mode] if __cpu_features__.get(f)]
    if not disabled:
        pytest.skip("this CPU runs none of these dispatch targets")
    return {**child_env(), "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}


@pytest.mark.parametrize("mode", KERNEL_MODES)
def test_evaluate_default_protocol_without_avx512(tmp_path, mode):
    # numpy picks its SIMD kernels (np.exp among them) at import, and
    # OpenBLAS its gemm and gemv kernels at load; the protocol's bytes must
    # depend neither on numpy's AVX-512 kernels, nor on any numpy kernel
    # above the build's baseline, nor on OpenBLAS's kernels for AVX2 hosts.
    env = kernel_env(mode)
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


@pytest.mark.parametrize("model", ALGORITHMS)
def test_explain_report(tmp_path, model):
    out = tmp_path / "report.json"
    code = main(
        ["explain", "--train", "ad", "--instance", "5", "--seed", "2",
         "--n-per-class", "60", "--model", model, "--out", str(out)]
    )
    assert code == 0
    check_golden(out, f"explain_{model}.json")


# The report fields that may move with the kernels, within this relative
# tolerance; every other value must be equal.
EXPLAIN_FLOAT_FIELDS = {"importance", "dissimilarity"}
EXPLAIN_RTOL = 1e-9


def assert_report_matches(produced, golden, field: str = "report") -> None:
    """Same keys in the same order, lists of the same length in the same
    order, and equal values, except the kernel-dependent float fields."""
    assert type(produced) is type(golden), field
    if isinstance(golden, dict):
        assert list(produced) == list(golden), field
        for key in golden:
            assert_report_matches(produced[key], golden[key], key)
    elif isinstance(golden, list):
        assert len(produced) == len(golden), field
        for a, b in zip(produced, golden):
            assert_report_matches(a, b, field)
    elif isinstance(golden, float) and field in EXPLAIN_FLOAT_FIELDS:
        assert math.isclose(produced, golden, rel_tol=EXPLAIN_RTOL, abs_tol=0.0), (
            f"{field}: {produced!r} against {golden!r}"
        )
    else:
        assert produced == golden, f"{field}: {produced!r} against {golden!r}"


@pytest.fixture(scope="module")
def kernel_mode_reports(tmp_path_factory):
    """``mode -> {model: report}``: one subprocess per kernel mode runs the
    golden ``explain`` command for every black box."""
    cache: dict[str, dict[str, dict]] = {}

    def reports(mode: str) -> dict[str, dict]:
        if mode not in cache:
            env = kernel_env(mode)
            out = tmp_path_factory.mktemp(mode)
            script = (
                "import sys\n"
                "from leafage.cli import main\n"
                "for model in sys.argv[2:]:\n"
                "    argv = ['explain', '--train', 'ad', '--instance', '5',\n"
                "            '--seed', '2', '--n-per-class', '60', '--model', model,\n"
                "            '--out', f'{sys.argv[1]}/explain_{model}.json']\n"
                "    assert main(argv) == 0, model\n"
            )
            run = subprocess.run(
                [sys.executable, "-c", script, str(out), *ALGORITHMS],
                env=env, capture_output=True, text=True, timeout=600,
            )
            assert run.returncode == 0, run.stderr
            cache[mode] = {
                model: json.loads((out / f"explain_{model}.json").read_text())
                for model in ALGORITHMS
            }
        return cache[mode]

    return reports


@pytest.mark.parametrize("model", ALGORITHMS)
@pytest.mark.parametrize("mode", KERNEL_MODES)
def test_explain_report_across_kernels(kernel_mode_reports, mode, model):
    # The explain bytes hold on one machine only: the surrogate's floats
    # move in their last bits with numpy's SIMD exp and OpenBLAS's
    # kernels.  What must hold on every kernel is every discrete field,
    # every instance and example value, the examples' order, and every
    # importance and dissimilarity within EXPLAIN_RTOL.  A near-tie whose
    # ranking flips calls for a tie rule, not a looser tolerance.
    golden = json.loads((GOLDEN_DIR / f"explain_{model}.json").read_text())
    assert_report_matches(kernel_mode_reports(mode)[model], golden)
