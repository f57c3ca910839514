"""The benchmark's own self-test must pass on the current package.

Among its checks, the evaluate workload's results CSV must be byte-identical
to what ``leafage evaluate --seed S`` writes, which pins the single-seed
path of the command.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
