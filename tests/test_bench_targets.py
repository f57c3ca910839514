"""The benchmark's span tracer must find every function it wraps.

``perfbench/tracing.py`` wraps package functions by their import path.  A
refactor that renames or drops one of them would silently remove a layer
from the benchmark's per-layer numbers, so this guard fails instead.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_every_target_resolves(tracing):
    with tracing.Tracer(tracing.TARGETS) as tracer:
        pass
    assert tracer.absent == []


def test_bindings_restored_on_exit(tracing):
    def bindings():
        out = []
        for target in tracing.TARGETS:
            owner, name, _ = tracing._resolve(target)
            out.append((owner, name, vars(owner).get(name)))
        return out

    before = bindings()
    with tracing.Tracer(tracing.TARGETS):
        during = bindings()
    after = bindings()
    assert all(b[2] is not d[2] for b, d in zip(before, during))
    assert all(b[2] is a[2] for b, a in zip(before, after))
