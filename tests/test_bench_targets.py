"""The benchmark's span tracer must find, and see called, every function
it wraps.

``perfbench/tracing.py`` wraps package functions by their import path.  A
refactor that renames or drops one of them, or routes a call around it,
would silently remove a layer from the benchmark's per-layer numbers, so
these guards fail instead.
"""
import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from leafage import core, data, evaluation, models, report
from leafage.lime import LimeConfig
from leafage.models.external import ExternalModel

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


STUB = "import sys\nfor line in sys.stdin:\n    print('{\"labels\": [1]}', flush=True)\n"


def test_every_binding_is_called(tracing, tmp_path):
    """A binding that resolves but that the package calls around would
    silently empty its layer; one layer per binding shows which."""
    targets = tuple(
        dataclasses.replace(t, layer=f"{t.module}.{t.attribute}")
        for t in tracing.TARGETS
    )
    ds = data.generate_artificial(30, 0)
    train, test = data.train_test_split(ds, data.SplitSpec(seed=0))
    lime_cfg = LimeConfig(n_samples=200)
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    with tracing.Tracer(targets) as tracer:
        fitted = models.fit_on_standardized("rf", ds, seed=0)
        explanation = core.explain(
            fitted.model, ds, ds.features[2], standardizer=fitted.standardizer
        )
        report.render_svg(report.build_report(explanation, ds, "rf", seed=0))
        summaries = evaluation.run_setting(
            train, test, "rf", evaluation.KNOWN_STRATEGIES, lime_cfg=lime_cfg
        )
        for classifier in models.ALGORITHMS:
            if classifier != "rf":
                summaries += evaluation.run_setting(
                    train, test, classifier, ("baseline",)
                )
        evaluation.results_table(summaries)
        evaluation.write_results_csv(summaries, str(tmp_path / "r.csv"))
        with ExternalModel([sys.executable, str(stub)], n_features=2) as external:
            external.predict_labels(ds.features[:1])
    assert tracer.absent == []
    called = {span.layer for span in tracer.spans}
    assert [t.layer for t in targets if t.layer not in called] == []
