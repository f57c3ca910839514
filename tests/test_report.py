import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafage.core import Explanation, LeafageConfig, explain
from leafage.data import Dataset, generate_artificial
from leafage.errors import DataError
from leafage.models import fit_on_standardized
from leafage.report import (
    SCHEMA_VERSION,
    build_report,
    load_report,
    render_svg,
    validate_report,
    write_report,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def reference_report():
    """Fixed-seed end-to-end report used by round-trip and golden tests."""
    ds = generate_artificial(60, seed=7)
    trained = fit_on_standardized("knn", ds, seed=7)
    explanation = explain(
        trained.model,
        ds,
        ds.features[3],
        LeafageConfig(seed=7),
        standardizer=trained.standardizer,
    )
    return build_report(explanation, ds, trained.model.descriptor, seed=7)


# Every numeric position of the reference report as a (holder, key) getter,
# with the non-finite values its type allows: a JSON integer can only be
# too large for a double.
_BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
        "huge": 10**400, "-huge": -(10**400)}
_FLOAT_BAD = ["nan", "inf", "-inf", "huge"]
_INT_BAD = ["huge", "-huge"]
_POSITIONS = {
    "instance": (lambda r: (r["instance"], "x2"), _FLOAT_BAD),
    "importance-value": (lambda r: (r["importances"][0], "value"), _FLOAT_BAD),
    "importance-importance": (lambda r: (r["importances"][1], "importance"), _FLOAT_BAD),
    "importance-rank": (lambda r: (r["importances"][0], "rank"), _INT_BAD),
    "allies-feature": (lambda r: (r["allies"][1]["features"], "x1"), _FLOAT_BAD),
    "enemies-feature": (lambda r: (r["enemies"][4]["features"], "x2"), _FLOAT_BAD),
    "allies-dissimilarity": (lambda r: (r["allies"][2], "dissimilarity"), _FLOAT_BAD),
    "enemies-dissimilarity": (lambda r: (r["enemies"][0], "dissimilarity"), _FLOAT_BAD),
    "seed": (lambda r: (r, "seed"), _INT_BAD),
}
NON_FINITE_CASES = [
    pytest.param(getter, _BAD[bad], id=f"{name}-{bad}")
    for name, (getter, values) in _POSITIONS.items()
    for bad in values
]


class TestReportDocument:
    def test_schema_fields(self):
        report = reference_report()
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["dataset"] == "ad"
        assert report["model"] == "knn"
        assert list(report["instance"]) == ["x1", "x2"]
        assert len(report["allies"]) == 5
        assert len(report["enemies"]) == 5

    def test_ranks_are_permutation(self):
        report = reference_report()
        ranks = sorted(e["rank"] for e in report["importances"])
        assert ranks == [1, 2]

    def test_roundtrip_lossless(self, tmp_path):
        report = reference_report()
        path = tmp_path / "report.json"
        write_report(report, str(path))
        back = load_report(str(path))
        assert back == report

    def test_unknown_top_level_field_rejected(self, tmp_path):
        report = reference_report()
        report["surprise"] = 1
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        with pytest.raises(DataError, match="unknown fields.*surprise"):
            load_report(str(path))

    def test_unknown_nested_field_rejected(self):
        report = reference_report()
        report["allies"][0]["note"] = "hi"
        with pytest.raises(DataError, match="unknown fields"):
            validate_report(report)

    def test_missing_field_rejected(self):
        report = reference_report()
        del report["seed"]
        with pytest.raises(DataError, match="missing field 'seed'"):
            validate_report(report)

    def test_bad_rank_permutation_rejected(self):
        report = reference_report()
        report["importances"][0]["rank"] = 2
        report["importances"][1]["rank"] = 2
        with pytest.raises(DataError, match="permutation"):
            validate_report(report)

    def test_ranks_must_follow_the_importances(self):
        report = reference_report()
        for entry in report["importances"]:
            entry["rank"] = 3 - entry["rank"]
        with pytest.raises(DataError, match="permutation"):
            validate_report(report)

    @pytest.mark.parametrize("bad", [-5.0, -1e-300])
    def test_negative_importance_rejected(self, tmp_path, bad):
        report = reference_report()
        report["importances"][0]["importance"] = bad
        with pytest.raises(DataError, match="field 'importance' is negative"):
            validate_report(report)
        path = tmp_path / "report.json"
        with pytest.raises(DataError, match="negative"):
            write_report(report, str(path))
        assert not path.exists()

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 0.25, 1.0]),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_build_ranks_match_the_lexsort_rule(self, values):
        d = len(values)
        names = [f"v{j}" for j in range(d)]
        train = Dataset(np.zeros((2, d)), np.array([0, 1]), names, ["A", "B"])
        importances = np.array(values)
        explanation = Explanation(np.zeros(d), "A", importances, [], [], None)
        report = build_report(explanation, train, "m")
        # Rank 1 = most important; importance ties keep column order.
        order = np.lexsort((np.arange(d), -importances))
        expected = np.empty(d, dtype=np.int64)
        expected[order] = np.arange(1, d + 1)
        assert [e["rank"] for e in report["importances"]] == expected.tolist()
        assert validate_report(report) is report

    def test_non_finite_importance_rejected(self, tmp_path):
        report = reference_report()
        report["importances"][0]["importance"] = float("nan")
        with pytest.raises(DataError, match="finite"):
            validate_report(report)
        path = tmp_path / "report.json"
        with pytest.raises(DataError, match="non-finite"):
            write_report(report, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("position, bad", NON_FINITE_CASES)
    def test_every_non_finite_number_rejected(self, tmp_path, position, bad):
        report = reference_report()
        holder, key = position(report)
        holder[key] = bad
        message = f"'{key}' is a non-finite number"
        with pytest.raises(DataError, match=message):
            validate_report(report)
        path = tmp_path / "report.json"
        with pytest.raises(DataError, match=message):
            write_report(report, str(path))
        assert not path.exists()

    def test_write_refuses_a_non_string_flag(self, tmp_path):
        report = reference_report()
        report["flags"] = ["ally_shortfall", 1]
        path = tmp_path / "report.json"
        with pytest.raises(DataError, match="flags must be strings"):
            write_report(report, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("bad", ["oops", True, None, [1.0], {"v": 1.0}])
    @pytest.mark.parametrize("where", ["instance", "allies", "enemies"])
    def test_non_numeric_feature_value_rejected(self, where, bad):
        report = reference_report()
        features = report[where] if where == "instance" else report[where][0]["features"]
        features["x2"] = bad
        with pytest.raises(DataError, match="feature 'x2' must be a number"):
            validate_report(report)

    def test_example_features_must_match_instance(self):
        report = reference_report()
        del report["enemies"][1]["features"]["x1"]
        with pytest.raises(DataError, match="must match the instance"):
            validate_report(report)
        report = reference_report()
        report["allies"][0]["features"]["x3"] = 0.0
        with pytest.raises(DataError, match="must match the instance"):
            validate_report(report)

    @pytest.mark.parametrize("name", ["x1", "nope"])
    def test_importances_must_name_each_feature_once(self, name):
        report = reference_report()
        report["importances"][1]["feature"] = name
        with pytest.raises(DataError, match="each instance feature exactly once"):
            validate_report(report)

    def test_importance_value_must_equal_instance(self):
        report = reference_report()
        report["importances"][0]["value"] += 1.0
        with pytest.raises(DataError, match="must equal the instance"):
            validate_report(report)

    @pytest.mark.parametrize("section, bad", [("importances", "x1"),
                                              ("allies", 5), ("enemies", None)])
    def test_entry_must_be_an_object(self, section, bad):
        report = reference_report()
        report[section][0] = bad
        with pytest.raises(DataError, match=f"{section} entry must be an object"):
            validate_report(report)

    @pytest.mark.parametrize("field, bad, message", [
        ("importance", "0.5", "field 'importance' must be a number"),
        ("rank", 1.0, "field 'rank' must be an integer"),
        ("rank", True, "field 'rank' must be an integer"),
        ("feature", 3, "field 'feature' must be str"),
    ])
    def test_wrong_typed_field_rejected(self, field, bad, message):
        report = reference_report()
        report["importances"][0][field] = bad
        with pytest.raises(DataError, match=f"importances entry: {message}"):
            validate_report(report)

    def test_non_string_flag_rejected(self):
        report = reference_report()
        report["flags"] = ["ally_shortfall", 1]
        with pytest.raises(DataError, match="flags must be strings"):
            validate_report(report)

    def test_integer_beyond_a_double_rejected(self, tmp_path):
        report = reference_report()
        report["instance"]["x1"] = 10**400
        for entry in report["importances"]:
            entry["value"] = report["instance"][entry["feature"]]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        with pytest.raises(DataError, match="non-finite"):
            load_report(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open .*absent.json"):
            load_report(str(tmp_path / "absent.json"))

    def test_wrong_schema_version(self):
        report = reference_report()
        report["schema_version"] = 99
        with pytest.raises(DataError, match="schema_version"):
            validate_report(report)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(DataError, match="invalid JSON"):
            load_report(str(path))


class TestSvg:
    def test_basic_structure(self):
        svg = render_svg(reference_report())
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") >= 3  # background + 2 importance bars

    def test_five_feature_report_has_five_bars(self):
        report = reference_report()
        # synthesize a 5-feature document from the 2-feature one
        names = [f"v{i}" for i in range(5)]
        importances = [0.5, 0.1, 0.9, 0.0, 0.3]
        report["instance"] = {n: float(i) for i, n in enumerate(names)}
        order = list(np.argsort([-v for v in importances], kind="stable"))
        report["importances"] = [
            {
                "feature": names[j],
                "value": float(j),
                "importance": importances[j],
                "rank": order.index(j) + 1,
            }
            for j in range(5)
        ]
        for section in ("allies", "enemies"):
            for entry in report[section]:
                entry["features"] = {n: 1.0 for n in names}
        svg = render_svg(report)
        bars = [line for line in svg.splitlines() if "<rect" in line and "fill=\"#4878a8\"" in line]
        assert len(bars) == 5
        widths = [float(line.split('width="')[1].split('"')[0]) for line in bars]
        assert max(widths) == 220.0  # longest bar = max importance

    def test_degenerate_report_shows_banner_no_bars(self):
        report = reference_report()
        for rank, entry in enumerate(report["importances"], 1):
            entry["importance"] = 0.0
            entry["rank"] = rank
        report["flags"] = ["degenerate_surrogate"]
        svg = render_svg(report)
        assert "degenerate_surrogate" in svg
        assert "importances unavailable" in svg
        assert svg.count('fill="#4878a8"') == 0

    def test_special_characters_escaped(self):
        report = reference_report()
        report["dataset"] = "a&b<c>"
        svg = render_svg(report)
        assert "a&amp;b&lt;c&gt;" in svg
        assert "a&b<c>" not in svg

    def test_deterministic(self):
        report = reference_report()
        assert render_svg(report) == render_svg(report)

    def test_golden_file(self):
        report = reference_report()
        svg = render_svg(report)
        golden_svg = GOLDEN_DIR / "report.svg"
        golden_json = GOLDEN_DIR / "report.json"
        if os.environ.get("GOLDEN_UPDATE") == "1":
            GOLDEN_DIR.mkdir(exist_ok=True)
            write_report(report, str(golden_json))
            golden_svg.write_text(svg)
        assert load_report(str(golden_json)) == report
        assert golden_svg.read_text() == svg
