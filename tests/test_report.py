import copy
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
from leafage import report as report_module
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

    @pytest.mark.parametrize(
        "seed",
        [1.7, True, np.float64(2.9), -3, "7"],
        ids=["float", "bool", "numpy-float", "negative", "string"],
    )
    def test_build_refuses_a_seed_that_is_not_a_non_negative_integer(self, seed):
        train = Dataset(np.zeros((2, 1)), np.array([0, 1]), ["v0"], ["A", "B"])
        explanation = Explanation(np.zeros(1), "A", np.ones(1), [], [], None)
        with pytest.raises(DataError, match="^seed must be"):
            build_report(explanation, train, "m", seed=seed)

    def test_build_writes_a_numpy_integer_seed_as_an_int(self):
        train = Dataset(np.zeros((2, 1)), np.array([0, 1]), ["v0"], ["A", "B"])
        explanation = Explanation(np.zeros(1), "A", np.ones(1), [], [], None)
        report = build_report(explanation, train, "m", seed=np.int64(5))
        assert type(report["seed"]) is int and report["seed"] == 5

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


# The slow reference for the report layer: validate_report and render_svg
# as they were before the validator formatted messages only on failure and
# the SVG stopped escaping number cells.  The field specs, the rank rule,
# the number format and the layout constants are the module's own.
def _reference_check_number(value, what: str) -> None:
    if not report_module.is_number(value):
        raise DataError(f"{what} must be a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise DataError(f"{what} is a non-finite number")


def _reference_check_feature_values(features: dict, where: str) -> None:
    for key, value in features.items():
        _reference_check_number(value, f"{where}: feature {key!r}")


def _reference_check_fields(obj: dict, spec: dict, where: str) -> None:
    if not isinstance(obj, dict):
        raise DataError(f"{where} must be an object")
    unknown = set(obj) - set(spec)
    if unknown:
        raise DataError(f"{where}: unknown fields {sorted(unknown)}")
    for key, kind in spec.items():
        if key not in obj:
            raise DataError(f"{where}: missing field {key!r}")
        value = obj[key]
        what = f"{where}: field {key!r}"
        if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
            raise DataError(f"{what} must be an integer")
        if kind is int or kind is float:
            _reference_check_number(value, what)
        elif not isinstance(value, kind):
            raise DataError(f"{what} must be {kind.__name__}")


def reference_validate_report(report: dict) -> dict:
    _reference_check_fields(report, report_module._TOP_LEVEL_FIELDS, "report")
    if report["schema_version"] != SCHEMA_VERSION:
        raise DataError(
            f"unsupported schema_version {report['schema_version']}, "
            f"expected {SCHEMA_VERSION}"
        )
    instance = report["instance"]
    _reference_check_feature_values(instance, "instance")
    importances = report["importances"]
    for entry in importances:
        _reference_check_fields(
            entry, report_module._IMPORTANCE_FIELDS, "importances entry"
        )
        if entry["importance"] < 0:
            raise DataError("importances entry: field 'importance' is negative")
    if sorted(e["feature"] for e in importances) != sorted(instance):
        raise DataError("importances must name each instance feature exactly once")
    if any(e["value"] != instance[e["feature"]] for e in importances):
        raise DataError("importance values must equal the instance's")
    ranks = report_module._ranks([e["importance"] for e in importances])
    if [e["rank"] for e in importances] != ranks:
        raise DataError("importance ranks must be the permutation ordering importances")
    for section in ("allies", "enemies"):
        for entry in report[section]:
            _reference_check_fields(
                entry, report_module._EXAMPLE_FIELDS, f"{section} entry"
            )
            if entry["features"].keys() != instance.keys():
                raise DataError(f"{section} entry: features must match the instance's")
            _reference_check_feature_values(entry["features"], f"{section} entry")
    for flag in report["flags"]:
        if not isinstance(flag, str):
            raise DataError("flags must be strings")
    return report


def _reference_text(x, y, text: str, style: str = "") -> str:
    font = f"{report_module._FONT} {style}" if style else report_module._FONT
    return f'<text x="{x}" y="{y}" {font}>{report_module._escape(text)}</text>'


def _reference_table(x, y, title, columns, rows):
    row_h, col_w = report_module._ROW_H, 88
    parts = [_reference_text(x, y, title, report_module._BOLD)]
    y += 8
    for j, col in enumerate(columns):
        parts.append(
            _reference_text(x + j * col_w, y + row_h - 8, col, 'font-style="italic"')
        )
    for i, row in enumerate(rows):
        ry = y + (i + 1) * row_h
        for j, cell in enumerate(row):
            parts.append(_reference_text(x + j * col_w, ry + row_h - 8, cell))
    return parts, y + (len(rows) + 1) * row_h + 16


def reference_render_svg(report: dict) -> str:
    reference_validate_report(report)
    fmt, escape, text = report_module._fmt, report_module._escape, _reference_text
    row_h, bold = report_module._ROW_H, report_module._BOLD
    names = list(report["instance"].keys())
    columns = names + ["dissimilarity"]
    table_x = 360
    width = max(720, table_x + 88 * len(columns) + 24)
    parts = [
        f'<text x="16" y="24" font-family="monospace" font-size="15" '
        f'font-weight="bold">'
        f'Prediction: {escape(str(report["predicted_class"]))} '
        f'({escape(str(report["model"]))} on {escape(str(report["dataset"]))})</text>'
    ]
    y = 56
    if report["flags"]:
        banner = "flags: " + ", ".join(report["flags"])
        parts.append(text(16, y, banner, 'fill="#a84444"'))
        y += 28
    entries = sorted(report["importances"], key=lambda e: e["rank"])
    max_importance = max((e["importance"] for e in entries), default=0.0)
    parts.append(text(16, y, "Relative feature importance (standardized units)", bold))
    y += 12
    if max_importance > 0.0:
        for e in entries:
            bar = 220.0 * e["importance"] / max_importance
            parts.append(text(16, y + row_h - 8, f'{e["feature"]} = {fmt(e["value"])}'))
            parts.append(
                f'<rect x="140" y="{y + 6}" width="{bar:.1f}" height="12" '
                f'fill="{report_module._BAR_COLOR}"/>'
            )
            parts.append(
                text(f"{140 + bar + 6:.1f}", y + row_h - 8, fmt(e["importance"]))
            )
            y += row_h
    else:
        parts.append(text(16, y + row_h - 8, "(importances unavailable)"))
        y += row_h
    left_bottom = y + 16

    def rows_of(section):
        return [
            [fmt(entry["features"][n]) for n in names] + [fmt(entry["dissimilarity"])]
            for entry in report[section]
        ]

    table_parts, y_allies = _reference_table(
        table_x, 40, f'Most similar cases also predicted {report["predicted_class"]}',
        columns, rows_of("allies"),
    )
    parts.extend(table_parts)
    table_parts, right_bottom = _reference_table(
        table_x, y_allies + 8, "Most similar cases with the opposite prediction",
        columns, rows_of("enemies"),
    )
    parts.extend(table_parts)
    height = max(left_bottom, right_bottom) + 8
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def _outcome(validate, report):
    """What ``validate`` does with ``report``: None when it passes, else
    the exception's type and message."""
    try:
        validate(report)
    except Exception as exc:  # the reference may fail in any way
        return type(exc), str(exc)
    return None


def _containers(obj) -> list:
    """``obj`` and every dict and list nested in it."""
    found = [obj]
    for value in obj.values() if isinstance(obj, dict) else obj:
        if isinstance(value, (dict, list)):
            found += _containers(value)
    return found


# Values a mutation writes: non-finite and huge numbers, bools, wrong
# types, and values the report's own fields hold.
_MUTANT_VALUES = st.one_of(
    st.sampled_from([
        math.nan, math.inf, -math.inf, 10**400, -(10**400), True, False, None,
        "x1", "x2", "", 0, 1, 2, 3, -1, 0.0, -0.0, 0.5, -5.0, 1.0, 1e308,
        [], {}, [1.0], ["ally_shortfall"], {"x1": 0.0, "x2": 1.0},
        {"features": {"x1": 0.0, "x2": 1.0}, "dissimilarity": 0.5},
    ]),
    st.floats(),
    st.integers(),
).map(copy.deepcopy)  # a fresh object each time, so no mutation makes a cycle
_MUTANT_KEYS = st.sampled_from(
    ["extra", "x1", "x2", "x3", "rank", "value", "seed", "features", "flags"]
)


@st.composite
def mutated_reports(draw):
    """The reference report after up to four mutations, each at a dict or
    list anywhere in it: drop an entry, add one, overwrite one or reorder
    them; now and then the whole report is replaced by a non-dict."""
    report = json.loads(json.dumps(reference_report()))
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([None, [], "report", 1.0]))
    for _ in range(draw(st.integers(0, 4))):
        holder = draw(st.sampled_from(_containers(report)))
        action = draw(st.sampled_from(["drop", "add", "set", "reorder"]))
        if isinstance(holder, dict):
            keys = list(holder)
            if action == "add":
                holder[draw(_MUTANT_KEYS)] = draw(_MUTANT_VALUES)
            elif action == "reorder":
                items = draw(st.permutations(list(holder.items())))
                holder.clear()
                holder.update(items)
            elif keys:
                key = draw(st.sampled_from(keys))
                if action == "drop":
                    del holder[key]
                else:
                    holder[key] = draw(_MUTANT_VALUES)
        else:
            if action == "add":
                holder.insert(draw(st.integers(0, len(holder))), draw(_MUTANT_VALUES))
            elif action == "reorder":
                holder[:] = draw(st.permutations(holder))
            elif holder:
                i = draw(st.integers(0, len(holder) - 1))
                if action == "drop":
                    del holder[i]
                else:
                    holder[i] = draw(_MUTANT_VALUES)
    return report


class _Dict(dict):
    """A dict subclass: the per-field rule takes it, the exact-shape test
    leaves it to that rule."""


def _setting(*path, to):
    """A mutation that replaces the value at ``path`` by ``to(old value)``."""
    def mutate(report):
        *parents, last = path
        holder = report
        for key in parents:
            holder = holder[key]
        holder[last] = to(holder[last])
        return report
    return mutate


def _both(*mutations):
    def mutate(report):
        for mutation in mutations:
            report = mutation(report)
        return report
    return mutate


def _constant(value):
    return lambda old: value


# Values on which an exact-type test and the per-field rule can disagree,
# each at the positions where it matters.  Index 0 of the importances is
# x1, the less important feature.
_EXACT_SHAPE_EDGES = {
    "numpy-float-value": _setting("importances", 0, "value", to=np.float64),
    "numpy-float-importance": _setting("importances", 1, "importance", to=np.float64),
    "numpy-float-dissimilarity": _setting("allies", 2, "dissimilarity", to=np.float64),
    "numpy-float-instance": _both(
        _setting("instance", "x1", to=np.float64),
        _setting("importances", 0, "value", to=np.float64),
    ),
    "numpy-float-example-feature": _setting("enemies", 1, "features", "x2", to=np.float64),
    "int-value-alone": _setting("importances", 0, "value", to=_constant(2)),
    "int-instance-and-value": _both(
        _setting("instance", "x1", to=_constant(2)),
        _setting("importances", 0, "value", to=_constant(2)),
    ),
    "int-importance": _setting("importances", 1, "importance", to=_constant(7)),
    "int-dissimilarity": _setting("allies", 0, "dissimilarity", to=_constant(0)),
    "int-example-feature": _setting("allies", 3, "features", "x1", to=_constant(-4)),
    "float-rank": _setting("importances", 0, "rank", to=float),
    "float-seed": _setting("seed", to=float),
    "float-schema-version": _setting("schema_version", to=float),
    "bool-value": _setting("importances", 0, "value", to=_constant(True)),
    "bool-importance": _setting("importances", 0, "importance", to=_constant(True)),
    "bool-dissimilarity": _setting("enemies", 4, "dissimilarity", to=_constant(True)),
    "bool-instance": _setting("instance", "x2", to=_constant(False)),
    "bool-example-feature": _setting("allies", 1, "features", "x2", to=_constant(True)),
    "bool-rank": _setting("importances", 1, "rank", to=_constant(True)),
    "bool-seed": _setting("seed", to=_constant(False)),
    "bool-schema-version": _setting("schema_version", to=_constant(True)),
    "inf-example-feature": _setting("enemies", 2, "features", "x1", to=_constant(math.inf)),
    "nan-instance": _setting("instance", "x2", to=_constant(math.nan)),
    "negative-zero-importance": _setting("importances", 0, "importance", to=_constant(-0.0)),
    "huge-importance": _setting("importances", 1, "importance", to=_constant(10**400)),
    "huge-dissimilarity": _setting("enemies", 0, "dissimilarity", to=_constant(10**400)),
    "huge-example-feature": _setting("allies", 4, "features", "x1", to=_constant(10**400)),
    "huge-rank": _setting("importances", 1, "rank", to=_constant(10**400)),
    "huge-seed": _setting("seed", to=_constant(10**400)),
    "large-exact-seed": _setting("seed", to=_constant(2**53)),
    "dict-subclass-report": _Dict,
    "dict-subclass-instance": _setting("instance", to=_Dict),
    "dict-subclass-importance": _setting("importances", 1, to=_Dict),
    "dict-subclass-ally": _setting("allies", 0, to=_Dict),
    "dict-subclass-enemy-features": _setting("enemies", 3, "features", to=_Dict),
}


class TestAgainstTheReference:
    """validate_report and render_svg against the slow reference above."""

    @pytest.mark.parametrize(
        "mutate", _EXACT_SHAPE_EDGES.values(), ids=_EXACT_SHAPE_EDGES.keys()
    )
    def test_exact_shape_edges_as_the_reference(self, mutate):
        report = mutate(reference_report())
        expected = _outcome(reference_validate_report, report)
        assert _outcome(validate_report, report) == expected
        if expected is None:
            assert render_svg(report) == reference_render_svg(report)

    @given(mutated_reports())
    @settings(max_examples=1000, deadline=None)
    def test_validator_raises_as_the_reference(self, report):
        expected = _outcome(reference_validate_report, report)
        assert _outcome(validate_report, report) == expected
        assert expected is None or expected[0] is DataError

    @given(
        st.lists(st.text("<>&\"' ab;#", min_size=1, max_size=6),
                 min_size=2, max_size=2, unique=True),
        st.lists(st.text("<>&\"' ab;#", max_size=6), min_size=3, max_size=3),
        st.lists(st.text("<>&\"' ab;#", min_size=1, max_size=8), max_size=3),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_svg_bytes_equal_the_reference_for_markup_names(
        self, columns, names, flags, zero_importances
    ):
        report = reference_report()
        rename = dict(zip(["x1", "x2"], columns))
        report["dataset"], report["model"], report["predicted_class"] = names
        report["flags"] = flags
        report["instance"] = {rename[k]: v for k, v in report["instance"].items()}
        for entry in report["importances"]:
            entry["feature"] = rename[entry["feature"]]
        if zero_importances:
            for rank, entry in enumerate(report["importances"], 1):
                entry["importance"], entry["rank"] = 0.0, rank
        for section in ("allies", "enemies"):
            for entry in report[section]:
                entry["features"] = {rename[k]: v for k, v in entry["features"].items()}
        assert render_svg(report) == reference_render_svg(report)
