"""Explanation report format and its SVG rendering.

JSON is the canonical format (schema_version 1, one document per file);
the SVG view mirrors the usual presentation: a horizontal bar chart of
relative feature importances next to tables of the closest same-class and
opposite-class training examples, all in original feature units.
"""
from __future__ import annotations

import html
import json
import math

from .core import Explanation
from .data import Dataset, check_seed
from .errors import DataError

__all__ = [
    "SCHEMA_VERSION",
    "build_report",
    "write_report",
    "load_report",
    "render_svg",
]

SCHEMA_VERSION = 1

_TOP_LEVEL_FIELDS = {
    "schema_version": int,
    "dataset": str,
    "model": str,
    "instance": dict,
    "predicted_class": str,
    "importances": list,
    "allies": list,
    "enemies": list,
    "flags": list,
    "seed": int,
}
_IMPORTANCE_FIELDS = {"feature": str, "value": float, "importance": float, "rank": int}
_EXAMPLE_FIELDS = {"features": dict, "dissimilarity": float}


def _ranks(importances) -> list[int]:
    """Rank of each importance: 1 is the largest, and ties keep list order."""
    order = sorted(range(len(importances)), key=lambda j: -importances[j])
    # The inverse permutation of ``order``: each position's place in it.
    return [r + 1 for r in sorted(range(len(order)), key=order.__getitem__)]


def build_report(
    explanation: Explanation,
    train: Dataset,
    model_descriptor: str,
    seed: int = 0,
) -> dict:
    """Assemble the canonical JSON document for one explanation; ``seed``
    must be a non-negative integer, as every other seed is."""
    check_seed(seed)
    names = train.column_names
    importances = explanation.importances
    ranks = _ranks(importances)

    def example_entry(example) -> dict:
        return {
            "features": {n: float(v) for n, v in zip(names, example.features)},
            "dissimilarity": float(example.dissimilarity),
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "dataset": train.name,
        "model": model_descriptor,
        "instance": {
            n: float(v) for n, v in zip(names, explanation.test_instance)
        },
        "predicted_class": explanation.predicted_class,
        "importances": [
            {
                "feature": names[j],
                "value": float(explanation.test_instance[j]),
                "importance": float(importances[j]),
                "rank": ranks[j],
            }
            for j in range(len(names))
        ],
        "allies": [example_entry(e) for e in explanation.allies],
        "enemies": [example_entry(e) for e in explanation.enemies],
        "flags": list(explanation.flags),
        "seed": int(seed),
    }


def is_number(value) -> bool:
    """A JSON number: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number_problem(value) -> str | None:
    """Why ``value`` is not a number that converts to a finite double, or
    None when it is one."""
    if not is_number(value):
        return "must be a number"
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large to convert to a double
        finite = False
    return None if finite else "is a non-finite number"


def _check_feature_values(features: dict, where: str) -> None:
    """Every value of ``features`` converts to a finite double.  A map of
    finite floats passes in one loop; any other goes through
    :func:`_number_problem` value by value."""
    for value in features.values():
        if type(value) is not float or value - value != 0.0:  # inf or NaN
            break
    else:  # finite floats only
        return
    for key, value in features.items():
        problem = _number_problem(value)
        if problem:
            raise DataError(f"{where}: feature {key!r} {problem}")


def _field_problem(value, kind: type) -> str | None:
    """Why ``value`` does not fit a field of type ``kind``, or None."""
    if kind is float:
        return _number_problem(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            return "must be an integer"
        return _number_problem(value)
    return None if isinstance(value, kind) else f"must be {kind.__name__}"


# An int this far inside a double's range needs no overflow check.
_SAFE_INT = 2**53


def _exact_shape(obj, spec: dict) -> bool:
    """``obj`` is a dict with exactly ``spec``'s fields, each value of
    exactly its type, every float finite and every int within +-2**53.
    Such an entry passes the per-field rule of :func:`_check_fields`; a
    ``False`` only sends an entry to that rule."""
    if type(obj) is not dict or len(obj) != len(spec):
        return False
    for key, kind in spec.items():
        value = obj.get(key)  # a missing field reads None, of no spec type
        if type(value) is not kind:
            return False
        if kind is float:
            if value - value != 0.0:  # inf - inf and NaN - NaN are NaN
                return False
        elif kind is int and not -_SAFE_INT < value < _SAFE_INT:
            return False
    return True


def _check_fields(obj: dict, spec: dict, where: str) -> None:
    """``obj`` is a dict with exactly ``spec``'s fields, each of its type.
    An entry of exact shape is accepted at once; any other is checked
    field by field, and a message is formatted only for the first
    problem, which raises."""
    if _exact_shape(obj, spec):
        return
    if not isinstance(obj, dict):
        raise DataError(f"{where} must be an object")
    if obj.keys() != spec.keys():
        unknown = obj.keys() - spec.keys()
        if unknown:
            raise DataError(f"{where}: unknown fields {sorted(unknown)}")
    for key, kind in spec.items():
        if key not in obj:
            raise DataError(f"{where}: missing field {key!r}")
        problem = _field_problem(obj[key], kind)
        if problem:
            raise DataError(f"{where}: field {key!r} {problem}")


def validate_report(report: dict) -> dict:
    """Strict schema check: refuses unknown fields and checks every number,
    each in a typed field or a feature map, as a finite double.  It walks
    the report once: each entry of exact shape passes at once, and only
    another goes through the per-field rule."""
    _check_fields(report, _TOP_LEVEL_FIELDS, "report")
    if report["schema_version"] != SCHEMA_VERSION:
        raise DataError(
            f"unsupported schema_version {report['schema_version']}, "
            f"expected {SCHEMA_VERSION}"
        )
    instance = report["instance"]
    _check_feature_values(instance, "instance")
    importances = report["importances"]
    for entry in importances:
        _check_fields(entry, _IMPORTANCE_FIELDS, "importances entry")
        if entry["importance"] < 0:
            raise DataError("importances entry: field 'importance' is negative")
    if sorted(e["feature"] for e in importances) != sorted(instance):
        raise DataError("importances must name each instance feature exactly once")
    if any(e["value"] != instance[e["feature"]] for e in importances):
        raise DataError("importance values must equal the instance's")
    ranks = _ranks([e["importance"] for e in importances])
    if [e["rank"] for e in importances] != ranks:
        raise DataError("importance ranks must be the permutation ordering importances")
    for section in ("allies", "enemies"):
        where = f"{section} entry"
        for entry in report[section]:
            _check_fields(entry, _EXAMPLE_FIELDS, where)
            if entry["features"].keys() != instance.keys():
                raise DataError(f"{where}: features must match the instance's")
            _check_feature_values(entry["features"], where)
    for flag in report["flags"]:
        if not isinstance(flag, str):
            raise DataError("flags must be strings")
    return report


def write_report(report: dict, path: str) -> None:
    """Validate first, so a report that would not load leaves no file."""
    text = json.dumps(validate_report(report), indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_report(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    return validate_report(report)


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` escaped for an SVG text node."""
    return html.escape(text, quote=False)


_BAR_COLOR = "#4878a8"
_ROW_H = 22
_FONT = 'font-family="monospace" font-size="12"'
_BOLD = 'font-weight="bold"'


def render_svg(report: dict) -> str:
    """Deterministic SVG view of a validated report.

    Each element is one f-string.  A name from the report passes through
    :func:`_escape`, while a number cell of :func:`_fmt` cannot hold ``&``,
    ``<`` or ``>``.  A text element's ``y`` is its row's top plus
    ``_ROW_H - 8``.
    """
    validate_report(report)
    names = list(report["instance"].keys())
    columns = [_escape(c) for c in names + ["dissimilarity"]]
    table_x, col_w = 360, 88
    column_x = [table_x + j * col_w for j in range(len(columns))]
    width = max(720, table_x + col_w * len(columns) + 24)
    baseline = _ROW_H - 8

    parts: list[str] = []
    parts.append(
        f'<text x="16" y="24" font-family="monospace" font-size="15" '
        f'font-weight="bold">'
        f'Prediction: {_escape(str(report["predicted_class"]))} '
        f'({_escape(str(report["model"]))} on {_escape(str(report["dataset"]))})</text>'
    )
    y = 56
    if report["flags"]:
        banner = _escape("flags: " + ", ".join(report["flags"]))
        parts.append(f'<text x="16" y="{y}" {_FONT} fill="#a84444">{banner}</text>')
        y += 28

    entries = sorted(report["importances"], key=lambda e: e["rank"])
    max_importance = max((e["importance"] for e in entries), default=0.0)
    parts.append(
        f'<text x="16" y="{y}" {_FONT} {_BOLD}>'
        "Relative feature importance (standardized units)</text>"
    )
    y += 12
    if max_importance > 0.0:
        for e in entries:
            bar = 220.0 * e["importance"] / max_importance
            parts.append(
                f'<text x="16" y="{y + baseline}" {_FONT}>'
                f'{_escape(e["feature"])} = {_fmt(e["value"])}</text>'
            )
            parts.append(
                f'<rect x="140" y="{y + 6}" width="{bar:.1f}" height="12" '
                f'fill="{_BAR_COLOR}"/>'
            )
            parts.append(
                f'<text x="{140 + bar + 6:.1f}" y="{y + baseline}" {_FONT}>'
                f'{_fmt(e["importance"])}</text>'
            )
            y += _ROW_H
    else:
        parts.append(
            f'<text x="16" y="{y + baseline}" {_FONT}>(importances unavailable)</text>'
        )
        y += _ROW_H
    left_bottom = y + 16

    # The two tables of examples, one below the other.
    titles = {
        "allies": f'Most similar cases also predicted {report["predicted_class"]}',
        "enemies": "Most similar cases with the opposite prediction",
    }
    y = 32
    for section, title in titles.items():
        y += 8
        parts.append(
            f'<text x="{table_x}" y="{y}" {_FONT} {_BOLD}>{_escape(title)}</text>'
        )
        y += 8
        for x, column in zip(column_x, columns):
            parts.append(
                f'<text x="{x}" y="{y + baseline}" {_FONT} font-style="italic">'
                f"{column}</text>"
            )
        for entry in report[section]:
            y += _ROW_H
            features = entry["features"]
            cells = [features[n] for n in names]
            cells.append(entry["dissimilarity"])
            for x, value in zip(column_x, cells):
                parts.append(
                    f'<text x="{x}" y="{y + baseline}" {_FONT}>{_fmt(value)}</text>'
                )
        y += _ROW_H + 16
    right_bottom = y

    height = max(left_bottom, right_bottom) + 8
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )
