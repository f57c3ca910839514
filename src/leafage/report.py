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

import numpy as np

from .core import Explanation
from .data import Dataset
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


def build_report(
    explanation: Explanation,
    train: Dataset,
    model_descriptor: str,
    seed: int = 0,
) -> dict:
    """Assemble the canonical JSON document for one explanation."""
    names = train.column_names
    importances = explanation.importances
    # Rank 1 = most important; importance ties keep column order.
    order = np.lexsort((np.arange(len(names)), -importances))
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(1, len(names) + 1)

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
                "rank": int(rank[j]),
            }
            for j in range(len(names))
        ],
        "allies": [example_entry(e) for e in explanation.allies],
        "enemies": [example_entry(e) for e in explanation.enemies],
        "flags": list(explanation.flags),
        "seed": int(seed),
    }


def _finite(value) -> bool:
    """No NaN or infinity anywhere inside a decoded JSON value."""
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def is_number(value) -> bool:
    """A JSON number: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_feature_values(features: dict, where: str) -> None:
    for key, value in features.items():
        if not is_number(value):
            raise DataError(f"{where}: feature {key!r} must be a number")


def _check_fields(obj: dict, spec: dict, where: str) -> None:
    if not isinstance(obj, dict):
        raise DataError(f"{where} must be an object")
    unknown = set(obj) - set(spec)
    if unknown:
        raise DataError(f"{where}: unknown fields {sorted(unknown)}")
    for key, kind in spec.items():
        if key not in obj:
            raise DataError(f"{where}: missing field {key!r}")
        value = obj[key]
        if kind is float:
            if not is_number(value):
                raise DataError(f"{where}: field {key!r} must be a number")
        elif kind is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise DataError(f"{where}: field {key!r} must be an integer")
        elif not isinstance(value, kind):
            raise DataError(f"{where}: field {key!r} must be {kind.__name__}")


def validate_report(report: dict) -> dict:
    """Strict schema check; rejects unknown fields and non-finite numbers."""
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
    if sorted(e["feature"] for e in importances) != sorted(instance):
        raise DataError("importances must name each instance feature exactly once")
    if any(e["value"] != instance[e["feature"]] for e in importances):
        raise DataError("importance values must equal the instance's")
    if sorted(e["rank"] for e in importances) != list(range(1, len(instance) + 1)):
        raise DataError("importance ranks must be a permutation of 1..d")
    for section in ("allies", "enemies"):
        for entry in report[section]:
            _check_fields(entry, _EXAMPLE_FIELDS, f"{section} entry")
            if entry["features"].keys() != instance.keys():
                raise DataError(f"{section} entry: features must match the instance's")
            _check_feature_values(entry["features"], f"{section} entry")
    for flag in report["flags"]:
        if not isinstance(flag, str):
            raise DataError("flags must be strings")
    if not _finite(report):
        raise DataError("report holds a non-finite number")
    return report


def write_report(report: dict, path: str) -> None:
    """Serialize first, so a non-finite number leaves no file behind."""
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DataError(f"report is not valid JSON: {exc}") from None
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


def _text(x, y, text: str, style: str = "") -> str:
    """One escaped 12-pt text element; ``style`` adds attributes."""
    font = f"{_FONT} {style}" if style else _FONT
    return f'<text x="{x}" y="{y}" {font}>{_escape(text)}</text>'


def _table(
    x: int, y: int, title: str, columns: list[str], rows: list[list[str]]
) -> tuple[list[str], int]:
    col_w = 88
    parts = [_text(x, y, title, _BOLD)]
    y += 8
    for j, col in enumerate(columns):
        parts.append(
            _text(x + j * col_w, y + _ROW_H - 8, col, 'font-style="italic"')
        )
    for i, row in enumerate(rows):
        ry = y + (i + 1) * _ROW_H
        for j, cell in enumerate(row):
            parts.append(_text(x + j * col_w, ry + _ROW_H - 8, cell))
    return parts, y + (len(rows) + 1) * _ROW_H + 16


def render_svg(report: dict) -> str:
    """Deterministic SVG view of a validated report."""
    validate_report(report)
    names = list(report["instance"].keys())
    columns = names + ["dissimilarity"]
    table_x = 360
    width = max(720, table_x + 88 * len(columns) + 24)

    parts: list[str] = []
    parts.append(
        f'<text x="16" y="24" font-family="monospace" font-size="15" '
        f'font-weight="bold">'
        f'Prediction: {_escape(str(report["predicted_class"]))} '
        f'({_escape(str(report["model"]))} on {_escape(str(report["dataset"]))})</text>'
    )
    y = 56
    if report["flags"]:
        banner = "flags: " + ", ".join(report["flags"])
        parts.append(_text(16, y, banner, 'fill="#a84444"'))
        y += 28

    entries = sorted(report["importances"], key=lambda e: e["rank"])
    max_importance = max((e["importance"] for e in entries), default=0.0)
    parts.append(
        _text(16, y, "Relative feature importance (standardized units)", _BOLD)
    )
    y += 12
    if max_importance > 0.0:
        for e in entries:
            bar = 220.0 * e["importance"] / max_importance
            label = f'{e["feature"]} = {_fmt(e["value"])}'
            parts.append(_text(16, y + _ROW_H - 8, label))
            parts.append(
                f'<rect x="140" y="{y + 6}" width="{bar:.1f}" height="12" '
                f'fill="{_BAR_COLOR}"/>'
            )
            parts.append(
                _text(f"{140 + bar + 6:.1f}", y + _ROW_H - 8, _fmt(e["importance"]))
            )
            y += _ROW_H
    else:
        parts.append(_text(16, y + _ROW_H - 8, "(importances unavailable)"))
        y += _ROW_H
    left_bottom = y + 16

    def rows_of(section: str) -> list[list[str]]:
        return [
            [_fmt(entry["features"][n]) for n in names]
            + [_fmt(entry["dissimilarity"])]
            for entry in report[section]
        ]

    table_parts, y_allies = _table(
        table_x,
        40,
        f'Most similar cases also predicted {report["predicted_class"]}',
        columns,
        rows_of("allies"),
    )
    parts.extend(table_parts)
    table_parts, right_bottom = _table(
        table_x,
        y_allies + 8,
        "Most similar cases with the opposite prediction",
        columns,
        rows_of("enemies"),
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
