"""Canonical JSON/CSV emission and input-document loaders.

Reports must be byte-identical across runs and thread counts: keys are
sorted, floats carry 12 significant digits, and containers are rendered
without locale- or hash-order-dependent state.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .core import DiscreteMeasure, Interval, Partition, RealSequence, TypelabError, WeightTable


def format_float(x: float) -> str:
    if x.is_integer() and abs(x) < 1e15:
        return str(int(x))
    if math.isfinite(x):
        return format(x, ".12g")
    return '"nan"' if x != x else ('"inf"' if x > 0 else '"-inf"')


def _document(obj):
    """The document of a report: its own ``to_dict()`` if it has one, else
    ``{field name: value}`` over the fields of a dataclass instance."""
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float format."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj):
            return "[" + ", ".join(map(format_float, obj)) + "]"
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = []
        for k in sorted(obj):
            items.append(f"{json.dumps(str(k))}: {canonical_json(obj[k])}")
        return "{" + ", ".join(items) + "}"
    doc = _document(obj)
    if doc is not obj:
        return canonical_json(doc)
    raise TypelabError(f"cannot serialize {type(obj)!r}")


def flatten_for_csv(obj, prefix: str = "") -> list[tuple[str, str]]:
    """Dotted-path key/value rows, sorted, for the CSV output mode."""
    obj = _document(obj)
    rows: list[tuple[str, str]] = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(flatten_for_csv(obj[k], f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        for i, v in enumerate(obj):
            rows.extend(flatten_for_csv(v, f"{prefix}[{i}]"))
    else:
        if isinstance(obj, bool):
            val = "true" if obj else "false"
        elif obj is None:
            val = ""
        elif isinstance(obj, (float, np.floating)):
            val = format_float(float(obj)).strip('"')
        else:
            val = str(obj)
        rows.append((prefix, val))
    return rows


def render_csv(obj) -> str:
    lines = ["key,value"]
    for key, val in flatten_for_csv(obj):
        if "," in val or '"' in val:
            val = '"' + val.replace('"', '""') + '"'
        lines.append(f"{key},{val}")
    return "\n".join(lines) + "\n"


def render_curve_csv(curve) -> str:
    """Residual-curve CSV: one row per frequency."""
    lines = ["a,sigma_min,cond"]
    for a, s, c in zip(curve.a_values, curve.sigma_min, curve.conditioning):
        lines.append(f"{format_float(float(a))},{format_float(float(s))},{format_float(float(c))}")
    return "\n".join(lines) + "\n"


def _reject_constant(name: str):
    raise TypelabError(f"non-finite JSON constant {name} is not accepted")


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def load_sequence(doc: dict | str) -> RealSequence:
    """``{"points": [...], "window": T, "generator": optional}``"""
    if isinstance(doc, str):
        doc = load_document(doc)
    try:
        return RealSequence(np.asarray(doc["points"], dtype=float),
                            float(doc["window"]), doc.get("generator"))
    except KeyError as exc:
        raise TypelabError(f"sequence document missing field {exc}") from exc


def load_measure(doc: dict | str) -> DiscreteMeasure:
    """``{"atoms": [[x, m], ...], "window": T}``"""
    if isinstance(doc, str):
        doc = load_document(doc)
    try:
        atoms = np.asarray(doc["atoms"], dtype=float)
        if atoms.size == 0:
            atoms = atoms.reshape(0, 2)  # DiscreteMeasure reports the empty input
        elif atoms.ndim != 2 or atoms.shape[1] != 2:
            raise TypelabError("atoms must be a list of [position, mass] pairs")
        atoms = atoms[np.argsort(atoms[:, 0], kind="stable")]  # ties are duplicates, rejected below
        return DiscreteMeasure(atoms[:, 0], atoms[:, 1], float(doc["window"]), doc.get("tag"))
    except KeyError as exc:
        raise TypelabError(f"measure document missing field {exc}") from exc


def load_weight_table(doc: dict | str) -> WeightTable:
    """``{"breakpoints": [...], "values": [...], "kind": optional}``"""
    if isinstance(doc, str):
        doc = load_document(doc)
    try:
        return WeightTable(np.asarray(doc["breakpoints"], dtype=float),
                           np.asarray(doc["values"], dtype=float),
                           doc.get("kind", "mu-weight"),
                           float(doc.get("floor", 1.0 if doc.get("kind", "mu-weight") == "mu-weight" else 0.0)))
    except KeyError as exc:
        raise TypelabError(f"weight table document missing field {exc}") from exc


def load_intervals(doc: dict | str) -> list[Interval]:
    """``{"intervals": [[left, right], ...]}``"""
    if isinstance(doc, str):
        doc = load_document(doc)
    try:
        return [Interval(float(l), float(r)) for l, r in doc["intervals"]]
    except KeyError as exc:
        raise TypelabError(f"interval document missing field {exc}") from exc


def load_partition(doc: dict | str) -> Partition:
    """``{"breakpoints": [...]}``"""
    if isinstance(doc, str):
        doc = load_document(doc)
    try:
        return Partition(np.asarray(doc["breakpoints"], dtype=float))
    except KeyError as exc:
        raise TypelabError(f"partition document missing field {exc}") from exc
