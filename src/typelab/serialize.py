"""Canonical JSON/CSV emission and input-document loaders.

Reports must be byte-identical across runs and thread counts: keys are
sorted, floats carry 12 significant digits, and containers are rendered
without locale- or hash-order-dependent state.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
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


BULK_MIN_SIZE = 256  # float arrays, and lists of at least this many cells or rows, in one pass
PAIR_KEYS = ("atoms", "intervals")  # [[a, b], ...] rows, read in one pass
# % conversions: [non-finite, other finite, integral, None] x [inside, first, last, whole] of a row
_SPECS = np.array([[s, "[" + s, s + "]", "[" + s + "]"]
                   for s in ('"%s"', "%.12g", "%d", "%.0snull")], object)
# the rows and cells of a list written in one pass
_ROW_TYPES, _CELL_TYPES = frozenset((list, tuple)), frozenset((float, int, type(None)))


def _format_array(a: np.ndarray, nulls=()) -> str:
    """``format_float`` of every element of a 1-D or 2-D float array, as JSON;
    the flat indices ``nulls`` are written ``null``."""
    flat = a.ravel()
    kind = np.isfinite(flat).view(np.int8) + ((np.abs(flat) < 1e15) & (flat == np.trunc(flat)))
    if nulls:
        kind[nulls] = 3
    col = np.arange(flat.size) % a.shape[-1]  # a 1-D array is one row
    specs = _SPECS[kind, (col == 0) + 2 * (col == a.shape[-1] - 1)]
    ints = kind == 2  # to %d as ints: a float takes a conversion more
    args = np.empty(flat.size, object)
    args[ints] = flat[ints].astype(np.int64)
    args[~ints] = flat[~ints]
    text = ", ".join(specs.tolist()) % tuple(args.tolist())
    return text if a.ndim == 1 else f"[{text}]"


def _table(obj: list | tuple) -> tuple[np.ndarray, list[int]] | None:
    """A list of floats, ints and None, or of equal-width rows of them, as the
    1-D or 2-D float array and ``nulls`` that ``_format_array`` writes as
    ``canonical_json`` writes the list; None for anything else."""
    width = len(obj[0]) if type(obj[0]) in _ROW_TYPES else 0
    if width:
        if not _ROW_TYPES.issuperset(map(type, obj)) or set(map(len, obj)) != {width}:
            return None
        cells = list(itertools.chain.from_iterable(obj))
    else:
        cells = obj
    if not _CELL_TYPES.issuperset(map(type, cells)):
        return None
    try:
        a = np.array(cells, dtype=float)  # None as NaN
    except OverflowError:  # an int beyond the float range
        return None
    odd = np.flatnonzero(~(np.abs(a) < 1e15)).tolist()  # None, non-finite or not for %d
    if any(type(cells[i]) is int for i in odd):
        return None  # |int| >= 1e15: %.12g of its float would round it
    return (a.reshape(-1, width) if width else a), [i for i in odd if cells[i] is None]


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
        if obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size >= BULK_MIN_SIZE:
            return _format_array(obj)
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if len(obj) >= BULK_MIN_SIZE and (table := _table(obj)) is not None:
            return _format_array(*table)
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
        return "{" + ", ".join(f"{json.dumps(str(k))}: {canonical_json(obj[k])}"
                               for k in sorted(obj)) + "}"
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
    elif obj is None or isinstance(obj, (bool, float, np.floating)):
        rows.append((prefix, "" if obj is None else canonical_json(obj).strip('"')))
    else:
        rows.append((prefix, str(obj)))
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


def _parse_pairs(raw: bytes) -> np.ndarray | None:
    """An array body ``[a, b], [c, d], ...`` as ``np.asarray`` makes it of ``json``'s
    list, bit for bit; None unless it is pairs in typelab's spacing that json reads."""
    skeleton = raw.translate(None, b"0123456789-+.eE") + b", "
    if skeleton != b"[, ], " * (len(skeleton) // 6):
        return None  # another character or spacing, or rows that are not pairs
    try:  # json reads the numbers, without the rows' brackets
        return np.asarray(json.loads(b"[" + raw.translate(None, b"[]") + b"]"),
                          dtype=float).reshape(-1, 2)
    except (ValueError, OverflowError):  # json refuses, or an int beyond the float range
        return None


def load_document(path: str) -> dict:
    """The JSON document at ``path``: ``PAIR_KEYS`` rows by ``_parse_pairs`` where
    it vouches for them, all else by ``json``, with the same values and errors."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    pieces, arrays, end = [], [], 0
    at = text.find('": [[')
    while at >= 0:
        key, hi = text[text.rfind('"', 0, at) + 1:at], at
        if key in PAIR_KEYS:  # to its first "]]", where the search goes on: each byte once
            hi = text.find("]]", at + 4) + 1
            values = _parse_pairs(text[at + 4:hi].encode()) if hi > at else None
            if values is not None:
                pieces += [text[end:at + 3], "NaN"]
                arrays.append((key, values))
                end = hi + 1
        at = text.find('": [[', max(hi, at + 1))
    if arrays:
        # json reads each array as a NaN standing for it: it must be its key's one value
        slots = [values for _, values in reversed(arrays)]
        try:
            doc = json.loads("".join(pieces) + text[end:], parse_constant=lambda _: slots.pop())
            if isinstance(doc, dict) and all(doc.get(k) is v for k, v in arrays):
                return doc
        except (ValueError, IndexError, RecursionError):
            pass  # json's own error, or a constant of the document: json alone decides
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except RecursionError:  # json recurses once per level of nesting
        raise TypelabError("document is nested too deeply to read") from None


def _loader(kind: str):
    """A builder of ``kind`` documents as a loader of a path or parsed document."""
    def wrap(build):
        @functools.wraps(build)
        def load(doc: dict | str):
            try:
                return build(load_document(doc) if isinstance(doc, str) else doc)
            except KeyError as exc:
                raise TypelabError(f"{kind} document missing field {exc}") from exc
        return load
    return wrap


@_loader("sequence")
def load_sequence(doc) -> RealSequence:
    """``{"points": [...], "window": T, "generator": optional}``"""
    return RealSequence(np.asarray(doc["points"], dtype=float), float(doc["window"]),
                        doc.get("generator"))


@_loader("measure")
def load_measure(doc) -> DiscreteMeasure:
    """``{"atoms": [[x, m], ...], "window": T}``"""
    atoms = np.asarray(doc["atoms"], dtype=float)
    if atoms.size == 0:
        atoms = atoms.reshape(0, 2)  # DiscreteMeasure reports the empty input
    elif atoms.ndim != 2 or atoms.shape[1] != 2:
        raise TypelabError("atoms must be a list of [position, mass] pairs")
    atoms = atoms[np.argsort(atoms[:, 0], kind="stable")]  # ties are duplicates, rejected below
    return DiscreteMeasure(atoms[:, 0], atoms[:, 1], float(doc["window"]), doc.get("tag"))


@_loader("weight table")
def load_weight_table(doc) -> WeightTable:
    """``{"breakpoints": [...], "values": [...], "kind": optional}``"""
    return WeightTable(np.asarray(doc["breakpoints"], dtype=float),
                       np.asarray(doc["values"], dtype=float),
                       doc.get("kind", "mu-weight"))


@_loader("interval")
def load_intervals(doc) -> list[Interval]:
    """``{"intervals": [[left, right], ...]}``"""
    return [Interval(float(l), float(r)) for l, r in doc["intervals"]]


@_loader("partition")
def load_partition(doc) -> Partition:
    """``{"breakpoints": [...]}``"""
    return Partition(np.asarray(doc["breakpoints"], dtype=float))
