"""Refused input: one error type, and the messages the CLI prints for it.

Every input the CLI refuses raises :class:`TypelabError`; callers tell apart
only the two subclasses they catch.  The commands below each fail at a
different check, and their stderr is pinned byte for byte.
"""

import importlib
import inspect
import json
import pkgutil

import pytest

import typelab
from typelab.cli import main
from typelab.core import TypelabError

SEQ = {"points": list(range(-20, 21)), "window": 20}
MEASURE = {"atoms": [[n, (1.0 + n * n) ** -2] for n in range(-20, 21)], "window": 20}

# (cause, documents written to files, argv naming them as {key}, stderr)
REFUSED = [
    ("weight-spacing", {}, ["construct", "auxiliary", "--param", "T=1e15", "--param", "d=1e-10"],
     "pair widths fall below the float spacing of the base points; "
     "shrink the window or raise the weights"),
    ("fill-spacing", {}, ["construct", "auxiliary", "--param", "L=10"],
     "need L >= 1/epsilon = 20.0"),
    ("weight-family", {}, ["construct", "weighted-measure", "--param", "weights=nope"],
     "unknown weight family 'nope'"),
    ("benedicks-conditions", {}, ["construct", "benedicks", "--param", "even=3",
                                  "--param", "odd=1", "--param", "T=100"],
     "['condition 3 at even index -50']"),
    ("no-atoms", {"m": {"atoms": [], "window": 1}}, ["type", "--input", "{m}"],
     "measure needs at least one atom"),
    ("duplicate-point", {"s": {"points": [0, 0, 1], "window": 2}}, ["energy", "--input", "{s}"],
     "points must be strictly increasing"),
    ("out-of-window", {"s": {"points": [0, 5], "window": 2}}, ["energy", "--input", "{s}"],
     "points must be finite and lie in [-T, T]"),
    ("one-point", {"s": {"points": [0], "window": 2}}, ["energy", "--input", "{s}"],
     "coulomb energy needs at least 2 points"),
    ("short-interval", {"s": SEQ}, ["energy", "--input", "{s}", "--interval=0,0.5"],
     "interval length 0.5 < 1"),
    ("coincident-points", {"s": {"points": [0, 1e-301], "window": 2}},
     ["energy", "--input", "{s}"],
     "two points closer than 1e-300"),
    ("oracle-grid", {"m": MEASURE},
     ["oracle", "--input", "{m}", "--a-min", "-2", "--a-max", "1", "--steps", "3"],
     "a-grid must be positive and strictly increasing"),
    ("oracle-freq-density", {"m": MEASURE},
     ["oracle", "--input", "{m}", "--a-max", "8", "--steps", "8", "--freq-density", "-5"],
     "freq-density must be positive, got -5"),
    ("overlap", {"i": {"intervals": [[0, 2], [1, 3]]}}, ["classify", "--intervals", "{i}"],
     "(0.0, 2.0] overlaps (1.0, 3.0]"),
    ("not-short", {"i": {"intervals": [[2.0 ** n, 2.0 ** n + 2.0 ** (n - 1)]
                                       for n in range(1, 30)]}},
     ["short2i", "--intervals", "{i}"],
     "input family classifies divergent, not short"),
    ("not-separated", {"m": {"atoms": [[0, 1], [1e-7, 1]], "window": 1}},
     ["type", "--separated", "--input", "{m}"],
     "min gap 1e-07 below 1e-06"),
    ("not-uniform", {"m": MEASURE, "s": {"points": [0, 1, 5, 6, 17], "window": 20}},
     ["theorem", "suffgen", "--input", "{m}", "--sequence", "{s}"],
     "A is not d-uniform at d=1.0"),
    ("empty-neighbourhood", {"m": {"atoms": [[0.5, 1], [1.5, 1]], "window": 20}, "s": SEQ},
     ["theorem", "suffgen", "--input", "{m}", "--sequence", "{s}"],
     "zero mass in (-19.333333333333332, -18.666666666666668)"),
    ("weight-below-one", {"m": MEASURE, "w": {"breakpoints": [-20, 0, 20], "values": [0.5, 0.5],
                                              "kind": "samples"}},
     ["theorem", "debranges", "--input", "{m}", "--weight", "{w}"],
     "weight must be >= 1"),
    ("alternation-zero", {"p": {"breakpoints": [-1, -1e-13, 0, 1]}},
     ["theorem", "benedicks", "--partition", "{p}"],
     "alternating partition needs 0 as a breakpoint"),
    ("partition-window", {"s": SEQ, "p": {"breakpoints": [-5, 0, 5]}},
     ["uniform", "--input", "{s}", "--d", "1", "--partition", "{p}"],
     "partition does not cover the sequence window"),
]


@pytest.mark.parametrize("docs, argv, message", [case[1:] for case in REFUSED],
                         ids=[case[0] for case in REFUSED])
def test_refused_input_message(docs, argv, message, tmp_path, capsys):
    paths = {}
    for key, doc in docs.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_only_caught_errors_subclass_typelab_error():
    modules = [importlib.import_module(f"typelab.{info.name}")
               for info in pkgutil.iter_modules(typelab.__path__) if info.name != "__main__"]
    defined = {obj for module in modules for obj in vars(module).values()
               if inspect.isclass(obj) and issubclass(obj, TypelabError) and obj is not TypelabError}
    assert {cls.__name__ for cls in defined} == {"InsufficientData", "IllConditioned"}
