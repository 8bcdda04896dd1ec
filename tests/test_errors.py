"""Refused input: one error type, and the messages the CLI prints for it.

Every input the library refuses raises :class:`TypelabError`; callers tell
apart only the two subclasses they catch.  The commands below each fail at a
different check, and their stderr is pinned byte for byte.  Options the
parser refuses, and paths that cannot be opened, exit 2 as well; any other
exception is a fault and leaves ``main``.
"""

import importlib
import inspect
import json
import pkgutil

import pytest

import typelab
from typelab import cli
from typelab.cli import main
from typelab.constructions import arithmetic
from typelab.core import TypelabError
from typelab.density import regularity_block_scan, strong_regularity_defect
from typelab.partitions import find_short_partition
from typelab.uniformity import check_d_uniform

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
    ("interval-one-value", {"s": SEQ}, ["energy", "--input", "{s}", "--interval", "1"],
     "--interval '1' is not 2 numbers separated by ','"),
    ("interval-three-values", {"s": SEQ}, ["energy", "--input", "{s}", "--interval", "1,2,3"],
     "--interval '1,2,3' is not 2 numbers separated by ','"),
    ("interval-not-numbers", {"s": SEQ}, ["energy", "--input", "{s}", "--interval", "a,b"],
     "--interval 'a,b' is not 2 numbers separated by ','"),
    ("param-not-number", {}, ["construct", "arithmetic", "--param", "d=abc"],
     "--param d=abc is not a number"),
    ("beta-not-number", {}, ["construct", "weighted-measure", "--param", "beta=abc"],
     "--param beta=abc is not a number"),
    ("seed-not-integer", {}, ["construct", "perturbed", "--param", "seed=1.5"],
     "--param seed=1.5 is not a non-negative integer"),
    ("seed-negative", {}, ["construct", "perturbed", "--param", "seed=-1"],
     "--param seed=-1 is not a non-negative integer"),
    ("grid-two-values", {"s": SEQ}, ["density", "--input", "{s}", "--grid", "1:2"],
     "--grid '1:2' is not 3 numbers separated by ':'"),
    ("grid-not-numbers", {"s": SEQ}, ["density", "--input", "{s}", "--grid", "1,x"],
     "--grid '1,x' is not a list of numbers separated by ','"),
    ("grid-four-values", {"m": MEASURE}, ["type", "--input", "{m}", "--grid", "0.1:1:0.1:5"],
     "--grid '0.1:1:0.1:5' is not 3 numbers separated by ':'"),
    ("coincident-points", {"s": {"points": [0, 1e-301], "window": 2}},
     ["energy", "--input", "{s}"],
     "two points closer than 1e-300"),
    ("oracle-grid", {"m": MEASURE},
     ["oracle", "--input", "{m}", "--a-min", "-2", "--a-max", "1", "--steps", "3"],
     "a-grid must be positive and strictly increasing"),
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
    ("seed-beyond-int-limit", {}, ["construct", "perturbed", "--param", "seed=" + "1" * 5000],
     f"--param seed={'1' * 5000} is not a non-negative integer"),
    # a document whose field json reads but the loader cannot: named by the document's kind
    ("points-not-numbers", {"s": {"points": ["a"], "window": 2}}, ["energy", "--input", "{s}"],
     "sequence document: could not convert string to float: 'a'"),
    ("window-a-list", {"m": {"atoms": [[0, 1]], "window": [1]}}, ["type", "--input", "{m}"],
     "measure document: float() argument must be a string or a real number, not 'list'"),
    ("int-beyond-float", {"i": {"intervals": [[0, 10 ** 400]]}},
     ["classify", "--intervals", "{i}"],
     "interval document: int too large to convert to float"),
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


# options that no longer exist: refused by the parser, never silently ignored
@pytest.mark.parametrize("argv", [
    ["oracle", "--input", "{m}", "--a-max", "8", "--steps", "8", "--freq-density", "8"],
    ["regularity", "--scan", "families", "--input", "{s}", "--a", "1", "--epsilon", "0.05"],
], ids=["oracle-freq-density", "regularity-epsilon"])
def test_removed_option_refused(argv, tmp_path, capsys):
    paths = {"m": tmp_path / "m.json", "s": tmp_path / "s.json"}
    paths["m"].write_text(json.dumps(MEASURE))
    paths["s"].write_text(json.dumps(SEQ))
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "unrecognized arguments" in captured.err


# options a checker does not read, even at their defaults, and beurling-gap
# with both or neither of its sources: argparse refuses each, naming the options
@pytest.mark.parametrize("argv, options", [
    (["theorem", "levinson", "--input", "{m}", "--C", "5", "--sequence", "nonexistent.json",
      "--L", "-3"], ["--C", "--sequence", "--L"]),
    (["theorem", "duffin-schaeffer", "--input", "{m}", "--no-monotone", "--modulus", "1.0"],
     ["--no-monotone", "--modulus"]),
    (["theorem", "beurling-gap", "--input", "{s}", "--intervals", "{i}"],
     ["--input", "--intervals"]),
    (["theorem", "beurling-gap"], ["--input", "--intervals"]),
], ids=["theorem-unread", "theorem-unread-default", "beurling-gap-both", "beurling-gap-neither"])
def test_theorem_option_refused(argv, options, tmp_path, capsys):
    paths = {key: tmp_path / f"{key}.json" for key in "msi"}
    for key, doc in zip("msi", (MEASURE, SEQ, {"intervals": [[1, 2]]})):
        paths[key].write_text(json.dumps(doc))
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    error = captured.err.splitlines()[-1]
    assert "error: " in error and all(option in error for option in options)


# a directory where a file belongs: an input error like any other OSError
@pytest.mark.parametrize("argv", [
    ["energy", "--input", "{d}"],
    ["construct", "arithmetic", "--out", "{d}"],
    ["oracle", "--input", "{m}", "--a-max", "6", "--steps", "8", "--csv", "{d}"],
], ids=["energy-input", "construct-out", "oracle-csv"])
def test_directory_as_path(argv, tmp_path, capsys):
    measure = tmp_path / "m.json"
    measure.write_text(json.dumps(MEASURE))
    code = main([arg.format(d=tmp_path, m=measure) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_library_fault_is_not_an_input_error(tmp_path, monkeypatch):
    # main exits 2 only on TypelabError and OSError: any other exception is a fault
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MEASURE))

    def faulty(measure):
        raise ValueError("a fault in the checker")

    monkeypatch.setattr(cli, "levinson_check", faulty)
    with pytest.raises(ValueError, match="a fault in the checker"):
        main(["theorem", "levinson", "--input", str(path)])


def test_only_caught_errors_subclass_typelab_error():
    modules = [importlib.import_module(f"typelab.{info.name}")
               for info in pkgutil.iter_modules(typelab.__path__) if info.name != "__main__"]
    defined = {obj for module in modules for obj in vars(module).values()
               if inspect.isclass(obj) and issubclass(obj, TypelabError) and obj is not TypelabError}
    assert {cls.__name__ for cls in defined} == {"InsufficientData", "IllConditioned"}


# library entry points whose guard, written `x <= 0`, was false on NaN
NAN_REFUSALS = {
    regularity_block_scan: "need a >= 0",
    strong_regularity_defect: "regularity parameter must be nonnegative",
    check_d_uniform: "d must be positive",
    find_short_partition: "target density d must be positive",
}


@pytest.mark.parametrize("entry", list(NAN_REFUSALS), ids=lambda f: f.__name__)
def test_nan_parameter_refused(entry):
    with pytest.raises(TypelabError) as exc:
        entry(arithmetic(1, 100), float("nan"))
    assert str(exc.value) == NAN_REFUSALS[entry]
