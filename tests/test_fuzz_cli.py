"""Fuzz gate for the document loaders and the numeric arguments.

Malformed JSON documents (wrong shapes, missing or extra keys, strings,
bools, nulls and huge or tiny numbers in place of values) go through
``cli.main`` to each of the five loaders, and an intervals document to each
of the four commands that read one; so do density grids, the
Benedicks constants, the ``construct`` parameters of the alternating
tilings and of the arithmetic progressions, the float options of the
analysis commands, the oracle's frequency range and step count, and
energy configurations and intervals near the float range, and documents
nested deeper than ``json`` reads.  Every run
must end in exit 0 with a finite canonical JSON report, or exit 2 with a
one-line error: never an exception, a numpy ``RuntimeWarning``, or
``"nan"`` or ``"inf"`` on stdout.
"""

import contextlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from typelab import catalog, constructions
from typelab.cli import main
from typelab.constructions import alternating_partition, arithmetic, perturb_exponential
from typelab.core import Interval, WeightTable
from typelab.serialize import canonical_json

# a numpy warning on stderr is a defect even where the run then exits cleanly
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

EXTREMES = [10 ** 400, -10 ** 400, 2 ** 64, 1e308, -1e308, 1e-300, 5e-324, -0.0, 0]
scalars = st.one_of(st.none(), st.booleans(), st.integers(-10 ** 6, 10 ** 6),
                    st.sampled_from(EXTREMES),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.text(max_size=4))
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                      max_leaves=8)
numbers = st.one_of(st.integers(-30, 30), st.floats(-30, 30), st.sampled_from(EXTREMES))
number_lists = st.one_of(st.lists(numbers, max_size=8),
                         st.lists(numbers, unique=True, max_size=8).map(sorted))
pairs = st.lists(st.lists(numbers, min_size=2, max_size=2), max_size=6)


@st.composite
def malformed(draw, fields):
    """A document over ``fields``: each key plausible, arbitrary or missing, plus extras."""
    if draw(st.integers(0, 9)) == 0:
        return draw(values)
    doc = {}
    for key, plausible in fields.items():
        choice = draw(st.integers(0, 5))
        if choice < 4:
            doc[key] = draw(plausible)
        elif choice == 4:
            doc[key] = draw(values)
    doc.update(draw(st.dictionaries(st.text(max_size=4), values, max_size=2)))
    return doc


SEQUENCE = {"points": number_lists, "window": numbers, "generator": st.text(max_size=4)}
MEASURE = {"atoms": pairs, "window": numbers, "tag": st.text(max_size=4)}
INTERVALS = {"intervals": pairs}
PARTITION = {"breakpoints": number_lists.map(lambda bks: bks + [0])}
WEIGHT = {"breakpoints": number_lists, "values": number_lists,
          "kind": st.sampled_from(["mu-weight", "samples", "other"]), "floor": numbers}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    # long enough for a divergent excess family: the exterior density has no
    # feasible value below about 0.75
    seq = perturb_exponential(arithmetic(1.0, 200.0), 1.0, 3)
    (root / "seq.json").write_text(canonical_json(seq))
    (root / "partition.json").write_text(canonical_json(alternating_partition(1.0, 2.0, 60.0)))
    (root / "measure.json").write_text(canonical_json(catalog.koosis_measure(50.0)))
    short = [Interval(2.0 ** n, 2.0 ** n + n) for n in range(1, 12)]
    (root / "intervals.json").write_text(
        canonical_json({"intervals": [[iv.left, iv.right] for iv in short]}))
    weight = WeightTable(np.linspace(-50.0, 50.0, 11), np.full(10, 2.0))
    (root / "weight.json").write_text(canonical_json(weight))
    return root


def run(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        text = out.getvalue()
        json.loads(text)
        for bad in ('"nan"', '"inf"', '"-inf"'):
            assert bad not in text, (argv, text)
    else:
        assert err.getvalue().startswith("error: ") or "usage:" in err.getvalue()


def run_with_document(workdir, doc, argv) -> None:
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc))
    run([str(path) if a == "DOC" else a for a in argv])


@FUZZ
@given(doc=malformed(SEQUENCE))
def test_sequence_loader(workdir, doc):
    run_with_document(workdir, doc, ["energy", "--input", "DOC"])


@FUZZ
@given(doc=malformed(MEASURE))
def test_measure_loader(workdir, doc):
    run_with_document(workdir, doc, ["type", "--input", "DOC", "--grid", "0.5"])


@FUZZ
@given(doc=malformed(INTERVALS))
@example(doc={"intervals": [[-1e308, 1e308]]})  # a length beyond the float range
@example(doc={"intervals": [[-1.5e308, -1e308], [1e308, 1.5e308]]})  # and a gap
@example(doc={"intervals": [[1e156, 1.001e156]]})  # a Poisson weight below the float range
def test_intervals_loader(workdir, doc):
    for argv in (["classify"], ["short2i"], ["theorem", "beurling-gap"],
                 ["theorem", "hybrid", "--input", str(workdir / "measure.json")]):
        run_with_document(workdir, doc, argv + ["--intervals", "DOC"])


@FUZZ
@given(doc=malformed(PARTITION))
def test_partition_loader(workdir, doc):
    run_with_document(workdir, doc, ["uniform", "--input", str(workdir / "seq.json"),
                                     "--d", "1.0", "--partition", "DOC"])


@FUZZ
@given(doc=malformed(PARTITION))
def test_benedicks_partition(workdir, doc):
    run_with_document(workdir, doc, ["theorem", "benedicks", "--partition", "DOC"])


@FUZZ
@given(doc=malformed(WEIGHT))
def test_weight_table_loader(workdir, doc):
    run_with_document(workdir, doc, ["theorem", "krein-lm", "--weight", "DOC"])


grid_numbers = st.one_of(st.integers(-5, 60).map(str),
                         st.floats(-5, 60).map(repr),
                         st.sampled_from(["1e308", "1e-300", "5e-324", "-0", "inf", "nan", ""]))
grids = st.one_of(
    st.lists(grid_numbers, min_size=1, max_size=4).map(",".join),
    st.lists(grid_numbers, min_size=3, max_size=3).map(":".join),
    st.text(alphabet="0123456789.:,-e", max_size=10))


@FUZZ
@given(grid=grids, kind=st.sampled_from(["interior", "exterior"]))
def test_density_grid(workdir, grid, kind):
    run(["density", "--input", str(workdir / "seq.json"), "--kind", kind, "--grid", grid])


arg_numbers = st.one_of(st.sampled_from(["0", "-0", "-1", "nan", "inf", "-inf", "1e308",
                                         "-1e308", "5e-324"]),
                        st.floats(-60, 60).map(repr), st.floats(0.1, 60).map(repr))


@FUZZ
@given(consts=st.dictionaries(st.sampled_from(["c1", "c2", "c3"]), arg_numbers))
def test_benedicks_constants(workdir, consts):
    run(["theorem", "benedicks", "--partition", str(workdir / "partition.json")]
        + [f"--{k}={v}" for k, v in consts.items()])


@settings(FUZZ, max_examples=150)
@given(family=st.sampled_from(["alternating-partition", "benedicks"]),
       # tilted towards valid values, so that some runs build a tiling
       params=st.dictionaries(st.sampled_from(["T", "even", "odd", "C"]),
                              st.floats(0.1, 60).map(repr) | arg_numbers))
def test_construct_tiling_params(family, params):
    # a small cap, so that no accepted parameter set builds a large tiling
    with mock.patch.object(constructions, "CONSTRUCTION_MAX_SIZE", 2000):
        run(["construct", family] + [f"--param={k}={v}" for k, v in params.items()])


@settings(FUZZ, max_examples=150)
@given(family=st.sampled_from(["arithmetic", "perturbed"]),
       params=st.dictionaries(st.sampled_from(["d", "T", "c", "seed"]),
                              st.floats(0.1, 60).map(repr) | st.integers(0, 99).map(str)
                              | arg_numbers))
def test_construct_arithmetic_params(family, params):
    # a small cap, so that no accepted parameter set builds a long progression
    with mock.patch.object(constructions, "ARITHMETIC_MAX_POINTS", 2000):
        run(["construct", family] + [f"--param={k}={v}" for k, v in params.items()])


# each command with the float options it reads, all of them set on every run
FLOAT_OPTIONS = {
    ("uniform", "--input", "seq"): ("--d",),
    ("regularity", "--input", "seq"): ("--a",),
    ("regularity", "--input", "seq", "--scan", "families"): ("--a", "--epsilon"),
    ("short2i", "--intervals", "intervals"): ("--C",),
    ("theorem", "duffin-schaeffer", "--input", "measure"): ("--L", "--c"),
    ("theorem", "borichev-sodin", "--input", "measure", "--other", "measure"):
        ("--delta", "--C", "--l"),
    ("theorem", "debranges", "--input", "measure", "--weight", "weight"): ("--modulus",),
    ("rescale", "--input", "measure"): ("--alpha",),
}
option_values = st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "-2.5", "1e308",
                                 "-1e308"]) | st.floats(-60, 60).map(repr)


@settings(FUZZ, max_examples=150)
@given(command=st.sampled_from(sorted(FLOAT_OPTIONS)), data=st.data())
def test_float_options(workdir, command, data):
    values = data.draw(st.fixed_dictionaries({o: option_values for o in FLOAT_OPTIONS[command]}))
    docs = {"seq", "measure", "intervals", "weight"}
    run([str(workdir / f"{a}.json") if a in docs else a for a in command]
        + [f"{o}={v}" for o, v in values.items()])


near_float_range = st.one_of(
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
                     8.9e307, -8.9e307, 1e307, -1e307, 0.0]),
    st.floats(-1.7976931348623157e308, 1.7976931348623157e308),
    st.floats(-30, 30))


@settings(FUZZ, max_examples=150)
@given(points=st.lists(near_float_range, min_size=2, max_size=6, unique=True).map(sorted),
       window=st.sampled_from([1e308, 1.7976931348623157e308, 1e307]),
       interval=st.none() | st.lists(near_float_range, min_size=2, max_size=2,
                                     unique=True).map(sorted))
def test_energy_near_float_range(workdir, points, window, interval):
    argv = ["energy", "--input", "DOC"]
    if interval is not None:
        argv.append("--interval={!r},{!r}".format(*interval))
    run_with_document(workdir, {"points": points, "window": window}, argv)


# the oracle's matrix grows with --a-max (about 32 rows per unit on the T=50
# measure): 1e4 and above must meet the matrix cap before any allocation
oracle_frequencies = st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "1e308", "-1e308",
                                      "5e-324", "1e4", "1e6", "1e7"]) | st.floats(-2, 13).map(repr)


@settings(FUZZ, max_examples=100)
@given(a_min=oracle_frequencies, a_max=oracle_frequencies,
       steps=st.sampled_from([0, -1, 1, 2, 10001, 10 ** 9]))
def test_oracle_range_and_steps(workdir, a_min, a_max, steps):
    run(["oracle", "--input", str(workdir / "measure.json"), f"--a-min={a_min}",
         f"--a-max={a_max}", f"--steps={steps}"])


@pytest.mark.parametrize("argv, key", [(["energy", "--input", "DOC"], "points"),
                                       (["rescale", "--input", "DOC", "--alpha", "1"], "atoms")])
def test_deeply_nested_document(workdir, argv, key):
    # json reads each level of nesting with one recursion
    path = workdir / "nested.json"
    path.write_text(f'{{"{key}": [' * 900 + "1" + "]}" * 900)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if a == "DOC" else a for a in argv])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == "error: document is nested too deeply to read\n"
