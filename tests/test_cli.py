import argparse
import json
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

from typelab import catalog
from typelab.cli import build_parser, main
from typelab.serialize import canonical_json, render_csv


@pytest.fixture
def seq_file(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"points": list(range(-50, 51)), "window": 50}))
    return str(path)


@pytest.fixture
def measure_file(tmp_path):
    atoms = [[n, (1.0 + n * n) ** -2] for n in range(-50, 51)]
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({"atoms": atoms, "window": 50}))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestSubcommands:
    def test_energy(self, seq_file, capsys):
        code, out = run_cli(["energy", "--input", seq_file], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["points"] == 101

    def test_energy_interval(self, seq_file, capsys):
        code, out = run_cli(["energy", "--input", seq_file,
                             "--interval=-0.5,9.5"], capsys)
        assert code == 0
        assert json.loads(out)["delta"] == 10

    def test_partition_and_uniform(self, seq_file, capsys):
        code, out = run_cli(["partition", "--input", seq_file, "--d", "1.0"], capsys)
        assert code == 0
        bks = json.loads(out)["breakpoints"]
        assert 0.0 in bks
        code, out = run_cli(["uniform", "--input", seq_file, "--d", "1.0"], capsys)
        assert code == 0
        assert json.loads(out)["overall"] is True

    def test_classify(self, tmp_path, capsys):
        doc = {"intervals": [[2.0 ** n, 2.0 ** n + n] for n in range(1, 30)]}
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["classify", "--intervals", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["classification"] == "convergent"

    def test_density(self, seq_file, capsys):
        code, out = run_cli(["density", "--input", seq_file, "--kind", "interior",
                             "--grid", "0.2:1.4:0.2"], capsys)
        assert code == 0
        assert json.loads(out)["kind"] == "interior"

    def test_type(self, measure_file, capsys):
        code, out = run_cli(["type", "--input", measure_file, "--separated",
                             "--grid", "0.2,0.5,1.0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["two_sided"] is True
        assert doc["lower_bound_type"] == pytest.approx(2 * np.pi, rel=1e-6)

    def test_theorem(self, measure_file, capsys):
        code, out = run_cli(["theorem", "levinson", "--input", measure_file], capsys)
        assert code == 0
        assert json.loads(out)["conclusion"]["kind"] == "inconclusive"

    def test_construct_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "generated.json"
        code, _ = run_cli(["construct", "arithmetic", "--param", "d=1",
                           "--param", "T=30", "--out", str(out_path)], capsys)
        assert code == 0
        code, out = run_cli(["energy", "--input", str(out_path)], capsys)
        assert code == 0
        assert json.loads(out)["points"] == 61

    def test_oracle(self, measure_file, tmp_path, capsys):
        csv_path = tmp_path / "curve.csv"
        code, out = run_cli(["oracle", "--input", measure_file, "--a-max", "12.6",
                             "--steps", "24", "--csv", str(csv_path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["knee"] is not None
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "a,sigma_min,cond"
        assert len(lines) == 25

    def test_oracle_csv_format_prints_the_summary(self, measure_file, tmp_path, capsys):
        # --csv FILE writes the curve; --format csv renders the summary as every command does
        argv = ["oracle", "--input", measure_file, "--a-max", "12.6", "--steps", "24",
                "--csv", str(tmp_path / "curve.csv")]
        code, out = run_cli(argv, capsys)
        assert code == 0
        code, csv_out = run_cli(argv + ["--format", "csv"], capsys)
        assert code == 0
        assert csv_out == render_csv(json.loads(out))
        assert csv_out.startswith("key,value\n")

    def test_uniform_merges_a_short_last_interval_leftward(self, tmp_path, capsys):
        seq, part = tmp_path / "seq.json", tmp_path / "part.json"
        seq.write_text(json.dumps({"points": [-9, -7, -5, -3, -1, 0.5, 2, 4, 6, 8, 9.7],
                                   "window": 10}))
        part.write_text(json.dumps({"breakpoints": [-10, 0, 5, 9.5, 10]}))
        code, out = run_cli(["uniform", "--input", str(seq), "--d", "1.0",
                             "--partition", str(part)], capsys)
        assert code == 0
        assert json.loads(out)["partition"]["breakpoints"] == [-10, 0, 5, 10]

    def test_csv_format(self, seq_file, capsys):
        code, out = run_cli(["energy", "--input", seq_file, "--format", "csv"], capsys)
        assert code == 0
        assert out.startswith("key,value")

    def test_construct_csv_format(self, tmp_path, capsys):
        # --format applies to construct as to every command; --out still writes JSON
        argv = ["construct", "arithmetic", "--param", "T=2"]
        code, out = run_cli(argv + ["--format", "csv"], capsys)
        assert code == 0
        assert out == render_csv(json.loads(run_cli(argv, capsys)[1]))
        assert out.startswith("key,value\ngenerator,arithmetic(d=1)\npoints[0],-2\n")
        path = tmp_path / "seq.json"
        code, out = run_cli(argv + ["--out", str(path), "--format", "csv"], capsys)
        assert (code, out) == (0, f"key,value\nwritten,{path}\n")
        assert path.read_text() == run_cli(argv, capsys)[1]


# each checker with the options it reads
# the options each leaf command reads, as its --help lists them besides --help
# and --format; recorded before the commands shared one declaration helper
COMMAND_OPTIONS = {
    "energy": {"--input", "--interval"},
    "partition": {"--input", "--d"},
    "classify": {"--intervals"},
    "short2i": {"--intervals", "--C"},
    "density": {"--input", "--kind", "--grid"},
    "regularity": {"--input", "--a", "--scan"},
    "uniform": {"--input", "--d", "--partition"},
    "type": {"--input", "--separated", "--grid"},
    "rescale": {"--input", "--alpha"},
    "construct": {"--param", "--out"},
    "oracle": {"--input", "--a-min", "--a-max", "--steps", "--extended-precision", "--csv",
               "--threads"},
    "suite": {"--threads"},
    "theorem beurling-gap": {"--input", "--intervals"},
    "theorem levinson": {"--input"},
    "theorem hybrid": {"--input", "--intervals"},
    "theorem debranges": {"--input", "--weight", "--modulus"},
    "theorem krein-lm": {"--weight", "--no-monotone"},
    "theorem borichev-sodin": {"--input", "--other", "--delta", "--C", "--l"},
    "theorem duffin-schaeffer": {"--input", "--L", "--c"},
    "theorem benedicks": {"--partition", "--c1", "--c2", "--c3"},
    "theorem suffgen": {"--input", "--sequence", "--d"},
}


def test_every_leaf_command_is_listed():
    def leaves(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return [path.strip()]
        return [leaf for name, child in subs[0].choices.items()
                for leaf in leaves(child, f"{path} {name}")]

    assert sorted(leaves(build_parser(), "")) == sorted(COMMAND_OPTIONS)


def assert_help_lists_only_read_options(command, capsys):
    assert main([*command.split(), "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--[\w-]+", capsys.readouterr().out))
    assert listed == COMMAND_OPTIONS[command] | {"--help", "--format"}


@pytest.mark.parametrize("name", sorted(c for c in COMMAND_OPTIONS if " " not in c))
def test_help_lists_only_read_options(name, capsys):
    assert_help_lists_only_read_options(name, capsys)


@pytest.mark.parametrize("name", sorted(c.split()[1] for c in COMMAND_OPTIONS
                                        if c.startswith("theorem ")))
def test_theorem_help_lists_only_read_options(name, capsys):
    assert_help_lists_only_read_options(f"theorem {name}", capsys)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["nope"]) == 2

    def test_missing_file(self, capsys):
        assert main(["energy", "--input", "/does/not/exist.json"]) == 2

    def test_bad_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": [1, 1, 2], "window": 10}))
        assert main(["energy", "--input", str(path)]) == 2

    def test_theorem_missing_argument(self, measure_file, capsys):
        # suffgen needs --sequence; a clean usage error, not a traceback
        assert main(["theorem", "suffgen", "--input", measure_file]) == 2
        assert main(["theorem", "krein-lm"]) == 2

    def test_suite_verdict_failure_exits_one(self, capsys, monkeypatch):
        import typelab.cli as cli

        monkeypatch.setattr(cli, "run_suite", lambda threads: [
            {"check": "x", "status": "pass", "detail": ""},
            {"check": "y", "status": "fail", "detail": "boom"},
        ])
        assert main(["suite"]) == 1

    def test_parser_built_once(self, capsys, monkeypatch):
        import typelab.cli as cli

        cli.build_parser.cache_clear()
        assert main(["theorem", "krein-lm"]) == 2
        seen = []
        # a library function patched after the parser is built still runs
        monkeypatch.setattr(cli, "run_suite", lambda threads: seen.append(threads) or [
            {"check": "x", "status": "pass", "detail": ""}])
        assert main(["suite", "--threads", "3"]) == 0
        assert seen == [3]
        assert cli.build_parser.cache_info().misses == 1

    def test_type_has_no_denominator_option(self, measure_file, capsys):
        assert main(["type", "--input", measure_file, "--denominator", "index"]) == 2

    def test_threads_only_where_read(self, measure_file, capsys, monkeypatch):
        import typelab.cli as cli

        assert main(["type", "--input", measure_file, "--threads", "2"]) == 2
        assert main(["energy", "--input", measure_file, "--threads", "2"]) == 2
        code, out = run_cli(["oracle", "--input", measure_file, "--a-max", "6",
                             "--steps", "8", "--threads", "2"], capsys)
        assert code == 0 and "knee" in json.loads(out)
        seen = []
        monkeypatch.setattr(cli, "run_suite", lambda threads: seen.append(threads) or [
            {"check": "x", "status": "pass", "detail": ""}])
        assert main(["suite", "--threads", "2"]) == 0
        assert seen == [2]


def exits_cleanly_with_2(argv, capsys):
    """Exit 2 and a one-line error on stderr, not a traceback."""
    code = main(argv)
    err = capsys.readouterr().err
    return code == 2 and err.startswith("error: ") and "Traceback" not in err


class TestInputValidation:
    @pytest.mark.parametrize("extra", [["--steps", "0"], ["--steps", "-3"],
                                       ["--a-min", "5", "--a-max", "5"],
                                       ["--a-min", "6", "--a-max", "5"],
                                       ["--a-max", "inf"], ["--steps", "10001"]])
    def test_oracle_bad_steps_and_range(self, measure_file, extra, capsys):
        argv = ["oracle", "--input", measure_file, "--a-max", "12.6"] + extra
        assert exits_cleanly_with_2(argv, capsys)

    @pytest.mark.parametrize("grid", ["0.2:1.4:0", "0.2:1.4:-0.1", "1.4:0.2:-0.1",
                                      "0:inf:0.1", "nan:1:0.1", "0.5,nan", "0.5,inf",
                                      "0.1:1", "0:1e9:1e-9",
                                      # a step far below the loop's 1e-12 overshoot allowance
                                      "5e-324:0:1e-300"])
    def test_bad_density_grid(self, seq_file, grid, capsys):
        argv = ["density", "--input", seq_file, "--kind", "exterior", "--grid", grid]
        assert exits_cleanly_with_2(argv, capsys)

    def test_bad_type_grid(self, measure_file, capsys):
        assert exits_cleanly_with_2(["type", "--input", measure_file,
                                     "--grid", "0.1:1.0:0"], capsys)

    @pytest.mark.parametrize("separated", [[], ["--separated"]])
    @pytest.mark.parametrize("grid", ["0:1.2:0.2", "-0.5,1.0"])
    def test_non_positive_type_grid(self, measure_file, separated, grid, capsys):
        assert exits_cleanly_with_2(["type", "--input", measure_file,
                                     f"--grid={grid}"] + separated, capsys)

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, measure_file, threads, capsys):
        assert exits_cleanly_with_2(["oracle", "--input", measure_file, "--a-max", "6",
                                     "--steps", "8", "--threads", threads], capsys)
        assert exits_cleanly_with_2(["suite", "--threads", threads], capsys)

    # a comparison that overflows to inf writes a numpy RuntimeWarning to
    # stderr; the "error" filter turns one into a failure here
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("points, grid", [(list(range(-100, 101)), "1e308"),
                                              ([-1e308, 1e308], "0.5")])
    def test_extreme_values_write_nothing_to_stderr(self, tmp_path, points, grid, capsys):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"points": points, "window": max(points)}))
        assert main(["density", "--input", str(path), "--kind", "interior",
                     "--grid", grid]) == 0
        assert capsys.readouterr().err == ""

    # start > stop with a positive step expands to an empty grid
    @pytest.mark.parametrize("kind", ["interior", "exterior"])
    def test_empty_density_grid(self, seq_file, kind, capsys):
        assert exits_cleanly_with_2(["density", "--input", seq_file, "--kind", kind,
                                     "--grid", "1:0:0.1"], capsys)

    @pytest.mark.parametrize("separated", [[], ["--separated"]])
    def test_empty_type_grid(self, measure_file, separated, capsys):
        assert exits_cleanly_with_2(["type", "--input", measure_file,
                                     "--grid", "1:0:0.1"] + separated, capsys)

    def test_interior_density_of_an_empty_sequence(self, tmp_path, capsys):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"points": [], "window": 10}))
        assert main(["density", "--input", str(path), "--kind", "interior",
                     "--grid", "0.5,1"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot estimate the density of an empty sequence\n")

    def test_infeasible_exterior_grid(self, tmp_path, capsys):
        # every grid value is below the density of a long unit-spaced sequence
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"points": list(range(-1000, 1001)), "window": 1000}))
        assert exits_cleanly_with_2(["density", "--input", str(path), "--kind", "exterior",
                                     "--grid", "0.1,0.5"], capsys)

    def test_empty_grid_library_calls(self):
        from typelab.catalog import koosis_measure
        from typelab.core import RealSequence, TypelabError
        from typelab.density import exterior_density, interior_density
        from typelab.typeproblem import type_discrete, type_separated

        seq = RealSequence(np.arange(-5.0, 6.0), 10.0)
        empty = RealSequence(np.zeros(0), 10.0)
        measure = koosis_measure(20.0)
        calls = [lambda: interior_density(seq, []), lambda: exterior_density(seq, []),
                 lambda: interior_density(empty, []), lambda: exterior_density(empty, []),
                 lambda: type_discrete(measure, []), lambda: type_separated(measure, [])]
        for call in calls:
            with pytest.raises(TypelabError, match="density grid is empty"):
                call()

    @pytest.mark.parametrize("text", [
        '{"points": [1, NaN, 3], "window": 10}',
        '{"points": [1, 2, 3], "window": Infinity}',
        '{"points": [-Infinity, 2, 3], "window": 10}',
        '{"points": [1, 2, 3], "window": 1e400}',
        '{"points": [1, 2, 1e400], "window": 10}',
    ])
    def test_non_finite_sequence(self, tmp_path, text, capsys):
        path = tmp_path / "seq.json"
        path.write_text(text)
        assert exits_cleanly_with_2(["energy", "--input", str(path)], capsys)
        assert exits_cleanly_with_2(["density", "--input", str(path), "--kind", "exterior",
                                     "--grid", "0.5,1.0"], capsys)

    @pytest.mark.parametrize("text", [
        '{"atoms": [[0, 1], [NaN, 0.5]], "window": 10}',
        '{"atoms": [[0, 1], [1, 0.5]], "window": Infinity}',
        '{"atoms": [[0, 1], [1, 0.5]], "window": 1e400}',
        '{"atoms": [[0, 1], [1, NaN]], "window": 10}',
    ])
    def test_non_finite_measure(self, tmp_path, text, capsys):
        path = tmp_path / "measure.json"
        path.write_text(text)
        assert exits_cleanly_with_2(["type", "--input", str(path)], capsys)
        assert exits_cleanly_with_2(["theorem", "levinson", "--input", str(path)], capsys)

    @pytest.mark.parametrize("atoms", ["[[0, 1, 5], [2, 3, 7]]", "[0, 1, 2, 3]",
                                       "[[[0, 1]], [[2, 3]]]", "[[0, 1], [2]]", "[]"])
    def test_malformed_atoms(self, tmp_path, atoms, capsys):
        path = tmp_path / "measure.json"
        path.write_text('{"atoms": %s, "window": 10}' % atoms)
        assert exits_cleanly_with_2(["type", "--input", str(path)], capsys)

    @pytest.mark.parametrize("intervals", ["[[1, 2], [3, 1e308]]", "[[0, 1e400]]"])
    def test_huge_or_infinite_interval(self, tmp_path, intervals, capsys):
        path = tmp_path / "intervals.json"
        path.write_text('{"intervals": %s}' % intervals)
        assert main(["classify", "--intervals", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, intervals", [
        (["classify"], "[[-1e308, 1e308]]"),
        (["short2i"], "[[-1e308, 1e308]]"),
        (["theorem", "beurling-gap"], "[[-1.5e308, -1e308], [1e308, 1.5e308]]"),
        (["theorem", "hybrid", "--input", "MEASURE"], "[[-1e308, 1e308]]")])
    def test_interval_length_beyond_float_range(self, tmp_path, command, intervals, capsys):
        # finite ends whose difference overflows; for beurling-gap it is the gap
        measure = tmp_path / "measure.json"
        measure.write_text('{"atoms": [[0, 2], [1, 3]], "window": 10}')
        path = tmp_path / "intervals.json"
        path.write_text('{"intervals": %s}' % intervals)
        argv = [str(measure) if a == "MEASURE" else a for a in command]
        assert main(argv + ["--intervals", str(path)]) == 2
        assert capsys.readouterr().err == ("error: interval (-1e+308, 1e+308] "
                                           "is longer than the float range\n")

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        huge = "1" + "0" * 400
        docs = {"energy": '{"points": [1, 2, %s], "window": 10}' % huge,
                "type": '{"atoms": [[0, 1], [1, 0.5]], "window": %s}' % huge,
                "classify": '{"intervals": [[0, %s]]}' % huge}
        for command, text in docs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(text)
            flag = "--intervals" if command == "classify" else "--input"
            assert exits_cleanly_with_2([command, flag, str(path)], capsys)

    @pytest.mark.parametrize("const", ["--c1=0", "--c2=0", "--c1=nan", "--c2=inf", "--c3=-1"])
    def test_bad_benedicks_constant(self, tmp_path, const, capsys):
        path = tmp_path / "partition.json"
        path.write_text(json.dumps({"breakpoints": [-3, -1, 0, 1, 3, 4]}))
        assert exits_cleanly_with_2(["theorem", "benedicks", "--partition", str(path), const],
                                    capsys)

    def test_benedicks_odd_length_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "partition.json"
        path.write_text(json.dumps({"breakpoints": [-1e308, -1, 0, 1, 1e300, 1e308]}))
        assert exits_cleanly_with_2(["theorem", "benedicks", "--partition", str(path)], capsys)

    @pytest.mark.parametrize("family, param", [
        (family, param) for family in ("alternating-partition", "benedicks")
        for param in ("T=nan", "T=inf", "T=1e308", "T=-5", "T=1e6", "even=0", "odd=nan")
    ] + [("benedicks", "C=nan"), ("benedicks", "C=0"), ("benedicks", "C=1e9")])
    def test_bad_tiling_params(self, family, param, capsys):
        assert exits_cleanly_with_2(["construct", family, "--param", param], capsys)

    @pytest.mark.parametrize("family", ["arithmetic", "perturbed", "auxiliary",
                                        "weighted-measure"])
    @pytest.mark.parametrize("param", ["d=1e15", "T=1e308", "d=nan", "T=inf", "d=0"])
    def test_bad_arithmetic_params(self, family, param, capsys):
        # every family built on an arithmetic progression refuses it before allocating
        assert exits_cleanly_with_2(["construct", family, "--param", param], capsys)

    @pytest.mark.parametrize("params", [["epsilon=1e300", "L=1e-300"],
                                        ["epsilon=1e6", "L=1e-6"]])
    def test_auxiliary_fill_beyond_cap(self, params):
        # a fill of about 1e302 or 2.7e8 points is refused before it is built:
        # the run gets 1 GiB of address space, less than the second fill needs
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        argv = ["construct", "auxiliary"] + [a for p in params for a in ("--param", p)]
        run = subprocess.run([sys.executable, "-m", "typelab", *argv], capture_output=True,
                             text=True, preexec_fn=limit, timeout=60)
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr == "error: the gap fill would have more than 100000 points\n"

    @pytest.mark.parametrize("params", [["weights=exponential", "c=-1000"],
                                        ["weights=exponential", "c=1e308"],
                                        ["weights=mixed", "c=-800"],
                                        ["weights=polynomial", "beta=-200"]])
    def test_weights_beyond_float_range(self, params, capsys):
        # an exponent past the float range gives an infinite or zero mass, refused
        # without a numpy warning
        argv = ["construct", "weighted-measure"] + [a for p in params for a in ("--param", p)]
        assert exits_cleanly_with_2(argv, capsys)

    def test_perturbation_decay_beyond_float_range(self, capsys):
        # exp(-c|x|) underflows to 0 off the origin, without a numpy warning
        code = main(["construct", "perturbed", "--param", "c=1e308"])
        captured = capsys.readouterr()
        pts = np.asarray(json.loads(captured.out)["points"])
        assert code == 0 and captured.err == ""
        assert np.array_equal(pts[np.abs(pts) >= 1.0], np.setdiff1d(np.arange(-100.0, 101.0), 0.0))

    @pytest.mark.parametrize("params", [["d5"], ["dd=5", "T=3"], ["=1"], ["c=2"]])
    def test_construct_param_not_read(self, params, capsys):
        # an item without "=", or a key arithmetic does not read
        argv = ["construct", "arithmetic"] + [a for p in params for a in ("--param", p)]
        assert exits_cleanly_with_2(argv, capsys)

    @pytest.mark.parametrize("argv", [
        ["theorem", "duffin-schaeffer", "--L", "nan"],
        ["theorem", "duffin-schaeffer", "--c", "nan"],
        ["theorem", "borichev-sodin", "--other", "MEASURE", "--delta", "nan"],
        ["theorem", "borichev-sodin", "--other", "MEASURE", "--l", "nan"],
        ["regularity", "--a", "nan"], ["regularity", "--a", "inf"],
        ["uniform", "--d", "nan"], ["uniform", "--d=-inf"]])
    def test_non_finite_float_option(self, measure_file, seq_file, argv, capsys):
        doc = seq_file if argv[0] in ("regularity", "uniform") else measure_file
        argv = [measure_file if a == "MEASURE" else a for a in argv]
        assert exits_cleanly_with_2(argv + ["--input", doc], capsys)

    # the midpoint of 1e308 and 1.7e308 overflowed to inf: a numpy warning, and
    # a failure reported at -inf, outside every piece
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [["theorem", "borichev-sodin", "--other", "DOC", "--l", "0"],
                                      ["theorem", "duffin-schaeffer", "--L", "1", "--c", "1e-300"]])
    def test_midpoints_near_float_range(self, tmp_path, argv, capsys):
        path = tmp_path / "measure.json"
        path.write_text(json.dumps({"atoms": [[-1.7e308, 0.5], [0, 1], [1e308, 2], [1.7e308, 1]],
                                    "window": 1.7976931348623157e308}))
        argv = [str(path) if a == "DOC" else a for a in argv]
        assert main(argv + ["--input", str(path)]) == 0
        captured = capsys.readouterr()
        evidence = json.loads(captured.out)["evidence"]
        assert captured.err == "" and "inf" not in captured.out
        if "failed_at" in evidence:  # inside the first piece, (-T, -1.7e308)
            assert -1.7976931348623157e308 < evidence["failed_at"] < -1.7e308

    @pytest.mark.parametrize("atoms, l", [(None, "1e308"), ([[-1e300, 1], [1e300, 1]], "2")])
    def test_domination_growth_beyond_float_range(self, tmp_path, measure_file, atoms, l, capsys):
        if atoms is not None:
            measure_file = str(tmp_path / "far.json")
            (tmp_path / "far.json").write_text(json.dumps({"atoms": atoms, "window": 1e301}))
        assert main(["theorem", "borichev-sodin", "--input", measure_file,
                     "--other", measure_file, "--l", l]) == 2
        assert capsys.readouterr().err == f"error: (1+|x|)^l overflows at l={float(l):g}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu, nu, C, l", [
        ("koosis", "koosis", "1e308", "1"),
        ([[-2e300, 1], [-1e300, 1], [1e300, 1], [2e300, 1]], [[0, 1]], "1e308", "0.5")])
    def test_domination_bound_beyond_float_range(self, tmp_path, mu, nu, C, l, capsys):
        # C (1+|x|)^l overflowed to inf: a worst margin of "inf", or "nan"
        # where it met a zero mass
        paths = []
        for name, atoms in (("mu", mu), ("nu", nu)):
            doc = (canonical_json(catalog.koosis_measure(50.0)) if atoms == "koosis"
                   else json.dumps({"atoms": atoms, "window": 2e300}))
            (tmp_path / f"{name}.json").write_text(doc)
            paths.append(str(tmp_path / f"{name}.json"))
        assert main(["theorem", "borichev-sodin", "--input", paths[0], "--other", paths[1],
                     "--C", C, "--l", l]) == 2
        assert capsys.readouterr().err == (f"error: C (1+|x|)^l (nu + e^2) overflows at "
                                           f"C={float(C):g}, l={float(l):g}\n")

    @pytest.mark.filterwarnings("error")
    def test_total_mass_beyond_float_range(self, tmp_path, capsys):
        # the Levinson tail sum overflowed: a numpy warning, and thresholds from
        # an infinite total
        path = tmp_path / "measure.json"
        path.write_text(json.dumps({"atoms": [[1, 1e308], [2, 1e308]], "window": 3}))
        assert main(["theorem", "levinson", "--input", str(path)]) == 2
        assert capsys.readouterr().err == ("error: masses and their total must be "
                                             "positive and finite\n")

    def test_energy_interval_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"points": [-1e307, 0, 1e307], "window": 1e308}))
        assert exits_cleanly_with_2(["energy", "--input", str(path),
                                     "--interval=-1e308,1e308"], capsys)

    def test_energy_span_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"points": [-1e308, 1e308], "window": 1e308}))
        assert exits_cleanly_with_2(["energy", "--input", str(path)], capsys)

    def test_non_finite_weight_value(self, tmp_path, capsys):
        path = tmp_path / "weight.json"
        path.write_text('{"breakpoints": [-2, -1, 1, 2], "values": [1e400, 1, 1e400]}')
        assert exits_cleanly_with_2(["theorem", "krein-lm", "--weight", str(path)], capsys)

    def test_constructors_reject_non_finite(self):
        from typelab.core import (DiscreteMeasure, Interval, Partition, RealSequence,
                                  TypelabError, WeightTable)

        nan, inf = float("nan"), float("inf")
        bad = [lambda: RealSequence(np.array([1.0, nan, 3.0]), 10.0),
               lambda: RealSequence(np.array([1.0, 2.0]), inf),
               lambda: RealSequence(np.array([1.0, 2.0]), nan),
               lambda: DiscreteMeasure(np.array([0.0, nan]), np.array([1.0, 1.0]), 10.0),
               lambda: DiscreteMeasure(np.array([0.0, 1.0]), np.array([1.0, 1.0]), inf),
               lambda: Interval(0.0, inf),
               lambda: Interval(-inf, 0.0),
               lambda: Partition(np.array([-inf, 0.0, 1.0])),
               lambda: Partition(np.array([-1.0, 0.0, nan])),
               lambda: WeightTable(np.array([0.0, 1.0, 2.0]), np.array([1.0, nan])),
               lambda: WeightTable(np.array([0.0, 1.0, 2.0]), np.array([inf, 1.0]),
                                   kind="samples")]
        for make in bad:
            with pytest.raises(TypelabError):
                make()

class TestDeterminism:
    def test_repeat_runs_byte_identical(self, measure_file, capsys):
        _, first = run_cli(["type", "--input", measure_file, "--separated",
                            "--grid", "0.2,0.5,1.0"], capsys)
        _, second = run_cli(["type", "--input", measure_file, "--separated",
                             "--grid", "0.2,0.5,1.0"], capsys)
        assert first == second

    def test_canonical_float_format(self):
        assert canonical_json({"x": 0.1 + 0.2}) == '{"x": 0.3}'
        assert canonical_json({"x": -0.0}) == '{"x": 0}'
        assert canonical_json([float("inf"), None, True]) == '["inf", null, true]'

    def test_csv_flattening(self):
        text = render_csv({"b": [1.5, 2.0], "a": {"c": None}})
        assert text.splitlines() == ["key,value", "a.c,", "b[0],1.5", "b[1],2"]


class TestModuleEntry:
    def test_import_starts_no_pool_machinery(self):
        # the oracle imports its process pool only when it starts one
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, typelab.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_python_dash_m(self, measure_file):
        proc = subprocess.run(
            [sys.executable, "-m", "typelab", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("typelab ")
