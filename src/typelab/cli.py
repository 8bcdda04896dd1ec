"""Command-line interface: one subcommand per analysis surface.

Exit codes: 0 computed, 1 verdict-level failure in ``suite``, 2 input or
usage error.  All reports go through the canonical serializer, so repeated
runs with identical inputs (and any ``--threads``) are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .constructions import (
    BENEDICKS_CONSTANTS,
    alternating_partition,
    arithmetic,
    auxiliary_sequence,
    benedicks_sequence,
    measure_from_weights,
    perturb_exponential,
)
from .core import Interval, TypelabError, WeightTable
from .density import (
    exterior_density,
    interior_density,
    regularity_block_scan,
    strong_regularity_defect,
)
from .energy import coulomb_energy, energy_report
from .oracle import residual_scan
from .partitions import classify_family, find_short_partition, short2I_diagnostic
from .serialize import (
    canonical_json,
    load_intervals,
    load_measure,
    load_partition,
    load_sequence,
    load_weight_table,
    render_csv,
    render_curve_csv,
)
from .suite import run_suite
from .typeproblem import (
    benedicks_conditions,
    beurling_gap_check,
    borichev_sodin_compare,
    debranges_check,
    duffin_schaeffer_check,
    hybrid_check,
    krein_lm_check,
    levinson_check,
    polynomial_rescale,
    suffgen_bound,
    type_discrete,
    type_separated,
)
from .uniformity import check_d_uniform

# largest number of values a start:stop:step grid may expand to
GRID_MAX_VALUES = 10_000


def _emit(args, payload) -> None:
    if getattr(args, "format", "json") == "csv":
        sys.stdout.write(render_csv(payload))
    else:
        sys.stdout.write(canonical_json(payload) + "\n")


def _parse_grid(spec: str) -> list[float]:
    """``start:stop:step`` or a comma-separated list, all finite."""
    values = [float(p) for p in spec.split(":" if ":" in spec else ",")]
    if not all(map(math.isfinite, values)):
        raise TypelabError(f"grid {spec!r} has a non-finite value")
    if ":" not in spec:
        return values
    start, stop, step = values
    if not step > 0:
        raise TypelabError(f"grid {spec!r} needs a positive step")
    if (stop - start) / step >= GRID_MAX_VALUES:
        raise TypelabError(f"grid {spec!r} has more than {GRID_MAX_VALUES} values")
    out = []
    x = start
    while x <= stop + 1e-12:
        out.append(round(x, 12))
        x += step
    return out


# each command returns the report main writes, or its exit code if it writes its own
def _cmd_energy(args):
    seq = load_sequence(args.input)
    if args.interval:
        left, right = (float(p) for p in args.interval.split(","))
        return energy_report(seq, Interval(left, right))
    return {"energy": coulomb_energy(seq), "points": len(seq)}


def _cmd_partition(args):
    return find_short_partition(load_sequence(args.input), args.d)


def _cmd_classify(args):
    return classify_family(load_intervals(args.intervals))


def _cmd_short2i(args):
    return short2I_diagnostic(load_intervals(args.intervals), args.C)


def _cmd_density(args):
    seq = load_sequence(args.input)
    grid = _parse_grid(args.grid)
    return interior_density(seq, grid) if args.kind == "interior" else exterior_density(seq, grid)


def _cmd_regularity(args):
    seq = load_sequence(args.input)
    if args.scan == "families":
        return regularity_block_scan(seq, args.a, args.epsilon)
    return strong_regularity_defect(seq, args.a)


def _cmd_uniform(args):
    seq = load_sequence(args.input)
    partition = load_partition(args.partition) if args.partition else None
    return check_d_uniform(seq, args.d, partition)


def _cmd_type(args):
    measure = load_measure(args.input)
    grid = _parse_grid(args.grid) if args.grid else None
    estimate = type_separated if args.separated else type_discrete
    return estimate(measure, grid)


def _beurling_gap(args):
    if args.intervals:
        return beurling_gap_check(load_intervals(args.intervals))
    if args.input:
        return beurling_gap_check(load_sequence(args.input))
    raise TypelabError("theorem beurling-gap requires --input or --intervals")


# theorem name -> (required options, checker)
_THEOREMS = {
    "beurling-gap": ((), _beurling_gap),
    "levinson": (("input",), lambda a: levinson_check(load_measure(a.input))),
    "hybrid": (("input", "intervals"), lambda a: hybrid_check(
        load_measure(a.input), load_intervals(a.intervals))),
    "debranges": (("input", "weight"), lambda a: debranges_check(
        load_weight_table(a.weight), load_measure(a.input), a.modulus)),
    "krein-lm": (("weight",), lambda a: krein_lm_check(
        load_weight_table(a.weight), monotone_flag=not a.no_monotone)),
    "borichev-sodin": (("input", "other"), lambda a: borichev_sodin_compare(
        load_measure(a.input), load_measure(a.other), a.delta, a.C, a.l)),
    "duffin-schaeffer": (("input",), lambda a: duffin_schaeffer_check(
        load_measure(a.input), a.L, a.c)),
    "benedicks": (("partition",), lambda a: benedicks_conditions(
        load_partition(a.partition), a.c1, a.c2, a.c3)),
    "suffgen": (("input", "sequence"), lambda a: suffgen_bound(
        load_measure(a.input), load_sequence(a.sequence), a.d)),
}


def _cmd_theorem(args):
    needs, check = _THEOREMS[args.name]
    for needed in needs:
        if getattr(args, needed) is None:
            raise TypelabError(f"theorem {args.name} requires --{needed}")
    return check(args)


def _cmd_rescale(args):
    return polynomial_rescale(load_measure(args.input), args.alpha)


def _cmd_construct(args) -> int:
    unpaired = [item for item in args.param or [] if "=" not in item]
    if unpaired:
        raise TypelabError(f"--param {unpaired[0]!r} is not key=value")
    params = dict(item.partition("=")[::2] for item in args.param or [])

    # each read pops its key, so that what is left over is what the family ignores
    def num(key: str, default: float) -> float:
        return float(params.pop(key, default))

    family = args.family
    if family in ("alternating-partition", "benedicks"):
        obj = alternating_partition(num("even", 1.0), num("odd", 2.0),
                                    num("T", 900.0 if family == "benedicks" else 100.0))
        if family == "benedicks":
            obj = benedicks_sequence(obj, num("C", 0.5))
    else:
        # the other families build on an arithmetic progression
        obj = base = arithmetic(num("d", 1.0), num("T", 400.0 if family == "auxiliary" else 100.0))
        if family == "perturbed":
            obj = perturb_exponential(base, num("c", 1.0), int(params.pop("seed", 0)))
        elif family == "auxiliary":
            w = WeightTable(np.array([-base.window, base.window]), np.array([num("w", 1.0)]))
            obj = auxiliary_sequence(base, w, num("epsilon", 0.05), num("L", 20.0))
        elif family == "weighted-measure":
            obj = measure_from_weights(base, params.pop("weights", "polynomial"),
                                       {k: float(params.pop(k)) for k in ("beta", "c") if k in params})
    if params:
        raise TypelabError(f"construct {family} does not read --param {sorted(params)[0]}")
    text = canonical_json(obj) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        sys.stdout.write(canonical_json({"written": args.out}) + "\n")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_oracle(args):
    if not 1 <= args.steps <= GRID_MAX_VALUES or not 0 < args.a_max - args.a_min < math.inf:
        raise TypelabError(f"oracle needs 1 <= --steps <= {GRID_MAX_VALUES} and --a-max > --a-min")
    measure = load_measure(args.input)
    step = (args.a_max - args.a_min) / args.steps
    grid = [args.a_min + step * k for k in range(1, args.steps + 1)]
    curve = residual_scan(measure, grid, freq_density=args.freq_density,
                          extended_precision=args.extended_precision,
                          threads=args.threads)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(render_curve_csv(curve))
    # a value below the clip floor is rounding noise: print the bound
    first, last = (float(s) if s >= curve.clip_floor else f"<{curve.clip_floor:.3g}"
                   for s in curve.sigma_min[[0, -1]])
    return {"knee": curve.knee, "max_curvature": curve.max_curvature,
            "extended_used": curve.extended_used, "sigma_min_first": first,
            "sigma_min_last": last, "csv": args.csv}


def _cmd_suite(args) -> int:
    rows = run_suite(threads=args.threads)
    _emit(args, rows)
    return 0 if all(r["status"] == "pass" for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typelab",
        description="Exponential-type toolkit: energies, densities, uniformity, "
                    "type estimators, classical checkers and a completeness oracle.")
    parser.add_argument("--version", action="version", version=f"typelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    p = command("energy", _cmd_energy, "Coulomb energy or per-interval report")
    p.add_argument("--input", required=True, help="sequence JSON document")
    p.add_argument("--interval", help="a,b for a per-interval report")

    p = command("partition", _cmd_partition, "greedy short partition adapted to a sequence")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=float, required=True)

    p = command("classify", _cmd_classify, "long/short verdict for an interval family")
    p.add_argument("--intervals", required=True, help="intervals JSON document")

    p = command("short2i", _cmd_short2i, "overlap-length diagnostic of a short family")
    p.add_argument("--intervals", required=True)
    p.add_argument("--C", type=float, default=2.0)

    p = command("density", _cmd_density, "interior/exterior density estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("interior", "exterior"), default="interior")
    p.add_argument("--grid", required=True, help="start:stop:step or comma list")

    p = command("regularity", _cmd_regularity, "regularity defect of a sequence at rate a")
    p.add_argument("--input", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--scan", choices=("integral", "families"), default="integral")
    p.add_argument("--epsilon", type=float, default=0.05)

    p = command("uniform", _cmd_uniform, "d-uniformity verdict")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--partition", help="optional partition JSON document")

    p = command("type", _cmd_type, "type estimate for a discrete measure")
    p.add_argument("--input", required=True, help="measure JSON document")
    p.add_argument("--separated", action="store_true")
    p.add_argument("--grid", help="density grid, start:stop:step or comma list")

    p = command("theorem", _cmd_theorem, "classical checker verdicts")
    p.add_argument("name", choices=tuple(_THEOREMS))
    p.add_argument("--input", help="measure or sequence JSON document")
    p.add_argument("--intervals")
    p.add_argument("--weight")
    p.add_argument("--other", help="second measure (borichev-sodin)")
    p.add_argument("--sequence", help="d-uniform sequence (suffgen)")
    p.add_argument("--partition")
    p.add_argument("--modulus", type=float, default=1.0)
    p.add_argument("--no-monotone", action="store_true")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--l", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--c", type=float, default=0.5)
    for name, default in zip(("--c1", "--c2", "--c3"), BENEDICKS_CONSTANTS):
        p.add_argument(name, type=float, default=default)
    p.add_argument("--d", type=float, default=1.0)

    p = command("rescale", _cmd_rescale, "divide masses by 1+|x|^alpha (type-invariant)")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float, required=True)

    p = command("construct", _cmd_construct, "generate bundled families")
    p.add_argument("family", choices=("arithmetic", "perturbed", "alternating-partition",
                                      "benedicks", "auxiliary", "weighted-measure"))
    p.add_argument("--param", action="append", help="key=value, repeatable")
    p.add_argument("--out", help="write the JSON document here")

    p = command("oracle", _cmd_oracle, "completeness probe: residual curve and knee")
    p.add_argument("--input", required=True)
    p.add_argument("--a-min", type=float, default=0.0)
    p.add_argument("--a-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--freq-density", type=float, default=8.0)
    p.add_argument("--extended-precision", action="store_true")
    p.add_argument("--csv", help="write the residual curve CSV here")
    p.add_argument("--threads", type=int, default=1)

    p = command("suite", _cmd_suite, "bundled acceptance battery")
    p.add_argument("--threads", type=int, default=1)

    # every command reports in JSON or CSV; added last, so it ends each --help
    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise TypelabError(f"--{name.replace('_', '-')} must be finite, got {value}")
        report = args.func(args)
        if isinstance(report, int):
            return report
        _emit(args, report)
        return 0
    except (TypelabError, FileNotFoundError, ValueError, TypeError, KeyError,
            OverflowError) as exc:  # OverflowError: an integer beyond the float range
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
