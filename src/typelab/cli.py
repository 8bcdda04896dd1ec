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


def _floats(option: str, spec: str, sep: str, count: int = 0) -> list[float]:
    """The numbers of ``spec`` split at ``sep``, ``count`` of them unless 0."""
    parts = spec.split(sep)
    try:
        if count in (0, len(parts)):
            return [float(p) for p in parts]
    except ValueError:
        pass
    raise TypelabError(f"{option} {spec!r} is not {count or 'a list of'} numbers "
                       f"separated by {sep!r}")


def _parse_grid(spec: str) -> list[float]:
    """``start:stop:step`` or a comma-separated list, all finite."""
    ranged = ":" in spec
    values = _floats("--grid", spec, ":" if ranged else ",", 3 if ranged else 0)
    if not all(map(math.isfinite, values)):
        raise TypelabError(f"grid {spec!r} has a non-finite value")
    if not ranged:
        return values
    start, stop, step = values
    if not step > 0:
        raise TypelabError(f"grid {spec!r} needs a positive step")
    end = stop + 1e-12  # the last value may overshoot stop by rounding
    if (end - start) / step >= GRID_MAX_VALUES:  # counted to end, where the loop stops
        raise TypelabError(f"grid {spec!r} has more than {GRID_MAX_VALUES} values")
    out = []
    x = start
    while x <= end:
        out.append(round(x, 12))
        x += step
    return out


# each command returns the report main writes; suite alone writes its own and returns its exit code
def _cmd_energy(args):
    seq = load_sequence(args.input)
    if args.interval:
        left, right = _floats("--interval", args.interval, ",", 2)
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
        return regularity_block_scan(seq, args.a)
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


def _cmd_rescale(args):
    return polynomial_rescale(load_measure(args.input), args.alpha)


def _cmd_construct(args):
    unpaired = [item for item in args.param or [] if "=" not in item]
    if unpaired:
        raise TypelabError(f"--param {unpaired[0]!r} is not key=value")
    params = dict(item.partition("=")[::2] for item in args.param or [])

    # each read pops its key, so that what is left over is what the family ignores
    def num(key: str, default: float) -> float:
        value = params.pop(key, default)
        try:
            return float(value)
        except ValueError:
            raise TypelabError(f"--param {key}={value} is not a number") from None

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
            seed = params.pop("seed", "0")
            try:
                if not seed.isdecimal():  # digits only: not negative
                    raise ValueError(seed)
                rng_seed = int(seed)  # refuses more digits than int()'s limit
            except ValueError:
                raise TypelabError(f"--param seed={seed} is not a non-negative integer") from None
            obj = perturb_exponential(base, num("c", 1.0), rng_seed)
        elif family == "auxiliary":
            w = WeightTable(np.array([-base.window, base.window]), np.array([num("w", 1.0)]))
            obj = auxiliary_sequence(base, w, num("epsilon", 0.05), num("L", 20.0))
        elif family == "weighted-measure":
            obj = measure_from_weights(base, params.pop("weights", "polynomial"),
                                       {k: num(k, 0.0) for k in ("beta", "c") if k in params})
    if params:
        raise TypelabError(f"construct {family} does not read --param {sorted(params)[0]}")
    if not args.out:
        return obj
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj) + "\n")
    return {"written": args.out}


def _cmd_oracle(args):
    if not 1 <= args.steps <= GRID_MAX_VALUES or not 0 < args.a_max - args.a_min < math.inf:
        raise TypelabError(f"oracle needs 1 <= --steps <= {GRID_MAX_VALUES} and --a-max > --a-min")
    measure = load_measure(args.input)
    step = (args.a_max - args.a_min) / args.steps
    grid = [args.a_min + step * k for k in range(1, args.steps + 1)]
    curve = residual_scan(measure, grid, extended_precision=args.extended_precision,
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
    leaves = []  # the parsers that run a command

    def command(name: str, func, summary: str | None, group=sub) -> argparse.ArgumentParser:
        p = group.add_parser(name, help=summary)
        p.set_defaults(func=func)
        leaves.append(p)
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

    p = command("uniform", _cmd_uniform, "d-uniformity verdict")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--partition", help="optional partition JSON document")

    p = command("type", _cmd_type, "type estimate for a discrete measure")
    p.add_argument("--input", required=True, help="measure JSON document")
    p.add_argument("--separated", action="store_true")
    p.add_argument("--grid", help="density grid, start:stop:step or comma list")

    checkers = sub.add_parser("theorem", help="classical checker verdicts").add_subparsers(
        dest="name", required=True)

    def theorem(name: str, check, *documents: str, **constants: float) -> argparse.ArgumentParser:
        """A checker that reads the JSON ``documents`` and float ``constants`` it is given."""
        p = command(name, check, None, checkers)
        for option in documents:
            p.add_argument(f"--{option}", required=True)
        for option, default in constants.items():
            p.add_argument(f"--{option}", type=float, default=default)
        return p

    p = theorem("beurling-gap", lambda a: beurling_gap_check(
        load_sequence(a.input) if a.intervals is None else load_intervals(a.intervals)))
    either = p.add_mutually_exclusive_group(required=True)
    either.add_argument("--input")
    either.add_argument("--intervals")
    theorem("levinson", lambda a: levinson_check(load_measure(a.input)), "input")
    theorem("hybrid", lambda a: hybrid_check(load_measure(a.input), load_intervals(a.intervals)),
            "input", "intervals")
    theorem("debranges", lambda a: debranges_check(
        load_weight_table(a.weight), load_measure(a.input), a.modulus), "input", "weight",
        modulus=1.0)
    theorem("krein-lm", lambda a: krein_lm_check(
        load_weight_table(a.weight), monotone_flag=not a.no_monotone), "weight").add_argument(
        "--no-monotone", action="store_true")
    theorem("borichev-sodin", lambda a: borichev_sodin_compare(
        load_measure(a.input), load_measure(a.other), a.delta, a.C, a.l), "input", "other",
        delta=1.0, C=1.0, l=1.0)
    theorem("duffin-schaeffer", lambda a: duffin_schaeffer_check(load_measure(a.input), a.L, a.c),
            "input", L=1.0, c=0.5)
    theorem("benedicks", lambda a: benedicks_conditions(
        load_partition(a.partition), a.c1, a.c2, a.c3), "partition",
        **dict(zip(("c1", "c2", "c3"), BENEDICKS_CONSTANTS)))
    theorem("suffgen", lambda a: suffgen_bound(
        load_measure(a.input), load_sequence(a.sequence), a.d), "input", "sequence", d=1.0)

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
    p.add_argument("--extended-precision", action="store_true")
    p.add_argument("--csv", help="write the residual curve CSV here")
    p.add_argument("--threads", type=int, default=1)

    p = command("suite", _cmd_suite, "bundled acceptance battery")
    p.add_argument("--threads", type=int, default=1)

    # every command reports in JSON or CSV; added last, so it ends each --help
    for p in leaves:
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
    except (TypelabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
