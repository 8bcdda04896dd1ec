"""Bundled acceptance battery behind ``typelab suite``.

Each criterion is one function returning ``(passed, detail)``, listed in
:data:`CRITERIA` in row order; the acceptance gate in the tests runs the
same functions under its runtime budgets.  Rows are ``(check, status,
detail)`` and are rendered through the canonical serializer so repeated
runs are byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

from . import catalog
from .constructions import (
    arithmetic,
    auxiliary_sequence,
    benedicks_sequence,
    perturb_exponential,
)
from .core import Interval, WeightTable
from .density import interior_density
from .energy import energy_report, grid_energy_closed_form, interval_deficits, interval_energies
from .oracle import SVD_CUTOFF, IllConditioned, _sigma_extremes, residual_scan
from .typeproblem import (
    TWO_PI,
    beurling_gap_check,
    krein_lm_check,
    levinson_check,
    polynomial_rescale,
    type_discrete,
    type_separated,
)
from .uniformity import check_d_uniform

D_GRID = [0.05 * k for k in range(1, 27)]

# (seed, longest interval, largest |left end|, most points) of the random
# intervals deficit-positivity draws in the suite
SUITE_DEFICIT_SCALE = (20240511, 50.0, 100.0, 30)


def energy_closed_form() -> tuple[bool, str]:
    """The energies of 597 arithmetic grids, taken in one pass, against the closed form."""
    grids = [(delta, d) for d in (0.5, 1.0, 2.0) for delta in range(2, 201)]
    sizes = np.array([delta for delta, _ in grids])
    brute = interval_energies(np.concatenate([np.arange(delta, dtype=float) / d for delta, d in grids]),
                              np.cumsum(sizes) - sizes, np.cumsum(sizes))
    closed = [grid_energy_closed_form(delta, d) for delta, d in grids]
    worst = max([0.0, *(abs(b - c) / max(1.0, abs(c)) for b, c in zip(brute.tolist(), closed))])
    return worst <= 1e-9, f"max rel err {worst:.3e}"


def deficit_positivity(seed: int, max_length: float, max_left: float,
                       max_points: int) -> tuple[bool, str]:
    """Nonnegative deficits on 1000 random configurations in one pass, O(|I|^2) on grids."""
    rng = np.random.default_rng(seed)
    configs, bounds, lengths, offset = [], [], [], 0
    for _ in range(1000):
        length = rng.uniform(1.0, max_length)
        left = rng.uniform(-max_left, max_left)
        k = int(rng.integers(1, max_points))
        pts = np.unique(rng.uniform(left + 1e-9, left + length, size=k))
        iv = Interval(left, left + length)
        # the points in (left, right], as energy_report selects them
        bounds.append(np.searchsorted(pts, [iv.left, iv.right], side="right") + offset)
        configs.append(pts)
        lengths.append(iv.length)
        offset += pts.size
    lo, hi = np.array(bounds).T
    min_deficit = float(interval_deficits(np.concatenate(configs), lo, hi, np.array(lengths)).min())
    grid_ok = True
    detail = [f"min deficit {min_deficit:.3e}"]
    for delta in (10, 100, 1000, 10000):
        pts = np.arange(delta, dtype=float)
        rep = energy_report(pts, Interval(-0.5, delta - 0.5))
        ratio = rep.deficit / delta ** 2
        grid_ok = grid_ok and ratio <= 2.0
        detail.append(f"grid {delta}: deficit/D^2={ratio:.3f}")
    return min_deficit >= -1e-9 and grid_ok, "; ".join(detail)


def uniformity_ground_truth() -> tuple[bool, str]:
    oks = []
    for d in (0.5, 1.0, 2.0):
        seq = arithmetic(d, 1e4)
        oks.append(check_d_uniform(seq, d).overall)
        oks.append(not check_d_uniform(seq, 1.5 * d).overall)
    return all(oks), f"pass/fail pattern {oks}"


def density_recovery() -> tuple[bool, str]:
    grid = [0.1 * k for k in range(1, 21)]
    seq = arithmetic(1.0, 1e4)
    base = interior_density(seq, grid).value
    pert = interior_density(perturb_exponential(seq, 1.0, 20240511), grid).value
    ok = abs(base - 1.0) <= 0.05 and abs(pert - base) <= 0.1 + 1e-12
    return ok, f"grid value {base:.3f}, perturbed {pert:.3f}"


def koosis_type() -> tuple[bool, str]:
    est = type_separated(catalog.koosis_measure(1000.0), D_GRID)
    ok = abs(est.lower_bound_type - TWO_PI) <= 0.1 * TWO_PI and est.two_sided
    return ok, f"type {est.lower_bound_type:.4f} vs {TWO_PI:.4f}"


def rescale_invariance() -> tuple[bool, str]:
    measure = catalog.koosis_measure(1000.0)
    base = type_discrete(measure, D_GRID).lower_bound_type
    details = [f"base {base:.4f}"]
    ok = True
    step = TWO_PI * 0.05
    for alpha in (1.0, 2.0, 4.0):
        value = type_discrete(polynomial_rescale(measure, alpha), D_GRID).lower_bound_type
        details.append(f"alpha={alpha:g}: {value:.4f}")
        ok = ok and abs(value - base) <= step + 1e-9
    return ok, "; ".join(details)


def classical_checkers() -> tuple[bool, str]:
    bks = np.arange(-4096.0, 4096.5, 0.5)
    mids = 0.5 * (bks[:-1] + bks[1:])
    verdicts = [
        (levinson_check(catalog.fast_decay_measure()), "mu_must_vanish"),
        (levinson_check(catalog.koosis_measure(100.0)), "inconclusive"),
        (beurling_gap_check(catalog.long_gap_support()), "mu_must_vanish"),
        (beurling_gap_check(arithmetic(1.0, 2048.0)), "inconclusive"),
        (beurling_gap_check(catalog.short_gap_support()), "inconclusive"),
        (krein_lm_check(WeightTable(bks, 1.0 / (1.0 + mids ** 2), kind="samples")),
         "type_infinite"),
        (krein_lm_check(WeightTable(bks, np.exp(-np.abs(mids)), kind="samples")), "type_zero"),
    ]
    oks = [v.conclusion.kind == kind for v, kind in verdicts]
    return all(oks), f"pattern {oks}"


def bundle_curves(threads: int) -> list:
    """``(example, residual curve)`` for each member of the oracle bundle at T=60."""
    out = []
    for ex in catalog.oracle_separated_bundle(60.0):
        grid = np.linspace(0.0, ex.oracle_a_max, 65)[1:].tolist()
        try:
            curve = residual_scan(ex.measure, grid, threads=threads)
        except IllConditioned:
            curve = residual_scan(ex.measure, grid, extended_precision=True,
                                  threads=threads)
        out.append((ex, curve))
    return out


def oracle_knee(curves) -> tuple[bool, str]:
    details, ok = [], True
    for ex, curve in curves:
        knee = curve.knee
        good = knee is not None and abs(knee - ex.expected_type) <= 0.25 * ex.expected_type
        ok = ok and good
        details.append(f"{ex.name}: knee {knee if knee is None else round(knee, 3)}"
                       f" vs {ex.expected_type:.3f}")
    m = catalog.koosis_measure(60.0)
    s_pi, s_3pi = (_sigma_extremes(m, a)[0] for a in (math.pi, 3 * math.pi))
    sep = s_pi / s_3pi
    ok = ok and sep <= 1e-2
    # a ratio below the relative SVD floor is rounding noise: print the bound
    details.append(f"sigma(pi)/sigma(3pi)<{SVD_CUTOFF:g}" if sep < SVD_CUTOFF
                   else f"sigma(pi)/sigma(3pi)={sep:.2e}")
    return ok, "; ".join(details)


def oracle_formula_cross(curves) -> tuple[bool, str]:
    details, ok = [], True
    for ex, curve in curves:
        est = type_separated(ex.formula_measure, D_GRID)
        if curve.knee is None or est.lower_bound_type == 0:
            ok = False
            details.append(f"{ex.name}: missing knee or zero type")
            continue
        rel = abs(curve.knee - est.lower_bound_type) / est.lower_bound_type
        ok = ok and rel <= 0.25
        details.append(f"{ex.name}: |knee-type|/type={rel:.3f}")
    return ok, "; ".join(details)


def constructions() -> tuple[bool, str]:
    details = []
    fam = benedicks_sequence(catalog.benedicks_partition(900.0), 0.5)
    rep = check_d_uniform(fam.sequence, 0.5, fam.blocks)
    ok = rep.overall
    details.append(f"block construction d-uniform at 0.5: {rep.overall}")

    # gaps of 2 are wider than w = 1, so a pair wider than w fits between its neighbours
    base = arithmetic(0.5, 400.0)
    w = WeightTable(np.array([-400.0, 400.0]), np.array([1.0]))
    aux = auxiliary_sequence(base, w, 0.05, 20.0)
    gap_ok = aux.max_gap <= 1.0 / 0.05 + aux.max_pair_width + 1e-9
    inner, a_pts = base.points[1:-1], aux.a_sequence.points
    # the A points on either side of each interior base point are its pair: no wider
    # than w, and the C point between them is the base point, up to rounding
    j = np.clip(np.searchsorted(a_pts, inner), 1, a_pts.size - 1)
    widths_ok = bool(np.all(a_pts[j] - a_pts[j - 1] <= w.evaluate(inner) + 1e-12))
    midpoints_ok = bool(np.all(np.abs(aux.c_sequence.points[j - 1] - inner) <= 1e-9 * base.window))
    ok = ok and gap_ok and widths_ok and midpoints_ok
    details.append(f"aux gaps<=1/eps+width: {gap_ok}; widths<=w: {widths_ok}; "
                   f"midpoints: {midpoints_ok}")
    return ok, "; ".join(details)


# the rows of the suite, in order; deficit-positivity takes its scale, and
# the two oracle criteria take the curves of bundle_curves
CRITERIA = (
    ("energy-closed-form", energy_closed_form),
    ("deficit-positivity", deficit_positivity),
    ("uniformity-ground-truth", uniformity_ground_truth),
    ("density-recovery", density_recovery),
    ("koosis-type", koosis_type),
    ("rescale-invariance", rescale_invariance),
    ("classical-checkers", classical_checkers),
    ("oracle-knee", oracle_knee),
    ("oracle-formula-cross", oracle_formula_cross),
    ("constructions", constructions),
)


def criterion_row(name: str, *args) -> dict:
    """Run the criterion ``name`` on ``args``; its suite row."""
    ok, detail = dict(CRITERIA)[name](*args)
    return {"check": name, "status": "pass" if ok else "fail", "detail": detail}


def run_suite(threads: int) -> list[dict]:
    # worker processes only enter through the oracle scans, which collect
    # their per-frequency results in grid order, so any --threads produces
    # the same bytes; the bundle is scanned once for both oracle criteria
    curves = bundle_curves(threads)
    args = {"deficit-positivity": SUITE_DEFICIT_SCALE,
            "oracle-knee": (curves,), "oracle-formula-cross": (curves,)}
    return [criterion_row(name, *args.get(name, ())) for name, _ in CRITERIA]
