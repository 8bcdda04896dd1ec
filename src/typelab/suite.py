"""Bundled acceptance battery behind ``typelab suite``.

Each check mirrors one acceptance criterion at its stated scale and
tolerance; rows are ``(name, status, detail)`` and are rendered through
the canonical serializer so repeated runs are byte-identical.
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
from .energy import coulomb_energy, energy_report, grid_energy_closed_form
from .oracle import IllConditioned, residual_scan
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


def _row(name: str, ok: bool, detail: str) -> dict:
    return {"check": name, "status": "pass" if ok else "fail", "detail": detail}


def _energy_closed_form() -> dict:
    worst = 0.0
    for d in (0.5, 1.0, 2.0):
        for delta in range(2, 201):
            pts = np.arange(delta, dtype=float) / d
            brute = coulomb_energy(pts)
            closed = grid_energy_closed_form(delta, d)
            rel = abs(brute - closed) / max(1.0, abs(closed))
            worst = max(worst, rel)
    return _row("energy-closed-form", worst <= 1e-9, f"max rel err {worst:.3e}")


def _deficit_positivity() -> dict:
    rng = np.random.default_rng(20240511)
    min_deficit = math.inf
    for _ in range(1000):
        length = rng.uniform(1.0, 50.0)
        left = rng.uniform(-100.0, 100.0)
        k = int(rng.integers(1, 30))
        pts = np.sort(rng.uniform(left + 1e-9, left + length, size=k))
        pts = np.unique(pts)
        rep = energy_report(pts, Interval(left, left + length))
        min_deficit = min(min_deficit, rep.deficit)
    grid_ok = True
    detail = [f"min deficit {min_deficit:.3e}"]
    for delta in (10, 100, 1000, 10000):
        pts = np.arange(delta, dtype=float)
        rep = energy_report(pts, Interval(-0.5, delta - 0.5))
        ratio = rep.deficit / delta ** 2
        grid_ok = grid_ok and ratio <= 2.0
        detail.append(f"grid {delta}: deficit/D^2={ratio:.3f}")
    ok = min_deficit >= -1e-9 and grid_ok
    return _row("deficit-positivity", ok, "; ".join(detail))


def _uniformity_ground_truth() -> dict:
    oks = []
    for d in (0.5, 1.0, 2.0):
        seq = arithmetic(d, 1e4)
        oks.append(check_d_uniform(seq, d).overall)
        oks.append(not check_d_uniform(seq, 1.5 * d).overall)
    return _row("uniformity-ground-truth", all(oks), f"pass/fail pattern {oks}")


def _density_recovery() -> dict:
    grid = [0.1 * k for k in range(1, 21)]
    seq = arithmetic(1.0, 1e4)
    base = interior_density(seq, grid).value
    pert = interior_density(perturb_exponential(seq, 1.0, 20240511), grid).value
    ok = abs(base - 1.0) <= 0.05 and abs(pert - base) <= 0.1 + 1e-12
    return _row("density-recovery", ok, f"grid value {base:.3f}, perturbed {pert:.3f}")


def _koosis_type() -> dict:
    est = type_separated(catalog.koosis_measure(1000.0), D_GRID)
    ok = abs(est.lower_bound_type - TWO_PI) <= 0.1 * TWO_PI
    return _row("koosis-type", ok, f"type {est.lower_bound_type:.4f} vs {TWO_PI:.4f}")


def _rescale_invariance() -> dict:
    measure = catalog.koosis_measure(1000.0)
    base = type_discrete(measure, D_GRID).lower_bound_type
    details = [f"base {base:.4f}"]
    ok = True
    step = TWO_PI * 0.05
    for alpha in (1.0, 2.0, 4.0):
        value = type_discrete(polynomial_rescale(measure, alpha), D_GRID).lower_bound_type
        details.append(f"alpha={alpha:g}: {value:.4f}")
        ok = ok and abs(value - base) <= step + 1e-9
    return _row("rescale-invariance", ok, "; ".join(details))


def _classical_checkers() -> dict:
    oks = []
    v = levinson_check(catalog.fast_decay_measure())
    oks.append(v.conclusion.kind == "mu_must_vanish")
    v = levinson_check(catalog.koosis_measure(100.0))
    oks.append(v.conclusion.kind == "inconclusive")
    v = beurling_gap_check(catalog.long_gap_support())
    oks.append(v.conclusion.kind == "mu_must_vanish")
    v = beurling_gap_check(arithmetic(1.0, 2048.0))
    oks.append(v.conclusion.kind == "inconclusive")
    v = beurling_gap_check(catalog.short_gap_support())
    oks.append(v.conclusion.kind == "inconclusive")
    bks = np.arange(-4096.0, 4096.5, 0.5)
    w_krein = WeightTable(bks, 1.0 / (1.0 + 0.25 * (bks[:-1] + bks[1:]) ** 2),
                          kind="samples")
    oks.append(krein_lm_check(w_krein).conclusion.kind == "type_infinite")
    w_exp = WeightTable(bks, np.exp(-np.abs(0.5 * (bks[:-1] + bks[1:]))), kind="samples")
    oks.append(krein_lm_check(w_exp).conclusion.kind == "type_zero")
    return _row("classical-checkers", all(oks), f"pattern {oks}")


def _bundle_curves(threads: int):
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


def _oracle_knee(curves) -> dict:
    details = []
    ok = True
    for ex, curve in curves:
        knee = curve.knee
        good = knee is not None and abs(knee - ex.expected_type) <= 0.25 * ex.expected_type
        ok = ok and good
        details.append(f"{ex.name}: knee {knee if knee is None else round(knee, 3)}"
                       f" vs {ex.expected_type:.3f}")
    m = catalog.koosis_measure(60.0)
    from .oracle import annihilation_matrix, default_freq_count
    s_pi = np.linalg.svd(annihilation_matrix(m, math.pi, default_freq_count(m, math.pi)),
                         compute_uv=False)[-1]
    s_3pi = np.linalg.svd(annihilation_matrix(m, 3 * math.pi, default_freq_count(m, 3 * math.pi)),
                          compute_uv=False)[-1]
    sep = s_pi / s_3pi
    ok = ok and sep <= 1e-2
    details.append(f"sigma(pi)/sigma(3pi)={sep:.2e}")
    return _row("oracle-knee", ok, "; ".join(details))


def _oracle_formula_cross(curves) -> dict:
    details = []
    ok = True
    for ex, curve in curves:
        est = type_separated(ex.formula_measure, D_GRID)
        if curve.knee is None or est.lower_bound_type == 0:
            ok = False
            details.append(f"{ex.name}: missing knee or zero type")
            continue
        rel = abs(curve.knee - est.lower_bound_type) / est.lower_bound_type
        ok = ok and rel <= 0.25
        details.append(f"{ex.name}: |knee-type|/type={rel:.3f}")
    return _row("oracle-formula-cross", ok, "; ".join(details))


def _constructions() -> dict:
    details = []
    fam = benedicks_sequence(catalog.benedicks_partition(900.0), 0.5)
    rep = check_d_uniform(fam.sequence, 0.5, fam.blocks)
    ok = rep.overall
    details.append(f"block construction d-uniform at 0.5: {rep.overall}")

    base = arithmetic(1.0, 400.0)
    w = WeightTable(np.array([-400.0, 400.0]), np.array([1.0]))
    aux = auxiliary_sequence(base, w, 0.05, 20.0)
    gap_ok = aux.max_gap <= 1.0 / 0.05 + aux.max_pair_width + 1e-9
    widths_ok = bool(np.all(aux.pair_widths <= np.atleast_1d(w.evaluate(base.points[1:-1])) + 1e-12))
    midpoints_ok = len(aux.b_matched) == len(base) - 2
    ok = ok and gap_ok and widths_ok and midpoints_ok
    details.append(f"aux gaps<=1/eps+width: {gap_ok}; widths<=w: {widths_ok}; "
                   f"midpoints: {midpoints_ok}")
    return _row("constructions", ok, "; ".join(details))


def run_suite(threads: int = 1) -> list[dict]:
    # worker processes only enter through the oracle scans, which collect
    # their per-frequency results in grid order, so any --threads produces
    # the same bytes
    curves = _bundle_curves(threads)
    return [
        _energy_closed_form(),
        _deficit_positivity(),
        _uniformity_ground_truth(),
        _density_recovery(),
        _koosis_type(),
        _rescale_invariance(),
        _classical_checkers(),
        _oracle_knee(curves),
        _oracle_formula_cross(curves),
        _constructions(),
    ]
