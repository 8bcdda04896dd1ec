"""Type estimators for discrete measures and the classical gap/type checkers.

All estimates are p-free (the type of a finite measure does not depend on
the exponent for p > 1) and are reported in angular-frequency units: a
sequence of density d certifies type ``2 pi d``.

The discrete estimator is a certified lower bound.  Atoms whose log-weight
penalty exceeds a per-shell budget are dropped so that the retained
penalty series is summable on a support of bounded density; the surviving
support then goes through ``density.downward_scan``, the one downward grid
search the interior density runs too, where a candidate passes when its
spread-out subsequence is d-uniform and its retained log-weight series
converges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    CONVERGENT,
    DIVERGENT,
    INCONCLUSIVE,
    DiscreteMeasure,
    Partition,
    RealSequence,
    SumVerdict,
    TypelabError,
    WeightTable,
    _mids,
    dist0,
    map_libm,
    poisson_step_verdict,
    poisson_tail_sum,
    shell_index,
    shell_sum_verdict,
)
from .density import density_grid, downward_scan
from .partitions import InsufficientData, classify_family, family_bounds
from .uniformity import UniformityReport, check_d_uniform

TWO_PI = 2.0 * math.pi

# weight filter: atom of mass m at x in dyadic shell j (2^j <= |x| < 2^(j+1))
# survives when max(0, -log(m / |mu|)) / (1 + x^2) <= WEIGHT_BUDGET * 2^(-1.5 j);
# on a support with O(2^j) atoms per shell the retained shell totals are then
# bounded by a geometric sequence of ratio 2^(-1/2)
WEIGHT_BUDGET = 8.0

# desk-scale stand-in for "separated by some c > 0"
SEPARATION_GAP = 1e-6

# breakpoint pairs compared per block in benedicks_conditions (2 MB of float64)
_PAIR_BATCH = 1 << 18

TYPE_ZERO = "type_zero"
TYPE_AT_LEAST = "type_at_least"
TYPE_INFINITE = "type_infinite"
MU_MUST_VANISH = "mu_must_vanish"
TYPE_ORDERING = "type_ordering"


@dataclass(frozen=True)
class Conclusion:
    kind: str
    value: float | None = None


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    applicable: bool
    conclusion: Conclusion
    evidence: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.conclusion.kind != INCONCLUSIVE and not self.applicable:
            raise TypelabError("a definite conclusion requires applicable hypotheses")


@dataclass(frozen=True)
class TypeCertificate:
    subsequence: RealSequence
    weight_verdict: SumVerdict
    uniformity: UniformityReport


@dataclass(frozen=True)
class TypeEstimate:
    lower_bound_type: float
    certificate: TypeCertificate | None
    method: str
    two_sided: bool = False
    diagnostics: tuple[tuple[float, bool, str], ...] = ()


def _log_weight_penalties(measure: DiscreteMeasure) -> np.ndarray:
    # max(0, -log(m / |mu|)) / (1 + x^2): the same for c mu as for mu, and
    # free of the atom's rank in the support, which added atoms would shift
    pen = np.maximum(0.0, math.log(math.fsum(measure.masses.tolist())) - np.log(measure.masses))
    x = measure.positions
    with np.errstate(over="ignore"):  # past |x| = 1.3e154 the penalty rounds to 0
        return pen / (1.0 + x * x)


def weight_filter_mask(measure: DiscreteMeasure, penalties: np.ndarray) -> np.ndarray:
    """Atoms whose log-weight ``penalties`` fit the per-shell budget :data:`WEIGHT_BUDGET`."""
    x = measure.positions
    outer = np.abs(x) >= 1.0
    shells, where = np.unique(shell_index(np.abs(x[outer])), return_inverse=True)
    caps = np.array([WEIGHT_BUDGET * 2.0 ** (-1.5 * j) for j in shells.tolist()])
    keep = np.ones(len(measure), dtype=bool)
    keep[outer] = ~(penalties[outer] > caps[where])
    return keep


def _default_d_grid(measure: DiscreteMeasure) -> list[float]:
    density = len(measure) / (2.0 * measure.window)
    step = 0.05 * density
    return [step * k for k in range(1, 27)]  # up to 1.3x the gross density


def _scan_type(measure: DiscreteMeasure, d_grid, separated: bool) -> TypeEstimate:
    # a separated support makes the energy leg automatic and the value two-sided
    if len(measure) < 2:
        raise InsufficientData("need at least 2 atoms")
    method = "separated-scan" if separated else "discrete-scan"
    grid = density_grid(d_grid if d_grid is not None else _default_d_grid(measure))
    penalties, weights = _log_weight_penalties(measure), []
    mask = weight_filter_mask(measure, penalties)
    if not np.any(mask):
        return TypeEstimate(0.0, None, method, separated,
                            ((grid[0], False, "weight filter removed every atom"),))
    support = RealSequence(measure.positions[mask], measure.window, "weight-filtered")

    def judge(selected: RealSequence) -> tuple[bool, str]:
        # the selection's atoms are among the sorted positions; a convergent penalty
        # series keeps sum log w(x) / (1 + x^2) above -inf
        at = np.searchsorted(measure.positions, selected.points)
        weights.append(shell_sum_verdict(selected.points, penalties[at]))
        cls = weights[-1].classification
        return cls == CONVERGENT, "pass" if cls == CONVERGENT else f"weight sum {cls}"

    diagnostics, d, hit = downward_scan(support, grid, separated, judge)
    cert = None if hit is None else TypeCertificate(hit.subsequence, weights[-1], hit.report)
    return TypeEstimate(TWO_PI * d, cert, method, separated, diagnostics)


def type_discrete(measure: DiscreteMeasure, d_grid=None) -> TypeEstimate:
    """Certified lower bound on the type of a discrete measure.

    Scans the density grid downward; each candidate needs a d-uniform
    spread subsequence of the weight-filtered support whose retained
    log-weight series is summable.  Returns ``2 pi d`` for the largest
    passing ``d`` (0 when none passes), with the full certificate.
    """
    est = _scan_type(measure, d_grid, separated=False)
    growth = (0.0, _counting_growth_summable(measure), "log-counting-function Poisson-summable")
    return replace(est, diagnostics=est.diagnostics + (growth,))


def _counting_growth_summable(measure: DiscreteMeasure) -> bool:
    # diagnostic for the two-sided regime: log(|n_B| + 1) integrable against
    # the Poisson measure over the window
    pos = measure.positions
    logs = map_libm(math.log, np.abs(measure.centered_indices()[:-1]) + 1.0)
    atans = map_libm(math.atan, pos)
    verdict = shell_sum_verdict(_mids(pos[:-1], pos[1:]), logs * (atans[1:] - atans[:-1]))
    return verdict.classification != DIVERGENT


def type_separated(measure: DiscreteMeasure, d_grid=None) -> TypeEstimate:
    """Two-sided type estimate for a measure on a separated support.

    Separation (checked: consecutive gaps at least :data:`SEPARATION_GAP`) makes the
    energy condition automatic, so candidates are tested on density and
    shortness only, and the scan value is an equality rather than a lower
    bound.
    """
    gaps = np.diff(measure.positions)
    if gaps.size and float(np.min(gaps)) < SEPARATION_GAP:
        raise TypelabError(f"min gap {float(np.min(gaps)):.3g} below {SEPARATION_GAP:.3g}")
    return _scan_type(measure, d_grid, separated=True)


def suffgen_bound(measure: DiscreteMeasure, A: RealSequence, d: float) -> TheoremVerdict:
    """Lower type bound from neighbourhood masses along a d-uniform sequence.

    Each interior point of ``A`` gets the one-third-gap neighbourhood
    ``(a_n - eps_n, a_n + eps_n)``; when the log of the measure of these
    neighbourhoods is Poisson-summable in the index, the type is at least
    ``2 pi d``.  Boundary points (missing a neighbour) are dropped.
    """
    report = check_d_uniform(A, d)
    if not report.overall:
        raise TypelabError(f"A is not d-uniform at d={d}")
    pts = A.points
    if pts.size < 3:
        raise InsufficientData("need at least 3 points for neighbourhoods")
    centers = pts[1:-1]
    eps = np.minimum(pts[1:-1] - pts[:-2], pts[2:] - pts[1:-1]) / 3.0
    los = np.searchsorted(measure.positions, centers - eps, side="right")
    his = np.searchsorted(measure.positions, centers + eps, side="left")
    empty = np.flatnonzero(his <= los)
    if empty.size:
        x, e = centers[empty[0]], eps[empty[0]]
        raise TypelabError(f"zero mass in ({x - e}, {x + e})")
    logs = np.array([math.log(math.fsum(measure.masses[lo:hi]))
                     for lo, hi in zip(los.tolist(), his.tolist())])
    idx = A.centered_indices()[1:-1].astype(float)
    verdict = shell_sum_verdict(idx, np.maximum(0.0, -logs) / (1.0 + idx * idx))
    applicable = verdict.classification == CONVERGENT
    conclusion = Conclusion(TYPE_AT_LEAST, TWO_PI * d) if applicable else Conclusion(INCONCLUSIVE)
    return TheoremVerdict("neighbourhood-mass-bound", applicable, conclusion,
                          {"mass_sum": verdict, "uniformity": report})


def beurling_gap_check(support) -> TheoremVerdict:
    """Long gaps in the support force any gapped measure on it to vanish.

    ``support`` is a :class:`RealSequence` or a list of possibly overlapping
    intervals; the gaps of their union inside the window are classified, and
    a long gap family means no positive-density uniform sequence fits it.
    """
    if isinstance(support, RealSequence):
        cuts = np.concatenate([[-support.window], support.points, [support.window]])
        lefts, rights = cuts[:-1], cuts[1:]
    else:
        ends = np.array([(iv.left, iv.right) for iv in support], dtype=float).reshape(-1, 2)
        ends = ends[np.argsort(ends[:, 0], kind="stable")]
        # a gap runs from the right end of the union so far to the next left end
        lefts, rights = np.maximum.accumulate(ends[:, 1])[:-1], ends[1:, 0]
    gaps = np.column_stack((lefts, rights))[rights > lefts]
    verdict = classify_family(gaps) if gaps.size else None
    long_gaps = verdict is not None and verdict.classification == DIVERGENT
    conclusion = Conclusion(MU_MUST_VANISH) if long_gaps else Conclusion(INCONCLUSIVE)
    return TheoremVerdict("gap-support", True, conclusion,
                          {"gap_family": verdict, "gap_count": len(gaps)})


def levinson_check(measure: DiscreteMeasure) -> TheoremVerdict:
    """Fast-decaying tails force a gapped measure to vanish.

    Classifies the Poisson integral of ``|log M|`` on the positive
    half-axis, where ``M(x)`` is the mass beyond ``x``.  A region of the
    window where ``M`` vanishes on positive length makes the integral
    infinite outright.  Divergent means the measure must vanish; emits the
    geometric-threshold points ``a_n`` and the dyadic step weight as
    diagnostics.
    """
    T = measure.window
    pos_atoms = measure.positions[measure.positions > 0]
    pos_masses = measure.masses[measure.positions > 0]
    tail = np.concatenate([np.cumsum(pos_masses[::-1])[::-1], [0.0]])
    # M(x) = tail[k] on [b_{k-1}, b_k) with b_-1 = 0
    cuts = np.concatenate([[0.0], pos_atoms])
    zero_from = float(pos_atoms[-1]) if pos_atoms.size else 0.0
    thresholds = _levinson_thresholds(cuts, tail)
    evidence: dict = {"thresholds": thresholds.tolist()}
    if len(thresholds) >= 2:
        evidence["dyadic_weight"] = WeightTable(
            thresholds, 2.0 ** np.arange(1, len(thresholds), dtype=float),
            kind="samples")
    if T - zero_from > 0:
        evidence["zero_tail"] = [zero_from, T]
        evidence["poisson_log_tail"] = None
        return TheoremVerdict("tail-decay", True, Conclusion(MU_MUST_VANISH), evidence)
    held = tail[:-1] > 0
    verdict = poisson_step_verdict(cuts[:-1][held], cuts[1:][held],
                                   np.abs(map_libm(math.log, tail[:-1][held])))
    evidence["poisson_log_tail"] = verdict
    kind = MU_MUST_VANISH if verdict.classification == DIVERGENT else INCONCLUSIVE
    return TheoremVerdict("tail-decay", True, Conclusion(kind), evidence)


def _levinson_thresholds(cuts: np.ndarray, tail: np.ndarray) -> np.ndarray:
    # a_0 = 0 and a_n, n <= 64: the first cut where the nonincreasing tail drops to 3^-n
    # of the total; they stop before the first a_n that does not grow or has tail 0
    if tail[0] <= 0:
        return np.zeros(0)
    k = np.searchsorted(-tail, -tail[0] * map_libm(lambda n: 3.0 ** n, -np.arange(1.0, 65.0)))
    a = np.concatenate(([0.0], cuts[k]))
    stop = np.flatnonzero((tail[k] <= 0) | (a[1:] <= a[:-1]))
    return a[:stop[0] + 1] if stop.size else a


def hybrid_check(measure: DiscreteMeasure, intervals) -> TheoremVerdict:
    """Smallness of the measure along a long family forces it to vanish.

    Evaluates ``sum |I| min(|I|, log 1/mu(I)) / (1 + dist^2(I, 0))``; zero
    mass contributes via the ``|I|`` cap, mass at least one contributes
    nothing.  Divergence means no nonzero measure with a spectral gap can
    put so little mass there.
    """
    lefts, rights = family_bounds(intervals)
    mass, length = measure.mass_in(lefts, rights), rights - lefts
    with np.errstate(over="ignore", divide="ignore"):  # poisson_tail_sum refuses an inf term
        logs = np.maximum(0.0, map_libm(math.log, 1.0 / mass))
        terms = length * np.where(mass <= 0.0, length, np.minimum(length, logs))
    verdict = poisson_tail_sum(np.column_stack((dist0(lefts, rights), terms)))
    kind = MU_MUST_VANISH if verdict.classification == DIVERGENT else INCONCLUSIVE
    return TheoremVerdict("sparse-mass", True, Conclusion(kind), {"series": verdict})


def debranges_check(K: WeightTable, measure: DiscreteMeasure,
                    modulus_of_continuity: float) -> TheoremVerdict:
    """Admissible unbounded weights rule out gapped measures.

    Hypotheses checked at desk scale: ``K >= 1``; ``log K`` Lipschitz at
    the given modulus across consecutive piece midpoints; ``int K d|mu|``
    summable (shell verdict of the atom series); and the Poisson integral
    of ``log K`` divergent.  All four met means the measure must vanish.
    """
    if float(np.min(K.values)) < 1.0:
        raise TypelabError("weight must be >= 1")
    mids = _mids(K.breakpoints[:-1], K.breakpoints[1:])
    logv = np.log(K.values)
    slopes = np.abs(np.diff(logv)) / np.diff(mids)
    continuity_ok = bool(np.all(slopes <= modulus_of_continuity + 1e-12))

    kw = np.atleast_1d(K.evaluate(measure.positions))
    mass_series = shell_sum_verdict(measure.positions, kw * measure.masses)
    mass_ok = mass_series.classification == CONVERGENT

    poisson_logk = poisson_step_verdict(K.breakpoints[:-1], K.breakpoints[1:],
                                        map_libm(math.log, K.values))
    unsummable = poisson_logk.classification == DIVERGENT

    applicable = continuity_ok and mass_ok and unsummable
    evidence = {
        "continuity_ok": continuity_ok,
        "max_log_slope": float(np.max(slopes)) if slopes.size else 0.0,
        "mass_series": mass_series,
        "poisson_log_weight": poisson_logk,
    }
    conclusion = Conclusion(MU_MUST_VANISH) if applicable else Conclusion(INCONCLUSIVE)
    return TheoremVerdict("admissible-weight", applicable, conclusion, evidence)


def krein_lm_check(density_samples: WeightTable, monotone_flag: bool = True) -> TheoremVerdict:
    """Type of an absolutely continuous measure from its density samples.

    Poisson-summable ``log w`` gives infinite type.  Unsummable ``log w``
    that is monotone toward the divergent half-axis (verified on the
    samples, asserted by the caller) gives type zero; otherwise the
    samples are inconclusive.  Pieces where ``w`` vanishes on positive
    length make ``log w`` unsummable outright.
    """
    bks, vals = density_samples.breakpoints, density_samples.values
    lefts, rights, pos = bks[:-1], bks[1:], vals > 0.0
    logs = np.abs(map_libm(math.log, np.where(pos, vals, 1.0)))

    def log_verdict(mask: np.ndarray) -> SumVerdict | None:
        return poisson_step_verdict(lefts[mask], rights[mask], logs[mask]) if mask.any() else None

    overall = log_verdict(pos)
    evidence: dict = {"poisson_log_density": overall,
                      "zero_pieces": int(np.count_nonzero(~pos))}
    if pos.all() and overall.classification == CONVERGENT:
        return TheoremVerdict("density-log-summability", True,
                              Conclusion(TYPE_INFINITE), evidence)

    # each side's values in order away from 0
    for side, on_side, step in (("positive", lefts >= 0, 1), ("negative", rights <= 0, -1)):
        side_verdict = log_verdict(pos & on_side)
        diverges = bool(np.any(~pos & on_side)) or (
            side_verdict is not None and side_verdict.classification == DIVERGENT)
        side_vals = vals[pos & on_side][::step]
        monotone = bool(np.all(side_vals[1:] <= side_vals[:-1] * (1 + 1e-12)))
        evidence[f"{side}_half"] = {"diverges": diverges, "monotone": monotone,
                                    "verdict": side_verdict}
        if diverges and monotone and monotone_flag:
            return TheoremVerdict("density-log-summability", True,
                                  Conclusion(TYPE_ZERO), evidence)
    return TheoremVerdict("density-log-summability", False,
                          Conclusion(INCONCLUSIVE), evidence)


def borichev_sodin_compare(mu: DiscreteMeasure, nu: DiscreteMeasure, delta: float,
                           C: float, l: float) -> TheoremVerdict:
    """Exponential-neighbourhood domination implies ordering of types.

    Verifies ``mu([x-e, x+e]) <= C (1+|x|)^l (nu([x-2e, x+2e]) + e^2)`` with
    ``e = exp(-delta |x|)`` at the atoms of ``mu`` and the midpoints between
    consecutive atoms; when the relation holds, the type of ``mu`` is at
    most the type of ``nu``.
    """
    if not (delta > 0 and C > 0):  # also true on NaN
        raise TypelabError("delta and C must be positive")
    pos = mu.positions
    xs = np.unique(np.concatenate((pos, _mids(pos[:-1], pos[1:]))))
    try:
        grow = map_libm(lambda y: y ** l, 1.0 + np.abs(xs))
    except OverflowError:
        raise TypelabError(f"(1+|x|)^l overflows at l={l:g}") from None
    # an overflow gives inf, and inf times a zero mass nan, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        e = map_libm(math.exp, -delta * np.abs(xs))
        lhs = mu.mass_in(xs - e, xs + e, closed=True)
        rhs = C * grow * (nu.mass_in(xs - 2 * e, xs + 2 * e, closed=True)
                          + map_libm(math.exp, -2.0 * delta * np.abs(xs)))
        failed = np.flatnonzero(lhs > rhs * (1.0 + 1e-12))
    if not np.isfinite(rhs).all():
        raise TypelabError(f"C (1+|x|)^l (nu + e^2) overflows at C={C:g}, l={l:g}")
    if failed.size:
        k = failed[0]
        return TheoremVerdict("exponential-domination", False, Conclusion(INCONCLUSIVE),
                              {"failed_at": xs[k], "lhs": lhs[k], "rhs": rhs[k]})
    margin = rhs - lhs
    k = np.argmin(margin)  # the first strict minimum
    return TheoremVerdict("exponential-domination", True, Conclusion(TYPE_ORDERING),
                          {"ordering": "type(mu) <= type(nu)",
                           "worst_margin_at": xs[k], "worst_margin": margin[k]})


def duffin_schaeffer_check(measure: DiscreteMeasure, L: float, c: float) -> TheoremVerdict:
    """A uniform Poisson-size mass floor in every window certifies positive type.

    Checks ``mu([x-L, x+L]) > c/(1+x^2)`` exactly over ``[-T+L, T-L]``: the
    window mass is piecewise constant with jumps at atom positions shifted
    by ``+-L``, so each piece is tested at its point nearest the origin.
    A pass gives type at least ``pi / L``.
    """
    if not (L > 0 and c > 0):  # also true on NaN
        raise TypelabError("L and c must be positive")
    T = measure.window
    lo, hi = -T + L, T - L
    if hi <= lo:
        raise InsufficientData("window too small for the requested L")
    with np.errstate(over="ignore"):  # an event beyond the float range is outside (lo, hi)
        shifted = np.concatenate((measure.positions - L, measure.positions + L))
    events = np.unique(np.concatenate(([lo, hi], shifted[(lo < shifted) & (shifted < hi)])))
    x_mid = _mids(events[:-1], events[1:])
    mass = measure.mass_in(x_mid - L, x_mid + L, closed=True)
    # the floor c/(1+x^2) peaks at each piece's point nearest the origin
    x_star = np.clip(0.0, events[:-1], events[1:])
    with np.errstate(over="ignore"):  # far from 0 the floor rounds to 0
        floor = c / (1.0 + x_star * x_star)
    failed = np.flatnonzero(mass <= floor)
    if failed.size:
        k = failed[0]
        return TheoremVerdict("window-mass-floor", False, Conclusion(INCONCLUSIVE),
                              {"failed_at": x_mid[k], "mass": mass[k], "floor": floor[k]})
    k = np.argmin(mass - floor)
    return TheoremVerdict("window-mass-floor", True,
                          Conclusion(TYPE_AT_LEAST, math.pi / L),
                          {"worst_margin_at": x_mid[k], "worst_margin": mass[k] - floor[k]})


def benedicks_conditions(partition: Partition, C1: float, C2: float, C3: float) -> TheoremVerdict:
    """Admissibility of an alternating partition for the block construction.

    Checks, over the available indices: comparability of odd-interval
    lengths across C1-comparable odd breakpoints; C1-comparability of
    consecutive odd breakpoints; the pointwise lower bound
    ``|I_odd| > C3 max(|I_even|, 1)``; and summability of the weighted
    odd-length series.  All four passing makes the partition usable by the
    block construction (the quantitative bound is delegated to it).  The
    constants must be finite and positive, and the squared odd lengths
    finite.  Each failing condition names its first failing index.
    """
    if not all(math.isfinite(c) and c > 0 for c in (C1, C2, C3)):
        raise TypelabError(f"C1, C2 and C3 must be finite and positive, got {C1}, {C2}, {C3}")
    bks = partition.breakpoints
    zero_idx = np.flatnonzero(np.abs(bks) < 1e-12)
    if zero_idx.size != 1:
        raise TypelabError("alternating partition needs 0 as a breakpoint")
    i0 = int(zero_idx[0])
    # index n is position i0 + n; I_n = (a_n, a_{n+1}] has length lengths[i0 + n].
    # Only a_0 lies within 1e-12 of 0, so no odd |a_n| below is 0.
    lengths = np.diff(bks)
    odd_bk = np.arange((i0 + 1) % 2, bks.size, 2)
    odd = odd_bk[odd_bk < lengths.size]
    mags, odd_len = np.abs(bks[odd]), lengths[odd]
    failures: list[str] = []

    with np.errstate(over="ignore"):  # an infinite bound compares correctly
        # 1: odd lengths comparable whenever odd breakpoints are C1-comparable;
        # rows in blocks of _PAIR_BATCH comparisons, first failure in row-major order
        step = max(1, _PAIR_BATCH // max(1, odd.size))
        for start in range(0, odd.size, step):
            an, ln = mags[start:start + step, None], odd_len[start:start + step, None]
            bad = ((an / C1 < mags) & (mags < an * C1)
                   & ~((ln / C2 < odd_len) & (odd_len < ln * C2)))
            if bad.any():
                row, col = divmod(int(bad.argmax()), odd.size)
                failures.append(f"condition 1 at ({odd[start + row] - i0}, {odd[col] - i0})")
                break
        cond1 = not failures

        # 2: consecutive odd breakpoints C1-comparable in absolute value
        pair = np.abs(np.stack((bks[odd_bk[:-1]], bks[odd_bk[1:]])))
        bad2 = np.flatnonzero(pair.max(axis=0) / pair.min(axis=0) >= C1)
        if bad2.size:
            failures.append(f"condition 2 at n={odd_bk[bad2[0] + 1] - i0}")
        cond2 = not bad2.size

        # 3: odd intervals dominate their even neighbour
        even = np.arange(i0 % 2, lengths.size - 1, 2)
        bad3 = np.flatnonzero(~(lengths[even + 1] > C3 * np.maximum(lengths[even], 1.0)))
        if bad3.size:
            failures.append(f"condition 3 at even index {even[bad3[0]] - i0}")
        cond3 = not bad3.size

        # 4: weighted odd-length series summable
        bracket = np.ones(odd.size)
        prev_even = np.where(odd > 0, lengths[odd - 1], 0.0)
        grow = prev_even > 0
        bracket[grow] = np.maximum(0.0, map_libm(math.log, odd_len[grow] / prev_even[grow])) + 1.0
        terms = odd_len * odd_len * bracket
        series = poisson_tail_sum(np.column_stack((bks[odd], terms)))
    cond4 = series.classification == CONVERGENT

    applicable = cond1 and cond2 and cond3 and cond4
    evidence = {"condition1": cond1, "condition2": cond2, "condition3": cond3,
                "odd_length_series": series, "failures": failures}
    return TheoremVerdict("alternating-partition-admissibility", applicable,
                          Conclusion(INCONCLUSIVE), evidence)


def polynomial_rescale(measure: DiscreteMeasure, alpha: float) -> DiscreteMeasure:
    """Divide masses by ``1 + |x|^alpha``; the type is invariant under this."""
    if alpha < 0:
        raise TypelabError("alpha must be nonnegative")
    try:
        math.pow(float(np.abs(measure.positions).max()), alpha)
    except OverflowError:
        raise TypelabError(f"|x|^alpha overflows at alpha={alpha:g}") from None
    scale = 1.0 + np.abs(measure.positions) ** alpha
    return DiscreteMeasure(measure.positions.copy(), measure.masses / scale,
                           measure.window,
                           f"{measure.tag or 'measure'}/poly(alpha={alpha:g})")
