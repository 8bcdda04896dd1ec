"""Array kernels checked for bit-for-bit equality with the scalar loops they replaced.

The ``ref_*`` functions are the former per-element implementations, kept
here as oracles.  Reports are byte-identical only if every float the array
code produces equals the one the loop produced, so the comparisons below
use ``==``, never ``approx`` (save the oracle's real form, which matches the
complex matrix it replaced only to rounding).
"""

import contextlib
import dataclasses
import io
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from typelab.constructions import (
    BENEDICKS_CONSTANTS,
    CONSTRUCTION_MAX_SIZE,
    AuxiliaryFamily,
    BenedicksFamily,
    _equal_measure_points,
    alternating_partition,
    arithmetic,
    auxiliary_sequence,
    benedicks_sequence,
    default_block_growth,
    measure_from_weights,
    perturb_exponential,
)
from typelab.core import (
    DIVERGENT,
    SLACK_POINTS,
    DiscreteMeasure,
    Interval,
    Partition,
    RealSequence,
    SumVerdict,
    TypelabError,
    WeightTable,
    _mids,
    dist0,
    poisson_tail_sum,
    poisson_piece_contributions,
    shell_sum_verdict,
    split_at_shells,
)
from typelab import density, energy, uniformity
from typelab.density import (
    DensityEstimate,
    InteriorCertificate,
    _block_counts,
    _farthest_points,
    counting_function,
    exterior_density,
    interior_density,
    regularity_block_scan,
    spread_selection,
    strong_regularity_defect,
)
from typelab.energy import (
    DEGENERATE_DISTANCE,
    _BLOCK,
    _MATRIX_LIMIT,
    _as_points,
    coulomb_energy,
    energy_report,
    grid_energy_closed_form,
    interval_deficits,
    interval_energies,
)
from typelab.partitions import (
    SCALAR_PROBE,
    InsufficientData,
    family_bounds,
    _grow_side,
    _min_length,
    classify_family,
    find_short_partition,
)
from typelab import serialize
from typelab.cli import main
from typelab.serialize import BULK_MIN_SIZE, canonical_json, format_float, load_measure
from typelab import typeproblem
from typelab.core import CONVERGENT
from typelab.typeproblem import (
    INCONCLUSIVE,
    MU_MUST_VANISH,
    TWO_PI,
    TYPE_AT_LEAST,
    TYPE_INFINITE,
    TYPE_ORDERING,
    TYPE_ZERO,
    WEIGHT_BUDGET,
    Conclusion,
    TheoremVerdict,
    _counting_growth_summable,
    _levinson_thresholds,
    benedicks_conditions,
    beurling_gap_check,
    borichev_sodin_compare,
    debranges_check,
    duffin_schaeffer_check,
    hybrid_check,
    krein_lm_check,
    levinson_check,
    suffgen_bound,
    type_discrete,
    type_separated,
    weight_filter_mask,
)
from typelab.oracle import (
    EXTENDED_DPS,
    NUMPY_OPS,
    _blocks,
    _sigma_extremes,
    annihilation_matrix,
    default_freq_count,
)
from typelab.suite import SUITE_DEFICIT_SCALE, deficit_positivity, energy_closed_form
from typelab.uniformity import _energy_leg, _evaluate, check_d_uniform

# |x| <= 1e300: the former splitter overflows computing 2.0 ** 1024
coords = st.floats(-1e300, 1e300, allow_nan=False)
small_coords = st.floats(-5000.0, 5000.0, allow_nan=False)


# ---------------------------------------------------------------- oracles


def ref_split_at_shells(left, right):
    cuts = {left, right}
    if left < 0.0 < right:
        cuts.add(0.0)
    hi = max(abs(left), abs(right))
    j = 0
    while 2.0 ** j < hi:
        for s in (2.0 ** j, -(2.0 ** j)):
            if left < s < right:
                cuts.add(s)
        j += 1
    seq = sorted(cuts)
    return [(seq[i], seq[i + 1]) for i in range(len(seq) - 1) if seq[i + 1] > seq[i]]


def shell_pieces(left, right):
    """The pieces of the one interval ``[left, right]``, as ``(u, v)`` pairs."""
    u, v, _ = split_at_shells([left], [right])
    return list(zip(u.tolist(), v.tolist()))


def ref_shell_bins(locations, values):
    """Dict-based binning of the former shell_sum_verdict.

    The shell is the exact binary exponent; see test_shell_index_below_power_of_two
    for the values on which the former ``floor(log2 |x|)`` disagreed.
    """
    shells: dict[int, list[float]] = {}
    inner: list[float] = []
    for loc, val in zip(locations, values):
        ax = abs(loc)
        if ax < 1.0:
            inner.append(val)
        else:
            shells.setdefault(math.frexp(ax)[1] - 1, []).append(val)
    return (tuple(sorted((j, math.fsum(vs)) for j, vs in shells.items())),
            math.fsum(inner), math.fsum(values))


def ref_poisson_piece_contributions(pieces):
    out = []
    for left, right, value in pieces:
        for u, v in ref_split_at_shells(left, right):
            out.append((0.5 * (u + v), value * (math.atan(v) - math.atan(u))))
    return out


def ref_strong_regularity_defect(seq, a):
    T = seq.window
    pts = [x for x in seq.points.tolist() if -T < x < T]
    cuts = [-T] + pts + [T]
    locations, contribs = [], []

    def antideriv(x, c):
        return c * math.atan(x) - 0.5 * a * math.log1p(x * x)

    for left, right in zip(cuts, cuts[1:]):
        if right <= left:
            continue
        c = float(counting_function(seq, 0.5 * (left + right)))
        for u, v in ref_split_at_shells(left, right):
            pieces = [(u, v)]
            if a > 0 and u < c / a < v:
                pieces = [(u, c / a), (c / a, v)]
            for uu, vv in pieces:
                locations.append(0.5 * (uu + vv))
                contribs.append(abs(antideriv(vv, c) - antideriv(uu, c)))
    return shell_sum_verdict(locations, contribs)


def ref_grow_side(points, T, d, scale):
    bks = []
    b = 0.0
    rank = 1
    n = points.size
    while b < T:
        L = _min_length(rank, scale)
        xmin = b + L
        if xmin >= T:
            break
        base = int(np.searchsorted(points, b, side="right"))
        cmin = int(np.searchsorted(points, xmin, side="right")) - base
        nxt = None
        if cmin >= d * L - 1e-9:
            nxt = xmin
        else:
            k = int(np.searchsorted(points, xmin, side="left"))
            while k < n and points[k] <= T:
                count = k - base + 1
                if count >= d * (points[k] - b) - 1e-9:
                    nxt = float(points[k])
                    break
                k += 1
        if nxt is None or nxt >= T:
            break
        bks.append(nxt)
        b = nxt
        rank += 1
    if bks and T - bks[-1] < 1.0:
        bks[-1] = T
    elif b < T:
        bks.append(T)
    return bks


def ref_weight_filter_mask(measure, budget=WEIGHT_BUDGET):
    log_total = math.log(math.fsum(measure.masses.tolist()))
    pen = np.maximum(0.0, log_total - np.log(measure.masses))
    keep = np.ones(len(measure), dtype=bool)
    for i, (p, x) in enumerate(zip(pen.tolist(), measure.positions.tolist())):
        ax = abs(x)
        if ax < 1.0:
            continue
        j = math.frexp(ax)[1] - 1
        if p / (1.0 + x * x) > budget * 2.0 ** (-1.5 * j):
            keep[i] = False
    return keep


def ref_counting_growth_summable(measure):
    pos = measure.positions
    idx = measure.centered_indices()
    pieces = [(pos[i], pos[i + 1], math.log(abs(float(idx[i])) + 1.0))
              for i in range(len(pos) - 1)]
    verdict = shell_sum_verdict([0.5 * (l + r) for l, r, _ in pieces],
                                [v * (math.atan(r) - math.atan(l)) for l, r, v in pieces])
    return verdict.classification != "divergent"


def ref_format_float(x):
    if x != x:
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == 0.0:
        return "0"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".12g")


# ---------------------------------------------------------------- inputs


def ref_farthest_points(inside, k):
    if k == 1:
        mid = 0.5 * (inside[0] + inside[-1])
        return inside[[int(np.argmin(np.abs(inside - mid)))]]
    sel = [0, inside.size - 1]
    dist = np.minimum(np.abs(inside - inside[0]), np.abs(inside - inside[-1]))
    while len(sel) < k:
        nxt = int(np.argmax(dist))
        sel.append(nxt)
        dist = np.minimum(dist, np.abs(inside - inside[nxt]))
    return np.sort(inside[np.array(sel)])


def ref_intervals(partition):
    """The partition's intervals as :class:`Interval` objects."""
    bks = partition.breakpoints.tolist()
    return [Interval(left, right) for left, right in zip(bks[:-1], bks[1:])]


def ref_dist0(iv):
    """Distance from the origin to the closure of ``iv``."""
    if iv.left <= 0.0 <= iv.right:
        return 0.0
    return iv.left if iv.left > 0.0 else -iv.right


def ref_spread_selection(seq, partition, d):
    pts = seq.points
    chosen = []
    for iv in ref_intervals(partition):
        lo = int(np.searchsorted(pts, iv.left, side="right"))
        hi = int(np.searchsorted(pts, iv.right, side="right"))
        inside = pts[lo:hi]
        k = int(math.floor(d * iv.length + 1e-9))
        if k >= inside.size:
            if inside.size:
                chosen.append(inside)
            continue
        if k <= 0:
            continue
        chosen.append(ref_farthest_points(inside, k))
    if not chosen:
        return RealSequence(np.zeros(0), seq.window, "selection(empty)")
    return RealSequence(np.concatenate(chosen), seq.window, "selection")


def ref_energy_leg(seq, partition):
    """The former per-interval energy_report loop of the energy leg."""
    deficits, terms = [], []
    for iv in ref_intervals(partition):
        rep = energy_report(seq, iv)
        deficits.append(rep.deficit)
        terms.append((ref_dist0(iv), max(rep.deficit, 0.0)))
    return deficits, poisson_tail_sum(terms)


def ref_coulomb_energy(config) -> float:
    """The former coulomb_energy, which built np.triu_indices(n, 1) on every call."""
    pts = np.sort(_as_points(config))
    n = pts.size
    if n < 2:
        raise TypelabError("coulomb energy needs at least 2 points")
    if not math.isfinite(float(pts[-1]) - float(pts[0])):
        raise TypelabError("points span more than the float range")
    gaps = np.diff(pts)
    if np.min(gaps) < DEGENERATE_DISTANCE:
        raise TypelabError("two points closer than 1e-300")

    if n <= _MATRIX_LIMIT:
        rows, cols = np.triu_indices(n, k=1)
        # numpy's pairwise (cascade) summation keeps the error compensated
        # and the reduction order fixed for a given size
        return 2.0 * float(np.log(pts[cols] - pts[rows]).sum())

    # row-blocked pairwise sum; fixed block size keeps the reduction order
    # independent of the execution environment
    block_sums: list[float] = []
    for start in range(0, n - 1, _BLOCK):
        stop = min(start + _BLOCK, n - 1)
        acc = 0.0
        for i in range(start, stop):
            acc += float(np.log(pts[i + 1:] - pts[i]).sum())
        block_sums.append(acc)
    return 2.0 * math.fsum(block_sums)


def ref_deficit_positivity(seed, max_length, max_left, max_points):
    """The former deficit-positivity row, one energy_report per random configuration;
    its result and the deficits of those configurations."""
    rng = np.random.default_rng(seed)
    min_deficit = math.inf
    deficits = []
    for _ in range(1000):
        length = rng.uniform(1.0, max_length)
        left = rng.uniform(-max_left, max_left)
        k = int(rng.integers(1, max_points))
        pts = np.unique(rng.uniform(left + 1e-9, left + length, size=k))
        rep = energy_report(pts, Interval(left, left + length))
        min_deficit = min(min_deficit, rep.deficit)
        deficits.append(rep.deficit)
    grid_ok = True
    detail = [f"min deficit {min_deficit:.3e}"]
    for delta in (10, 100, 1000, 10000):
        pts = np.arange(delta, dtype=float)
        rep = energy_report(pts, Interval(-0.5, delta - 0.5))
        ratio = rep.deficit / delta ** 2
        grid_ok = grid_ok and ratio <= 2.0
        detail.append(f"grid {delta}: deficit/D^2={ratio:.3f}")
    return (min_deficit >= -1e-9 and grid_ok, "; ".join(detail)), deficits


def ref_energy_closed_form():
    """The former energy-closed-form row, one coulomb_energy per grid; its result
    and the energies of those grids."""
    worst, energies = 0.0, []
    for d in (0.5, 1.0, 2.0):
        for delta in range(2, 201):
            brute = coulomb_energy(np.arange(delta, dtype=float) / d)
            closed = grid_energy_closed_form(delta, d)
            worst = max(worst, abs(brute - closed) / max(1.0, abs(closed)))
            energies.append(brute)
    return (worst <= 1e-9, f"max rel err {worst:.3e}"), energies


def ref_check_density(seq, partition, d):
    ratios = []
    sides = {"left": [], "right": []}
    for iv in ref_intervals(partition):
        count = seq.count_in(iv.left, iv.right)
        ratio = count / iv.length
        ratios.append(ratio)
        tol = max(0.05 * d, 2.0 / iv.length)
        row = (ref_dist0(iv), abs(ratio - d), abs(ratio - d) - tol)
        if iv.right <= 0.0:
            sides["left"].append(row)
        elif iv.left >= 0.0:
            sides["right"].append(row)
    max_dev, passed = 0.0, True
    for rows in sides.values():
        rows.sort(key=lambda t: t[0])
        outer = rows[len(rows) // 2:]
        max_dev = max(max_dev, max((t[1] for t in outer), default=0.0))
        passed = passed and all(t[2] <= 0.0 for t in outer)
    return passed, max_dev, ratios


def ref_classify_family(intervals):
    ivs = sorted(intervals, key=lambda i: i.left)
    return poisson_tail_sum([(ref_dist0(iv), iv.length ** 2) for iv in ivs])


def ref_dyadic_blocks(T):
    out, lo = [], 1.0
    while 2.0 * lo <= T:
        out += [Interval(lo, 2.0 * lo), Interval(-2.0 * lo, -lo)]
        lo *= 2.0
    return out


def ref_excess_blocks(seq, a):
    T = seq.window
    out = [iv for iv in ref_dyadic_blocks(T)
           if seq.count_in(iv.left, iv.right) - a * iv.length > SLACK_POINTS]
    # the innermost block (-1, 1] is checked as a whole
    if T >= 1.0:
        count = seq.count_in(-1.0, 1.0)
        if count - 2 * a > SLACK_POINTS:
            out.append(Interval(-1.0, 1.0))
    return out


def ref_exterior_density(seq, a_grid):
    """The exterior scan as a loop over the grid, its excess blocks found anew for
    every grid value by :func:`ref_excess_blocks`."""
    a_grid = sorted(a_grid)
    if len(seq) == 0:
        return DensityEstimate(a_grid[0], "exterior", None,
                               tuple((a, True, "empty sequence") for a in a_grid))
    diagnostics, value = [], None
    for a in a_grid:
        excess = ref_excess_blocks(seq, a)
        if not excess:
            feasible, note = True, "no excess blocks"
        else:
            verdict = classify_family(excess)
            feasible = verdict.classification == CONVERGENT
            note = f"excess family {verdict.classification} ({len(excess)} blocks)"
        diagnostics.append((a, feasible, note))
        if feasible and value is None:
            value = a
    if value is None:
        raise TypelabError(f"no grid value up to {a_grid[-1]:g} is a feasible exterior "
                           f"density ({note}); extend the grid")
    return DensityEstimate(value, "exterior", None, tuple(diagnostics))


def ref_regularity_block_scan(seq, a, epsilon=0.05):
    bad = [iv for iv in ref_dyadic_blocks(seq.window)
           if abs(seq.count_in(iv.left, iv.right) / iv.length - a)
           > epsilon * max(a, 1.0) + 1.0 / iv.length]
    if not bad:
        return SumVerdict(0.0, (), 0.0, "convergent", 0.0, note="no violating blocks")
    return dataclasses.replace(classify_family(bad), note=f"{len(bad)} violating blocks")


def ref_benedicks_conditions(partition, C1, C2, C3):
    bks = partition.breakpoints
    zero_idx = np.flatnonzero(np.abs(bks) < 1e-12)
    if zero_idx.size != 1:
        raise TypelabError("alternating partition needs 0 as a breakpoint")
    i0 = int(zero_idx[0])
    n_lo, n_hi = -i0, len(bks) - 1 - i0

    def a(n: int) -> float:
        return float(bks[i0 + n])

    odd_ns = [n for n in range(n_lo, n_hi) if n % 2 != 0]
    odd_bk_ns = [n for n in range(n_lo, n_hi + 1) if n % 2 != 0]
    failures: list[str] = []

    cond1 = True
    for n in odd_ns:
        for k in odd_ns:
            an, ak = abs(a(n)), abs(a(k))
            if an == 0 or ak == 0:
                continue
            if an / C1 < ak < an * C1:
                ln = a(n + 1) - a(n)
                lk = a(k + 1) - a(k)
                if not (ln / C2 < lk < ln * C2):
                    cond1 = False
                    failures.append(f"condition 1 at ({n}, {k})")
                    break
        if not cond1:
            break

    cond2 = True
    odd_bk_set = set(odd_bk_ns)
    for n in odd_bk_ns:
        if n - 2 not in odd_bk_set:
            continue
        small, large = sorted((abs(a(n)), abs(a(n - 2))))
        if small <= 0 or large / small >= C1:
            cond2 = False
            failures.append(f"condition 2 at n={n}")
            break

    cond3 = True
    for n in range(n_lo, n_hi - 1):
        if n % 2 == 0:
            even_len = a(n + 1) - a(n)
            odd_len = a(n + 2) - a(n + 1)
            if not odd_len > C3 * max(even_len, 1.0):
                cond3 = False
                failures.append(f"condition 3 at even index {n}")
                break

    terms = []
    for n in odd_ns:
        ln = a(n + 1) - a(n)
        prev_even = a(n) - a(n - 1) if n - 1 >= n_lo else None
        bracket = 1.0
        if prev_even and prev_even > 0:
            bracket = max(0.0, math.log(ln / prev_even)) + 1.0
        terms.append((a(n), ln * ln * bracket))
    series = poisson_tail_sum(terms)
    cond4 = series.classification == CONVERGENT

    applicable = cond1 and cond2 and cond3 and cond4
    evidence = {"condition1": cond1, "condition2": cond2, "condition3": cond3,
                "odd_length_series": series, "failures": failures}
    return TheoremVerdict("alternating-partition-admissibility", applicable,
                          Conclusion(INCONCLUSIVE), evidence)


def ref_alternating_partition(even_len, odd_len, T):
    if not all(math.isfinite(v) and v > 0 for v in (even_len, odd_len, T)):
        raise TypelabError("interval lengths and T must be finite and positive")
    if T / (even_len + odd_len) > CONSTRUCTION_MAX_SIZE / 4:
        raise TypelabError(f"tiling of [-{T:g}, {T:g}] would have more than "
                           f"{CONSTRUCTION_MAX_SIZE} intervals")
    right = [0.0]
    while True:
        for step in (even_len, odd_len):
            right.append(right[-1] + step)
        if right[-1] >= T:
            break
    left = [0.0]
    while True:
        for step in (odd_len, even_len):
            left.append(left[-1] - step)
        if left[-1] <= -T:
            break
    bks = sorted(set(left) | set(right))
    return Partition(np.asarray(bks))


def ref_auxiliary_sequence(B, w, epsilon, L):
    if epsilon <= 0:
        raise TypelabError("epsilon must be positive")
    if L < 1.0 / epsilon:
        raise TypelabError(f"need L >= 1/epsilon = {1.0 / epsilon}")
    if len(B) < 3:
        raise TypelabError("base sequence needs at least 3 points")
    wb = np.atleast_1d(w.evaluate(B.points))
    if np.any(~np.isfinite(wb)) or np.any(wb <= 0):
        raise TypelabError("weights must be positive and finite")
    b = B.points
    l = np.minimum(np.minimum(b[1:-1] - b[:-2], b[2:] - b[1:-1]), wb[1:-1])
    centers = b[1:-1]
    if np.any(l / 3.0 <= 4.0 * np.spacing(np.abs(centers))):
        raise TypelabError(
            "pair widths fall below the float spacing of the base points; "
            "shrink the window or raise the weights")
    pairs = np.empty(2 * centers.size)
    pairs[0::2] = centers - l / 3.0
    pairs[1::2] = centers + l / 3.0
    fill = []
    for i in range(centers.size - 1):
        lo = pairs[2 * i + 1]
        hi = pairs[2 * i + 2]
        gap = hi - lo
        if gap > L:
            m = int(math.floor(gap / L))
            for k in range(1, m + 1):
                fill.append(lo + k * gap / (m + 1))
    a_pts = np.sort(np.concatenate([pairs, np.asarray(fill)]))
    c_pts = 0.5 * (a_pts[:-1] + a_pts[1:])
    scale = max(1.0, float(np.max(np.abs(b))))
    matched = centers[np.isclose(centers[:, None], c_pts[None, :],
                                 atol=1e-9 * scale, rtol=0.0).any(axis=1)]
    return AuxiliaryFamily(
        RealSequence(a_pts, B.window, "auxiliary-A"),
        RealSequence(c_pts, B.window, "auxiliary-C"),
        RealSequence(matched, B.window, "auxiliary-B-matched"),
        float(np.max(np.diff(a_pts))) if a_pts.size > 1 else 0.0,
        float(np.max(2.0 * l / 3.0)), len(fill))


def ref_benedicks_sequence(partition, C):
    bks = partition.breakpoints
    if not (math.isfinite(C) and C > 0):
        raise TypelabError("point density C must be finite and positive")
    if C * (float(bks[-1]) - float(bks[0])) > CONSTRUCTION_MAX_SIZE:
        raise TypelabError(f"a Benedicks sequence of density {C:g} would have more than "
                           f"{CONSTRUCTION_MAX_SIZE} points")
    verdict = benedicks_conditions(partition, *BENEDICKS_CONSTANTS)
    if not verdict.applicable:
        series = verdict.evidence["odd_length_series"].classification
        raise TypelabError(str(verdict.evidence["failures"] or [f"odd-length series {series}"]))
    i0 = int(np.flatnonzero(bks == 0.0)[0])
    n_min, n_max = -i0, len(bks) - 1 - i0

    def a(n):
        return float(bks[i0 + n])

    marks = [0]
    n = 0
    while 2 * (n + default_block_growth(n)) <= n_max:
        n += default_block_growth(n)
        marks.append(n)
    n = 0
    while 2 * (n - default_block_growth(n)) >= n_min:
        n -= default_block_growth(n)
        marks.insert(0, n)
    if len(marks) < 2:
        raise TypelabError("partition too small to form one block")
    points, counts = [], []
    for lo_mark, hi_mark in zip(marks, marks[1:]):
        lo, hi = a(2 * lo_mark), a(2 * hi_mark)
        evens = []
        for m in range(2 * lo_mark, 2 * hi_mark):
            if m % 2 == 0 and i0 + m + 1 <= len(bks) - 1:
                evens.append(Interval(a(m), a(m + 1)))
        placed = ref_equal_measure_points(evens, int(math.floor(C * (hi - lo))))
        points.extend(placed)
        counts.append(len(placed))
    seq = RealSequence(np.asarray(sorted(points)), float(max(abs(bks[0]), abs(bks[-1]))),
                       f"benedicks(C={C:g})")
    return BenedicksFamily(seq, Partition(np.asarray([a(2 * n) for n in marks])),
                           tuple(counts))


def ref_equal_measure_points(evens, n_points):
    if n_points <= 0 or not evens:
        return []
    lengths = np.array([iv.length for iv in evens])
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    total = cum[-1]
    out = []
    for m in range(1, n_points + 1):
        level = total * m / (n_points + 1)
        idx = int(np.searchsorted(cum, level, side="left")) - 1
        idx = min(max(idx, 0), len(evens) - 1)
        if level >= cum[idx + 1]:
            # level sits exactly on a plateau edge: resolve to the left
            # endpoint of the next even interval
            idx = min(idx + 1, len(evens) - 1)
        off = level - cum[idx]
        out.append(evens[idx].left + off)
    return out


def ref_pieces(table):
    """The ``(left, right, value)`` rows of a weight table."""
    bks, vals = table.breakpoints, table.values
    return [(float(bks[i]), float(bks[i + 1]), float(vals[i])) for i in range(len(vals))]


def ref_suffgen_bound(measure, A, d):
    report = check_d_uniform(A, d, None)
    if not report.overall:
        raise TypelabError(f"A is not d-uniform at d={d}")
    pts = A.points
    if pts.size < 3:
        raise InsufficientData("need at least 3 points for neighbourhoods")
    centers = pts[1:-1]
    eps = np.minimum(pts[1:-1] - pts[:-2], pts[2:] - pts[1:-1]) / 3.0
    masses = []
    for x, e in zip(centers, eps):
        lo = int(np.searchsorted(measure.positions, x - e, side="right"))
        hi = int(np.searchsorted(measure.positions, x + e, side="left"))
        m = float(math.fsum(measure.masses[lo:hi]))
        if m <= 0.0:
            raise TypelabError(f"zero mass in ({x - e}, {x + e})")
        masses.append(m)
    idx = A.centered_indices()[1:-1].astype(float)
    verdict = shell_sum_verdict(idx, [max(0.0, -math.log(m)) / (1.0 + n * n)
                                      for m, n in zip(masses, idx)])
    applicable = verdict.classification == CONVERGENT
    conclusion = Conclusion(TYPE_AT_LEAST, TWO_PI * d) if applicable else Conclusion(INCONCLUSIVE)
    return TheoremVerdict("neighbourhood-mass-bound", applicable, conclusion,
                          {"mass_sum": verdict, "uniformity": report})


def ref_beurling_gap_check(support):
    gaps = []
    if isinstance(support, RealSequence):
        T = support.window
        cuts = [-T] + support.points.tolist() + [T]
        for l, r in zip(cuts, cuts[1:]):
            if r > l:
                gaps.append(Interval(l, r))
    else:
        ivs = sorted(support, key=lambda i: i.left)
        reach = ivs[0].right if ivs else 0.0
        for iv in ivs[1:]:
            if iv.left > reach:
                gaps.append(Interval(reach, iv.left))
            reach = max(reach, iv.right)
    verdict = classify_family(gaps) if gaps else None
    long_gaps = verdict is not None and verdict.classification == DIVERGENT
    conclusion = Conclusion(MU_MUST_VANISH) if long_gaps else Conclusion(INCONCLUSIVE)
    return TheoremVerdict("gap-support", True, conclusion,
                          {"gap_family": verdict, "gap_count": len(gaps)})


def ref_debranges_check(K, measure, modulus_of_continuity):
    if float(np.min(K.values)) < 1.0:
        raise TypelabError("weight must be >= 1")
    mids = 0.5 * (K.breakpoints[:-1] + K.breakpoints[1:])
    slopes = np.abs(np.diff(np.log(K.values))) / np.diff(mids)
    continuity_ok = bool(np.all(slopes <= modulus_of_continuity + 1e-12))
    kw = np.atleast_1d(K.evaluate(measure.positions))
    mass_series = shell_sum_verdict(measure.positions, kw * measure.masses)
    mass_ok = mass_series.classification == CONVERGENT
    log_pieces = [(l, r, math.log(v)) for l, r, v in ref_pieces(K)]
    poisson_logk = shell_sum_verdict(*poisson_piece_contributions(log_pieces).T)
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


def ref_krein_lm_check(density_samples, monotone_flag=True):
    pieces = ref_pieces(density_samples)
    zero_pieces = [(l, r) for l, r, v in pieces if v <= 0.0 and r > l]
    pos_pieces = [(l, r, v) for l, r, v in pieces if v > 0.0]
    log_pieces = [(l, r, abs(math.log(v))) for l, r, v in pos_pieces]
    overall = (shell_sum_verdict(*poisson_piece_contributions(log_pieces).T)
               if log_pieces else None)
    evidence = {"poisson_log_density": overall, "zero_pieces": len(zero_pieces)}
    if not zero_pieces and overall is not None and overall.classification == CONVERGENT:
        return TheoremVerdict("density-log-summability", True,
                              Conclusion(TYPE_INFINITE), evidence)
    for side in ("positive", "negative"):
        side_pieces = [(l, r, v) for l, r, v in pos_pieces
                       if (l >= 0 if side == "positive" else r <= 0)]
        side_zero = any((l >= 0 if side == "positive" else r <= 0) for l, r in zero_pieces)
        side_log = [(l, r, abs(math.log(v))) for l, r, v in side_pieces]
        side_verdict = (shell_sum_verdict(*poisson_piece_contributions(side_log).T)
                        if side_log else None)
        diverges = side_zero or (side_verdict is not None
                                 and side_verdict.classification == DIVERGENT)
        vals = [v for _, _, v in side_pieces]
        if side == "negative":
            vals = vals[::-1]
        monotone = all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
        evidence[f"{side}_half"] = {"diverges": diverges, "monotone": monotone,
                                    "verdict": side_verdict}
        if diverges and monotone and monotone_flag:
            return TheoremVerdict("density-log-summability", True,
                                  Conclusion(TYPE_ZERO), evidence)
    return TheoremVerdict("density-log-summability", False,
                          Conclusion(INCONCLUSIVE), evidence)


def ref_mass_in(measure, left, right, closed=False):
    pos = measure.positions
    lo = np.searchsorted(pos, left, side="left" if closed else "right")
    hi = np.searchsorted(pos, right, side="right")
    return float(math.fsum(measure.masses[lo:hi]))


def ref_hybrid_check(measure, intervals):
    lefts, rights = family_bounds(intervals)
    terms = []
    for left, right, at in zip(lefts.tolist(), rights.tolist(), dist0(lefts, rights).tolist()):
        mass, length = ref_mass_in(measure, left, right), right - left
        val = length if mass <= 0.0 else min(length, max(0.0, math.log(1.0 / mass)))
        terms.append((at, length * val))
    verdict = poisson_tail_sum(terms)
    kind = MU_MUST_VANISH if verdict.classification == DIVERGENT else INCONCLUSIVE
    return TheoremVerdict("sparse-mass", True, Conclusion(kind), {"series": verdict})


def ref_borichev_sodin_compare(mu, nu, delta, C, l):
    if not (delta > 0 and C > 0):
        raise TypelabError("delta and C must be positive")
    xs = sorted(set(mu.positions.tolist())
                | {0.5 * (a + b) for a, b in zip(mu.positions, mu.positions[1:])})

    def rhs_at(x, e):
        return C * (1.0 + abs(x)) ** l * (ref_mass_in(nu, x - 2 * e, x + 2 * e, closed=True)
                                          + math.exp(-2.0 * delta * abs(x)))

    if not all(math.isfinite(rhs_at(x, math.exp(-delta * abs(x)))) for x in xs):
        raise TypelabError(f"C (1+|x|)^l (nu + e^2) overflows at C={C:g}, l={l:g}")
    worst = None
    for x in xs:
        e = math.exp(-delta * abs(x))
        lhs = ref_mass_in(mu, x - e, x + e, closed=True)
        rhs = rhs_at(x, e)
        margin = rhs - lhs
        if worst is None or margin < worst[1]:
            worst = (x, margin)
        if lhs > rhs * (1.0 + 1e-12):
            return TheoremVerdict("exponential-domination", False,
                                  Conclusion(INCONCLUSIVE),
                                  {"failed_at": x, "lhs": lhs, "rhs": rhs})
    return TheoremVerdict("exponential-domination", True, Conclusion(TYPE_ORDERING),
                          {"ordering": "type(mu) <= type(nu)",
                           "worst_margin_at": worst[0], "worst_margin": worst[1]})


def ref_duffin_schaeffer_check(measure, L, c):
    if not (L > 0 and c > 0):
        raise TypelabError("L and c must be positive")
    T = measure.window
    lo, hi = -T + L, T - L
    if hi <= lo:
        raise InsufficientData("window too small for the requested L")
    events = sorted({lo, hi}
                    | {float(b) + s for b in measure.positions for s in (-L, L)
                       if lo < b + s < hi})
    worst = None
    for u, v in zip(events, events[1:]):
        x_mid = 0.5 * (u + v)
        mass = ref_mass_in(measure, x_mid - L, x_mid + L, closed=True)
        x_star = 0.0 if u <= 0.0 <= v else (u if u > 0.0 else v)
        floor = c / (1.0 + x_star * x_star)
        margin = mass - floor
        if worst is None or margin < worst[1]:
            worst = (x_mid, margin)
        if mass <= floor:
            return TheoremVerdict("window-mass-floor", False, Conclusion(INCONCLUSIVE),
                                  {"failed_at": x_mid, "mass": mass, "floor": floor})
    return TheoremVerdict("window-mass-floor", True,
                          Conclusion(TYPE_AT_LEAST, math.pi / L),
                          {"worst_margin_at": worst[0], "worst_margin": worst[1]})


def ref_levinson_thresholds(cuts, tail):
    total = float(tail[0]) if len(tail) else 0.0
    if total <= 0:
        return np.zeros(0)
    out = [0.0]
    for n in range(1, 65):
        target = total * 3.0 ** (-n)
        k = int(np.argmax(tail <= target))
        a_n = float(cuts[min(k, len(cuts) - 1)])
        if tail[k] <= 0 or a_n <= out[-1]:
            break
        out.append(a_n)
    return np.asarray(out)


def ref_downward_scan(support, grid, skip_energy, judge=None):
    """The downward scan with the full ``_evaluate`` of ``check_d_uniform`` on a
    given partition, Coulomb pass included, for every candidate.  A failing
    candidate's note drops the energy verdict exactly where its density or
    shortness leg failed."""
    diagnostics = []
    value, certificate = 0.0, None
    for d in reversed(grid):
        try:
            partition = find_short_partition(support, d)
        except InsufficientData as exc:
            diagnostics.append((d, False, f"partition: {exc}"))
            continue
        selected = spread_selection(support, partition, d)
        if len(selected) == 0:
            diagnostics.append((d, False, "selection empty"))
            continue
        report = _evaluate(selected, d, partition, "given", skip_energy)
        if report.overall:
            passed, note = judge(selected) if judge else (True, "pass")
        else:
            decided = not (report.density.passed
                           and report.short_verdict.classification == CONVERGENT)
            passed = False
            note = density._verdict_note(
                dataclasses.replace(report, energy_verdict=None) if decided else report)
        diagnostics.append((d, passed, note))
        if passed:
            value, certificate = d, InteriorCertificate(selected, partition, report)
            break
    diagnostics.sort(key=lambda t: t[0])
    return tuple(diagnostics), value, certificate


def ref_annihilation_matrix(measure, a, freq_count):
    """The complex matrix ``sqrt(q_j) exp(i lam_j t_m) sqrt(mass_m)``."""
    lam = np.linspace(0.0, a, freq_count)
    h = a / (freq_count - 1)
    q = np.full(freq_count, h)
    q[0] = q[-1] = 0.5 * h
    phases = np.exp(1j * lam[:, None] * measure.positions[None, :])
    return np.sqrt(q)[:, None] * phases * np.sqrt(measure.masses)[None, :]


def outcome(fn, *args):
    """Result of ``fn``, or the message of the error it raises."""
    try:
        return fn(*args)
    except TypelabError as exc:
        return str(exc)


def bits(obj):
    """``obj`` with every float and array replaced by its exact bits, for ``==``."""
    if dataclasses.is_dataclass(obj):
        return tuple(bits(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, dict):
        return tuple((k, bits(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(bits(v) for v in obj)
    return float.hex(obj) if isinstance(obj, float) else obj


def printed(fn, *args):
    """The canonical JSON and the bits of ``fn(*args)``, or the type and message of its error."""
    try:
        result = fn(*args)
    except TypelabError as exc:
        return type(exc), str(exc)
    return canonical_json(result), bits(result)


@st.composite
def ordered_pairs(draw, elements=coords):
    a, b = draw(elements), draw(elements)
    return (a, b) if a <= b else (b, a)


@st.composite
def sequences(draw):
    """Strictly increasing points in [-T, T], some on the window edges."""
    T = draw(st.floats(2.0, 3000.0))
    xs = draw(st.lists(st.floats(-T, T), min_size=1, max_size=300))
    if draw(st.booleans()):
        xs += [-T, T]
    return RealSequence(np.unique(np.asarray(xs, dtype=float)), T)


@st.composite
def measures(draw):
    T = draw(st.floats(2.0, 2000.0))
    xs = np.unique(np.asarray(draw(st.lists(st.floats(-T, T), min_size=1, max_size=200))))
    logm = draw(st.lists(st.floats(-700.0, 5.0), min_size=xs.size, max_size=xs.size))
    return DiscreteMeasure(xs, np.exp(np.asarray(logm)), T)


@st.composite
def grow_side_cases(draw):
    """Positive points with sparse stretches and dense clusters, so that the
    greedy scan sometimes walks hundreds of points before its hit."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(0, 3000))
    gaps = rng.choice([0.05, 0.5, 1.0, 4.0], size=n, p=[0.3, 0.3, 0.3, 0.1])
    gaps = gaps * rng.uniform(0.5, 1.5, size=n)
    points = np.unique(np.cumsum(gaps))
    T = draw(st.floats(2.0, float(points[-1]) + 10.0 if n else 50.0))
    points = points[points <= T]
    return points, T, draw(st.floats(0.05, 5.0)), draw(st.floats(0.25, 4.0))


@st.composite
def gridded_cases(draw, breaks_step=0.25):
    """Points on the quarter grid of ``(-T, T]``, so that distances tie, and a
    partition of ``[-T, T]`` with breakpoints on a ``breaks_step`` grid.

    Point densities from sparse to four per unit and a few breakpoints give
    intervals from empty to hundreds of points, across several buckets.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    T = float(draw(st.sampled_from([4, 16, 64, 300])))
    grid = np.arange(-4 * T + 1, 4 * T + 1) / 4.0
    n = int(draw(st.sampled_from([0.1, 0.5, 1.0, 0.9])) * grid.size)
    pts = np.sort(rng.choice(grid, size=n, replace=False)) if n else np.zeros(0)
    marks = np.arange(-T / breaks_step + 1, T / breaks_step) * breaks_step
    bks = rng.choice(marks, size=draw(st.integers(0, 12)))
    bks = np.unique(np.concatenate([bks, [-T, 0.0, T]]))
    return RealSequence(pts, T), Partition(bks)


@st.composite
def alternating_cases(draw):
    """An alternating partition with jittered lengths and unequal sides, and C1, C2, C3.

    Some odd intervals are stretched, so that condition 1 fails at varied
    pairs; on integer lengths and constants the comparisons tie at their
    bounds.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_left, n_right = draw(st.integers(0, 120)), draw(st.integers(0, 120))
    if n_left + n_right == 0:
        n_right = 1
    even, odd = draw(st.floats(0.2, 4.0)), draw(st.floats(0.2, 6.0))
    if draw(st.booleans()):
        even, odd = float(round(even)) or 1.0, float(round(odd)) or 1.0
    right = np.where(np.arange(n_right) % 2 == 0, even, odd)
    left = np.where(np.arange(n_left) % 2 == 0, odd, even)
    jitter = draw(st.sampled_from([0.0, 0.05, 0.5]))
    right = right * rng.uniform(1 - jitter, 1 + jitter, right.size)
    left = left * rng.uniform(1 - jitter, 1 + jitter, left.size)
    for side, first_odd in ((right, 1), (left, 0)):
        stretched = rng.choice(np.arange(first_odd, side.size, 2), size=min(
            draw(st.integers(0, 3)), side[first_odd::2].size), replace=False)
        side[stretched] *= draw(st.floats(2.0, 100.0))
    bks = np.concatenate([-np.cumsum(left)[::-1], [0.0], np.cumsum(right)])
    consts = draw(st.one_of(
        st.tuples(st.floats(1.0, 50.0, exclude_min=True, exclude_max=True),
                  st.floats(1.0, 50.0, exclude_min=True, exclude_max=True),
                  st.floats(0.1, 3.0, exclude_min=True, exclude_max=True)),
        st.tuples(st.sampled_from([2.0, 3.0, 8.0]), st.sampled_from([2.0, 3.0, 8.0]),
                  st.sampled_from([0.5, 1.0, 2.0]))))
    return (Partition(bks),) + consts


# ---------------------------------------------------------------- shells


class TestShellSplit:
    @given(st.lists(ordered_pairs(), max_size=30))
    @settings(max_examples=300)
    def test_array_splitter_matches_scalar_loop(self, pairs):
        u, v, owner = split_at_shells([p[0] for p in pairs], [p[1] for p in pairs])
        expected = [(i, piece) for i, (l, r) in enumerate(pairs)
                    for piece in ref_split_at_shells(l, r)]
        assert owner.tolist() == [i for i, _ in expected]
        assert list(zip(u.tolist(), v.tolist())) == [piece for _, piece in expected]

    @given(ordered_pairs())
    @settings(max_examples=300)
    def test_scalar_entry_point_matches(self, pair):
        assert shell_pieces(*pair) == ref_split_at_shells(*pair)

    @given(ordered_pairs(small_coords))
    @settings(max_examples=300)
    def test_split_at_shells_covers(self, pair):
        left, right = pair
        if not left < right:
            return
        pieces = shell_pieces(left, right)
        assert pieces[0][0] == left and pieces[-1][1] == right
        for (a, b), (c, _) in zip(pieces, pieces[1:]):
            assert b == c
        # no piece straddles a dyadic boundary or zero
        for a, b in pieces:
            assert (a >= 0) == (b > 0) or a == 0.0
            assert not any(a < s < b for j in range(14) for s in (2.0 ** j, -(2.0 ** j)))

    def test_empty_and_degenerate_pieces(self):
        u, v, owner = split_at_shells([], [])
        assert u.size == v.size == owner.size == 0
        assert shell_pieces(3.0, 3.0) == []


class TestShellBinning:
    @given(st.lists(st.tuples(coords, st.floats(0.0, 1e6)), max_size=200))
    @settings(max_examples=300)
    def test_binning_matches_dict_loop(self, terms):
        locs = [t[0] for t in terms]
        vals = [t[1] for t in terms]
        v = shell_sum_verdict(locs, vals)
        assert (v.shell_sums, v.inner_sum, v.value_truncated) == ref_shell_bins(locs, vals)

    def test_shell_index_below_power_of_two(self):
        # floor(log2 x) rounds 8 - ulp up to 3; the shell of 8 - ulp is 2
        x = math.nextafter(8.0, 0.0)
        assert math.floor(math.log2(x)) == 3
        assert shell_sum_verdict([x, 8.0], [1.0, 2.0]).shell_sums == ((2, 1.0), (3, 2.0))

    @given(st.lists(st.tuples(small_coords, small_coords, st.floats(0.0, 50.0)), max_size=40))
    @settings(max_examples=200)
    def test_piece_contributions_match(self, raw):
        pieces = [(min(a, b), max(a, b), c) for a, b, c in raw]
        got = poisson_piece_contributions(pieces)
        assert len(got) == len(ref_poisson_piece_contributions(pieces))
        assert [tuple(row) for row in got.tolist()] == ref_poisson_piece_contributions(pieces)


# ---------------------------------------------------------------- estimators


class TestEstimatorKernels:
    @given(sequences(), st.sampled_from([0.0, 0.5, 1.0, 1.7, 3.0]))
    @settings(max_examples=150, deadline=None)
    def test_regularity_defect_matches(self, seq, a):
        assert strong_regularity_defect(seq, a) == ref_strong_regularity_defect(seq, a)

    @given(grow_side_cases())
    @settings(max_examples=200, deadline=None)
    def test_grow_side_matches_walk(self, case):
        points, T, d, scale = case
        assert _grow_side(points, T, d, scale) == ref_grow_side(points, T, d, scale)

    @pytest.mark.parametrize("hit", [1, 2, 63, 64, 65, 191, 192, 193, 447, 448, 959, 960])
    def test_grow_side_hit_at_chunk_edges(self, hit):
        # points A + k/1000 with A chosen so that (0, p_k] first holds
        # d * p_k points (d = 1) at k = hit; the scan tests chunks
        # [0, 64), [64, 192), [192, 448), [448, 960), ...
        points = 1.0 + 0.999 * hit - 4e-4 + 1e-3 * np.arange(hit + 300)
        T = float(points[-1]) + 10.0
        got = _grow_side(points, T, 1.0, 1.0)
        assert got[0] == points[hit]
        assert got == ref_grow_side(points, T, 1.0, 1.0)

    @pytest.mark.parametrize("hit", range(SCALAR_PROBE + 3))
    def test_grow_side_probe_hands_over(self, hit):
        # nine points in (0, 10] fall short of d * L = 9.5 (d = 0.95, L = 10);
        # past xmin = 10, (0, p_k] first holds 0.95 p_k points at the point
        # `hit` places on, which the scalar probe or the first chunk finds
        j = np.arange(hit + 300)
        after = (10.0 + j) / 0.95 + np.where(j < hit, 1e-3, -1e-3)
        points = np.concatenate((np.arange(1.0, 10.0), after))
        T = float(points[-1]) + 10.0
        got = _grow_side(points, T, 0.95, 10.0)
        assert got[0] == after[hit]
        assert got == ref_grow_side(points, T, 0.95, 10.0)

    @given(sequences(), st.sampled_from([0.3, 1.0, 2.5]))
    @settings(max_examples=150, deadline=None)
    def test_short_partition_matches_walk(self, seq, d):
        # each side walked as before: the points of that side, mirrored and sorted
        pts, T = seq.points, seq.window
        left = ref_grow_side(np.sort(-pts[pts < 0.0]), T, d, 1.0)
        expected = sorted(-x for x in left) + [0.0] + ref_grow_side(pts[pts > 0.0], T, d, 1.0)
        try:
            got = find_short_partition(seq, d).breakpoints.tolist()
        except InsufficientData:
            got = None
        assert got == (expected if len(expected) > 4 else None)

    @given(measures(), st.sampled_from([WEIGHT_BUDGET, 0.01, 100.0]))
    @settings(max_examples=150, deadline=None)
    def test_weight_filter_matches(self, measure, budget):
        with mock.patch.object(typeproblem, "WEIGHT_BUDGET", budget):
            got = weight_filter_mask(measure, typeproblem._log_weight_penalties(measure))
        assert np.array_equal(got, ref_weight_filter_mask(measure, budget))

    @given(measures())
    @settings(max_examples=100, deadline=None)
    def test_counting_growth_matches(self, measure):
        assert _counting_growth_summable(measure) == ref_counting_growth_summable(measure)


# ---------------------------------------------------------------- uniformity


def farthest_rows(pts, lo, m, k):
    keep = np.zeros(pts.size, dtype=bool)
    _farthest_points(pts, np.asarray(lo), np.asarray(m), np.asarray(k), keep)
    return keep


class TestPartitionKernels:
    @given(gridded_cases(), st.floats(0.01, 5.0))
    @example((RealSequence(np.zeros(0), 4.0), Partition(np.array([-4.0, 0.0, 4.0]))), 1.0)
    @settings(max_examples=300, deadline=None)
    def test_spread_selection_matches_loop(self, case, d):
        seq, part = case
        got, want = spread_selection(seq, part, d), ref_spread_selection(seq, part, d)
        assert np.array_equal(got.points, want.points)
        assert got.generator_tag == want.generator_tag

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_lockstep_rows_match_loop(self, data):
        # rows of 2..1100 points on a quarter grid, each with its own target
        # from 1 to m - 1, bucketed together; boundary targets drawn often
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        sizes = data.draw(st.lists(st.sampled_from([2, 3, 4, 5, 8, 9, 31, 64, 65, 600, 1100]),
                                   min_size=1, max_size=8))
        pts, lo, k = [], [], []
        for m in sizes:
            lo.append(sum(map(len, pts)))
            base = 2000.0 * len(pts)
            pts.append(base + np.sort(rng.choice(4 * m, size=m, replace=False)) / 4.0)
            k.append(data.draw(st.one_of(st.sampled_from([1, m - 1, min(2, m - 1)]),
                                         st.integers(1, m - 1))))
        pts = np.concatenate(pts)
        keep = farthest_rows(pts, lo, sizes, k)
        want = np.zeros(pts.size, dtype=bool)
        for start, m, kk in zip(lo, sizes, k):
            chosen = ref_farthest_points(pts[start:start + m], kk)
            want[start + np.searchsorted(pts[start:start + m], chosen)] = True
        assert np.array_equal(keep, want)

    def test_lockstep_ties_and_no_rows(self):
        # equally spaced points: every round ties, the earliest index wins
        pts = np.arange(17.0)
        for k in range(1, 17):
            keep = farthest_rows(pts, [0], [17], [k])
            assert np.array_equal(pts[keep], ref_farthest_points(pts, k))
        assert not farthest_rows(pts, [], [], []).any()

    @given(gridded_cases(breaks_step=1.0))
    @settings(max_examples=200, deadline=None)
    def test_energy_leg_matches_loop(self, case):
        seq, part = case
        deficits, verdict = ref_energy_leg(seq, part)
        # intervals are at least 1 long, so _evaluate merges none of them
        report = check_d_uniform(seq, 1.0, part)
        assert report.energy_verdict == verdict
        assert [row[3] for row in report.per_interval] == deficits

    @pytest.mark.parametrize("n", [2, 3, 511, 512, 513, 700])
    def test_interval_energies_at_matrix_limit(self, n):
        rng = np.random.default_rng(n)
        pts = np.sort(rng.choice(8 * n, size=3 * n, replace=False) / 4.0)
        lo = np.array([0, n, n, 2 * n])
        hi = np.array([n, n, 2 * n, 3 * n])
        got = interval_energies(pts, lo, hi)
        want = [ref_coulomb_energy(pts[a:b]) if b - a >= 2 else 0.0 for a, b in zip(lo, hi)]
        assert got.tolist() == want

    @given(gridded_cases(), st.sampled_from([(), (1e-310, 2e-310), (-2e-310, -1e-310),
                                             (-1e-310, 1e-310, 2e-310, 3e-310)]))
    @settings(max_examples=300, deadline=None)
    def test_energy_errors_match_loop(self, case, close_pair):
        # quarter-grid breakpoints make some intervals shorter than 1; a pair
        # of points closer than 1e-300 on either side of 0 is degenerate
        seq, part = case
        pts = np.union1d(seq.points, close_pair)
        seq = RealSequence(pts, seq.window)
        got = outcome(lambda s, p: _energy_leg(s, p.index(s.points))[0], seq, part)
        want = outcome(lambda s, p: ref_energy_leg(s, p)[1], seq, part)
        assert got == want

    @given(gridded_cases(breaks_step=1.0), st.floats(0.05, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_density_leg_matches_loop(self, case, d):
        seq, part = case
        got = _evaluate(seq, d, part, "given", True).density
        passed, max_dev, ratios = ref_check_density(seq, part, d)
        assert (got.passed, got.max_outer_deviation, list(got.ratios)) == (passed, max_dev, ratios)

    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.sampled_from([0, 1, 2, 3, 5, 8, 40, 100, 513]), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_interval_energies_match_per_interval(self, seed, sizes):
        # many intervals of one size share an np.log call; their row sums
        # must still be those of one interval at a time
        rng = np.random.default_rng(seed)
        pts = np.cumsum(rng.uniform(0.01, 3.0, size=sum(sizes)))
        hi = np.cumsum(sizes)
        lo = hi - np.asarray(sizes)
        want = [ref_coulomb_energy(pts[a:b]) if b - a >= 2 else 0.0 for a, b in zip(lo, hi)]
        assert interval_energies(pts, lo, hi).tolist() == want

    def test_pair_table_slices_are_triu_indices(self):
        rows, cols = energy._pair_table()
        for n in range(2, _MATRIX_LIMIT + 1):
            p = n * (n - 1) // 2
            want_rows, want_cols = np.triu_indices(n, k=1)
            assert np.array_equal(rows[-p:] + n, want_rows), n
            assert np.array_equal(cols[-p:] + n, want_cols), n

    @given(st.integers(2, 1100), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, -7.25, 1e6]))
    @example(2, 0, 0.0)
    @example(3, 1, -7.25)
    @example(511, 2, 1e6)
    @example(512, 3, 0.0)
    @example(513, 4, -7.25)
    @example(1024, 5, 1e6)
    # the row-blocked path's tails: a last block of 1 row, of exactly one
    # 16-row chunk, of a full chunk and a part-filled one; rows filling 16 blocks
    @example(514, 6, 0.0)
    @example(529, 7, -7.25)
    @example(1050, 8, 1e6)
    @example(4097, 9, 0.0)
    @settings(max_examples=60, deadline=None)
    def test_coulomb_energy_matches_reference(self, n, seed, shift):
        # sorted, unsorted and shifted inputs give the former function's float
        rng = np.random.default_rng(seed)
        pts = np.cumsum(rng.uniform(0.01, 3.0, size=n))
        for config in (pts, rng.permutation(pts), pts + shift):
            assert float.hex(coulomb_energy(config)) == float.hex(ref_coulomb_energy(config))
        # a pair closer than 1e-300, and a span beyond the float range
        for bad in ([pts[n // 2]], [1e-310, 2e-310], [-1e308, 1e308]):
            config = rng.permutation(np.append(pts, bad))
            got = outcome(coulomb_energy, config)
            assert isinstance(got, str) and got == outcome(ref_coulomb_energy, config)

    @pytest.mark.parametrize("scale", [SUITE_DEFICIT_SCALE, (1234, 60.0, 200.0, 40)])
    def test_deficit_row_matches_loop(self, scale):
        # the batched row: the loop's min deficit bits (each of its 1000
        # deficits) and its detail string
        batched = []

        def spy(*args):
            batched.append(interval_deficits(*args))
            return batched[-1]

        with mock.patch("typelab.suite.interval_deficits", spy):
            got = deficit_positivity(*scale)
        want, deficits = ref_deficit_positivity(*scale)
        assert got == want
        assert bits(batched[0].tolist()) == bits(deficits)
        assert float.hex(float(batched[0].min())) == float.hex(min(deficits))

    def test_closed_form_row_matches_loop(self):
        # the one-pass row: the loop's (passed, detail), and each grid's energy
        # bits from coulomb_energy
        batched = []

        def spy(*args):
            batched.append(interval_energies(*args))
            return batched[-1]

        with mock.patch("typelab.suite.interval_energies", spy):
            got = energy_closed_form()
        want, energies = ref_energy_closed_form()
        assert got == want
        assert len(batched) == 1 and bits(batched[0].tolist()) == bits(energies)

    @given(st.lists(st.floats(0.01, 1e6), min_size=1, max_size=40), st.integers(0, 40))
    @example([36.17805559993731], 1)  # its pow(x, 2) is not x * x
    @settings(max_examples=200, deadline=None)
    def test_classify_partition_matches_scalar_loop(self, gaps, split):
        cuts = np.cumsum(gaps)
        bks = np.unique(np.concatenate([-cuts[:split][::-1], [0.0], cuts[split:]]))
        part = Partition(bks)
        ivs = ref_intervals(part)
        assert classify_family(part) == ref_classify_family(ivs)
        assert classify_family(ivs) == ref_classify_family(ivs)


@st.composite
def block_windows(draw):
    """Windows below 1, in [1, 2), at a power of two or next to one, and 1e5."""
    p = 2.0 ** draw(st.integers(0, 17))
    return draw(st.one_of(st.floats(0.01, 1.0, exclude_max=True),
                          st.floats(1.0, 2.0, exclude_max=True),
                          st.sampled_from([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]),
                          st.just(1e5)))


@st.composite
def block_sequences(draw):
    """Points in a :func:`block_windows` window: scattered, in tight clusters
    that overfill a block, and some of 0 and +-1."""
    T = draw(block_windows())
    xs = draw(st.lists(st.floats(-T, T), max_size=100))
    for centre, size in draw(st.lists(st.tuples(st.floats(-T, T), st.integers(3, 60)),
                                      max_size=4)):
        xs += np.clip(centre + np.arange(size) * 1e-3, -T, T).tolist()
    xs += [x for x in draw(st.sets(st.sampled_from([0.0, -1.0, 1.0]))) if abs(x) <= T]
    return RealSequence(np.unique(np.asarray(xs, dtype=float)), T)


class TestDyadicBlocks:
    def test_blocks_match_loop(self):
        powers = np.ldexp(1.0, np.arange(0, 1024, 7))
        windows = np.concatenate([[0.01, 0.5, np.nextafter(1.0, 0.0), 1.5, 1.7976931348623157e308],
                                  powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        for T in windows.tolist():
            want = [[iv.left, iv.right] for iv in ref_dyadic_blocks(T)]
            want += [[-1.0, 1.0]] if T >= 1.0 else []
            blocks = _block_counts(RealSequence(np.zeros(0), T))[0]
            assert blocks.tolist() == sorted(want), T

    @given(block_sequences(), st.sampled_from([0.0, 0.3, 0.7, 1.0, 2.5]))
    @example(RealSequence(np.array([-1.0, 0.0, 1.0]), 1.0), 0.3)
    @example(RealSequence(np.arange(-1.0, 1.001, 0.001), 1.5), 0.7)
    @settings(max_examples=150, deadline=None)
    def test_scans_match_loop(self, seq, a):
        assert printed(regularity_block_scan, seq, a) == printed(ref_regularity_block_scan, seq, a)
        grid = [0.05, 0.5, 1.0, 2.0, 8.0] + [a] * (a > 0)
        assert printed(exterior_density, seq, grid) == printed(ref_exterior_density, seq, grid)


class TestBenedicksKernel:
    @given(alternating_cases(), st.sampled_from([1 << 18, 1, 7]))
    @example((Partition(np.array([0.0, 1.0])), 2.0, 2.0, 0.5), 1 << 18)
    @example((Partition(np.array([-2.0, 0.0])), 2.0, 2.0, 0.5), 1 << 18)
    @example((Partition(np.array([-3.0, -1.0, 0.0, 1.0, 3.0, 4.0, 24.0, 25.0])),
              8.0, 8.0, 0.4), 1 << 18)
    @example((Partition(np.array([-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0])),
              2.0, 2.0, 1.0), 7)
    # ties at the bounds: |a_3| = C1 |a_1|, |I_3| = C2 |I_1|, |a_3| / |a_1| = C1
    @example((Partition(np.array([0.0, 2.0, 2.5, 4.0, 5.0])), 2.0, 1.5, 0.5), 1 << 18)
    @example((Partition(np.array([0.0, 1.0, 2.0, 3.0, 5.0])), 8.0, 2.0, 0.5), 1 << 18)
    @example((Partition(np.array([0.0, 1.0, 2.0, 3.0, 4.0])), 3.0, 2.0, 0.5), 1 << 18)
    @settings(max_examples=300, deadline=None)
    def test_conditions_match_loop(self, case, batch):
        with mock.patch.object(typeproblem, "_PAIR_BATCH", batch):
            got = benedicks_conditions(*case)
        assert canonical_json(got) == canonical_json(ref_benedicks_conditions(*case))

    def test_condition1_failures_vary(self):
        """The strategy reaches condition 1 failures at many different pairs."""
        seen = set()

        @given(alternating_cases())
        @settings(max_examples=300, deadline=None, database=None)
        def collect(case):
            seen.update(f for f in benedicks_conditions(*case).evidence["failures"]
                        if f.startswith("condition 1"))

        collect()
        assert len(seen) >= 20


# ---------------------------------------------------------------- density scan


def energy_not_run(report):
    """Whether the scan decided ``report`` without its Coulomb pass."""
    return report.energy_verdict is None and not report.energy_skipped


@st.composite
def scan_cases(draw):
    """A plain or perturbed lattice of density d0 and a grid that runs past d0."""
    d0 = draw(st.sampled_from([0.5, 1.0, 1.5]))
    seq = arithmetic(d0, float(draw(st.integers(200, 3000))))
    if draw(st.booleans()):
        seq = perturb_exponential(seq, 1.0, draw(st.integers(0, 20)))
    frac = draw(st.sampled_from([0.05, 0.1, 0.25]))
    top = math.floor(1.0 / frac) + draw(st.integers(1, 6))
    return seq, [frac * d0 * k for k in range(1, top + 1)]


class TestScanShortcut:
    def test_estimators_match_full_scan(self):
        """Interior density and both type scans print what a full check of every
        candidate prints, on cases where the scan decides candidates whose
        density or shortness leg failed without their Coulomb pass."""
        skipped = []

        def counted(*args, **kwargs):
            report = _evaluate(*args, **kwargs)
            skipped.append(energy_not_run(report))
            return report

        @given(scan_cases())
        @settings(max_examples=40, deadline=None, derandomize=True, database=None)
        def compare(case):
            seq, grid = case
            measure = measure_from_weights(seq, "polynomial", {"beta": 2.0})
            runs = [(interior_density, seq), (type_discrete, measure), (type_separated, measure)]
            with mock.patch.object(density, "_evaluate", counted):
                got = [printed(fn, arg, grid) for fn, arg in runs]
            with mock.patch.object(density, "downward_scan", ref_downward_scan), \
                    mock.patch.object(typeproblem, "downward_scan", ref_downward_scan):
                assert got == [printed(fn, arg, grid) for fn, arg in runs]

        compare()
        assert sum(skipped) >= 20

    @pytest.mark.parametrize("points, breakpoints, error", [
        # (-2, 0] holds a pair 8e-301 apart, (0, 0.5] is short: the first decides
        ([-1e-300, -2e-301, 0.3], [-2.0, 0.0, 0.5], "two points closer than 1e-300"),
        ([-0.3, 2e-301, 1e-300], [-0.5, 0.0, 2.0], "interval length 0.5 < 1")])
    def test_shortcut_raises_the_energy_leg_error(self, points, breakpoints, error):
        seq = RealSequence(np.array(points), 0.5)
        # _evaluate takes merged partitions: merging leaves the 0.5-long (0, 0.5] next to 0
        partition = uniformity.merge_short_intervals(Partition(np.array(breakpoints)))
        assert len(partition) == 2
        want = outcome(check_d_uniform, seq, 1.0, partition)
        assert want == error
        assert outcome(lambda: _evaluate(seq, 1.0, partition, "given", False, scan=True)) == want


# ---------------------------------------------------------------- constructions and checkers


step_lengths = st.one_of(st.floats(0.05, 20.0), st.floats(1e-300, 1.7e308),
                         st.sampled_from([0.1, 0.3, 1.0, 1.7, 2.0, 1e308]))


@st.composite
def alternating_params(draw):
    """``(even_len, odd_len, T)``, T mostly a few thousand steps or fewer."""
    even, odd = draw(step_lengths), draw(step_lengths)
    steps = draw(st.floats(0.0, 3000.0))
    T = draw(st.one_of(st.just(steps * (even + odd)), st.floats(1e-300, 1.7e308)))
    return even, odd, T


@st.composite
def auxiliary_cases(draw):
    """A jittered lattice, a step weight, epsilon and L.

    L is mostly a gap between consecutive pairs divided by a small integer,
    or a float next to that, so that ``gap / L`` sits at a step of its floor.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s, n = draw(st.floats(0.5, 100.0)), draw(st.integers(3, 80))
    pts = (np.arange(n) - n // 2 + rng.uniform(-0.4, 0.4, n)) * s
    T = float(np.max(np.abs(pts))) * draw(st.sampled_from([1.0, 1.5]))
    bks = np.linspace(-T, T, draw(st.integers(2, 6)))
    w = WeightTable(bks, rng.choice([0.5, 2.0, 1e3], bks.size - 1) * s, kind="samples")
    l = np.minimum(np.minimum(np.diff(pts)[:-1], np.diff(pts)[1:]), w.evaluate(pts)[1:-1])
    pairs = np.column_stack((pts[1:-1] - l / 3.0, pts[1:-1] + l / 3.0)).ravel()
    gaps = np.diff(pairs)[1::2]
    L = gaps[draw(st.integers(0, gaps.size - 1))] / draw(st.integers(1, 4)) if gaps.size else s
    L = float(draw(st.sampled_from([L, np.nextafter(L, 0.0), np.nextafter(L, np.inf),
                                    L * draw(st.floats(0.5, 3.0))])))
    return RealSequence(pts, T), w, 2.0 / L, L


@st.composite
def even_layouts(draw):
    """Even intervals ``(bks[2i], bks[2i + 1]]`` with odd gaps between them, and a
    point count; equal integer lengths and ``n + 1`` a multiple of their number
    put levels exactly on plateau edges.

    No length is lost to rounding in the running sum: where one is, a level
    on the edge goes to the first of the intervals of zero float measure in
    the loop and to the last in the array code.
    """
    k = draw(st.integers(1, 12))
    if draw(st.booleans()):
        lengths = np.full(2 * k, float(draw(st.integers(1, 4))))
        n = k * draw(st.integers(1, 20)) - 1
    else:
        lengths = np.asarray(draw(st.lists(st.floats(0.01, 50.0), min_size=2 * k,
                                           max_size=2 * k)))
        n = draw(st.integers(0, 200))
    bks = draw(st.floats(-1e3, 1e3)) + np.concatenate([[0.0], np.cumsum(lengths)])
    return bks[0:-1:2], bks[1::2], n


@st.composite
def interval_unions(draw):
    """Intervals on a coarse grid, so that nested, duplicate and touching ones are common."""
    step = draw(st.sampled_from([0.5, 1.0, 37.5]))
    rows = draw(st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 30)), max_size=40))
    rows += draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
    return [Interval(step * a, step * (a + n)) for a, n in rows]


@st.composite
def sample_tables(draw):
    """Density samples with zero pieces and monotone stretches, on both sides of 0
    or on one side only."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 300))
    bks = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 50.0, n))])
    bks -= draw(st.sampled_from([0.0, bks[-1], bks[n // 2], -1.0, bks[-1] + 1.0]))
    mids = np.abs(0.5 * (bks[:-1] + bks[1:]))
    vals = draw(st.sampled_from([np.exp(-mids), 1.0 / (1.0 + mids * mids),
                                 np.exp(-np.sqrt(mids)), rng.uniform(0.0, 2.0, n)]))
    vals = np.where(rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.05, 1.0])), 0.0, vals)
    return WeightTable(bks, vals, kind="samples")


@st.composite
def suffgen_cases(draw):
    """A lattice of density d with points at +-T, and atoms near its points,
    with some neighbourhoods emptied and some masses exactly 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d, T = draw(st.sampled_from([0.5, 1.0, 2.0])), float(draw(st.integers(40, 400)))
    A = arithmetic(d, T)
    pos = A.points + rng.uniform(-0.3, 0.3, len(A)) / d
    drop = draw(st.sampled_from([0.0, 0.002]))
    pos = np.unique(np.clip(pos[rng.uniform(size=pos.size) >= drop], -T, T))
    masses = np.where(rng.uniform(size=pos.size) < 0.2, 1.0,
                      np.exp(rng.uniform(draw(st.sampled_from([-2.0, -60.0])), 3.0, pos.size)))
    return DiscreteMeasure(pos, masses, T), A, d


class TestConstructionKernels:
    @given(alternating_params())
    @example((1e308, 2.0, 1.0))  # breakpoints 1e308 and 1e308 + 2 merge
    @example((1e308, 1e308, 1e308))  # the step sum overflows
    @example((1e307, 1.7e308, 5e307))
    @example((0.3, 1.7, 77.7))
    @example((1.0, 1.0, 20.5))
    @settings(max_examples=300, deadline=None)
    def test_alternating_partition_matches_loop(self, params):
        assert printed(alternating_partition, *params) == printed(ref_alternating_partition,
                                                                  *params)

    @given(auxiliary_cases())
    @settings(max_examples=300, deadline=None)
    def test_auxiliary_sequence_matches_loop(self, case):
        assert printed(auxiliary_sequence, *case) == printed(ref_auxiliary_sequence, *case)

    @given(even_layouts())
    @example((np.array([0.0, 2.0, 4.0]), np.array([1.0, 3.0, 5.0]), 5))
    @settings(max_examples=300, deadline=None)
    def test_equal_measure_points_match_loop(self, layout):
        lefts, rights, n = layout
        want = ref_equal_measure_points([Interval(l, r) for l, r in zip(lefts, rights)], n)
        assert _equal_measure_points(lefts, rights - lefts, n).tolist() == want

    def test_plateau_edge_goes_to_the_next_interval(self):
        # levels 1 and 2 end the first and second interval of unit length
        got = _equal_measure_points(np.array([0.0, 2.0, 4.0]), np.ones(3), 5)
        assert got.tolist() == [0.5, 2.0, 2.5, 4.0, 4.5]

    @given(st.sampled_from([(1.0, 2.0), (1.0, 1.0), (0.3, 1.1), (2.0, 7.0), (1.0, 5.0)]),
           st.floats(2.0, 1500.0), st.one_of(st.floats(1e-3, 5.0), st.sampled_from([1 / 3, 0.5, 2.0])))
    @example((1.0, 2.0), 900.0, 0.5)
    @settings(max_examples=100, deadline=None)
    def test_benedicks_sequence_matches_loop(self, lengths, T, C):
        partition = alternating_partition(*lengths, T)
        assert printed(benedicks_sequence, partition, C) == printed(ref_benedicks_sequence,
                                                                    partition, C)


@st.composite
def hybrid_cases(draw):
    """Atoms on a grid, with subnormal, tiny and heavy masses, and disjoint intervals
    on a grid, some touching, some empty of atoms and some of mass at least 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    step, T = draw(st.sampled_from([0.25, 1.0, 3.5])), float(draw(st.integers(10, 2000)))
    grid = np.arange(-T, T, step)
    pos = np.unique(rng.choice(grid, size=draw(st.integers(1, 400))))
    scale = draw(st.sampled_from([1e-3, 1.0, 5.0]))
    masses = np.where(rng.uniform(size=pos.size) < 0.2,
                      rng.choice([5e-324, 1e-310, 1e-300, 1.0, 2.5], pos.size),
                      np.exp(rng.uniform(-700.0, 0.0, pos.size)) * scale)
    ends = np.unique(rng.choice(grid, size=draw(st.integers(0, 120)) * 2))
    rows = ends[:ends.size // 2 * 2].reshape(-1, 2)
    if draw(st.booleans()) and rows.size:
        rows[1:, 0] = rows[:-1, 1]  # each interval touches the one before
    return DiscreteMeasure(pos, masses, T), rows


@st.composite
def domination_cases(draw):
    """Two measures on a shared grid with atoms at +-T, so that the margins tie
    where exp(-delta |x|) underflows, and constants that pass or fail."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    step, T = draw(st.sampled_from([0.5, 1.0, 0.3])), float(draw(st.integers(5, 1500)))
    grid = np.concatenate([np.arange(-T, T, step), [T]])

    def measure():
        pos = np.unique(np.concatenate([rng.choice(grid, size=draw(st.integers(1, 150))),
                                        [-T, T] if draw(st.booleans()) else []]))
        masses = np.exp(rng.uniform(draw(st.sampled_from([-5.0, -60.0])), 2.0, pos.size))
        return DiscreteMeasure(pos, masses, T)

    mu = measure()
    nu = mu if draw(st.booleans()) else measure()
    return (mu, nu, draw(st.sampled_from([1e-3, 0.05, 0.5, 1.0, 2.0])),
            draw(st.sampled_from([1e-4, 0.01, 1.0, 2.0, 1e3])),
            draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])))


@st.composite
def floor_cases(draw):
    """Atoms on a grid that L and T are multiples of, so that the events ``b +- L``
    coincide with each other and with ``+-(T - L)``, or off the grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    step = draw(st.sampled_from([0.5, 1.0]))
    T = step * draw(st.integers(4, 3000))
    L = step * draw(st.integers(1, 8))
    grid = np.arange(-T, T + step / 2, step)
    if draw(st.booleans()):
        pos = np.unique(rng.choice(grid, size=draw(st.integers(1, 600))))
    else:
        pos = np.unique(rng.uniform(-T, T, draw(st.integers(1, 600))))
    masses = np.exp(rng.uniform(draw(st.sampled_from([-3.0, -40.0])), 1.0, pos.size))
    return (DiscreteMeasure(pos, masses, T), L,
            draw(st.sampled_from([1e-300, 1e-12, 1e-3, 0.05, 0.5, 2.0])))


@st.composite
def tail_measures(draw):
    """Positive atoms whose tail masses plateau (a mass below half an ulp of the
    tail beyond it), fall below every target 3^-n, or give all 64 thresholds."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(["plateau", "few", "geometric", "random"]))
    if kind == "plateau":
        masses = rng.choice([1.0, 1e-17, 1e-30, 0.5], n)
    elif kind == "few":
        masses = rng.uniform(0.1, 1.0, min(n, 4))
    elif kind == "geometric":
        masses = 2.0 ** -np.arange(float(n) + 110)
    else:
        masses = np.exp(rng.uniform(-700.0, 5.0, n))
    T = float(masses.size + 1)
    pos = np.arange(1.0, masses.size + 1.0)
    if draw(st.booleans()):  # atoms on the negative side too
        pos, masses = np.concatenate([-pos[::-1], pos]), np.concatenate([masses, masses])
    return DiscreteMeasure(pos, masses, T)


@st.composite
def oracle_cases(draw):
    """An asymmetric measure, a frequency interval and a row count, 2 and 3 included."""
    xs = np.unique(np.asarray(draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30))))
    logm = draw(st.lists(st.floats(-20.0, 3.0), min_size=xs.size, max_size=xs.size))
    freq_count = draw(st.sampled_from([2, 3]) | st.integers(4, 80))
    return DiscreteMeasure(xs, np.exp(np.asarray(logm)), 50.0), draw(st.floats(0.01, 10.0)), freq_count


@st.composite
def mirror_cases(draw):
    """A measure symmetric under ``x -> -x``, with or without an atom at 0, a
    frequency interval and a row count, 2 and 3 included."""
    xs = np.unique(np.asarray(draw(st.lists(st.floats(0.0, 50.0, exclude_min=True),
                                            max_size=15)), dtype=float))
    zero = int(draw(st.booleans()) or xs.size == 0)
    m = np.exp(np.asarray(draw(st.lists(st.floats(-20.0, 3.0), min_size=xs.size + zero,
                                        max_size=xs.size + zero))))
    positions = np.concatenate([-xs[::-1], np.zeros(zero), xs])
    masses = np.concatenate([m[zero:][::-1], m[:zero], m[zero:]])
    freq_count = draw(st.sampled_from([2, 3]) | st.integers(4, 80))
    return DiscreteMeasure(positions, masses, 50.0), draw(st.floats(0.01, 10.0)), freq_count


def block_singular_values(measure, a, freq_count):
    blocks = _blocks(measure, a, freq_count)
    return blocks, np.sort(np.concatenate([np.linalg.svd(B, compute_uv=False)
                                           for B in blocks]))[::-1]


MIRROR = DiscreteMeasure(np.array([-7.0, -0.5, 0.0, 0.5, 7.0]),
                         np.array([5.0, 1e-6, 2.0, 1e-6, 5.0]), 50.0)


def ref_blocks(measure, a, freq_count, ops):
    """:func:`_blocks` built the direct way: every row of the trapezoid rule stacked as
    cos, sin and middle rows, scaled by the row and then the column weights, and on a
    mirrored measure the sin rows deleted from the even block."""
    cos, sin, sqrt = ops
    t, m = measure.positions, measure.masses
    mirror = np.array_equal(t, -t[::-1]) and np.array_equal(m, m[::-1])
    k = len(t) // 2 if mirror else 0
    col = sqrt(np.where(t[k:] > 0, 2.0, 1.0) * m[k:]) if mirror else sqrt(m)
    h = a / (freq_count - 1)
    half = freq_count // 2
    theta = (np.arange(half) * h - 0.5 * a)[:, None] * t[k:][None, :]
    rows = np.concatenate([cos(theta), sin(theta), np.ones((freq_count % 2, len(t) - k))])
    pair = np.full(half, 2 * h)
    pair[0] = h
    weights = np.concatenate([pair, pair, np.full(freq_count % 2, h)])
    rows = sqrt(weights)[:, None] * rows * col[None, :]
    if not mirror:
        return [rows]
    return [np.delete(rows, np.s_[half:2 * half], axis=0), rows[half:2 * half, len(t) % 2:]]


def mp_ops():
    """mpmath's cos, sin and sqrt over object arrays, as the extended path takes them."""
    import mpmath as mp

    return tuple(np.frompyfunc(f, 1, 1) for f in (mp.cos, mp.sin, mp.sqrt))


def one_ulp_off(measure):
    masses = measure.masses.copy()
    masses[1] = np.nextafter(masses[1], np.inf)
    return DiscreteMeasure(measure.positions, masses, measure.window)


class TestOracleKernel:
    # the real form is the complex matrix under unitary maps, so the two agree
    # to rounding, not bit for bit
    @given(oracle_cases())
    @example((DiscreteMeasure(np.array([-3.0, 0.5, 7.0]), np.array([1.0, 1e-6, 5.0]), 50.0),
              4.0, 2))
    @example((DiscreteMeasure(np.array([-3.0, 0.5, 7.0]), np.array([1.0, 1e-6, 5.0]), 50.0),
              4.0, 3))
    @settings(max_examples=200, deadline=None)
    def test_real_form_has_the_complex_singular_values(self, case):
        measure, a, freq_count = case
        real = annihilation_matrix(measure, a, freq_count)
        assert real.dtype == np.float64 and real.shape == (freq_count, len(measure))
        s_real = np.linalg.svd(real, compute_uv=False)
        s_ref = np.linalg.svd(ref_annihilation_matrix(measure, a, freq_count), compute_uv=False)
        assert np.max(np.abs(s_real - s_ref)) <= 1e-12 * s_ref[0]

    # the mirror map on each pair of columns is orthogonal, so the blocks
    # have the full matrix's singular values, to rounding
    @given(mirror_cases())
    @example((MIRROR, 4.0, 2))
    @example((MIRROR, 4.0, 3))
    @example((DiscreteMeasure(np.array([-0.5, 0.5]), np.array([1e-6, 1e-6]), 50.0), 4.0, 2))
    @settings(max_examples=200, deadline=None)
    def test_mirror_blocks_have_the_full_singular_values(self, case):
        measure, a, freq_count = case
        blocks, s_blocks = block_singular_values(measure, a, freq_count)
        assert len(blocks) == 2
        s_full = np.linalg.svd(annihilation_matrix(measure, a, freq_count), compute_uv=False)
        assert s_blocks.size == min(freq_count, len(measure)) == s_full.size
        assert np.max(np.abs(s_blocks - s_full)) <= 1e-12 * s_full[0]

    def test_single_atom_at_zero_has_no_odd_columns(self):
        measure = DiscreteMeasure(np.array([0.0]), np.array([2.0]), 1.0)
        for freq_count in (2, 3, 9):
            blocks, s = block_singular_values(measure, 3.0, freq_count)
            assert [B.shape for B in blocks] == [(freq_count - freq_count // 2, 1),
                                                 (freq_count // 2, 0)]
            assert s.tolist() == pytest.approx([math.sqrt(3.0 * 2.0)], rel=1e-12)

    def test_one_ulp_off_takes_the_full_matrix(self):
        measure = one_ulp_off(MIRROR)
        for a in (0.5, 4.0, 9.0):
            freq_count = default_freq_count(measure, a)
            full = annihilation_matrix(measure, a, freq_count)
            (only,) = _blocks(measure, a, freq_count)
            assert bits(only) == bits(full)
            s = np.linalg.svd(full, compute_uv=False)
            assert bits(_sigma_extremes(measure, a)) == bits((float(s[-1]), float(s[0])))

    # the rows are scaled in place, in the reference's order of operations, so
    # every entry keeps its bits, in float64 and at EXTENDED_DPS digits
    @pytest.mark.parametrize("measure, count", [
        (MIRROR, 2),
        (DiscreteMeasure(MIRROR.positions[[0, 1, 3, 4]], MIRROR.masses[[0, 1, 3, 4]], 50.0), 2),
        (one_ulp_off(MIRROR), 1),
    ], ids=["mirror-odd-n", "mirror-even-n", "ulp-off"])
    @pytest.mark.parametrize("freq_count", [2, 3, 40, 41])
    def test_blocks_keep_the_reference_bits(self, measure, count, freq_count):
        import mpmath as mp

        for a in (0.5, 4.0, 9.0):
            got = _blocks(measure, a, freq_count)
            assert len(got) == count
            assert bits(got) == bits(ref_blocks(measure, a, freq_count, NUMPY_OPS))
            with mp.workdps(EXTENDED_DPS):
                got = _blocks(measure, mp.mpf(a), freq_count, mp_ops())
                want = ref_blocks(measure, mp.mpf(a), freq_count, mp_ops())
                assert [B.shape for B in got] == [B.shape for B in want]
                assert all(type(v) is mp.mpf for B in got for v in B.flat)
                assert [list(map(str, B.flat)) for B in got] == [list(map(str, B.flat)) for B in want]


class TestCheckerKernels:
    @given(measures(), st.lists(st.tuples(st.floats(-2500.0, 2500.0), st.floats(-2500.0, 2500.0)),
                                max_size=40), st.booleans())
    @example(DiscreteMeasure(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]), 1.0),
             [(-1.0, 1.0), (0.0, 0.0), (1.0, -1.0), (-2.0, -1.0), (1.0, 2.0)], True)
    @settings(max_examples=200, deadline=None)
    def test_mass_in_takes_arrays_of_ends(self, measure, ends, closed):
        lefts, rights = np.array(ends, dtype=float).reshape(-1, 2).T
        got = measure.mass_in(lefts, rights, closed)
        scalar = [measure.mass_in(l, r, closed) for l, r in zip(lefts, rights)]
        assert all(type(m) is float for m in scalar)
        assert bits(got) == bits(np.array(scalar, dtype=float))
        assert scalar == [ref_mass_in(measure, l, r, closed) for l, r in zip(lefts, rights)]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=20))
    @example([5e-324, 5e-324, 1.5e-323, -5e-324, 1e-308, 1e308, 1.7e308, -1.7e308, -1e308])
    @settings(max_examples=300, deadline=None)
    def test_midpoints_keep_their_bits(self, xs):
        # 0.5 * (a + b) wherever a + b is finite; halving a and b first would
        # round away the last bit of a subnormal
        want = [0.5 * (a + b) if math.isfinite(a + b) else float((Fraction(a) + Fraction(b)) / 2)
                for a, b in zip(xs, xs[1:])]
        assert bits(_mids(np.array(xs[:-1]), np.array(xs[1:]))) == bits(np.array(want))

    @given(hybrid_cases())
    @example((DiscreteMeasure(np.array([-1.0, 0.5, 2.0]), np.array([5e-324, 2.0, 1e-310]), 4.0),
              np.array([[-2.0, -1.0], [-1.0, 0.0], [0.0, 1.0], [1.0, 3.0], [3.0, 4.0]])))
    @settings(max_examples=200, deadline=None)
    def test_hybrid_matches_loop(self, case):
        assert printed(hybrid_check, *case) == printed(ref_hybrid_check, *case)

    @given(domination_cases())
    @example((DiscreteMeasure(np.array([-5e-324, 0.0, 1.0]), np.ones(3), 2.0),) * 2
             + (1.0, 1e-4, 1.0))
    @example((DiscreteMeasure(np.array([-1.0, -0.0, 5e-324]), np.ones(3), 2.0),) * 2
             + (1.0, 1e3, 0.0))
    # within the 1e-12 tolerance where exp(-delta |x|) underflows
    @example((DiscreteMeasure(np.array([-1000.0, 1000.0]), np.ones(2), 1000.0),) * 2
             + (1.0, 1.0 - 1e-13, 0.0))
    # an inf C (1+|x|)^l, which gave nan margins times a zero mass, is refused
    @example((DiscreteMeasure(np.array([-2e300, -1e300, 1e300, 2e300]), np.ones(4), 1e301),
              DiscreteMeasure(np.array([0.0]), np.ones(1), 1e301), 1.0, 1e308, 0.5))
    @example((DiscreteMeasure(np.array([-2e300, -1e300, 1e300, 2e300]), np.ones(4), 1e301),)
             * 2 + (1.0, 1e308, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_borichev_sodin_matches_loop(self, case):
        got = printed(borichev_sodin_compare, *case)
        # the loop's numpy scalars warn where Python floats would not
        with np.errstate(over="ignore", invalid="ignore"):
            want = printed(ref_borichev_sodin_compare, *case)
        assert got == want

    @given(floor_cases())
    @example((DiscreteMeasure(np.array([-3.0, -1.0, 1.0, 3.0]), np.ones(4), 3.0), 2.0, 0.5))
    @example((DiscreteMeasure(np.array([0.0]), np.ones(1), 2.0), 1.0, 0.5))
    @example((DiscreteMeasure(np.array([0.0]), np.ones(1), 2.0), 2.0, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_duffin_schaeffer_matches_loop(self, case):
        assert printed(duffin_schaeffer_check, *case) == printed(ref_duffin_schaeffer_check,
                                                                   *case)

    @given(tail_measures())
    @example(DiscreteMeasure(np.array([-1.0]), np.ones(1), 2.0))
    @example(DiscreteMeasure(np.array([1.0, 2.0]), np.array([1.0, 1e-17]), 2.0))
    @settings(max_examples=200, deadline=None)
    def test_levinson_thresholds_match_loop(self, measure):
        got = printed(levinson_check, measure)
        with mock.patch.object(typeproblem, "_levinson_thresholds", ref_levinson_thresholds):
            assert got == printed(levinson_check, measure)

    def test_levinson_thresholds_stop_at_64(self):
        masses = 2.0 ** -np.arange(200.0)  # every target 3^-n at an atom of its own
        tail = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])
        cuts = np.arange(201.0)
        assert bits(_levinson_thresholds(cuts, tail)) == bits(ref_levinson_thresholds(cuts, tail))
        assert len(_levinson_thresholds(cuts, tail)) == 65

    @given(sample_tables(), st.booleans())
    @example(WeightTable(np.array([-3.0, -1.0, 0.0]), np.array([0.0, 0.0]), "samples"), True)
    @example(WeightTable(np.array([0.0, 1.0, 3.0]), np.array([2.0, 1.0]), "samples"), True)
    @settings(max_examples=300, deadline=None)
    def test_krein_lm_matches_loop(self, table, monotone_flag):
        assert (printed(krein_lm_check, table, monotone_flag)
                == printed(ref_krein_lm_check, table, monotone_flag))

    @given(interval_unions())
    @example([])
    @example([Interval(0.0, 10.0), Interval(2.0, 3.0), Interval(2.0, 3.0),
              Interval(10.0, 12.0), Interval(15.0, 16.0)])
    @settings(max_examples=300, deadline=None)
    def test_beurling_union_matches_loop(self, ivs):
        assert printed(beurling_gap_check, ivs) == printed(ref_beurling_gap_check, ivs)

    @given(sequences())
    @example(RealSequence(np.array([-5.0, 0.0, 5.0]), 5.0))
    @settings(max_examples=300, deadline=None)
    def test_beurling_sequence_matches_loop(self, seq):
        assert printed(beurling_gap_check, seq) == printed(ref_beurling_gap_check, seq)

    @given(st.floats(0.1, 3.0), st.floats(0.05, 1.0), measures())
    @settings(max_examples=200, deadline=None)
    def test_debranges_matches_loop(self, power, scale, measure):
        T = measure.window
        bks = np.linspace(-T, T, 65)
        mids = np.abs(0.5 * (bks[:-1] + bks[1:]))
        K = WeightTable(bks, 1.0 + scale * mids ** power)
        assert (printed(debranges_check, K, measure, 1.0)
                == printed(ref_debranges_check, K, measure, 1.0))

    @given(suffgen_cases())
    @settings(max_examples=60, deadline=None)
    def test_suffgen_matches_loop(self, case):
        measure, A, d = case
        assert printed(suffgen_bound, measure, A, d) == printed(ref_suffgen_bound, measure, A, d)


# ---------------------------------------------------------------- serialize


class TestBulkSerialize:
    @given(st.floats(allow_nan=True, allow_infinity=True))
    @example(1e15)
    @example(-1e15)
    @example(math.nextafter(1e15, 0.0))
    @example(-0.0)
    @settings(max_examples=500)
    def test_format_float_matches(self, x):
        assert format_float(x) == ref_format_float(x)

    @given(st.lists(st.floats()), st.lists(st.tuples(st.floats(), st.integers())))
    def test_flat_list_rendering(self, flat, nested):
        assert canonical_json(flat) == "[" + ", ".join(map(ref_format_float, flat)) + "]"
        rows = ", ".join(f"[{ref_format_float(x)}, {n}]" for x, n in nested)
        assert canonical_json(nested) == f"[{rows}]"
        assert canonical_json(np.asarray(flat, dtype=float)) == canonical_json(flat)

    @given(st.lists(st.tuples(st.integers(-50, 50).map(float), st.floats(0.01, 10.0)),
                    min_size=1, max_size=60, unique_by=lambda t: t[0]))
    def test_measure_loader_sorts_like_tuples(self, atoms):
        measure = load_measure({"atoms": atoms, "window": 60.0})
        ordered = sorted(atoms)
        assert measure.positions.tolist() == [a[0] for a in ordered]
        assert measure.masses.tolist() == [a[1] for a in ordered]


# the keys whose arrays the loaders read
ARRAY_KEYS = ("points", "atoms", "breakpoints", "values", "intervals")


def ref_load_document(path):
    """The former document reader: ``json`` alone, refusing non-finite constants."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=serialize._reject_constant)


def load_outcome(load, path):
    """What a loader makes of a document: its error, or each value, with the
    arrays as ``np.asarray(..., dtype=float)`` makes them (shape and bits) or fails."""
    try:
        doc = load(path)
    except (ValueError, serialize.TypelabError) as exc:
        return type(exc), str(exc)
    if not isinstance(doc, dict):
        return doc
    out = {}
    for key, value in doc.items():
        try:
            arr = np.asarray(value, dtype=float) if key in ARRAY_KEYS else None
        except (ValueError, OverflowError, TypeError) as exc:
            out[key] = type(exc)
            continue
        out[key] = value if arr is None else (arr.shape, arr.tobytes())
    return out


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# literals json refuses or reads differently from a float parser, and edge values
NUMBER_LITERALS = ["-0", "-0.0", "0", "0.0", "0e0", "-0e5", "1e400", "-1e400", "1" + "0" * 400,
                   "+1", ".5", "-.5", "1.", "1.e5", "01", "-01", "00", "1e", "1.5e+", "-",
                   "1-2", "1+2", "NaN", "Infinity", "-Infinity", "1E+05", "1e-05", "5e-324",
                   "2.4703282292062328e-324", "1.7976931348623157e308", "9007199254740993",
                   "123456789012345678", "1234567890123456789", "9223372036854775808",
                   "-18446744073709551617", "0x10", "1_0", "true", '"1"', "[]"]
valid_tokens = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                         st.floats(allow_nan=False, allow_infinity=False).map(format_float),
                         st.integers(-10 ** 20, 10 ** 20).map(str))
# mostly valid, so that whole arrays often are
number_tokens = st.integers(0, 15).flatmap(
    lambda i: st.sampled_from(NUMBER_LITERALS) if i == 0 else valid_tokens)
# typelab's separator, and others json reads too
separators = st.integers(0, 5).flatmap(
    lambda i: st.sampled_from([",", " , ", ",  "]) if i == 0 else st.just(", "))
flat_arrays = st.builds(lambda ts, sep: "[" + sep.join(ts) + "]",
                        st.lists(number_tokens, max_size=8), separators)
rows = st.lists(number_tokens, min_size=2, max_size=2) | st.lists(number_tokens, max_size=3)
row_arrays = st.builds(lambda rs, sep: "[" + sep.join("[" + sep.join(r) + "]" for r in rs) + "]",
                       st.lists(rows, max_size=6), separators)
# a key inside a string, inside a key, or in a nested object is not the array
DECOYS = ['"generator": "\\"points\\": [1, 2]"', '"a \\"atoms": [[1, 2]]',
          '"nested": {"values": [1, 2]}', '"tag": "\\"breakpoints\\": [3]"']


@st.composite
def typelab_documents(draw):
    """Documents in typelab's spacing: array keys (repeated ones too), scalars, decoys."""
    members = [f'"{key}": {draw(row_arrays if draw(st.booleans()) else flat_arrays)}'
               for key in draw(st.lists(st.sampled_from(ARRAY_KEYS), max_size=4))]
    members += draw(st.lists(st.sampled_from(DECOYS + ['"window": 10', '"kind": "samples"']),
                             max_size=2))
    return "{" + ", ".join(draw(st.permutations(members))) + "}"


class TestBulkReader:
    @settings(max_examples=400, deadline=None)
    @given(text=typelab_documents())
    @example(text='{"points": [-0, 1.5, -0.0], "window": 10}')
    @example(text='{"points": [1' + "0" * 400 + ', 0.5]}')
    @example(text='{"atoms": [[1, 2, 3], [4]]}')
    @example(text='{"points": [1,01]}')
    def test_matches_json(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("doc") / "doc.json"
        path.write_text(text)
        assert load_outcome(serialize.load_document, path) == load_outcome(ref_load_document, path)

    @pytest.mark.parametrize("literal", NUMBER_LITERALS)
    def test_literals_through_cli(self, tmp_path, literal):
        docs = {"seq": f'{{"points": [-3, {literal}, 4], "window": 10}}',
                "measure": f'{{"atoms": [[-3, 1], [{literal}, 0.5]], "window": 10}}',
                "intervals": f'{{"intervals": [[1, 2], [{literal}, 8]]}}',
                "weight": f'{{"breakpoints": [-5, 0, 5], "values": [{literal}, 2]}}'}
        for name, text in docs.items():
            (tmp_path / f"{name}.json").write_text(text)
        for argv in (["energy", "--input", "seq"], ["rescale", "--input", "measure"],
                     ["classify", "--intervals", "intervals"],
                     ["theorem", "krein-lm", "--weight", "weight"]):
            argv = [str(tmp_path / f"{a}.json") if a in docs else a for a in argv]
            bulk = run_cli(argv)
            with mock.patch.object(serialize, "load_document", ref_load_document):
                assert bulk == run_cli(argv)
            assert bulk[0] in (0, 2) and "Traceback" not in bulk[2]

    def test_large_documents_take_the_bulk_path(self, tmp_path):
        value = np.column_stack((np.arange(400.0), np.full(400, 1e-20)))
        path = tmp_path / "atoms.json"
        path.write_text(canonical_json({"atoms": value, "window": 1000}))
        with mock.patch.object(serialize.json, "loads", wraps=json.loads) as loads:
            doc = serialize.load_document(path)
        assert isinstance(doc["atoms"], np.ndarray) and doc["atoms"].tobytes() == value.tobytes()
        assert len(loads.call_args.args[0]) < 40  # json saw the rest, not the rows


WRITER_SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 0.5, -1e-300] + [
    sign * m for sign in (1.0, -1.0)
    for m in (1e12, 1e12 + 1, 1e14 + 0.5, 1e15 - 1, 1e15, 1e15 + 2, 2.0 ** 53, 1e300)]


class TestBulkWriter:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats() | st.sampled_from(WRITER_SPECIALS), min_size=1,
                           max_size=2 * BULK_MIN_SIZE),
           width=st.sampled_from([1, 2, 3]))
    def test_matches_format_float(self, values, width):
        size = -(-max(len(values), BULK_MIN_SIZE) // width) * width
        arr = np.resize(np.asarray(values, dtype=float), size)
        assert canonical_json(arr) == "[" + ", ".join(map(ref_format_float, arr.tolist())) + "]"
        rendered = ", ".join("[" + ", ".join(map(ref_format_float, row)) + "]"
                             for row in arr.reshape(-1, width).tolist())
        assert canonical_json(arr.reshape(-1, width)) == f"[{rendered}]"


def ref_canonical_json(obj):
    """The former renderer of lists and their values: one value at a time."""
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(ref_canonical_json, obj)) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return ref_format_float(obj)
    return json.dumps(obj)


# the edges of the one-pass path: signed zeros, non-finite floats, ints at the
# 1e15 bound of %d and beyond 2**53, None
TABLE_SPECIALS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 0.5, 1e15 - 1.0, 1e15, None] + [
    sign * m for sign in (1, -1) for m in (10 ** 15 - 1, 10 ** 15, 2 ** 53 + 1)]
SPOILERS = {"bool": True, "text": "1", "row": [1.0], "dict": {}}


@st.composite
def list_tables(draw):
    """Lists of about BULK_MIN_SIZE cells, or rows of width 1-4, cycled from a few
    drawn cells; some with a None column, rows as tuples, or one spoiled cell or row."""
    n = draw(st.sampled_from([BULK_MIN_SIZE - 1, BULK_MIN_SIZE, 2 * BULK_MIN_SIZE + 1]))
    width = draw(st.integers(0, 4))  # 0: a flat list
    cells = draw(st.lists(st.floats() | st.integers(-10 ** 6, 10 ** 6)
                          | st.sampled_from(TABLE_SPECIALS), min_size=1, max_size=9))
    flat = [cells[i % len(cells)] for i in range(n * max(width, 1))]
    obj = [flat[i * width:(i + 1) * width] for i in range(n)] if width else flat
    if width and draw(st.booleans()):
        col = draw(st.integers(0, width - 1))
        for row in obj:
            row[col] = None
    if width and draw(st.booleans()):
        obj = [tuple(row) for row in obj]
    spoil = draw(st.sampled_from([None, None, "ragged", *SPOILERS]))
    at = draw(st.integers(0, n - 1))
    if spoil == "ragged" and width:
        obj[at] = list(obj[at])[:-1] if draw(st.booleans()) else list(obj[at]) + [0.5]
    elif spoil in SPOILERS and width:
        obj[at] = list(obj[at])
        obj[at][draw(st.integers(0, width - 1))] = SPOILERS[spoil]
    elif spoil in SPOILERS:
        obj[at] = SPOILERS[spoil]
    return obj


class TestTableWriter:
    @settings(max_examples=300, deadline=None)
    @given(obj=list_tables(), as_tuple=st.booleans())
    def test_matches_recursive_renderer(self, obj, as_tuple):
        obj = tuple(obj) if as_tuple else obj
        assert canonical_json(obj) == ref_canonical_json(obj)

    def test_one_pass_only_where_it_prints_the_same(self):
        rows = [(k, 0.5 * k, -0.0, None if k % 3 else math.nan) for k in range(BULK_MIN_SIZE)]
        cases = [(rows, True), ([r[1] for r in rows], True), ([r[3] for r in rows], True),
                 ([[10 ** 15 - 1]] * BULK_MIN_SIZE, True), (rows[1:], False),
                 (rows[1:] + [(1, 2.0, 3.0)], False), (rows[1:] + [(True, 0.0, 0.0, 0.0)], False),
                 (rows[1:] + [(10 ** 15, 0.0, 0.0, 0.0)], False), ([[]] * BULK_MIN_SIZE, False),
                 ([10 ** 400] * BULK_MIN_SIZE, False)]
        for obj, one_pass in cases:
            with mock.patch.object(serialize, "_format_array",
                                   wraps=serialize._format_array) as fmt:
                text = canonical_json(obj)
            assert text == ref_canonical_json(obj)
            assert fmt.called == one_pass, obj[-1]
