"""Counting functions, regularity defects and Beurling-Malliavin density estimators.

The interior estimator is a certified lower bound: it exhibits a
subsequence and a partition passing the d-uniformity verdict at the
reported density, found by :func:`downward_scan`, the one downward grid
search (the type estimators run it too).  The exterior estimator is an
upper bound: it finds the smallest target density for which the dyadic
blocks carrying an irreparable count excess form a family certified short
(points can always be added, never removed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    _SHELL_CUTS,
    CONVERGENT,
    SLACK_POINTS,
    Partition,
    RealSequence,
    SumVerdict,
    TypelabError,
    lattice_count,
    map_libm,
    shell_sum_verdict,
    split_at_shells,
)
from .partitions import InsufficientData, classify_family, find_short_partition
from .uniformity import UniformityReport, _evaluate

INTERIOR = "interior"
EXTERIOR = "exterior"
BLOCK_SCAN_EPSILON = 0.05  # relative tolerance of regularity_block_scan


@dataclass(frozen=True)
class InteriorCertificate:
    subsequence: RealSequence
    partition: Partition
    report: UniformityReport


@dataclass(frozen=True)
class DensityEstimate:
    value: float
    kind: str
    certificate: InteriorCertificate | None
    diagnostics: tuple[tuple[float, bool, str], ...]  # (grid value, passed, detail)


def counting_function(seq: RealSequence, x):
    """Step counting function, zero at the origin.

    Counts points in ``(0, x]`` for positive ``x`` and minus the count in
    ``(x, 0)`` for negative ``x``; jumps up by one at each point of the
    sequence.  ``x`` may be an array, giving an integer array.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= seq.window):
        raise TypelabError(f"|{x}| exceeds the window {seq.window}")
    pts = seq.points
    # points in (-inf, x] minus those in (-inf, 0] for x >= 0, in (-inf, 0) for x < 0
    zero_rank = np.where(xs < 0, np.searchsorted(pts, 0.0, side="left"),
                         np.searchsorted(pts, 0.0, side="right"))
    counts = np.searchsorted(pts, xs, side="right") - zero_rank
    return int(counts) if counts.ndim == 0 else counts


def strong_regularity_defect(seq: RealSequence, a: float) -> SumVerdict:
    """Poisson integral of ``|n(x) - a x|`` over the window, piecewise exact.

    Between consecutive points the counting function is constant, so each
    piece integrates ``|c - a x| / (1 + x^2)`` in closed form (split at the
    sign change); contributions are binned into dyadic shells for the
    convergence verdict.
    """
    if not a >= 0:  # also true on NaN
        raise TypelabError("regularity parameter must be nonnegative")
    T = seq.window
    # the antiderivative reaches a log(1 + T^2) / 2, and differences of two of them
    if not math.isfinite(a * math.log1p(T * T)):
        raise TypelabError(f"the regularity defect overflows at a={a:g} on window T={T:g}")
    pts = seq.points
    cuts = np.concatenate([[-T], pts[(pts > -T) & (pts < T)], [T]])
    lefts, rights = cuts[:-1], cuts[1:]
    counts = counting_function(seq, 0.5 * (lefts + rights))
    u, v, owner = split_at_shells(lefts, rights)
    c = counts[owner].astype(float)
    # split where c - a x changes sign, at x = c / a (infinite for a tiny a: no crossing)
    with np.errstate(over="ignore"):
        root = c / a if a > 0 else np.full_like(c, np.inf)
    cross = (u < root) & (root < v)
    u = np.concatenate([u, root[cross]])
    v = np.concatenate([np.where(cross, root, v), v[cross]])
    c = np.concatenate([c, c[cross]])
    contribs = np.abs(_defect_antideriv(v, c, a) - _defect_antideriv(u, c, a))
    return shell_sum_verdict(0.5 * (u + v), contribs)


def _defect_antideriv(x: np.ndarray, c: np.ndarray, a: float) -> np.ndarray:
    # integral of (c - a x) / (1 + x^2)
    return c * map_libm(math.atan, x) - 0.5 * a * map_libm(math.log1p, x * x)


def regularity_block_scan(seq: RealSequence, a: float) -> SumVerdict:
    """Family-scan variant of the regularity test.

    Collects the dyadic blocks whose count ratio misses ``a`` by more than
    ``BLOCK_SCAN_EPSILON * max(a, 1)`` (plus the integer quantization slack) and
    classifies them: a divergent family of violations rules the sequence
    out as a-regular, while a short or inconclusive family is consistent
    with regularity.  The integral-defect form is the default instrument;
    this scan follows the primary definition directly.
    """
    if not a >= 0:  # also true on NaN
        raise TypelabError("need a >= 0")
    blocks, counts, lengths = _block_counts(seq)
    # the innermost block (-1, 1] takes no part in this scan
    bad = blocks[(blocks[:, 0] != -1.0) & (np.abs(counts / lengths - a)
                                           > BLOCK_SCAN_EPSILON * max(a, 1.0) + 1.0 / lengths)]
    if not bad.size:
        return SumVerdict(0.0, (), 0.0, CONVERGENT, 0.0, note="no violating blocks")
    return replace(classify_family(bad), note=f"{len(bad)} violating blocks")


def spread_selection(seq: RealSequence, partition: Partition, d: float) -> RealSequence:
    """Per interval, keep ``floor(d * length)`` points of maximal spread.

    Uses the deterministic farthest-point rule: start from the interval's
    extreme points and repeatedly add the point with the largest distance
    to the current selection (earliest index on ties); a target of one
    keeps the point nearest the midpoint of the extremes.  Intervals
    holding fewer points than the target keep everything they have.
    """
    pts = seq.points
    idx = partition.index(pts)
    m = idx.counts
    k = lattice_count(d, idx.lengths)
    keep = np.zeros(pts.size, dtype=bool)
    # the intervals are contiguous: they hold points lo[0] .. hi[-1] - 1 in turn
    keep[idx.lo[0]:idx.hi[-1]] = np.repeat(k >= m, m)
    some = np.flatnonzero((k >= 1) & (k < m))
    _farthest_points(pts, idx.lo[some], m[some], k[some].astype(int), keep)
    if not keep.any():
        return RealSequence(np.zeros(0), seq.window, "selection(empty)")
    return RealSequence(pts[keep], seq.window, "selection")


def _farthest_points(pts: np.ndarray, lo: np.ndarray, m: np.ndarray, k: np.ndarray,
                     keep: np.ndarray) -> None:
    """Mark in ``keep`` the farthest-point selection of ``k[i]`` of ``pts[lo[i]:lo[i] + m[i]]``.

    Runs the rule in lockstep over all rows: rows are bucketed by point
    count in powers of two and padded, padding at distance -inf, so each
    round is one ``argmax`` and one ``minimum`` over the rows still
    choosing (rows sorted by target, largest first, so those are a
    prefix).  The per-entry arithmetic is that of one interval at a time.
    """
    width = np.left_shift(1, np.frexp(m - 1)[1])
    for w in np.unique(width).tolist():
        rows = np.flatnonzero(width == w)
        rows = rows[np.argsort(-k[rows], kind="stable")]
        lo_r, m_r, k_r = lo[rows], m[rows], k[rows]
        cols = np.arange(w)
        pad = cols >= m_r[:, None]
        # padding repeats the row's last point, so every entry stays finite
        P = pts[lo_r[:, None] + np.minimum(cols, m_r[:, None] - 1)]
        last = pts[lo_r + m_r - 1]
        one = k_r == 1
        mid = 0.5 * (P[one, 0] + last[one])
        near = np.where(pad[one], np.inf, np.abs(P[one] - mid[:, None]))
        keep[lo_r[one] + near.argmin(axis=1)] = True
        many = ~one
        keep[lo_r[many]] = keep[lo_r[many] + m_r[many] - 1] = True
        P, pad, lo_r, k_r = P[many], pad[many], lo_r[many], k_r[many]
        dist = np.minimum(np.abs(P - P[:, :1]), np.abs(P - last[many, None]))
        dist[pad] = -np.inf
        diff = np.empty_like(P)
        # rows still choosing in round t: those with k >= t + 3
        active = np.searchsorted(-k_r, -np.arange(3, k_r.max(initial=2) + 1), side="right")
        for n in active.tolist():
            nxt = dist[:n].argmax(axis=1)
            keep[lo_r[:n] + nxt] = True
            np.subtract(P[:n], P[np.arange(n), nxt][:, None], out=diff[:n])
            np.abs(diff[:n], out=diff[:n])
            np.minimum(dist[:n], diff[:n], out=dist[:n])


def density_grid(values) -> list[float]:
    """The grid values in increasing order; raises :class:`TypelabError`
    unless there is at least one and all are positive."""
    grid = sorted(float(v) for v in values)
    if not grid:
        raise TypelabError("density grid is empty")
    if not all(v > 0 for v in grid):  # also false on NaN
        raise TypelabError("density grid values must be positive")
    return grid


def downward_scan(support: RealSequence, grid: list[float], skip_energy: bool,
                  judge=None) -> tuple[tuple, float, InteriorCertificate | None]:
    """Scan the increasing ``grid`` downward for the first ``d`` that passes.

    For each candidate ``d`` a greedy short partition of ``support`` is
    built and a spread-out subsequence of target density selected inside
    each interval; a selection that is d-uniform there passes, unless
    ``judge(selected)`` gives ``(False, note)``.  Returns the diagnostics in
    increasing ``d``, the passing ``d`` and its certificate (0 and None
    when every candidate fails).
    """
    diagnostics: list[tuple[float, bool, str]] = []
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
        report = _evaluate(selected, d, partition, "given", skip_energy, scan=True)
        if not report.overall:
            passed, note = False, _verdict_note(report)
        else:
            passed, note = judge(selected) if judge else (True, "pass")
        diagnostics.append((d, passed, note))
        if passed:
            value, certificate = d, InteriorCertificate(selected, partition, report)
            break
    diagnostics.sort(key=lambda t: t[0])
    return tuple(diagnostics), value, certificate


def interior_density(seq: RealSequence, d_grid) -> DensityEstimate:
    """Certified lower bound for the interior Beurling-Malliavin density.

    The largest grid value whose selection passes the d-uniformity
    verdict in :func:`downward_scan`, with its certificate; 0 when every
    candidate fails.
    """
    d_grid = density_grid(d_grid)
    if len(seq) == 0:
        raise InsufficientData("cannot estimate the density of an empty sequence")
    diagnostics, value, certificate = downward_scan(seq, d_grid, False)
    return DensityEstimate(value, INTERIOR, certificate, diagnostics)


def _verdict_note(report: UniformityReport) -> str:
    """The failed legs of a failing scan report; an energy leg not run reads ``not-run``."""
    parts = []
    if not report.density.passed:
        parts.append(f"density dev {report.density.max_outer_deviation:.3g}")
    if report.short_verdict.classification != CONVERGENT:
        parts.append(f"partition {report.short_verdict.classification}")
    if not report.energy_skipped:
        energy = report.energy_verdict.classification if report.energy_verdict else "not-run"
        if energy != CONVERGENT:
            parts.append(f"energy {energy}")
    return "; ".join(parts)


def exterior_density(seq: RealSequence, a_grid) -> DensityEstimate:
    """Upper bound for the exterior Beurling-Malliavin density.

    A target ``a`` is feasible when the dyadic blocks whose point count
    irreparably exceeds ``a * length`` form a family certified short (no
    blocks, or a ``convergent`` verdict): deficits can always be repaired by
    adding points, excesses cannot be removed.
    Reports the smallest feasible grid value; raises :class:`TypelabError`
    when none is, since the grid then bounds nothing.
    """
    a_grid = density_grid(a_grid)
    if len(seq) == 0:
        return DensityEstimate(a_grid[0], EXTERIOR, None,
                               tuple((a, True, "empty sequence") for a in a_grid))
    diagnostics: list[tuple[float, bool, str]] = []
    value = None
    blocks, counts, lengths = _block_counts(seq)
    for a in a_grid:
        # an absolute slack: a larger, relative one would read an upper bound on its unsafe side
        with np.errstate(over="ignore"):  # an infinite target is never exceeded
            excess = blocks[counts - a * lengths > SLACK_POINTS]
        if len(excess) == 0:
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
    return DensityEstimate(value, EXTERIOR, None, tuple(diagnostics))


def _block_counts(seq: RealSequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dyadic blocks inside ``seq``'s window as ``(left, right)`` rows in increasing
    order (``(-2^(j+1), -2^j]``, the innermost ``(-1, 1]`` and ``(2^j, 2^(j+1)]``,
    j = 0, 1, ...), their point counts and their lengths."""
    mags = np.abs(_SHELL_CUTS)
    ends = _SHELL_CUTS[(mags >= 1.0) & (mags <= seq.window)]
    blocks = np.column_stack((ends[:-1], ends[1:]))
    return blocks, seq.count_in(*blocks.T), blocks[:, 1] - blocks[:, 0]
