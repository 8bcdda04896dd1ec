"""Coulomb energy of finite point configurations.

The energy of a configuration is the sum of ``log|x_k - x_l|`` over ordered
pairs ``k != l`` (every unordered pair counted twice, matching the per-point
factorial closed form for arithmetic grids).  The deficit of a configuration
inside an interval ``I`` is ``count^2 * log|I| - energy``; it is nonnegative
whenever ``|I| >= 1`` and measures how far the points are from uniform.
Up to 512 points the pairs come from one table built on first use: the last
n(n-1)/2 entries of ``np.triu_indices(512, 1) - 512``, added to the end of n
points, are ``np.triu_indices(n, 1)``.  Longer rows reuse one buffer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Interval, RealSequence, TypelabError, map_libm

# the least interval length: the deficit is nonnegative only for |I| >= 1
LEAST_LENGTH = 1.0

# below this separation a pair is treated as coincident rather than
# silently contributing -inf
DEGENERATE_DISTANCE = 1e-300

# configurations up to this size use one full pairwise matrix
_MATRIX_LIMIT = 512
_BLOCK = 256
# pair terms per np.log call of interval_energies (2 MB of float64)
_BATCH_TERMS = 1 << 18


@dataclass(frozen=True)
class EnergyReport:
    """Point count, energy and uniformity deficit of one interval."""

    delta: int
    energy: float
    deficit: float
    interval: Interval


def _as_points(config) -> np.ndarray:
    if isinstance(config, RealSequence):
        return config.points
    return np.asarray(config, dtype=float)


@functools.cache
def _pair_table() -> tuple[np.ndarray, np.ndarray]:
    return tuple(ix - _MATRIX_LIMIT for ix in np.triu_indices(_MATRIX_LIMIT, k=1))


def _pair_logs(points: np.ndarray, ends, n: int) -> np.ndarray:
    """``np.log`` of the pair gaps of the ``n`` points before each of ``ends``."""
    rows, cols = (ix[ix.size - n * (n - 1) // 2:] for ix in _pair_table())
    return np.log(points[ends + cols] - points[ends + rows])


def coulomb_energy(config) -> float:
    """Sum of ``log|x_k - x_l|`` over ordered pairs of distinct points.

    Points must be pairwise distinct: a gap below 1e-300 raises
    :class:`TypelabError` instead of poisoning downstream deficits with
    -inf, and so do points spanning more than the float range, instead of
    overflowing.
    """
    pts = np.sort(_as_points(config))
    n = pts.size
    if n < 2:
        raise TypelabError("coulomb energy needs at least 2 points")
    if not math.isfinite(float(pts[-1]) - float(pts[0])):
        raise TypelabError("points span more than the float range")
    if np.min(np.diff(pts)) < DEGENERATE_DISTANCE:
        raise TypelabError("two points closer than 1e-300")

    if n <= _MATRIX_LIMIT:
        # numpy's pairwise (cascade) summation keeps the error compensated
        # and the reduction order fixed for a given size
        return 2.0 * float(_pair_logs(pts, n, n).sum())

    # row-blocked pairwise sum; fixed block size keeps the reduction order
    # independent of the execution environment
    block_sums, row = [], np.empty(n - 1)
    for start in range(0, n - 1, _BLOCK):
        acc = 0.0
        for i in range(start, min(start + _BLOCK, n - 1)):
            gaps = np.subtract(pts[i + 1:], pts[i], out=row[:n - 1 - i])
            acc += float(np.log(gaps, out=gaps).sum())
        block_sums.append(acc)
    return 2.0 * math.fsum(block_sums)


def grid_energy_closed_form(delta: int, d: float) -> float:
    """Closed-form energy of the arithmetic grid ``{0, 1/d, ..., (delta-1)/d}``.

    Evaluates ``sum_m [lgamma(m) + lgamma(delta - m + 1)] - delta(delta-1) log d``
    via log-gamma, avoiding factorial overflow.
    """
    if not isinstance(delta, (int, np.integer)) or delta < 2:
        raise TypelabError(f"closed form needs an integer delta >= 2, got {delta!r}")
    if not 0 < d < math.inf:
        raise TypelabError(f"grid density d must be positive and finite, got {d!r}")
    lg = [math.lgamma(m) for m in range(1, delta + 1)]
    return math.fsum(a + b for a, b in zip(lg, reversed(lg))) - delta * (delta - 1) * math.log(d)


def energy_report(config, interval: Interval) -> EnergyReport:
    """Count, energy and deficit of ``config`` restricted to ``interval``.

    Requires ``|interval| >= 1`` so that the deficit is guaranteed
    nonnegative, and a length within the float range.  With at most one
    point inside, the energy is 0 and the deficit reduces to
    ``delta^2 log|I|``.
    """
    if not math.isfinite(interval.length):
        raise TypelabError(f"interval ({interval.left:g}, {interval.right:g}] "
                           "is longer than the float range")
    if interval.length < LEAST_LENGTH:
        raise TypelabError(f"interval length {interval.length} < {LEAST_LENGTH:g}")
    pts = np.sort(_as_points(config))
    lo = np.searchsorted(pts, interval.left, side="right")
    hi = np.searchsorted(pts, interval.right, side="right")
    delta = int(hi - lo)
    energy = coulomb_energy(pts[lo:hi]) if delta >= 2 else 0.0
    deficit = delta * delta * math.log(interval.length) - energy
    return EnergyReport(delta, energy, deficit, interval)


def check_intervals(points: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    lengths: np.ndarray) -> None:
    """Raise the error of the first interval that has one, in one pass over the gaps: a
    length not finite or below 1, or two of its points closer than 1e-300."""
    # close[t]: gaps below the limit among the first t gaps
    close = np.concatenate([[0], np.cumsum(np.diff(points) < DEGENERATE_DISTANCE)])
    degenerate = (hi - lo >= 2) & (close.take(hi - 1, mode="clip") > close.take(lo, mode="clip"))
    bad = np.flatnonzero(~(lengths >= LEAST_LENGTH) | (lengths == np.inf) | degenerate)
    if bad.size:
        first = bad[0]
        if not math.isfinite(lengths[first]):
            raise TypelabError(f"interval length {lengths[first]} is not finite")
        if lengths[first] < LEAST_LENGTH:
            raise TypelabError(f"interval length {lengths[first]} < {LEAST_LENGTH:g}")
        raise TypelabError("two points closer than 1e-300")


def interval_deficits(points: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                      lengths: np.ndarray) -> np.ndarray:
    """Deficit of ``points[lo[i]:hi[i]]`` in an interval of length ``lengths[i]``, for every i.

    ``points`` are sorted within each interval.  Gives the values and errors
    (:func:`check_intervals`) :func:`energy_report` gives interval by interval."""
    check_intervals(points, lo, hi, lengths)
    delta = hi - lo
    return delta * delta * map_libm(math.log, lengths) - interval_energies(points, lo, hi)


def interval_energies(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:func:`coulomb_energy` of every ``points[lo[i]:hi[i]]`` (0 below two points).

    ``points`` are sorted within each interval and their gaps already
    checked.  Up to 512 points, the pair logarithms of all intervals of one
    size come from one ``np.log`` call over the shared pair table, and each
    interval's row is summed on its own, as :func:`coulomb_energy` sums it
    (a reduction over ``axis=1`` is free to take another order).  Larger
    intervals take the row-blocked path of :func:`coulomb_energy`.
    """
    sizes = hi - lo
    out = np.zeros(sizes.size)
    for n in np.unique(sizes[(sizes >= 2) & (sizes <= _MATRIX_LIMIT)]).tolist():
        which = np.flatnonzero(sizes == n)
        step = max(1, _BATCH_TERMS // (n * (n - 1) // 2))
        for part in np.split(which, np.arange(step, which.size, step)):
            out[part] = [2.0 * float(row.sum()) for row in _pair_logs(points, hi[part, None], n)]
    for i in np.flatnonzero(sizes > _MATRIX_LIMIT).tolist():
        out[i] = coulomb_energy(points[lo[i]:hi[i]])
    return out
