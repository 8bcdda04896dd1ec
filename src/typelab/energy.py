"""Coulomb energy of finite point configurations.

The energy of a configuration is the sum of ``log|x_k - x_l|`` over ordered
pairs ``k != l`` (every unordered pair counted twice, matching the per-point
factorial closed form for arithmetic grids).  The deficit of a configuration
inside an interval ``I`` is ``count^2 * log|I| - energy``; it is nonnegative
whenever ``|I| >= 1`` and measures how far the points are from uniform.
One kernel, :func:`interval_energies`, sums every energy; the ``suite`` rows
``energy-closed-form`` and ``deficit-positivity`` each take theirs in one pass.
Up to 512 points the pairs come from one table built on first use: the last
n(n-1)/2 entries of ``np.triu_indices(512, 1) - 512``, added to the end of n
points, are ``np.triu_indices(n, 1)``.  Above 512 points the gaps and logs are
taken 16 rows per call in 256-row blocks, each row summed on its own.
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
_CHUNK = 16  # rows per subtract and log call of _row_blocked_energy; divides _BLOCK
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
    return float(interval_energies(pts, np.array([0]), np.array([n]))[0])


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
    pts = np.sort(_as_points(config))
    pts = pts[slice(*np.searchsorted(pts, [interval.left, interval.right], side="right"))]
    lo, hi, delta = np.array([0]), np.array([pts.size]), pts.size
    check_intervals(pts, lo, hi, np.array([interval.length]))
    energy = float(interval_energies(pts, lo, hi)[0])
    return EnergyReport(delta, energy, delta * delta * math.log(interval.length) - energy, interval)


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
    interval's row is summed on its own by numpy's pairwise summation, whose
    order is fixed for a given size (a reduction over ``axis=1`` is free to
    take another).  Larger intervals are summed row by row.
    """
    sizes = hi - lo
    out = np.zeros(sizes.size)
    for n in np.unique(sizes[(sizes >= 2) & (sizes <= _MATRIX_LIMIT)]).tolist():
        which = np.flatnonzero(sizes == n)
        step = max(1, _BATCH_TERMS // (n * (n - 1) // 2))
        for part in (which[s:s + step] for s in range(0, which.size, step)):
            out[part] = [2.0 * np.add.reduce(row) for row in _pair_logs(points, hi[part, None], n)]
    for i in np.flatnonzero(sizes > _MATRIX_LIMIT).tolist():
        out[i] = _row_blocked_energy(points[lo[i]:hi[i]])
    return out


def _row_blocked_energy(pts: np.ndarray) -> float:
    """The energy of more than 512 sorted points: gaps and logs of 16 rows per call (below the
    diagonal unread), each row summed alone into its 256-row block, in an order fixed by the sizes."""
    n = pts.size
    block_sums, buf = [], np.empty(_CHUNK * (n - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, n - 1, _BLOCK):
            acc = 0.0
            for s in range(start, min(start + _BLOCK, n - 1), _CHUNK):
                k = min(_CHUNK, n - 1 - s)
                gaps = buf[:k * (n - 1 - s)].reshape(k, -1)
                np.log(np.subtract(pts[s + 1:], pts[s:s + k, None], out=gaps), out=gaps)
                for r in range(k):
                    acc += float(np.add.reduce(gaps[r, r:]))
            block_sums.append(acc)
    return 2.0 * math.fsum(block_sums)
