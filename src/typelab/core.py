"""Shared domain types and the Poisson-tail primitives.

Everything downstream works on finite truncations: a symmetric window
``[-T, T]`` stands in for the real line, and every "is this series finite"
question becomes a :class:`SumVerdict`, a classification of the truncated
series backed by dyadic-shell diagnostics.

Conventions used throughout the package:

* intervals are half-open ``(left, right]``; a breakpoint belongs to the
  interval it closes on the right;
* the Poisson weight is ``1 / (1 + x^2)``;
* dyadic shell ``j`` collects contributions whose location satisfies
  ``2^j <= |x| < 2^(j+1)``; locations with ``|x| < 1`` form the inner
  remainder and never take part in the convergence fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the classes of a SumVerdict.  inconclusive never certifies a bound: a check
# that needs a summable series (a short family) needs convergent, and one that
# needs a divergent series (a long family) needs divergent
CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

# Least-squares slope thresholds of log(shell sum) vs shell index, fitted
# over the outer half of the nonempty shells.
SLOPE_CONVERGENT = -0.2
SLOPE_DIVERGENT = -0.05
MIN_SHELLS = 4

# the rounding a count may lose to d * length; read only by count_meets and lattice_count
COUNT_ROUNDING = 1e-9
# points a count may stray from d * length: the density leg's tolerance, a block's excess
SLACK_POINTS = 2.0


class TypelabError(Exception):
    """Input this package refuses; the CLI prints it and exits 2.  Callers catch
    only its subclasses ``InsufficientData`` and ``IllConditioned``."""


@dataclass(frozen=True)
class Interval:
    """Half-open interval ``(left, right]``."""

    left: float
    right: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.left) and math.isfinite(self.right)):
            raise TypelabError(f"interval endpoints must be finite, got ({self.left}, {self.right}]")
        if not self.right > self.left:
            raise TypelabError(f"interval needs right > left, got ({self.left}, {self.right}]")

    @property
    def length(self) -> float:
        return self.right - self.left


@dataclass(frozen=True)
class RealSequence:
    """Finite truncation of a discrete real sequence on ``[-T, T]``.

    Points are strictly increasing with no duplicates.  ``generator_tag``
    optionally records how the infinite extension would continue
    (e.g. ``"arithmetic(d=1)"``).
    """

    points: np.ndarray
    window: float
    generator_tag: str | None = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if not 0 < self.window < math.inf:  # also false on NaN
            raise TypelabError("window must be positive and finite")
        if pts.size:
            if np.any(pts[1:] <= pts[:-1]):
                raise TypelabError("points must be strictly increasing")
            if not np.max(np.abs(pts)) <= self.window:
                raise TypelabError("points must be finite and lie in [-T, T]")

    def __len__(self) -> int:
        return int(self.points.size)

    def count_in(self, left, right):
        """Number of points in ``(left, right]``; arrays of ends give an integer array."""
        pts = self.points
        counts = np.searchsorted(pts, right, side="right") - np.searchsorted(pts, left, side="right")
        return int(counts) if counts.ndim == 0 else counts

    def centered_indices(self) -> np.ndarray:
        """Enumeration indices with 0 at the first point ``>= 0``."""
        return np.arange(len(self)) - int(np.searchsorted(self.points, 0.0, side="left"))

    def to_dict(self) -> dict:
        out = {"points": self.points, "window": self.window}
        if self.generator_tag is not None:
            out["generator"] = self.generator_tag
        return out


@dataclass(frozen=True)
class Partition:
    """Contiguous half-open intervals tiling ``(first, last]``, with 0 a breakpoint."""

    breakpoints: np.ndarray

    def __post_init__(self) -> None:
        bks = np.asarray(self.breakpoints, dtype=float)
        object.__setattr__(self, "breakpoints", bks)
        if bks.size < 2:
            raise TypelabError("a partition needs at least two breakpoints")
        if not (np.isfinite(bks).all() and (bks[1:] > bks[:-1]).all()):
            raise TypelabError("breakpoints must be finite and strictly increasing")
        if not np.any(bks == 0.0):
            raise TypelabError("partition must contain 0 as a breakpoint")

    def index(self, points: np.ndarray) -> "PartitionIndex":
        """The intervals as arrays, with the slice of sorted ``points`` each holds."""
        bks = self.breakpoints
        at = np.searchsorted(points, bks, side="right")
        lefts, rights = bks[:-1], bks[1:]
        return PartitionIndex(lefts, rights, rights - lefts, dist0(lefts, rights),
                              at[:-1], at[1:])

    def __len__(self) -> int:
        return len(self.breakpoints) - 1


@dataclass(frozen=True)
class PartitionIndex:
    """Interval ``i`` is ``(lefts[i], rights[i]]`` and holds ``points[lo[i]:hi[i]]``."""

    lefts: np.ndarray
    rights: np.ndarray
    lengths: np.ndarray
    dist0: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        return self.hi - self.lo


def dist0(lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Distance from 0 to the closure of every ``(lefts[i], rights[i]]``."""
    return np.where(lefts > 0.0, lefts, np.where(rights < 0.0, -rights, 0.0))


def count_meets(count, d, length):
    """Whether ``count`` points meet the target ``d * length``, up to its rounding."""
    return count >= d * length - COUNT_ROUNDING


def lattice_count(d, length):
    """``floor(d * length)`` up to its rounding: a density-``d`` lattice's points in ``length``."""
    return np.floor(d * length + COUNT_ROUNDING)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite positive discrete measure: atoms at ``positions`` with ``masses``."""

    positions: np.ndarray
    masses: np.ndarray
    window: float
    tag: str | None = None

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        mas = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", mas)
        if pos.size == 0:
            raise TypelabError("measure needs at least one atom")
        if pos.shape != mas.shape:
            raise TypelabError("positions and masses must align")
        object.__setattr__(self, "_support", RealSequence(pos, self.window))  # its checks
        with np.errstate(over="ignore"):  # a finite measure has a finite total mass
            if np.any(mas <= 0) or not np.isfinite(mas.sum()):
                raise TypelabError("masses and their total must be positive and finite")

    def __len__(self) -> int:
        return int(self.positions.size)

    def mass_in(self, left, right, closed: bool = False):
        """Mass of ``(left, right]`` (default) or ``[left, right]``; arrays of ends give an array."""
        pos, masses = self.positions, self.masses.tolist()
        lo = np.searchsorted(pos, left, side="left" if closed else "right")
        hi = np.searchsorted(pos, right, side="right")
        # one fsum per interval, so that every mass is correctly rounded
        sums = [math.fsum(masses[a:b]) for a, b in zip(lo.ravel().tolist(), hi.ravel().tolist())]
        return sums[0] if lo.ndim == 0 else np.array(sums)

    def centered_indices(self) -> np.ndarray:
        return self._support.centered_indices()

    def to_dict(self) -> dict:
        out = {"atoms": np.column_stack((self.positions, self.masses)),
               "window": self.window}
        if self.tag is not None:
            out["tag"] = self.tag
        return out


MU_WEIGHT = "mu-weight"
SAMPLES = "samples"


@dataclass(frozen=True)
class WeightTable:
    """Piecewise-constant function: ``values[i]`` on ``(breakpoints[i], breakpoints[i+1]]``.

    ``kind="mu-weight"`` enforces values >= 1 and requires the
    weight not to dip toward the window edges (min over the outer 10% of
    the span must be >= min over the inner 10%).  ``kind="samples"`` only
    requires nonnegative values and is used for plain density samples.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    kind: str = MU_WEIGHT

    def __post_init__(self) -> None:
        bks = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "breakpoints", bks)
        object.__setattr__(self, "values", vals)
        if bks.size < 2 or vals.size != bks.size - 1:
            raise TypelabError("need n+1 breakpoints for n values")
        if not (np.isfinite(bks).all() and np.isfinite(vals).all()
                and (bks[1:] > bks[:-1]).all()):
            raise TypelabError("entries must be finite and breakpoints strictly increasing")
        if self.kind == MU_WEIGHT:
            if np.any(vals < 1.0):
                raise TypelabError("mu-weight values must be >= 1")
            mids, span = _mids(bks[:-1], bks[1:]), bks[-1] - bks[0]
            outer = vals[(mids <= bks[0] + 0.1 * span) | (mids >= bks[-1] - 0.1 * span)]
            inner = vals[(mids >= bks[0] + 0.45 * span) & (mids <= bks[0] + 0.55 * span)]
            if outer.size and inner.size and outer.min() < inner.min() - 1e-12 * abs(inner.min()):
                raise TypelabError("mu-weight must not dip toward the window edges")
        elif self.kind == SAMPLES:
            if np.any(vals < 0):
                raise TypelabError("sample values must be >= 0")
        else:
            raise TypelabError(f"unknown weight table kind {self.kind!r}")

    def evaluate(self, x) -> np.ndarray:
        """Evaluate the step function; clamps outside the covered span."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.searchsorted(self.breakpoints, xs, side="left") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        out = self.values[idx]
        return out if np.ndim(x) else float(out[0])


def _mids(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``0.5 * (a + b)``, with ``a`` and ``b`` halved first where ``a + b`` overflows."""
    with np.errstate(over="ignore"):
        s = a + b
    return np.where(np.isfinite(s), 0.5 * s, 0.5 * a + 0.5 * b)


@dataclass(frozen=True)
class SumVerdict:
    """Classification of a truncated nonnegative series.

    ``shell_sums`` lists ``(j, sum of terms with 2^j <= |location| < 2^(j+1))``;
    ``inner_sum`` holds the ``|location| < 1`` remainder, so that
    ``value_truncated == inner_sum + sum(shell sums)`` up to rounding.
    ``fit_ratio`` is the estimated geometric ratio between consecutive
    shell sums (``exp`` of the fitted slope), or None when no fit was made.
    A verdict reached without its terms has no sums and says why in ``note``.
    """

    value_truncated: float | None
    shell_sums: tuple[tuple[int, float], ...]
    inner_sum: float | None
    classification: str
    fit_ratio: float | None = None
    note: str | None = None


def shell_index(magnitudes: np.ndarray) -> np.ndarray:
    """Dyadic shell ``j`` (exactly ``2^j <= m < 2^(j+1)``) of each magnitude ``m >= 1``."""
    return np.frexp(magnitudes)[1] - 1


def map_libm(fn, xs: np.ndarray) -> np.ndarray:
    """The :mod:`math` function ``fn`` at every entry of ``xs``.

    numpy's own ``arctan`` and ``log1p`` differ from libm in the last ulp.
    """
    return np.fromiter(map(fn, xs.tolist()), dtype=float, count=xs.size)


def shell_sum_verdict(locations, values) -> SumVerdict:
    """Classify the series ``sum(values)`` whose terms live at ``locations``.

    Values must be nonnegative; they are binned into dyadic shells by
    ``|location|`` and the log of the (smoothed) shell sums is fitted
    against the shell index by least squares over the outer half of the
    shell range.  The slope decides: <= -0.2 convergent, >= -0.05
    divergent, otherwise inconclusive; fewer than four nonempty shells is
    always inconclusive.
    """
    locations = np.asarray(locations, dtype=float)
    values = np.asarray(values, dtype=float)
    if locations.shape != values.shape:
        raise TypelabError("locations and values must align")
    if np.any(values < 0):
        raise TypelabError("series terms must be nonnegative")

    total = math.fsum(values.tolist())
    mags = np.abs(locations)
    inner = mags < 1.0
    shells = shell_index(mags[~inner])
    order = np.argsort(shells, kind="stable")
    js, starts = np.unique(shells[order], return_index=True)
    # fsum is correctly rounded, so the grouping order cannot change a sum
    groups = np.split(values[~inner][order], starts[1:])
    shell_sums = tuple((j, math.fsum(g.tolist())) for j, g in zip(js.tolist(), groups))
    inner_sum = math.fsum(values[inner].tolist())

    classification, ratio = _classify_shells(shell_sums)
    return SumVerdict(total, shell_sums, inner_sum, classification, ratio)


def _classify_shells(shell_sums: tuple) -> tuple[str, float | None]:
    count = len(shell_sums)
    if count < MIN_SHELLS:
        return INCONCLUSIVE, None
    shells = shell_sums
    if count > MIN_SHELLS:
        # the outermost shell is usually clipped by the window and would
        # bias the fit downward
        shells = shells[:-1]
    # fit on 3-shell moving-window means: a geometric sequence keeps its
    # slope while binning jitter (a term landing just under a dyadic
    # boundary empties its neighbour shell) is smoothed away
    j_lo, j_hi = shells[0][0], shells[-1][0]
    dense = {j: 0.0 for j in range(j_lo, j_hi + 1)}
    dense.update(dict(shells))
    # the topmost window would be right-clipped and could fake a decaying
    # tail out of a single straggler shell, so the fit stops one short
    windows = []
    for j in range(j_lo, j_hi):
        vals = [dense[i] for i in (j - 1, j, j + 1) if j_lo <= i <= j_hi]
        windows.append((j, math.fsum(vals) / len(vals)))
    outer = windows[len(windows) // 2:]
    pts = [(j, math.log(s)) for j, s in outer if s > 0.0]
    if len(pts) < 2:
        if all(s == 0.0 for _, s in outer):
            # tail vanishes identically: nothing left to sum
            return CONVERGENT, 0.0
        return INCONCLUSIVE, None
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    xbar, ybar = xs.mean(), ys.mean()
    # the fit has at least two distinct shell indices, so a positive denominator
    slope = float(np.sum((xs - xbar) * (ys - ybar)) / np.sum((xs - xbar) ** 2))
    ratio = math.exp(min(max(slope, -700.0), 700.0))
    if slope <= SLOPE_CONVERGENT:
        return CONVERGENT, ratio
    if slope >= SLOPE_DIVERGENT:
        return DIVERGENT, ratio
    return INCONCLUSIVE, ratio


def poisson_tail_sum(terms) -> SumVerdict:
    """Classify ``sum value/(1 + location^2)`` for ``terms = [(location, value), ...]``.

    The nonnegative finite ``value`` entries are Poisson-weighted at their
    locations and handed to the dyadic-shell classifier; an empty list
    yields value 0 and an inconclusive verdict.
    """
    locs, vals = np.asarray(terms, dtype=float).reshape(-1, 2).T
    if np.any(vals < 0):
        raise TypelabError("poisson_tail_sum requires nonnegative values")
    if not np.isfinite(vals).all():
        raise TypelabError("a term of the Poisson series is beyond the float range")
    with np.errstate(over="ignore"):  # past |x| = 1.3e154 the weight rounds to 0
        weights = 1.0 / (1.0 + locs * locs)
    return shell_sum_verdict(locs, vals * weights)


def poisson_piece_contributions(pieces) -> np.ndarray:
    """Exact Poisson integrals of a step function, split at dyadic bounds.

    ``pieces`` holds rows ``(left, right, value)``; each piece is cut at the
    shell boundaries ``+-2^j`` so that every returned row
    ``(location, integral)`` lies in a single shell.  The integral of
    ``value/(1+x^2)`` over ``[u, v]`` is ``value * (atan v - atan u)``.
    """
    arr = np.asarray(pieces, dtype=float).reshape(-1, 3)
    u, v, owner = split_at_shells(arr[:, 0], arr[:, 1])
    contribs = arr[owner, 2] * (map_libm(math.atan, v) - map_libm(math.atan, u))
    return np.column_stack((_mids(u, v), contribs))


def poisson_step_verdict(lefts, rights, values) -> SumVerdict:
    """Classify the Poisson integral of the step function ``values[i]`` on
    ``[lefts[i], rights[i]]``, from its :func:`poisson_piece_contributions`."""
    pieces = np.column_stack((lefts, rights, values))
    return shell_sum_verdict(*poisson_piece_contributions(pieces).T)


# 0 and every dyadic shell boundary +-2^j (j >= 0) below the largest double
_SHELL_CUTS = np.concatenate([-np.ldexp(1.0, np.arange(1023, -1, -1)), [0.0],
                              np.ldexp(1.0, np.arange(1024))])


def split_at_shells(lefts, rights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut every ``[left, right]`` at 0 and at each ``+-2^j`` strictly inside it.

    Returns ``(u, v, owner)``: the cut pieces ``[u, v]`` in input order,
    each piece's own cuts ascending, and the input index each came from.
    An input with ``right <= left`` yields no piece.
    """
    lefts = np.asarray(lefts, dtype=float)
    rights = np.asarray(rights, dtype=float)
    first = np.searchsorted(_SHELL_CUTS, lefts, side="right")
    inside = np.searchsorted(_SHELL_CUTS, rights, side="left") - first
    counts = np.where(rights > lefts, inside + 1, 0)
    owner = np.repeat(np.arange(lefts.size), counts)
    k = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cut = first[owner] + k
    u = np.where(k == 0, lefts[owner], _SHELL_CUTS.take(cut - 1, mode="clip"))
    v = np.where(k == inside[owner], rights[owner], _SHELL_CUTS.take(cut, mode="clip"))
    return u, v, owner

