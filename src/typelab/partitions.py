"""Long/short classification of interval families and short-partition search.

A disjoint family ``{I_n}`` is long when ``sum |I_n|^2 / (1 + dist^2(0, I_n))``
diverges and short when it converges; a short partition additionally tiles
the window with interval lengths growing toward the edges.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    CONVERGENT,
    Partition,
    RealSequence,
    SumVerdict,
    TypelabError,
    dist0,
    poisson_tail_sum,
)


SCALAR_PROBE = 4  # points _first_reach tests as floats before its array chunks


class OverlappingIntervals(TypelabError):
    pass


class InsufficientData(TypelabError):
    pass


class NotShort(TypelabError):
    pass


def family_bounds(family) -> tuple[np.ndarray, np.ndarray]:
    """``(lefts, rights)`` of a disjoint family, a :class:`Partition`, intervals or
    an array of ``(left, right)`` rows, ordered by left end; raises
    :class:`OverlappingIntervals` naming the first overlapping pair."""
    if isinstance(family, Partition):
        return family.breakpoints[:-1], family.breakpoints[1:]
    if not isinstance(family, np.ndarray):
        family = [(iv.left, iv.right) for iv in family]
    ends = np.asarray(family, dtype=float).reshape(-1, 2)
    lefts, rights = ends[np.argsort(ends[:, 0], kind="stable")].T
    overlap = np.flatnonzero(lefts[1:] < rights[:-1])
    if overlap.size:
        i = overlap[0]
        raise OverlappingIntervals(f"({lefts[i]}, {rights[i]}] overlaps "
                                   f"({lefts[i + 1]}, {rights[i + 1]}]")
    return lefts, rights


def classify_family(intervals) -> SumVerdict:
    """Short/long verdict for a disjoint interval family (see :func:`family_bounds`).

    Feeds ``(dist(0, I_n), |I_n|^2)`` to the Poisson tail classifier:
    convergent means short, divergent means long.  A length whose square
    is not finite raises :class:`TypelabError`.
    """
    lefts, rights = family_bounds(intervals)
    locations, lengths = dist0(lefts, rights), (rights - lefts).tolist()
    try:
        # libm pow: it differs from x * x in the last bit
        squares = [x ** 2 for x in lengths]
    except OverflowError:
        squares = [math.inf]
    if not all(map(math.isfinite, squares)):
        raise TypelabError("an interval is too long for its squared length to be finite")
    return poisson_tail_sum(list(zip(locations, squares)))


def _min_length(rank: int, scale: float) -> float:
    return scale * max(1.0, math.sqrt(rank))


def _grow_side(points: np.ndarray, T: float, d: float, scale: float) -> list[float]:
    """Greedy breakpoints 0 < b_1 < ... <= T for one side.

    Each interval grows from the previous breakpoint until its length
    reaches the rank-dependent minimum and its point count reaches
    ``d * length``; if the count condition is unreachable the interval
    runs to the window edge.
    """
    bks: list[float] = []
    b = 0.0
    base = int(points.searchsorted(b, "right"))  # points[:base] are <= b
    stop = int(points.searchsorted(T, "right"))  # points[:stop] are <= T
    rank = 1
    while b < T:
        L = _min_length(rank, scale)
        xmin = b + L
        if xmin >= T:
            break
        reach = int(points.searchsorted(xmin, "right"))
        nxt = (xmin if reach - base >= d * L - 1e-9
               else _first_reach(points, stop, d, b, base, xmin))
        if nxt is None or nxt >= T:
            break
        base = reach if nxt == xmin else int(points.searchsorted(nxt, "right"))
        bks.append(nxt)
        b = nxt
        rank += 1
    # close the side at the window edge; a sliver shorter than 1 is merged
    # into the last interval
    if bks and T - bks[-1] < 1.0:
        bks[-1] = T
    elif b < T:
        bks.append(T)
    return bks


def _first_reach(points: np.ndarray, stop: int, d: float, b: float, base: int,
                 xmin: float) -> float | None:
    """First point ``p_k >= xmin`` (and ``k < stop``) where the interval ``(b, p_k]``
    holds at least ``d * (p_k - b)`` points, or None.

    Tests the first :data:`SCALAR_PROBE` points one at a time (most hits are
    the first), then galloping chunks of 64, 128, 256, ... points at a time,
    so the work stays proportional to the distance to the hit.
    """
    lo = int(points.searchsorted(xmin, "left"))
    for k in range(lo, min(lo + SCALAR_PROBE, stop)):
        p = points.item(k)
        if k - base + 1 >= d * (p - b) - 1e-9:
            return p
    k, size = lo + SCALAR_PROBE, 64
    while k < stop:
        pk = points[k:min(k + size, stop)]
        ks = np.arange(k, k + pk.size)
        hits = np.flatnonzero(ks - base + 1 >= d * (pk - b) - 1e-9)
        if hits.size:
            return float(pk[hits[0]])
        k += size
        size *= 2
    return None


def find_short_partition(seq: RealSequence, d: float, min_length_scale: float = 1.0) -> Partition:
    """Deterministic greedy short-partition candidate adapted to ``seq``.

    Grows intervals left-to-right from 0 (mirrored on the negative side)
    targeting ``count = d * length`` per interval, with minimum lengths
    growing like sqrt(rank) so the family stays short for regular inputs.
    Raises :class:`InsufficientData` when fewer than four intervals fit in
    the window.
    """
    if d <= 0:
        raise TypelabError("target density d must be positive")
    T = seq.window
    pts = seq.points
    # _first_reach's target count d * (p - b) may overflow to inf, which no
    # interval reaches: the right verdict, so the overflow needs no warning
    with np.errstate(over="ignore"):
        right = _grow_side(pts[pts.searchsorted(0.0, "right"):], T, d, min_length_scale)
        mirrored = -pts[:pts.searchsorted(0.0)][::-1]  # the points are increasing
        left = [-x for x in _grow_side(mirrored, T, d, min_length_scale)]
    breakpoints = sorted(left) + [0.0] + right
    if len(breakpoints) - 1 < 4:
        raise InsufficientData(
            f"window supports only {len(breakpoints) - 1} intervals at d={d}")
    return Partition(np.asarray(breakpoints))


def short2I_diagnostic(family, C: float) -> SumVerdict:
    """Overlap-length diagnostic of a short family under concentric dilation.

    For each interval, ``l_n`` is the total length of the family members
    meeting the C-fold dilation of ``I_n``; returns the Poisson tail verdict
    of ``sum l_n |I_n| / (1 + dist^2(0, I_n))``, which must come out
    convergent whenever the input family is short.
    """
    if C <= 1:
        raise TypelabError("dilation factor must exceed 1")
    base = classify_family(family)
    if base.classification != CONVERGENT:
        raise NotShort(f"input family classifies {base.classification}, not short")

    lefts, rights = family_bounds(family)
    lengths = rights - lefts
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        half, mids = 0.5 * C * lengths, 0.5 * (lefts + rights)
        dil_lefts, dil_rights = mids - half, mids + half
    if not (np.isfinite([dil_lefts, dil_rights]).all() and (dil_rights > dil_lefts).all()):
        raise TypelabError(f"a {C:g}-fold dilation is not a finite interval with right > left")
    # members m with lefts[m] < dil_rights[n] and rights[m] > dil_lefts[n]
    his = np.searchsorted(lefts, dil_rights, side="left").tolist()
    los = np.searchsorted(rights, dil_lefts, side="right").tolist()
    l_n = [float(lengths[lo:hi].sum()) if hi > lo else 0.0 for lo, hi in zip(los, his)]
    return poisson_tail_sum(np.column_stack((dist0(lefts, rights), np.array(l_n) * lengths)))
