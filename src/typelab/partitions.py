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
    Interval,
    Partition,
    RealSequence,
    SumVerdict,
    TypelabError,
    dist0,
    poisson_tail_sum,
)


class OverlappingIntervals(TypelabError):
    pass


class InsufficientData(TypelabError):
    pass


class NotShort(TypelabError):
    pass


def _as_intervals(family) -> list[Interval]:
    if isinstance(family, Partition):
        return family.intervals
    return list(family)


def classify_family(intervals) -> SumVerdict:
    """Short/long verdict for a disjoint interval family.

    Feeds ``(dist(0, I_n), |I_n|^2)`` to the Poisson tail classifier:
    convergent means short, divergent means long.  A length whose square
    is not finite raises :class:`TypelabError`.
    """
    if isinstance(intervals, Partition):
        bks = intervals.breakpoints
        locations, lengths = dist0(bks[:-1], bks[1:]), np.diff(bks).tolist()
    else:
        ivs = sorted(intervals, key=lambda i: i.left)
        for prev, cur in zip(ivs, ivs[1:]):
            if cur.left < prev.right:
                raise OverlappingIntervals(
                    f"({prev.left}, {prev.right}] overlaps ({cur.left}, {cur.right}]")
        locations, lengths = [iv.dist0() for iv in ivs], [iv.length for iv in ivs]
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
    rank = 1
    while b < T:
        L = _min_length(rank, scale)
        xmin = b + L
        if xmin >= T:
            break
        base = int(np.searchsorted(points, b, side="right"))
        cmin = int(np.searchsorted(points, xmin, side="right")) - base
        nxt = xmin if cmin >= d * L - 1e-9 else _first_reach(points, T, d, b, base, xmin)
        if nxt is None or nxt >= T:
            break
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


def _first_reach(points: np.ndarray, T: float, d: float, b: float, base: int,
                 xmin: float) -> float | None:
    """First point ``p_k >= xmin`` (and ``<= T``) where the interval ``(b, p_k]``
    holds at least ``d * (p_k - b)`` points, or None.

    Tests galloping chunks of 64, 128, 256, ... points at a time, so the work
    stays proportional to the distance to the hit.
    """
    k = int(np.searchsorted(points, xmin, side="left"))
    stop = int(np.searchsorted(points, T, side="right"))
    size = 64
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
    right = _grow_side(pts[pts > 0.0], T, d, min_length_scale)
    mirrored = np.sort(-pts[pts < 0.0])
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
    ivs = sorted(_as_intervals(family), key=lambda i: i.left)
    base = classify_family(ivs)
    if base.classification != CONVERGENT:
        raise NotShort(f"input family classifies {base.classification}, not short")

    lefts = np.array([iv.left for iv in ivs])
    rights = np.array([iv.right for iv in ivs])
    lengths = rights - lefts
    terms = []
    for iv in ivs:
        dil = iv.dilate(C)
        # members m with lefts[m] < dil.right and rights[m] > dil.left
        hi = int(np.searchsorted(lefts, dil.right, side="left"))
        lo = int(np.searchsorted(rights, dil.left, side="right"))
        l_n = float(lengths[lo:hi].sum()) if hi > lo else 0.0
        terms.append((iv.dist0(), l_n * iv.length))
    return poisson_tail_sum(terms)
