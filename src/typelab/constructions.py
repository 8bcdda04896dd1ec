"""Generators for the bundled test families.

Includes two constructive procedures: the auxiliary pair/fill sequence
built around a weighted base sequence, and the block construction placing
points at equal measure inside a prescribed union of intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    COUNT_ROUNDING,
    DiscreteMeasure,
    Partition,
    RealSequence,
    TypelabError,
    WeightTable,
)

# most intervals alternating_partition tiles, and most points benedicks_sequence places
CONSTRUCTION_MAX_SIZE = 100_000
# most points arithmetic builds
ARITHMETIC_MAX_POINTS = 1_000_000
# (C1, C2, C3) of the admissibility conditions benedicks_sequence requires
BENEDICKS_CONSTANTS = (8.0, 8.0, 0.4)


def arithmetic(d: float, T: float) -> RealSequence:
    """Arithmetic progression of density ``d``: points ``k/d`` with ``|k/d| <= T``.

    ``d`` and ``T`` must be finite and positive, and the progression, about
    ``2 d T`` points, at most :data:`ARITHMETIC_MAX_POINTS` of them.
    """
    if not all(math.isfinite(v) and v > 0 for v in (d, T)):
        raise TypelabError("d and T must be finite and positive")
    if 2.0 * d * T + 1.0 > ARITHMETIC_MAX_POINTS:
        raise TypelabError(f"arithmetic progression of density {d:g} on [-{T:g}, {T:g}] "
                           f"would have more than {ARITHMETIC_MAX_POINTS} points")
    kmax = int(math.floor(d * T + COUNT_ROUNDING))
    while kmax / d > T:     # the slack may take a point just outside [-T, T]
        kmax -= 1
    pts = np.arange(-kmax, kmax + 1, dtype=float) / d
    return RealSequence(pts, T, f"arithmetic(d={d:g})")


@np.errstate(over="ignore")  # an overflowing exponent is +-inf, and exp(-inf) = 0 is meant
def perturb_exponential(seq: RealSequence, c: float, rng_seed: int) -> RealSequence:
    """Shift each point by a seeded uniform offset within ``+-exp(-c|x|)``.

    The output is re-sorted; exact collisions keep the earlier point.
    """
    if c <= 0:
        raise TypelabError("decay rate c must be positive")
    rng = np.random.default_rng(rng_seed)
    pts = seq.points
    offsets = rng.uniform(-1.0, 1.0, size=pts.size) * np.exp(-c * np.abs(pts))
    shifted = np.sort(pts + offsets)
    shifted = np.clip(shifted, -seq.window, seq.window)
    keep = np.ones(shifted.size, dtype=bool)
    keep[1:] = np.diff(shifted) > 0.0  # exact collisions keep the earlier point
    return RealSequence(shifted[keep], seq.window,
                        f"perturbed(c={c:g}, seed={rng_seed})")


def alternating_partition(even_len: float, odd_len: float, T: float) -> Partition:
    """Symmetric tiling by alternating intervals, even-length first after 0.

    Index parity is anchored at the breakpoint 0: the interval just right
    of 0 has even index (length ``even_len``), the one just left of 0 has
    odd index (length ``odd_len``).  The lengths and ``T`` must be finite
    and positive, and the tiling of ``[-T, T]``, about ``4 T / (even_len +
    odd_len)`` intervals, at most :data:`CONSTRUCTION_MAX_SIZE` of them.
    """
    if not all(math.isfinite(v) and v > 0 for v in (even_len, odd_len, T)):
        raise TypelabError("interval lengths and T must be finite and positive")
    if T / (even_len + odd_len) > CONSTRUCTION_MAX_SIZE / 4:
        raise TypelabError(f"tiling of [-{T:g}, {T:g}] would have more than "
                           f"{CONSTRUCTION_MAX_SIZE} intervals")
    # pairs of steps per side: enough to pass T, with room for rounding
    pairs = int(T / (even_len + odd_len)) + 2
    with np.errstate(over="ignore"):  # Partition refuses an infinite breakpoint
        sums = [np.cumsum(np.tile(steps, pairs)) for steps in ((even_len, odd_len),
                                                               (odd_len, even_len))]
    # each side ends with the first pair that reaches T
    right, left = (c[:2 * int(np.argmax(c[1::2] >= T)) + 2] for c in sums)
    return Partition(np.unique(np.concatenate([-left, [0.0], right])))


@dataclass(frozen=True)
class AuxiliaryFamily:
    """Output of the pair/fill construction around a base sequence."""

    a_sequence: RealSequence      # pair points plus uniform gap fill
    c_sequence: RealSequence      # midpoints of consecutive A-points
    b_matched: RealSequence       # base points recovered as midpoints
    max_gap: float
    max_pair_width: float
    pair_widths: np.ndarray       # aligned with the interior base points
    fill_count: int

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "pair_widths"}


def auxiliary_sequence(B: RealSequence, w: WeightTable, epsilon: float,
                       L: float) -> AuxiliaryFamily:
    """Surround each base point with a weighted pair and fill long gaps.

    Around each interior base point ``b`` a pair ``b -+ l/3`` is placed,
    where ``l = min(gap left, gap right, w(b))``; gaps between consecutive
    pairs longer than ``L`` receive ``floor(gap/L)`` uniformly spaced fill
    points.  Every base point is then exactly the midpoint of its pair, so
    it reappears in the midpoint sequence C.

    Requires ``L >= 1/epsilon`` (fill spacing consistent with the gap bound), strictly
    positive finite weights and at most :data:`CONSTRUCTION_MAX_SIZE` fill points.
    """
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
    gaps_left = b[1:-1] - b[:-2]
    gaps_right = b[2:] - b[1:-1]
    l = np.minimum(np.minimum(gaps_left, gaps_right), wb[1:-1])
    centers = b[1:-1]
    if np.any(l / 3.0 <= 4.0 * np.spacing(np.abs(centers))):
        raise TypelabError(
            "pair widths fall below the float spacing of the base points; "
            "shrink the window or raise the weights")
    pairs = np.empty(2 * centers.size)
    pairs[0::2] = centers - l / 3.0
    pairs[1::2] = centers + l / 3.0

    lo, gap = pairs[1:-1:2], np.diff(pairs)[1::2]
    with np.errstate(over="ignore"):  # an infinite fill is refused just below
        m = np.where(gap > L, np.floor(gap / L), 0.0)
        if m.sum() > CONSTRUCTION_MAX_SIZE:
            raise TypelabError(f"the gap fill would have more than {CONSTRUCTION_MAX_SIZE} points")
    m = m.astype(int)
    owner = np.repeat(np.arange(gap.size), m)
    k = np.arange(owner.size) - np.repeat(np.cumsum(m) - m, m) + 1
    fill = lo[owner] + k * gap[owner] / (m[owner] + 1)
    a_pts = np.sort(np.concatenate([pairs, fill]))
    a_seq = RealSequence(a_pts, B.window, "auxiliary-A")
    c_pts = 0.5 * (a_pts[:-1] + a_pts[1:])
    c_seq = RealSequence(c_pts, B.window, "auxiliary-C")

    # base points reappear as pair midpoints, up to rounding
    scale = max(1.0, float(np.max(np.abs(b))))
    matched = centers[np.isclose(centers[:, None], c_pts[None, :],
                                 atol=1e-9 * scale, rtol=0.0).any(axis=1)]
    widths = 2.0 * l / 3.0
    return AuxiliaryFamily(
        a_seq, c_seq,
        RealSequence(matched, B.window, "auxiliary-B-matched"),
        float(np.max(np.diff(a_pts))) if a_pts.size > 1 else 0.0,
        float(np.max(widths)),
        widths,
        fill.size,
    )


@dataclass(frozen=True)
class BenedicksFamily:
    sequence: RealSequence
    blocks: Partition
    block_counts: tuple[int, ...]


def default_block_growth(n: int) -> int:
    return max(1, math.ceil(math.log(2 + abs(n))))


def benedicks_sequence(partition: Partition, C: float) -> BenedicksFamily:
    """Place points at equal measure inside the even intervals of blocks.

    The alternating partition is regrouped into blocks spanning a slowly
    growing number of cells; each block of length ``|J|`` receives
    ``floor(C |J|)`` points inside the union of its even intervals, spaced
    so that the margins and all inner gaps carry equal measure of that
    union.  Fails with the failing conditions when the alternating partition
    does not satisfy the admissibility conditions at
    :data:`BENEDICKS_CONSTANTS`.  ``C`` must be finite and positive, and the
    sequence, about ``C`` times the partition's span, at most
    :data:`CONSTRUCTION_MAX_SIZE` points.
    """
    from .typeproblem import benedicks_conditions  # deferred: avoids import cycle

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
    n_min = -i0
    n_max = len(bks) - 1 - i0

    # block boundaries in units of even-interval index: n_{k+1} = n_k + growth(n_k)
    # rightward and n_{k-1} = n_k - growth(n_k) leftward, growth = default_block_growth
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

    # block k spans the breakpoints at[k]..at[k + 1]; every other one starts an even interval
    at = i0 + 2 * np.asarray(marks)
    lengths = np.diff(bks)
    placed = [_equal_measure_points(bks[lo:hi:2], lengths[lo:hi:2],
                                    int(math.floor(C * (bks[hi] - bks[lo]))))
              for lo, hi in zip(at[:-1].tolist(), at[1:].tolist())]
    seq = RealSequence(np.sort(np.concatenate(placed)),
                       float(max(abs(bks[0]), abs(bks[-1]))),
                       f"benedicks(C={C:g})")
    return BenedicksFamily(seq, Partition(bks[at]), tuple(p.size for p in placed))


def _equal_measure_points(lefts: np.ndarray, lengths: np.ndarray, n: int) -> np.ndarray:
    """Invert the cumulative length of the intervals at ``n`` equally spaced levels.

    A level on a plateau edge, where one interval ends, goes to the left end
    of the next one.
    """
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    levels = cum[-1] * np.arange(1, n + 1) / (n + 1)
    idx = np.minimum(np.searchsorted(cum, levels, side="right"), lengths.size) - 1
    return lefts[idx] + (levels - cum[idx])


@np.errstate(over="ignore")
def weight_families(name: str, params: dict | None, indices) -> np.ndarray:
    """Point-weight families evaluated at integer indices.

    Known names: ``polynomial`` ((1+n^2)^-beta), ``exponential``
    (exp(-c|n|)), ``super-exponential`` (exp(-n^2)) and ``mixed``
    (exponential on even n, polynomial on odd n).
    """
    params = dict(params or {})
    n = np.asarray(list(indices), dtype=float)
    if name == "polynomial":
        beta = float(params.get("beta", 2.0))
        return (1.0 + n * n) ** (-beta)
    if name == "exponential":
        c = float(params.get("c", 1.0))
        return np.exp(-c * np.abs(n))
    if name == "super-exponential":
        return np.exp(-n * n)
    if name == "mixed":
        beta = float(params.get("beta", 2.0))
        c = float(params.get("c", 1.0))
        even = np.mod(np.abs(n), 2) < 0.5
        return np.where(even, np.exp(-c * np.abs(n)), (1.0 + n * n) ** (-beta))
    raise TypelabError(f"unknown weight family {name!r}")


def measure_from_weights(support: RealSequence, name: str,
                         params: dict | None = None) -> DiscreteMeasure:
    """Discrete measure on ``support`` with family weights at centered indices."""
    idx = support.centered_indices()
    masses = weight_families(name, params, idx)
    tag = f"{support.generator_tag or 'seq'}+{name}"
    return DiscreteMeasure(support.points.copy(), masses, support.window, tag)
