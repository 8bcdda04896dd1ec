"""Array kernels checked for bit-for-bit equality with the scalar loops they replaced.

The ``ref_*`` functions are the former per-element implementations, kept
here as oracles.  Reports are byte-identical only if every float the array
code produces equals the one the loop produced, so the comparisons below
use ``==``, never ``approx``.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from typelab.core import (
    DiscreteMeasure,
    Partition,
    RealSequence,
    poisson_tail_sum,
    poisson_piece_contributions,
    shell_sum_verdict,
    split_at_shells,
    split_pieces_at_shells,
)
from typelab.density import (
    _farthest_points,
    counting_function,
    spread_selection,
    strong_regularity_defect,
)
from typelab.energy import (
    DegenerateDistance,
    IntervalTooShort,
    coulomb_energy,
    energy_report,
    interval_energies,
)
from typelab.partitions import _grow_side, _min_length, classify_family
from typelab.serialize import canonical_json, format_float, load_measure
from typelab import typeproblem
from typelab.core import CONVERGENT
from typelab.typeproblem import (
    INCONCLUSIVE,
    WEIGHT_BUDGET,
    BadAlternation,
    Conclusion,
    TheoremVerdict,
    _counting_growth_summable,
    benedicks_conditions,
    weight_filter_mask,
)
from typelab.uniformity import check_d_uniform, check_density, check_energy

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


def ref_weight_filter_mask(measure, denominator, budget=WEIGHT_BUDGET):
    pen = np.maximum(0.0, -np.log(measure.masses))
    n = (measure.centered_indices().astype(float) if denominator == "index"
         else measure.positions)
    penalties = pen / (1.0 + n * n)
    keep = np.ones(len(measure), dtype=bool)
    for i, (p, ni) in enumerate(zip(penalties, n)):
        ax = abs(ni)
        if ax < 1.0:
            continue
        j = math.frexp(ax)[1] - 1
        if p > budget * 2.0 ** (-1.5 * j):
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


def ref_spread_selection(seq, partition, d):
    pts = seq.points
    chosen = []
    for iv in partition.intervals:
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
    """The per-interval energy_report loop of the former check_energy and _evaluate."""
    deficits, terms = [], []
    for iv in partition.intervals:
        rep = energy_report(seq, iv)
        deficits.append(rep.deficit)
        terms.append((iv.dist0(), max(rep.deficit, 0.0)))
    return deficits, poisson_tail_sum(terms)


def ref_check_density(seq, partition, d):
    ratios = []
    sides = {"left": [], "right": []}
    for iv in partition.intervals:
        count = seq.count_in(iv.left, iv.right)
        ratio = count / iv.length
        ratios.append(ratio)
        tol = max(0.05 * d, 2.0 / iv.length)
        row = (iv.dist0(), abs(ratio - d), abs(ratio - d) - tol)
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
    return poisson_tail_sum([(iv.dist0(), iv.length ** 2) for iv in ivs])


def ref_benedicks_conditions(partition, C1, C2, C3):
    bks = partition.breakpoints
    zero_idx = np.flatnonzero(np.abs(bks) < 1e-12)
    if zero_idx.size != 1:
        raise BadAlternation("alternating partition needs 0 as a breakpoint")
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


def outcome(fn, *args):
    """Result of ``fn``, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (IntervalTooShort, DegenerateDistance) as exc:
        return type(exc), str(exc)


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
        u, v, owner = split_pieces_at_shells([p[0] for p in pairs], [p[1] for p in pairs])
        expected = [(i, piece) for i, (l, r) in enumerate(pairs)
                    for piece in ref_split_at_shells(l, r)]
        assert owner.tolist() == [i for i, _ in expected]
        assert list(zip(u.tolist(), v.tolist())) == [piece for _, piece in expected]

    @given(ordered_pairs())
    @settings(max_examples=300)
    def test_scalar_entry_point_matches(self, pair):
        assert split_at_shells(*pair) == ref_split_at_shells(*pair)

    @given(ordered_pairs(small_coords))
    @settings(max_examples=300)
    def test_split_at_shells_covers(self, pair):
        left, right = pair
        if not left < right:
            return
        pieces = split_at_shells(left, right)
        assert pieces[0][0] == left and pieces[-1][1] == right
        for (a, b), (c, _) in zip(pieces, pieces[1:]):
            assert b == c
        # no piece straddles a dyadic boundary or zero
        for a, b in pieces:
            assert (a >= 0) == (b > 0) or a == 0.0
            assert not any(a < s < b for j in range(14) for s in (2.0 ** j, -(2.0 ** j)))

    def test_empty_and_degenerate_pieces(self):
        u, v, owner = split_pieces_at_shells([], [])
        assert u.size == v.size == owner.size == 0
        assert split_at_shells(3.0, 3.0) == []


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

    @given(measures(), st.sampled_from(["index", "location"]),
           st.sampled_from([WEIGHT_BUDGET, 0.01, 100.0]))
    @settings(max_examples=150, deadline=None)
    def test_weight_filter_matches(self, measure, denominator, budget):
        assert np.array_equal(weight_filter_mask(measure, denominator, budget),
                              ref_weight_filter_mask(measure, denominator, budget))

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
        assert check_energy(seq, part) == verdict
        # intervals are at least 1 long, so _evaluate merges none of them
        assert [row[3] for row in check_d_uniform(seq, 1.0, part).per_interval] == deficits

    @pytest.mark.parametrize("n", [2, 3, 511, 512, 513, 700])
    def test_interval_energies_at_matrix_limit(self, n):
        rng = np.random.default_rng(n)
        pts = np.sort(rng.choice(8 * n, size=3 * n, replace=False) / 4.0)
        lo = np.array([0, n, n, 2 * n])
        hi = np.array([n, n, 2 * n, 3 * n])
        got = interval_energies(pts, lo, hi)
        want = [coulomb_energy(pts[a:b]) if b - a >= 2 else 0.0 for a, b in zip(lo, hi)]
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
        got = outcome(check_energy, seq, part)
        want = outcome(lambda s, p: ref_energy_leg(s, p)[1], seq, part)
        assert got == want

    @given(gridded_cases(breaks_step=1.0), st.floats(0.05, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_density_leg_matches_loop(self, case, d):
        seq, part = case
        got = check_density(seq, part, d)
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
        want = [coulomb_energy(pts[a:b]) if b - a >= 2 else 0.0 for a, b in zip(lo, hi)]
        assert interval_energies(pts, lo, hi).tolist() == want

    @given(st.lists(st.floats(0.01, 1e6), min_size=1, max_size=40), st.integers(0, 40))
    @example([36.17805559993731], 1)  # its pow(x, 2) is not x * x
    @settings(max_examples=200, deadline=None)
    def test_classify_partition_matches_scalar_loop(self, gaps, split):
        cuts = np.cumsum(gaps)
        bks = np.unique(np.concatenate([-cuts[:split][::-1], [0.0], cuts[split:]]))
        part = Partition(bks)
        assert classify_family(part) == ref_classify_family(part.intervals)
        assert classify_family(part.intervals) == ref_classify_family(part.intervals)


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
