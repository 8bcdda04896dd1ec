import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from typelab.core import Interval, TypelabError
from typelab.energy import (
    coulomb_energy,
    energy_report,
    grid_energy_closed_form,
    interval_deficits,
)


def exact_energy(points) -> float:
    """Exactly rounded sum of ``log|x_k - x_l|`` over ordered pairs: the O(n^2) reference."""
    pts = sorted(points)
    return 2.0 * math.fsum(math.log(pts[j] - pts[i])
                           for i in range(len(pts) - 1) for j in range(i + 1, len(pts)))


@st.composite
def distinct_points(draw):
    pts = sorted(draw(st.lists(st.floats(-50, 50), min_size=2, max_size=30,
                               unique=True)))
    # keep pairs resolvable after translation and scaling
    assume(min(b - a for a, b in zip(pts, pts[1:])) > 1e-3)
    return pts


class TestCoulombEnergy:
    def test_unit_pair(self):
        assert coulomb_energy([0.0, 1.0]) == 0.0

    def test_three_point_grid(self):
        assert coulomb_energy([0.0, 1.0, 2.0]) == pytest.approx(2 * math.log(2))

    def test_needs_two_points(self):
        with pytest.raises(TypelabError, match="needs at least 2 points"):
            coulomb_energy([1.0])

    def test_degenerate_distance(self):
        with pytest.raises(TypelabError, match="closer than 1e-300"):
            coulomb_energy([0.0, 1e-320, 1.0])

    @pytest.mark.filterwarnings("error")
    def test_span_beyond_float_range(self):
        with pytest.raises(TypelabError, match="float range"):
            coulomb_energy([-1e308, 1e308])
        # the largest finite span is still accepted
        assert coulomb_energy([-8e307, 8e307]) == 2.0 * math.log(1.6e308)

    def test_summation_paths_agree(self):
        rng = np.random.default_rng(7)
        pts = np.unique(rng.uniform(-300, 300, size=600))  # above the matrix-path limit
        blocked = coulomb_energy(pts)
        exact = exact_energy(pts)
        assert blocked == pytest.approx(exact, rel=1e-12)
        small = pts[:200]
        assert coulomb_energy(small) == pytest.approx(
            exact_energy(small), rel=1e-12)

    @given(distinct_points(), st.floats(-100, 100))
    @settings(max_examples=100)
    def test_translation_invariance(self, pts, c):
        base = coulomb_energy(pts)
        shifted = coulomb_energy([p + c for p in pts])
        assert shifted == pytest.approx(base, rel=1e-10, abs=1e-8)

    @given(distinct_points(), st.floats(0.1, 10))
    @settings(max_examples=100)
    def test_scaling_law(self, pts, s):
        n = len(pts)
        base = exact_energy(pts)
        scaled = exact_energy([s * p for p in pts])
        assert scaled == pytest.approx(base + n * (n - 1) * math.log(s),
                                       rel=1e-12, abs=1e-9)


class TestClosedForm:
    def test_delta_two(self):
        assert grid_energy_closed_form(2, 1.0) == 0.0

    def test_delta_three(self):
        assert grid_energy_closed_form(3, 1.0) == pytest.approx(2 * math.log(2))

    def test_against_brute_force_sweep(self):
        for d in (0.5, 1.0, 2.0):
            for delta in range(2, 201):
                pts = np.arange(delta, dtype=float) / d
                closed = grid_energy_closed_form(delta, d)
                brute = coulomb_energy(pts)
                assert abs(brute - closed) <= 1e-9 * max(1.0, abs(closed)), (delta, d)

    @pytest.mark.parametrize("delta, d", [(10, math.nan), (10, math.inf), (10, -math.inf),
                                          (10, 0.0), (2.5, 1.0), (3.0, 1.0), (1, 1.0)])
    def test_refuses_bad_arguments(self, delta, d):
        with pytest.raises(TypelabError):
            grid_energy_closed_form(delta, d)

    def test_accepts_numpy_integers(self):
        assert grid_energy_closed_form(np.int64(7), 2.0) == grid_energy_closed_form(7, 2.0)

    def test_one_lgamma_per_term_matches_two(self):
        # lgamma(m) + lgamma(delta - m + 1) for every m, bit for bit
        for d in (0.5, 1.0, 2.0, 3.0):
            for delta in range(2, 1001):
                two = [math.lgamma(m) + math.lgamma(delta - m + 1) for m in range(1, delta + 1)]
                want = math.fsum(two) - delta * (delta - 1) * math.log(d)
                assert float.hex(grid_energy_closed_form(delta, d)) == float.hex(want), (delta, d)

    def test_suite_grids_match_uncached_expression(self):
        # the suite's 597 grids, each twice: a cached sum gives the bits of a fresh one
        for _ in range(2):
            for d in (0.5, 1.0, 2.0):
                for delta in range(2, 201):
                    lg = [math.lgamma(m) for m in range(1, delta + 1)]
                    want = (math.fsum(a + b for a, b in zip(lg, reversed(lg)))
                            - delta * (delta - 1) * math.log(d))
                    assert float.hex(grid_energy_closed_form(delta, d)) == float.hex(want)

    def test_101_points_tight(self):
        closed = grid_energy_closed_form(101, 1.0)
        brute = coulomb_energy(np.arange(101.0))
        assert abs(brute - closed) <= 1e-9 * abs(closed)


class TestEnergyReport:
    def test_ten_point_grid(self):
        rep = energy_report(np.arange(10.0), Interval(-0.5, 9.5))
        assert rep.delta == 10
        assert rep.deficit == pytest.approx(100 * math.log(10) - rep.energy)
        assert rep.deficit >= 0

    def test_single_point(self):
        rep = energy_report(np.array([3.0]), Interval(0.0, 7.0))
        assert rep.delta == 1
        assert rep.energy == 0.0
        assert rep.deficit == pytest.approx(math.log(7.0))

    def test_unsorted_configuration(self):
        rep = energy_report(np.array([5.0, 1.0, 2.0]), Interval(0.0, 3.0))
        assert rep == energy_report(np.array([1.0, 2.0, 5.0]), Interval(0.0, 3.0))
        assert rep.delta == 2

    def test_interval_too_short(self):
        with pytest.raises(TypelabError, match="interval length 0.5 < 1"):
            energy_report(np.arange(10.0), Interval(0.0, 0.5))

    def test_clustered_pair_inflates_deficit(self):
        grid = np.arange(10.0)
        iv = Interval(-0.5, 9.5)
        base = energy_report(grid, iv).deficit
        clustered = energy_report(np.sort(np.append(grid, 1e-6)), iv).deficit
        # direct pair-sum oracle for the gain of the extra point
        gain_energy = 2 * math.fsum(math.log(abs(1e-6 - g)) for g in grid)
        gain_count = (11 ** 2 - 10 ** 2) * math.log(iv.length)
        assert clustered - base == pytest.approx(gain_count - gain_energy, rel=1e-9)
        # the near-coincident pair dominates: the deficit grows by at least
        # twice its log separation
        assert clustered - base >= 2 * 6 * math.log(10)

    def test_deficit_positive_random(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            length = rng.uniform(1.0, 40.0)
            left = rng.uniform(-50.0, 50.0)
            pts = np.unique(rng.uniform(left + 1e-9, left + length,
                                        size=int(rng.integers(1, 25))))
            rep = energy_report(pts, Interval(left, left + length))
            assert rep.deficit >= -1e-9

    def test_grid_deficit_quadratic_bound(self):
        # uniform-grid deficit stays proportional to count^2
        for delta in (10, 100, 1000, 10_000):
            rep = energy_report(np.arange(float(delta)), Interval(-0.5, delta - 0.5))
            assert 0 <= rep.deficit <= 2.0 * delta ** 2


class TestIntervalDeficits:
    # energy_report refuses an interval longer than the float range; the
    # batched path refuses its length too, rather than return inf or nan
    @pytest.mark.parametrize("lengths", [[math.inf, math.nan], [2.0, math.nan],
                                         [math.inf, 2.0], [-math.inf, 2.0]])
    def test_non_finite_length_refused(self, lengths):
        with pytest.raises(TypelabError, match="is not finite"):
            interval_deficits(np.array([0.0, 1.0, 2.0]), np.array([0, 0]), np.array([3, 0]),
                              np.array(lengths))
