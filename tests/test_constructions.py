import math
from unittest import mock

import numpy as np
import pytest

from typelab import catalog, constructions
from typelab.constructions import (
    alternating_partition,
    arithmetic,
    auxiliary_sequence,
    benedicks_sequence,
    default_block_growth,
    perturb_exponential,
    weight_families,
)
from typelab.core import RealSequence, TypelabError, WeightTable
from typelab.density import interior_density
from typelab.uniformity import check_d_uniform


class TestArithmetic:
    def test_unit_spacing(self):
        seq = arithmetic(1.0, 3.5)
        assert seq.points.tolist() == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]

    def test_half_spacing(self):
        seq = arithmetic(2.0, 1.0)
        assert seq.points.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_double_spacing(self):
        seq = arithmetic(0.5, 10.0)
        assert len(seq) == 11
        assert np.allclose(np.diff(seq.points), 2.0)

    @pytest.mark.parametrize("d, T, last", [(0.5, 513.9999999999999, 512.0),
                                            (1.0, 99.9999999995, 99.0), (1.0, 100.0, 100.0)])
    def test_window_edge(self, d, T, last):
        # the rounding slack of d*T must not take the point k/d just past T
        seq = arithmetic(d, T)
        assert seq.points[-1] == last and seq.points[0] == -last


class TestPerturbExponential:
    def test_large_rate_is_identity_away_from_origin(self):
        # the offset bound exp(-c|x|) is 1 at the origin no matter how large
        # c is; every other integer point is pinned to 1e-15
        seq = arithmetic(1.0, 50.0)
        out = perturb_exponential(seq, 100.0, 3)
        moved = np.abs(out.points - seq.points)
        away = np.abs(seq.points) >= 1.0
        assert np.max(moved[away]) <= 1e-15
        assert np.max(moved) <= 1.0

    def test_offsets_bounded(self):
        seq = arithmetic(1.0, 200.0)
        out = perturb_exponential(seq, 1.0, 5)
        # every output point lies within the bound of some input point
        for x in out.points:
            assert np.min(np.abs(seq.points - x) - np.exp(-np.abs(seq.points))) <= 1e-12

    def test_seed_determinism(self):
        seq = arithmetic(1.0, 500.0)
        a = perturb_exponential(seq, 1.0, 99)
        b = perturb_exponential(seq, 1.0, 99)
        assert np.array_equal(a.points, b.points)
        c = perturb_exponential(seq, 1.0, 100)
        assert not np.array_equal(a.points, c.points)

    def test_density_stability(self):
        seq = arithmetic(1.0, 4000.0)
        out = perturb_exponential(seq, 1.0, 7)
        est = interior_density(out, [0.1 * k for k in range(1, 16)])
        assert est.value >= 0.9 - 1e-12


class TestAuxiliarySequence:
    def _flat_weight(self, T, value=1.0):
        return WeightTable(np.array([-T, T]), np.array([value]))

    def test_base_points_are_pair_midpoints(self):
        base = arithmetic(1.0, 200.0)
        aux = auxiliary_sequence(base, self._flat_weight(200.0), 0.05, 20.0)
        assert len(aux.b_matched) == len(base) - 2
        assert aux.max_gap <= 20.0 + 1e-12

    def test_sparse_base_gets_filled(self):
        pts = np.array([2.0 ** k for k in range(1, 11)])
        base = RealSequence(np.sort(np.concatenate([-pts, pts])), 1024.0)
        L = 20.0
        aux = auxiliary_sequence(base, self._flat_weight(1024.0), 0.05, L)
        assert aux.fill_count > 0
        assert aux.max_gap <= L + 1e-9
        # fill density matches the gap length over the covered span
        span = aux.a_sequence.points[-1] - aux.a_sequence.points[0]
        assert aux.fill_count >= span / L - len(base) - 2

    def test_decaying_weights_shrink_pairs(self):
        # T kept small enough that the shrinking pairs stay above the float
        # spacing of their centers
        T = 30.0
        base = arithmetic(1.0, T)
        bks = np.arange(-T, T + 0.5, 1.0) - 0.5
        mids = 0.5 * (bks[:-1] + bks[1:])
        w = WeightTable(bks, np.exp(-np.abs(np.round(mids))), kind="samples")
        aux = auxiliary_sequence(base, w, 0.05, 20.0)
        centers = base.points[1:-1]
        expected = (2.0 / 3.0) * np.minimum(1.0, np.exp(-np.abs(centers)))
        assert np.allclose(aux.pair_widths, expected, rtol=1e-12)

    def test_bad_L(self):
        base = arithmetic(1.0, 50.0)
        with pytest.raises(TypelabError, match="need L >= 1/epsilon"):
            auxiliary_sequence(base, self._flat_weight(50.0), 0.05, 10.0)


class TestBenedicksSequence:
    def test_counts_track_block_length(self):
        part = catalog.benedicks_partition(600.0)
        fam = benedicks_sequence(part, 0.5)
        for (count, length) in zip(fam.block_counts, np.diff(fam.blocks.breakpoints)):
            assert count == math.floor(0.5 * length)

    def test_points_live_in_even_intervals(self):
        part = catalog.benedicks_partition(600.0)
        fam = benedicks_sequence(part, 0.5)
        bks = part.breakpoints
        i0 = int(np.flatnonzero(bks == 0.0)[0])
        for x in fam.sequence.points:
            k = int(np.searchsorted(bks, x, side="left")) - 1
            # the point lives in the closure of an even-index interval;
            # equal-measure ties sit exactly on the left endpoint
            in_even = (k - i0) % 2 == 0
            on_even_edge = k + 1 < len(bks) and x == bks[k + 1] and (k + 1 - i0) % 2 == 0
            assert in_even or on_even_edge, x

    @pytest.mark.parametrize("C", [0.25, 0.5, 0.75])
    def test_d_uniform_at_its_density(self, C):
        part = catalog.benedicks_partition(900.0)
        fam = benedicks_sequence(part, C)
        rep = check_d_uniform(fam.sequence, C, fam.blocks)
        assert rep.overall

    def test_interior_density_near_target(self):
        part = catalog.benedicks_partition(900.0)
        fam = benedicks_sequence(part, 0.5)
        est = interior_density(fam.sequence, [0.05 * k for k in range(1, 16)])
        assert abs(est.value - 0.5) <= 0.05 + 1e-12

    def test_single_block_equal_measure(self):
        # the centre block (0, 3] has one even interval, (0, 1]: at C = 2 it
        # holds six points at equal measure, spaced 1/7
        part = catalog.benedicks_partition(600.0)
        fam = benedicks_sequence(part, 2.0)
        left, right = fam.blocks.breakpoints[len(fam.blocks) // 2:][:2]
        inside = [x for x in fam.sequence.points if left < x <= right]
        assert len(inside) == 6
        assert np.allclose(np.diff(inside), 1.0 / 7.0)

    def test_conditions_failure(self):
        # odd length 0.3 is below C3 = 0.4 times the even length 1
        part = catalog.benedicks_partition(600.0, 1.0, 0.3)
        with pytest.raises(TypelabError, match="condition 3 at"):
            benedicks_sequence(part, 0.5)

    def test_series_failure_named(self):
        # conditions 1-3 hold on a two-cell tiling, but its series is inconclusive
        with pytest.raises(TypelabError, match="odd-length series inconclusive"):
            benedicks_sequence(alternating_partition(1.0, 2.0, 0.1), 0.5)

    @pytest.mark.parametrize("C", [0.0, -1.0, math.nan, math.inf, 1e308, 1e9])
    def test_bad_density(self, C):
        with pytest.raises(TypelabError, match="density"):
            benedicks_sequence(catalog.benedicks_partition(60.0), C)


class TestWeightFamilies:
    def test_polynomial(self):
        assert weight_families("polynomial", {"beta": 2.0}, [0])[0] == 1.0

    def test_exponential(self):
        assert weight_families("exponential", {"c": 1.0}, [3])[0] == pytest.approx(
            math.exp(-3))

    def test_mixed_odd_polynomial(self):
        assert weight_families("mixed", {"beta": 2.0}, [3])[0] == pytest.approx(0.01)

    def test_mixed_even_exponential(self):
        assert weight_families("mixed", {"c": 1.0}, [4])[0] == pytest.approx(
            math.exp(-4))

    def test_unknown(self):
        with pytest.raises(TypelabError, match="unknown weight family"):
            weight_families("nope", {}, [0])


class TestAlternatingPartition:
    def test_anchors_zero_and_parity(self):
        part = alternating_partition(1.0, 2.0, 30.0)
        bks = part.breakpoints
        i0 = int(np.flatnonzero(bks == 0.0)[0])
        assert bks[i0 + 1] - bks[i0] == 1.0   # even interval right of zero
        assert bks[i0] - bks[i0 - 1] == 2.0   # odd interval left of zero

    @pytest.mark.parametrize("args", [(0.0, 2.0, 30.0), (1.0, -2.0, 30.0), (1.0, 2.0, 0.0),
                                      (math.nan, 2.0, 30.0), (1.0, math.inf, 30.0),
                                      (1.0, 2.0, math.nan), (1.0, 2.0, math.inf)])
    def test_bad_lengths_or_T(self, args):
        with pytest.raises(TypelabError, match="finite and positive"):
            alternating_partition(*args)

    def test_tiling_cap(self):
        with mock.patch.object(constructions, "CONSTRUCTION_MAX_SIZE", 40):
            assert len(alternating_partition(1.0, 1.0, 20.0)) == 40
            with pytest.raises(TypelabError, match="more than 40 intervals"):
                alternating_partition(1.0, 1.0, 20.5)
        # refused from the count, before any breakpoint is built
        with pytest.raises(TypelabError, match="more than 100000 intervals"):
            alternating_partition(1.0, 2.0, 1e308)

    def test_block_growth_default(self):
        assert default_block_growth(0) == 1
        assert default_block_growth(100) >= default_block_growth(10)
