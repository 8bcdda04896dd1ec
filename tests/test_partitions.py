import numpy as np
import pytest

from typelab.constructions import arithmetic
from typelab.core import Interval, RealSequence, TypelabError
from typelab.partitions import (
    InsufficientData,
    NotShort,
    OverlappingIntervals,
    classify_family,
    find_short_partition,
    short2I_diagnostic,
)


def geometric_family(width):
    """Intervals (2^n, 2^n + width(n)] for n = 1..40."""
    return [Interval(2.0 ** n, 2.0 ** n + width(n)) for n in range(1, 41)]


class TestClassifyFamily:
    def test_slowly_widening_is_short(self):
        v = classify_family(geometric_family(lambda n: float(n)))
        assert v.classification == "convergent"
        # direct summation oracle agrees with the truncated value
        direct = sum(n * n / (1.0 + 4.0 ** n) for n in range(1, 41))
        assert v.value_truncated == pytest.approx(direct, rel=1e-12)

    def test_proportional_widening_is_long(self):
        v = classify_family(geometric_family(lambda n: 2.0 ** (n - 1)))
        assert v.classification == "divergent"

    def test_single_interval_inconclusive(self):
        assert classify_family([Interval(1.0, 2.0)]).classification == "inconclusive"

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingIntervals):
            classify_family([Interval(0.0, 2.0), Interval(1.0, 3.0)])

    def test_permutation_invariant(self):
        fam = geometric_family(lambda n: float(n))
        v1 = classify_family(fam)
        v2 = classify_family(list(reversed(fam)))
        assert v1.classification == v2.classification
        assert v1.value_truncated == v2.value_truncated


class TestFindShortPartition:
    def test_arithmetic_grid_counts(self):
        for d in (0.5, 1.0, 2.0):
            seq = arithmetic(d, 10_000.0)
            part = find_short_partition(seq, d)
            for iv in part.intervals:
                count = seq.count_in(iv.left, iv.right)
                assert abs(count - d * iv.length) <= 1.0 + 1e-9

    def test_zero_breakpoint_and_window_cover(self):
        seq = arithmetic(1.0, 1000.0)
        part = find_short_partition(seq, 1.0)
        assert 0.0 in part.breakpoints.tolist()
        assert part.span.left == -1000.0 and part.span.right == 1000.0

    def test_output_family_is_short(self):
        for d in (0.5, 1.0, 2.0):
            seq = arithmetic(d, 1000.0)
            part = find_short_partition(seq, d)
            assert classify_family(part.intervals).classification == "convergent"

    def test_gap_spanned_by_one_interval(self):
        T = 1000.0
        pts = np.concatenate([-np.arange(1.0, T), np.arange(T / 2, T)])
        seq = RealSequence(np.sort(np.unique(pts)), T)
        part = find_short_partition(seq, 1.0)
        gap_holders = [iv for iv in part.intervals if iv.left < 250.0 < iv.right]
        assert len(gap_holders) == 1
        assert gap_holders[0].length >= T / 2 - 1

    def test_empty_sequence(self):
        seq = RealSequence(np.zeros(0), 100.0)
        with pytest.raises(InsufficientData):
            find_short_partition(seq, 1.0)


class TestShort2I:
    def test_slowly_widening_family(self):
        v = short2I_diagnostic(geometric_family(lambda n: float(n)), 2.0)
        assert v.classification == "convergent"

    def test_dyadic_spaced_family(self):
        fam = [Interval(4.0 ** j, 4.0 ** j + 2.0 ** j) for j in range(1, 22)]
        v = short2I_diagnostic(fam, 2.0)
        assert v.classification == "convergent"
        # with this spacing a dilation meets at most the interval itself and
        # its neighbours
        lengths = [iv.length for iv in fam]
        for i, iv in enumerate(fam):
            # the 2-fold dilation reaches one length beyond the midpoint
            mid = 0.5 * (iv.left + iv.right)
            touching = [o for o in fam
                        if max(o.left, mid - iv.length) < min(o.right, mid + iv.length)]
            assert sum(o.length for o in touching) <= 3 * max(
                lengths[max(0, i - 1):i + 2])

    @pytest.mark.parametrize("C", [1e308, float("nan")])
    def test_dilation_beyond_float_range(self, C):
        # (2^40, 2^40 + 40] dilated 1e308-fold overflows; a NaN factor is no interval
        with pytest.raises(TypelabError, match="dilation"):
            short2I_diagnostic(geometric_family(lambda n: float(n)), C)

    def test_long_family_rejected(self):
        with pytest.raises(NotShort):
            short2I_diagnostic(geometric_family(lambda n: 2.0 ** (n - 1)), 2.0)

    def test_greedy_partition_satisfies_diagnostic(self):
        seq = arithmetic(1.0, 2000.0)
        part = find_short_partition(seq, 1.0)
        v = short2I_diagnostic(part, 2.0)
        assert v.classification == "convergent"
