import numpy as np
import pytest

from typelab import catalog
from typelab.constructions import arithmetic
from typelab.core import Interval, Partition, RealSequence, TypelabError
from typelab.partitions import find_short_partition
from typelab.typeproblem import type_separated
from typelab.uniformity import (
    _energy_leg,
    _evaluate,
    check_d_uniform,
    merge_short_intervals,
)


def paired_every_point(T=28.0):
    """Integers doubled by companions at distance exp(-|x|)/3.

    T is capped so the smallest gap stays above the float spacing of its
    position; beyond that the companions would collide with their base
    points and the pair mechanism silently disappears.
    """
    base = np.arange(-T, T + 1)
    pts = np.concatenate([base, base + np.exp(-np.abs(base)) / 3.0])
    return RealSequence(np.sort(pts), T + 1.0)


class TestCheckDensity:
    def test_matched(self):
        seq = arithmetic(1.0, 2000.0)
        part = find_short_partition(seq, 1.0)
        assert check_d_uniform(seq, 1.0, part).density.passed

    def test_off_target_fails_with_gap(self):
        seq = arithmetic(1.0, 2000.0)
        part = find_short_partition(seq, 1.0)
        res = check_d_uniform(seq, 1.5, part).density
        assert not res.passed
        assert res.max_outer_deviation == pytest.approx(0.5, abs=0.05)

    def test_half_empty_window_fails(self):
        T = 2000.0
        pts = np.arange(-T, T / 2)
        seq = RealSequence(pts, T)
        part = find_short_partition(seq, 1.0)
        assert not check_d_uniform(seq, 1.0, part).density.passed

    def test_window_mismatch(self):
        seq = arithmetic(1.0, 100.0)
        small = Partition(np.array([-50.0, 0.0, 50.0]))
        with pytest.raises(TypelabError, match="does not cover the sequence window"):
            check_d_uniform(seq, 1.0, small)


class TestCheckEnergy:
    def test_grid_convergent(self):
        seq = arithmetic(1.0, 10_000.0)
        part = find_short_partition(seq, 1.0)
        assert check_d_uniform(seq, 1.0, part).energy_verdict.classification == "convergent"

    def test_single_point_per_interval(self):
        # energy vanishes, deficit reduces to log length
        pts = np.array([0.5 * (4.0 ** k + 4.0 ** (k + 1)) for k in range(8)])
        pts = np.concatenate([-pts[::-1], pts])
        seq = RealSequence(pts, 4.0 ** 9)
        bks = np.concatenate([-(4.0 ** np.arange(9, 0, -1)), [0.0], 4.0 ** np.arange(1, 10)])
        part = Partition(bks)
        v = check_d_uniform(seq, 1.0, part).energy_verdict
        assert v.classification == "convergent"

    def test_exponentially_close_pairs_raise_deficits(self):
        # per-interval deficits must carry the pair penalty ~ 2|x| per pair;
        # compare against the same partition holding single points only
        seq = paired_every_point()
        part = find_short_partition(seq, 2.0)
        base = np.arange(-28.0, 29.0)
        singles = RealSequence(base, seq.window)
        from typelab.energy import energy_report

        bks = part.breakpoints.tolist()
        for iv in map(Interval, bks[:-1], bks[1:]):
            # 0 is a breakpoint, so the nearer end is the distance to 0
            if min(abs(iv.left), abs(iv.right)) < 2.0 or iv.length < 2.0:
                continue
            paired = energy_report(seq.points, iv).deficit
            alone = energy_report(singles.points, iv).deficit
            inside = base[(base > iv.left) & (base <= iv.right)]
            expected_gain = 2.0 * np.sum(np.abs(inside))
            assert paired - alone >= 0.5 * expected_gain

    def test_classifier_flags_idealized_pair_series(self):
        # the infinite-scale pair series has constant dyadic shells: terms
        # 2|x| per pair, Poisson-weighted; double-precision positions cannot
        # represent gaps exp(-|x|) past |x| ~ 30, so the series is fed to
        # the classifier directly
        from typelab.core import poisson_tail_sum

        terms = []
        for n in range(1, 5000):
            terms.append((float(n), 2.0 * n))
            terms.append((float(-n), 2.0 * n))
        assert poisson_tail_sum(terms).classification == "divergent"

    def test_short_interval_rejected(self):
        # check_d_uniform merges the short interval first; the leg itself refuses it
        seq = arithmetic(1.0, 100.0)
        part = Partition(np.array([-100.0, 0.0, 0.5, 100.0]))
        with pytest.raises(TypelabError, match="interval length 0.5 < 1"):
            _energy_leg(seq, part.index(seq.points))


class TestCheckDUniform:
    def test_ground_truth(self):
        for d in (0.5, 1.0, 2.0):
            seq = arithmetic(d, 10_000.0)
            assert check_d_uniform(seq, d).overall
            assert not check_d_uniform(seq, 1.5 * d).overall

    def test_wide_paired_grid_fails_at_double_density(self):
        # on a wide window the companions collide with their base points
        # past |x| ~ 36, so no density-2 subsequence exists out there
        T = 2000.0
        base = np.arange(-T, T + 1)
        pts = np.unique(np.concatenate([base, base + np.exp(-np.abs(base)) / 3.0]))
        seq = RealSequence(np.sort(pts), T + 1.0)
        rep = check_d_uniform(seq, 2.0)
        assert not rep.overall
        assert rep.density is None or not rep.density.passed

    def test_supplied_partition_is_used(self):
        seq = arithmetic(1.0, 2000.0)
        part = find_short_partition(seq, 1.0)
        rep = check_d_uniform(seq, 1.0, part)
        assert rep.partition_source == "given"
        assert rep.overall

    def test_energy_skip_mode(self):
        # the separated type scan skips the energy leg of its candidates
        seq = arithmetic(1.0, 2000.0)
        rep = _evaluate(seq, 1.0, find_short_partition(seq, 1.0), "greedy", True)
        assert rep.overall and rep.energy_skipped and rep.energy_verdict is None
        assert all(row[3] is None for row in rep.per_interval)
        cert = type_separated(catalog.koosis_measure(400.0), [1.0]).certificate
        assert cert.uniformity.energy_skipped and cert.uniformity.energy_verdict is None

    def test_interior_certificate_consistency(self):
        # passing at d means the interior estimator reports at least d at
        # grid resolution
        from typelab.density import interior_density

        seq = arithmetic(1.0, 4000.0)
        assert check_d_uniform(seq, 1.0).overall
        est = interior_density(seq, [0.1 * k for k in range(1, 16)])
        assert est.value >= 1.0 - 0.1 - 1e-12

    def test_separated_energy_never_the_cause(self):
        # for separated inputs a fail is always a density or shortness fail
        cases = [arithmetic(1.0, 1000.0), arithmetic(0.5, 1000.0),
                 arithmetic(2.0, 1000.0)]
        for seq in cases:
            for d in (0.3, 0.7, 1.0, 1.4):
                rep = check_d_uniform(seq, d)
                if rep.energy_verdict is not None and rep.partition is not None:
                    assert rep.energy_verdict.classification == "convergent"


class TestMergeShortIntervals:
    def test_merges_rightward(self):
        part = Partition(np.array([-10.0, 0.0, 0.4, 0.8, 5.0, 10.0]))
        merged = merge_short_intervals(part)
        assert merged.breakpoints.tolist() == [-10.0, 0.0, 5.0, 10.0]

    def test_keeps_zero(self):
        part = Partition(np.array([-10.0, -0.4, 0.0, 5.0, 10.0]))
        merged = merge_short_intervals(part)
        assert 0.0 in merged.breakpoints.tolist()
        assert -0.4 not in merged.breakpoints.tolist()
