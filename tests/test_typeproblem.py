import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from typelab import catalog
from typelab.constructions import arithmetic, measure_from_weights
from typelab.core import (
    DiscreteMeasure,
    Interval,
    Partition,
    RealSequence,
    TypelabError,
    WeightTable,
)
from typelab.typeproblem import (
    TWO_PI,
    benedicks_conditions,
    beurling_gap_check,
    borichev_sodin_compare,
    debranges_check,
    duffin_schaeffer_check,
    hybrid_check,
    krein_lm_check,
    levinson_check,
    polynomial_rescale,
    suffgen_bound,
    type_discrete,
    type_separated,
)

D_GRID = [0.05 * k for k in range(1, 27)]
WIDE_GRID = [0.05 * k for k in range(1, 51)]
T = 1000.0


def measure_on_z(weights_name, params=None, T_=T):
    return measure_from_weights(arithmetic(1.0, T_), weights_name, params)


class TestTypeDiscrete:
    def test_koosis_weights(self):
        est = type_discrete(catalog.koosis_measure(T), D_GRID)
        assert abs(est.lower_bound_type - TWO_PI) <= 0.1 * TWO_PI
        assert est.certificate is not None
        assert est.certificate.weight_verdict.classification == "convergent"

    def test_gaussian_weights_zero(self):
        # masses underflow past |n| ~ 26; every positive-density subsequence
        # has a divergent log-weight sum, so no candidate survives
        est = type_discrete(measure_on_z("super-exponential", T_=26.0), D_GRID)
        assert est.lower_bound_type == 0.0

    def test_spaced_support(self):
        m = catalog.spaced_polynomial_measure(0.5, T)
        est = type_discrete(m, D_GRID)
        assert abs(est.lower_bound_type - math.pi) <= 0.1 * math.pi

    def test_certificate_invariant(self):
        from typelab.uniformity import check_d_uniform

        est = type_discrete(catalog.koosis_measure(T), D_GRID)
        cert = est.certificate
        d = est.lower_bound_type / TWO_PI
        assert check_d_uniform(cert.subsequence, d, cert.uniformity.partition).overall


DILATION_DEFECT = pytest.mark.xfail(
    strict=True, reason="partition length floors are absolute, so the energy leg of the "
                        "dilated copy turns inconclusive and the type reads 0")


def both_types(measure, grid):
    return [est(measure, grid).lower_bound_type for est in (type_discrete, type_separated)]


class TestTypeSymmetries:
    @pytest.mark.parametrize("family", ["koosis_measure", "mixed_parity_measure"])
    @given(st.floats(-30.0, 30.0))
    @example(-10.0)
    @example(3.0)
    @settings(max_examples=5, deadline=None)
    def test_scaling_keeps_type(self, family, log10_c):
        # L^2(c mu) = L^2(mu) with an equivalent norm
        m = getattr(catalog, family)(600.0)
        scaled = DiscreteMeasure(m.positions, m.masses * 10.0 ** log10_c, m.window)
        assert both_types(scaled, D_GRID) == both_types(m, D_GRID)

    @pytest.mark.parametrize("family", ["koosis_measure", "mixed_parity_measure"])
    @pytest.mark.parametrize("weight", [
        lambda x: np.exp(-np.abs(x)), lambda x: (1.0 + x * x) ** -2.0, np.ones_like],
        ids=["light", "heavy", "unit"])
    def test_adding_atoms_does_not_lower_type(self, family, weight):
        # mu <= nu gives T(mu) <= T(nu): atoms added at the midpoints
        m = getattr(catalog, family)(600.0)
        mids = 0.5 * (m.positions[1:] + m.positions[:-1])
        pos = np.concatenate([m.positions, mids])
        order = np.argsort(pos)
        more = DiscreteMeasure(pos[order], np.concatenate([m.masses, weight(mids)])[order],
                               m.window)
        base = both_types(m, WIDE_GRID)
        assert base[0] > 0.0
        assert all(got >= want for got, want in zip(both_types(more, WIDE_GRID), base))

    @pytest.mark.parametrize("family, s", [
        ("koosis_measure", 0.5), ("koosis_measure", 2.0), ("koosis_measure", 4.0),
        ("mixed_parity_measure", 0.5), ("mixed_parity_measure", 2.0),
        pytest.param("mixed_parity_measure", 4.0, marks=DILATION_DEFECT)])
    def test_dilation_divides_type(self, family, s):
        # x -> s x divides the type by s; at a power of two s the grid d / s and
        # the type 2 pi d / s are exact
        m = getattr(catalog, family)(600.0)
        base = type_discrete(m, D_GRID).lower_bound_type
        wide = DiscreteMeasure(m.positions * s, m.masses, m.window * s)
        assert base > 0.0
        assert type_discrete(wide, [d / s for d in D_GRID]).lower_bound_type == base / s

    @pytest.mark.parametrize("family", ["koosis_measure", "mixed_parity_measure"])
    def test_removing_atoms_does_not_raise_type(self, family):
        m = getattr(catalog, family)(600.0)
        keep = np.arange(len(m)) % 7 != 6
        fewer = DiscreteMeasure(m.positions[keep], m.masses[keep], m.window)
        assert (type_discrete(fewer, D_GRID).lower_bound_type
                <= type_discrete(m, D_GRID).lower_bound_type)


class TestTypeSeparated:
    def test_koosis(self):
        est = type_separated(catalog.koosis_measure(T), D_GRID)
        assert abs(est.lower_bound_type - TWO_PI) <= 0.1 * TWO_PI
        assert est.two_sided

    def test_exponential_weights_zero(self):
        est = type_separated(measure_on_z("exponential", {"c": 1.0}, T_=600.0), D_GRID)
        assert est.lower_bound_type == 0.0

    def test_mixed_parity_weights(self):
        est = type_separated(catalog.mixed_parity_measure(600.0), D_GRID)
        assert abs(est.lower_bound_type - math.pi) <= 0.1 * math.pi

    def test_rejects_clustered_support(self):
        pos = np.sort(np.concatenate([np.arange(0.0, 50.0), np.arange(0.0, 50.0) + 1e-9]))
        m = DiscreteMeasure(np.unique(pos), np.full(100, 0.01), 50.0)
        with pytest.raises(TypelabError, match="below 1e-06"):
            type_separated(m)

    def test_agrees_with_interior_density_of_filtered_support(self):
        from typelab.density import interior_density
        from typelab.typeproblem import weight_filter_mask

        for m in (catalog.koosis_measure(T), catalog.mixed_parity_measure(600.0)):
            est = type_separated(m, D_GRID)
            mask = weight_filter_mask(m)
            support = RealSequence(m.positions[mask], m.window)
            den = interior_density(support, [0.05 * k for k in range(1, 27)])
            assert abs(est.lower_bound_type - TWO_PI * den.value) <= 0.1 * max(
                est.lower_bound_type, 1.0)


class TestPolynomialRescale:
    def test_alpha_zero_halves(self):
        m = catalog.koosis_measure(100.0)
        r = polynomial_rescale(m, 0.0)
        assert np.allclose(r.masses, m.masses / 2.0)

    def test_type_invariance(self):
        base = type_discrete(catalog.koosis_measure(T), D_GRID).lower_bound_type
        for alpha in (1.0, 2.0, 4.0):
            m = polynomial_rescale(catalog.koosis_measure(T), alpha)
            value = type_discrete(m, D_GRID).lower_bound_type
            assert abs(value - base) <= TWO_PI * 0.05 + 1e-9

    def test_double_application(self):
        m = catalog.koosis_measure(T)
        twice = polynomial_rescale(polynomial_rescale(m, 4.0), 4.0)
        once = polynomial_rescale(m, 8.0)
        v_twice = type_discrete(twice, D_GRID).lower_bound_type
        v_once = type_discrete(once, D_GRID).lower_bound_type
        assert abs(v_twice - v_once) <= TWO_PI * 0.05 + 1e-9


class TestSuffgenBound:
    def test_polynomial_masses(self):
        m = catalog.koosis_measure(T)
        v = suffgen_bound(m, arithmetic(1.0, T), 1.0)
        assert v.conclusion.kind == "type_at_least"
        assert v.conclusion.value == pytest.approx(TWO_PI)

    def test_empty_neighbourhood(self):
        even = np.arange(-100.0, 101.0, 2.0)
        m = DiscreteMeasure(even, np.full(even.size, 0.001), 101.0)
        with pytest.raises(TypelabError, match="zero mass in"):
            suffgen_bound(m, arithmetic(1.0, 100.0), 1.0)

    def test_exponential_masses_inconclusive(self):
        m = measure_on_z("exponential", {"c": 1.0}, T_=600.0)
        v = suffgen_bound(m, arithmetic(1.0, 600.0), 1.0)
        assert v.conclusion.kind == "inconclusive"

    def test_not_uniform(self):
        m = catalog.koosis_measure(T)
        with pytest.raises(TypelabError, match="not d-uniform at d=1.7"):
            suffgen_bound(m, arithmetic(1.0, T), 1.7)


class TestBeurlingGap:
    def test_long_gap_support_vanishes(self):
        v = beurling_gap_check(catalog.long_gap_support())
        assert v.conclusion.kind == "mu_must_vanish"

    def test_unit_grid_inconclusive(self):
        v = beurling_gap_check(arithmetic(1.0, 2048.0))
        assert v.conclusion.kind == "inconclusive"

    def test_short_gap_support_inconclusive(self):
        v = beurling_gap_check(catalog.short_gap_support())
        assert v.conclusion.kind == "inconclusive"

    def test_gaps_of_the_union(self):
        # one interval covers the long-gap support: the union has no gap
        v = beurling_gap_check([Interval(-20000.0, 20000.0)] + catalog.long_gap_support())
        assert v.conclusion.kind == "inconclusive"
        assert v.evidence["gap_count"] == 0
        # (2, 3] lies inside (0, 10]: the one gap is (12, 15], not (3, 5]
        v = beurling_gap_check([Interval(0.0, 10.0), Interval(2.0, 3.0),
                                Interval(5.0, 12.0), Interval(15.0, 20.0)])
        assert v.evidence["gap_count"] == 1


class TestGapSupportVsType:
    def test_long_gap_support_forces_zero_type(self):
        # integers living on a long-gap support: the gap verdict and the
        # type scan must agree that nothing survives
        pts = []
        for n in range(1, 13):
            lo, hi = 2 ** n + 2 ** (n - 1), 2 ** (n + 1)
            pts.extend(float(k) for k in range(lo + 1, hi + 1))
        pts = np.asarray(sorted(set(pts) | {-x for x in pts}))
        T_ = float(np.max(np.abs(pts)))
        m = DiscreteMeasure(pts, (1.0 + pts ** 2) ** -2, T_)
        gap = beurling_gap_check(RealSequence(m.positions, m.window))
        assert gap.conclusion.kind == "mu_must_vanish"
        est = type_discrete(m, D_GRID)
        assert est.lower_bound_type == 0.0


class TestLevinson:
    def test_doubly_exponential_decay_vanishes(self):
        v = levinson_check(catalog.fast_decay_measure())
        assert v.conclusion.kind == "mu_must_vanish"
        assert "zero_tail" in v.evidence

    def test_polynomial_decay_inconclusive(self):
        v = levinson_check(catalog.koosis_measure(200.0))
        assert v.conclusion.kind == "inconclusive"
        assert v.evidence["poisson_log_tail"].classification == "convergent"

    def test_single_atom_vanishes(self):
        m = DiscreteMeasure(np.array([3.0]), np.array([1.0]), 10.0)
        v = levinson_check(m)
        assert v.conclusion.kind == "mu_must_vanish"

    def test_threshold_diagnostics(self):
        v = levinson_check(catalog.koosis_measure(200.0))
        th = v.evidence["thresholds"]
        assert th == sorted(th)
        assert "dyadic_weight" in v.evidence


class TestHybrid:
    def test_polynomial_measure_inconclusive(self):
        m = catalog.koosis_measure(10_000.0)
        fam = [Interval(2.0 ** n, 2.0 ** n + 2.0 ** (n - 1)) for n in range(1, 13)]
        v = hybrid_check(m, fam)
        assert v.conclusion.kind == "inconclusive"

    def test_vanishing_on_long_family(self):
        # measure supported away from the family: min picks the length
        m = DiscreteMeasure(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 10_000.0)
        fam = [Interval(2.0 ** n, 2.0 ** n + 2.0 ** (n - 1)) for n in range(1, 13)]
        v = hybrid_check(m, fam)
        assert v.conclusion.kind == "mu_must_vanish"

    def test_super_exponentially_small_mass(self):
        fam = [Interval(2.0 ** n, 2.0 ** n + 2.0 ** (n - 1)) for n in range(1, 13)]
        pos = np.array([float(2 ** n) + 1.0 for n in range(1, 13)])
        masses = np.array([math.exp(-float(2 ** (n - 1)) ** 2) for n in range(1, 13)])
        masses = np.maximum(masses, 1e-300)
        m = DiscreteMeasure(pos, masses, 10_000.0)
        v = hybrid_check(m, fam)
        assert v.conclusion.kind == "mu_must_vanish"

    def test_overlap_rejected(self):
        m = catalog.koosis_measure(100.0)
        with pytest.raises(TypelabError, match="overlaps"):
            hybrid_check(m, [Interval(0.0, 2.0), Interval(1.0, 3.0)])


def slowly_unbounded_weight(T_=512.0, taper=0.05):
    """exp(|x| / (1 + taper*log(1+|x|))) as a geometric-breakpoint step table.

    The taper and window keep the values inside float range while the
    Poisson integral of the log still visibly diverges (near-constant
    dyadic shells).
    """
    pos = np.unique(np.concatenate([np.linspace(0, 8, 33),
                                    np.geomspace(8, T_, 300)]))
    bks = np.concatenate([-pos[::-1][:-1], pos])
    mids = 0.5 * (bks[:-1] + bks[1:])
    vals = np.exp(np.abs(mids) / (1.0 + taper * np.log1p(np.abs(mids))))
    return WeightTable(bks, vals)


class TestDeBranges:
    def test_admissible_weight_vanishes(self):
        K = slowly_unbounded_weight()
        m = measure_on_z("exponential", {"c": 2.0}, T_=40.0)
        v = debranges_check(K, m, modulus_of_continuity=1.0)
        assert v.applicable
        assert v.conclusion.kind == "mu_must_vanish"

    def test_polynomial_weight_summable(self):
        bks = np.linspace(-4096, 4096, 8193)
        mids = 0.5 * (bks[:-1] + bks[1:])
        K = WeightTable(bks, 1.0 + mids ** 2)
        m = measure_on_z("exponential", {"c": 2.0}, T_=40.0)
        v = debranges_check(K, m, modulus_of_continuity=1.0)
        assert not v.applicable
        assert v.conclusion.kind == "inconclusive"
        assert v.evidence["poisson_log_weight"].classification == "convergent"

    def test_continuity_violation(self):
        bks = np.linspace(-26.0, 26.0, 105)  # keeps exp(x^2) inside float range
        mids = 0.5 * (bks[:-1] + bks[1:])
        K = WeightTable(bks, np.exp(mids ** 2))
        m = measure_on_z("exponential", {"c": 2.0}, T_=20.0)
        v = debranges_check(K, m, modulus_of_continuity=1.0)
        assert not v.applicable
        assert not v.evidence["continuity_ok"]

    def test_weight_below_one(self):
        bks = np.array([-1.0, 0.0, 1.0])
        low = WeightTable(bks, np.array([0.5, 1.0]), kind="samples")
        with pytest.raises(TypelabError, match="weight must be >= 1"):
            debranges_check(low, measure_on_z("polynomial", T_=10.0), 1.0)


class TestKreinLM:
    @staticmethod
    def _table(fn, T_=4096.0, step=0.5):
        bks = np.arange(-T_, T_ + step / 2, step)
        mids = 0.5 * (bks[:-1] + bks[1:])
        return WeightTable(bks, fn(mids), kind="samples")

    def test_cauchy_density_infinite_type(self):
        w = self._table(lambda x: 1.0 / (1.0 + x * x))
        assert krein_lm_check(w).conclusion.kind == "type_infinite"

    def test_exponential_density_zero_type(self):
        w = self._table(lambda x: np.exp(-np.abs(x)))
        v = krein_lm_check(w)
        assert v.conclusion.kind == "type_zero"

    def test_non_monotone_inconclusive(self):
        def blocks(x):
            even_block = (np.floor(np.abs(x) / 2.0) % 2) < 1
            return np.where(even_block, np.exp(-np.abs(x)), 1.0)

        v = krein_lm_check(self._table(blocks))
        assert v.conclusion.kind == "inconclusive"

    def test_monotone_flag_gates_part_two(self):
        w = self._table(lambda x: np.exp(-np.abs(x)))
        v = krein_lm_check(w, monotone_flag=False)
        assert v.conclusion.kind == "inconclusive"


class TestBorichevSodin:
    def test_reflexive(self):
        m = catalog.koosis_measure(100.0)
        v = borichev_sodin_compare(m, m, delta=1.0, C=1.0, l=0.0)
        assert v.conclusion.kind == "type_ordering"

    def test_shifted_atoms_dominated(self):
        m = catalog.koosis_measure(100.0)
        delta = 0.5
        shift = np.exp(-2.0 * delta * np.abs(m.positions)) / 2.0
        nu = DiscreteMeasure(np.sort(m.positions + shift), m.masses, 101.0)
        v = borichev_sodin_compare(m, nu, delta=delta, C=2.0, l=1.0)
        assert v.conclusion.kind == "type_ordering"

    def test_orphan_atom_fails(self):
        x0 = 30.0
        mu = DiscreteMeasure(np.array([0.0, x0]), np.array([0.5, 1.0]), 50.0)
        nu = DiscreteMeasure(np.array([0.0]), np.array([0.5]), 50.0)
        v = borichev_sodin_compare(mu, nu, delta=0.5, C=1.0, l=1.0)
        assert v.conclusion.kind == "inconclusive"
        assert v.evidence["failed_at"] == x0

    def test_ordering_against_type_estimates(self):
        mu = catalog.spaced_polynomial_measure(0.5, T)
        nu = catalog.koosis_measure(T)
        v = borichev_sodin_compare(mu, nu, delta=1.0, C=4.0, l=2.0)
        assert v.conclusion.kind == "type_ordering"
        t_mu = type_discrete(mu, D_GRID).lower_bound_type
        t_nu = type_discrete(nu, D_GRID).lower_bound_type
        assert t_mu <= t_nu + TWO_PI * 0.05 + 1e-9


@pytest.mark.parametrize("check", [
    lambda m: duffin_schaeffer_check(m, L=math.nan, c=0.5),
    lambda m: duffin_schaeffer_check(m, L=1.0, c=math.nan),
    lambda m: borichev_sodin_compare(m, m, delta=math.nan, C=1.0, l=0.0),
    lambda m: borichev_sodin_compare(m, m, delta=1.0, C=math.nan, l=0.0)])
def test_nan_constant_rejected(check):
    with pytest.raises(TypelabError, match="must be positive"):
        check(catalog.koosis_measure(50.0))


class TestDuffinSchaeffer:
    def test_inverse_quadratic_masses_pass(self):
        m = measure_on_z("polynomial", {"beta": 1.0}, T_=200.0)
        v = duffin_schaeffer_check(m, L=1.0, c=0.5)
        assert v.conclusion.kind == "type_at_least"
        assert v.conclusion.value == pytest.approx(math.pi)
        t = type_discrete(m, D_GRID).lower_bound_type
        assert t >= v.conclusion.value - TWO_PI * 0.05 - 1e-9

    def test_small_window_fails(self):
        m = measure_on_z("polynomial", {"beta": 1.0}, T_=200.0)
        v = duffin_schaeffer_check(m, L=0.4, c=0.5)
        assert v.conclusion.kind == "inconclusive"

    def test_exponential_masses_fail(self):
        m = measure_on_z("exponential", {"c": 1.0}, T_=200.0)
        v = duffin_schaeffer_check(m, L=1.0, c=0.5)
        assert v.conclusion.kind == "inconclusive"


class TestBenedicksConditions:
    def test_regular_alternation_passes(self):
        part = catalog.benedicks_partition(300.0)
        v = benedicks_conditions(part, 8.0, 8.0, 0.4)
        assert v.applicable
        assert v.evidence["odd_length_series"].classification == "convergent"

    def test_proportional_odd_lengths_diverge(self):
        # odd lengths growing like their distance break the summability
        bks = [0.0, 1.0]
        while bks[-1] < 4000.0:
            a = bks[-1]
            bks.append(a + max(1.0, a / 2.0))  # odd interval
            bks.append(bks[-1] + 1.0)          # even interval
        neg = [-b for b in bks[1:]]
        part = Partition(np.asarray(sorted(neg) + bks))
        v = benedicks_conditions(part, 50.0, 50.0, 0.4)
        assert not v.applicable
        assert v.evidence["odd_length_series"].classification == "divergent"

    def test_c3_violation_reported(self):
        part = catalog.benedicks_partition(300.0)
        v = benedicks_conditions(part, 8.0, 8.0, 3.0)  # odd length 2 < 3*1
        assert not v.applicable
        assert any("condition 3" in f for f in v.evidence["failures"])

    def test_c1_violation_reported(self):
        # odd intervals I_-1 = (-1, 0], I_1 = (1, 3], I_3 = (4, 24]: |a_3| = 4 is
        # 8-comparable to |a_-1| = 1, but the lengths 1 and 20 are not
        part = Partition(np.array([-3.0, -1.0, 0.0, 1.0, 3.0, 4.0, 24.0, 25.0]))
        v = benedicks_conditions(part, 8.0, 8.0, 0.4)
        assert not v.applicable and not v.evidence["condition1"]
        assert v.evidence["failures"][0] == "condition 1 at (-1, 3)"

    @pytest.mark.parametrize("consts", [(0.0, 8.0, 0.4), (8.0, -1.0, 0.4),
                                        (8.0, 8.0, math.nan), (math.inf, 8.0, 0.4)])
    def test_constants_finite_positive(self, consts):
        with pytest.raises(TypelabError, match="finite and positive"):
            benedicks_conditions(catalog.benedicks_partition(60.0), *consts)
