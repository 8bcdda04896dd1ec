import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typelab.core import (
    INCONCLUSIVE,
    MIN_SHELLS,
    DiscreteMeasure,
    Interval,
    Partition,
    RealSequence,
    TypelabError,
    WeightTable,
    dist0,
    poisson_tail_sum,
    shell_sum_verdict,
    split_at_shells,
)


class TestPoissonTailSum:
    def test_unit_values_at_dyadic_points(self):
        terms = [(2.0 ** j, 1.0) for j in range(21)]
        v = poisson_tail_sum(terms)
        assert v.classification == "convergent"
        # direct evaluation oracle
        assert v.value_truncated == pytest.approx(
            math.fsum(1.0 / (1.0 + 4.0 ** j) for j in range(21)))
        # shell sums decay like 4^{-j}
        assert v.fit_ratio == pytest.approx(0.25, rel=0.05)

    def test_linear_values_still_summable(self):
        terms = [(2.0 ** j, 2.0 ** j) for j in range(21)]
        v = poisson_tail_sum(terms)
        assert v.classification == "convergent"
        assert v.fit_ratio == pytest.approx(0.5, rel=0.05)

    def test_empty(self):
        v = poisson_tail_sum([])
        assert v.value_truncated == 0.0
        assert v.classification == "inconclusive"

    def test_negative_value_rejected(self):
        with pytest.raises(TypelabError, match="requires nonnegative values"):
            poisson_tail_sum([(1.0, -1.0)])

    def test_shell_decomposition_adds_up(self):
        terms = [(x, 1.0 + (x % 3)) for x in np.linspace(0.1, 500, 400)]
        v = poisson_tail_sum(terms)
        assert v.value_truncated == pytest.approx(
            v.inner_sum + math.fsum(s for _, s in v.shell_sums), rel=1e-12)

    @given(st.lists(st.tuples(st.floats(-1000, 1000), st.floats(0, 10)), max_size=60),
           st.lists(st.floats(0, 5), max_size=60))
    @settings(max_examples=150)
    def test_monotone_in_values(self, terms, bumps):
        bigger = [(x, v + b) for (x, v), b in zip(terms, bumps + [0.0] * len(terms))]
        small = poisson_tail_sum(terms[:len(bigger)])
        large = poisson_tail_sum(bigger)
        assert large.value_truncated >= small.value_truncated - 1e-12

    def test_constant_over_integers_approaches_pi(self):
        T = 10_000
        c = 3.7
        terms = [(float(n), c) for n in range(-T, T + 1)]
        v = poisson_tail_sum(terms)
        oracle = math.fsum(c / (1.0 + n * n) for n in range(-T, T + 1))
        assert v.value_truncated == pytest.approx(oracle, rel=1e-12)
        assert abs(v.value_truncated - c * math.pi) <= 0.01 * c * math.pi


class TestDomainTypes:
    def test_interval_dist0(self):
        got = dist0(np.array([1.0, -3.0, -1.0]), np.array([2.0, -2.0, 1.0]))
        assert got.tolist() == [1.0, 2.0, 0.0]

    def test_interval_requires_positive_length(self):
        with pytest.raises(TypelabError):
            Interval(2.0, 2.0)

    def test_partition_needs_zero(self):
        with pytest.raises(TypelabError):
            Partition(np.array([1.0, 2.0]))
        p = Partition(np.array([-4.0, 0.0, 3.0]))
        assert len(p) == 2

    def test_measure_invariants(self):
        with pytest.raises(TypelabError):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 5.0)
        m = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.25]), 5.0)
        assert m.mass_in(-m.window, m.window) == 0.75  # the total mass
        assert m.mass_in(0.0, 1.0) == 0.25
        assert m.mass_in(0.0, 1.0, closed=True) == 0.75

    def test_weight_table_mu_weight_floor(self):
        with pytest.raises(TypelabError):
            WeightTable(np.array([-1.0, 0.0, 1.0]), np.array([0.5, 2.0]))
        w = WeightTable(np.array([-1.0, 0.0, 1.0]), np.array([2.0, 3.0]))
        assert w.evaluate(-0.5) == 2.0
        assert w.evaluate(0.0) == 2.0  # breakpoint belongs to the left piece
        assert w.evaluate(0.5) == 3.0

    def test_weight_table_mu_weight_edge_shape(self):
        bks = np.linspace(-10, 10, 21)
        dips = np.where(np.abs(0.5 * (bks[:-1] + bks[1:])) > 8, 1.0, 5.0)
        with pytest.raises(TypelabError):
            WeightTable(bks, dips)
        rises = np.where(np.abs(0.5 * (bks[:-1] + bks[1:])) > 8, 5.0, 1.0)
        WeightTable(bks, rises)  # fine

    def test_samples_table_allows_small_values(self):
        WeightTable(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5]), kind="samples")

    def test_centered_indices(self):
        seq = RealSequence(np.array([-2.0, -1.0, 0.0, 1.0]), 5.0)
        assert seq.centered_indices().tolist() == [-2, -1, 0, 1]


@st.composite
def weighted_terms(draw):
    n = draw(st.integers(4, 50))
    locs = draw(st.lists(st.floats(-2000, 2000), min_size=n, max_size=n))
    vals = draw(st.lists(st.floats(0, 100), min_size=n, max_size=n))
    return list(zip(locs, vals))


class TestShellProperties:
    @given(weighted_terms(), st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_permutation_invariant(self, terms, rnd):
        shuffled = list(terms)
        rnd.shuffle(shuffled)
        a = poisson_tail_sum(terms)
        b = poisson_tail_sum(shuffled)
        assert a.classification == b.classification
        assert a.value_truncated == pytest.approx(b.value_truncated, rel=1e-12, abs=1e-300)

    @given(weighted_terms())
    @settings(max_examples=80)
    def test_splitting_terms_preserves_verdict(self, terms):
        split = []
        for x, v in terms:
            split.extend([(x, v / 2.0), (x, v / 2.0)])
        a = poisson_tail_sum(terms)
        b = poisson_tail_sum(split)
        assert a.classification == b.classification
        assert b.value_truncated == pytest.approx(a.value_truncated, rel=1e-9, abs=1e-300)


class TestShellMachinery:
    def test_split_at_shells_covers(self):
        u, v, _ = split_at_shells([-10.0], [37.0])
        pieces = list(zip(u.tolist(), v.tolist()))
        assert pieces[0][0] == -10.0 and pieces[-1][1] == 37.0
        for (a, b), (c, _) in zip(pieces, pieces[1:]):
            assert b == c
        # no piece straddles a dyadic boundary or zero
        for a, b in pieces:
            assert (a >= 0) == (b > 0) or a == 0.0

    def test_all_zero_tail_is_convergent(self):
        locs = list(np.linspace(1, 400, 100))
        v = shell_sum_verdict(locs, [0.0] * 100)
        assert v.classification == "convergent"
        assert v.value_truncated == 0.0

    def test_fewer_than_four_shells_inconclusive(self):
        v = shell_sum_verdict([1.0, 2.5, 5.0], [1.0, 1.0, 1.0])
        assert v.classification == "inconclusive"

    @given(weighted_terms())
    @settings(max_examples=150)
    def test_fewer_than_min_shells_inconclusive(self, terms):
        locs, vals = zip(*terms)
        v = shell_sum_verdict(locs, vals)
        if len(v.shell_sums) < MIN_SHELLS:
            assert v.classification == INCONCLUSIVE
