import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from typelab.constructions import arithmetic, perturb_exponential
from typelab.core import RealSequence, TypelabError
from typelab.density import (
    counting_function,
    exterior_density,
    interior_density,
    strong_regularity_defect,
)
from typelab.uniformity import check_d_uniform

GRID = [0.1 * k for k in range(1, 21)]


def deleted_dyadic_grid(T=4096.0):
    """Integers with the left half of every dyadic block (2^k, 2^(k+1)] removed."""
    pts = []
    for n in range(-int(T), int(T) + 1):
        if n <= 0:
            pts.append(float(n))
            continue
        k = int(np.floor(np.log2(n))) if n >= 1 else 0
        if n >= 2 ** k + 2 ** (k - 1) or n < 2:
            pts.append(float(n))
    return RealSequence(np.asarray(sorted(set(pts))), T)


def paired_grid(T=2000.0):
    """Integers doubled by exponentially close companions.

    Past |x| ~ 36 the companion offset drops below the float spacing and
    the companion collides with its base point; either way the sequence
    admits no 2-dense uniform subsequence, which is what the tests assert.
    """
    base = np.arange(-T, T + 1)
    companions = base + np.exp(-np.abs(base)) / 3.0
    pts = np.unique(np.concatenate([base, companions]))
    return RealSequence(np.sort(pts), T + 1.0)


class TestCountingFunction:
    def test_positive(self):
        seq = arithmetic(1.0, 100.0)
        assert counting_function(seq, 5.5) == 5

    def test_zero(self):
        seq = arithmetic(1.0, 100.0)
        assert counting_function(seq, 0.0) == 0

    def test_negative_sign_convention(self):
        seq = arithmetic(1.0, 100.0)
        assert counting_function(seq, -3.5) == -3

    def test_jump_up_at_points(self):
        seq = arithmetic(1.0, 100.0)
        for x in (-7.0, -2.0, 3.0, 9.0):
            below = counting_function(seq, x - 1e-9)
            at = counting_function(seq, x)
            assert at == below + 1

    def test_out_of_window(self):
        with pytest.raises(TypelabError, match="exceeds the window"):
            counting_function(arithmetic(1.0, 10.0), 11.0)

    def test_array_argument_matches_scalar(self):
        seq = perturb_exponential(arithmetic(1.0, 100.0), 0.1, 3)
        xs = np.array([-100.0, -7.0, -3.5, -1e-9, 0.0, 1e-9, 3.0, 5.5, 99.9, 100.0])
        counts = counting_function(seq, xs)
        assert counts.tolist() == [counting_function(seq, float(x)) for x in xs]

    def test_out_of_window_array_and_nan(self):
        seq = arithmetic(1.0, 10.0)
        with pytest.raises(TypelabError, match="exceeds the window"):
            counting_function(seq, np.array([0.0, -11.0]))
        with pytest.raises(TypelabError, match="exceeds the window"):
            counting_function(seq, float("nan"))


class TestRegularityBlockScan:
    def test_agrees_with_integral_form_on_grids(self):
        from typelab.density import regularity_block_scan

        seq = arithmetic(1.0, 4096.0)
        assert regularity_block_scan(seq, 1.0).classification == "convergent"
        assert regularity_block_scan(seq, 2.0).classification == "divergent"
        assert regularity_block_scan(seq, 0.5).classification == "divergent"

    def test_empty_violation_set(self):
        from typelab.density import regularity_block_scan

        seq = arithmetic(1.0, 4096.0)
        v = regularity_block_scan(seq, 1.0)
        assert v.note == "no violating blocks"


class TestStrongRegularity:
    def test_matched_density_convergent(self):
        seq = arithmetic(1.0, 10_000.0)
        assert strong_regularity_defect(seq, 1.0).classification == "convergent"

    def test_double_density_divergent(self):
        seq = arithmetic(1.0, 10_000.0)
        assert strong_regularity_defect(seq, 2.0).classification == "divergent"

    def test_ten_percent_off_divergent(self):
        for d in (0.5, 1.0):
            seq = arithmetic(d, 10_000.0)
            assert strong_regularity_defect(seq, d).classification == "convergent"
            assert strong_regularity_defect(seq, 1.1 * d).classification == "divergent"
            assert strong_regularity_defect(seq, 0.9 * d).classification == "divergent"

    def test_empty_zero_target(self):
        seq = RealSequence(np.zeros(0), 64.0)
        v = strong_regularity_defect(seq, 0.0)
        assert v.classification == "convergent"
        assert v.value_truncated == 0.0


class TestInteriorDensity:
    def test_arithmetic_recovery(self):
        for d in (0.5, 1.0):
            seq = arithmetic(d, 10_000.0)
            grid = [0.1 * d * k for k in range(1, 21)]
            est = interior_density(seq, grid)
            assert abs(est.value - d) <= 0.05 * d + 1e-12

    def test_certificate_replays(self):
        seq = arithmetic(1.0, 2000.0)
        est = interior_density(seq, GRID)
        cert = est.certificate
        assert cert is not None
        replay = check_d_uniform(cert.subsequence, est.value, cert.partition)
        assert replay.overall

    def test_long_empty_blocks_kill_density(self):
        est = interior_density(deleted_dyadic_grid(), GRID)
        assert est.value == 0.0

    def test_exponentially_paired_grid_reports_base_density(self):
        # companions at distance exp(-|x|) carry unbounded energy deficits:
        # only the spread-out single-per-site selection survives
        est = interior_density(paired_grid(), GRID)
        assert abs(est.value - 1.0) <= 0.05 + 1e-12

    def test_subset_monotonicity(self):
        seq = arithmetic(1.0, 2000.0)
        rng = np.random.default_rng(3)
        keep = rng.random(len(seq)) < 0.5
        sub = RealSequence(seq.points[keep], seq.window)
        est_sub = interior_density(sub, GRID)
        est_full = interior_density(seq, GRID)
        assert est_sub.value <= est_full.value + 0.1 + 1e-12

    def test_perturbation_stability(self):
        seq = arithmetic(1.0, 10_000.0)
        base = interior_density(seq, GRID).value
        pert = perturb_exponential(seq, 1.0, 11)
        est = interior_density(pert, GRID)
        assert est.value >= base - 0.1 - 1e-12


class TestExteriorDensity:
    def test_arithmetic_recovery(self):
        for d in (0.5, 1.0):
            seq = arithmetic(d, 4096.0)
            grid = [0.1 * d * k for k in range(1, 21)]
            est = exterior_density(seq, grid)
            assert abs(est.value - d) <= 0.05 * d + 1e-12

    def test_one_sided_pairs_force_full_density(self):
        half = np.arange(2.0, 1000.0, 2.0)
        pts = np.sort(np.concatenate([half, half + 1e-3]))
        seq = RealSequence(pts, 1000.0)
        est = exterior_density(seq, GRID)
        assert est.value >= 1.0 - 1e-12

    def test_empty_sequence_takes_smallest(self):
        seq = RealSequence(np.zeros(0), 1000.0)
        est = exterior_density(seq, GRID)
        assert est.value == GRID[0]

    def test_interior_below_exterior(self):
        cases = [arithmetic(1.0, 2048.0), paired_grid(), deleted_dyadic_grid()]
        for seq in cases:
            inte = interior_density(seq, GRID).value
            exte = exterior_density(seq, GRID).value
            assert inte <= exte + 0.1 + 1e-12

    @pytest.mark.parametrize("d, seed, T", [
        *[pytest.param(1.0, seed, 1000.0, id=str(seed)) for seed in range(4)],
        *[pytest.param(d, None, 1000.0, id=f"lattice-{d:g}") for d in (0.5, 1.0, 1.5)],
        *[pytest.param(0.5, seed, 1000.0, id=f"half-{seed}", marks=pytest.mark.xfail(
            strict=True, reason="the interior reads 0.51 on a lattice of density 0.5: the "
                                "greedy partition at d = 0.51 closes each side with one "
                                "interval to the window edge, and the verdict passes it"))
          for seed in (3, 16)],
        pytest.param(1.0, None, 200.0, id="lattice-1-T200", marks=pytest.mark.xfail(
            strict=True, reason="the longest dyadic block in [-200, 200] is 64, so the "
                                "2-point excess slack cannot resolve the 0.01 grid: the "
                                "exterior reads 0.97"))])
    def test_bracket_does_not_cross(self, d, seed, T):
        # a certified lower bound may not exceed an upper bound on the same grid
        seq = arithmetic(d, T)
        if seed is not None:
            seq = perturb_exponential(seq, 1.0, seed)
        grid = [0.01 * k for k in range(1, 201)]
        assert interior_density(seq, grid).value <= exterior_density(seq, grid).value

    # from T = 512 on the window holds a dyadic block of length 256, where the
    # 2-point excess slack is below one step of the 0.01 grid
    @given(st.sampled_from([0.5, 1.0, 1.5]), st.floats(512.0, 1000.0),
           st.none() | st.integers(0, 2 ** 32 - 1))
    @example(0.5, 513.9999999999999, None)  # d*T just below an integer
    @settings(max_examples=20, deadline=None)
    def test_exterior_bounds_lattice_density(self, d, T, seed):
        seq = arithmetic(d, T)
        if seed is not None:
            seq = perturb_exponential(seq, 1.0, seed)
        grid = [0.01 * k for k in range(1, 201)]
        exterior = exterior_density(seq, grid).value
        assert exterior >= d - 1e-9
        # the interior may overshoot a perturbed lattice of density 0.5
        # (test_bracket_does_not_cross[half-3])
        if seed is None or d > 0.5:
            assert interior_density(seq, grid).value <= exterior
