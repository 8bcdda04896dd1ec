import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from typelab import catalog, oracle
from typelab.core import DiscreteMeasure, TypelabError
from typelab.oracle import (
    IllConditioned,
    annihilation_matrix,
    default_freq_count,
    residual_scan,
)
from typelab.serialize import canonical_json, load_measure
from typelab.suite import bundle_curves


def sigma_min(measure, a, freq_count=None):
    if freq_count is None:
        freq_count = default_freq_count(measure, a)
    A = annihilation_matrix(measure, a, freq_count)
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def gram_sigma_min(measure, a):
    """Independent oracle: exact frequency-integrated Gram eigenvalue."""
    t = measure.positions
    dt = t[None, :] - t[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        core = (np.exp(1j * a * dt) - 1.0) / (1j * dt)
    core[dt == 0] = a
    G = np.sqrt(measure.masses)[:, None] * np.sqrt(measure.masses)[None, :] * core
    w = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    return math.sqrt(max(float(w[0]), 0.0))


def ref_gram_sigma_min(measure, a, freq_count, dps):
    """Smallest singular value of the trapezoid rule's complex Gram matrix in mpmath.

    The Gram entry has the closed form ``sqrt(m_i m_j) * sum_k q_k exp(i lam_k (t_j - t_i))``
    with the frequency sum evaluated as a geometric series.  The Gram matrix squares the
    condition number, so it needs about twice the digits of the SVD it checks.
    """
    import mpmath as mp

    with mp.workdps(dps):
        t = [mp.mpf(x) for x in measure.positions]
        m = [mp.mpf(x) for x in measure.masses]
        n = len(t)
        h = mp.mpf(a) / (freq_count - 1)
        G = mp.matrix(n, n)
        for i in range(n):
            for j in range(i, n):
                dt = t[j] - t[i]
                if dt == 0:
                    core = mp.mpf(a)
                else:
                    r = mp.expjpi(h * dt / mp.pi)  # exp(i h dt)
                    geo = (r ** freq_count - 1) / (r - 1) if r != 1 else mp.mpf(freq_count)
                    core = h * geo - h / 2 * (1 + r ** (freq_count - 1))
                val = mp.sqrt(m[i] * m[j]) * core
                G[i, j] = val
                G[j, i] = mp.conj(val)
        lam_min = min(mp.re(e) for e in mp.eighe(G, eigvals_only=True))
        return float(mp.sqrt(lam_min)) if lam_min > 0 else 0.0


class TestAnnihilationMatrix:
    def test_single_atom_column_norm(self):
        m = DiscreteMeasure(np.array([0.0]), np.array([1.0]), 1.0)
        for a in (0.5, 2.0, 7.0):
            assert sigma_min(m, a) == pytest.approx(math.sqrt(a), rel=1e-12)

    def test_two_atoms_one_constraint(self):
        m = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 2.0]), 5.0)
        _, s, vh = np.linalg.svd(annihilation_matrix(m, 1e-9, 2))
        assert s[-1] <= 1e-9
        # the annihilating direction kills the total mass: f1 m1 + f2 m2 = 0
        g = vh[-1].conj() / np.sqrt(m.masses)
        assert abs(g[0] * 0.5 + g[1] * 2.0) <= 1e-9
        # unit norm in L2 of the measure
        assert 0.5 * abs(g[0]) ** 2 + 2.0 * abs(g[1]) ** 2 == pytest.approx(1.0)

    def test_gram_consistency(self):
        # the column Gram of the real form is that of the complex matrix
        # after the centring phases: sqrt(m_m m_n) sum_j q_j cos(mu_j (t_n - t_m))
        m = catalog.koosis_measure(10.0)
        a = 2.0
        M = default_freq_count(m, a)
        C = annihilation_matrix(m, a, M)
        assert C.dtype == np.float64 and C.shape == (M, len(m))
        mu = np.linspace(0.0, a, M) - a / 2
        h = a / (M - 1)
        q = np.full(M, h)
        q[0] = q[-1] = h / 2
        gram = C.T @ C
        t = m.positions
        for i, k in ((3, len(m) - 5), (0, len(m) - 1), (7, 7)):
            direct = math.sqrt(m.masses[i] * m.masses[k]) * np.sum(q * np.cos(mu * (t[k] - t[i])))
            assert gram[i, k] == pytest.approx(direct, rel=1e-12)

    def test_matches_exact_gram(self):
        m = catalog.koosis_measure(30.0)
        for a in (2 * math.pi, 3 * math.pi):
            assert sigma_min(m, a) == pytest.approx(gram_sigma_min(m, a), rel=1e-3)

    def test_degenerate_parameters(self):
        m = catalog.koosis_measure(10.0)
        with pytest.raises(TypelabError, match="must have positive length"):
            annihilation_matrix(m, -1.0, 16)
        with pytest.raises(TypelabError, match="at least 2 frequency rows"):
            annihilation_matrix(m, 1.0, 1)


class TestResidualScan:
    def test_monotone_above_floor(self):
        # with the constraint interval growing, the best annihilation
        # residual cannot improve (checked above the numerical floor)
        m = catalog.koosis_measure(40.0)
        grid = np.linspace(6.5, 12.5, 13).tolist()
        curve = residual_scan(m, grid)
        floor = 1e-12 * curve.sigma_max.max()
        vals = [s for s in curve.sigma_min if s > 10 * floor]
        for a, b in zip(vals, vals[1:]):
            assert b >= 0.95 * a

    def test_truncation_consistency(self):
        # more atoms admit better annihilators below the transition
        s30 = sigma_min(catalog.koosis_measure(30.0), math.pi)
        s60 = sigma_min(catalog.koosis_measure(60.0), math.pi)
        assert s60 <= s30 * 1.05 + 1e-18

    def test_scale_covariance(self):
        m = catalog.koosis_measure(30.0)
        s = 2.0
        dil = DiscreteMeasure(m.positions * s, m.masses, m.window * s)
        a = 2 * math.pi
        M = default_freq_count(m, a)
        base = sigma_min(m, a, M)
        scaled = sigma_min(dil, a / s, M)
        assert scaled * math.sqrt(s) == pytest.approx(base, rel=1e-8)

    def test_koosis_knee(self):
        m = catalog.koosis_measure(60.0)
        grid = np.linspace(0, 12.6, 65)[1:].tolist()
        curve = residual_scan(m, grid)
        assert curve.knee is not None
        assert abs(curve.knee - 2 * math.pi) <= 0.25 * 2 * math.pi

    def test_bundle_knees_pinned(self):
        # the knees of the suite's oracle bundle, as the complex matrix gave them
        knees = [curve.knee for _, curve in bundle_curves(1)]
        assert knees == [5.8078125, 2.70703125, 5.90625]

    def test_no_knee_single_atom(self):
        m = DiscreteMeasure(np.array([0.0]), np.array([1.0]), 1.0)
        grid = np.linspace(0, 12.6, 33)[1:].tolist()
        curve = residual_scan(m, grid)
        assert curve.knee is None

    @staticmethod
    def assert_same_curve(one, other):
        for field in ("a_values", "sigma_min", "sigma_max", "conditioning"):
            assert getattr(one, field).tobytes() == getattr(other, field).tobytes(), field
        assert (one.knee, one.max_curvature, one.extended_used, one.clip_floor) == (
            other.knee, other.max_curvature, other.extended_used, other.clip_floor)

    def test_threads_identical(self):
        m = catalog.koosis_measure(40.0)
        grid = np.linspace(0, 9.0, 25)[1:].tolist()
        one = residual_scan(m, grid, threads=1)
        assert one.knee is not None
        for threads in (2, 8):
            self.assert_same_curve(one, residual_scan(m, grid, threads=threads))

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_refused(self, threads):
        m = catalog.koosis_measure(10.0)
        with pytest.raises(TypelabError):
            residual_scan(m, [1.0, 2.0], threads=threads)

    @pytest.mark.parametrize("freq_density", [0.0, -5.0, math.nan])
    def test_freq_density_not_positive_refused(self, freq_density):
        m = catalog.koosis_measure(10.0)
        with pytest.raises(TypelabError, match="freq-density must be positive"):
            residual_scan(m, [1.0, 2.0], freq_density=freq_density)

    @pytest.mark.parametrize("grid", [[math.nan], [1.0, math.nan], [math.nan, 2.0]])
    def test_nan_in_grid_refused(self, grid, monkeypatch):
        # an input error, not the IllConditioned that suite.bundle_curves retries
        # in extended precision; refused before any matrix or worker
        import concurrent.futures

        monkeypatch.setattr(oracle, "_blocks", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        with pytest.raises(TypelabError, match="a-grid must be positive") as exc:
            residual_scan(catalog.koosis_measure(10.0), grid, threads=2)
        assert not isinstance(exc.value, IllConditioned)

    def test_matrix_cap(self, monkeypatch):
        m = DiscreteMeasure(np.array([0.0]), np.array([1.0]), 1.0)
        grid = np.linspace(0, 4.0, 9)[1:].tolist()
        monkeypatch.setattr(oracle, "MATRIX_MAX_CELLS", float(default_freq_count(m, 4.0)))
        residual_scan(m, grid)  # at the cap
        # above it, refused before any matrix is built or any worker is started
        import concurrent.futures

        monkeypatch.setattr(oracle, "annihilation_matrix", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        for top in (4.1, 1e4, 1e308):
            with pytest.raises(TypelabError, match="cap"):
                residual_scan(m, grid + [top], threads=2)

    def test_worker_count_capped(self, monkeypatch):
        # a recording stand-in for the pool: no process is started
        import concurrent.futures

        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        m = DiscreteMeasure(np.array([0.0]), np.array([1.0]), 1.0)
        grid = np.linspace(0, 4.0, 9)[1:].tolist()

        def workers(threads, cpus, blas):
            monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
            for var in oracle.BLAS_THREAD_VARS:
                monkeypatch.delenv(var, raising=False)
            if blas is not None:
                monkeypatch.setenv("OMP_NUM_THREADS", blas)
            started.clear()
            residual_scan(m, grid, threads=threads)
            return started[0] if started else 1

        assert workers(10 ** 6, 64, "1") == len(grid)
        assert workers(3, 64, "1") == 3
        assert workers(10 ** 6, 2, "1") == 2
        assert workers(10 ** 6, 64, "16") == 4
        assert workers(10 ** 6, 64, None) == 1     # BLAS takes every CPU
        assert workers(10 ** 6, 64, "0") == 1      # not a thread count: as if unset
        assert workers(1, 64, "1") == 1

    @pytest.mark.skipif(oracle._usable_cpus() < 2, reason="one usable CPU runs no pool")
    def test_worker_processes_identical(self):
        # one BLAS thread per process, so that the cap admits worker processes
        env = dict(os.environ, **{var: "1" for var in oracle.BLAS_THREAD_VARS})
        proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr

    def test_frequency_refinement_consistency(self):
        # above the floor, doubling the quadrature rows must not move the
        # resolved singular value
        m = catalog.koosis_measure(40.0)
        a = 9.0
        M = default_freq_count(m, a)
        coarse = sigma_min(m, a, M)
        fine = sigma_min(m, a, 2 * M)
        assert fine == pytest.approx(coarse, rel=1e-3)

    def test_refusal_without_extended(self):
        # a transition far above the scanned interval: the whole curve sits
        # on the collapsed floor and no knee is resolvable
        m = catalog.koosis_measure(60.0)
        grid = np.linspace(0, 4.0, 17)[1:].tolist()
        with pytest.raises(IllConditioned):
            residual_scan(m, grid)

    def test_extended_precision_resolves_floor(self):
        m = catalog.koosis_measure(10.0)
        grid = np.linspace(0, 4.0, 9)[1:].tolist()
        curve = residual_scan(m, grid, extended_precision=True)
        assert curve.extended_used
        double_floor = 1e-13 * curve.sigma_max.max()
        assert curve.sigma_min[0] < double_floor
        assert np.all(np.diff(curve.sigma_min) >= -1e-30)


GRID_64 = [12.6 / 64 * k for k in range(1, 65)]     # `oracle --a-max 12.6 --steps 64`


class TestExtendedPrecision:
    """The mpmath SVD of the blocks against the complex Gram matrix at 80 digits."""

    @pytest.fixture(scope="class")
    def mixed_20(self):
        m = catalog.mixed_parity_measure(20.0)
        return m, residual_scan(m, GRID_64, extended_precision=True)

    def test_pinned_reading(self, mixed_20):
        _, curve = mixed_20
        assert curve.extended_used
        assert curve.clip_floor == oracle.EXTENDED_CUTOFF * curve.sigma_max.max()
        assert curve.knee == 3.346875
        assert curve.max_curvature == pytest.approx(4.54061586826, rel=1e-6)

    @pytest.mark.parametrize("index", [16, 18, 19])
    def test_collapsed_values_match_the_gram_reference(self, mixed_20, index):
        m, curve = mixed_20
        a = GRID_64[index]
        assert curve.clip_floor < curve.sigma_min[index] < oracle.SVD_CUTOFF * curve.sigma_max[index]
        ref = ref_gram_sigma_min(m, a, default_freq_count(m, a), 80)
        assert curve.sigma_min[index] == pytest.approx(ref, rel=1e-10)

    def test_full_matrix_matches_the_gram_reference(self):
        # one mass an ulp off: no mirror symmetry, so mpmath factors the full matrix
        m = catalog.mixed_parity_measure(20.0)
        masses = m.masses.copy()
        masses[3] = np.nextafter(masses[3], 1.0)
        off = DiscreteMeasure(m.positions, masses, m.window)
        a = GRID_64[17]
        M = default_freq_count(off, a)
        assert len(oracle._blocks(off, a, M)) == 1
        value = oracle._extended_sigma_min(off, a, M)
        smax = np.linalg.norm(annihilation_matrix(off, a, M), 2)
        assert oracle.EXTENDED_CUTOFF * smax < value < oracle.SVD_CUTOFF * smax
        assert value == pytest.approx(ref_gram_sigma_min(off, a, M, 80), rel=1e-10)


def _bundle_member(name, T):
    return next(ex.measure for ex in catalog.oracle_separated_bundle(T) if ex.name == name)


# `oracle --steps 64` on perfbench's oracle-probe inputs (the bundle at T=120
# and koosis T=240) and on mixed parity at T=20 and 30: (measure, --a-max,
# printed knee, printed sigma_min_last, max_curvature), as the full real
# matrix gave them
PINNED_READINGS = {
    "koosis-unit-120": (lambda: _bundle_member("koosis-unit", 120.0), "12.6",
                        "6.103125", "0.000246380261376", 17.7088134274),
    "arith-half-120": (lambda: _bundle_member("arith-half", 120.0), "6.3",
                       "2.90390625", "0.000696777983375", 11.4218075971),
    "koosis-rescaled-120": (lambda: _bundle_member("koosis-rescaled", 120.0), "12.6",
                            "6.103125", "2.05324892177e-06", 12.9213465118),
    "koosis-240": (lambda: catalog.koosis_measure(240.0), "12.6",
                   "6.3", "6.15859135701e-05", 16.3242259775),
    "mixed-parity-20": (lambda: catalog.mixed_parity_measure(20.0), "12.6",
                        "4.134375", "0.000161135592138", 4.5968601715),
    "mixed-parity-30": (lambda: catalog.mixed_parity_measure(30.0), "12.6",
                        "5.315625", "1.08566450717e-06", 4.39962986681),
}


class TestPinnedReadings:
    """The knees and last residuals the oracle prints do not move with the
    form of the matrix; max_curvature may, at rounding level."""

    @pytest.mark.parametrize("name", list(PINNED_READINGS))
    def test_printed_readings(self, name, tmp_path, capsys):
        build, a_max, knee, last, curvature = PINNED_READINGS[name]
        path = tmp_path / "measure.json"
        path.write_text(canonical_json(build()), encoding="utf-8")
        from typelab.cli import main

        assert len(oracle._blocks(load_measure(str(path)), 1.0, 16)) == 2  # split, mirrored
        assert main(["oracle", "--input", str(path), "--a-max", a_max, "--steps", "64"]) == 0
        out = capsys.readouterr().out
        assert f'"knee": {knee}, ' in out and f'"sigma_min_last": {last}}}' in out, out
        assert json.loads(out)["max_curvature"] == pytest.approx(curvature, rel=1e-6)

    def test_stdout_does_not_move_with_blas_threads(self, tmp_path):
        # sigma_min_first lies below the floor, where its digits move with BLAS
        path = tmp_path / "measure.json"
        path.write_text(canonical_json(catalog.koosis_measure(120.0)), encoding="utf-8")
        argv = [sys.executable, "-m", "typelab", "oracle", "--input", str(path),
                "--a-max", "12.6", "--steps", "64"]
        unset = {k: v for k, v in os.environ.items() if k not in oracle.BLAS_THREAD_VARS}
        outs = [subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
                for env in (dict(unset, OPENBLAS_NUM_THREADS="1"), unset)]
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["sigma_min_first"].startswith("<")

    def test_mixed_parity_60_ill_conditioned(self):
        with pytest.raises(IllConditioned, match="no knee resolvable"):
            residual_scan(catalog.mixed_parity_measure(60.0), GRID_64)


def check_worker_processes(tmp):
    """Curves and ``oracle`` stdout at 1, 2 and 8 workers agree bit for bit.

    Run as a script (``python tests/test_oracle.py``) with one BLAS thread
    per process, the setting in which the scan starts worker processes.
    """
    from typelab.cli import main
    from typelab.serialize import canonical_json

    assert oracle._worker_count(8, 64) >= 2
    m = catalog.koosis_measure(40.0)
    grid = np.linspace(0, 9.0, 25)[1:].tolist()
    one = residual_scan(m, grid, threads=1)
    for threads in (2, 8):
        TestResidualScan.assert_same_curve(one, residual_scan(m, grid, threads=threads))
    # shares of unequal length (12 + 11 values; 8 + 8 + 7 with a third worker,
    # which four usable CPUs admit), and a grid of one value
    usable_cpus = oracle._usable_cpus
    oracle._usable_cpus = lambda: 4
    try:
        for grid in (np.linspace(0, 9.0, 24)[1:].tolist(), [9.0]):
            one = residual_scan(m, grid, threads=1)
            for threads in (2, 3):
                TestResidualScan.assert_same_curve(one, residual_scan(m, grid, threads=threads))
    finally:
        oracle._usable_cpus = usable_cpus
    small = catalog.koosis_measure(10.0)
    grid = np.linspace(0, 4.0, 5)[1:].tolist()
    one = residual_scan(small, grid, extended_precision=True, threads=1)
    assert one.extended_used
    TestResidualScan.assert_same_curve(
        one, residual_scan(small, grid, extended_precision=True, threads=2))
    mixed = catalog.mixed_parity_measure(20.0)
    grid = GRID_64[15:19]
    one = residual_scan(mixed, grid, extended_precision=True, threads=1)
    assert one.extended_used
    TestResidualScan.assert_same_curve(
        one, residual_scan(mixed, grid, extended_precision=True, threads=2))

    path = os.path.join(tmp, "measure.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(catalog.koosis_measure(30.0)))
    outs = []
    for threads in ("1", "2"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["oracle", "--input", path, "--a-max", "12.6", "--steps", "32",
                         "--threads", threads]) == 0
        outs.append(out.getvalue())
    assert outs[0] == outs[1] and '"knee": null' not in outs[0]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        check_worker_processes(tmp)
