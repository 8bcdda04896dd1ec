import contextlib
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from typelab import catalog, oracle
from typelab.core import DiscreteMeasure, TypelabError
from typelab.oracle import (
    DegenerateGrid,
    IllConditioned,
    annihilation_matrix,
    default_freq_count,
    residual_scan,
)


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
        m = catalog.koosis_measure(10.0)
        a = 2.0
        M = default_freq_count(m, a)
        A = annihilation_matrix(m, a, M)
        lam = np.linspace(0.0, a, M)
        h = a / (M - 1)
        q = np.full(M, h)
        q[0] = q[-1] = h / 2
        gram = A @ A.conj().T
        j, k = 3, M - 5
        direct = math.sqrt(q[j] * q[k]) * np.sum(
            m.masses * np.exp(1j * (lam[j] - lam[k]) * m.positions))
        assert gram[j, k] == pytest.approx(direct, rel=1e-12)

    def test_matches_exact_gram(self):
        m = catalog.koosis_measure(30.0)
        for a in (2 * math.pi, 3 * math.pi):
            assert sigma_min(m, a) == pytest.approx(gram_sigma_min(m, a), rel=1e-3)

    def test_degenerate_parameters(self):
        m = catalog.koosis_measure(10.0)
        with pytest.raises(DegenerateGrid):
            annihilation_matrix(m, -1.0, 16)
        with pytest.raises(DegenerateGrid):
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

    def test_no_knee_single_atom(self):
        m = DiscreteMeasure(np.array([0.0]), np.array([1.0]), 1.0)
        grid = np.linspace(0, 12.6, 33)[1:].tolist()
        curve = residual_scan(m, grid)
        assert curve.knee is None

    @staticmethod
    def assert_same_curve(one, other):
        for field in ("a_values", "sigma_min", "sigma_max", "conditioning"):
            assert getattr(one, field).tobytes() == getattr(other, field).tobytes(), field
        assert (one.knee, one.max_curvature, one.extended_used) == (
            other.knee, other.max_curvature, other.extended_used)

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
    small = catalog.koosis_measure(10.0)
    grid = np.linspace(0, 4.0, 5)[1:].tolist()
    one = residual_scan(small, grid, extended_precision=True, threads=1)
    assert one.extended_used
    TestResidualScan.assert_same_curve(
        one, residual_scan(small, grid, extended_precision=True, threads=2))

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
