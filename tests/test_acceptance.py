"""Acceptance gate: one test per criterion, at the stated tolerance and scale.

Each test runs the criterion function that ``typelab suite`` runs (see
``typelab.suite.CRITERIA``) under its own runtime budget, and prints a
single PASS line on success (run with ``-s`` or ``-v`` to see them); a
failure raises before the line is printed.
"""

import contextlib
import functools
import hashlib
import os
import subprocess
import sys
import time

from typelab.oracle import BLAS_THREAD_VARS
from typelab.suite import bundle_curves, criterion_row

# sha256 of `typelab suite` stdout at --threads 1 and 8, at one BLAS thread
# and at BLAS's default; perfbench/reference.json still holds 8f846e5b...0709,
# the digest before the oracle-knee row printed its floor ratio as a bound
SUITE_SHA256 = "246cc234c9dc92a8241eeb46d9cb00d46604d48ebbbba77a5f2a8e4a77bbde9c"


@functools.cache
def _curves():
    # computed inside the budget of whichever oracle test runs first
    return bundle_curves(1)


@contextlib.contextmanager
def _budget(label, seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"{label} took {elapsed:.1f}s, budget {seconds}s"
    print(f"\nACCEPTANCE {label}: PASS ({elapsed:.1f}s)")


def _passes(name, *args):
    row = criterion_row(name, *args)
    assert row["status"] == "pass", row["detail"]


def test_01_energy_closed_form():
    with _budget("1 energy closed form", 1.0):
        _passes("energy-closed-form")


def test_02_deficit_positivity_and_quadratic_growth():
    # a wider draw than the suite's: longer intervals, farther out, more points
    with _budget("2 deficit positivity / O(|I|^2)", 30.0):
        _passes("deficit-positivity", 1234, 60.0, 200.0, 40)


def test_03_uniformity_ground_truth():
    with _budget("3 uniformity ground truth", 10.0):
        _passes("uniformity-ground-truth")


def test_04_density_recovery():
    with _budget("4 density recovery", 60.0):
        _passes("density-recovery")


def test_05_koosis_reproduction():
    with _budget("5 koosis reproduction", 60.0):
        _passes("koosis-type")


def test_06_polynomial_rescale_invariance():
    with _budget("6 rescale invariance", 120.0):
        _passes("rescale-invariance")


def test_07_classical_checkers():
    with _budget("7 classical checkers", 10.0):
        _passes("classical-checkers")


def test_08_oracle_knee():
    with _budget("8 oracle knee", 300.0):
        _passes("oracle-knee", _curves())


def test_09_oracle_formula_cross_validation():
    with _budget("9 oracle/formula cross-validation", 300.0):
        _passes("oracle-formula-cross", _curves())


def test_10_constructions():
    with _budget("10 constructions", 60.0):
        _passes("constructions")


def test_11_suite_determinism():
    one_blas = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    # unset, BLAS takes one thread per CPU (and the scan runs in one process)
    default_blas = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    with _budget("11 suite determinism", 600.0):
        for threads, env in (("1", one_blas), ("8", one_blas), ("8", default_blas)):
            proc = subprocess.run(
                [sys.executable, "-m", "typelab", "suite", "--threads", threads],
                capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode()[:500]
            assert hashlib.sha256(proc.stdout).hexdigest() == SUITE_SHA256, (
                threads, env is default_blas)
