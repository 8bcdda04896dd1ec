"""Independent numerical completeness probe.

A function annihilating every exponential with frequency in ``[0, a]`` in
L2 of a truncated measure corresponds to a near-null vector of the matrix

    A[j, m] = sqrt(q_j) * sqrt(mass_m) * exp(i lam_j t_m),

with ``lam_j`` a trapezoid-quadrature grid on ``[0, a]``: for a unit
coefficient vector, ``|A f|^2`` approximates the integral of the squared
annihilation residual over the frequency interval.  Below the transition
frequency the smallest singular value collapses (a genuine annihilator of
the infinite measure truncates well); above it the value is pinned near
``sqrt(a * min mass)``.  The knee of the log residual curve therefore
estimates the transition without using any of the formula machinery.

The probe is a heuristic instrument, not a certificate: measures whose
smallest atom mass is at the working-precision floor hide their transition
below the measurable range, which is exactly what the extended-precision
ladder is for.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import DiscreteMeasure, TypelabError

SVD_CUTOFF = 1e-12           # relative floor below which values are clipped for knee detection
REFUSAL_RATIO = 1e-14        # below this min sigma_min/sigma_max a hidden knee is refused
KNEE_THRESHOLD = 2.0         # natural-log units of curvature required to call a knee
DEFAULT_FREQ_DENSITY = 8.0
EXTENDED_DPS = 40            # decimal digits of the extended-precision Gram solve
# most cells of an annihilation matrix a scan builds (64 MB of complex128): four
# times the 1927 x 481 matrix of the koosis T=240 measure at a = 12.6
MATRIX_MAX_CELLS = 4e6
# environment variables that set the BLAS threads of a process, in the order read
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


class DegenerateGrid(TypelabError):
    pass


class IllConditioned(TypelabError):
    """The conditioning collapse hides the transition; extended precision is required."""


@dataclass(frozen=True)
class ResidualCurve:
    a_values: np.ndarray
    sigma_min: np.ndarray
    sigma_max: np.ndarray
    knee: float | None
    conditioning: np.ndarray     # sigma_max / max(sigma_min, cutoff * sigma_max)
    max_curvature: float
    extended_used: bool


def _freq_rows(measure: DiscreteMeasure, a: float, freq_density: float) -> float:
    """:func:`default_freq_count` in floats, so that no finite ``a`` overflows it."""
    tmax = max(1.0, float(np.max(np.abs(measure.positions))))
    nyquist = np.ceil(a * 2.0 * tmax / math.pi) + 1.0
    return float(max(4.0, np.ceil(freq_density * a), nyquist, len(measure) + 8.0))


def default_freq_count(measure: DiscreteMeasure, a: float,
                       freq_density: float = DEFAULT_FREQ_DENSITY) -> int:
    """Row count resolving both the requested density and the integrand.

    The squared residual oscillates at scale ``pi / (2 max|t|)``, and a
    matrix with fewer rows than atoms has spurious exact null vectors, so
    the count is floored at both the Nyquist requirement and the atom
    count.
    """
    return int(_freq_rows(measure, a, freq_density))


def annihilation_matrix(measure: DiscreteMeasure, a: float, freq_count: int) -> np.ndarray:
    """Quadrature-weighted exponential-moment matrix on ``[0, a]``.

    Rows are trapezoid nodes, columns atoms; a unit-norm null direction of
    the matrix is a unit function in L2 of the measure whose exponential
    moments nearly vanish on the whole interval.
    """
    if a <= 0:
        raise DegenerateGrid("frequency interval must have positive length")
    if freq_count < 2:
        raise DegenerateGrid("need at least 2 frequency rows")
    lam = np.linspace(0.0, a, freq_count)
    h = a / (freq_count - 1)
    q = np.full(freq_count, h)
    q[0] = q[-1] = 0.5 * h
    phases = np.exp(1j * lam[:, None] * measure.positions[None, :])
    return np.sqrt(q)[:, None] * phases * np.sqrt(measure.masses)[None, :]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(threads: int, tasks: int) -> int:
    """Worker processes for ``tasks`` SVDs: at most ``threads`` and ``tasks``,
    and no more than fit on the usable CPUs beside each worker's BLAS threads.

    Each worker inherits the BLAS thread count, the first positive integer
    among :data:`BLAS_THREAD_VARS`, else one thread per CPU (the OpenBLAS
    and MKL default).  More threads than CPUs make every BLAS call wait on
    the scheduler, which turns a gain into a loss.
    """
    cpus = _usable_cpus()
    blas = next((int(v) for v in map(os.environ.get, BLAS_THREAD_VARS)
                 if v and v.isdigit() and int(v) > 0), cpus)
    return min(threads, tasks, max(1, cpus // blas))


def _sigma_extremes(measure: DiscreteMeasure, a: float, freq_density: float) -> tuple[float, float]:
    A = annihilation_matrix(measure, a, default_freq_count(measure, a, freq_density))
    try:
        s = np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise IllConditioned(f"SVD failed at a={a}") from exc
    return float(s[-1]), float(s[0])


def residual_scan(measure: DiscreteMeasure, a_grid, freq_density: float = DEFAULT_FREQ_DENSITY,
                  extended_precision: bool = False, threads: int = 1) -> ResidualCurve:
    """Smallest singular value across a frequency grid, with knee estimate.

    The knee statistic is the curvature (wide-stencil second difference) of
    ``log sigma_min`` after clipping at the numerical floor
    ``cutoff * max sigma_max``: the reported knee is the midpoint of the
    strongest upward and downward corners of the rise.  When the curve
    never leaves the floor by a detectable corner and the conditioning
    ratio has collapsed below 1e-14, the scan refuses to guess and raises
    :class:`IllConditioned` unless extended precision is enabled, in which
    case the collapsed values are recomputed from the exact
    frequency-integrated Gram matrix at :data:`EXTENDED_DPS` digits.

    ``threads`` is the largest number of worker processes that compute the
    singular values (see :func:`_worker_count`); with one, they are computed
    in this process.
    """
    grid = [float(a) for a in a_grid]
    if not grid or any(a <= 0 for a in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DegenerateGrid("a-grid must be positive and strictly increasing")
    if threads < 1:
        raise TypelabError(f"threads must be at least 1, got {threads}")
    cells = _freq_rows(measure, grid[-1], freq_density) * len(measure)
    if cells > MATRIX_MAX_CELLS:
        raise TypelabError(f"the annihilation matrix at a={grid[-1]:g} has {cells:.3g} cells, "
                           f"more than the cap of {MATRIX_MAX_CELLS:g}")

    # numpy.linalg.svd holds the GIL, so the SVDs run in worker processes;
    # map keeps grid order, so the curve does not depend on the worker count
    workers = _worker_count(threads, len(grid))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(partial(_sigma_extremes, measure, freq_density=freq_density),
                                  grid))
    else:
        pairs = [_sigma_extremes(measure, a, freq_density) for a in grid]
    sig = np.array([p[0] for p in pairs])
    smax = np.array([p[1] for p in pairs])

    extended_used = False
    floor_scale = float(smax.max())
    if extended_precision:
        collapsed = sig < SVD_CUTOFF * smax
        if np.any(collapsed):
            extended_used = True
            for i in np.flatnonzero(collapsed):
                sig[i] = _gram_sigma_min_extended(
                    measure, grid[i], default_freq_count(measure, grid[i], freq_density))
        clip_floor = floor_scale * 10.0 ** (-(EXTENDED_DPS // 2 - 3))
    else:
        clip_floor = SVD_CUTOFF * floor_scale

    knee, curvature = _detect_knee(np.asarray(grid), sig, clip_floor)
    min_ratio = float(np.min(sig / smax))
    if knee is None and not extended_used and min_ratio < REFUSAL_RATIO:
        raise IllConditioned(
            f"no knee resolvable above the double-precision floor "
            f"(min conditioning ratio {min_ratio:.2e}); rerun with extended precision")
    conditioning = smax / np.maximum(sig, SVD_CUTOFF * smax)
    return ResidualCurve(np.asarray(grid), sig, smax, knee, conditioning,
                         curvature, extended_used)


def _detect_knee(grid: np.ndarray, sig: np.ndarray, clip_floor: float) -> tuple[float | None, float]:
    clip = np.log(np.maximum(sig, clip_floor))
    span = max(1, len(grid) // 32)
    if len(grid) <= 2 * span:
        return None, 0.0
    d2 = clip[2 * span:] - 2.0 * clip[span:-span] + clip[:-2 * span]
    interior = grid[span:-span]
    kmax = int(np.argmax(d2))
    curvature = float(d2[kmax])
    if curvature < KNEE_THRESHOLD:
        return None, curvature
    kmin = int(np.argmin(d2))
    if kmin > kmax and -d2[kmin] >= KNEE_THRESHOLD:
        # midpoint of the rise: lower corner leaving the floor, upper corner
        # entering the plateau
        return 0.5 * float(interior[kmax] + interior[kmin]), curvature
    return float(interior[kmax]), curvature


def _gram_sigma_min_extended(measure: DiscreteMeasure, a: float, freq_count: int) -> float:
    """Smallest singular value via the trapezoid Gram matrix in mpmath.

    The Gram entry has the closed form
    ``sqrt(m_i m_j) * sum_k q_k exp(i lam_k (t_j - t_i))`` with the
    frequency sum evaluated as a geometric series, so the extended solve
    reproduces the double-precision quadrature exactly, just deeper.
    """
    import mpmath as mp

    with mp.workdps(EXTENDED_DPS):
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
        eigvals = mp.eighe(G, eigvals_only=True)
        lam_min = min(mp.re(e) for e in eigvals)
        return float(mp.sqrt(lam_min)) if lam_min > 0 else 0.0
