"""Independent numerical completeness probe.

A function annihilating every exponential with frequency in ``[0, a]`` in
L2 of a truncated measure corresponds to a near-null vector of the matrix

    A[j, m] = sqrt(q_j) * sqrt(mass_m) * exp(i lam_j t_m),

with ``lam_j`` a trapezoid-quadrature grid on ``[0, a]``: for a unit
coefficient vector, ``|A f|^2`` approximates the integral of the squared
annihilation residual over the frequency interval.  The probe factors a real
matrix with the same singular values (see :func:`annihilation_matrix`): half
the bytes and about a quarter of the flops of the complex SVD, and a quarter again on
a measure symmetric under ``x -> -x``, whose matrix splits into an even and an odd
block (see :func:`_blocks`).  Below the transition frequency the smallest singular
value collapses (a genuine annihilator of the infinite measure truncates well); above
it the value is pinned near ``sqrt(a * min mass)``.  The knee of the log residual
curve therefore estimates the transition without using any of the formula machinery.

The probe is a heuristic instrument, not a certificate: measures whose
smallest atom mass is at the working-precision floor hide their transition
below the measurable range.  Extended precision recomputes the collapsed values
by an SVD of the same blocks in mpmath (see :func:`_extended_sigma_min`); an SVD
does not square the condition number as a Gram matrix would, so 40 digits resolve
values far below the double-precision floor.
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
DEFAULT_FREQ_DENSITY = 8.0   # quadrature rows per unit of frequency, at least
# decimal digits of the extended-precision SVD; it factors the matrix itself, so
# rounding moves sigma_min by about 1e-40 * sigma_max, far below the clip floor
EXTENDED_DPS = 40
EXTENDED_CUTOFF = 1e-17      # relative clip floor of an extended-precision scan
# most cells of an annihilation matrix a scan builds (32 MB of float64): four
# times the 1927 x 481 matrix of the koosis T=240 measure at a = 12.6
MATRIX_MAX_CELLS = 4e6
# environment variables that set the BLAS threads of a process, in the order read
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
NUMPY_OPS = (np.cos, np.sin, np.sqrt)   # the elementwise cos, sin and sqrt of a float64 build


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
    clip_floor: float            # values below it are noise; the knee is detected against it


def _freq_rows(measure: DiscreteMeasure, a: float) -> float:
    """:func:`default_freq_count` in floats, so that no finite ``a`` overflows it."""
    tmax = max(1.0, float(np.max(np.abs(measure.positions))))
    nyquist = np.ceil(a * 2.0 * tmax / math.pi) + 1.0
    return float(max(4.0, np.ceil(DEFAULT_FREQ_DENSITY * a), nyquist, len(measure) + 8.0))


def default_freq_count(measure: DiscreteMeasure, a: float) -> int:
    """Row count resolving both :data:`DEFAULT_FREQ_DENSITY` and the integrand.

    The squared residual oscillates at scale ``pi / (2 max|t|)``, and a
    matrix with fewer rows than atoms has spurious exact null vectors, so
    the count is floored at both the Nyquist requirement and the atom
    count.
    """
    return int(_freq_rows(measure, a))


def _real_rows(a, freq_count: int, t: np.ndarray, col: np.ndarray, ops=NUMPY_OPS) -> tuple:
    """The trapezoid rule's even (cos, odd middle) and odd (sin) rows on ``[0, a]``, over ``t``.

    ``ops`` are the elementwise cos, sin and sqrt: numpy's in float64, or
    mpmath's over object arrays, with ``a`` an ``mpf``, for the same rows deeper.
    """
    if a <= 0:
        raise TypelabError("frequency interval must have positive length")
    if freq_count < 2:
        raise TypelabError("need at least 2 frequency rows")
    cos, sin, sqrt = ops
    h = a / (freq_count - 1)
    half = freq_count // 2
    # nodes h j - a/2, in float64 bit for bit np.linspace(0, a, freq_count)[:half] - a/2
    theta = (np.arange(half) * h - 0.5 * a)[:, None] * t[None, :]
    even = np.ones((freq_count - half, len(t)), dtype=theta.dtype)
    cos(theta, out=even[:half])
    odd = sin(theta)
    # sqrt(2 q_j) for each conjugate pair of nodes, sqrt(h) at the ends and in the middle
    scale = sqrt(np.where(np.arange(len(even)) % half, 2 * h, h))[:, None]
    for rows in (even, odd):    # scaled in place, as scale * rows * col: the same bits
        rows *= scale[:len(rows)]
        rows *= col
    return even, odd


def annihilation_matrix(measure: DiscreteMeasure, a, freq_count: int, ops=NUMPY_OPS) -> np.ndarray:
    """Quadrature-weighted exponential-moment matrix on ``[0, a]``, in real form.

    Scaling column ``m`` of the complex matrix ``A`` by ``exp(-i a t_m / 2)``
    centres the nodes at ``mu_j = lam_j - a/2``, so that rows ``j`` and
    ``M-1-j`` are conjugate; ``[1 1; -i i] / sqrt(2)`` on each pair gives rows
    ``sqrt(2 q_j m) cos(mu_j t)`` and ``sqrt(2 q_j m) sin(mu_j t)``, and an odd
    middle row (``mu = 0``) is ``sqrt(h m)``.  Both maps are unitary, so this
    real matrix has the singular values of ``A`` for any positions.  ``a`` and
    ``ops`` are as in :func:`_real_rows`.
    """
    even, odd = _real_rows(a, freq_count, measure.positions, ops[2](measure.masses), ops)
    return np.concatenate([even[:freq_count // 2], odd, even[freq_count // 2:]])


def _blocks(measure: DiscreteMeasure, a, freq_count: int, ops=NUMPY_OPS) -> list[np.ndarray]:
    """Matrices whose singular values together are those of :func:`annihilation_matrix`.

    On a measure exactly symmetric under ``x -> -x``, the orthogonal map
    ``[1 1; 1 -1] / sqrt(2)`` on each mirror pair of columns leaves an even block
    (cos and middle rows on ``t >= 0``) and an odd block (sin rows on ``t > 0``),
    with column weights ``sqrt(2 m)`` (``2 m`` is at most the total mass, so
    finite), ``sqrt(m)`` at ``t = 0``; other measures keep the full matrix.
    ``a`` and ``ops`` are as in :func:`_real_rows`.
    """
    t, m, sqrt = measure.positions, measure.masses, ops[2]
    if not (np.array_equal(t, -t[::-1]) and np.array_equal(m, m[::-1])):
        return [annihilation_matrix(measure, a, freq_count, ops)]
    k, zero = len(t) // 2, len(t) % 2     # the columns t >= 0; one at t = 0 if n is odd
    even, odd = _real_rows(a, freq_count, t[k:], sqrt(np.where(t[k:] > 0, 2.0, 1.0) * m[k:]), ops)
    return [even, odd[:, zero:]]


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


def _extended_sigma_min(measure: DiscreteMeasure, a: float, freq_count: int) -> float:
    """Smallest singular value of the :func:`_blocks` at :data:`EXTENDED_DPS` digits."""
    import mpmath as mp

    with mp.workdps(EXTENDED_DPS):
        ops = tuple(np.frompyfunc(f, 1, 1) for f in (mp.cos, mp.sin, mp.sqrt))
        return float(min(min(mp.svd_r(mp.matrix(B.tolist()), compute_uv=False))
                         for B in _blocks(measure, mp.mpf(a), freq_count, ops) if B.size))


def _sigma_extremes(measure: DiscreteMeasure, a: float) -> tuple[float, float]:
    blocks = _blocks(measure, a, default_freq_count(measure, a))
    try:
        s = np.concatenate([np.linalg.svd(B, compute_uv=False) for B in blocks])
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise IllConditioned(f"SVD failed at a={a}") from exc
    return float(s.min()), float(s.max())


def _sigma_share(measure: DiscreteMeasure, share: list) -> list:
    return [_sigma_extremes(measure, a) for a in share]


def residual_scan(measure: DiscreteMeasure, a_grid, extended_precision: bool = False,
                  threads: int = 1) -> ResidualCurve:
    """Smallest singular value across a frequency grid, with knee estimate.

    The knee statistic is the curvature (wide-stencil second difference) of
    ``log sigma_min`` after clipping at the numerical floor
    ``cutoff * max sigma_max``: the reported knee is the midpoint of the
    strongest upward and downward corners of the rise.  When the curve
    never leaves the floor by a detectable corner and the conditioning
    ratio has collapsed below 1e-14, the scan refuses to guess and raises
    :class:`IllConditioned` unless extended precision is enabled, in which
    case the collapsed values are recomputed by an mpmath SVD of the same
    :func:`_blocks` at :data:`EXTENDED_DPS` digits, and the floor is
    ``EXTENDED_CUTOFF * max sigma_max``; the curve carries the floor it used.

    ``threads`` caps the worker processes (see :func:`_worker_count`); each computes the
    singular values of one interleaved share of the grid, as one task.  With one worker, and
    for the extended recomputation at any ``threads``, they are computed in this process.
    """
    grid = [float(a) for a in a_grid]
    if not grid or any(not a > 0 for a in grid) or any(not b > a for a, b in zip(grid, grid[1:])):
        raise TypelabError("a-grid must be positive and strictly increasing")
    if threads < 1:
        raise TypelabError(f"threads must be at least 1, got {threads}")
    cells = _freq_rows(measure, grid[-1]) * len(measure)
    if cells > MATRIX_MAX_CELLS:
        raise TypelabError(f"the annihilation matrix at a={grid[-1]:g} has {cells:.3g} cells, "
                           f"more than the cap of {MATRIX_MAX_CELLS:g}")

    # numpy.linalg.svd holds the GIL, so the SVDs run in worker processes
    workers = _worker_count(threads, len(grid))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            shares = list(pool.map(partial(_sigma_share, measure),
                                   [grid[k::workers] for k in range(workers)]))
        pairs = [shares[i % workers][i // workers] for i in range(len(grid))]
    else:
        pairs = _sigma_share(measure, grid)
    sig, smax = (np.array(v) for v in zip(*pairs))

    collapsed = np.flatnonzero(sig < SVD_CUTOFF * smax) if extended_precision else []
    for i in collapsed:
        sig[i] = _extended_sigma_min(measure, grid[i], default_freq_count(measure, grid[i]))
    extended_used = len(collapsed) > 0
    clip_floor = (EXTENDED_CUTOFF if extended_precision else SVD_CUTOFF) * float(smax.max())

    knee, curvature = _detect_knee(np.asarray(grid), sig, clip_floor)
    min_ratio = float(np.min(sig / smax))
    if knee is None and not extended_used and min_ratio < REFUSAL_RATIO:
        raise IllConditioned(
            f"no knee resolvable above the double-precision floor "
            f"(min conditioning ratio {min_ratio:.2e}); rerun with extended precision")
    conditioning = smax / np.maximum(sig, SVD_CUTOFF * smax)
    return ResidualCurve(np.asarray(grid), sig, smax, knee, conditioning,
                         curvature, extended_used, clip_floor)


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
