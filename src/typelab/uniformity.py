"""Executable d-uniformity verdict: density condition + energy condition.

A sequence is d-uniform when some short partition carries both the density
condition (per-interval counts close to ``d * length``) and the energy
condition (Poisson-summable Coulomb deficits).  At finite truncation the
verdict is constructive: a deterministic greedy partition is tried, then a
length-doubled variant, and a fail means "no witness found", never a proof
of impossibility.  A supplied partition's intervals shorter than the energy
leg's least length are merged into a neighbour; greedy ones have none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CONVERGENT,
    SLACK_POINTS,
    Partition,
    PartitionIndex,
    RealSequence,
    SumVerdict,
    TypelabError,
    poisson_tail_sum,
)
from .energy import LEAST_LENGTH, check_intervals, interval_deficits
from .partitions import InsufficientData, classify_family, find_short_partition

# density condition tolerance: per-interval ratios must satisfy
# |count/length - d| <= max(DENSITY_RTOL * d, SLACK_POINTS / length)
# over the outer half of the intervals
DENSITY_RTOL = 0.05


@dataclass(frozen=True)
class DensityCheck:
    passed: bool
    max_outer_deviation: float
    target: float
    ratios: tuple[float, ...]


@dataclass(frozen=True)
class UniformityReport:
    d: float
    partition: Partition | None
    # rows of (count, length, ratio, deficit); deficit is None when the
    # energy leg was skipped or not run
    per_interval: tuple[tuple[int, float, float, float | None], ...]
    density: DensityCheck | None
    energy_verdict: SumVerdict | None
    short_verdict: SumVerdict | None
    overall: bool
    partition_source: str
    energy_skipped: bool = False
    reason: str | None = None


def merge_short_intervals(partition: Partition) -> Partition:
    """Merge intervals shorter than the energy leg's least length into a neighbour.

    Short intervals are absorbed rightward, except that 0 and the last breakpoint
    are never dropped: a short interval ending at either extends leftward instead.
    """
    bks = partition.breakpoints.tolist()
    out = bks[:1]
    for b in bks[1:]:
        if b == 0.0 or b == bks[-1]:
            # 0 and the last breakpoint stay: a short piece ending there swallows
            # its left neighbours, but never the breakpoint 0
            while len(out) > 1 and out[-1] != 0.0 and b - out[-1] < LEAST_LENGTH:
                out.pop()
            out.append(b)
        elif b - out[-1] >= LEAST_LENGTH:
            out.append(b)
    return Partition(np.asarray(out))


def _covering_index(seq: RealSequence, partition: Partition) -> PartitionIndex:
    bks = partition.breakpoints
    if bks[0] > -seq.window or bks[-1] < seq.window:
        raise TypelabError("partition does not cover the sequence window")
    return partition.index(seq.points)


def _density_leg(idx: PartitionIndex, d: float) -> DensityCheck:
    """Density condition: counts per interval close to ``d * length``.

    The deviation ``|count/length - d|`` is compared against
    ``max(0.05 d, 2/length)`` interval by interval, and
    only the outer half of the intervals (largest distance from 0) must
    comply; the inner half is finite-scale noise.
    """
    ratios = idx.counts / idx.lengths
    tol = np.maximum(DENSITY_RTOL * d, SLACK_POINTS / idx.lengths)
    dev = np.abs(ratios - d)
    max_dev = 0.0
    passed = True
    # judged per side so that a one-sided defect cannot hide in the other
    # side's inner region
    for side in (idx.rights <= 0.0, (idx.rights > 0.0) & (idx.lefts >= 0.0)):
        rows = np.flatnonzero(side)
        outer = rows[np.argsort(idx.dist0[rows], kind="stable")][rows.size // 2:]
        if outer.size:
            max_dev = max(max_dev, float(np.max(dev[outer])))
            passed = passed and bool(np.all(dev[outer] - tol[outer] <= 0.0))
    return DensityCheck(passed, max_dev, d, tuple(ratios.tolist()))


def _energy_leg(seq: RealSequence, idx: PartitionIndex) -> tuple[SumVerdict, np.ndarray]:
    deficits = interval_deficits(seq.points, idx.lo, idx.hi, idx.lengths)
    return poisson_tail_sum(np.column_stack((idx.dist0, np.maximum(deficits, 0.0)))), deficits


def _evaluate(seq: RealSequence, d: float, partition: Partition, source: str,
              skip_energy: bool, scan: bool = False) -> UniformityReport:
    short_v = classify_family(partition)
    idx = _covering_index(seq, partition)
    density = _density_leg(idx, d)
    energy_v, deficits = None, [None] * len(partition)
    legs_pass = density.passed and short_v.classification == CONVERGENT
    if not skip_energy and scan and not legs_pass:
        # a failed density or shortness leg decides a scan candidate, whatever
        # its energies: the energy leg only checks the intervals, and is not run
        check_intervals(seq.points, idx.lo, idx.hi, idx.lengths)
    elif not skip_energy:
        energy_v, deficits = _energy_leg(seq, idx)
        deficits = deficits.tolist()
    rows = tuple(zip(idx.counts.tolist(), idx.lengths.tolist(), density.ratios, deficits))
    ok = legs_pass and (skip_energy or energy_v.classification == CONVERGENT)
    return UniformityReport(d, partition, rows, density, energy_v, short_v,
                            ok, source, skip_energy)


def check_d_uniform(seq: RealSequence, d: float,
                    partition: Partition | None = None) -> UniformityReport:
    """Full d-uniformity verdict for ``seq`` at density ``d``.

    With no partition supplied, the greedy candidate is tried first and, on
    failure, retried once with doubled minimum interval lengths; the report
    records which witness was used.  A sequence for which no partition
    candidate can even be built yields a fail report with reason
    ``"partition-not-found"`` rather than an error: at finite scale a missing
    witness is an ordinary negative verdict.
    """
    if not d > 0:  # also true on NaN
        raise TypelabError("d must be positive")
    if partition is not None:
        return _evaluate(seq, d, merge_short_intervals(partition), "given", False)

    candidates = (("greedy", 1.0), ("greedy-doubled", 2.0))
    last: UniformityReport | None = None
    for source, scale in candidates:
        try:
            cand = find_short_partition(seq, d, min_length_scale=scale)
        except InsufficientData:
            continue
        report = _evaluate(seq, d, cand, source, False)
        if report.overall:
            return report
        last = report
    if last is not None:
        return last
    return UniformityReport(d, None, (), None, None, None, False, "none",
                            reason="partition-not-found")
