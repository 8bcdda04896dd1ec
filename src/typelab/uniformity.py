"""Executable d-uniformity verdict: density condition + energy condition.

A sequence is d-uniform when some short partition carries both the density
condition (per-interval counts close to ``d * length``) and the energy
condition (Poisson-summable Coulomb deficits).  At finite truncation the
verdict is constructive: a deterministic greedy partition is tried, then a
length-doubled variant, and a fail means "no witness found", never a proof
of impossibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CONVERGENT,
    INCONCLUSIVE,
    MIN_SHELLS,
    SLACK_POINTS,
    Partition,
    PartitionIndex,
    RealSequence,
    SumVerdict,
    TypelabError,
    poisson_tail_sum,
    shell_count,
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
    # energy leg was skipped or its deficits were not computed
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

    Short intervals are absorbed rightward, except that the breakpoint 0 is
    never dropped: a short interval ending at 0 extends leftward instead.
    """
    bks = list(partition.breakpoints)
    if len(bks) == 2:
        return partition
    out = [bks[0]]
    for i, b in enumerate(bks[1:], start=1):
        is_last = i == len(bks) - 1
        if b == 0.0:
            # keep 0; a short piece ending at 0 swallows its left neighbour
            while len(out) > 1 and b - out[-1] < LEAST_LENGTH:
                out.pop()
            out.append(b)
        elif is_last:
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
    partition = merge_short_intervals(partition)
    short_v = classify_family(partition)
    idx = _covering_index(seq, partition)
    density = _density_leg(idx, d)
    energy_v, deficits = None, [None] * len(partition)
    if scan and not skip_energy and shell_count(idx.dist0) < MIN_SHELLS:
        # energy and shortness verdicts on these locations are inconclusive: it fails
        check_intervals(seq.points, idx.lo, idx.hi, idx.lengths)
        energy_v = SumVerdict(None, (), None, INCONCLUSIVE,
                              note=f"deficits not computed: fewer than {MIN_SHELLS} dyadic shells")
    elif not skip_energy:
        energy_v, deficits = _energy_leg(seq, idx)
        deficits = deficits.tolist()
    rows = tuple(zip(idx.counts.tolist(), idx.lengths.tolist(), density.ratios, deficits))
    ok = (density.passed and short_v.classification == CONVERGENT
          and (skip_energy or energy_v.classification == CONVERGENT))
    return UniformityReport(d, partition, rows, density, energy_v, short_v,
                            ok, source, skip_energy)


def check_d_uniform(seq: RealSequence, d: float, partition: Partition | None = None,
                    skip_energy: bool = False) -> UniformityReport:
    """Full d-uniformity verdict for ``seq`` at density ``d``.

    With no partition supplied, the greedy candidate is tried first and, on
    failure, retried once with doubled minimum interval lengths; the report
    records which witness was used.  A sequence for which no partition
    candidate can even be built yields a fail report with reason
    ``"partition-not-found"`` rather than an error: at finite scale a missing
    witness is an ordinary negative verdict.
    """
    if d <= 0:
        raise TypelabError("d must be positive")
    if partition is not None:
        return _evaluate(seq, d, partition, "given", skip_energy)

    candidates = (("greedy", 1.0), ("greedy-doubled", 2.0))
    last: UniformityReport | None = None
    for source, scale in candidates:
        try:
            cand = find_short_partition(seq, d, min_length_scale=scale)
        except InsufficientData:
            continue
        report = _evaluate(seq, d, cand, source, skip_energy)
        if report.overall:
            return report
        last = report
    if last is not None:
        return last
    return UniformityReport(d, None, (), None, None, None, False, "none",
                            skip_energy, reason="partition-not-found")
