"""Layer spans recorded from outside typelab, by wrapping its public functions.

Each probed function is replaced, in every typelab module namespace that
binds it (``from .core import ...`` makes copies), by a wrapper that records
a span: name, start, end and parent span, filed under the current job.  ``numpy.linalg.svd`` is
wrapped as ``oracle.svd``.  The per-term primitives get count-only wrappers,
because the large regularity jobs call each of them 200k times.

Spans are kept in memory, and reduced and written out when the run ends.
Self time is attributed by a sweep over span boundaries: each instant
covered by a job's spans is split evenly among the innermost spans open at
that instant.  With
one thread this is a span's duration minus its children's; with the
oracle's worker threads it still adds up: per job the layer self times
sum to the durations of the top-level spans, and the unaccounted time is
the job's wall time minus those durations.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


def _n_points(config) -> int:
    pts = getattr(config, "points", config)
    return int(getattr(pts, "size", len(pts)))


def _residual_scan_stats(args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["a_grid"]
    return {"grid_points": len(grid),
            "extended_fallbacks": int(bool(kwargs.get("extended_precision")))}


def _svd_stats(args, kwargs, result):
    a = args[0]
    return {"cells": a.shape[-2] * a.shape[-1], "bytes_computed": a.nbytes}


def _diagnostic_candidates(result) -> int:
    # type_discrete appends a growth diagnostic at d = 0; grid values are > 0
    return sum(1 for d, _, _ in result.diagnostics if d > 0)


# (module, function, span name, stats hook).  A hook maps (args, kwargs,
# result) to counts added to the span; "max_n" is reduced by max, the rest
# by sum.
SPANS = [
    ("core", "shell_sum_verdict", "core.shell_sum_verdict",
     lambda a, k, r: {"terms": len(a[0])}),
    ("core", "poisson_tail_sum", "core.poisson_tail_sum", None),
    ("core", "poisson_piece_contributions", "core.poisson_piece_contributions",
     lambda a, k, r: {"pieces": len(r)}),
    ("density", "strong_regularity_defect", "density.strong_regularity_defect", None),
    ("density", "interior_density", "density.interior_density",
     lambda a, k, r: {"candidates": len(r.diagnostics),
                      "useful": sum(1 for _, ok, _ in r.diagnostics if ok)}),
    ("density", "exterior_density", "density.exterior_density", None),
    ("density", "spread_selection", "density.spread_selection",
     lambda a, k, r: {"points": len(r)}),
    ("partitions", "find_short_partition", "partitions.find_short_partition",
     lambda a, k, r: {"intervals": len(r)}),
    ("partitions", "classify_family", "partitions.classify_family", None),
    ("energy", "coulomb_energy", "energy.coulomb_energy",
     lambda a, k, r: {"pairs": _n_points(a[0]) * (_n_points(a[0]) - 1) // 2,
                      "max_n": _n_points(a[0])}),
    ("energy", "energy_report", "energy.energy_report", None),
    ("uniformity", "check_d_uniform", "uniformity.check_d_uniform",
     lambda a, k, r: {"passed": int(r.overall)}),
    ("typeproblem", "type_discrete", "typeproblem.type_discrete",
     lambda a, k, r: {"candidates": _diagnostic_candidates(r)}),
    ("typeproblem", "type_separated", "typeproblem.type_separated",
     lambda a, k, r: {"candidates": _diagnostic_candidates(r)}),
    ("typeproblem", "weight_filter_mask", "typeproblem.weight_filter_mask", None),
    ("typeproblem", "levinson_check", "typeproblem.levinson_check", None),
    ("typeproblem", "benedicks_conditions", "typeproblem.benedicks_conditions", None),
    ("oracle", "residual_scan", "oracle.residual_scan", _residual_scan_stats),
    ("oracle", "annihilation_matrix", "oracle.annihilation_matrix",
     lambda a, k, r: {"cells": r.size}),
    ("serialize", "canonical_json", "serialize.canonical_json",
     lambda a, k, r: {"bytes_out": len(r)}),
] + [
    ("serialize", loader, "serialize.load",
     lambda a, k, r: {"bytes_in": os.path.getsize(a[0]) if isinstance(a[0], str) else 0})
    for loader in ("load_sequence", "load_measure", "load_intervals", "load_partition",
                   "load_weight_table")
] + [
    ("constructions", fn, f"constructions.{fn}", None)
    for fn in ("arithmetic", "perturb_exponential", "measure_from_weights",
               "alternating_partition", "benedicks_sequence", "auxiliary_sequence")
] + [
    ("catalog", fn, f"catalog.{fn}", None)
    for fn in ("koosis_measure", "spaced_polynomial_measure", "oracle_separated_bundle")
]

# Wrapped everywhere except in the defining module, where the function
# recurses into itself once per JSON value.
RECURSIVE = {"canonical_json"}

COUNTED = [("core", "split_at_shells", "core.split_at_shells"),
           ("density", "counting_function", "density.counting_function")]

MAX_STATS = {"max_n"}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    stats: dict | None
    error: str | None


class Tracer:
    """Installs the wrappers and keeps the spans and counts of every job."""

    def __init__(self) -> None:
        self.spans: dict[object, list[Span]] = {}
        self.counts: dict[object, dict[str, int]] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._job_spans: list[Span] = []
        self._job_counts: dict[str, int] = defaultdict(int)
        self._job_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name, fn, stats):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a worker thread's first span hangs under the job thread's open span
            parent = stack[-1] if stack else (
                tracer._job_stack[-1] if tracer._job_stack else None)
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._job_spans.append(Span(sid, name, start, perf_counter(), parent,
                                              None, type(exc).__name__))
                raise
            finally:
                stack.pop()
            end = perf_counter()
            extra = stats(args, kwargs, result) if stats else None
            tracer._job_spans.append(Span(sid, name, start, end, parent, extra, None))
            return result
        return traced

    def _count_wrapper(self, name, fn):
        tracer = self

        # only called on the job thread: the oracle's workers never reach them
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._job_counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Replace every probed function in every typelab namespace binding it."""
        if self._patches:
            return
        import numpy

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "typelab" or n.startswith("typelab."))]
        probes = [(mod, fn, name, stats, False) for mod, fn, name, stats in SPANS]
        probes += [(mod, fn, name, None, True) for mod, fn, name in COUNTED]
        for home_name, fn_name, name, stats, count_only in probes:
            home = sys.modules[f"typelab.{home_name}"]
            original = getattr(home, fn_name)
            wrapper = (self._count_wrapper(name, original) if count_only
                       else self._span_wrapper(name, original, stats))
            for mod in modules:
                if mod.__dict__.get(fn_name) is not original:
                    continue
                if mod is home and fn_name in RECURSIVE:
                    continue
                self._patches.append((mod, fn_name, original))
                setattr(mod, fn_name, wrapper)
        svd = numpy.linalg.svd
        self._patches.append((numpy.linalg, "svd", svd))
        numpy.linalg.svd = self._span_wrapper("oracle.svd", svd, _svd_stats)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patches):
            setattr(mod, fn_name, original)
        self._patches.clear()

    # ------------------------------------------------------------ jobs

    def begin(self, job) -> None:
        self._job_spans = self.spans[job] = []
        self._job_counts = self.counts[job] = defaultdict(int)
        self._job_stack = self._stack()

    def end(self) -> None:
        self._job_spans = []
        self._job_counts = defaultdict(int)

    # ------------------------------------------------------------ reduction

    def dump(self, path) -> None:
        """Write every job's spans and counts to ``path``, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as fh:
            for job, spans in self.spans.items():
                for s in spans:
                    fh.write(json.dumps({"job": job, "sid": s.sid, "name": s.name,
                                         "start": s.start, "end": s.end, "parent": s.parent,
                                         "stats": s.stats, "error": s.error}) + "\n")
            for job, counts in self.counts.items():
                fh.write(json.dumps({"job": job, "counts": counts}) + "\n")

    def job_layers(self, wall_start: float, wall_end: float, job) -> dict[str, float]:
        """Per-layer metrics of one job, including self times and unaccounted time."""
        spans = self.spans.get(job, [])
        self_s = attribute_self_time(spans)
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += self_s[s.sid]
            if s.error:
                out[f"{s.name}.raised.{s.error}"] += 1
            for stat, value in (s.stats or {}).items():
                key = f"{s.name}.{stat}"
                out[key] = max(out[key], value) if stat in MAX_STATS else out[key] + value
        for name, calls in self.counts.get(job, {}).items():
            out[f"{name}.calls"] += calls
        top = [s for s in spans if s.parent is None]
        for s in top:
            if s.start < wall_start or s.end > wall_end:
                raise RuntimeError(f"span {s.name} of job {job!r} escapes the job's window")
        wall = wall_end - wall_start
        out["job.wall_s"] = wall
        out["job.unaccounted_s"] = wall - sum(s.end - s.start for s in top)
        return dict(out)


def attribute_self_time(spans: list[Span]) -> dict[int, float]:
    """Split each covered instant evenly among the innermost open spans."""
    parent = {s.sid: s.parent for s in spans}
    events = sorted([(s.start, 1, s.sid) for s in spans]
                    + [(s.end, 0, s.sid) for s in spans])
    self_time = {s.sid: 0.0 for s in spans}
    open_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    leaves: set[int] = set()
    prev = events[0][0] if events else 0.0
    for t, starting, sid in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                self_time[leaf] += share
        prev = t
        p = parent[sid]
        if starting:
            active.add(sid)
            leaves.add(sid)
            if p in active:
                open_children[p] += 1
                leaves.discard(p)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if p in active:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return self_time
