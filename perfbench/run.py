"""typelab benchmark: closed-loop CLI workloads with traced per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload estimators --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One client runs whole ``typelab`` analyses in-process through
``typelab.cli.main(argv)`` and waits for each before starting the next (a
closed loop).  A run is a whole number of cycles of the workload's job list;
cycles fill ``--seconds`` as nearly as whole cycles can.  Every job's stdout is
checked and its digest compared with the reference output.

``--trace 0`` reports the end-to-end metrics, in reference seconds: a fixed
probe computation runs between jobs, and wall times are rescaled by how long
the probe took against ``PROBE_REF_S``, so that the speed of a shared host,
which drifts by a quarter within minutes, cancels out.  ``--trace 1`` runs
untraced cycles for the first half of the time and traced cycles for the
second, and reports the per-layer metrics, the tracing overhead and the
per-command times of the untraced half.  The last line of stdout is one
JSON object; details (environment, every job's verdict value and digest,
every probe time) go to ``perfbench/_out/``.  The exit code is 1 when any check failed and 2 when
the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
REFERENCE = HERE / "reference.json"

# Each job is single-threaded BLAS; only the oracle's --threads adds a
# second thread, so compute threads never exceed the two cores measured on.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
# The host-speed probe's time on the reference host: a 2-vCPU Intel Xeon VM
# (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread), at its
# usual speed.  Only the scale of the end-to-end figures depends on it.
PROBE_REF_S = 0.30

END_TO_END = [
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
]

COMMANDS = ("type", "density", "regularity", "theorem", "oracle", "suite")

PER_LAYER = [
    ("core.shell_sum_verdict.calls", "count"),
    ("core.shell_sum_verdict.self_s", "s"),
    ("core.shell_sum_verdict.terms", "count"),
    ("core.poisson_tail_sum.calls", "count"),
    ("core.poisson_tail_sum.self_s", "s"),
    ("core.poisson_piece_contributions.self_s", "s"),
    ("core.poisson_piece_contributions.pieces", "count"),
    ("core.split_at_shells.calls", "count"),
    ("density.counting_function.calls", "count"),
    ("density.strong_regularity_defect.self_s", "s"),
    ("density.interior_density.self_s", "s"),
    ("density.interior_density.candidates", "count"),
    ("density.interior_density.useful_ratio", "ratio"),
    ("density.exterior_density.self_s", "s"),
    ("density.spread_selection.self_s", "s"),
    ("density.spread_selection.points", "count"),
    ("partitions.find_short_partition.calls", "count"),
    ("partitions.find_short_partition.self_s", "s"),
    ("partitions.find_short_partition.intervals", "count"),
    ("partitions.find_short_partition.insufficient", "count"),
    ("partitions.classify_family.calls", "count"),
    ("partitions.classify_family.self_s", "s"),
    ("energy.coulomb_energy.calls", "count"),
    ("energy.coulomb_energy.self_s", "s"),
    ("energy.coulomb_energy.pairs", "count"),
    ("energy.coulomb_energy.max_n", "count"),
    ("energy.energy_report.calls", "count"),
    ("energy.energy_report.self_s", "s"),
    ("uniformity.check_d_uniform.calls", "count"),
    ("uniformity.check_d_uniform.self_s", "s"),
    ("uniformity.check_d_uniform.pass_ratio", "ratio"),
    ("typeproblem.type_discrete.self_s", "s"),
    ("typeproblem.type_discrete.candidates", "count"),
    ("typeproblem.type_separated.self_s", "s"),
    ("typeproblem.type_separated.candidates", "count"),
    ("typeproblem.weight_filter_mask.self_s", "s"),
    ("typeproblem.levinson_check.self_s", "s"),
    ("typeproblem.benedicks_conditions.self_s", "s"),
    ("oracle.residual_scan.calls", "count"),
    ("oracle.residual_scan.self_s", "s"),
    ("oracle.residual_scan.grid_points", "count"),
    ("oracle.annihilation_matrix.calls", "count"),
    ("oracle.annihilation_matrix.self_s", "s"),
    ("oracle.annihilation_matrix.cells", "count"),
    ("oracle.svd.calls", "count"),
    ("oracle.svd.self_s", "s"),
    ("oracle.svd.cells", "count"),
    ("oracle.svd.bytes_computed", "B"),
    ("oracle.extended_fallbacks", "count"),
    ("serialize.canonical_json.self_s", "s"),
    ("serialize.canonical_json.bytes_out", "B"),
    ("serialize.load.self_s", "s"),
    ("serialize.load.bytes_in", "B"),
    ("constructions.self_s", "s"),
    ("job.unaccounted_s", "s"),
    ("job.failed_frac", "ratio"),
    ("cli.stdout_digest_match", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("job_s_p50", "s"),
] + [(f"cli.{cmd}_s", "s") for cmd in COMMANDS]

# metrics derived from other per-cycle layer values: name -> (numerator, denominator)
RATIOS = {
    "density.interior_density.useful_ratio": ("density.interior_density.useful",
                                              "density.interior_density.candidates"),
    "uniformity.check_d_uniform.pass_ratio": ("uniformity.check_d_uniform.passed",
                                              "uniformity.check_d_uniform.calls"),
}
# per-layer metrics of the whole run rather than of the traced cycles
RUN_LEVEL = {"constructions.self_s", "job.failed_frac", "cli.stdout_digest_match",
             "trace_overhead_frac", "peak_rss_mb", "job_s_p50"} | {
                 f"cli.{cmd}_s" for cmd in COMMANDS}
RENAMED = {
    "partitions.find_short_partition.insufficient":
        "partitions.find_short_partition.raised.InsufficientData",
    "oracle.extended_fallbacks": "oracle.residual_scan.extended_fallbacks",
}


class HostProbe:
    """A fixed computation, independent of typelab, whose time tracks the host's speed.

    The host is shared: its speed moves by 10-30% within tens of seconds and
    between sets of runs, and the probe's time moves with it (interpreter
    work and small numpy calls, like the workloads).  The end-to-end
    metrics divide wall times by the probe's mean time in the same phase of
    the same run: the set-up's probes run between its repetitions, the
    jobs' probes between jobs.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((120, 120))
        self.vector = rng.standard_normal(20000)
        self.times: dict[str, list[float]] = defaultdict(list)  # by phase
        self._work()  # warm-up: first-call costs of numpy and LAPACK

    def _work(self) -> float:
        import numpy as np

        start = perf_counter()
        acc, table = 0.0, {}
        for i in range(450_000):
            acc += (i * i % 7) * 0.5
            table[i & 1023] = acc
        for _ in range(60):
            np.linalg.svd(self.matrix)
            np.sort(self.vector)
            np.cumsum(self.vector)
        return perf_counter() - start

    def measure(self, phase: str) -> None:
        self.times[phase].append(self._work())

    def slowdown(self, phase: str) -> float:
        """The host's slowness in one phase: mean probe time over ``PROBE_REF_S``."""
        return statistics.fmean(self.times[phase]) / PROBE_REF_S


class Benchmark:
    """One workload in one process: set-up, timed cycles and their records."""

    def __init__(self, workload, seed: int, smoke: bool, tracer=None, probe=None) -> None:
        self.workload = workload
        self.probe = probe
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.order_rng = random.Random(seed)
        self.records: list[dict] = []
        self.references = _load_references("smoke" if smoke else "full")
        self.docs: dict[str, str] = {}
        self.setup_windows: list[tuple[float, float]] = []  # input generation, per set-up
        self.docs_dir = OUT / f"docs-{workload.name}-{os.getpid()}"

    # ------------------------------------------------------------ set-up

    def setup(self) -> list[float]:
        """Set up ``SETUP_REPS`` times; returns each duration.

        One set-up is a fresh interpreter importing ``typelab.cli`` (what
        every CLI call pays) plus generating and writing the input documents.
        """
        self.docs_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        times = []
        for rep in range(SETUP_REPS):
            if self.probe:
                self.probe.measure("setup")
            start = perf_counter()
            # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms,
            # which would quantize a 0.2 s measurement
            subprocess.run([sys.executable, "-c", "import typelab.cli"], env=env, check=True)
            if self.tracer:
                self.tracer.begin(("setup", rep))
            inputs_start = perf_counter()
            self.docs = self.workload.make_inputs(self.seed, str(self.docs_dir))
            end = perf_counter()
            if self.tracer:
                self.tracer.end()
            self.setup_windows.append((inputs_start, end))
            times.append(end - start)
        return times

    def cleanup(self) -> None:
        shutil.rmtree(self.docs_dir, ignore_errors=True)

    # ------------------------------------------------------------ jobs

    def run_cycles(self, seconds: float, phase: str) -> list[list[dict]]:
        """Whole cycles filling ``seconds`` as nearly as they can; returns their records.

        Another cycle starts while the run, at the mean cycle time so far,
        would end closer to ``seconds`` with it than without it.
        """
        from typelab import cli

        cycles = []
        start = perf_counter()
        while not cycles or (perf_counter() - start) * (1 + 0.5 / len(cycles)) < seconds:
            order = list(self.workload.jobs)
            self.order_rng.shuffle(order)
            index = len(self.records)
            cycle = []
            for i, job in enumerate(order):
                if self.probe:
                    self.probe.measure(phase)
                cycle.append(self._run_job(cli, job, phase, len(cycles), index + i))
            cycles.append(cycle)
            self.records.extend(cycle)
        return cycles

    def _run_job(self, cli, job, phase: str, cycle: int, index: int) -> dict:
        argv = job.resolve(self.docs)
        out, err = io.StringIO(), io.StringIO()
        if self.tracer and phase == "traced":
            self.tracer.begin(index)
        rc, failure = None, None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            failure = traceback.format_exc(limit=3)
        end = perf_counter()
        if self.tracer and phase == "traced":
            self.tracer.end()
        stdout = out.getvalue()
        record = {"key": job.key, "command": job.command, "phase": phase, "cycle": cycle,
                  "index": index, "start": start, "end": end, "wall_s": end - start,
                  "rc": rc, "value": None, "detail": None,
                  "stderr": err.getvalue()[-500:] or None}
        if failure is None and rc != 0:
            failure = f"exit code {rc}"
        if failure is None:
            try:
                ok, record["value"], record["detail"] = job.check(rc, stdout)
                if not ok:
                    failure = f"check failed: {record['detail']}"
            except (ValueError, KeyError, TypeError) as exc:
                failure = f"unreadable output: {exc!r}"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        reference = self._reference_digest(job)
        record.update(failure=failure, digest=digest, reference_digest=reference,
                      digest_match=None if reference is None else digest == reference)
        status = "ok" if failure is None else f"FAILED ({failure})"
        print(f"[{phase} c{cycle}] {job.key}: {end - start:.3f} s, value {record['value']!r}, "
              f"{status}", file=sys.stderr)
        return record

    def record_instabilities(self) -> list[dict]:
        """Run the workload's record-only jobs once, outside every timed phase."""
        from typelab import cli

        return [self._run_job(cli, job, "record", 0, -1) for job in self.workload.records]

    def run_checks(self) -> None:
        """Run the check jobs once, untimed, then the cross-check over the whole run."""
        from typelab import cli

        self.records.extend(self._run_job(cli, job, "check", 0, -1)
                            for job in self.workload.checks)
        if self.workload.cross_check is None:
            return
        values = defaultdict(list)
        for r in self.records:
            if r["failure"] is None:
                values[r["key"]].append(r["value"])
        for key, failure in self.workload.cross_check(values).items():
            for r in self.records:
                if r["key"] == key:
                    r["failure"] = f"cross-check failed: {failure}"
            print(f"  {key}: FAILED ({failure})", file=sys.stderr)

    def _reference_digest(self, job) -> str | None:
        if job.seeded:
            return self.references["seeded"].get(job.key, {}).get(str(self.seed))
        return self.references["fixed"].get(job.key)


# ---------------------------------------------------------------- metrics


def _median_cycle(cycles: list[list[dict]], value) -> float:
    return statistics.median(value(c) for c in cycles)


def _cycle_wall(cycle: list[dict]) -> float:
    return cycle[-1]["end"] - cycle[0]["start"]


def end_to_end_metrics(cycles, setup_times: list[float], probe: HostProbe) -> dict[str, float]:
    """Throughput and set-up time in reference seconds (wall seconds / slowdown)."""
    busy = sum(r["wall_s"] for c in cycles for r in c)
    correct = sum(1 for c in cycles for r in c if r["failure"] is None)
    return {"jobs_per_s": correct / busy * probe.slowdown("timed"),
            "setup_s": statistics.median(setup_times) / probe.slowdown("setup")}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def command_times(cycles) -> dict[str, float]:
    """Per command, the median over cycles of its summed job time in a cycle."""
    out = {}
    for cmd in COMMANDS:
        out[f"cli.{cmd}_s"] = _median_cycle(
            cycles, lambda c: sum(r["wall_s"] for r in c if r["command"] == cmd))
    return out


def traced_cycle_layers(tracer, traced) -> list[dict[str, float]]:
    """Per traced cycle, the layer values summed over its jobs (``max_n`` by max)."""
    cycle_layers = []
    for cycle in traced:
        agg: dict[str, float] = defaultdict(float)
        for r in cycle:
            layers = tracer.job_layers(r["start"], r["end"], r["index"])
            # the sweep covers exactly the top-level spans when every span
            # nests in its parent and top-level spans do not overlap
            accounted = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            if abs(accounted + layers["job.unaccounted_s"] - r["wall_s"]) > 1e-6:
                raise RuntimeError(f"self times of job {r['index']} do not add up: "
                                   f"{accounted} + {layers['job.unaccounted_s']} "
                                   f"!= {r['wall_s']}")
            for k, v in layers.items():
                agg[k] = max(agg[k], v) if k.endswith(".max_n") else agg[k] + v
        cycle_layers.append(agg)
    return cycle_layers


def module_shares(cycle_layers) -> dict[str, float]:
    """Share of traced job wall time spent in each module's own code."""
    wall = sum(agg["job.wall_s"] for agg in cycle_layers)
    shares: dict[str, float] = defaultdict(float)
    for agg in cycle_layers:
        for k, v in agg.items():
            if k.endswith(".self_s"):
                shares[k.split(".")[0]] += v / wall
        shares["unaccounted"] += agg["job.unaccounted_s"] / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def per_layer_metrics(bench: Benchmark, cycle_layers, untraced, traced) -> dict[str, float]:
    tracer = bench.tracer

    def layer_value(agg, name):
        if name in RATIOS:
            num, den = RATIOS[name]
            return agg.get(num, 0.0) / agg[den] if agg.get(den) else 0.0
        return agg.get(RENAMED.get(name, name), 0.0)

    metrics = {name: statistics.median(layer_value(agg, name) for agg in cycle_layers)
               for name, _ in PER_LAYER if name not in RUN_LEVEL}

    setup_self = []
    for rep, (start, end) in enumerate(bench.setup_windows):
        layers = tracer.job_layers(start, end, ("setup", rep))
        setup_self.append(sum(v for k, v in layers.items()
                              if k.endswith(".self_s")
                              and k.startswith(("constructions.", "catalog."))))
    metrics["constructions.self_s"] = statistics.median(setup_self)

    records = bench.records
    metrics["job.failed_frac"] = sum(1 for r in records if r["failure"]) / len(records)
    compared = [r["digest_match"] for r in records if r["digest_match"] is not None]
    metrics["cli.stdout_digest_match"] = sum(compared) / len(compared) if compared else 0.0
    metrics["trace_overhead_frac"] = (_median_cycle(traced, _cycle_wall)
                                      / _median_cycle(untraced, _cycle_wall) - 1.0)
    metrics["job_s_p50"] = statistics.median(r["wall_s"] for c in untraced for r in c)
    metrics.update(command_times(untraced))
    return metrics


# ---------------------------------------------------------------- environment


def _load_references(size: str) -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            table = json.load(fh).get(size, {})
    except FileNotFoundError:
        table = {}
    return {"fixed": table.get("fixed", {}), "seeded": table.get("seeded", {})}


def environment(workload) -> dict:
    import numpy
    import platform

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "typelab").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cli_threads": workload.threads,
        "typelab_commit": commit,
        "typelab_sources_sha256": sources.hexdigest(),
    }


# ---------------------------------------------------------------- entry points


def run_one(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import typelab.cli  # imports every typelab module the tracer wraps
    except ImportError as exc:
        print(f"error: cannot import typelab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(typelab.__file__).resolve().parent != ROOT / "src" / "typelab":
        print(f"error: typelab was loaded from {typelab.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]("smoke" if args.smoke else "full")
    if args.corrupt_reference:
        workloads.REFERENCES[args.corrupt_reference] *= 2.0
    tracer = tracing.Tracer() if args.trace else None
    # end-to-end runs probe the host's speed; traced runs report raw times
    probe = None if tracer else HostProbe()
    bench = Benchmark(workload, args.seed, args.smoke, tracer, probe)
    # smoke mode runs exactly one cycle per phase
    seconds = 0.0 if args.smoke else float(args.seconds)
    recorded: list[dict] = []
    shares: dict[str, float] = {}
    try:
        if tracer:
            tracer.install()
        setup_times = bench.setup()
        if tracer:
            tracer.uninstall()
            untraced = bench.run_cycles(seconds / 2, "untraced")
            # before the traced cycles keep spans, so their memory is not counted
            untraced_peak = peak_rss_mb()
            tracer.install()
            try:
                traced = bench.run_cycles(seconds / 2, "traced")
            finally:
                tracer.uninstall()
            bench.run_checks()
            cycle_layers = traced_cycle_layers(tracer, traced)
            metrics = per_layer_metrics(bench, cycle_layers, untraced, traced)
            metrics["peak_rss_mb"] = untraced_peak
            shares = module_shares(cycle_layers)
            print("module shares of traced job time: " + ", ".join(
                f"{m} {v:.3f}" for m, v in shares.items()), file=sys.stderr)
            units = PER_LAYER
            recorded = bench.record_instabilities()
        else:
            cycles = bench.run_cycles(seconds, "timed")
            bench.run_checks()
            metrics = end_to_end_metrics(cycles, setup_times, probe)
            units = END_TO_END
    finally:
        bench.cleanup()

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    OUT.mkdir(exist_ok=True)
    if tracer:
        tracer.dump(OUT / f"{stem}-spans.jsonl")
    failed = sum(1 for r in bench.records if r["failure"])
    result = {"correct": failed == 0, "attempted": len(bench.records), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units}}
    details = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "smoke": args.smoke, "environment": environment(workload),
               "setup_reps_s": setup_times,
               "probe_s": probe.times if probe else None, "probe_ref_s": PROBE_REF_S,
               "jobs": bench.records,
               "recorded_not_gated": recorded, "module_shares": shares,
               "result": result}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric by name and unit."""
    worst = 0
    for name in ("estimators", "oracle-probe", "suite"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            return 2
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']} {entry['unit']}")
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("estimators", "oracle-probe",
                                                               "suite", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, one cycle per phase")
    parser.add_argument("--corrupt-reference", metavar="NAME",
                        help="double one reference value of the checks (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
