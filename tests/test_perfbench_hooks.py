"""The benchmark's hooks into the library.

``perfbench`` wraps library functions by name, builds its inputs from the
catalog with positional arguments and runs fixed ``typelab`` command lines, so
a renamed or removed function, a changed signature or a removed option breaks
``perfbench/run.py --trace 1``, its set-up or its jobs.  These tests load the
benchmark's modules from their source, without writing to ``perfbench``, and
exercise all three hooks.
"""

import contextlib
import io
import sys
import types
from pathlib import Path

import numpy as np

import typelab.cli  # noqa: F401  (imports every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    # dataclasses look their module up while the class body is built
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_tracer_resolves_every_probe():
    tracing = load("tracing")
    svd = np.linalg.svd
    tracer = tracing.Tracer()
    try:
        tracer.install()  # a name that no longer resolves raises here
        patched = {fn_name for _, fn_name, _ in tracer._patches}
    finally:
        tracer.uninstall()
    probed = {fn for _, fn, _, _ in tracing.SPANS} | {fn for _, fn, _ in tracing.COUNTED}
    assert probed | {"svd"} <= patched
    assert np.linalg.svd is svd


def test_workload_inputs_build(tmp_path):
    workloads = load("workloads")
    parser = typelab.cli.build_parser()
    for name, make in workloads.WORKLOADS.items():
        workload = make("smoke")
        directory = tmp_path / name
        directory.mkdir()
        docs = workload.make_inputs(0, str(directory))
        for job in workload.jobs + workload.checks + workload.records:
            # every document a job names was written, and the CLI still has every option
            parser.parse_args(job.resolve(docs))
        assert all(Path(path).is_file() for path in docs.values())


def test_blind_probes(tmp_path):
    # a probe that no workload's jobs reach is a benchmark metric that reads 0
    tracing, workloads = load("tracing"), load("workloads")
    runs = []
    for name, make in workloads.WORKLOADS.items():
        workload = make("smoke")
        directory = tmp_path / name
        directory.mkdir()
        docs = workload.make_inputs(0, str(directory))
        runs += [(name, job.key, job.resolve(docs)) for job in workload.jobs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, key, argv in runs:
            tracer.begin((name, key))
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert typelab.cli.main(argv) == 0, key
            finally:
                tracer.end()
    finally:
        tracer.uninstall()
    recorded = {span.name for spans in tracer.spans.values() for span in spans}
    recorded |= {name for counts in tracer.counts.values() for name, n in counts.items() if n}
    probes = ({name for _, _, name, _ in tracing.SPANS} | {name for _, _, name in tracing.COUNTED}
              | {"oracle.svd"})
    assert probes - recorded == {"energy.coulomb_energy", "oracle.annihilation_matrix"}
