"""The three benchmark workloads: their inputs, job lists and correctness checks.

Each workload is a fixed list of ``typelab`` command lines.  A cycle runs the
whole list once, in an order drawn from the seed, so every run of a workload
sees the same job mix.  Inputs are written as JSON documents in set-up; the
program only ever sees those documents.

Checks use the tolerances of the library's own acceptance battery, never
the exact value one seed happens to give.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

# Reference values the checks compare against.  The self-test corrupts one
# of them to show that a wrong answer is reported as a failed job.
REFERENCES = {
    "two_pi": 2.0 * math.pi,
    "type_rtol": 0.10,
    "arith_interior": 1.0,
    "pert_density": 1.0,
    "density_tol": 0.10,
    "knee_rtol": 0.25,
}

# Truncations: the full definition and the reduced smoke size.  The perturbed
# interior scan runs at T=1e4, not 3e4: at 3e4 its work varies threefold with
# the perturbation seed (0.9e9 or 2.7e9 Coulomb pairs, depending on whether
# the d=1.1 and 1.2 candidates reach the energy check), which would swamp the
# run-to-run spread across seeds.  At 1e4 the failing candidates still run the
# row loop of coulomb_energy (n > 512).
SIZES = {
    "full": {"big_T": 1e5, "small_T": 1e4, "oracle_T": 120.0, "oracle_big_T": 240.0},
    "smoke": {"big_T": 1e4, "small_T": 3e3, "oracle_T": 60.0, "oracle_big_T": 120.0},
}

DENSITY_GRID = "0.1:2.0:0.1"
ORACLE_THREADS = 2
SUITE_THREADS = 1


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check its stdout must pass."""

    key: str                    # stable id, also the key of the reference digest
    argv: tuple[str, ...]       # ``{name}`` fields are replaced by document paths
    check: Callable[[int, str], tuple[bool, object, str]]
    seeded: bool = False        # the input depends on the perturbation seed

    @property
    def command(self) -> str:
        return self.argv[0]

    def resolve(self, docs: dict[str, str]) -> list[str]:
        return [a.format(**docs) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int | None                         # --threads passed to the CLI, if any
    make_inputs: Callable[[int, str], dict]     # (seed, directory) -> {name: path}
    jobs: tuple[Job, ...]
    # untimed jobs run once after the timed cycles, whose values the
    # cross-check compares with those of the timed jobs
    checks: tuple[Job, ...] = ()
    cross_check: Callable[[dict], dict] | None = None  # {key: [values]} -> {key: failure}
    # untimed, ungated jobs whose verdicts are only recorded (traced runs)
    records: tuple[Job, ...] = ()


def _write(directory: str, name: str, obj) -> str:
    from typelab.serialize import canonical_json

    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj) + "\n")
    return path


# ---------------------------------------------------------------- checks


def _check_type(rc: int, out: str):
    value = json.loads(out)["lower_bound_type"]
    target = REFERENCES["two_pi"]
    ok = abs(value - target) <= REFERENCES["type_rtol"] * target
    return ok, value, f"type {value} vs {target:.6f}"


def _check_regularity(rc: int, out: str):
    doc = json.loads(out)
    return (doc["classification"] == "convergent",
            doc["classification"], f"defect {doc['value_truncated']}")


def _check_arith_interior(rc: int, out: str):
    value = json.loads(out)["value"]
    return value == REFERENCES["arith_interior"], value, "exact"


def _check_near_one(rc: int, out: str):
    value = json.loads(out)["value"]
    ok = abs(value - REFERENCES["pert_density"]) <= REFERENCES["density_tol"] + 1e-12
    return ok, value, f"within {REFERENCES['density_tol']} of {REFERENCES['pert_density']}"


def _check_levinson(rc: int, out: str):
    kind = json.loads(out)["conclusion"]["kind"]
    return kind == "inconclusive", kind, "koosis tails are not fast enough to decide"


def _check_knee(fraction_of_two_pi: float):
    def check(rc: int, out: str):
        doc = json.loads(out)
        knee = doc["knee"]
        expected = REFERENCES["two_pi"] * fraction_of_two_pi
        ok = (knee is not None and not doc["extended_used"]
              and abs(knee - expected) <= REFERENCES["knee_rtol"] * expected)
        return ok, knee, f"knee vs {expected:.6f}, extended_used {doc['extended_used']}"
    return check


def _check_suite(rc: int, out: str):
    rows = json.loads(out)
    failing = [r["check"] for r in rows if r["status"] != "pass"]
    return (rc == 0 and not failing, f"{len(rows) - len(failing)}/{len(rows)} pass",
            "failing: " + ", ".join(failing) if failing else "all rows pass")


def _record_uniform(rc: int, out: str):
    doc = json.loads(out)
    return True, doc["overall"], doc.get("reason") or doc["partition_source"]


def _cross_check_exterior(values: dict) -> dict:
    """On the same sequence the exterior (upper) density must not undercut the
    interior (lower) one."""
    below = [(ext, inner) for ext in values.get("density-exterior-perturbed-small", ())
             for inner in values.get("density-interior-perturbed-small", ()) if ext < inner]
    if not below:
        return {}
    return {"density-exterior-perturbed-small": "exterior {} < interior {}".format(*below[0])}


# ---------------------------------------------------------------- workloads


def estimators(size: str) -> Workload:
    """Formula machinery at large truncation: few calls, long arrays.

    core, density, partitions, energy and serialize do nearly all the work;
    the oracle does none.
    """
    sz = SIZES[size]

    def make_inputs(seed: int, directory: str) -> dict:
        from typelab import catalog
        from typelab.constructions import arithmetic, perturb_exponential

        return {
            "koosis": _write(directory, "koosis", catalog.koosis_measure(sz["big_T"])),
            "arith": _write(directory, "arith", arithmetic(1.0, sz["big_T"])),
            "pert_big": _write(directory, "pert_big", perturb_exponential(
                arithmetic(1.0, sz["big_T"]), 1.0, seed)),
            "pert_small": _write(directory, "pert_small", perturb_exponential(
                arithmetic(1.0, sz["small_T"]), 1.0, seed)),
        }

    grid = ("--grid", DENSITY_GRID)
    jobs = (
        Job("type-koosis", ("type", "--input", "{koosis}"), _check_type),
        Job("type-koosis-separated", ("type", "--input", "{koosis}", "--separated"),
            _check_type),
        Job("regularity-perturbed-big", ("regularity", "--input", "{pert_big}", "--a", "1"),
            _check_regularity, seeded=True),
        Job("density-interior-arith-big",
            ("density", "--input", "{arith}", "--kind", "interior") + grid,
            _check_arith_interior),
        Job("density-interior-perturbed-small",
            ("density", "--input", "{pert_small}", "--kind", "interior") + grid,
            _check_near_one, seeded=True),
        Job("density-exterior-perturbed-big",
            ("density", "--input", "{pert_big}", "--kind", "exterior") + grid,
            _check_near_one, seeded=True),
        Job("theorem-levinson-koosis", ("theorem", "levinson", "--input", "{koosis}"),
            _check_levinson),
    )
    # the cross-check's exterior density of the perturbed T=1e4 sequence
    # (about 10 ms), run once per run outside the timed cycles
    checks = (Job("density-exterior-perturbed-small",
                  ("density", "--input", "{pert_small}", "--kind", "exterior") + grid,
                  _check_near_one, seeded=True),)
    # known instability: the d=1 verdict on the perturbed grid flips with the
    # seed (and its interior density reads 0.9 for most seeds); recorded only
    records = (Job("uniform-d1-perturbed-small", ("uniform", "--input", "{pert_small}",
                                                  "--d", "1"), _record_uniform, seeded=True),)
    return Workload("estimators", None, make_inputs, jobs, checks, _cross_check_exterior,
                    records)


def oracle_probe(size: str) -> Workload:
    """The SVD completeness probe: annihilation matrices and their SVDs only."""
    sz = SIZES[size]
    # (name, expected type as a fraction of 2 pi, a-max): the values of
    # catalog.oracle_separated_bundle, kept here so that a change to the
    # catalog cannot loosen the check
    bundle = [("koosis-unit", 1.0, 12.6), ("arith-half", 0.5, 6.3),
              ("koosis-rescaled", 1.0, 12.6)]

    def make_inputs(seed: int, directory: str) -> dict:
        from typelab import catalog

        docs = {}
        for ex in catalog.oracle_separated_bundle(sz["oracle_T"]):
            docs[ex.name.replace("-", "_")] = _write(directory, ex.name, ex.measure)
        docs["koosis_big"] = _write(directory, "koosis-big",
                                    catalog.koosis_measure(sz["oracle_big_T"]))
        return docs

    tail = ("--steps", "64", "--threads", str(ORACLE_THREADS))
    jobs = tuple(
        Job(f"oracle-{name}", ("oracle", "--input", "{" + name.replace("-", "_") + "}",
                               "--a-max", str(a_max)) + tail, _check_knee(fraction))
        for name, fraction, a_max in bundle
    ) + (Job("oracle-koosis-big", ("oracle", "--input", "{koosis_big}", "--a-max", "12.6")
             + tail, _check_knee(1.0)),)
    return Workload("oracle-probe", ORACLE_THREADS, make_inputs, jobs)


def suite(size: str) -> Workload:
    """The bundled acceptance battery: the same layers through many small calls."""

    def make_inputs(seed: int, directory: str) -> dict:
        return {}

    jobs = (Job("suite", ("suite", "--threads", str(SUITE_THREADS)), _check_suite),)
    return Workload("suite", SUITE_THREADS, make_inputs, jobs)


WORKLOADS = {"estimators": estimators, "oracle-probe": oracle_probe, "suite": suite}
