"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Runs one smoke cycle of every workload in BENCHMARK.json, untraced and
traced, and checks that each run prints exactly the metrics BENCHMARK.json
names, each with its unit.  It then shows that a corrupted reference value
is reported as a failed job, and that the benchmark refuses to run, without
a result line, in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def run(root: Path, *args: str) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_metrics(result: dict, expected: list[dict], label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{label}: correct={result['correct']} failed={result['failed']}")
    names = {m["name"]: m["unit"] for m in expected}
    printed = result["metrics"]
    if set(printed) != set(names):
        fail(f"{label}: missing {sorted(set(names) - set(printed))}, "
             f"extra {sorted(set(printed) - set(names))}")
    for name, unit in names.items():
        entry = printed[name]
        if entry["unit"] != unit or not isinstance(entry["value"], (int, float)):
            fail(f"{label}: {name} printed as {entry}, expected unit {unit}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{workload} trace {trace}"
            rc, result, stderr = run(ROOT, "--workload", workload, "--seed", "1",
                                     "--seconds", "1", "--trace", trace, "--smoke")
            if rc != 0 or result is None:
                fail(f"{label}: exit {rc}\n{stderr[-2000:]}")
            check_metrics(result, expected, label)
            if trace == "0" and any(m["value"] <= 0 for m in result["metrics"].values()):
                fail(f"{label}: an end-to-end metric is not positive: {result['metrics']}")
            print(f"ok: {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} jobs")

    rc, result, _ = run(ROOT, "--workload", "estimators", "--seed", "1", "--seconds", "1",
                        "--trace", "0", "--smoke", "--corrupt-reference", "two_pi")
    if rc == 0 or result is None or result["correct"] or result["failed"] != 2:
        fail(f"corrupted reference: exit {rc}, result {result}")
    details = json.loads((HERE / "_out" / "estimators-seed1-trace0-smoke.json").read_text())
    failed_keys = sorted(j["key"] for j in details["jobs"] if j["failure"])
    if failed_keys != ["type-koosis", "type-koosis-separated"]:
        fail(f"corrupted reference failed the wrong jobs: {failed_keys}")
    print(f"ok: corrupted reference reported as failed jobs {failed_keys}")

    bare = HERE / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, result, _ = run(bare, "--workload", "suite", "--seed", "1", "--seconds", "1",
                            "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or result is not None:
        fail(f"benchmark without the program: exit {rc}, result {result}")
    print(f"ok: without the program the benchmark exits {rc} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
