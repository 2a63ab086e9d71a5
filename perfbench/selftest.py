"""Fast self-test of the benchmark itself, at smoke scale (about a minute).

Usage, from the repository root::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` declares the metrics of ``spec.py``; that for
every workload an untraced and a traced run each exit 0 with ``correct``
true, no failed operation and exactly the declared metrics, each a finite
number with its declared unit; that the two runs wrote byte-identical
checkpoints (so tracing changes nothing); and that ``run.py`` exits non-zero
without a result where only ``BENCHMARK.json`` and ``perfbench/`` exist.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

from spec import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def _result_problems(proc, declared: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"correct={result['correct']} "
                        f"failed={result['failed']}: {proc.stderr.strip()}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append("metric names differ: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, "
                            f"want {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def _digest(proc) -> str | None:
    return next((line.split(":", 1)[1].strip()
                 for line in proc.stdout.splitlines()
                 if line.startswith("checkpoint-sha256:")), None)


def main() -> int:
    failures = 0

    def report(ok: bool, what: str, problems=()) -> None:
        nonlocal failures
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        for problem in problems:
            print(f"    {problem}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    report(declared[0] == {n: u for n, u, _b in END_TO_END}
           and declared[1] == {n: u for n, u, *_r in PER_LAYER}
           and bench["workloads"] == [{"name": w.name, "why": w.why}
                                      for w in WORKLOADS.values()],
           "BENCHMARK.json matches spec.py and workloads.py")

    for workload in WORKLOADS:
        digests = []
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            problems = _result_problems(proc, declared[trace])
            report(not problems, f"{workload} --trace {trace}: every declared "
                   "metric, with its unit, no failed operation", problems)
            digests.append(_digest(proc))
        same = digests[0] is not None and digests[0] == digests[1]
        report(same, f"{workload}: traced and untraced checkpoints "
               "byte-identical",
               [] if same else [f"sha256 {d}" for d in digests])

    bare = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, next(iter(WORKLOADS)), 0)
        printed = proc.stdout.strip().splitlines()
        report(proc.returncode != 0
               and not (printed and printed[-1].startswith("{")),
               "without src/, run.py exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
