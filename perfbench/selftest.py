"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json once at its smallest size, untraced
and traced, and checks that each run passes its exact-answer checks,
emits exactly the metric names of BENCHMARK.json with their units, records
the machine, and, when traced, writes spans that share one run id and
cover at least 90% of the repetition.  Then checks that the benchmark
refuses to run, without printing a result, in a tree that holds only
BENCHMARK.json and the benchmark.  Takes about four minutes on two cores;
the enumerate workload has no smaller size than the full one.
"""

from __future__ import annotations

import json
import numbers
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MACHINE_KEYS = {
    "nproc", "affinity", "cpu_model", "python", "numpy", "jobs", "seed", "commit",
}
SPAN_KEYS = {"run_id", "id", "name", "start", "end", "parent"}
MIN_SPAN_COVERAGE = 0.9


def _run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root, stdout=subprocess.PIPE, timeout=200,
    )


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}"]
    lines = proc.stdout.decode().splitlines()
    summary, result = json.loads(lines[-2]), json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        problems.append(f"{where}: checks failed: {summary['failures']}")
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != units:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(emitted.items()) ^ set(units.items()))}")
    for name, m in result["metrics"].items():
        if isinstance(m["value"], bool) or not isinstance(m["value"], numbers.Real):
            problems.append(f"{where}: {name} is not a number")
    missing = MACHINE_KEYS - set(summary["machine"])
    if missing:
        problems.append(f"{where}: machine record lacks {sorted(missing)}")
    if trace:
        with open(os.path.join(ROOT, summary["record_file"]), encoding="utf-8") as f:
            records = [json.loads(line) for line in f]
        spans = [r for r in records if r["record"] == "span"]
        if not spans or any(not SPAN_KEYS <= set(s) for s in spans):
            problems.append(f"{where}: spans lack {sorted(SPAN_KEYS)}")
        if {s["run_id"] for s in spans} != {summary["run_id"]}:
            problems.append(f"{where}: spans do not share the run id")
        if not any(r["record"] == "counters" for r in records):
            problems.append(f"{where}: no counters record")
        coverage = result["metrics"]["bench.span_coverage"]["value"]
        if coverage < MIN_SPAN_COVERAGE:
            problems.append(f"{where}: spans cover only {coverage:.1%} of wall_s")
    return problems


def check_refuses_bare_tree(workload: str) -> list[str]:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(bare, workload, 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["the benchmark ran in a tree without the program"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'FAIL' if found else 'ok'}")
            problems += found
    problems += check_refuses_bare_tree(spec["workloads"][0]["name"])
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
