"""The ddks benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 15 --trace 0

Run from the root of a source tree that holds src/ddks.  Each repetition
is a fresh worker process (worker.py), started back to back as one closed-
loop caller until --seconds have passed (at least one repetition).

--trace 0 prints the end-to-end metrics: the medians over repetitions of
wall_s (the timed part), cpu_s (user + system CPU of the worker and its
children during the timed part), peak_rss_mb (the worker's peak resident
memory), and setup_s (from starting the worker to the end of its set-up,
over at least SETUPS set-ups).

--trace 1 runs one untraced and one traced repetition and prints the
per-layer metrics of the traced one, the tracing overhead (traced minus
untraced wall_s) and the share of wall_s that layer spans cover.  On the
enumerate workload it also repeats the backtracking call with one worker
per CPU, for the scaling efficiency.

Every repetition checks the paper's exact answers.  The last line of
standard output is one JSON object with the keys correct, attempted
(checks run), failed (checks failed) and metrics; failed / attempted is
the failure fraction.  The line before it records the machine, the seed,
the raw per-repetition values and the path of the run's JSON-lines record
under perfbench/out/, which also holds the spans and counters of a traced
run.  The exit code is 0 when every check passed, 1 when one failed and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("catalog", "enumerate", "homology")
RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUPS = 5
MAX_SCALING_JOBS = 8


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------- machine

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the program's sources, which identifies the code measured
    also where the tree is not a git checkout."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def machine_record(seed: int, jobs: int, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "jobs": {"timed": 1, "traced_scaling": jobs},
        "seed": seed,
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------- workers

def spawn(cfg: dict, deadline: float) -> dict:
    """Run one worker to completion; its report plus setup_s."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(cfg)],
        cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cfg['workload']} worker ran past the time budget")
    finally:
        # the worker leads its own process group: end anything left in it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{cfg['workload']} worker exited with {proc.returncode}")
    try:
        report = json.loads(out.decode().splitlines()[-1])
    except (IndexError, ValueError) as e:
        raise BenchError(f"{cfg['workload']} worker printed no report") from e
    report["setup_s"] = report["setup_end"] - started
    return report


# ----------------------------------------------------------------- metrics

def _span_s(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def span_coverage(spans: list[dict]) -> float:
    """Share of the timed repetition that its direct child spans cover."""
    rep = next(s for s in spans if s["name"] == "rep")
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] == rep["id"])
    return covered / (rep["end"] - rep["start"])


def end_to_end_metrics(reps: list[dict], setups: list[float]) -> dict:
    def median(key):
        return statistics.median(r[key] for r in reps)

    return {
        "wall_s": {"value": median("wall_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "cpu_s": {"value": median("cpu_s"), "unit": "s"},
        "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
    }


def per_layer_metrics(traced: dict, untraced: dict, jobs: int) -> dict:
    spans, counters = traced["spans"], traced["counters"]

    def t(name):
        return _span_s(spans, name)

    def c(name):
        return counters.get(name, 0)

    def per_matrix(name):
        return c(name) / matrices if matrices else 0.0

    backtrack, rows = t("structures.backtrack"), c("structures.backtrack_rows")
    parallel = t("structures.backtrack_parallel")
    first_homology = t("homology.first_homology")
    transversal, matrix = t("homology.transversal"), t("homology.relator_matrix")
    matrices = c("homology.matrices")
    values = [
        ("group_core.realize_s", t("group_core.realize"), "s"),
        ("group_core.groups_realized", c("group_core.groups_realized"), "count"),
        ("group_core.elements_realized", c("group_core.elements_realized"), "count"),
        ("group_core.cct_s", t("group_core.cct"), "s"),
        ("structures.prestructure_socle_s", t("structures.prestructure_socle"), "s"),
        ("structures.prestructure_full_s", t("structures.prestructure_full"), "s"),
        ("structures.prestructure_tuples", c("structures.prestructure_tuples"), "count"),
        ("structures.oracle_s", t("structures.oracle"), "s"),
        ("structures.backtrack_s", backtrack, "s"),
        ("structures.backtrack_rows", rows, "count"),
        ("structures.backtrack_us_per_row", 1e6 * backtrack / rows if rows else 0.0, "us"),
        ("structures.backtrack_scaling_eff",
         backtrack / (jobs * parallel) if parallel else 0.0, "ratio"),
        ("structures.bulk_filter_s", t("structures.bulk_filter"), "s"),
        ("structures.bulk_filter_gathers", c("structures.bulk_filter_gathers"), "count"),
        ("structures.generation_filter_s", t("structures.generation_filter"), "s"),
        ("symplectic.rows_s", t("symplectic.rows"), "s"),
        ("symplectic.reduced_structures", c("symplectic.reduced_structures"), "count"),
        ("symplectic.rows", c("symplectic.rows"), "count"),
        ("automorphisms.aut_s", t("automorphisms.aut"), "s"),
        ("automorphisms.aut_order", c("automorphisms.aut_order"), "count"),
        ("automorphisms.orbit_count_s", t("automorphisms.orbit_count"), "s"),
        ("automorphisms.freeness_rows_checked",
         c("automorphisms.freeness_rows_checked"), "count"),
        ("invariants.scan_s", t("invariants.scan"), "s"),
        ("invariants.scan_points", c("invariants.scan_points"), "count"),
        ("invariants.fibration_s", t("invariants.fibration"), "s"),
        ("homology.h1_s", t("homology.h1"), "s"),
        ("homology.transversal_s", transversal, "s"),
        ("homology.relator_matrix_s", matrix, "s"),
        ("homology.first_homology_s", first_homology, "s"),
        ("homology.reduce_s", first_homology - transversal - matrix, "s"),
        ("homology.h1_count", c("homology.h1_count"), "count"),
        ("homology.matrix_rows", per_matrix("homology.matrix_rows"), "count"),
        ("homology.matrix_cols", per_matrix("homology.matrix_cols"), "count"),
        ("homology.matrix_nnz", per_matrix("homology.matrix_nnz"), "count"),
        ("homology.snf_small_s", t("homology.snf_small"), "s"),
        ("homology.snf_small_count", c("homology.snf_small_count"), "count"),
        ("bench.traced_wall_s", traced["wall_s"], "s"),
        ("bench.trace_overhead_s", traced["wall_s"] - untraced["wall_s"], "s"),
        ("bench.span_coverage", span_coverage(spans), "ratio"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in values}


# -------------------------------------------------------------------- main

def run(args) -> tuple[dict, dict, list[dict]]:
    deadline = time.monotonic() + RUN_BUDGET_S
    jobs = max(1, min(len(os.sched_getaffinity(0)), MAX_SCALING_JOBS))
    run_id = uuid.uuid4().hex
    base = {
        "root": ROOT, "workload": args.workload, "seed": args.seed,
        "smoke": args.smoke, "jobs": jobs, "deadline": deadline, "run_id": run_id,
        "trace": 0, "setup_only": False,
    }
    summary = {"run_id": run_id, "workload": args.workload, "trace": args.trace}
    if args.trace:
        untraced = spawn(base, deadline)
        traced = spawn(dict(base, trace=1), deadline)
        reps = [untraced, traced]
        metrics = per_layer_metrics(traced, untraced, jobs)
        records = [dict(s, record="span") for s in traced["spans"]]
        records.append(dict(traced["counters"], record="counters", run_id=run_id))
    else:
        reps = []
        started = time.monotonic()

        def fits(cost: float) -> bool:
            return time.monotonic() + 1.5 * cost < deadline

        while not reps or (
            time.monotonic() - started < args.seconds
            and fits(max(r["setup_s"] + r["wall_s"] for r in reps))
        ):
            reps.append(spawn(base, deadline))
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUPS and fits(max(setups)):
            setups.append(spawn(dict(base, setup_only=True), deadline)["setup_s"])
        metrics = end_to_end_metrics(reps, setups)
        summary["setups_s"] = setups
        records = []
    summary["reps"] = [
        {k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")} for r in reps
    ]
    attempted = sum(r["checks_attempted"] for r in reps)
    failures = [name for r in reps for name in r["checks_failed"]]
    summary["fail_frac"] = len(failures) / attempted
    summary["failures"] = failures[:20]
    summary["machine"] = machine_record(args.seed, jobs, reps[0]["numpy"])
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return summary, result, records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run each workload at its smallest size (used by selftest.py)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "ddks", "__init__.py")):
        print(f"error: no ddks sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        summary, result, records = run(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    )
    summary["record_file"] = os.path.relpath(path, ROOT)
    with open(path, "w", encoding="utf-8") as handle:
        for record in [dict(summary, record="run", result=result)] + records:
            handle.write(json.dumps(record) + "\n")
    for name in summary["failures"]:
        print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
