"""One repetition of a benchmark workload, in a fresh process.

run.py starts this script once per repetition, so no repetition reuses
another's caches (the realized groups, their search engines, Aut(G)).
The argument is a JSON object with the keys root, workload, seed, trace,
smoke, jobs, deadline, run_id and setup_only.  The script prints one JSON
line: the monotonic time at which set-up ended, and unless setup_only,
the wall and CPU time of the timed part, its peak memory, the exact-answer
checks and, when traced, the spans and counters.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> None:
    cfg = json.loads(sys.argv[1])
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    tracer = Tracer(bool(cfg["trace"]), cfg["run_id"], T_START)
    with tracer.span("setup"):
        with tracer.span("import"):
            import ddks
            import numpy
            import workloads
        if not os.path.abspath(ddks.__file__).startswith(os.path.abspath(src)):
            raise SystemExit(f"ddks imported from {ddks.__file__}, not {src}")
        workload = workloads.WORKLOADS[cfg["workload"]]
        ctx = workloads.Context(
            tracer, cfg["seed"], cfg["smoke"], cfg["jobs"], cfg["deadline"]
        )
        if cfg["trace"]:
            workloads.trace_layer_internals(tracer)
        inputs = workload.setup(ctx)
    report = {"setup_end": time.monotonic(), "numpy": numpy.__version__}
    if not cfg["setup_only"]:
        cpu_start = _cpu_s()
        start = time.monotonic()
        with tracer.span("rep"):
            out = workload.run(ctx, inputs)
        report["wall_s"] = time.monotonic() - start
        report["cpu_s"] = _cpu_s() - cpu_start
        report["peak_rss_mb"] = _peak_rss_mb()
        checks = workloads.Checks()
        tracer.enabled = False
        workload.check(ctx, out, inputs, checks)
        tracer.enabled = bool(cfg["trace"])
        if tracer.enabled and workload.after_traced_run is not None:
            workload.after_traced_run(ctx, inputs, out, checks)
        report["checks_attempted"] = checks.attempted
        report["checks_failed"] = checks.failures
        if cfg["trace"]:
            report["spans"] = tracer.spans
            report["counters"] = dict(tracer.counters)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
