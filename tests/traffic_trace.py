"""Which functions of `src/ddks` no run executes: an opt-in trace, which
pytest does not collect.

    python tests/traffic_trace.py

In one process, under a `sys.settrace` hook that records the `src/ddks`
functions entered, it runs `verify-paper` in both modes, the CLI commands
of the golden reports (`test_golden.RUNS`) and a few more, `invariants` and
`homology --structure FILE` on a written example structure, and the
`setup` and `run` of the three benchmark workloads, imported from
`perfbench/workloads.py` as they are.  It then prints every function
defined in `src/ddks` (lambdas and comprehensions aside) that no run
entered, as `path:line qualified name`.  It takes about 6 s.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "tests"), str(ROOT / "perfbench")]

MORE_RUNS = (
    ["catalog", "list"],
    ["cct", "S4"],
    ["search", "structures", "G(32,49)", "--b", "2", "--n", "2", "--limit", "3"],
    ["count", "structures", "G(32,49)", "--method", "both"],
    ["orbits", "G(32,49)", "--freeness", "full"],
    ["invariants", "G(32,49)", "--example", "--with-homology"],
    ["homology", "G(32,49)", "--samples", "2"],
    ["verify-paper"],
    ["verify-paper", "--quick"],
)


def _key(code) -> tuple[str, int, str]:
    return code.co_filename, code.co_firstlineno, getattr(code, "co_qualname", code.co_name)


def defined_functions() -> set[tuple[str, int, str]]:
    """The code object of every named function, not a class body, in the
    modules under src/ddks."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                found.add(_key(code))
    return found


def traced_runs() -> set[tuple[str, int, str]]:
    """The src/ddks functions entered by the runs in the module docstring,
    from the first import of ddks on."""
    entered: set[tuple[str, int, str]] = set()
    prefix = str(SRC)

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            entered.add(_key(frame.f_code))
        # no local trace: only calls are recorded

    sys.settrace(on_call)
    try:
        import workloads
        from ddks import cli
        from ddks.group_core import realize_label
        from ddks.structures import example_structure, structure_to_dict
        from test_golden import RUNS
        from tracer import Tracer

        with tempfile.TemporaryDirectory() as folder:
            structure = os.path.join(folder, "structure.json")
            G = realize_label("G(32,49)")
            with open(structure, "w", encoding="utf-8") as handle:
                json.dump(structure_to_dict(example_structure(G), "G(32,49)"), handle)
            commands = [*RUNS.values(), *MORE_RUNS]
            commands += [[name, "G(32,49)", "--structure", structure] for name in ("invariants", "homology")]
            for argv in commands:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    status = cli.main(argv)
                if status != 0:
                    raise SystemExit(f"ddks {' '.join(argv)} exited with {status}")
        for name, workload in workloads.WORKLOADS.items():
            ctx = workloads.Context(Tracer(False, name, time.monotonic()), 0, False, 1, time.monotonic() + 600)
            workload.run(ctx, workload.setup(ctx))
    finally:
        sys.settrace(None)
    return entered


def main() -> None:
    started = time.monotonic()
    defined = defined_functions()
    missed = sorted(defined - traced_runs())
    for filename, line, name in missed:
        print(f"{os.path.relpath(filename, ROOT)}:{line} {name}")
    print(f"{len(missed)} of {len(defined)} functions not run, {time.monotonic() - started:.1f} s")


if __name__ == "__main__":
    main()
