"""Run a snippet under `python -O`, which strips bare `assert`s, and report
what it raised, so a test can show that a check raises explicitly.

One helper process per test session imports numpy and ddks once under
`-O`; each snippet then runs in its own child forked from the helper, so no
snippet sees another's monkeypatching and none pays for the imports."""

import atexit
import json
import os
import subprocess
import sys
from textwrap import indent

import ddks

_WRAPPER = """
import sys

if not sys.flags.optimize:
    sys.exit(4)
try:
{snippet}
except (AssertionError, ValueError) as e:
    print(type(e).__name__, e)
    sys.exit(3)
"""

TIMEOUT = 120  # seconds a snippet may run before SIGALRM ends it

# Reads one JSON-encoded script a line and forks a child that runs it, with
# stdin from /dev/null and stdout and stderr in temporary files; answers each
# with one JSON line [returncode, stdout, stderr].  The child leaves through
# the interpreter's own exit, so an uncaught exception prints its traceback
# and exits 1, and sys.exit(n) exits n; a signal gives -signum.
_HELPER = """
import json, os, signal, sys, tempfile
import numpy
import ddks.cli

for line in sys.stdin:
    out, err = tempfile.TemporaryFile(), tempfile.TemporaryFile()
    pid = os.fork()
    if pid == 0:
        os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
        os.dup2(out.fileno(), 1)
        os.dup2(err.fileno(), 2)
        signal.alarm(%d)
        exec(compile(json.loads(line), "<snippet>", "exec"), {"__name__": "__main__"})
        sys.exit()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    texts = []
    for f in (out, err):
        f.seek(0)
        texts.append(f.read().decode(errors="replace"))
        f.close()
    print(json.dumps([status] + texts), flush=True)
""" % TIMEOUT

_helper = None


def _close() -> None:
    _helper.stdin.close()
    _helper.wait(timeout=TIMEOUT)


def _run(script: str) -> tuple[int, str, str]:
    global _helper
    if _helper is None:
        # numpy's BLAS would start a thread pool on import; with one thread
        # the helper holds no other thread's lock when it forks
        env = dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(ddks.__file__)),
            OPENBLAS_NUM_THREADS="1",
        )
        _helper = subprocess.Popen(
            [sys.executable, "-O", "-c", _HELPER],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        atexit.register(_close)
    _helper.stdin.write(json.dumps(script) + "\n")
    _helper.stdin.flush()
    reply = _helper.stdout.readline()
    assert reply, f"the python -O helper exited with {_helper.poll()}"
    return tuple(json.loads(reply))


def raised_under_optimize(snippet: str) -> str:
    """'<exception type> <message>' of the AssertionError or ValueError
    that `snippet` raises when run under `python -O`, in a child process
    that nothing else runs in."""
    script = _WRAPPER.replace("{snippet}", indent(snippet.strip("\n"), "    "))
    returncode, stdout, stderr = _run(script)
    assert returncode == 3, (returncode, stdout, stderr)
    return stdout.strip()
