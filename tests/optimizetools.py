"""Run a snippet under `python -O`, which strips bare `assert`s, and report
what it raised, so a test can show that a check raises explicitly."""

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


def raised_under_optimize(snippet: str) -> str:
    """'<exception type> <message>' of the AssertionError or ValueError
    that `snippet` raises when run under `python -O` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ddks.__file__)))
    script = _WRAPPER.replace("{snippet}", indent(snippet.strip("\n"), "    "))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 3, (done.returncode, done.stdout, done.stderr)
    return done.stdout.strip()
