"""Golden reports: each CLI report on fixed, cheap arguments, without its
non-deterministic `timing`, as sorted-key JSON in `tests/golden/`.

The files were written from `python -m ddks.cli ARGS` and must stay
byte-identical; a change that moves one says what moved and why.
`test_golden.py` runs the commands in-process, and the registry of
`verify_paper_full.json`; `verify_paper_quick.json` is checked by
criterion 9's fresh runs in `test_acceptance.py`."""

import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


def report_text(stdout: str) -> str:
    """A report as its golden file holds it: no `timing`, keys sorted."""
    report = json.loads(stdout)
    report.pop("timing")
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
