import json

import pytest

from ddks import cli
from ddks.paper import CRITERIA
from goldentools import GOLDEN, report_text

RUNS = {
    "catalog_show_G32_49": ["catalog", "show", "G(32,49)"],
    "cct_all": ["cct", "--all"],
    "search_prestructures_S4": ["search", "prestructures", "S4"],
    "invariants_G32_49_example": ["invariants", "G(32,49)", "--example"],
    "homology_G32_49_example": ["homology", "G(32,49)", "--example"],
    "count_structures_G32_49": ["count", "structures", "G(32,49)"],
    "orbits_G32_49": ["orbits", "G(32,49)"],
}


@pytest.mark.parametrize("name", RUNS)
def test_report_matches_golden(name, capsys):
    assert cli.main(RUNS[name]) == 0
    assert report_text(capsys.readouterr().out) == (GOLDEN / f"{name}.json").read_text()


def test_full_verify_paper_matches_golden(rows_cache):
    """The results of the full `verify-paper`, whose golden file was written
    from `python -m ddks.cli verify-paper`: the registry in full mode,
    in-process on the session's rows."""
    criteria = []
    for name, check in CRITERIA:
        ok, details = check(rows_cache, False)
        criteria.append({"name": name, "status": "pass" if ok else "fail", "details": details})
    results = {"mode": "full", "criteria": criteria, "all_pass": all(c["status"] == "pass" for c in criteria)}
    golden = json.loads((GOLDEN / "verify_paper_full.json").read_text())
    assert json.loads(json.dumps(results)) == golden["results"]
