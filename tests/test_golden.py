import pytest

from ddks import cli
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
