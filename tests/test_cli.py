"""End-to-end checks of the command-line interface."""

import json
import time

import pytest

from ddks.cli import main
from ddks.paper import CRITERIA

NON_CCT = [
    "G(32,43)",
    "G(32,44)",
    "G(32,49)",
    "G(32,50)",
    "G(32,6)",
    "G(32,7)",
    "G(32,8)",
    "S4",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    report = json.loads(capsys.readouterr().out)
    return code, report


def test_catalog_list(capsys):
    code, report = run_cli(capsys, "catalog", "list")
    assert code == 0
    assert report["status"] == "count"
    assert report["results"]["count"] == 57
    assert len(report["results"]["labels"]) == 57


def test_catalog_show(capsys):
    code, report = run_cli(capsys, "catalog", "show", "S4")
    assert code == 0
    d = report["results"]
    assert d["order"] == 24
    assert d["center_order"] == 1
    assert d["derived_order"] == 12
    assert d["is_cct"] is False
    assert d["generators"] and d["relators"]


def test_catalog_show_unknown_label(capsys):
    code, report = run_cli(capsys, "catalog", "show", "NOPE")
    assert code == 1
    assert report["status"] == "fail"
    assert "unknown catalog label" in report["results"]["error"]


def test_cct_single(capsys):
    code, report = run_cli(capsys, "cct", "G(24,1)")
    assert code == 0
    assert report["results"]["is_cct"] is True


def test_cct_all(capsys):
    code, report = run_cli(capsys, "cct", "--all")
    assert code == 0
    assert sorted(report["results"]["non_cct"]) == NON_CCT
    assert len(report["results"]["cct"]) == 49


def test_cct_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["cct"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["cct", "S4", "--all"])
    assert exc.value.code == 2


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_search_prestructures(capsys):
    code, report = run_cli(capsys, "search", "prestructures", "G(24,3)")
    assert code == 0
    assert report["results"]["count"] == 0
    assert report["results"]["sample"] == []


def test_search_structures_small_sample(capsys):
    code, report = run_cli(
        capsys, "search", "structures", "S4", "--b", "2", "--n", "2"
    )
    assert code == 0
    assert report["results"]["count"] == 0
    # the subcommand's handler is not an input
    assert report["command"] == "search"
    assert report["inputs"] == {"b": 2, "label": "S4", "limit": 10, "n": 2}


def test_count_structures_both(capsys):
    code, report = run_cli(
        capsys, "count", "structures", "G(32,49)", "--method", "both"
    )
    assert code == 0
    d = report["results"]
    assert d["backtrack"] == 2211840
    assert d["symplectic"] == 2211840
    assert d["agree"] is True


def test_count_structures_symplectic_rejects_other_n(capsys):
    code, report = run_cli(
        capsys, "count", "structures", "G(32,49)", "--method", "symplectic",
        "--n", "3",
    )
    assert code == 1
    assert "n = 2" in report["results"]["error"]
    assert report["command"] == "count"
    assert report["inputs"] == {"label": "G(32,49)", "method": "symplectic", "n": 3}


def test_invariants_example(capsys):
    code, report = run_cli(capsys, "invariants", "G(32,50)", "--example")
    assert code == 0
    d = report["results"]
    assert (d["b1"], d["b2"], d["g1"], d["g2"]) == (2, 2, 41, 41)
    assert (d["c1sq"], d["c2"], d["sigma"], d["chi"]) == (368, 160, 16, 44)
    assert d["slope"] == "23/10"
    assert d["structure"]["group"] == "G(32,50)"


def test_invariants_with_homology(capsys):
    code, report = run_cli(
        capsys, "invariants", "G(32,49)", "--example", "--with-homology"
    )
    assert code == 0
    d = report["results"]
    assert d["first_betti"] == 8
    assert d["q_irr"] == 4
    assert d["p_g"] == 47


def test_invariants_structure_file(capsys, tmp_path):
    code, report = run_cli(capsys, "invariants", "G(32,49)", "--example")
    path = tmp_path / "s.json"
    path.write_text(json.dumps(report["results"]["structure"]))
    code2, report2 = run_cli(
        capsys, "invariants", "G(32,49)", "--structure", str(path)
    )
    assert code2 == 0
    assert report2["results"]["sigma"] == 16


def test_invariants_malformed_structure_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"elements": [1, 2]}')
    code, report = run_cli(
        capsys, "invariants", "G(32,49)", "--structure", str(path)
    )
    assert code == 1
    assert report["status"] == "fail"


def test_invariants_missing_file(capsys):
    code, report = run_cli(
        capsys, "invariants", "G(32,49)", "--structure", "/nonexistent.json"
    )
    assert code == 1


def test_invariants_requires_source():
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "G(32,49)"])
    assert exc.value.code == 2


def test_homology_example(capsys):
    code, report = run_cli(capsys, "homology", "G(32,49)", "--example")
    assert code == 0
    d = report["results"]
    assert d["free_rank"] == 8
    assert d["torsion"] == [2, 2, 2, 2]
    assert d["maximal"] is True


def test_homology_defaults_to_example(capsys):
    _, with_flag = run_cli(capsys, "homology", "G(32,50)", "--example")
    _, without = run_cli(capsys, "homology", "G(32,50)")
    assert with_flag["results"] == without["results"]


def test_homology_samples(capsys):
    code, report = run_cli(capsys, "homology", "G(32,50)", "--samples", "2")
    assert code == 0
    d = report["results"]
    assert len(d["samples"]) == 2
    assert d["all_equal"] is True
    assert d["samples"][0]["torsion"] == [2, 2, 2, 2]


@pytest.mark.parametrize("argv", [
    ["homology", "G(32,49)", "--example"],
    ["search", "structures", "G(32,49)", "--b", "2", "--n", "2"],
    ["count", "structures", "G(32,49)"],
    ["orbits", "G(32,49)"],
    ["verify-paper", "--quick"],
], ids=lambda argv: argv[0])
def test_no_jobs_flag(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "2"])
    assert exc.value.code == 2


def test_orbits_full_freeness(capsys):
    started = time.monotonic()
    code, report = run_cli(capsys, "orbits", "G(32,49)", "--freeness", "full")
    elapsed = time.monotonic() - started
    assert code == 0
    assert report["status"] == "count"
    assert report["inputs"] == {"freeness": "full", "label": "G(32,49)"}
    d = report["results"]
    assert d["orbit_count"] == 1920
    assert d["aut_order"] == 1152
    assert d["inner_order"] == 16
    assert d["outer_order"] == 72
    assert d["structure_count"] == 2211840
    assert d["freeness"] == "full"
    # checking freeness by generation, not by a scan of every automorphism
    # over every row (over two minutes), keeps this within the budget
    assert elapsed < 40, elapsed


def test_reports_are_deterministic(capsys):
    _, first = run_cli(capsys, "catalog", "show", "G(32,49)")
    _, second = run_cli(capsys, "catalog", "show", "G(32,49)")
    first.pop("timing")
    second.pop("timing")
    assert json.dumps(first) == json.dumps(second)


def test_report_shape(capsys):
    code, report = run_cli(capsys, "cct", "S4")
    assert sorted(report) == ["command", "inputs", "results", "status", "timing"]
    assert sorted(report["timing"]) == ["stages", "total"] and report["timing"]["stages"] == {}
    assert report["command"] == "cct"
    assert report["inputs"]["label"] == "S4"
    assert "jobs" not in report["inputs"]



def test_verify_paper_times_every_criterion_as_a_stage(capsys):
    """`timing` names each criterion of a `--quick` run as a stage, in
    the registry's order, with the seconds it took."""
    code, report = run_cli(capsys, "verify-paper", "--quick")
    assert code == 0 and report["status"] == "pass"
    stages = report["timing"]["stages"]
    assert list(stages) == [name for name, _ in CRITERIA]
    assert all(list(stage) == ["s"] and stage["s"] >= 0 for stage in stages.values())
    assert sum(stage["s"] for stage in stages.values()) <= report["timing"]["total"] + 0.01
