"""Top-level acceptance suite: one test per release criterion.

Each test runs the check of `ddks.paper.CRITERIA` that covers its
criterion, the one `verify-paper` runs, in full mode on the session's row
memo.  It asserts the check's verdict, this suite's own expected values
against the check's details, and whatever the check does not assert.
Each test prints a single pass line per budget with its elapsed time and
asserts the stated runtime budget; a budget started before a check covers
the whole check.  Budgets are generous on purpose; the point of the
assertion is to catch order-of-magnitude regressions, not jitter.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import ddks
from ddks import automorphisms, paper, structures
from ddks.automorphisms import automorphism_group
from ddks.group_core import EXPECTED_ORDER, catalog_labels, get_presentation, realize, realize_label
from ddks.invariants import chern_invariants, fibration_data, with_homology
from ddks.paper import (
    CENTER_ORDERS,
    CRITERIA,
    SMALL_GROUP_SOURCES,
    SUBSET_LABELS,
    check_catalog,
    check_cct,
    check_homology,
    check_invariants,
    check_orbits,
    check_prestructures,
    check_property_suites,
    check_structure_count,
)
from ddks.structures import example_structure, prestructure_report
from ddks.symplectic import aut_order, induced_space
from goldentools import GOLDEN, report_text

ORDER32 = ("G(32,49)", "G(32,50)")
PRESTRUCTURE_FREE = (
    "S4",
    "G(24,3)",
    "G(32,6)",
    "G(32,7)",
    "G(32,8)",
    "G(32,43)",
    "G(32,44)",
)
NON_CCT = {
    "S4",
    "G(32,6)",
    "G(32,7)",
    "G(32,8)",
    "G(32,43)",
    "G(32,44)",
    "G(32,49)",
    "G(32,50)",
}
STRUCTURE_COUNT = 2211840


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.started = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.started
        print(f"PASS {self.name} [{elapsed:.1f}s < {self.seconds}s]")
        assert elapsed < self.seconds, (
            f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
        )


def _passes(check, rows, *budgets):
    """Run a registry check in full mode within every budget; its details."""
    ok, details = check(rows, False)
    for budget in budgets:
        budget.done()
    assert ok, details
    return details


def test_criterion_1_catalog_realization(rows_cache):
    budget = _Budget("criterion 1: catalog realization", 10)
    labels = list(catalog_labels())
    assert len(labels) == 57
    assert sum(1 for l in labels if l.startswith("G(24,")) == 11
    assert "S4" in labels and "A4" in labels
    assert sum(1 for l in labels if EXPECTED_ORDER[l] == 32) == 44
    expected_centers = {
        "S4": 1,
        "G(24,3)": 2,
        "G(32,6)": 2,
        "G(32,7)": 2,
        "G(32,8)": 2,
        "G(32,43)": 2,
        "G(32,44)": 2,
        "G(32,49)": 2,
        "G(32,50)": 2,
    }
    assert CENTER_ORDERS == expected_centers
    details = _passes(check_catalog, rows_cache, budget)
    assert details == {"groups_realized": 57, "center_checks": len(expected_centers)}


def test_criterion_2_cct_classification(rows_cache):
    budget = _Budget("criterion 2: CCT classification", 10)
    details = _passes(check_cct, rows_cache, budget)
    assert set(details["non_cct"]) == NON_CCT


def test_criterion_3_prestructure_nonexistence(rows_cache):
    socle = _Budget("criterion 3: prestructure non-existence (socle)", 120)
    details = _passes(check_prestructures, rows_cache, socle)
    assert details["counts"] == {label: 0 for label in PRESTRUCTURE_FREE}
    full = _Budget("criterion 3: prestructure non-existence (full)", 1800)
    for label in PRESTRUCTURE_FREE:
        report = prestructure_report(realize_label(label), mode="full")
        assert report.count == 0, label
        assert report.mode == "full"
    full.done()


def test_criterion_4_structure_count(rows_cache):
    for label in ORDER32:
        bt_budget = _Budget(f"criterion 4: backtracking on {label}", 900)
        rows_cache.backtrack(label)
        bt_budget.done()
        sp_budget = _Budget(f"criterion 4: symplectic on {label}", 10)
        rows_cache.symplectic(label)
        sp_budget.done()
    # one run of the check verifies both groups, within each group's budget
    checks = [_Budget(f"criterion 4: verification on {label}", 120) for label in ORDER32]
    details = _passes(check_structure_count, rows_cache, *checks)
    assert details["counts"] == {label: STRUCTURE_COUNT for label in ORDER32}
    assert STRUCTURE_COUNT == 1152 * 1920
    assert details["mode"] == "full"
    assert details["verification"] == "full-set-equality"
    assert details["sigma"] == 16


def test_criterion_5_orbit_counts(rows_cache):
    budget = _Budget("criterion 5: automorphisms and orbit counts", 600)
    expected = {"G(32,49)": (1152, 1, 1920), "G(32,50)": (1920, -1, 1152)}
    details = _passes(check_orbits, rows_cache, budget)
    assert set(details) == set(expected)
    for label, (aut_expected, eps, orbits_expected) in expected.items():
        assert details[label]["aut_order"] == aut_expected == aut_order(2, eps), label
        assert STRUCTURE_COUNT % aut_expected == 0
        assert details[label]["orbits"] == orbits_expected == STRUCTURE_COUNT // aut_expected


def test_criterion_5_neither_packs_nor_checks_generation(rows_cache, monkeypatch):
    # freeness premise (c), that the rows are distinct and generate G, comes
    # from the certify tail; Aut(G) is built first and stubbed in, so only
    # orbit_count could call these
    auts = {}
    for label in ORDER32:
        G = realize_label(label)
        auts[G] = automorphism_group(G, get_presentation(label))
    monkeypatch.setattr(paper, "automorphism_group", lambda G, p: auts[G])
    seen = []
    for name in ("pack_rows", "generation_mask_filter"):
        real = getattr(automorphisms, name)
        monkeypatch.setattr(automorphisms, name, lambda G, rows, real=real: seen.append(rows) or real(G, rows))
    ok, details = check_orbits(rows_cache, False)
    assert ok, details
    assert seen == []


def test_criterion_4_needs_the_routes_own_arrays(rows_cache):
    """A copy of a route's rows carries no certificate, so criterion 4 fails
    on it, in either mode."""
    for route, quick in (("symplectic", True), ("symplectic", False), ("backtrack", False)):
        memo = paper.Rows()
        memo.backtrack, memo.symplectic = rows_cache.backtrack, rows_cache.symplectic
        setattr(memo, route, lambda label, own=getattr(rows_cache, route): own(label).copy())
        ok, details = check_structure_count(memo, quick)
        assert not ok and details == {"label": "G(32,49)", "certified": False}, (route, quick)


def test_order_32_routes_build_no_subgroup_lattice(monkeypatch):
    # criteria 4 (full mode: both routes) and 5 on a new memo, so on
    # groups realized afresh, whose maximal subgroups come from the
    # Frattini quotient
    built = []
    real = structures.all_subgroup_masks

    def spy(G):
        built.append(G.order)
        return real(G)

    monkeypatch.setattr(structures, "all_subgroup_masks", spy)
    fresh = paper.Rows()
    for check in (check_structure_count, check_orbits):
        ok, details = check(fresh, False)
        assert ok, details
    assert built == []
    # not a p-group: the spy sees its lattice built, on an S4 no earlier test has cached
    structures.maximal_subgroup_masks(realize(get_presentation("S4")))
    assert built == [24]


def test_criterion_6_invariants(rows_cache):
    reports = [_Budget(f"criterion 6: invariant report on {label}", 1) for label in ORDER32]
    legacy = _Budget("criterion 6: legacy datapoint (243,2,3)", 1)
    details = _passes(check_invariants, rows_cache, *reports, legacy)
    report = details["example_report"]
    assert (report["b1"], report["b2"]) == (2, 2)
    assert (report["g1"], report["g2"]) == (41, 41)
    assert report["sigma"] == 16
    assert (report["c1sq"], report["c2"]) == (368, 160)
    assert Fraction(report["slope"]) == Fraction(23, 10)
    for label in ORDER32:
        g = realize_label(label)
        full = with_homology(fibration_data(g, example_structure(g)), 8)
        assert (full.q_irr, full.p_g) == (4, 47)
    assert details["legacy_sigma"] == 144
    assert details["legacy_fibre_genus"] == 325
    c1sq, c2, _ = chern_invariants(243, 2, 3)
    assert c1sq == 3 * details["legacy_sigma"] + 2 * c2


def test_criterion_7_sharp_bound(rows_cache):
    budget = _Budget("criterion 7: sharp bound scan", 1)
    details = _passes(check_invariants, rows_cache, budget)
    assert details["scan_minimum"] == 16
    assert details["scan_minimizer"] == [32, 2, 2]


def test_criterion_8_homology(rows_cache):
    budget = _Budget("criterion 8: homology of the covering surface", 120)
    details = _passes(check_homology, rows_cache, budget)
    assert details["random_structures_per_group"] == 10
    assert details["h1"]["free_rank"] == 8
    assert details["h1"]["torsion"] == [2, 2, 2, 2]
    assert details["h1"]["maximal"] is True


def test_criterion_9_property_suites(rows_cache):
    snf = _Budget("criterion 9: SNF gcd-of-minors oracle", 120)
    parallelogram = _Budget("criterion 9: q parallelogram law", 30)
    oracle = _Budget("criterion 9: prestructure oracle, order <= 8", 120)
    details = _passes(check_property_suites, rows_cache, snf, parallelogram, oracle)
    assert details["snf_matrices"] == 500
    for label in ORDER32:
        assert len(induced_space(realize_label(label)).q_table) == 16
    assert set(details["small_groups"]) == set(SMALL_GROUP_SOURCES)

    determinism = _Budget("criterion 9: verify-paper determinism", 180)
    # the subprocess must import this ddks, however pytest found it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ddks.__file__)))
    outputs = []
    # the second run strips bare asserts, so the bytes must not rest on one
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "ddks.cli", "verify-paper", "--quick"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(proc.stdout)["status"] == "pass"
        outputs.append(report_text(proc.stdout))
    assert outputs[0] == outputs[1] == (GOLDEN / "verify_paper_quick.json").read_text()
    results = json.loads(outputs[0])["results"]
    assert results["mode"] == "quick"
    assert results["all_pass"] is True
    names = [c["name"] for c in results["criteria"]]
    assert len(names) == 8 and len(set(names)) == 8
    assert names == [name for name, _ in CRITERIA]
    assert all(c["status"] == "pass" for c in results["criteria"])
    determinism.done()


def test_property_suites_catch_a_reference_that_drops_its_last_row(monkeypatch, rows_cache):
    # every order-8 comparison of full prestructures is empty; the relator
    # subset gives S3 648 rows, so a lost row fails the check
    reference = paper.reference_prestructures
    monkeypatch.setattr(paper, "reference_prestructures", lambda G, *rest: reference(G, *rest)[:-1])
    ok, details = check_property_suites(rows_cache, True)
    assert not ok and details == {"prestructure_oracle": "S3", "relators": list(SUBSET_LABELS)}
