"""Top-level acceptance suite: one test per release criterion.

Each test prints a single pass line with its elapsed time and asserts the
stated runtime budget.  Budgets are generous on purpose; the point of the
assertion is to catch order-of-magnitude regressions, not jitter.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np

import ddks
from ddks.group_core import (
    EXPECTED_ORDER,
    catalog_labels,
    get_presentation,
    parse_presentation,
    realize,
    realize_label,
)
from ddks.automorphisms import automorphism_group, inner_automorphisms, orbit_count
from ddks.homology import h1_of_surface, integer_determinant, smith_normal_form
from ddks.invariants import (
    chern_invariants,
    fibration_data,
    fibre_genus,
    signature,
    signature_scan,
    with_homology,
)
from ddks.structures import (
    DDKStructure,
    StructureType,
    bulk_relator_filter,
    example_structure,
    generation_mask_filter,
    iter_prestructure_tuples,
    prestructure_report,
    reference_prestructures,
    relations_for_type,
)
from ddks.symplectic import aut_order, induced_space
from ddks.cli import SMALL_GROUP_SOURCES

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


def test_criterion_1_catalog_realization():
    budget = _Budget("criterion 1: catalog realization", 10)
    labels = list(catalog_labels())
    assert len(labels) == 57
    assert sum(1 for l in labels if l.startswith("G(24,")) == 11
    assert "S4" in labels and "A4" in labels
    assert sum(1 for l in labels if EXPECTED_ORDER[l] == 32) == 44
    for label in labels:
        assert realize_label(label).order == EXPECTED_ORDER[label], label
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
    for label, expected in expected_centers.items():
        assert len(realize_label(label).center()) == expected, label
    budget.done()


def test_criterion_2_cct_classification():
    budget = _Budget("criterion 2: CCT classification", 10)
    non_cct = {l for l in catalog_labels() if not realize_label(l).is_cct()}
    assert non_cct == NON_CCT
    budget.done()


def test_criterion_3_prestructure_nonexistence():
    socle = _Budget("criterion 3: prestructure non-existence (socle)", 120)
    for label in PRESTRUCTURE_FREE:
        report = prestructure_report(realize_label(label), mode="auto")
        assert report.count == 0, label
    socle.done()
    full = _Budget("criterion 3: prestructure non-existence (full)", 1800)
    for label in PRESTRUCTURE_FREE:
        report = prestructure_report(realize_label(label), mode="full")
        assert report.count == 0, label
        assert report.mode == "full"
    full.done()


def test_criterion_4_structure_count(rows_cache):
    t = StructureType(2, 2)
    relators = relations_for_type(t)
    for label in ORDER32:
        g = realize_label(label)
        bt_budget = _Budget(f"criterion 4: backtracking on {label}", 900)
        rows_bt = rows_cache.backtrack(label)
        bt_budget.done()
        sp_budget = _Budget(f"criterion 4: symplectic on {label}", 10)
        rows_sp = rows_cache.symplectic(label)
        sp_budget.done()
        check = _Budget(f"criterion 4: verification on {label}", 120)
        assert len(rows_bt) == STRUCTURE_COUNT == 1152 * 1920
        assert np.array_equal(rows_bt, rows_sp)
        assert bulk_relator_filter(g, rows_bt, relators).all()
        assert generation_mask_filter(g, rows_bt).all()
        orders = np.array(g.element_order, dtype=np.int64)
        assert (orders[rows_bt[:, 8].astype(np.int64)] == 2).all()
        assert generation_mask_filter(g, rows_bt[:, [0, 1, 2, 3, 8]]).all()
        assert generation_mask_filter(g, rows_bt[:, [4, 5, 6, 7, 8]]).all()
        check.done()
    assert signature(32, 2, 2) == 16


def test_criterion_5_orbit_counts(rows_cache):
    budget = _Budget("criterion 5: automorphisms and orbit counts", 600)
    expected = {"G(32,49)": (1152, 1, 1920), "G(32,50)": (1920, -1, 1152)}
    for label, (aut_expected, eps, orbits_expected) in expected.items():
        g = realize_label(label)
        auts = automorphism_group(g, get_presentation(label))
        assert len(auts) == aut_expected == aut_order(2, eps), label
        assert len(inner_automorphisms(g)) == 16
        rows = rows_cache.symplectic(label)
        assert STRUCTURE_COUNT % len(auts) == 0
        got = orbit_count(g, rows, auts, freeness="sample", sample_size=1000)
        assert got == orbits_expected == STRUCTURE_COUNT // len(auts)
    budget.done()


def test_criterion_6_invariants():
    for label in ORDER32:
        g = realize_label(label)
        s = example_structure(g)
        budget = _Budget(f"criterion 6: invariant report on {label}", 1)
        report = fibration_data(g, s)
        assert (report.b1, report.b2) == (2, 2)
        assert (report.g1, report.g2) == (41, 41)
        assert report.sigma == 16
        assert (report.c1sq, report.c2) == (368, 160)
        assert report.slope == Fraction(23, 10)
        full = with_homology(report, 8)
        assert (full.q_irr, full.p_g) == (4, 47)
        budget.done()
    legacy = _Budget("criterion 6: legacy datapoint (243,2,3)", 1)
    assert signature(243, 2, 3) == 144
    assert fibre_genus(243, 2, 3, 1) == 325
    c1sq, c2, _ = chern_invariants(243, 2, 3)
    assert c1sq == 3 * signature(243, 2, 3) + 2 * c2
    legacy.done()


def test_criterion_7_sharp_bound():
    budget = _Budget("criterion 7: sharp bound scan", 1)
    table = signature_scan()
    minimum = min(table.values())
    minimizers = [k for k, v in table.items() if v == minimum]
    assert minimum == 16
    assert minimizers == [(32, 2, 2)]
    budget.done()


def test_criterion_8_homology(rows_cache):
    budget = _Budget("criterion 8: homology of the covering surface", 120)
    rng = random.Random(8)
    for label in ORDER32:
        g = realize_label(label)
        invariants, maximal = h1_of_surface(g, example_structure(g))
        assert invariants.free_rank == 8
        assert invariants.torsion == (2, 2, 2, 2)
        assert maximal is True
        rows = rows_cache.symplectic(label)
        for i in rng.sample(range(len(rows)), 10):
            s = DDKStructure(g, StructureType(2, 2), tuple(int(v) for v in rows[i]))
            invariants, maximal = h1_of_surface(g, s)
            assert invariants.free_rank == 8, (label, i)
            assert invariants.torsion == (2, 2, 2, 2), (label, i)
            assert maximal is True
    budget.done()


def _minor_gcds_match(matrix, factors, rank):
    size = len(matrix)
    product = 1
    for k in range(1, rank + 1):
        product *= factors[k - 1]
        g = 0
        for rsel in combinations(range(size), k):
            for csel in combinations(range(size), k):
                sub = [[matrix[r][c] for c in csel] for r in rsel]
                g = gcd(g, abs(integer_determinant(sub)))
        if g != product:
            return False
    return True


def test_criterion_9_property_suites():
    snf = _Budget("criterion 9: SNF gcd-of-minors oracle", 120)
    rng = random.Random(9)
    for _ in range(500):
        size = rng.randint(2, 4)
        matrix = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        decomposition = smith_normal_form(matrix)
        assert _minor_gcds_match(
            matrix, decomposition.invariant_factors, decomposition.rank
        ), matrix
    snf.done()

    parallelogram = _Budget("criterion 9: q parallelogram law", 30)
    for label in ORDER32:
        space = induced_space(realize_label(label))
        vectors = list(space.vectors())
        assert len(vectors) == 16
        for u in vectors:
            for v in vectors:
                lhs = (space.q(u ^ v) + space.q(u) + space.q(v)) % 2
                assert lhs == space.pair(u, v), (label, u, v)
    parallelogram.done()

    oracle = _Budget("criterion 9: prestructure oracle, order <= 8", 120)
    for name, source in SMALL_GROUP_SOURCES.items():
        g = realize(parse_presentation(source))
        assert g.order <= 8, name
        engine = sorted(iter_prestructure_tuples(g, mode="full"))
        assert engine == reference_prestructures(g), name
    oracle.done()

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
        report = json.loads(proc.stdout)
        assert report["status"] == "pass"
        report.pop("timing")
        outputs.append(json.dumps(report, indent=2, sort_keys=True))
    assert outputs[0] == outputs[1]
    determinism.done()
