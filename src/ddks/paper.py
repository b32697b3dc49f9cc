"""The paper's eight criteria, in one registry.

`CRITERIA` lists each criterion as (name, check), in report order.  A
check takes a `Rows` memo and the mode (quick or full) and returns
(ok, details); `verify-paper` reports the details, and the acceptance
tests run the same checks and assert their own expected values against
them.  The routes' rows carry the certify tail's certificate
(`certified_type`), one certification per group: the structure count
requires it on the arrays it compares and checks only what the routes do
not, strong generation.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd

import numpy as np

from .automorphisms import automorphism_group, orbit_count
from .group_core import (
    EXPECTED_ORDER,
    FiniteGroup,
    catalog_labels,
    get_presentation,
    parse_presentation,
    realize,
    realize_label,
)
from .homology import h1_of_surface, integer_determinant, smith_normal_form
from .invariants import (
    chern_invariants,
    fibration_data,
    fibre_genus,
    report_to_dict,
    signature,
    signature_scan,
)
from .structures import (
    DDKStructure,
    StructureType,
    certified_type,
    example_structure,
    generation_mask_filter,
    inner_automorphism_table,
    iter_prestructure_tuples,
    prestructure_relations,
    prestructure_report,
    reference_prestructures,
    structure_rows,
)
from .symplectic import aut_order, induced_space, symplectic_structure_rows

ORDER32 = ("G(32,49)", "G(32,50)")
STRUCTURE_COUNT = 2211840
CENTER_ORDERS = {
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
CLASS3_LABELS = ("G(32,6)", "G(32,7)", "G(32,8)", "G(32,43)", "G(32,44)")
NON_CCT_LABELS = ("S4",) + CLASS3_LABELS + ORDER32
PRESTRUCTURE_FREE_LABELS = ("S4", "G(24,3)") + CLASS3_LABELS
# label: (|Aut|, the type epsilon of its quadratic form, orbits)
ORBITS = {"G(32,49)": (1152, 1, 1920), "G(32,50)": (1920, -1, 1152)}
EXAMPLE_REPORT = {
    "group_order": 32,
    "b": 2,
    "n": 2,
    "frak_n": "1/2",
    "m1": 1,
    "m2": 1,
    "b1": 2,
    "b2": 2,
    "g1": 41,
    "g2": 41,
    "c1sq": 368,
    "c2": 160,
    "slope": "23/10",
    "sigma": 16,
    "chi": 44,
}
H1 = {"free_rank": 8, "torsion": [2, 2, 2, 2], "maximal": True}
SMALL_GROUP_SOURCES = {
    "Z1": "gens: e\nrel: e",
    "Z2": "gens: x\nrel: x^2",
    "Z3": "gens: x\nrel: x^3",
    "Z4": "gens: x\nrel: x^4",
    "V4": "gens: x y\nrel: x^2\nrel: y^2\nrel: [x,y]",
    "Z5": "gens: x\nrel: x^5",
    "Z6": "gens: x\nrel: x^6",
    "S3": "gens: r s\nrel: r^3\nrel: s^2\nrel: s r s^-1 r",
    "Z7": "gens: x\nrel: x^7",
    "Z8": "gens: x\nrel: x^8",
    "Z4xZ2": "gens: x y\nrel: x^4\nrel: y^2\nrel: [x,y]",
    "Z2xZ2xZ2": (
        "gens: x y z\nrel: x^2\nrel: y^2\nrel: z^2\n"
        "rel: [x,y]\nrel: [x,z]\nrel: [y,z]"
    ),
    "D8": "gens: r s\nrel: r^4\nrel: s^2\nrel: s r s^-1 r",
    "Q8": "gens: i j\nrel: i^4\nrel: j^2 i^-2\nrel: j i j^-1 i",
}

# Under (R1)-(R5) and (T1)-(T5) alone, S3 and D8 have these many rows.
SUBSET_LABELS = tuple(f"{kind}{i}" for kind in "RT" for i in range(1, 6))
SUBSET_ROWS = {"S3": 648, "D8": 24576}


class Rows:
    """Each route's sorted, certified type-(2,2) rows per label, computed
    at most once per memo."""

    def __init__(self):
        self._rows: dict[tuple[str, str], np.ndarray] = {}

    def backtrack(self, label: str) -> np.ndarray:
        key = ("backtrack", label)
        if key not in self._rows:
            self._rows[key] = structure_rows(realize_label(label), StructureType(2, 2))
        return self._rows[key]

    def symplectic(self, label: str) -> np.ndarray:
        key = ("symplectic", label)
        if key not in self._rows:
            self._rows[key] = symplectic_structure_rows(realize_label(label))
        return self._rows[key]


def h1_dict(G: FiniteGroup, s: DDKStructure) -> dict:
    invariants, maximal = h1_of_surface(G, s)
    out = invariants.to_dict()
    out["maximal"] = bool(maximal)
    return out


def sample_indices(total: int, k: int) -> list[int]:
    """min(k, total) deterministic, evenly spaced indices below total."""
    if total <= 0 or k <= 0:
        return []
    return sorted({int(i) for i in np.linspace(0, total - 1, min(k, total))})


# ------------------------------------------------------------ criteria

def check_catalog(rows: Rows, quick: bool):
    for label in catalog_labels():
        g = realize_label(label)
        if g.order != EXPECTED_ORDER[label]:
            return False, {"failed_label": label, "order": g.order}
    for label, expected in CENTER_ORDERS.items():
        if len(realize_label(label).center()) != expected:
            return False, {"failed_center": label}
    for label in CLASS3_LABELS:
        g = realize_label(label)
        if g.nilpotency_class() != 3 or len(g.derived_subgroup()) != 4:
            return False, {"failed_class": label}
    for label in ORDER32:
        if realize_label(label).nilpotency_class() != 2:
            return False, {"failed_class": label}
    return True, {
        "groups_realized": len(list(catalog_labels())),
        "center_checks": len(CENTER_ORDERS),
    }


def check_cct(rows: Rows, quick: bool):
    non_cct = [l for l in catalog_labels() if not realize_label(l).is_cct()]
    ok = sorted(non_cct) == sorted(NON_CCT_LABELS)
    return ok, {"non_cct": non_cct}


def check_prestructures(rows: Rows, quick: bool):
    counts, modes = {}, {}
    for label in PRESTRUCTURE_FREE_LABELS:
        report = prestructure_report(realize_label(label), mode="auto")
        counts[label] = report.count
        modes[label] = report.mode
    ok = all(v == 0 for v in counts.values())
    return ok, {"counts": counts, "modes": modes}


def check_structure_count(rows: Rows, quick: bool):
    """The symplectic route gives 2 211 840 rows on each group, and in full
    mode the backtracking route the same array; quick mode checks 10 000
    of the symplectic rows.  Each array compared must carry the certify
    tail's certificate that every row satisfies the relators, o(z) and
    generation.  The tail checks the rows of the route that runs first; the
    other route's keys, which must unpack to exactly those rows, are
    compared with them row for row, and one key that differs sends them
    through the checks in full (`certify_structure_rows`).
    So this adds only strong generation: each half (the four slots of one
    strand, with z) generates G on its own."""
    details: dict = {"mode": "quick" if quick else "full", "counts": {}}
    for label in ORDER32:
        g = realize_label(label)
        rows_sp = rows.symplectic(label)
        compared = [rows_sp] if quick else [rows_sp, rows.backtrack(label)]
        if any(certified_type(g, a) != StructureType(2, 2) for a in compared):
            return False, {"label": label, "certified": False}
        if len(rows_sp) != STRUCTURE_COUNT:
            return False, {"label": label, "symplectic": int(len(rows_sp))}
        if quick:
            checked = rows_sp[sample_indices(len(rows_sp), 10000)]
            verified = "sample-10000"
        else:
            checked = rows.backtrack(label)
            if not np.array_equal(checked, rows_sp):
                return False, {"label": label, "sets_agree": False}
            verified = "full-set-equality"
        halves = generation_mask_filter(g, checked[:, [0, 1, 2, 3, 8]]) & (
            generation_mask_filter(g, checked[:, [4, 5, 6, 7, 8]])
        )
        if not halves.all():
            return False, {"label": label, "strong": "violated"}
        details["counts"][label] = int(len(rows_sp))
        details["verification"] = verified
    details["sigma"] = signature(32, 2, 2)
    return details["sigma"] == 16, details


def check_orbits(rows: Rows, quick: bool):
    details = {}
    for label, (aut, eps, orbits) in ORBITS.items():
        g = realize_label(label)
        auts = automorphism_group(g, get_presentation(label))
        if len(auts) != aut or aut_order(2, eps) != aut:
            return False, {"label": label, "aut_order": len(auts)}
        if len(inner_automorphism_table(g)) != 16:
            return False, {"label": label, "inner": "not 16"}
        got = orbit_count(g, rows.symplectic(label), auts, freeness="full")
        if got != orbits:
            return False, {"label": label, "orbits": int(got)}
        details[label] = {"aut_order": len(auts), "orbits": int(got)}
    return True, details


def check_invariants(rows: Rows, quick: bool):
    for label in ORDER32:
        g = realize_label(label)
        report = report_to_dict(fibration_data(g, example_structure(g)))
        if report != EXAMPLE_REPORT:
            return False, {"label": label, "report": report}
    legacy = {
        "sigma": signature(243, 2, 3),
        "fibre_genus": fibre_genus(243, 2, 3, 1),
        "chern": chern_invariants(243, 2, 3)[:2],
    }
    if legacy["sigma"] != 144 or legacy["fibre_genus"] != 325:
        return False, legacy
    table = signature_scan()
    minimum = min(table.values())
    minimizers = sorted(k for k, v in table.items() if v == minimum)
    if minimum != 16 or minimizers != [(32, 2, 2)]:
        return False, {"minimizers": [list(k) for k in minimizers]}
    return True, {
        "example_report": report,
        "legacy_sigma": legacy["sigma"],
        "legacy_fibre_genus": legacy["fibre_genus"],
        "scan_minimum": minimum,
        "scan_minimizer": list(minimizers[0]),
    }


def check_homology(rows: Rows, quick: bool):
    per_group = 2 if quick else 10
    details = {"random_structures_per_group": per_group}
    for label in ORDER32:
        g = realize_label(label)
        h1 = h1_dict(g, example_structure(g))
        if h1 != H1:
            return False, {"label": label, "structure": "example"}
        rows_sp = rows.symplectic(label)
        for i in sample_indices(len(rows_sp), per_group):
            s = DDKStructure(g, StructureType(2, 2), tuple(int(v) for v in rows_sp[i]))
            h1 = h1_dict(g, s)
            if h1 != H1:
                return False, {"label": label, "row_index": int(i)}
    details["h1"] = h1
    return True, details


def minor_gcds_match(matrix, factors, rank) -> bool:
    """Whether the products of the first k invariant factors are the gcds
    of the k x k minors, for k up to the rank."""
    product = 1
    for k in range(1, rank + 1):
        product *= factors[k - 1]
        g = 0
        for rsel in combinations(range(len(matrix)), k):
            for csel in combinations(range(len(matrix[0])), k):
                sub = [[matrix[r][c] for c in csel] for r in rsel]
                g = gcd(g, abs(integer_determinant(sub)))
        if g != product:
            return False
    return True


def check_property_suites(rows: Rows, quick: bool):
    n_matrices = 100 if quick else 500
    rng = random.Random(0)
    for _ in range(n_matrices):
        size = rng.randint(2, 4)
        matrix = [
            [rng.randint(-9, 9) for _ in range(size)] for _ in range(size)
        ]
        snf = smith_normal_form(matrix)
        if not minor_gcds_match(matrix, snf.invariant_factors, snf.rank):
            return False, {"snf_oracle": matrix}

    pairs = 0
    for label in ORDER32:
        space = induced_space(realize_label(label))
        q, pairing = space.q_table.tolist(), space.pair_table.tolist()
        for u in range(len(q)):
            for v in range(len(q)):
                if (q[u ^ v] + q[u] + q[v]) % 2 != pairing[u][v]:
                    return False, {"parallelogram": label}
                pairs += 1

    oracle_counts = {}
    for name, source in SMALL_GROUP_SOURCES.items():
        g = realize(parse_presentation(source))
        if g.order > 8:
            return False, {"small_group": name}
        engine = sorted(iter_prestructure_tuples(g, mode="full"))
        reference = reference_prestructures(g)
        if engine != reference:
            return False, {"prestructure_oracle": name}
        oracle_counts[name] = len(reference)
    # no group of order <= 8 has a prestructure, so the lists above are
    # empty; under a relator subset these groups have rows to compare
    subset = tuple((label, w) for label, w in prestructure_relations() if label in SUBSET_LABELS)
    for name, count in SUBSET_ROWS.items():
        g = realize(parse_presentation(SMALL_GROUP_SOURCES[name]))
        engine = sorted(iter_prestructure_tuples(g, mode="full", relators=subset))
        if len(engine) != count or engine != reference_prestructures(g, subset):
            return False, {"prestructure_oracle": name, "relators": list(SUBSET_LABELS)}
    return True, {
        "snf_matrices": n_matrices,
        "parallelogram_pairs": pairs // len(ORDER32),
        "small_groups": oracle_counts,
    }


CRITERIA = (
    ("catalog-realization", check_catalog),
    ("cct-classification", check_cct),
    ("prestructure-nonexistence", check_prestructures),
    ("structure-count-2211840", check_structure_count),
    ("orbit-counts-1152-1920", check_orbits),
    ("invariants-and-sharp-bound", check_invariants),
    ("homology-Z8-Z2^4", check_homology),
    ("property-suites", check_property_suites),
)
