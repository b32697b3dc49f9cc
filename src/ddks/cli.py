"""Command-line front door.

JSON run reports go to standard output, human diagnostics to standard
error.  Exit codes: 0 for pass/count, 1 for fail, 2 for usage errors.
The environment variable DDK_COSETS overrides the coset-table cap used
when realizing catalog presentations.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

import numpy as np

from .automorphisms import automorphism_group, inner_automorphisms, orbit_count, out_order
from .group_core import (
    CosetEnumerationError,
    EXPECTED_ORDER,
    FiniteGroup,
    PresentationError,
    catalog_labels,
    get_presentation,
    parse_presentation,
    realize,
    realize_label,
    resolve_label,
)
from .homology import h1_of_surface, integer_determinant, smith_normal_form
from .invariants import (
    chern_invariants,
    fibration_data,
    fibre_genus,
    report_to_dict,
    signature,
    signature_scan,
    with_homology,
)
from .structures import (
    DDKStructure,
    StructureType,
    bulk_relator_filter,
    example_structure,
    generation_mask_filter,
    iter_prestructure_tuples,
    prestructure_report,
    reference_prestructures,
    relations_for_type,
    structure_from_dict,
    structure_rows,
    structure_to_dict,
)
from .symplectic import aut_order, induced_space, symplectic_structure_rows

EXPECTED_STRUCTURES = 2211840
NON_CCT_LABELS = (
    "S4",
    "G(32,6)",
    "G(32,7)",
    "G(32,8)",
    "G(32,43)",
    "G(32,44)",
    "G(32,49)",
    "G(32,50)",
)
PRESTRUCTURE_FREE_LABELS = (
    "S4",
    "G(24,3)",
    "G(32,6)",
    "G(32,7)",
    "G(32,8)",
    "G(32,43)",
    "G(32,44)",
)
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


# --------------------------------------------------------------- helpers

def _structure_for_args(args, G: FiniteGroup) -> DDKStructure:
    if getattr(args, "structure", None):
        with open(args.structure, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return structure_from_dict(G, data)
    return example_structure(G)


def _order32_rows(context: dict, label: str, prefer: str) -> np.ndarray:
    """Canonical sorted row array for an order-32 group, cached per run."""
    cell = context.setdefault(label, {})
    if prefer == "backtrack" and "backtrack" not in cell:
        cell["backtrack"] = structure_rows(realize_label(label), StructureType(2, 2))
    if prefer == "symplectic" and "symplectic" not in cell:
        cell["symplectic"] = symplectic_structure_rows(realize_label(label))
    for key in (prefer, "backtrack", "symplectic"):
        if key in cell:
            return cell[key]
    raise AssertionError("unreachable")


def _h1_dict(G: FiniteGroup, s: DDKStructure) -> dict:
    invariants, maximal = h1_of_surface(G, s)
    out = invariants.to_dict()
    out["maximal"] = bool(maximal)
    return out


def _sample_indices(total: int, k: int) -> list[int]:
    if total <= 0 or k <= 0:
        return []
    return sorted({int(i) for i in np.linspace(0, total - 1, min(k, total))})


# ------------------------------------------------------------- commands

def _cmd_catalog(args) -> tuple[dict, str]:
    if args.action == "list":
        labels = list(catalog_labels())
        return {"labels": labels, "count": len(labels)}, "count"
    label = resolve_label(args.label)
    p = get_presentation(label)
    g = realize_label(label)
    return {
        "label": args.label,
        "resolved": label,
        "order": g.order,
        "generators": list(p.generators),
        "relators": [rel.format(p.generators) for rel in p.relators],
        "center_order": len(g.center()),
        "derived_order": len(g.derived_subgroup()),
        "nilpotency_class": g.nilpotency_class(),
        "is_cct": g.is_cct(),
    }, "pass"


def _cmd_cct(args) -> tuple[dict, str]:
    if args.all:
        non_cct, cct = [], []
        for label in catalog_labels():
            (cct if realize_label(label).is_cct() else non_cct).append(label)
        return {"non_cct": non_cct, "cct": cct}, "pass"
    label = resolve_label(args.label)
    return {"label": args.label, "is_cct": realize_label(label).is_cct()}, "pass"


def _cmd_search_prestructures(args) -> tuple[dict, str]:
    label = resolve_label(args.label)
    mode = "full" if args.full else "auto"
    report = prestructure_report(realize_label(label), mode=mode)
    return {
        "label": args.label,
        "mode": report.mode,
        "count": report.count,
        "socle_z_candidates": report.socle_z_candidates,
        "quotient_orders_checked": (
            list(report.quotient_orders_checked)
            if report.quotient_orders_checked is not None
            else None
        ),
        "sample": [list(row) for row in report.sample[:10]],
    }, "count"


def _cmd_search_structures(args) -> tuple[dict, str]:
    label = resolve_label(args.label)
    rows = structure_rows(realize_label(label), StructureType(args.b, args.n))
    return {
        "label": args.label,
        "b": args.b,
        "n": args.n,
        "count": int(len(rows)),
        "sample": [[int(v) for v in row] for row in rows[: args.limit]],
    }, "count"


def _cmd_count_structures(args) -> tuple[dict, str]:
    label = resolve_label(args.label)
    g = realize_label(label)
    results: dict = {}
    rows_bt = rows_sp = None
    if args.method in ("backtrack", "both"):
        rows_bt = structure_rows(g, StructureType(2, args.n))
        results["backtrack"] = int(len(rows_bt))
    if args.method in ("symplectic", "both"):
        if args.n != 2:
            raise ValueError("the symplectic construction needs n = 2")
        rows_sp = symplectic_structure_rows(g)
        results["symplectic"] = int(len(rows_sp))
    if args.method == "both":
        results["agree"] = bool(np.array_equal(rows_bt, rows_sp))
    return results, "count"


def _cmd_orbits(args) -> tuple[dict, str]:
    label = resolve_label(args.label)
    g = realize_label(label)
    rows = structure_rows(g, StructureType(2, 2))
    auts = automorphism_group(g, get_presentation(label))
    inner = inner_automorphisms(g)
    orbits = orbit_count(g, rows, auts, freeness=args.freeness)
    return {
        "label": args.label,
        "aut_order": len(auts),
        "inner_order": len(inner),
        "outer_order": out_order(auts, inner),
        "structure_count": int(len(rows)),
        "orbit_count": int(orbits),
        "freeness": args.freeness,
    }, "count"


def _cmd_invariants(args) -> tuple[dict, str]:
    label = resolve_label(args.label)
    g = realize_label(label)
    s = _structure_for_args(args, g)
    report = fibration_data(g, s)
    if args.with_homology:
        invariants, _ = h1_of_surface(g, s)
        report = with_homology(report, invariants.first_betti)
    out = report_to_dict(report)
    out["structure"] = structure_to_dict(s, label)
    return out, "pass"


def _cmd_homology(args) -> tuple[dict, str]:
    label = resolve_label(args.label)
    g = realize_label(label)
    if args.samples is not None:
        rows = symplectic_structure_rows(g)
        samples = []
        for i in _sample_indices(len(rows), args.samples):
            s = DDKStructure(g, StructureType(2, 2), tuple(int(v) for v in rows[i]))
            samples.append(_h1_dict(g, s))
        all_equal = all(d == samples[0] for d in samples) if samples else True
        return {
            "label": args.label,
            "samples": samples,
            "all_equal": all_equal,
        }, "pass"
    s = _structure_for_args(args, g)
    out = _h1_dict(g, s)
    out["label"] = args.label
    return out, "pass"


# ----------------------------------------------------- paper verification

def _check_catalog(context, quick):
    for label in catalog_labels():
        g = realize_label(label)
        if g.order != EXPECTED_ORDER[label]:
            return False, {"failed_label": label, "order": g.order}
    center_expect = {
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
    for label, expected in center_expect.items():
        if len(realize_label(label).center()) != expected:
            return False, {"failed_center": label}
    for label in ("G(32,6)", "G(32,7)", "G(32,8)", "G(32,43)", "G(32,44)"):
        g = realize_label(label)
        if g.nilpotency_class() != 3 or len(g.derived_subgroup()) != 4:
            return False, {"failed_class": label}
    for label in ("G(32,49)", "G(32,50)"):
        if realize_label(label).nilpotency_class() != 2:
            return False, {"failed_class": label}
    return True, {
        "groups_realized": len(list(catalog_labels())),
        "center_checks": len(center_expect),
    }


def _check_cct(context, quick):
    non_cct = [l for l in catalog_labels() if not realize_label(l).is_cct()]
    ok = sorted(non_cct) == sorted(NON_CCT_LABELS)
    return ok, {"non_cct": non_cct}


def _check_prestructures(context, quick):
    counts, modes = {}, {}
    for label in PRESTRUCTURE_FREE_LABELS:
        report = prestructure_report(realize_label(label), mode="auto")
        counts[label] = report.count
        modes[label] = report.mode
    ok = all(v == 0 for v in counts.values())
    return ok, {"counts": counts, "modes": modes}


def _check_structure_count(context, quick):
    details: dict = {"mode": "quick" if quick else "full", "counts": {}}
    relators = relations_for_type(StructureType(2, 2))
    for label in ("G(32,49)", "G(32,50)"):
        g = realize_label(label)
        rows_sp = _order32_rows(context, label, "symplectic")
        if len(rows_sp) != EXPECTED_STRUCTURES:
            return False, {"label": label, "symplectic": int(len(rows_sp))}
        if quick:
            rows = rows_sp[_sample_indices(len(rows_sp), 10000)]
            verified = "sample-10000"
        else:
            rows_bt = _order32_rows(context, label, "backtrack")
            if not np.array_equal(rows_bt, rows_sp):
                return False, {"label": label, "sets_agree": False}
            rows = rows_bt
            verified = "full-set-equality"
        if not bulk_relator_filter(g, rows, relators).all():
            return False, {"label": label, "relators": "violated"}
        if not generation_mask_filter(g, rows).all():
            return False, {"label": label, "generation": "violated"}
        orders = np.array(g.element_order, dtype=np.int64)
        if not (orders[rows[:, 8].astype(np.int64)] == 2).all():
            return False, {"label": label, "oz": "violated"}
        halves = generation_mask_filter(g, rows[:, [0, 1, 2, 3, 8]]) & (
            generation_mask_filter(g, rows[:, [4, 5, 6, 7, 8]])
        )
        if not halves.all():
            return False, {"label": label, "strong": "violated"}
        details["counts"][label] = int(len(rows_sp))
        details["verification"] = verified
    details["sigma"] = signature(32, 2, 2)
    return details["sigma"] == 16, details


def _check_orbits(context, quick):
    expected = {"G(32,49)": (1152, 1, 1920), "G(32,50)": (1920, -1, 1152)}
    details = {}
    for label, (aut, eps, orbits) in expected.items():
        g = realize_label(label)
        auts = automorphism_group(g, get_presentation(label))
        if len(auts) != aut or aut_order(2, eps) != aut:
            return False, {"label": label, "aut_order": len(auts)}
        if len(inner_automorphisms(g)) != 16:
            return False, {"label": label, "inner": "not 16"}
        rows = _order32_rows(context, label, "symplectic")
        got = orbit_count(g, rows, auts, freeness="sample", sample_size=1000)
        if got != orbits:
            return False, {"label": label, "orbits": int(got)}
        details[label] = {"aut_order": aut, "orbits": orbits}
    return True, details


def _check_invariants(context, quick):
    for label in ("G(32,49)", "G(32,50)"):
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
    minimizers = sorted(k for k, v in table.items() if v == min(table.values()))
    if min(table.values()) != 16 or minimizers != [(32, 2, 2)]:
        return False, {"minimizers": [list(k) for k in minimizers]}
    return True, {
        "example_report": EXAMPLE_REPORT,
        "legacy_sigma": legacy["sigma"],
        "legacy_fibre_genus": legacy["fibre_genus"],
        "scan_minimum": 16,
        "scan_minimizer": [32, 2, 2],
    }


def _check_homology(context, quick):
    per_group = 2 if quick else 10
    expected = {"free_rank": 8, "torsion": [2, 2, 2, 2], "maximal": True}
    details = {"random_structures_per_group": per_group}
    for label in ("G(32,49)", "G(32,50)"):
        g = realize_label(label)
        if _h1_dict(g, example_structure(g)) != expected:
            return False, {"label": label, "structure": "example"}
        rows = _order32_rows(context, label, "symplectic")
        for i in _sample_indices(len(rows), per_group):
            s = DDKStructure(g, StructureType(2, 2), tuple(int(v) for v in rows[i]))
            if _h1_dict(g, s) != expected:
                return False, {"label": label, "row_index": int(i)}
    details["h1"] = expected
    return True, details


def _minor_gcd_matches(matrix, factors, rank) -> bool:
    from itertools import combinations
    from math import gcd

    size = len(matrix)
    product = 1
    for k in range(1, rank + 1):
        product *= factors[k - 1]
        g = 0
        for rsel in combinations(range(size), k):
            for csel in combinations(range(len(matrix[0])), k):
                sub = [[matrix[r][c] for c in csel] for r in rsel]
                g = gcd(g, abs(integer_determinant(sub)))
        if g != product:
            return False
    return True


def _check_property_suites(context, quick):
    n_matrices = 100 if quick else 500
    rng = random.Random(0)
    for _ in range(n_matrices):
        size = rng.randint(2, 4)
        matrix = [
            [rng.randint(-9, 9) for _ in range(size)] for _ in range(size)
        ]
        snf = smith_normal_form(matrix)
        if not _minor_gcd_matches(matrix, snf.invariant_factors, snf.rank):
            return False, {"snf_oracle": matrix}

    for label in ("G(32,49)", "G(32,50)"):
        space = induced_space(realize_label(label))
        for u in space.vectors():
            for v in space.vectors():
                lhs = (space.q(u ^ v) + space.q(u) + space.q(v)) % 2
                if lhs != space.pair(u, v):
                    return False, {"parallelogram": label}

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
    return True, {
        "snf_matrices": n_matrices,
        "parallelogram_pairs": 256,
        "small_groups": oracle_counts,
    }


_CRITERIA = (
    ("catalog-realization", _check_catalog),
    ("cct-classification", _check_cct),
    ("prestructure-nonexistence", _check_prestructures),
    ("structure-count-2211840", _check_structure_count),
    ("orbit-counts-1152-1920", _check_orbits),
    ("invariants-and-sharp-bound", _check_invariants),
    ("homology-Z8-Z2^4", _check_homology),
    ("property-suites", _check_property_suites),
)


def _cmd_verify_paper(args) -> tuple[dict, str]:
    context: dict = {}
    criteria = []
    all_pass = True
    sys.stderr.write(f"{'criterion':34s} {'status':8s} seconds\n")
    for name, check in _CRITERIA:
        started = time.monotonic()
        ok, details = check(context, args.quick)
        elapsed = time.monotonic() - started
        all_pass &= bool(ok)
        criteria.append(
            {"name": name, "status": "pass" if ok else "fail", "details": details}
        )
        sys.stderr.write(f"{name:34s} {'pass' if ok else 'FAIL':8s} {elapsed:7.1f}\n")
    results = {
        "mode": "quick" if args.quick else "full",
        "criteria": criteria,
        "all_pass": bool(all_pass),
    }
    return results, ("pass" if all_pass else "fail")


# ----------------------------------------------------------- entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddks",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="inspect the group catalog")
    catalog_sub = p.add_subparsers(dest="action", required=True)
    catalog_sub.add_parser("list", help="list all labels")
    show = catalog_sub.add_parser("show", help="presentation and basic data")
    show.add_argument("label")

    p = sub.add_parser("cct", help="centre-commutative-transitivity test")
    p.add_argument("label", nargs="?")
    p.add_argument("--all", action="store_true")

    p = sub.add_parser("search", help="enumerate prestructures or structures")
    search_sub = p.add_subparsers(dest="target", required=True)
    pre = search_sub.add_parser("prestructures")
    pre.add_argument("label")
    pre.add_argument("--full", action="store_true",
                     help="disable the socle shortcut")
    st = search_sub.add_parser("structures")
    st.add_argument("label")
    st.add_argument("--b", type=int, required=True)
    st.add_argument("--n", type=int, required=True)
    st.add_argument("--limit", type=int, default=10,
                    help="sample size echoed in the report")

    p = sub.add_parser("count", help="count structures by one or both methods")
    count_sub = p.add_subparsers(dest="target", required=True)
    ct = count_sub.add_parser("structures")
    ct.add_argument("label")
    ct.add_argument("--method", choices=("backtrack", "symplectic", "both"),
                    default="both")
    ct.add_argument("--n", type=int, default=2)

    p = sub.add_parser("orbits", help="count orbits of the automorphism action")
    p.add_argument("label")
    p.add_argument("--freeness", choices=("sample", "full"), default="sample")

    p = sub.add_parser("invariants", help="numeric report for one structure")
    p.add_argument("label")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--structure", metavar="FILE")
    group.add_argument("--example", action="store_true")
    p.add_argument("--with-homology", action="store_true",
                   help="also compute q and p_g via the homology pipeline")

    p = sub.add_parser("homology", help="H1 of the covering surface")
    p.add_argument("label")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--structure", metavar="FILE")
    group.add_argument("--example", action="store_true")
    group.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("verify-paper", help="run the acceptance checks")
    p.add_argument("--quick", action="store_true")
    return parser


_DISPATCH = {
    "catalog": _cmd_catalog,
    "cct": _cmd_cct,
    "orbits": _cmd_orbits,
    "invariants": _cmd_invariants,
    "homology": _cmd_homology,
    "verify-paper": _cmd_verify_paper,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "cct" and bool(args.label) == bool(args.all):
        parser.error("cct needs exactly one of LABEL or --all")
    started = time.monotonic()
    try:
        if args.command == "search":
            handler = (
                _cmd_search_prestructures
                if args.target == "prestructures"
                else _cmd_search_structures
            )
        elif args.command == "count":
            handler = _cmd_count_structures
        else:
            handler = _DISPATCH[args.command]
        results, status = handler(args)
    except (
        ValueError,
        KeyError,
        OSError,
        CosetEnumerationError,
        PresentationError,
        json.JSONDecodeError,
    ) as exc:
        message = str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)
        results, status = {"error": message}, "fail"
        sys.stderr.write(f"error: {message}\n")
    inputs = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "target")
    }
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "timing": round(time.monotonic() - started, 3),
        "status": status,
    }
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return 0 if status in ("pass", "count") else 1


if __name__ == "__main__":
    sys.exit(main())
