"""Command-line front door.

JSON run reports go to standard output, human diagnostics to standard
error.  Exit codes: 0 for pass/count, 1 for fail, 2 for usage errors.
`verify-paper` runs the registry of the paper's criteria in `paper` and
adds only the stderr timing table and the report.

A report's `timing`, the one part that differs between runs, is
{"total": seconds, "stages": {name: {"s": seconds}}}: `verify-paper` has
a stage per criterion, every other command none.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .automorphisms import automorphism_group, orbit_count, out_order
from .group_core import (
    CosetEnumerationError,
    FiniteGroup,
    catalog_labels,
    get_presentation,
    realize_label,
    resolve_label,
)
from .homology import h1_of_surface
from .invariants import fibration_data, report_to_dict, with_homology
from .paper import CRITERIA, Rows, h1_dict, sample_indices
from .structures import (
    DDKStructure,
    StructureType,
    example_structure,
    inner_automorphism_table,
    prestructure_report,
    structure_from_dict,
    structure_rows,
    structure_to_dict,
)
from .symplectic import symplectic_structure_rows

# --------------------------------------------------------------- helpers

def _structure_for_args(args, G: FiniteGroup) -> DDKStructure:
    if getattr(args, "structure", None):
        with open(args.structure, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return structure_from_dict(G, data)
    return example_structure(G)


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
        "sample": [list(row) for row in report.sample],
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
    inner = inner_automorphism_table(g)
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
        report = with_homology(report, invariants.free_rank)
    out = report_to_dict(report)
    out["structure"] = structure_to_dict(s, label)
    return out, "pass"


def _cmd_homology(args) -> tuple[dict, str]:
    label = resolve_label(args.label)
    g = realize_label(label)
    if args.samples is not None:
        rows = symplectic_structure_rows(g)
        samples = []
        for i in sample_indices(len(rows), args.samples):
            s = DDKStructure(g, StructureType(2, 2), tuple(int(v) for v in rows[i]))
            samples.append(h1_dict(g, s))
        all_equal = all(d == samples[0] for d in samples) if samples else True
        return {
            "label": args.label,
            "samples": samples,
            "all_equal": all_equal,
        }, "pass"
    s = _structure_for_args(args, g)
    out = h1_dict(g, s)
    out["label"] = args.label
    return out, "pass"


# ----------------------------------------------------- paper verification

def _cmd_verify_paper(args) -> tuple[dict, str, dict]:
    rows = Rows()
    criteria = []
    stages = {}
    all_pass = True
    sys.stderr.write(f"{'criterion':34s} {'status':8s} seconds\n")
    for name, check in CRITERIA:
        started = time.monotonic()
        ok, details = check(rows, args.quick)
        elapsed = time.monotonic() - started
        stages[name] = {"s": round(elapsed, 3)}
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
    return results, ("pass" if all_pass else "fail"), stages


# ----------------------------------------------------------- entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddks",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="inspect the group catalog")
    p.set_defaults(handler=_cmd_catalog)
    catalog_sub = p.add_subparsers(dest="action", required=True)
    catalog_sub.add_parser("list", help="list all labels")
    show = catalog_sub.add_parser("show", help="presentation and basic data")
    show.add_argument("label")

    p = sub.add_parser("cct", help="centre-commutative-transitivity test")
    p.set_defaults(handler=_cmd_cct)
    p.add_argument("label", nargs="?")
    p.add_argument("--all", action="store_true")

    p = sub.add_parser("search", help="enumerate prestructures or structures")
    search_sub = p.add_subparsers(dest="target", required=True)
    pre = search_sub.add_parser("prestructures")
    pre.set_defaults(handler=_cmd_search_prestructures)
    pre.add_argument("label")
    pre.add_argument("--full", action="store_true",
                     help="disable the socle shortcut")
    st = search_sub.add_parser("structures")
    st.set_defaults(handler=_cmd_search_structures)
    st.add_argument("label")
    st.add_argument("--b", type=int, required=True)
    st.add_argument("--n", type=int, required=True)
    st.add_argument("--limit", type=int, default=10,
                    help="sample size echoed in the report")

    p = sub.add_parser("count", help="count structures by one or both methods")
    count_sub = p.add_subparsers(dest="target", required=True)
    ct = count_sub.add_parser("structures")
    ct.set_defaults(handler=_cmd_count_structures)
    ct.add_argument("label")
    ct.add_argument("--method", choices=("backtrack", "symplectic", "both"),
                    default="both")
    ct.add_argument("--n", type=int, default=2)

    p = sub.add_parser("orbits", help="count orbits of the automorphism action")
    p.set_defaults(handler=_cmd_orbits)
    p.add_argument("label")
    p.add_argument("--freeness", choices=("sample", "full"), default="sample")

    p = sub.add_parser("invariants", help="numeric report for one structure")
    p.set_defaults(handler=_cmd_invariants)
    p.add_argument("label")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--structure", metavar="FILE")
    group.add_argument("--example", action="store_true")
    p.add_argument("--with-homology", action="store_true",
                   help="also compute q and p_g via the homology pipeline")

    p = sub.add_parser("homology", help="H1 of the covering surface")
    p.set_defaults(handler=_cmd_homology)
    p.add_argument("label")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--structure", metavar="FILE")
    group.add_argument("--example", action="store_true")
    group.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("verify-paper", help="run the acceptance checks")
    p.set_defaults(handler=_cmd_verify_paper)
    p.add_argument("--quick", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "cct" and bool(args.label) == bool(args.all):
        parser.error("cct needs exactly one of LABEL or --all")
    started = time.monotonic()
    try:
        results, status, *stages = args.handler(args)  # only verify-paper times stages
    except (ValueError, KeyError, OSError, CosetEnumerationError) as exc:
        message = str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)
        results, status, stages = {"error": message}, "fail", []
        sys.stderr.write(f"error: {message}\n")
    inputs = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "target", "handler")
    }
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "timing": {"total": round(time.monotonic() - started, 3), "stages": stages[0] if stages else {}},
        "status": status,
    }
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return 0 if status in ("pass", "count") else 1


if __name__ == "__main__":
    sys.exit(main())
