"""The benchmark's three workloads: set-up, timed part and exact-answer checks.

Each workload is a set-up (inputs made from the seed, not timed as work),
a timed part that calls the public functions of the ddks layers, and a
check of every exact answer the timed part produced.  Every call into a
layer sits in a span named after the layer, so the traced run can split
the repetition's wall time by layer.

- catalog: group_core, the prestructure search (which prunes and emits
  nothing), invariants and small dense Smith normal forms.
- enumerate: the backtracking search in structure mode, the symplectic
  route, the bulk filters, Aut(G) and orbit counting on G(32,49).
- homology: H1 of covering surfaces, on 736x257 sparse relator matrices.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from itertools import combinations, islice, permutations
from math import gcd, prod
from typing import Callable, NamedTuple

import numpy as np

from ddks import homology
from ddks.automorphisms import automorphism_group, orbit_count
from ddks.group_core import (
    catalog_labels,
    get_presentation,
    is_cct,
    parse_presentation,
    realize,
)
from ddks.homology import h1_of_surface, smith_normal_form
from ddks.invariants import fibration_data, report_to_dict, signature_scan
from ddks.structures import (
    StructureType,
    bulk_relator_filter,
    example_structure,
    generation_mask_filter,
    iter_prestructure_tuples,
    prestructure_report,
    reference_prestructures,
    relations_for_type,
    structure_rows,
)
from ddks.symplectic import (
    enumerate_reduced_structures,
    induced_space,
    lift_reduced,
    symplectic_structure_rows,
)

import expected as X
from tracer import Tracer

TYPE_22 = StructureType(2, 2)
SNF_MATRICES = 200          # seeded small dense matrices per catalog repetition
FREENESS_SAMPLE = 1000      # rows orbit_count checks for a free action
ENUMERATE_GROUP = "G(32,49)"
# H1 costs 1.3 to 7.5 s depending on the structure, so timing structures
# drawn from the seed would move wall_s by about 50%/sqrt(k) between seeds
# (17% with one seeded structure among nine).  The timed part therefore
# runs a fixed panel of (reduced structure, lift mask) pairs per group, and
# the seeded structures are computed and checked after it.
H1_PANEL = ((0, 0x00), (2880, 0x5A), (5760, 0xA5))
H1_SEEDED = 1  # per group


@dataclass
class Context:
    tracer: Tracer
    seed: int
    smoke: bool      # the smallest size of each workload, for the self-test
    jobs: int        # worker count of the traced scaling call
    deadline: float  # time.monotonic() by which the run must end


class Checks:
    """Exact-answer checks of one repetition."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


class Workload(NamedTuple):
    setup: Callable
    run: Callable
    check: Callable
    after_traced_run: Callable | None = None


def _realize(tr: Tracer, presentation):
    with tr.span("group_core.realize"):
        G = realize(presentation)
    tr.count("group_core.groups_realized")
    tr.count("group_core.elements_realized", G.order)
    return G


# ------------------------------------------------------------------ catalog

def catalog_setup(ctx: Context) -> dict:
    rng = random.Random(ctx.seed)
    matrices = []
    for _ in range(20 if ctx.smoke else SNF_MATRICES):
        size = rng.randint(2, 4)
        matrices.append(
            [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        )
    full_mode = X.PRESTRUCTURE_FREE_ORDER_32[:1 if ctx.smoke else None]
    return {"matrices": matrices, "full_mode": full_mode}


def catalog_run(ctx: Context, inp: dict) -> dict:
    tr = ctx.tracer
    groups = {
        label: _realize(tr, get_presentation(label)) for label in catalog_labels()
    }
    with tr.span("group_core.cct"):
        cct = {label: is_cct(G) for label, G in groups.items()}

    auto, full = {}, {}
    for label in X.PRESTRUCTURE_FREE:
        with tr.span("structures.prestructure_socle"):
            auto[label] = prestructure_report(groups[label], mode="auto")
        tr.count("structures.prestructure_tuples", auto[label].count)
    for label in inp["full_mode"]:
        with tr.span("structures.prestructure_full"):
            full[label] = prestructure_report(groups[label], mode="full")
        tr.count("structures.prestructure_tuples", full[label].count)

    oracle = {}
    for name, source in X.SMALL_GROUPS.items():
        G = _realize(tr, parse_presentation(source))
        with tr.span("structures.oracle"):
            engine = sorted(iter_prestructure_tuples(G, mode="full"))
            reference = reference_prestructures(G)
        tr.count("structures.prestructure_tuples", len(engine))
        oracle[name] = (G.order, engine, reference)

    with tr.span("invariants.scan"):
        scan = signature_scan()
    tr.count("invariants.scan_points", len(scan))
    reports = {}
    for label in X.EXTRA_SPECIAL:
        G = groups[label]
        with tr.span("structures.example"):
            s = example_structure(G)
        with tr.span("invariants.fibration"):
            reports[label] = report_to_dict(fibration_data(G, s))

    with tr.span("homology.snf_small"):
        snfs = [smith_normal_form(m) for m in inp["matrices"]]
    tr.count("homology.snf_small_count", len(snfs))
    return {
        "orders": {label: G.order for label, G in groups.items()},
        "cct": cct, "auto": auto, "full": full, "oracle": oracle,
        "scan": scan, "reports": reports, "snfs": snfs,
    }


def _determinant(m: list[list[int]]) -> int:
    """Leibniz formula; the matrices here are at most 4 x 4."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


def _snf_matches_minors(matrix, snf) -> bool:
    """The k-th determinantal divisor is d_1 ... d_k up to the rank, 0 past it."""
    n = len(matrix)
    if snf.rank > n or len(snf.invariant_factors) != snf.rank:
        return False
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = [[matrix[r][c] for c in cols] for r in rows]
                g = gcd(g, _determinant(sub))
        if g != (prod(snf.invariant_factors[:k]) if k <= snf.rank else 0):
            return False
    return True


def catalog_check(ctx: Context, out: dict, inp: dict, checks: Checks) -> None:
    checks.expect("catalog size", len(out["orders"]) == X.CATALOG_SIZE)
    for label, order in out["orders"].items():
        checks.expect(f"order {label}", order == X.label_order(label))
        checks.expect(f"cct {label}", out["cct"][label] == (label not in X.NON_CCT))
    for mode in ("auto", "full"):
        for label, report in out[mode].items():
            checks.expect(f"no prestructures {mode} {label}", report.count == 0)
    for name, (order, engine, reference) in out["oracle"].items():
        checks.expect(f"oracle {name}", order <= 8 and engine == reference)
    scan = out["scan"]
    low = min(scan.values())
    checks.expect(
        "signature scan",
        low == X.SCAN_MINIMUM
        and sorted(k for k, v in scan.items() if v == low) == X.SCAN_MINIMIZERS,
    )
    for label, report in out["reports"].items():
        checks.expect(f"example report {label}", report == X.EXAMPLE_REPORT)
    for i, (matrix, snf) in enumerate(zip(inp["matrices"], out["snfs"])):
        checks.expect(f"snf minors {i}", _snf_matches_minors(matrix, snf))


# ---------------------------------------------------------------- enumerate

def enumerate_setup(ctx: Context) -> dict:
    presentation = get_presentation(ENUMERATE_GROUP)
    return {
        "G": _realize(ctx.tracer, presentation),
        "presentation": presentation,
        "relators": relations_for_type(TYPE_22),
        "offset": random.Random(ctx.seed).randrange(X.STRUCTURES),
    }


def enumerate_run(ctx: Context, inp: dict) -> dict:
    tr, G = ctx.tracer, inp["G"]
    with tr.span("structures.backtrack"):
        backtrack = structure_rows(G, TYPE_22, jobs=1)
    tr.count("structures.backtrack_rows", len(backtrack))
    with tr.span("symplectic.rows"):
        symplectic = symplectic_structure_rows(G)
    tr.count("symplectic.rows", len(symplectic))
    tr.count("symplectic.reduced_structures", len(symplectic) // X.LIFTS_PER_REDUCED)
    with tr.span("structures.bulk_filter"):
        relators_hold = bulk_relator_filter(G, backtrack, inp["relators"])
    tr.count(
        "structures.bulk_filter_gathers",
        sum(len(r.letters) for r in inp["relators"]) * len(backtrack),
    )
    with tr.span("structures.generation_filter"):
        generates = generation_mask_filter(G, backtrack)
    with tr.span("automorphisms.aut"):
        auts = automorphism_group(G, inp["presentation"])
    tr.count("automorphisms.aut_order", len(auts))
    with tr.span("automorphisms.orbit_count"):
        # the seed rotates the rows, so the freeness sample differs per seed
        rotated = np.roll(symplectic, -inp["offset"], axis=0)
        orbits = orbit_count(
            G, rotated, auts, freeness="sample", sample_size=FREENESS_SAMPLE
        )
    tr.count("automorphisms.freeness_rows_checked", min(FREENESS_SAMPLE, len(rotated)))
    return {
        "backtrack": backtrack, "symplectic": symplectic,
        "relators_hold": relators_hold, "generates": generates,
        "aut_order": len(auts), "orbits": orbits,
    }


def enumerate_check(ctx: Context, out: dict, inp: dict, checks: Checks) -> None:
    bt, sp = out["backtrack"], out["symplectic"]
    checks.expect("backtrack count", len(bt) == X.STRUCTURES)
    checks.expect("symplectic count", len(sp) == X.STRUCTURES)
    checks.expect(
        "routes byte-equal", bt.dtype == sp.dtype and np.array_equal(bt, sp)
    )
    checks.expect("relators hold", bool(out["relators_hold"].all()))
    checks.expect("rows generate", bool(out["generates"].all()))
    checks.expect("aut order", out["aut_order"] == X.AUT_ORDER[ENUMERATE_GROUP])
    checks.expect("orbits", out["orbits"] == X.ORBITS[ENUMERATE_GROUP])


def enumerate_scaling(ctx: Context, inp: dict, out: dict, checks: Checks) -> None:
    """The same enumeration with ctx.jobs workers, for the scaling metric.

    Skipped, with a note on standard error, where it would overrun the
    run's time budget; the scaling metric then reads 0.
    """
    serial = next(s for s in ctx.tracer.spans if s["name"] == "structures.backtrack")
    expected_s = (serial["end"] - serial["start"]) / ctx.jobs
    if time.monotonic() + 1.5 * expected_s > ctx.deadline:
        print("scaling call skipped: it would overrun the time budget", file=sys.stderr)
        return
    with ctx.tracer.span("structures.backtrack_parallel"):
        rows = structure_rows(inp["G"], TYPE_22, jobs=ctx.jobs)
    bt = out["backtrack"]
    checks.expect(
        "parallel rows equal", rows.dtype == bt.dtype and np.array_equal(rows, bt)
    )


# ----------------------------------------------------------------- homology

def homology_setup(ctx: Context) -> dict:
    tr = ctx.tracer
    rng = random.Random(ctx.seed)
    panel, seeded = [], []
    for label in X.EXTRA_SPECIAL:
        G = _realize(tr, get_presentation(label))
        with tr.span("structures.example"):
            panel.append((label, G, example_structure(G)))
        if ctx.smoke:
            continue
        with tr.span("symplectic.reduced"):
            space = induced_space(G)
            reduced = list(enumerate_reduced_structures(space))
        tr.count("symplectic.reduced_structures", len(reduced))
        draws = [
            (rng.randrange(len(reduced)), rng.randrange(X.LIFTS_PER_REDUCED))
            for _ in range(H1_SEEDED)
        ]
        for picks, into in ((H1_PANEL, panel), (draws, seeded)):
            for index, mask in picks:
                with tr.span("symplectic.lift"):
                    lifts = lift_reduced(space, reduced[index], G)
                    into.append((label, G, next(islice(lifts, mask, None))))
    return {"panel": panel, "seeded": seeded}


def _h1(tr: Tracer, structures: list) -> list:
    results = []
    for label, G, s in structures:
        with tr.span("homology.h1"):
            invariants, maximal = h1_of_surface(G, s)
        tr.count("homology.h1_count")
        results.append((label, invariants.to_dict(), maximal))
    return results


def homology_run(ctx: Context, inp: dict) -> list:
    return _h1(ctx.tracer, inp["panel"])


def homology_check(ctx: Context, results: list, inp: dict, checks: Checks) -> None:
    """Checks the panel's H1, then computes and checks the seeded ones.

    Checks run with tracing off, so the seeded H1 adds no spans or counts.
    """
    results = results + _h1(ctx.tracer, inp["seeded"])
    for i, (label, h1, maximal) in enumerate(results):
        checks.expect(f"h1 {label} #{i}", h1 == X.H1 and maximal is True)


def trace_layer_internals(tr: Tracer) -> None:
    """Spans inside h1_of_surface: transversal, relator matrix, the rest."""

    def count_matrix(tr: Tracer, matrix) -> None:
        tr.count("homology.matrices")
        tr.count("homology.matrix_rows", matrix.shape[0])
        tr.count("homology.matrix_cols", matrix.shape[1])
        tr.count("homology.matrix_nnz", int(np.count_nonzero(matrix)))

    tr.wrap(homology, "first_homology", "homology.first_homology")
    tr.wrap(homology, "schreier_transversal", "homology.transversal")
    tr.wrap(
        homology, "abelianized_relator_matrix", "homology.relator_matrix",
        on_result=count_matrix,
    )


WORKLOADS = {
    "catalog": Workload(catalog_setup, catalog_run, catalog_check),
    "enumerate": Workload(
        enumerate_setup, enumerate_run, enumerate_check, enumerate_scaling
    ),
    "homology": Workload(homology_setup, homology_run, homology_check),
}
