"""Automorphism groups and their orbits on structures.

Automorphisms are found by `certify.relator_join` over the presentation
generators, the candidate images of each being the elements of its order.
The tuples that generate G extend to element permutations, each checked
to be an automorphism, and that set is Aut(G) (`automorphism_group` states
the proof).  An automorphism is a row of one sorted (|Aut|, |G|) uint8
table, its images of the elements 0 .. |G| - 1; Inn(G) is the same kind
of table (`structures.inner_automorphism_table`).  Orbits are counted as
|structures| / |Aut|, the action being free because every structure
generates G (`orbit_count`, from the certify tail's certificate).
"""

from __future__ import annotations

import numpy as np

from .certify import check_rows, relator_join
from .group_core import FiniteGroup, Presentation, check_elements, read_only, spanning_tree
from .structures import certified_type, generation_mask_filter, pack_rows

AUT_ORDER_CAP = 32
# Rows the generator-image join in `automorphism_group` may hold: 6x its
# largest frontier on the catalog (677 376 rows, on G(32,47)).
AUT_FRONTIER_CAP = 1 << 22


def automorphism_group(G: FiniteGroup, p: Presentation) -> np.ndarray:
    """All automorphisms of G, realized from presentation p, as a read-only
    (|Aut|, |G|) uint8 table of element permutations, rows sorted.

    `relator_join` builds the image tuples of the generators g_1 .. g_n
    that satisfy the relators, g_i's image ranging over the elements of
    its order, and the rows that do not generate G are dropped.  Each
    surviving row is extended to a permutation of G by one gather per
    edge (x, x g_k) of the `spanning_tree` of G over the generators, and
    every permutation is checked to be a bijection that sends g_i to the
    row's i-th entry and is multiplicative on the Cayley table; a failure
    raises AssertionError.

    These are exactly Aut(G), so no closure scan is needed.  An
    automorphism sends the generators to a tuple of elements of the same
    orders that satisfies the relators and generates G, and it is fixed
    by that tuple, so the join finds every automorphism.  By von Dyck's
    theorem each surviving tuple defines a homomorphism, which the tree
    gathers compute; the checks show that each one is an automorphism and
    that distinct tuples give distinct automorphisms (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005).  So the set
    is Aut(G), a group.
    """
    if G.order > AUT_ORDER_CAP:
        raise ValueError(f"automorphism search cap is order {AUT_ORDER_CAP}")
    if p.ngens != len(G.generator_elements):
        raise ValueError("presentation does not match the realization")
    gens = G.generator_elements
    images = [np.flatnonzero(G.orders == G.orders[g]) for g in gens]
    rows = relator_join(G, images, p.relators, AUT_FRONTIER_CAP)
    rows = rows[generation_mask_filter(G, rows)]

    cayley = G.table  # uint8: order <= AUT_ORDER_CAP
    perms = np.zeros((len(rows), G.order), dtype=np.uint8)
    order, parent, column = spanning_tree(cayley[:, list(gens)].tolist())
    for y in order[1:]:  # perm(x g_k) = perm(x) perm(g_k) along the tree edges
        perms[:, y] = cayley[perms[:, parent[y]], rows[:, column[y]]]
    # an element the generators do not reach keeps image 0: no bijection
    if not (np.sort(perms, axis=1) == np.arange(G.order, dtype=np.uint8)).all():
        raise AssertionError("a generator image tuple does not give a bijection")
    if not (perms[:, list(gens)] == rows).all():
        raise AssertionError("a permutation moves a generator off its image")
    if not (perms[:, cayley] == cayley[perms[:, :, None], perms[:, None, :]]).all():
        raise AssertionError("a generator image tuple does not give a homomorphism")
    return read_only(perms[np.lexsort(perms.T[::-1])])  # as every table the system hands out


def out_order(auts: np.ndarray, inner: np.ndarray) -> int:
    """|Out| = |Aut| / |Inn|, checking that |Inn| divides |Aut|."""
    if len(auts) % len(inner) != 0:
        raise AssertionError("|Inn| does not divide |Aut|")
    return len(auts) // len(inner)


class FreenessError(AssertionError):
    pass


def orbit_count(
    G: FiniteGroup,
    rows: np.ndarray,
    auts: np.ndarray,
    freeness: str = "sample",
    sample_size: int = 1000,
) -> int:
    """The number of Aut-orbits on `rows`: |rows| / |Aut|, exactly.

    `rows` must be a union of orbits, and `auts` a group of permutations of
    G, one per row, as `automorphism_group` certifies.  The quotient counts
    orbits only if the action is free, and freeness follows from a lemma: a
    homomorphism that fixes a generating tuple pointwise is the identity
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005).
    Two distinct homomorphisms thus differ on every generating row, so each
    orbit has exactly |Aut| rows.  The lemma's premises are checked, and a
    failed one raises FreenessError:

    (a) the rows of `auts` are pairwise distinct and include the
        identity, as a group's do (so `auts` is not empty);
    (b) each is multiplicative on the Cayley table of G;
    (c) the rows are pairwise distinct and each generates G.

    "full" takes (c) and the union of orbits from the certify tail: `rows`
    must be the very array a route returned for G, else ValueError
    (`structures.certified_type`), so every structure of one type, a set
    closed under Aut, which keeps the relators, o(z) and generation.
    "sample" checks (c) on sample_size evenly spaced rows (ValueError below
    1, which checks none, or for two equal rows, as copies of one row are
    no union of orbits).  ValueError unless `auts` is a 2-D (k, |G|) table of elements.
    """
    if freeness not in ("sample", "full"):
        raise ValueError(f"unknown freeness mode {freeness!r}")
    if freeness == "sample" and sample_size < 1:
        raise ValueError(f"sample_size must be at least 1, got {sample_size}")
    if freeness == "full" and certified_type(G, rows) is None:
        raise ValueError("freeness 'full' needs the very rows a route returned for this group")
    check_rows(auts, G.order, "auts")
    check_elements(G, auts)
    if len(rows) == 0:
        return 0
    perms = auts[np.lexsort(auts.T[::-1])]
    if not (perms == np.arange(G.order)).all(axis=1).any():
        raise FreenessError("the automorphisms do not include the identity")
    if not (perms[1:] != perms[:-1]).any(axis=1).all():
        raise FreenessError("two automorphisms have the same permutation")
    cayley = G.table  # uint8, as the permutations are: order <= 256
    if not (perms[:, cayley] == cayley[perms[:, :, None], perms[:, None, :]]).all():
        raise FreenessError("an automorphism is not multiplicative")
    if freeness == "sample":
        checked = rows[np.linspace(0, len(rows) - 1, min(sample_size, len(rows))).astype(np.int64)]
        keys = pack_rows(G, checked)
        keys.sort(kind="stable")  # timsort: one pass over the sorted rows the routes return
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("orbit_count needs pairwise distinct rows; two checked rows are equal")
        if not generation_mask_filter(G, checked).all():
            raise FreenessError("a structure does not generate G")
    if len(rows) % len(auts) != 0:
        raise AssertionError(
            f"|Aut| = {len(auts)} does not divide {len(rows)} structures"
        )
    return len(rows) // len(auts)
