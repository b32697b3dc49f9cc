"""Brute-force automorphism groups, their action on structures, and orbits.

Automorphisms are found by assigning images to the presentation generators
with order-matching and incremental relator pruning, then extending to a
full element permutation. Permutations are stored as bytes so composition
is a single translate call.  Orbits are counted as |structures| / |Aut|,
the action being free because every structure generates G (`orbit_count`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .group_core import FiniteGroup, Presentation
from .structures import (
    DDKStructure,
    generation_mask_filter,
    maximal_subgroup_masks,
    verify_structure,
)

AUT_ORDER_CAP = 32


_IDENTITY_256 = bytes(range(256))


def _translation_table(perm: bytes) -> bytes:
    """Pad a permutation to the 256-byte table bytes.translate needs."""
    return perm + _IDENTITY_256[len(perm):]


@dataclass(frozen=True)
class GroupAutomorphism:
    permutation: bytes

    def __call__(self, x: int) -> int:
        return self.permutation[x]

    def compose(self, other: "GroupAutomorphism") -> "GroupAutomorphism":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        return GroupAutomorphism(
            other.permutation.translate(_translation_table(self.permutation))
        )

    def inverse(self) -> "GroupAutomorphism":
        inv = bytearray(len(self.permutation))
        for i, j in enumerate(self.permutation):
            inv[j] = i
        return GroupAutomorphism(bytes(inv))

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.permutation))


def _extend_permutation(
    G: FiniteGroup, gen_elements: Sequence[int], images: Sequence[int]
) -> list[int] | None:
    """The unique multiplicative extension of generator images, or None if
    it is not a bijection."""
    perm: list[int | None] = [None] * G.order
    perm[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            px = perm[x]
            for g, img in zip(gen_elements, images):
                y = G.mul(x, g)
                if perm[y] is None:
                    perm[y] = G.mul(px, img)
                    nxt.append(y)
        frontier = nxt
    if any(v is None for v in perm) or len(set(perm)) != G.order:
        return None
    return perm


def automorphism_group(
    G: FiniteGroup, p: Presentation, max_order: int = AUT_ORDER_CAP
) -> list[GroupAutomorphism]:
    """All automorphisms of G, realized from presentation p.

    Images are searched only for an irredundant prefix of the generators
    when the final generator is the commutator of the first two (the
    extra-special case); relators prune partial assignments, surviving
    tuples must generate, and the resulting permutation set is verified
    to be closed under composition.
    """
    if G.order > max_order:
        raise ValueError(f"automorphism search cap is order {max_order}")
    if p.ngens != len(G.generator_elements):
        raise ValueError("presentation does not match the realization")
    cached = getattr(G, "_aut_cache", None)
    if cached is not None and p in cached:
        return cached[p]

    gens = G.generator_elements
    n = p.ngens
    derive_last = (
        n >= 3
        and gens[-1] == G.commutator(gens[1], gens[0])
        and len(G.subgroup_generated(gens[:-1])) == G.order
    )
    free = n - 1 if derive_last else n

    # relator ready list: a relator can be checked once every generator it
    # mentions (other than a derived last one) is assigned
    ready: list[list] = [[] for _ in range(free)]
    for rel in p.relators:
        support = {abs(letter) - 1 for letter in rel}
        if derive_last:
            support.discard(n - 1)
        if not support:
            continue
        ready[max(support)].append(rel)

    orders = [G.element_order[g] for g in gens]
    candidates = [
        [x for x in G.elements() if G.element_order[x] == orders[i]]
        for i in range(free)
    ]
    maximal = maximal_subgroup_masks(G)
    full_mask = (1 << G.order) - 1

    results: list[GroupAutomorphism] = []
    images: list[int] = [0] * n

    # a relator mentioning the derived last generator is only meaningful
    # once both of its source generators are assigned
    if derive_last:
        deferred = [
            rel for rel in ready[0]
            if any(abs(let) - 1 == n - 1 for let in rel)
        ]
        ready[0] = [rel for rel in ready[0] if rel not in deferred]
        ready[1].extend(deferred)

    def assign(i: int):
        if i == free:
            if derive_last:
                for rel in p.relators:
                    if G.evaluate_word(rel, images) != 0:
                        return
            mask = 0
            for img in images:
                mask |= 1 << img
            if any(mask & ~m == 0 for m in maximal if m != full_mask):
                return
            perm = _extend_permutation(G, gens, images)
            if perm is not None:
                results.append(GroupAutomorphism(bytes(perm)))
            return
        for x in candidates[i]:
            images[i] = x
            if derive_last and i >= 1:
                images[n - 1] = G.commutator(images[1], images[0])
            ok = True
            for rel in ready[i]:
                if G.evaluate_word(rel, images) != 0:
                    ok = False
                    break
            if ok:
                assign(i + 1)

    assign(0)
    results.sort(key=lambda a: a.permutation)

    perm_set = {a.permutation for a in results}
    if len(perm_set) != len(results):
        raise AssertionError("duplicate automorphisms found")
    tables = [_translation_table(a.permutation) for a in results]
    for table in tables:
        for b in results:
            if b.permutation.translate(table) not in perm_set:
                raise AssertionError("automorphism set not closed under composition")

    if cached is None:
        cached = G._aut_cache = {}
    cached[p] = results
    return results


def inner_automorphisms(G: FiniteGroup) -> list[GroupAutomorphism]:
    """Conjugation maps, one per coset of the center."""
    seen = {}
    for g in G.elements():
        perm = bytes(G.conjugate(x, g) for x in G.elements())
        seen.setdefault(perm, GroupAutomorphism(perm))
    out = sorted(seen.values(), key=lambda a: a.permutation)
    if len(out) != G.order // len(G.center()):
        raise AssertionError("|Inn| is not |G| / |Z(G)|")
    return out


def out_order(
    auts: Sequence[GroupAutomorphism], inner: Sequence[GroupAutomorphism]
) -> int:
    """|Out| = |Aut| / |Inn|, checking that |Inn| divides |Aut|."""
    if len(auts) % len(inner) != 0:
        raise AssertionError("|Inn| does not divide |Aut|")
    return len(auts) // len(inner)


def act(phi: GroupAutomorphism, s: DDKStructure) -> DDKStructure:
    """Apply an automorphism slotwise; the image is re-verified."""
    elems = tuple(phi(e) for e in s.elements)
    ok, diag = verify_structure(s.ambient, elems, s.stype)
    if not ok:
        raise AssertionError(f"automorphism image is not a structure: {diag}")
    return DDKStructure(s.ambient, s.stype, elems)


class FreenessError(AssertionError):
    pass


def orbit_count(
    G: FiniteGroup,
    rows: np.ndarray,
    auts: Sequence[GroupAutomorphism],
    freeness: str = "sample",
    sample_size: int = 1000,
) -> int:
    """The number of Aut-orbits on `rows`: |rows| / |Aut|, exactly.

    `rows` must be a union of orbits, as the certified set of all
    structures is, and `auts` a group, as `automorphism_group` certifies.
    The quotient counts orbits only if the action is free, and freeness
    follows from a lemma: a homomorphism that fixes a generating tuple
    pointwise is the identity (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005).  Two distinct homomorphisms thus
    differ on every generating row, so each orbit has exactly |Aut| rows.
    The lemma's premises are checked, and a failed one raises
    FreenessError:

    (a) the permutations in `auts` are pairwise distinct;
    (b) each is multiplicative on the Cayley table of G;
    (c) each checked row generates G.

    The mode chooses the rows of (c): "full" checks every row, "sample"
    checks sample_size of them at deterministic, evenly spaced indices.
    """
    if freeness not in ("sample", "full"):
        raise ValueError(f"unknown freeness mode {freeness!r}")
    if len(rows) == 0:
        return 0
    checked = rows
    if freeness == "sample" and sample_size < len(rows):
        checked = rows[np.linspace(0, len(rows) - 1, sample_size).astype(np.int64)]
    if len({a.permutation for a in auts}) != len(auts):
        raise FreenessError("two automorphisms have the same permutation")
    perms = np.frombuffer(b"".join(a.permutation for a in auts), dtype=np.uint8)
    perms = perms.reshape(len(auts), G.order)
    cayley = np.array(G.cayley, dtype=np.uint8)  # permutations are bytes: order <= 256
    if not (perms[:, cayley] == cayley[perms[:, :, None], perms[:, None, :]]).all():
        raise FreenessError("an automorphism is not multiplicative")
    if not generation_mask_filter(G, checked).all():
        raise FreenessError("a structure does not generate G")
    if len(rows) % len(auts) != 0:
        raise AssertionError(
            f"|Aut| = {len(auts)} does not divide {len(rows)} structures"
        )
    return len(rows) // len(auts)


def induced_symplectic_map(space, phi: GroupAutomorphism) -> list[int]:
    """The linear map on V = G/Z induced by an automorphism, as a value
    table over all vectors."""
    table = [0] * (2**space.dim)
    for v in space.vectors():
        table[v] = space.projection(phi(space.section(v)))
    basis_images = [table[1 << i] for i in range(space.dim)]
    for v in space.vectors():
        acc = 0
        for i in range(space.dim):
            if (v >> i) & 1:
                acc ^= basis_images[i]
        if acc != table[v]:
            raise AssertionError("induced map on V is not linear")
    return table
