"""Structure helpers that only the tests use: slot names, the class-2
(simplified) relation system, the per-tuple prestructure check, the
search's rows in prestructure mode, the braid-group surjection a structure
defines and an oracle for the subgroup lattice.

The simplified relation system states the paper's relations for groups
with [G,G] central; the tests hold it against the full relator list.
"""

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from ddks.group_core import FiniteGroup, Homomorphism, Word, commutator
from ddks.structures import (
    DDKStructure,
    StructureType,
    _genus2_blocks,
    braid_presentation,
    prestructure_relations,
    slot_index,
)


def slot_names(b: int) -> list[str]:
    names = []
    for i in (1, 2):
        for j in range(1, b + 1):
            names += [f"r{i}{j}", f"t{i}{j}"]
    names.append("z")
    return names


def _r(i: int, j: int, b: int) -> Word:
    return Word.gen(slot_index(i, "r", j, b))


def _t(i: int, j: int, b: int) -> Word:
    return Word.gen(slot_index(i, "t", j, b))


@lru_cache(maxsize=None)
def labeled_simplified_relations_for_type(t: StructureType) -> tuple[tuple[str, Word], ...]:
    """The class-2 form of the relation system ([G,G] central).

    z-centrality relators C1..C4b, surface relators S1'/S2' without the
    boundary t-products, and plain commutator values [r_1j, t_2k] =
    z^(-delta), [t_1j, r_2k] = z^(delta), [r_1j, r_2k] = [t_1j, t_2k] = 1.
    """
    b = t.b
    z = Word.gen(4 * b)  # the z slot
    out: list[tuple[str, Word]] = []
    idx = 0
    for i in (1, 2):
        for j in range(1, b + 1):
            for kind in ("r", "t"):
                idx += 1
                g = _r(i, j, b) if kind == "r" else _t(i, j, b)
                out.append((f"C{idx}", commutator(g, z)))

    lhs = Word(())
    for j in range(b, 0, -1):
        lhs = lhs * commutator(_r(1, j, b).inverse(), _t(1, j, b).inverse())
    out.append(("S1'", lhs * z.inverse()))
    lhs = Word(())
    for j in range(1, b + 1):
        lhs = lhs * commutator(_r(2, j, b).inverse(), _t(2, j, b))
    out.append(("S2'", lhs * z))

    idx = 0
    for j in range(1, b + 1):
        for k in range(1, b + 1):
            idx += 1
            out.append((f"R'{idx}", commutator(_r(1, j, b), _r(2, k, b))))
            idx += 1
            rhs = z.inverse() if j == k else Word(())
            out.append((f"R'{idx}", commutator(_r(1, j, b), _t(2, k, b)) * rhs.inverse()))
    idx = 0
    for j in range(1, b + 1):
        for k in range(1, b + 1):
            idx += 1
            rhs = z if j == k else Word(())
            out.append((f"T'{idx}", commutator(_t(1, j, b), _r(2, k, b)) * rhs.inverse()))
            idx += 1
            out.append((f"T'{idx}", commutator(_t(1, j, b), _t(2, k, b))))
    return tuple(out)


def simplified_relations_for_type(t: StructureType) -> list[Word]:
    return [w for _, w in labeled_simplified_relations_for_type(t)]


def verify_prestructure(
    G: FiniteGroup, elements: Sequence[int]
) -> tuple[bool, str | None]:
    """Check o(z) >= 2 and the twenty genus-2 conjugacy relations."""
    elements = tuple(elements)
    if len(elements) != 9:
        raise ValueError(f"expected 9 elements, got {len(elements)}")
    if G.element_order[elements[-1]] < 2:
        return False, "o(z) >= 2 violated"
    for label, rel in prestructure_relations():
        if G.evaluate_word(rel, elements) != 0:
            return False, f"relation {label} violated"
    return True, None


def prestructure_rows(G: FiniteGroup, cells: Iterable[tuple[int, int]]) -> np.ndarray:
    """`genus2_rows` under the twenty prestructure relations alone: the
    (k, 9) uint8 rows with (z, r11) in `cells` that satisfy (R1)-(R10) and
    (T1)-(T10), in the search's order."""
    blocks = [block.T for block in _genus2_blocks(G, cells, prestructure_relations())]
    return np.concatenate(blocks) if blocks else np.zeros((0, 9), dtype=np.uint8)


def structure_to_hom(s: DDKStructure) -> Homomorphism:
    """The surjection from the pure braid group presentation defined by s."""
    hom = Homomorphism(braid_presentation(s.stype.b), s.ambient, s.elements)
    if len(s.ambient.subgroup_generated(hom.images)) != s.ambient.order:
        raise AssertionError("verified structure failed to generate the group")
    if s.ambient.element_order[s.z] != s.stype.n:
        raise AssertionError("verified structure has wrong o(z)")
    return hom


def oracle_subgroup_masks(G: FiniteGroup) -> list[int]:
    """Sorted bitmasks of every subgroup, by extending each subgroup found
    with one element at a time, starting from the cyclic subgroups."""

    def close(members) -> int:
        return sum(1 << m for m in G.subgroup_generated(members))

    found = {close({g}) for g in G.elements()}
    work = list(found)
    while work:
        h = work.pop()
        members = [i for i in range(G.order) if h >> i & 1]
        for g in G.elements():
            if h >> g & 1:
                continue
            k = close(members + [g])
            if k not in found:
                found.add(k)
                work.append(k)
    return sorted(found)
