"""Brute-force oracles for automorphism groups and their action on
structures.

`automorphism_group` proves that its join finds exactly Aut(G), and
`orbit_count` proves freeness from generation; these helpers check the
same answers by trying every generator image tuple, composing every pair
of automorphisms and applying every automorphism to every row.
"""

from itertools import product

import numpy as np

from ddks.automorphisms import act


def _table(perm: bytes) -> bytes:
    """Pad a permutation to the 256-byte table bytes.translate needs."""
    return perm + bytes(range(len(perm), 256))


def automorphisms_by_brute_force(G, p) -> list[bytes]:
    """The sorted permutations of every generator image tuple in G^ngens
    that satisfies the relators and generates G."""
    perms = []
    for images in product(G.elements(), repeat=p.ngens):
        if any(G.evaluate_word(rel, images) != 0 for rel in p.relators):
            continue
        if len(G.subgroup_generated(images)) != G.order:
            continue
        perms.append(bytes(G.evaluate_word(w, images) for w in G.element_words))
    return sorted(perms)


def closed_under_composition(auts) -> bool:
    """Whether every composite a . b of two automorphisms is in the set:
    |Aut|^2 translate calls."""
    perms = {a.permutation for a in auts}
    for a in auts:
        table = _table(a.permutation)
        for b in auts:
            if b.permutation.translate(table) not in perms:
                return False
    return True


def fixed_by_nonidentity(rows: np.ndarray, auts) -> np.ndarray:
    """Boolean mask: which rows some non-identity automorphism fixes slotwise."""
    columns = rows.T.copy()  # one contiguous array per slot: about 3x faster
    fixed = np.zeros(len(rows), dtype=bool)
    for a in auts:
        if not a.is_identity:
            table = np.frombuffer(a.permutation, dtype=np.uint8)
            fixes = np.ones(len(rows), dtype=bool)
            for column in columns:
                fixes &= table[column] == column
            fixed |= fixes
    return fixed


def orbits_via_unionfind(rows: np.ndarray, auts) -> int:
    """Exact orbit count by union-find; rows must be closed under the action."""
    index = {bytes(row.tobytes()): i for i, row in enumerate(rows)}
    parent = list(range(len(rows)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    tables = [_table(a.permutation) for a in auts]
    for i, row in enumerate(rows):
        rb = row.tobytes()
        for table in tables:
            image = rb.translate(table)
            j = index.get(image)
            if j is None:
                raise ValueError("row set is not closed under the action")
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    return len({find(i) for i in range(len(rows))})


def orbit_of(s, auts) -> list:
    seen = {}
    for a in auts:
        image = act(a, s)
        seen.setdefault(image.elements, image)
    return [seen[k] for k in sorted(seen)]
