"""Diagonal double Kodaira structures: relation systems, verification, search.

A structure of type (b, n) on a finite group G is an ordered tuple

    (r_11, t_11, ..., r_1b, t_1b, r_21, t_21, ..., r_2b, t_2b, z)

of generators of G with o(z) = n satisfying two surface relations and the
conjugacy-action relations of the genus-b pure braid group of two strands;
a prestructure is the genus-2 tuple subject to the conjugacy relations
(R1)-(R10), (T1)-(T10) only, with o(z) >= 2 and no generation requirement.

Relators are oriented as LHS * RHS^-1 for a relation "LHS = RHS".

Genus-2 tuples come from a bitset frontier join (`genus2_rows`): from the
cells (z, r11), each level assigns one slot x (t21, r12, t22, t11, r21,
t12, r22) to the whole frontier.  `_search_plan` derives the levels from
the relator list: each relator closes at its last-assigned slot x as
U x^e V x^-e W, i.e. x^e V x^-e = (WU)^-1, so the candidates for x are an
AND of masks from one table C[v, d] = {x : x v x^-1 = d}.  Bits expand in
ascending order under their parent, so rows come out in depth-first order
whatever the chunk size.

Each such test runs at the first level whose columns have V and D
assigned, often before x's own level (forward checking; Haralick and
Elliott, "Increasing tree search efficiency for constraint satisfaction
problems", 1980).  There it ANDs into a pending mask for x that the
column's children inherit, and a column is dropped as soon as one of its
pending masks is empty.  No row is dropped or reordered by this: V and D
take the same values in every descendant, so x's level expands exactly
the AND it would have computed itself, and a column with an empty mask has
no completion.

`structure_rows` searches one row per Inn(G)-orbit, the least in slot
order (McKay's minimal images): a column carries the uint64 mask of the
inner automorphisms that fix its prefix, and a slot value x survives only
if none of them sends x below x.  Each orbit is then rebuilt from the
packed representatives, five gathers a key per inner automorphism
(`_image_keys`).  This counts every structure once because Inn(G) acts
by automorphisms, which keep a row a structure, and every certified row
generates G, so only the identity fixes it: the action is free and each
orbit has |Inn| distinct rows.

`prestructure_report` decides emptiness on the same minimal images: the
prestructures with z in an Inn(G)-closed pool are a union of orbits, so
there are none iff the search for least rows finds none; only a group
that has some reads the full stream for its count.  Its "auto" shortcut
searches no abelian quotient, where R4 forces z = [t21, r11] = 1
(`_search_setup`).

Both enumeration routes, this one and `symplectic`, end in
`certify_structure_rows`.  A route hands it one uint64 key per row, 6 bits
a slot with r11 most significant, so one sort of the keys puts the rows in
lexicographic order; sorted neighbours must differ.  The rows unpacked
from the keys are the array that is checked and returned: every row
against `bulk_relator_filter` (from `certify`), which shares no code,
table or cache with the plan (it compiles the relator words themselves
into one program of gathers and equality tests, which holds iff each word
evaluates to the identity), then o(z) and generation.  While one route's
certified rows for a group are alive, the other route's keys are compared
with them instead, and its rows are a view of the same certified array.

Inputs are checked once each: element indices by the group core's
`check_elements`; a structure where it is made, as `DDKStructure` runs
`verify_structure`, so its readers do not verify it again; route rows by
the certify tail, whose returned array cannot be made writeable.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .group_core import (
    ElementSet,
    FiniteGroup,
    Presentation,
    Word,
    check_elements,
    commutator,
    read_only,
)
from .certify import bulk_relator_filter, check_keys, check_rows, relator_join

SEARCH_ORDER_CAP = 64
# Rows a level of `reference_prestructures` may hold (order 16: 15 * 16^4).
REFERENCE_FRONTIER_CAP = 1 << 20
# `maximal_subgroup_masks` by group object: a copy of a group shares none,
# and a freed group takes its masks with it.
_MAXIMAL_MASKS: weakref.WeakKeyDictionary[FiniteGroup, list[int]] = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class StructureType:
    """Type (b, n): base/fibre genus parameter b and branching order n."""

    b: int
    n: int

    def __post_init__(self):
        if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (self.b, self.n)):
            raise ValueError(f"b and n must be integers, got {[self.b, self.n]}")
        if self.b < 2 or self.n < 2:
            raise ValueError("structure type requires b >= 2 and n >= 2")

    @property
    def tuple_length(self) -> int:
        return 4 * self.b + 1


# -- tuple slot layout ------------------------------------------------

def slot_index(i: int, kind: str, j: int, b: int) -> int:
    """Index of r_ij / t_ij / z in the structure tuple."""
    if kind == "z":
        return 4 * b
    base = 0 if i == 1 else 2 * b
    return base + 2 * (j - 1) + (0 if kind == "r" else 1)


def _r(i: int, j: int, b: int) -> Word:
    return Word.gen(slot_index(i, "r", j, b))


def _t(i: int, j: int, b: int) -> Word:
    return Word.gen(slot_index(i, "t", j, b))


def _z(b: int) -> Word:
    return Word.gen(4 * b)


# -- relation systems -------------------------------------------------

@lru_cache(maxsize=None)
def labeled_relations_for_type(t: StructureType) -> tuple[tuple[str, Word], ...]:
    """The full relator list, as (label, relator) pairs.

    Two surface relators S1, S2, then the conjugacy blocks: R-labels for the
    action of r_1j, T-labels for the action of t_1j, each numbered in
    emission order (j ascending; within each j, the r_2k targets with k
    descending, then the t_2k targets with k descending, then z).  For
    b = 2 this reproduces exactly the labels (S1), (S2), (R1)-(R10),
    (T1)-(T10).
    """
    b = t.b
    out: list[tuple[str, Word]] = []
    z = _z(b)

    # S1:  [r_1b^-1, t_1b^-1] t_1b^-1 ... [r_11^-1, t_11^-1] t_11^-1
    #      (t_11 t_12 ... t_1b)  =  z
    lhs = Word(())
    for j in range(b, 0, -1):
        lhs = lhs * commutator(_r(1, j, b).inverse(), _t(1, j, b).inverse())
        lhs = lhs * _t(1, j, b).inverse()
    for j in range(1, b + 1):
        lhs = lhs * _t(1, j, b)
    out.append(("S1", lhs * z.inverse()))

    # S2:  [r_21^-1, t_21] t_21 ... [r_2b^-1, t_2b] t_2b
    #      (t_2b^-1 ... t_21^-1)  =  z^-1
    lhs = Word(())
    for j in range(1, b + 1):
        lhs = lhs * commutator(_r(2, j, b).inverse(), _t(2, j, b))
        lhs = lhs * _t(2, j, b)
    for j in range(b, 0, -1):
        lhs = lhs * _t(2, j, b).inverse()
    out.append(("S2", lhs * z))

    def conj_rhs_r(j: int, k: int) -> Word:
        # [r_1j, r_2k] = ...
        if j <= k:
            return Word(())
        return (
            z.inverse() * _r(2, k, b) * _r(2, j, b).inverse() * z
            * _r(2, j, b) * _r(2, k, b).inverse()
        )

    def conj_rhs_rt(j: int, k: int) -> Word:
        # [r_1j, t_2k] = ...
        if j < k:
            return Word(())
        if j == k:
            return z.inverse()
        return commutator(z.inverse(), _t(2, k, b))

    def conj_rhs_tr(j: int, k: int) -> Word:
        # [t_1j, r_2k] = ...
        if j < k:
            return Word(())
        if j == k:
            return _t(2, j, b).inverse() * z * _t(2, j, b)
        return commutator(_t(2, j, b).inverse(), z)

    def conj_rhs_tt(j: int, k: int) -> Word:
        # [t_1j, t_2k] = ...
        if j < k:
            return Word(())
        if j == k:
            return commutator(_t(2, j, b).inverse(), z)
        tj, tk = _t(2, j, b), _t(2, k, b)
        return (
            tj.inverse() * z * tj * z.inverse() * tk * z
            * tj.inverse() * z.inverse() * tj * tk.inverse()
        )

    idx = 0
    for j in range(1, b + 1):
        for k in range(b, 0, -1):
            idx += 1
            out.append((f"R{idx}", commutator(_r(1, j, b), _r(2, k, b)) * conj_rhs_r(j, k).inverse()))
        for k in range(b, 0, -1):
            idx += 1
            out.append((f"R{idx}", commutator(_r(1, j, b), _t(2, k, b)) * conj_rhs_rt(j, k).inverse()))
        idx += 1
        out.append((f"R{idx}", commutator(_r(1, j, b), z) * commutator(_r(2, j, b).inverse(), z).inverse()))
    idx = 0
    for j in range(1, b + 1):
        for k in range(b, 0, -1):
            idx += 1
            out.append((f"T{idx}", commutator(_t(1, j, b), _r(2, k, b)) * conj_rhs_tr(j, k).inverse()))
        for k in range(b, 0, -1):
            idx += 1
            out.append((f"T{idx}", commutator(_t(1, j, b), _t(2, k, b)) * conj_rhs_tt(j, k).inverse()))
        idx += 1
        out.append((f"T{idx}", commutator(_t(1, j, b), z) * commutator(_t(2, j, b).inverse(), z).inverse()))

    if len(out) != 4 * b * b + 2 * b + 2:
        raise AssertionError(f"{len(out)} relations, expected {4 * b * b + 2 * b + 2}")
    return tuple(out)


def relations_for_type(t: StructureType) -> list[Word]:
    return [w for _, w in labeled_relations_for_type(t)]


def braid_presentation(b: int) -> Presentation:
    """The two-strand genus-b pure braid group presentation.

    Generators rho_ij, tau_ij, A12 in tuple-slot order; relators are
    exactly relations_for_type (with A12 in the z slot).
    """
    names = []
    for i in (1, 2):
        for j in range(1, b + 1):
            names += [f"rho{i}{j}", f"tau{i}{j}"]
    names.append("A12")
    rels = relations_for_type(StructureType(b, 2))  # relators don't involve n
    return Presentation(tuple(names), tuple(rels))


# prestructure = genus-2 conjugacy relations only
_PRE_TYPE = StructureType(2, 2)


# R4 as the abelian-quotient lemma of `_search_setup` reads it: r11 t21
# r11^-1 t21^-1 z, slot k as generator k + 1 (r11 0, t21 5, z 8)
_R4 = Word((1, 6, -1, -6, 9))


def prestructure_relations() -> tuple[tuple[str, Word], ...]:
    return tuple(
        (label, w)
        for label, w in labeled_relations_for_type(_PRE_TYPE)
        if not label.startswith("S")
    )


# -- structure containers ---------------------------------------------

@dataclass(frozen=True)
class DDKStructure:
    """A structure, verified where it is made (`verify_structure`)."""

    ambient: FiniteGroup
    stype: StructureType
    elements: tuple[int, ...]

    def __post_init__(self):
        ok, diag = verify_structure(self.ambient, self.elements, self.stype)
        if not ok:
            raise ValueError(f"not a structure: {diag}")

    @property
    def z(self) -> int:
        return self.elements[-1]

    def words(self) -> list[str] | None:
        if self.ambient.element_words is None:
            return None
        return [
            self.ambient.element_words[e].format(self.ambient.generator_names)
            for e in self.elements
        ]


@dataclass(frozen=True)
class KSubgroupData:
    K1: ElementSet
    K2: ElementSet
    m1: int
    m2: int
    strong: bool


# -- verification -----------------------------------------------------

def verify_structure(
    G: FiniteGroup, elements: Sequence[int], t: StructureType
) -> tuple[bool, str | None]:
    """Check o(z) = n, all relators, and generation; diagnostic on failure.
    ValueError for elements that are not element indices of G."""
    check_elements(G, elements)
    if len(elements) != t.tuple_length:
        raise ValueError(
            f"expected {t.tuple_length} elements for type ({t.b},{t.n}), "
            f"got {len(elements)}"
        )
    oz = G.element_order[elements[-1]]
    if oz < 2:
        return False, "o(z) >= 2 violated"
    if oz != t.n:
        return False, f"o(z) = {t.n} violated (o(z) = {oz})"
    for label, rel in labeled_relations_for_type(t):
        if G.evaluate_word(rel, elements) != 0:
            return False, f"relation {label} violated"
    if len(G.subgroup_generated(elements)) != G.order:
        return False, "generation violated"
    return True, None


def k_subgroups(s: DDKStructure) -> KSubgroupData:
    """K1 / K2 generated by each half of the tuple plus z, with indices."""
    b = s.stype.b
    g = s.ambient
    k1 = g.subgroup_generated(s.elements[0:2 * b] + (s.z,))
    k2 = g.subgroup_generated(s.elements[2 * b:4 * b] + (s.z,))
    m1 = g.order // len(k1)
    m2 = g.order // len(k2)
    return KSubgroupData(k1, k2, m1, m2, strong=(m1 == 1 and m2 == 1))


def example_structure(G: FiniteGroup) -> DDKStructure:
    """The explicit type-(2, 2) structure on an extra-special group of order 32.

    Built from the presentation generators (r1, t1, r2, t2, z) as
    r11 = r1, t11 = t1, r12 = r2 t1, t12 = r1 t2,
    r21 = r1 t2, t21 = r2 t1, r22 = r2, t22 = t2.
    """
    if len(G.generator_elements) != 5:
        raise ValueError("expected a 5-generator extra-special realization")
    r1, t1, r2, t2, z = G.generator_elements
    elems = (
        r1, t1, G.mul(r2, t1), G.mul(r1, t2),
        G.mul(r1, t2), G.mul(r2, t1), r2, t2,
        z,
    )
    return DDKStructure(G, StructureType(2, 2), elems)


# -- maximal subgroups (for bulk generation tests) --------------------

def all_subgroup_masks(G: FiniteGroup) -> list[int]:
    """Sorted bitmasks of every subgroup: the joins of the cyclic subgroups."""
    if G.order > 64:
        raise ValueError(f"mask representation requires order <= 64, got {G.order}")
    found = G.join_closure(G.subgroup_generated((g,)) for g in G.elements())
    return sorted(sum(1 << m for m in h) for h in found)


def maximal_subgroup_masks(G: FiniteGroup) -> list[int]:
    """Sorted bitmasks (bit x for element x) of the maximal subgroups of G,
    built once per group (`_MAXIMAL_MASKS`).

    For |G| = p^k, k >= 1, they come from the Frattini quotient
    (`_frattini_maximal_masks`): by the Burnside basis theorem the maximal
    subgroups of a p-group are the preimages of the hyperplanes of
    G/Phi(G), an F_p-vector space, where Phi(G) = G^p [G, G] (Burnside,
    Theory of Groups of Finite Order, 1911; Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005).  Every other group
    keeps the maximal members of `all_subgroup_masks`, which raises
    ValueError above order 64."""
    maximal = _MAXIMAL_MASKS.get(G)
    if maximal is None:
        p = _prime_power_base(G.order)
        if p is not None:
            maximal = _frattini_maximal_masks(G, p)
        else:
            full = (1 << G.order) - 1
            proper = [m for m in all_subgroup_masks(G) if m != full]
            maximal = [m for m in proper if not any(m != o and m & ~o == 0 for o in proper)]
        _MAXIMAL_MASKS[G] = maximal
    return maximal


def _prime_power_base(n: int) -> int | None:
    """p if n = p^k for a prime p and k >= 1, else None."""
    p = next((q for q in range(2, n + 1) if n % q == 0), None)  # the least is prime
    while p is not None and n % p == 0:
        n //= p
    return p if n == 1 else None


def _hyperplanes(p: int, d: int) -> np.ndarray:
    """The (p^d - 1) / (p - 1) hyperplanes of F_p^d as normal vectors, one
    a row: each nonzero vector whose first nonzero coordinate is 1."""
    normals = [v for v in product(range(p), repeat=d) if next((c for c in v if c), 0) == 1]
    return np.array(normals, dtype=np.int64).reshape(len(normals), d)


def _frattini_maximal_masks(G: FiniteGroup, p: int) -> list[int]:
    """The maximal subgroups of a p-group G as sorted bitmasks: the
    preimages of the hyperplanes of G/Phi, Phi = <x^p, [x, y]>.

    A maximal subgroup M of a p-group is normal of index p, so G/M is
    cyclic of order p and M holds every p-th power and commutator, hence
    Phi.  So the maximal subgroups are the preimages of the maximal
    subgroups of G/Phi, which is elementary abelian, F_p^d: its
    hyperplanes.  The premises are checked, each by an if/raise: |G| = p^k
    (else ValueError), and (else AssertionError) Phi is closed under
    products, the coordinates given to G/Phi make a homomorphism onto
    F_p^d with kernel Phi, and each preimage is closed and of index p."""
    n, table = G.order, G.table
    if _prime_power_base(n) != p:
        raise ValueError(f"the Frattini quotient needs |G| = p^k, got order {n} for p = {p}")
    x = np.arange(n)
    power = x
    for _ in range(p - 1):
        power = table[power, x]
    members = list(G.subgroup_generated(set(power.tolist()) | set(G.commutators.ravel().tolist())))
    phi = np.zeros(n, dtype=bool)
    phi[members] = True
    if not phi[table[np.ix_(members, members)]].all():
        raise AssertionError("Phi(G) is not closed under products")
    # Coordinates on G/Phi: the next basis element g is the least element
    # not yet labelled, and the cosets s g^c (s labelled, 0 < c < p) get
    # the label of s plus c e_d.
    code = np.where(phi, 0, -1)
    d = 0
    while (code < 0).any():
        g = int(np.argmax(code < 0))
        span = np.flatnonzero(code >= 0)
        step = span
        for c in range(1, p):
            step = table[step, g]
            if (code[step] >= 0).any():
                raise AssertionError("G/Phi(G) is not elementary abelian: a coset is labelled twice")
            code[step] = code[span] + c * p ** d
        d += 1
    coords = (code[:, None] // p ** np.arange(d) % p).astype(np.int16)
    if not (coords[table] == (coords[:, None] + coords[None]) % p).all():
        raise AssertionError("G/Phi(G) is not elementary abelian: the coordinates are not additive")
    inside = (coords @ _hyperplanes(p, d).T) % p == 0
    for column in inside.T:
        members = np.flatnonzero(column)
        if len(members) * p != n or not column[table[np.ix_(members, members)]].all():
            raise AssertionError("a hyperplane's preimage is not a subgroup of index p")
    octets = np.packbits(inside, axis=0, bitorder="little")
    return sorted(int.from_bytes(column.tobytes(), "little") for column in octets.T)


# Rows the generation filter, `pack_rows`, `unpack_keys` and the orbit
# expansion handle at a time, so that each temporary (at most uint64,
# 128 KB) stays in cache; the generation filter stops a chunk once every
# row in it generates.
_CHUNK = 1 << 14


def generation_mask_filter(G: FiniteGroup, rows: np.ndarray) -> np.ndarray:
    """Boolean mask: which rows (tuples of element indices) generate G.

    A tuple generates G iff it is not contained in any maximal subgroup
    (`maximal_subgroup_masks`; for a p-group, iff its image spans
    G/Phi(G), by the Burnside basis theorem).  Each element gets a mask
    whose bit j says it lies outside maximal subgroup j, in the smallest
    unsigned dtype with a bit per maximal subgroup, so a row generates G
    iff the OR over its entries has every bit set.  The rows are read as
    bytes, two adjacent entries at a time through a little-endian uint16
    view: one gather from the 65 536-entry table of the ORs of two masks
    (an odd last column is gathered alone).  OR only sets bits, so a
    chunk of rows stops as soon as every row in it has them all.

    Raises ValueError for rows that are not 2-D, above order 256 (an
    element no longer fits in a byte), above 64 maximal subgroups and for
    entries that are not element indices of G; for a group that is not a
    p-group, above order 64 `all_subgroup_masks` raises ValueError.
    """
    check_rows(rows)
    if G.order > 256:
        raise ValueError(f"generation masks read elements as bytes, so order <= 256, got {G.order}")
    maximal = maximal_subgroup_masks(G)
    if len(maximal) > 64:
        raise ValueError(f"generation masks hold 64 maximal subgroups, got {len(maximal)}")
    check_elements(G, rows)
    full = (1 << len(maximal)) - 1
    outside = np.zeros(256, dtype=np.min_scalar_type(full))
    outside[:G.order] = np.array(
        [sum(1 << j for j, m in enumerate(maximal) if not m >> x & 1) for x in G.elements()],
        dtype=outside.dtype,
    )
    full = outside.dtype.type(full)
    pair = (outside[:, None] | outside[None, :]).reshape(-1)  # pair[b1 * 256 + b0]
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    count, width = rows.shape
    # columns 2i and 2i + 1 of a row as the uint16 b0 + 256 b1
    pairs = np.ndarray((count, width // 2), dtype="<u2", buffer=rows, strides=(width, 2))
    ok = np.empty(count, dtype=bool)
    acc = np.empty(min(_CHUNK, count), dtype=outside.dtype)
    part = np.empty_like(acc)
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        a, p, done = acc[:stop - start], part[:stop - start], ok[start:stop]
        a[:] = 0
        done[:] = full == 0
        gathers = [(pair, pairs[start:stop, i]) for i in range(width // 2)]
        if width % 2:
            gathers.append((outside, rows[start:stop, -1]))
        for table, index in gathers:
            if done.all():
                break
            # mode="clip" skips the bounds check, which would also buffer `p`;
            # every entry was checked above
            np.take(table, index, out=p, mode="clip")
            a |= p
            np.equal(a, full, out=done)
    return ok


# -- genus-2 search (the bitset frontier join of the module docstring) --

_R11, _T11, _R12, _T12, _R21, _T21, _R22, _T22, _Z = range(9)
_LEVEL_SLOTS = (_T21, _R12, _T22, _T11, _R21, _T12, _R22)
_ONE = 9  # the register after the nine slots holds the identity
# Rows a chunk of the frontier may expand to before it descends further.
# Each of the seven levels holds one chunk's arrays (about 33 bytes a row),
# so this bounds the search's memory; 8192 keeps it under 2 MB.
_ROW_BUDGET = 1 << 13


class _Tables:
    """Flat 64 x 64 tables, indexed by `_pair`: products mul[a, b] = ab,
    conjugates conj[a, b] = a b a^-1, and the uint64 masks C[v, d] of the
    x with x v x^-1 = d.  SEARCH_ORDER_CAP = 64 is what lets one mask hold
    every element."""

    def __init__(self, G: FiniteGroup):
        n = G.order
        if n > SEARCH_ORDER_CAP:
            raise ValueError(f"search cap is order {SEARCH_ORDER_CAP}")
        self.inv = G.inverses.astype(np.uint16)
        a, b = np.indices((n, n), dtype=np.uint16)
        conj = G.conjugates(G.elements())
        self.mul, self.conj = np.zeros((2, 64 * 64), dtype=np.uint16)
        self.mul[_pair(a, b)], self.conj[_pair(a, b)] = G.table, conj
        self.C = np.zeros(64 * 64, dtype=np.uint64)
        np.bitwise_or.at(self.C, _pair(b, conj), np.uint64(1) << a.astype(np.uint64))


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a << 6) | b  # a is uint16, so the shift cannot wrap


def _at(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """table[a, b] for a flat 64 x 64 table."""
    return np.take(table, _pair(a, b))


@dataclass(frozen=True)
class _Program:
    """The tests on one target slot that run at one level, as gathers.
    Step (op, i, j) appends inv[reg i], or mul / conj at (reg i, reg j),
    to the registers (nine slots, then `_ONE`); test (v, d, upto) ANDs
    C[reg v, reg d] into the target's candidates once steps[:upto] have
    run.  `reads` are the slot registers the program reads."""

    target: int  # the index of the target slot's level in the plan
    labels: tuple[str, ...]
    steps: tuple[tuple[str, int, int], ...]
    tests: tuple[tuple[int, int, int], ...]
    reads: tuple[int, ...]


@dataclass(frozen=True)
class _Level:
    """The level that assigns `slot`, and the programs that run on the
    columns reaching it, for this slot and later ones, cheapest first."""

    slot: int
    programs: tuple[_Program, ...]


@lru_cache(maxsize=None)
def _search_plan(relators: tuple[tuple[str, Word], ...]) -> tuple[_Level, ...]:
    """One level per slot of `_LEVEL_SLOTS`, derived from the relator list.

    A relator closes at its last-assigned slot x (r11 and z come first),
    where it must read U x^e V x^-e W with e = +-1 and no other x; it then
    holds iff x^e V x^-e = (WU)^-1, a test on x.  Raises ValueError
    otherwise.  The test runs at the first level whose columns have every
    slot of V and D assigned, which may come before x's own level: there
    it ANDs into x's pending mask (forward checking).
    """
    order = (_R11, _Z) + _LEVEL_SLOTS
    cases: list[dict[int, list]] = [{} for _ in _LEVEL_SLOTS]
    for label, rel in relators:
        lets = rel.letters
        x = max({abs(l) - 1 for l in lets}, key=order.index)
        at = [i for i, l in enumerate(lets) if abs(l) == x + 1]
        if x not in _LEVEL_SLOTS or len(at) != 2 or lets[at[0]] != -lets[at[1]]:
            raise ValueError(f"relator {label} is not U x^e V x^-e W at its last slot")
        p, q = at
        v, d = Word(lets[p + 1:q]), Word(lets[q + 1:] + lets[:p]).inverse()
        if sum(l < 0 for l in v.letters + d.letters) > (len(v) + len(d)) / 2:
            v, d = v.inverse(), d.inverse()  # the same x, with fewer inverse gathers
        if lets[p] < 0:
            v, d = d, v  # x^-1 V x = D is x D x^-1 = V
        # level i's columns have r11, z and the slots of levels below i
        known = max([0] + [order.index(abs(l) - 1) - 1 for l in v.letters + d.letters])
        target = order.index(x) - 2
        cases[known].setdefault(target, []).append((len(v) + len(d), label, v, d))
    levels = []
    for slot, here in zip(_LEVEL_SLOTS, cases):
        programs = [_compile_level(target, here[target]) for target in sorted(here)]
        programs.sort(key=lambda program: len(program.steps))  # so a dead level stops early
        levels.append(_Level(slot, tuple(programs)))
    return tuple(levels)


def _compile_level(target: int, cases: list) -> _Program:
    """The program for the tests (cost, label, V, D) on the slot x of
    level `target`: x V x^-1 = D."""
    cases.sort(key=lambda c: c[0])  # cheapest first, so a dead level stops early
    steps: dict[tuple[str, int, int], int] = {}  # each step and its register, in order

    def emit(op: str, i: int, j: int = _ONE) -> int:
        # hash-consed, so a shared prefix or letter is computed once
        return steps.setdefault((op, i, j), _ONE + 1 + len(steps))

    def letter(l: int) -> int:
        return l - 1 if l > 0 else emit("inv", -l - 1)

    def word(lets: tuple[int, ...]) -> int:
        acc, i = _ONE, 0
        while i < len(lets):
            if i + 2 < len(lets) and lets[i + 2] == -lets[i]:
                factor = emit("conj", letter(lets[i]), letter(lets[i + 1]))
                i += 3
            else:
                factor = letter(lets[i])
                i += 1
            acc = factor if acc == _ONE else emit("mul", acc, factor)
        return acc

    tests = [(word(v.letters), word(d.letters), len(steps)) for _, _, v, d in cases]
    operands = [r for op, i, j in steps for r in ((i,) if op == "inv" else (i, j))]
    reads = sorted({r for r in operands + [r for v, d, _ in tests for r in (v, d)] if r <= _ONE})
    return _Program(target, tuple(c[1] for c in cases), tuple(steps), tuple(tests), tuple(reads))


def _candidate_masks(tab: _Tables, level: _Level, f: np.ndarray, pending: dict) -> bool:
    """Run the programs of `level` on the columns of f, each ANDing its
    tests into `pending[program.target]` (every element if absent).
    False as soon as some target's mask is empty in every column."""
    n = f.shape[1]
    slots: list = [None] * (_ONE + 1)
    for program in level.programs:
        for s in program.reads:  # only the slots a program reads become uint16
            if slots[s] is None:
                slots[s] = np.zeros(n, dtype=np.uint16) if s == _ONE else f[s].astype(np.uint16)
        regs = slots.copy()
        if program.target not in pending:
            pending[program.target] = np.full(n, tab.C[0])  # every x fixes the identity
        masks = pending[program.target]
        done = 0
        for v, d, upto in program.tests:
            for op, i, j in program.steps[done:upto]:
                regs.append(tab.inv[regs[i]] if op == "inv" else _at(getattr(tab, op), regs[i], regs[j]))
            done = upto
            masks &= _at(tab.C, regs[v], regs[d])
            if not masks.any():
                return False  # the rest of the steps would be wasted on dead columns
    return True


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 (SWAR; np.bitwise_count needs numpy 2)."""
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.intp)


def _expand(f: np.ndarray, masks: np.ndarray, counts: np.ndarray, slot: int) -> np.ndarray:
    """One child per set bit, ascending within each parent, parents in order."""
    octets = masks.astype("<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(octets, axis=1, bitorder="little").view(bool)
    child = np.repeat(f, counts, axis=1)
    child[slot] = np.flatnonzero(bits) & 63
    return child


class _OrbitTables:
    """Minimal-image tables for a (k, |G|) permutation table `inn` with
    k <= 64 and the identity as row 0, so a set of rows is a uint64 mask
    with bit 0 for the identity.  `least(stab)` is the mask of the x with
    h(x) >= x for every h in `stab`, one gather per byte of the mask;
    `fixers[x]` is the mask of the h with h(x) = x."""

    def __init__(self, inn: np.ndarray):
        if len(inn) > 64:
            raise ValueError(f"stabilizer masks hold 64 automorphisms, got {len(inn)}")
        k, n = inn.shape
        x = np.arange(n)
        one = np.uint64(1)
        bit = one << np.arange(k, dtype=np.uint64)[:, None]
        self.fixers = np.bitwise_or.reduce(np.where(inn == x, bit, 0), axis=0)
        rises = np.full(-(-k // 8) * 8, ~np.uint64(0))  # padded to whole bytes
        rises[:k] = np.bitwise_or.reduce(np.where(inn >= x, one << x.astype(np.uint64), 0), axis=1)
        byte = np.arange(256)[:, None] >> np.arange(8) & 1
        self.bytes = [
            np.bitwise_and.reduce(np.where(byte, r, ~np.uint64(0)), axis=1)
            for r in rises.reshape(-1, 8)
        ]

    def least(self, stab: np.ndarray) -> np.ndarray:
        out = self.bytes[0][stab & np.uint64(255)]
        for k, table in enumerate(self.bytes[1:], 1):
            out &= table[(stab >> np.uint64(8 * k)) & np.uint64(255)]
        return out


def _descend(
    tab: _Tables,
    plan: tuple[_Level, ...],
    f: np.ndarray,
    level: int,
    pending: dict[int, np.ndarray],
    orbits: _OrbitTables | None = None,
    stab: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """The completions of the columns of f.  `pending` maps this level
    and later ones to each column's mask of the level's slot values that
    pass the tests run so far (every value if absent).  The level runs
    its programs, drops each column with an empty mask, expands its own
    slot's mask, and hands the other masks down.  This drops or reorders
    no row: a test reads only slots that a column shares with all its
    descendants, so it gives each of them the mask it would give at the
    target's own level, where the masks are ANDed anyway; and a column
    with an empty mask has no completion.

    With `orbits`, `stab` holds each column's stabilizer, and a slot value
    x is kept only if no h in it has h(x) < x; a chunk whose stabilizers
    are all the identity descends without them, since every completion of
    it is least."""
    if level == len(plan):
        yield f
        return
    if stab is not None:
        least = orbits.least(stab)
        if level in pending:
            least &= pending[level]
        pending[level] = least
    if not _candidate_masks(tab, plan[level], f, pending):
        return
    masks = pending.pop(level, None)
    if masks is None:
        masks = np.full(f.shape[1], tab.C[0])
    live = masks != 0
    for program in plan[level].programs:
        if program.target != level:
            live &= pending[program.target] != 0
    if not live.all():
        f, masks = f[:, live], masks[live]
        pending = {t: m[live] for t, m in pending.items()}
        if stab is not None:
            stab = stab[live]
    counts = _popcount(masks)
    ends = np.cumsum(counts)
    slot = plan[level].slot
    start = 0
    while start < len(masks):
        done = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, done + _ROW_BUDGET, side="right")), start + 1)
        child = _expand(f[:, start:stop], masks[start:stop], counts[start:stop], slot)
        later = {t: np.repeat(m[start:stop], counts[start:stop]) for t, m in pending.items()}
        child_stab = None
        if stab is not None:
            child_stab = np.repeat(stab[start:stop], counts[start:stop])
            child_stab &= orbits.fixers[child[slot]]
            if (child_stab == 1).all():
                child_stab = None
        yield from _descend(tab, plan, child, level + 1, later, orbits, child_stab)
        start = stop


def _genus2_blocks(
    G: FiniteGroup,
    cells: Iterable[tuple[int, int]],
    relators: tuple[tuple[str, Word], ...],
    inn: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """The search output as consecutive (9, k) uint8 blocks, a row per column."""
    tab = _Tables(G)
    cells = np.array(list(cells) or np.empty((0, 2), dtype=np.uint8)).reshape(-1, 2)
    check_elements(G, cells)
    cells = cells.astype(np.uint8)
    orbits = stab = None
    if inn is not None:
        check_rows(inn, G.order, "inn")
        check_elements(G, inn)
        # _descend reads bit 0 of a stabilizer mask as the identity
        if not len(inn) or (inn[0] != np.arange(G.order)).any():
            raise ValueError("inn must hold the identity as row 0")
        # the same rule as in _descend, on z and then r11
        orbits = _OrbitTables(inn)
        stab = np.full(len(cells), np.uint64((1 << len(inn)) - 1))
        keep = np.ones(len(cells), dtype=bool)
        for x in cells.T:
            keep &= (orbits.least(stab) >> x.astype(np.uint64)) & np.uint64(1) != 0
            stab &= orbits.fixers[x]
        cells, stab = cells[keep], stab[keep]
    f = np.zeros((9, len(cells)), dtype=np.uint8)
    f[_Z], f[_R11] = cells[:, 0], cells[:, 1]
    yield from _descend(tab, _search_plan(relators), f, 0, {}, orbits, stab)


def genus2_rows(
    G: FiniteGroup,
    cells: Iterable[tuple[int, int]],
    inn: np.ndarray | None = None,
) -> np.ndarray:
    """The (k, 9) uint8 rows with (z, r11) in `cells` that satisfy (R1)-(R10),
    (T1)-(T10), (S1) and (S2); ordered by cell as given, then by t21, r12,
    t22, t11, r21, t12, r22.  A cell entry that is not an element index of
    G raises ValueError.

    With `inn`, a (k, |G|) permutation table of automorphisms of G with
    the identity as row 0 and k at most 64, the width of the stabilizer
    masks (else ValueError), only the rows that are least in the slot order
    z, r11, t21, r12, t22, t11, r21, t12, r22 among their images under
    every row of `inn` are kept (McKay's minimal images): the search
    drops a prefix as soon as an automorphism that fixes the prefix so
    far maps the next slot to a smaller element."""
    # One growing buffer, returned as a view without a final copy: keeping
    # the many small blocks for a concatenate, or copying the result, left
    # a fuller heap and a higher peak RSS in the enumeration that follows.
    out = np.empty((_ROW_BUDGET, 9), dtype=np.uint8)
    k = 0
    for block in _genus2_blocks(G, cells, labeled_relations_for_type(_PRE_TYPE), inn):
        m = block.shape[1]
        if k + m > len(out):
            grown = np.empty((2 * (k + m), 9), dtype=np.uint8)
            grown[:k] = out[:k]
            out = grown
        out[k:k + m] = block.T
        k += m
    return out[:k]


def inner_automorphism_table(G: FiniteGroup) -> np.ndarray:
    """Inn(G) as a read-only (|Inn|, |G|) uint8 table: the distinct rows of
    `G.conjugates`, x -> g x g^-1, sorted (so the identity is first).  Raises
    ValueError above the search cap, and AssertionError unless |Inn| = |G| / |Z(G)|."""
    if G.order > SEARCH_ORDER_CAP:
        raise ValueError(f"search cap is order {SEARCH_ORDER_CAP}")
    conj = G.conjugates(G.elements()).astype(np.uint8)
    # a lexsort, not np.unique(axis=0), which imports numpy.ma on first use
    conj = conj[np.lexsort(conj.T[::-1])]
    inn = conj[np.concatenate(([True], (conj[1:] != conj[:-1]).any(axis=1)))]
    if len(inn) != G.order // len(G.center()):
        raise AssertionError("|Inn| is not |G| / |Z(G)|")
    return read_only(inn)  # as every table the system hands out


def structure_rows(
    G: FiniteGroup, t: StructureType, jobs: int | None = None
) -> np.ndarray:
    """All type-(2,n) structures as a (count, 9) array, lexicographically
    sorted; every row is re-verified against the full relation system.

    The search keeps one row per Inn(G)-orbit, the least in slot order
    (`genus2_rows` with `inn`), and each orbit is rebuilt as the keys of
    its images under every inner automorphism (`_image_keys`).  That
    gives every structure exactly once by a lemma: Inn(G) acts on
    structures, since automorphisms preserve the relators, the order of z
    and generation; and it acts freely, since a homomorphism that fixes a
    generating tuple is the identity and every certified row generates
    G.  So each orbit has |Inn| distinct rows, of
    which the search finds the least.  The premises are checked: the
    expanded rows, once sorted, must be pairwise distinct (else
    AssertionError), and `certify_structure_rows` checks every one.

    Raises for b != 2 (enumeration is genus-2 only) and for groups above
    the search cap.  `jobs` has no effect, since the search is one
    vectorized pass; it stays because the benchmark's workloads pass it.
    """
    if t.b != 2:
        raise ValueError("enumeration supports b = 2 only")
    inn = inner_automorphism_table(G)
    zs = [x for x in G.elements() if G.element_order[x] == t.n]
    reps = genus2_rows(G, [(z, r11) for z in zs for r11 in range(G.order)], inn)
    return certify_structure_rows(
        G, _image_keys(G, reps, inn), t,
        "backtracking emitted {} invalid tuples",
        "two representatives lie in one Inn(G)-orbit",
    )


def _image_keys(G: FiniteGroup, rows: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """The keys of h(row) for each row of the (|perms|, |G|) permutation
    table `perms` (in its order) and each of the (N, 9) `rows`, as
    `pack_rows` packs them, block h holding N keys.  The rows are packed
    once; a key's 12-bit fields, a pair of slots each, and its z field
    then map through five tables of h, h(a) << (s + 6) | h(b) << s for
    the field at bit s, so each image key is five gathers and four ORs."""
    packed = pack_rows(G, rows)
    k = len(packed)
    keys = np.empty(len(perms) * k, dtype=np.uint64)
    shifts = ROW_KEY_SHIFTS[1::2]  # the low bit of each pair's field
    fields = np.empty((len(shifts) + 1, min(_CHUNK, k)), dtype=np.intp)
    image = np.zeros(64, dtype=np.uint64)
    tables = []
    for h in perms:
        image[:G.order] = h
        pair = (image[:, None] << np.uint64(6) | image[None, :]).reshape(-1)
        tables.append([pair << s for s in shifts] + [image.copy()])
    part = np.empty(fields.shape[1], dtype=np.uint64)
    for start in range(0, k, _CHUNK):
        stop = min(start + _CHUNK, k)
        f, p = fields[:, :stop - start], part[:stop - start]
        for field, s in zip(f, shifts):
            np.right_shift(packed[start:stop], s, out=p)
            np.bitwise_and(p, 4095, out=field, casting="unsafe")
        np.bitwise_and(packed[start:stop], 63, out=f[-1], casting="unsafe")
        for i, table in enumerate(tables):
            out = keys[i * k + start:i * k + stop]
            # mode="clip" skips the bounds check; every field indexes its table
            np.take(table[0], f[0], out=out, mode="clip")
            for t, field in zip(table[1:], f[1:]):
                np.take(t, field, out=p, mode="clip")
                out |= p
    return keys


# Rows reach `certify_structure_rows` as uint64 keys, 6 bits per slot with
# r11 most significant: every entry is below 64, so key order is the rows'
# lexicographic order.
ROW_KEY_SHIFTS = np.arange(48, -1, -6, dtype=np.uint64)


def pack_rows(G: FiniteGroup, rows: np.ndarray) -> np.ndarray:
    """The (N, 9) rows of elements of G as N uint64 keys (`ROW_KEY_SHIFTS`);
    ValueError for rows that are not 2-D with 9 columns, above order 64,
    whose elements do not fit in 6 bits, and for entries that are not
    element indices of G."""
    check_rows(rows, 9)
    if G.order > 64:
        raise ValueError(f"row keys pack elements below 64, got order {G.order}")
    check_elements(G, rows)
    keys = np.empty(len(rows), dtype=np.uint64)
    field = np.empty(min(_CHUNK, len(rows)), dtype=np.uint64)
    for start in range(0, len(rows), _CHUNK):
        part, out = rows[start:start + _CHUNK], keys[start:start + _CHUNK]
        f = field[:len(part)]
        out[:] = 0
        for c, shift in enumerate(ROW_KEY_SHIFTS):
            f[:] = part[:, c]
            f <<= shift
            out |= f
    return keys


def unpack_keys(keys: np.ndarray) -> np.ndarray:
    """The (N, 9) uint8 rows that `pack_rows` packed into `keys`, 54 bits
    each, unpacked into a bytearray and read through a read-only memoryview:
    no array over those bytes can be made writeable, and none is copied.
    ValueError unless `keys` is a 1-D uint64 array of 54-bit keys."""
    check_keys(keys)
    if keys.max(initial=0) >> 54:
        raise ValueError(f"row keys hold 54 bits, got the key {keys.max()}")
    buf = bytearray(9 * len(keys))
    rows = np.frombuffer(buf, np.uint8).reshape(-1, 9)
    field = np.empty(min(_CHUNK, len(keys)), dtype=np.uint64)
    for start in range(0, len(keys), _CHUNK):
        part, out = keys[start:start + _CHUNK], rows[start:start + _CHUNK]
        f = field[:len(part)]
        for c, shift in enumerate(ROW_KEY_SHIFTS):
            np.right_shift(part, shift, out=f)
            out[:, c] = f  # keeps the low 8 bits; masked below
    rows &= 63
    return np.frombuffer(memoryview(buf).toreadonly(), np.uint8).reshape(-1, 9)


_CERTIFIED: dict[int, tuple[weakref.ref, FiniteGroup, StructureType]] = {}


def certify_structure_rows(
    G: FiniteGroup, keys: np.ndarray, t: StructureType, failure: str, duplicate: str
) -> np.ndarray:
    """The rows packed in `keys` (sorted in place), lexicographically
    sorted, after checking that they are pairwise distinct (else
    AssertionError with `duplicate`) and that every row satisfies the full
    relator list, o(z) = t.n and generation (else AssertionError with
    `failure` formatted with the number of bad rows).  The returned array
    is read-only at its source (`unpack_keys`), so neither its writeable
    flag nor that of the array it views can be set (ValueError), and it is
    certified as every type-t structure on G (`certified_type`): the
    caller vouches that `keys` enumerate them.

    One certification serves every route on one group.  If a live array A
    is certified for this very G (`g is G`) and type t and the keys unpack
    to A row for row (compared a `_CHUNK` at a time), the rows returned
    are a view of A and are not checked again.  This checks them all:
    every row of A passed the relators, o(z) = t.n and generation on G,
    and the keys, sorted and distinct, unpack to exactly A's rows.  The
    routes' searches stay independent; only the second route's
    certification is replaced, by an exact comparison.  Its premise, that
    A cannot change once certified, holds by `unpack_keys`.  Keys that are
    not a 1-D uint64 array raise ValueError.
    """
    check_keys(keys)
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        raise AssertionError(duplicate)
    for ref, g, u in list(_CERTIFIED.values()):
        certified = ref()
        if certified is None or not (g is G and u == t and len(certified) == len(keys)):
            continue
        if all(
            np.array_equal(certified[start:start + _CHUNK], unpack_keys(keys[start:start + _CHUNK]))
            for start in range(0, len(keys), _CHUNK)
        ):
            rows = certified[:]
            break
    else:
        rows = unpack_keys(keys)
        ok = bulk_relator_filter(G, rows, relations_for_type(t))  # range-checks every entry
        ok &= G.orders[rows[:, 8]] == t.n
        ok &= generation_mask_filter(G, rows)
        if not ok.all():
            raise AssertionError(failure.format(int((~ok).sum())))
    _CERTIFIED[id(rows)] = (weakref.ref(rows), G, t)
    weakref.finalize(rows, _CERTIFIED.pop, id(rows))
    return rows


def certified_type(G: FiniteGroup, rows: np.ndarray) -> StructureType | None:
    """t if `rows` is the very array `certify_structure_rows` returned for
    the type-t structures on G, else None (for a slice, copy or roll too).
    Two routes' arrays may share one base; each carries its own record."""
    entry = _CERTIFIED.get(id(rows))
    return entry[2] if entry and entry[0]() is rows and entry[1] is G else None


# -- prestructure search ----------------------------------------------

def _search_setup(
    G: FiniteGroup, mode: str
) -> tuple[str, tuple[int, ...], tuple[int, ...] | None]:
    """The mode searched, the z (of order >= 2) to search, and the sorted
    orders of the quotients checked (None if none was).

    "full" searches every z; "auto" does so up to order 24 and takes the
    shortcut above it.  The shortcut rests on one lemma: a prestructure on
    G maps to one on G/N unless z is in N.  So if no proper non-trivial
    quotient has a prestructure, z lies in every non-trivial normal
    subgroup, in `G.socle()` (no candidates unless G has one minimal
    normal subgroup), and the mode is "socle".  The quotients are checked
    by the size of N; the scan stops at the first one that has a
    prestructure, and G is then searched in full.

    A quotient is searched in full unless it is abelian, which has no
    prestructure by a second lemma: R4 reads r11 t21 r11^-1 t21^-1 z, so
    z is the commutator [t21, r11], which is 1 in an abelian group, while
    a prestructure needs o(z) >= 2.  G/N is abelian iff N contains the
    derived subgroup G', so those N are counted and not searched.  The
    premise, R4 in `prestructure_relations()` as that very word, is
    checked (else AssertionError).  A group above the search cap raises
    ValueError before any of this.
    """
    if G.order > SEARCH_ORDER_CAP:
        raise ValueError(f"search cap is order {SEARCH_ORDER_CAP}")
    if mode not in ("auto", "full"):
        raise ValueError(f"unknown search mode {mode!r}")
    searched, pool, orders = "full", G.elements(), None
    if mode == "auto" and G.order > 24:
        if dict(prestructure_relations()).get("R4") != _R4:
            raise AssertionError("the abelian-quotient lemma needs R4 = r11 t21 r11^-1 t21^-1 z")
        derived = set(G.derived_subgroup())
        orders = []
        for nsub in G.normal_subgroups()[1:-1]:  # by size, so these are the proper non-trivial ones
            orders.append(G.order // len(nsub))
            if derived <= set(nsub):
                continue  # G/N is abelian
            q, _ = G.quotient(nsub)
            if any(block.shape[1] for block in _prestructure_blocks(q, _search_setup(q, "full")[1])):
                break
        else:
            searched, pool = "socle", G.socle()
        orders = tuple(sorted(orders))
    return searched, tuple(x for x in pool if G.element_order[x] >= 2), orders


def iter_prestructure_tuples(
    G: FiniteGroup,
    mode: str = "auto",
    relators: tuple[tuple[str, Word], ...] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Deterministic complete stream of prestructure tuples.

    Every yielded tuple has been re-verified (a search block at a time)
    against the authoritative relation list.  `relators`, (label, word)
    pairs, replace that list in "full" mode (ValueError in another mode,
    whose socle shortcut rests on the whole list).
    """
    if relators is not None and mode != "full":
        raise ValueError("a relator list needs mode 'full'")
    for block in _prestructure_blocks(G, _search_setup(G, mode)[1], relators):
        yield from map(tuple, block.T.tolist())


def _prestructure_blocks(
    G: FiniteGroup,
    zs: tuple[int, ...],
    relators: tuple[tuple[str, Word], ...] | None = None,
    inn: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """The stream with z in `zs` as (9, k) blocks, each re-verified before
    it is yielded; with `inn`, only the rows least in their orbit under
    it, as `genus2_rows` keeps them."""
    rels = prestructure_relations() if relators is None else relators
    words = [w for _, w in rels]
    cells = ((z, r11) for z in zs for r11 in range(G.order))
    for block in _genus2_blocks(G, cells, rels, inn):
        if not bulk_relator_filter(G, block.T, words).all():
            raise AssertionError("prestructure search emitted an invalid tuple")
        yield block


def reference_prestructures(
    G: FiniteGroup, relators: tuple[tuple[str, Word], ...] | None = None
) -> list[tuple[int, ...]]:
    """The sorted prestructures of a small group by `relator_join` over the
    columns z (of order >= 2), r11, t11, r21, t21, r22, t22, r12, t12: a
    search sharing no plan, table or mask with `_genus2_blocks`, to check
    it.  `relators`, (label, word) pairs, replace the prestructure
    relations.  Raises ValueError above `REFERENCE_FRONTIER_CAP` rows at a
    level."""
    order = (_Z, _R11, _T11, _R21, _T21, _R22, _T22, _R12, _T12)
    column = {e * (slot + 1): e * (i + 1) for i, slot in enumerate(order) for e in (1, -1)}
    if relators is None:
        relators = prestructure_relations()
    relators = [Word(tuple(map(column.get, rel))) for _, rel in relators]
    zs = np.flatnonzero(G.orders >= 2)
    rows = relator_join(G, [zs] + [np.arange(G.order)] * 8, relators, REFERENCE_FRONTIER_CAP)
    return sorted(map(tuple, rows[:, np.argsort(order)].tolist()))


@dataclass(frozen=True)
class PrestructureReport:
    count: int
    mode: str
    socle_z_candidates: int | None
    quotient_orders_checked: tuple[int, ...] | None
    sample: tuple[tuple[int, ...], ...]


# Prestructures a report keeps as its sample, all that the CLI prints.
_REPORT_SAMPLE = 10


def prestructure_report(G: FiniteGroup, mode: str = "auto") -> PrestructureReport:
    """The count of prestructures with z in the pool of `_search_setup`,
    and the first `_REPORT_SAMPLE` of the stream.

    Emptiness is decided on one row per Inn(G)-orbit, the least in slot
    order, as `structure_rows` searches (`genus2_rows` with `inn`), and
    count == 0 is certified by a lemma: an automorphism keeps the relator
    words and element orders, and Inn(G) keeps the z pool (checked: else
    AssertionError), so the prestructures form a union of Inn(G)-orbits;
    each non-empty orbit has a least row, which the search keeps.  If some
    orbit is non-empty, the count and sample come from the full stream.
    Every block either search yields is re-verified."""
    searched, zs, orders = _search_setup(G, mode)
    inn = inner_automorphism_table(G)
    if not np.isin(inn[:, list(zs)], zs).all():
        raise AssertionError("the z pool is not closed under Inn(G)")
    count = 0
    sample: list[tuple[int, ...]] = []
    if any(block.shape[1] for block in _prestructure_blocks(G, zs, inn=inn)):
        for block in _prestructure_blocks(G, zs):
            count += block.shape[1]
            sample += map(tuple, block[:, :_REPORT_SAMPLE - len(sample)].T.tolist())
    return PrestructureReport(
        count=count,
        mode=searched,
        socle_z_candidates=len(zs) if searched == "socle" else None,
        quotient_orders_checked=orders,
        sample=tuple(sample),
    )


# -- serialization ----------------------------------------------------

def structure_to_dict(s: DDKStructure, label: str | None = None) -> dict:
    out = {
        "group": label,
        "b": s.stype.b,
        "n": s.stype.n,
        "elements": [int(x) for x in s.elements],
    }
    words = s.words()
    if words is not None:
        out["words"] = words
    return out


def structure_from_dict(G: FiniteGroup, data: dict) -> DDKStructure:
    """The structure `structure_to_dict` wrote, as Python ints; ValueError
    "malformed structure data: ..." for bad fields, "not a structure: ..." for a non-structure."""
    try:
        t = StructureType(data["b"], data["n"])
        elements = data["elements"]
        check_elements(G, elements)
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed structure data: {e}") from e
    return DDKStructure(G, StructureType(int(t.b), int(t.n)), tuple(map(int, elements)))
