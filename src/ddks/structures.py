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

`structure_rows` searches one row per Inn(G)-orbit, the least in slot
order (McKay's minimal images): a column carries the uint64 mask of the
inner automorphisms that fix its prefix, and a slot value x survives only
if none of them sends x below x.  Each orbit is then rebuilt by one
gather per inner automorphism.  This counts every structure once because
Inn(G) acts by automorphisms, which keep a row a structure, and every
certified row generates G, so only the identity fixes it: the action is
free and each orbit has |Inn| distinct rows.

Both enumeration routes, this one and `symplectic`, end in
`certify_structure_rows`.  A route hands it one uint64 key per row, 6 bits
a slot with r11 most significant, so one sort of the keys puts the rows in
lexicographic order; sorted neighbours must differ.  The rows unpacked
from the keys are the array that is checked and returned: every row
against `bulk_relator_filter` (from `certify`), which shares no code,
table or cache with the plan (it compiles the relator words themselves
into one program of gathers and equality tests, which holds iff each word
evaluates to the identity), then o(z) and generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .group_core import (
    ElementSet,
    FiniteGroup,
    Presentation,
    Word,
    commutator,
)
from .certify import bulk_relator_filter, relator_join

SEARCH_ORDER_CAP = 64
# Rows a level of `reference_prestructures` may hold (order 16: 15 * 16^4).
REFERENCE_FRONTIER_CAP = 1 << 20


@dataclass(frozen=True)
class StructureType:
    """Type (b, n): base/fibre genus parameter b and branching order n."""

    b: int
    n: int

    def __post_init__(self):
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


@lru_cache(maxsize=None)
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


def prestructure_relations() -> tuple[tuple[str, Word], ...]:
    return tuple(
        (label, w)
        for label, w in labeled_relations_for_type(_PRE_TYPE)
        if not label.startswith("S")
    )


# -- structure containers ---------------------------------------------

@dataclass(frozen=True)
class DDKStructure:
    ambient: FiniteGroup
    stype: StructureType
    elements: tuple[int, ...]

    def __post_init__(self):
        if len(self.elements) != self.stype.tuple_length:
            raise ValueError(
                f"type ({self.stype.b},{self.stype.n}) needs "
                f"{self.stype.tuple_length} elements, got {len(self.elements)}"
            )

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
    """Check o(z) = n, all relators, and generation; diagnostic on failure."""
    elements = tuple(elements)
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
    s = DDKStructure(G, StructureType(2, 2), elems)
    ok, diag = verify_structure(G, elems, s.stype)
    if not ok:
        raise AssertionError(f"example structure invalid: {diag}")
    return s


# -- subgroup lattice helpers (for bulk generation tests) -------------

def all_subgroup_masks(G: FiniteGroup) -> list[int]:
    """Sorted bitmasks of every subgroup: the joins of the cyclic subgroups."""
    if G.order > 64:
        raise ValueError(f"mask representation requires order <= 64, got {G.order}")
    cached = getattr(G, "_subgroup_masks", None)
    if cached is not None:
        return cached
    found = G.join_closure(G.subgroup_generated((g,)) for g in G.elements())
    G._subgroup_masks = sorted(sum(1 << m for m in h) for h in found)
    return G._subgroup_masks


def maximal_subgroup_masks(G: FiniteGroup) -> list[int]:
    cached = getattr(G, "_maximal_masks", None)
    if cached is not None:
        return cached
    full = (1 << G.order) - 1
    proper = [m for m in all_subgroup_masks(G) if m != full]
    maximal = [
        m for m in proper
        if not any(m != o and m & ~o == 0 for o in proper)
    ]
    G._maximal_masks = maximal
    return maximal


# Rows the generation filter, `pack_rows` and `unpack_keys` handle at a
# time, so that each uint64 temporary (128 KB) stays in cache.
_CHUNK = 1 << 14


def generation_mask_filter(G: FiniteGroup, rows: np.ndarray) -> np.ndarray:
    """Boolean mask: which rows (tuples of element indices) generate G.

    A tuple generates G iff it is not contained in any maximal subgroup.
    Each element gets a uint64 whose bit j says it lies outside maximal
    subgroup j, so a row generates G iff the OR over its entries has every
    bit set.  Raises ValueError above 64 maximal subgroups; above order 64
    `all_subgroup_masks` raises ValueError.
    """
    maximal = maximal_subgroup_masks(G)
    if len(maximal) > 64:
        raise ValueError(f"generation masks hold 64 maximal subgroups, got {len(maximal)}")
    if rows.size and (rows.min() < 0 or rows.max() >= G.order):
        raise ValueError("element index out of range for the group")
    outside = np.array(
        [sum(1 << j for j, m in enumerate(maximal) if not m >> x & 1) for x in G.elements()],
        dtype=np.uint64,
    )
    full = np.uint64((1 << len(maximal)) - 1)
    ok = np.empty(len(rows), dtype=bool)
    acc = np.empty(min(_CHUNK, len(rows)), dtype=np.uint64)
    part = np.empty_like(acc)
    for start in range(0, len(rows), _CHUNK):
        cols = rows[start:start + _CHUNK].T
        a, p = acc[:cols.shape[1]], part[:cols.shape[1]]
        a[:] = 0
        for col in cols:
            # mode="clip" skips the bounds check, which would also buffer `p`;
            # every entry was checked above
            np.take(outside, col, out=p, mode="clip")
            a |= p
        ok[start:start + len(a)] = a == full
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
        cayley = np.array(G.cayley, dtype=np.uint16)
        self.inv = inv = np.array(G.inverse, dtype=np.uint16)
        a = np.arange(n, dtype=np.uint16)[:, None]
        b = np.arange(n, dtype=np.uint16)[None, :]
        conj = cayley[cayley[a, b], inv[a]]
        self.mul, self.conj = np.zeros((2, 64 * 64), dtype=np.uint16)
        self.mul[_pair(a, b)], self.conj[_pair(a, b)] = cayley, conj
        self.C = np.zeros(64 * 64, dtype=np.uint64)
        a, b = np.broadcast_arrays(a, b)
        np.bitwise_or.at(self.C, _pair(b, conj), np.uint64(1) << a.astype(np.uint64))

    @staticmethod
    def for_group(G: FiniteGroup) -> "_Tables":
        if getattr(G, "_search_tables", None) is None:
            G._search_tables = _Tables(G)
        return G._search_tables


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a << 6) | b  # a is uint16, so the shift cannot wrap


def _at(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """table[a, b] for a flat 64 x 64 table."""
    return np.take(table, _pair(a, b))


@dataclass(frozen=True)
class _Level:
    """The relators that close at `slot`, as a program of gathers.  Step
    (op, i, j) appends inv[reg i], or mul / conj at (reg i, reg j), to the
    registers (nine slots, then `_ONE`); test (v, d, upto) ANDs C[reg v,
    reg d] into the candidates once steps[:upto] have run."""

    slot: int
    labels: tuple[str, ...]
    steps: tuple[tuple[str, int, int], ...]
    tests: tuple[tuple[int, int, int], ...]


@lru_cache(maxsize=None)
def _search_plan(relators: tuple[tuple[str, Word], ...]) -> tuple[_Level, ...]:
    """One level per slot of `_LEVEL_SLOTS`, derived from the relator list.

    A relator closes at its last-assigned slot x (r11 and z come first),
    where it must read U x^e V x^-e W with e = +-1 and no other x; it then
    holds iff x^e V x^-e = (WU)^-1.  Raises ValueError otherwise.
    """
    closing: dict[int, list] = {slot: [] for slot in _LEVEL_SLOTS}
    for label, rel in relators:
        lets = rel.letters
        x = max({abs(l) - 1 for l in lets}, key=((_R11, _Z) + _LEVEL_SLOTS).index)
        at = [i for i, l in enumerate(lets) if abs(l) == x + 1]
        if x not in closing or len(at) != 2 or lets[at[0]] != -lets[at[1]]:
            raise ValueError(f"relator {label} is not U x^e V x^-e W at its last slot")
        p, q = at
        v, d = Word(lets[p + 1:q]), Word(lets[q + 1:] + lets[:p]).inverse()
        if sum(l < 0 for l in v.letters + d.letters) > (len(v) + len(d)) / 2:
            v, d = v.inverse(), d.inverse()  # the same x, with fewer inverse gathers
        if lets[p] < 0:
            v, d = d, v  # x^-1 V x = D is x D x^-1 = V
        closing[x].append((len(v) + len(d), label, v, d))
    return tuple(_compile_level(slot, closing[slot]) for slot in _LEVEL_SLOTS)


def _compile_level(slot: int, cases: list) -> _Level:
    """The level for the tests (cost, label, V, D): x V x^-1 = D."""
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
    return _Level(slot, tuple(c[1] for c in cases), tuple(steps), tuple(tests))


def _candidate_masks(
    tab: _Tables, level: _Level, f: np.ndarray, masks: np.ndarray | None
) -> np.ndarray:
    """The bitmask of admissible values of `level.slot` for each column,
    within `masks` if given."""
    regs = [*f.astype(np.uint16), np.zeros(f.shape[1], dtype=np.uint16)]
    if masks is None:
        masks = np.full(f.shape[1], tab.C[0])  # every x fixes the identity
    done = 0
    for v, d, upto in level.tests:
        if not masks.any():
            break  # the rest of the steps would be wasted on dead columns
        for op, i, j in level.steps[done:upto]:
            regs.append(tab.inv[regs[i]] if op == "inv" else _at(getattr(tab, op), regs[i], regs[j]))
        done = upto
        masks &= _at(tab.C, regs[v], regs[d])
    return masks


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
    orbits: _OrbitTables | None = None,
    stab: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """The completions of the columns of f.  With `orbits`, `stab` holds
    each column's stabilizer, and a slot value x is kept only if no h in
    it has h(x) < x; a chunk whose stabilizers are all the identity
    descends without them, since every completion of it is least."""
    if level == len(plan):
        yield f
        return
    masks = _candidate_masks(tab, plan[level], f, None if stab is None else orbits.least(stab))
    live = masks != 0
    f, masks = f[:, live], masks[live]
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
        child_stab = None
        if stab is not None:
            child_stab = np.repeat(stab[start:stop], counts[start:stop])
            child_stab &= orbits.fixers[child[slot]]
            if (child_stab == 1).all():
                child_stab = None
        yield from _descend(tab, plan, child, level + 1, orbits, child_stab)
        start = stop


def _genus2_blocks(
    G: FiniteGroup,
    cells: Iterable[tuple[int, int]],
    relators: tuple[tuple[str, Word], ...],
    inn: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """The search output as consecutive (9, k) uint8 blocks, a row per column."""
    tab = _Tables.for_group(G)
    cells = np.array(list(cells), dtype=np.uint8).reshape(-1, 2)
    orbits = stab = None
    if inn is not None:
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
    yield from _descend(tab, _search_plan(relators), f, 0, orbits, stab)


def genus2_rows(
    G: FiniteGroup,
    cells: Iterable[tuple[int, int]],
    inn: np.ndarray | None = None,
) -> np.ndarray:
    """The (k, 9) uint8 rows with (z, r11) in `cells` that satisfy (R1)-(R10),
    (T1)-(T10), (S1) and (S2); ordered by cell as given, then by t21, r12,
    t22, t11, r21, t12, r22.

    With `inn`, a permutation table of automorphisms of G with the
    identity first (at most 64, the width of the stabilizer masks, else
    ValueError), only the rows that are least in the slot order
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
    """Inn(G) as a (|Inn|, |G|) uint8 table: the distinct maps x -> g x g^-1,
    from the search's conjugate table, rows sorted (so the identity is
    first).  Raises ValueError above the search cap, and AssertionError
    unless |Inn| = |G| / |Z(G)|."""
    n = G.order
    conj = _Tables.for_group(G).conj.reshape(64, 64)[:n, :n].astype(np.uint8)
    # a lexsort, not np.unique(axis=0), which imports numpy.ma on first use
    conj = conj[np.lexsort(conj.T[::-1])]
    inn = conj[np.concatenate(([True], (conj[1:] != conj[:-1]).any(axis=1)))]
    if len(inn) != n // len(G.center()):
        raise AssertionError("|Inn| is not |G| / |Z(G)|")
    return inn


def structure_rows(
    G: FiniteGroup, t: StructureType, jobs: int | None = None
) -> np.ndarray:
    """All type-(2,n) structures as a (count, 9) array, lexicographically
    sorted; every row is re-verified against the full relation system.

    The search keeps one row per Inn(G)-orbit, the least in slot order
    (`genus2_rows` with `inn`), and each orbit is rebuilt by one gather
    per inner automorphism.  That gives every structure exactly once by a
    lemma: Inn(G) acts on structures, since automorphisms preserve the
    relators, the order of z and generation; and it acts freely, since a
    homomorphism that fixes a generating tuple is the identity and every
    certified row generates G.  So each orbit has |Inn| distinct rows, of
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
    k = len(reps)
    keys = np.empty(len(inn) * k, dtype=np.uint64)
    for i, h in enumerate(inn):
        keys[i * k:(i + 1) * k] = pack_rows(G, np.take(h, reps))
    return certify_structure_rows(
        G, keys, t,
        "backtracking emitted {} invalid tuples",
        "two representatives lie in one Inn(G)-orbit",
    )


# Rows reach `certify_structure_rows` as uint64 keys, 6 bits per slot with
# r11 most significant: every entry is below 64, so key order is the rows'
# lexicographic order.
ROW_KEY_SHIFTS = np.arange(48, -1, -6, dtype=np.uint64)


def pack_rows(G: FiniteGroup, rows: np.ndarray) -> np.ndarray:
    """The (N, 9) rows of elements of G as N uint64 keys (`ROW_KEY_SHIFTS`);
    ValueError above order 64, whose elements do not fit in 6 bits."""
    if G.order > 64:
        raise ValueError(f"row keys pack elements below 64, got order {G.order}")
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
    """The (N, 9) uint8 rows that `pack_rows` packed into `keys`."""
    rows = np.empty((len(keys), 9), dtype=np.uint8)
    field = np.empty(min(_CHUNK, len(keys)), dtype=np.uint64)
    for start in range(0, len(keys), _CHUNK):
        part, out = keys[start:start + _CHUNK], rows[start:start + _CHUNK]
        f = field[:len(part)]
        for c, shift in enumerate(ROW_KEY_SHIFTS):
            np.right_shift(part, shift, out=f)
            out[:, c] = f  # keeps the low 8 bits; masked below
    rows &= 63
    return rows


def z_order_filter(G: FiniteGroup, rows: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask: rows whose last slot, z, has order n."""
    return np.array(G.element_order, dtype=np.int32)[rows[:, -1]] == n


def certify_structure_rows(
    G: FiniteGroup, keys: np.ndarray, t: StructureType, failure: str, duplicate: str
) -> np.ndarray:
    """The rows packed in `keys` (sorted in place), lexicographically
    sorted, after checking that they are pairwise distinct (else
    AssertionError with `duplicate`) and that every row satisfies the full
    relator list, o(z) = t.n and generation (else AssertionError with
    `failure` formatted with the number of bad rows).  The returned array
    is the one checked.
    """
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        raise AssertionError(duplicate)
    rows = unpack_keys(keys)
    ok = bulk_relator_filter(G, rows, relations_for_type(t))
    ok &= z_order_filter(G, rows, t.n)
    ok &= generation_mask_filter(G, rows)
    if not ok.all():
        raise AssertionError(failure.format(int((~ok).sum())))
    return rows


# -- prestructure search ----------------------------------------------

@dataclass(frozen=True)
class QuotientEvidence:
    """Outcome of the no-prestructure check on all proper quotients."""

    quotient_orders: tuple[int, ...]
    all_empty: bool


@dataclass(frozen=True)
class PrestructureSearchInfo:
    mode: str                      # "full" or "socle"
    z_candidates: tuple[int, ...]
    evidence: QuotientEvidence | None


def _shortcut_evidence(G: FiniteGroup) -> QuotientEvidence:
    """Run the full prestructure search on every proper non-trivial quotient.

    If all are empty, any prestructure on G must have z in every non-trivial
    normal subgroup (else the image in some G/N would be a prestructure with
    z-image non-trivial), i.e. z lies in the socle.
    """
    orders = []
    all_empty = True
    for nsub in G.normal_subgroups():
        if len(nsub) in (1, G.order):
            continue
        q, _ = G.quotient(nsub)
        orders.append(q.order)
        blocks = _prestructure_blocks(q, prestructure_search_info(q, "full"))
        if any(block.shape[1] for block in blocks):
            all_empty = False
            break
    return QuotientEvidence(tuple(sorted(orders)), all_empty)


def prestructure_search_info(G: FiniteGroup, mode: str = "auto") -> PrestructureSearchInfo:
    if mode not in ("auto", "full", "socle"):
        raise ValueError(f"unknown search mode {mode!r}")
    if mode == "auto":
        mode = "full" if G.order <= 24 else "socle"
    evidence = None
    if mode == "socle":
        evidence = _shortcut_evidence(G)
        if evidence.all_empty:
            soc = G.socle()
            zs = tuple(x for x in soc if G.element_order[x] >= 2)
            return PrestructureSearchInfo("socle", zs, evidence)
        # hypothesis failed: the restriction would be unsound
    zs = tuple(x for x in G.elements() if G.element_order[x] >= 2)
    return PrestructureSearchInfo("full", zs, evidence)


def iter_prestructure_tuples(
    G: FiniteGroup, mode: str = "auto"
) -> Iterator[tuple[int, ...]]:
    """Deterministic complete stream of prestructure tuples.

    Every yielded tuple has been re-verified (a search block at a time)
    against the authoritative relation list.
    """
    if G.order > SEARCH_ORDER_CAP:
        raise ValueError(f"search cap is order {SEARCH_ORDER_CAP}")
    for block in _prestructure_blocks(G, prestructure_search_info(G, mode)):
        yield from map(tuple, block.T.tolist())


def _prestructure_blocks(
    G: FiniteGroup, info: PrestructureSearchInfo
) -> Iterator[np.ndarray]:
    """The stream as (9, k) blocks, each re-verified before it is yielded."""
    rels = prestructure_relations()
    words = [w for _, w in rels]
    cells = ((z, r11) for z in info.z_candidates for r11 in range(G.order))
    for block in _genus2_blocks(G, cells, rels):
        if not bulk_relator_filter(G, block.T, words).all():
            raise AssertionError("prestructure search emitted an invalid tuple")
        yield block


def reference_prestructures(G: FiniteGroup) -> list[tuple[int, ...]]:
    """The sorted prestructures of a small group by `relator_join` over the
    columns z (of order >= 2), r11, t11, r21, t21, r22, t22, r12, t12: a
    search sharing no plan, table or mask with `_genus2_blocks`, to check
    it.  Raises ValueError above `REFERENCE_FRONTIER_CAP` rows at a level."""
    order = (_Z, _R11, _T11, _R21, _T21, _R22, _T22, _R12, _T12)
    column = {e * (slot + 1): e * (i + 1) for i, slot in enumerate(order) for e in (1, -1)}
    relators = [Word(tuple(map(column.get, rel))) for _, rel in prestructure_relations()]
    zs = np.flatnonzero(np.array(G.element_order) >= 2)
    rows = relator_join(G, [zs] + [np.arange(G.order)] * 8, relators, REFERENCE_FRONTIER_CAP)
    return sorted(map(tuple, rows[:, np.argsort(order)].tolist()))


@dataclass(frozen=True)
class PrestructureReport:
    count: int
    mode: str
    socle_z_candidates: int | None
    quotient_orders_checked: tuple[int, ...] | None
    sample: tuple[tuple[int, ...], ...]


# Prestructures a report keeps as its sample.
_REPORT_SAMPLE = 100


def prestructure_report(G: FiniteGroup, mode: str = "auto") -> PrestructureReport:
    """Run the search to completion; certified-empty when count == 0."""
    info = prestructure_search_info(G, mode)
    count = 0
    sample: list[tuple[int, ...]] = []
    for block in _prestructure_blocks(G, info):
        count += block.shape[1]
        sample += map(tuple, block[:, :_REPORT_SAMPLE - len(sample)].T.tolist())
    return PrestructureReport(
        count=count,
        mode=info.mode,
        socle_z_candidates=len(info.z_candidates) if info.mode == "socle" else None,
        quotient_orders_checked=(
            info.evidence.quotient_orders if info.evidence else None
        ),
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
    try:
        t = StructureType(int(data["b"]), int(data["n"]))
        elements = tuple(int(x) for x in data["elements"])
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed structure data: {e}") from e
    if any(not 0 <= x < G.order for x in elements):
        raise ValueError("element index out of range for the group")
    return DDKStructure(G, t, elements)
