"""The mod-center linear algebra of an extra-special 2-group.

V = G/Z(G) is an F2 symplectic space: the pairing comes from commutators
([x, y] = z^(u,v)) and the quadratic form from squares (x^2 = z^q(v))
(Winter, "The automorphism group of an extraspecial p-group", 1972).
Structures of type (2, 2) are counted by enumerating their images in V
("reduced structures") and lifting each one in 2^8 ways.

Vectors are bitmasks over the ordered basis (r̄1, t̄1, ..., r̄b, t̄b)
given by the generator images; bit 2j is the r̄-coordinate, bit 2j+1 the
t̄-coordinate of the j-th pair.  `SymplecticSpace` builds no quotient
group: its pairing and form are G's commutators and squares, gathered at
the least element over each vector.

For b = 2 the 8 640 reduced structures are one uint8 array built by
table code over the 16x16 pairing table: one mask over the 15^4
candidate bases (e1, f1, e2, f2) gives the 720 symplectic bases, the six
coefficient matrices combine them by XOR, and case (b) is a column
permutation.  Every row is then checked by gathers into the pairing
table (the constraint table of `verify_reduced`, an F2 rank of 4 and the
case tag), and the lift takes each row's section lifts with one gather.
`verify_reduced` and `lift_reduced` are the one-structure oracles.
In-process on G(32,49) the route spends about 0.02 s outside its certify
tail.  It shares only that tail and the key format with the backtracking
route, and nothing with Aut(G).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .group_core import FiniteGroup, read_only
from .structures import (
    ROW_KEY_SHIFTS,
    DDKStructure,
    StructureType,
    certify_structure_rows,
    pack_rows,
)


def aut_order(b: int, epsilon: int) -> int:
    """|Aut(G)| for the extra-special group of order 2^(2b+1) and type epsilon."""
    if b < 1 or epsilon not in (1, -1):
        raise ValueError("need b >= 1 and epsilon in {+1, -1}")
    out = 2 ** (b * (b + 1) + 1) * (2**b - epsilon)
    for i in range(1, b):
        out *= 4**i - 1
    return out


class SymplecticSpace:
    """V = G/Z(G) as read-only arrays from G's table: `projection_table[x]`
    is the vector of x, `section_table[v]` the least element over v, and
    `pair_table[u, v]` and `q_table[v]` are 1 where the commutator of the
    lifts of u and v, and the square of the lift of v, are z.  It checks
    that G is extra-special, that the generator images are an ordered
    symplectic basis, and that the tables are an alternating, non-degenerate
    pairing and its form, and give every element's commutators and square.
    The four tables are its whole interface: scalar code reads them too, as
    lists (`verify_reduced`) or one gather (`lift_reduced`)."""

    def __init__(self, G: FiniteGroup):
        T, n = G.table, G.order
        rng = np.arange(n)
        center = np.flatnonzero((T == T.T).all(axis=1))
        if len(center) != 2:
            raise ValueError("extra-special input needed: |Z(G)| must be 2")
        self.group = G
        z = self.z_element = int(center[1])
        squares = T[rng, rng]
        # G/Z(G) has exponent 2 iff every square is central; then every
        # commutator is central too, and [G, G] is the set of the values
        if not np.isin(squares, center).all():
            raise ValueError("G/Z(G) is not elementary abelian")
        if np.flatnonzero(np.bincount(G.commutators.ravel(), minlength=n)).tolist() != [0, z]:
            raise ValueError("extra-special input needed: [G, G] must equal Z(G)")
        # coordinates: the i-th non-central generator flips bit i, z none
        basis = [g for g in G.generator_elements if g not in (0, z)]
        dim = len(basis)
        if n != 2 ** (dim + 1) or dim % 2 != 0:
            raise ValueError("generator images do not give a basis of G/Z(G)")
        self.dim, self.b = dim, dim // 2
        moves = [(g, 1 << i) for i, g in enumerate(basis)] + [(z, 0)]
        coords = np.full(n, -1)
        coords[0] = 0
        for g, bit in moves:  # every x is g1^a1 .. gk^ak z^e: one pass labels G
            known = np.flatnonzero(coords >= 0)
            coords[T[known, g]] = coords[known] ^ bit
        seen = coords >= 0  # all of G once the images are independent
        if any((coords[T[seen, g]] != coords[seen] ^ bit).any() for g, bit in moves):
            raise ValueError("generator images do not give a basis of G/Z(G)")
        lifts = np.zeros(2**dim, dtype=T.dtype)
        lifts[coords] = np.minimum(rng, T[:, z])  # the fibre over x's vector is {x, xz}
        proj = self.projection_table = read_only(coords.astype(T.dtype))
        lifts = self.section_table = read_only(lifts)
        pair = self.pair_table = read_only((G.commutators[np.ix_(lifts, lifts)] == z).astype(np.uint8))
        q = self.q_table = read_only((squares[lifts] == z).astype(np.uint8))
        bits = [1 << i for i in range(dim)]
        self.gram = pair[np.ix_(bits, bits)].tolist()
        # the J-form on the basis: r̄j and t̄j pair to 1, all else to 0
        if self.gram != [[int(i ^ 1 == j) for j in range(dim)] for i in range(dim)]:
            raise ValueError("generator images are not an ordered symplectic basis")
        if pair.diagonal().any():
            raise AssertionError("pairing is not alternating")
        if not pair[1:].any(axis=1).all():
            raise AssertionError("pairing is degenerate")
        v = np.arange(2**dim)
        if (q[v[:, None] ^ v] != q[:, None] ^ q ^ pair).any():
            raise AssertionError("parallelogram law fails")
        if (pair[np.ix_(proj, proj)] != (G.commutators == z)).any():
            raise AssertionError("pairing disagrees with commutators")
        if (q[proj] != (squares == z)).any():
            raise AssertionError("form disagrees with squares")


def induced_space(G: FiniteGroup) -> SymplecticSpace:
    return SymplecticSpace(G)


@dataclass(frozen=True)
class ReducedStructure:
    """Images in V of the eight non-z slots of a type-(2,2) structure."""

    vectors: tuple[int, ...]
    case_tag: str

    def __post_init__(self):
        if len(self.vectors) != 8:
            raise ValueError("a reduced structure has 8 vectors")
        if self.case_tag not in ("a", "b"):
            raise ValueError("case tag must be 'a' or 'b'")


def _span_dim(space: SymplecticSpace, vectors: Sequence[int]) -> int:
    pivots: dict[int, int] = {}  # leading bit -> reduced vector
    for v in map(int, vectors):
        while v:
            top = v.bit_length() - 1
            if top in pivots:
                v ^= pivots[top]
            else:
                pivots[top] = v
                break
    return len(pivots)


def _check_vectors(space: SymplecticSpace, vectors: Sequence[int]) -> None:
    """ValueError unless every vector lies in V: an int or numpy integer
    (bools refused) in 0 .. 2^dim - 1."""
    if not all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < 2**space.dim for v in vectors
    ):
        raise ValueError(f"vectors must lie in V, integers in 0 .. {2**space.dim - 1}, got {list(vectors)}")


def verify_reduced(
    space: SymplecticSpace, vectors: Sequence[int]
) -> tuple[bool, str | None]:
    """Check the full pairing-constraint table and spanning; ValueError
    unless there are 8 vectors of V."""
    if len(vectors) != 8:
        raise ValueError("expected 8 vectors")
    _check_vectors(space, vectors)
    r11, t11, r12, t12, r21, t21, r22, t22 = vectors
    pair = space.pair_table.tolist()
    if (pair[r12][t12] + pair[r11][t11]) % 2 != 1:
        return False, "sum condition on (r12,t12), (r11,t11) violated"
    if (pair[r21][t21] + pair[r22][t22]) % 2 != 1:
        return False, "sum condition on (r21,t21), (r22,t22) violated"
    rs1, ts1 = (r11, r12), (t11, t12)
    rs2, ts2 = (r21, r22), (t21, t22)
    for j in range(2):
        for k in range(2):
            delta = 1 if j == k else 0
            if pair[rs1[j]][ts2[k]] != delta:
                return False, f"(r1{j+1}, t2{k+1}) != {delta}"
            if pair[ts1[j]][rs2[k]] != delta:
                return False, f"(t1{j+1}, r2{k+1}) != {delta}"
            if pair[rs1[j]][rs2[k]] != 0:
                return False, f"(r1{j+1}, r2{k+1}) != 0"
            if pair[ts1[j]][ts2[k]] != 0:
                return False, f"(t1{j+1}, t2{k+1}) != 0"
    if _span_dim(space, vectors) != space.dim:
        return False, "vectors do not span V"
    return True, None


_COEFF_MATRICES = tuple(
    (a, b, c, d)
    for a in (0, 1)
    for b in (0, 1)
    for c in (0, 1)
    for d in (0, 1)
    if (a * d + b * c) % 2 == 1
)

# case (b) swaps the roles of the quadruples (r11,t11,r22,t22) and
# (r12,t12,r21,t21): exchange the two j-indices in each half
_J_SWAP = (2, 3, 0, 1, 6, 7, 4, 5)


def _pair_conditions():
    """verify_reduced's 16 pair conditions in its order, as (slot pairs,
    value, diagnostic); slots r11, t11, r12, t12, r21, t21, r22, t22 are
    0 .. 7, so r1j is slot 2j, t1j 2j + 1, r2k 4 + 2k and t2k 5 + 2k."""
    for j in range(2):
        for k in range(2):
            delta = 1 if j == k else 0
            yield ((2 * j, 5 + 2 * k),), delta, f"(r1{j+1}, t2{k+1}) != {delta}"
            yield ((2 * j + 1, 4 + 2 * k),), delta, f"(t1{j+1}, r2{k+1}) != {delta}"
            yield ((2 * j, 4 + 2 * k),), 0, f"(r1{j+1}, r2{k+1}) != 0"
            yield ((2 * j + 1, 5 + 2 * k),), 0, f"(t1{j+1}, t2{k+1}) != 0"


# Each condition: the XOR of the pairings of its slot pairs must equal the
# value.  The two sum conditions come first, as in verify_reduced.
_PAIRING_CONDITIONS = (
    (((2, 3), (0, 1)), 1, "sum condition on (r12,t12), (r11,t11) violated"),
    (((4, 5), (6, 7)), 1, "sum condition on (r21,t21), (r22,t22) violated"),
    *_pair_conditions(),
)
REDUCED_CONDITIONS = tuple(name for _, _, name in _PAIRING_CONDITIONS) + (
    "vectors do not span V",
)


def _f2_rank(vectors: np.ndarray, bits: int) -> np.ndarray:
    """The F2 rank of each row of an (n, k) uint8 array of bitmasks below
    2**bits: per bit, XOR a row's first vector with that bit into every
    vector of the row that has it, which clears the bit from the row."""
    m = vectors.copy()
    rank = np.zeros(len(m), dtype=np.uint8)
    rows = np.arange(len(m))
    for bit in range(bits):
        has = (m >> bit) & 1
        pivot = m[rows, has.argmax(axis=1)]
        rank += (pivot >> bit) & 1
        m ^= has * pivot[:, None]
    return rank


def reduced_violations(space: SymplecticSpace, vectors: np.ndarray) -> np.ndarray:
    """For each row of an (n, 8) uint8 array of vectors, the index in
    REDUCED_CONDITIONS of the first condition it violates, in the order
    verify_reduced checks them, or -1 if it is a reduced structure."""
    pairing = space.pair_table
    failed = np.empty((len(vectors), len(REDUCED_CONDITIONS)), dtype=bool)
    for c, (slot_pairs, value, _) in enumerate(_PAIRING_CONDITIONS):
        acc = np.full(len(vectors), value, dtype=np.uint8)
        for i, j in slot_pairs:
            acc ^= pairing[vectors[:, i], vectors[:, j]]
        failed[:, c] = acc != 0
    failed[:, -1] = _f2_rank(vectors, space.dim) != space.dim
    return np.where(failed.any(axis=1), failed.argmax(axis=1), -1)


def reduced_structure_array(space: SymplecticSpace) -> np.ndarray:
    """All reduced structures as one read-only (8640, 8) uint8 array of
    vectors, slots r11, t11, r12, t12, r21, t21, r22, t22.

    The first half is case (a), (r11, t11, r22, t22) running over the
    symplectic bases in lexicographic order and, within each, the six
    coefficient matrices with ad + bc = 1 in `_COEFF_MATRICES` order; the
    second half is the same rows in case (b), columns permuted by
    `_J_SWAP`.  Every row is checked against the constraint table, for
    spanning and for its case's pairing of (r11, t11); a failure raises
    AssertionError naming the condition."""
    if space.dim != 4:
        raise ValueError("reduced enumeration supports dim 4 only")
    p = space.pair_table[1:, 1:].astype(bool)  # over the nonzero vectors
    # candidate (e1, f1, e2, f2) on axes 0 .. 3: (e1, f1) and (e2, f2)
    # hyperbolic pairs, orthogonal to each other
    bases = np.argwhere(
        p[:, :, None, None] & p[None, None, :, :]
        & ~p[:, None, :, None] & ~p[:, None, None, :]
        & ~p[None, :, :, None] & ~p[None, :, None, :]
    ).astype(np.uint8) + 1
    r11, t11, r22, t22 = (bases[:, i, None] for i in range(4))
    a, b, c, d = np.array(_COEFF_MATRICES, dtype=np.uint8).T
    case_a = np.empty((len(bases), len(_COEFF_MATRICES), 8), dtype=np.uint8)
    case_a[..., 0], case_a[..., 1] = r11, t11
    case_a[..., 2] = (c * r11) ^ (a * t11) ^ r22
    case_a[..., 3] = (d * r11) ^ (b * t11) ^ t22
    case_a[..., 4] = r11 ^ (b * r22) ^ (a * t22)
    case_a[..., 5] = t11 ^ (d * r22) ^ (c * t22)
    case_a[..., 6], case_a[..., 7] = r22, t22
    case_a = case_a.reshape(-1, 8)
    vectors = np.concatenate([case_a, case_a[:, _J_SWAP]])

    first = reduced_violations(space, vectors)
    bad = np.flatnonzero(first >= 0)
    if len(bad):
        raise AssertionError(
            f"constructed tuple {bad[0]} invalid: {REDUCED_CONDITIONS[first[bad[0]]]}"
        )
    case_pairing = space.pair_table[vectors[:, 0], vectors[:, 1]]
    if (case_pairing[:len(case_a)] != 1).any() or (case_pairing[len(case_a):] != 0).any():
        raise AssertionError("case tag disagrees with pairing pattern")
    return read_only(vectors)


def enumerate_reduced_structures(space: SymplecticSpace) -> Iterator[ReducedStructure]:
    """The rows of `reduced_structure_array` as ReducedStructure objects:
    case (a) for the first half, case (b) for the second."""
    vectors = reduced_structure_array(space)
    half = len(vectors) // 2
    for i, row in enumerate(vectors):
        yield ReducedStructure(tuple(row.tolist()), "a" if i < half else "b")


def lift_reduced(
    space: SymplecticSpace, r: ReducedStructure, G: FiniteGroup
) -> Iterator[DDKStructure]:
    """The 2^8 structures over a reduced structure: multiply each section
    lift by z or not, slotwise.  ValueError if the space was built from
    another group, or for vectors outside V (integers in 0 .. 2^dim - 1)."""
    if G is not space.group:
        raise ValueError("space was not built from this group")
    _check_vectors(space, r.vectors)
    z = space.z_element
    base = space.section_table[list(r.vectors)].tolist()
    shifted = [G.mul(x, z) for x in base]
    t = StructureType(2, 2)
    for mask in range(256):
        elems = tuple(
            shifted[i] if (mask >> i) & 1 else base[i] for i in range(8)
        ) + (z,)
        yield DDKStructure(G, t, elems)


def symplectic_structure_rows(G: FiniteGroup) -> np.ndarray:
    """All type-(2,2) structures via the reduced-then-lift construction,
    as a lexicographically sorted (count, 9) array; bulk re-verified."""
    space = induced_space(G)
    base = space.section_table[reduced_structure_array(space)]
    mulz = G.table[:, space.z_element]  # x -> x z, uint8 below order 256
    # Lift mask m takes slot i from mulz[base] where bit i of m is set: its
    # key is the base row's key with slot i's field XORed with base ^ mulz[base].
    keys = np.empty((len(base), 256), dtype=np.uint64)
    z = np.full(len(base), space.z_element, dtype=np.uint8)
    keys[:, 0] = pack_rows(G, np.column_stack([base, z]))
    flips = (base ^ mulz[base]).astype(np.uint64) << ROW_KEY_SHIFTS[:8]
    for i in range(8):
        np.bitwise_xor(keys[:, :1 << i], flips[:, i, None], out=keys[:, 1 << i:2 << i])
    return certify_structure_rows(
        G, keys.reshape(-1), StructureType(2, 2),
        "{} lifted candidates failed verification",
        "two lifts give the same row",
    )
