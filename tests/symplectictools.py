"""Closed-form orders and invariants of F2 quadratic spaces, the scalar
enumeration of symplectic bases, and the projection of a structure to V,
used only to check the symplectic route.

`symplectic_structure_rows` never needs them: the tests use them to check
the space's form type against the group's variant, the Sp and O orders
against the counts of bases and outer automorphisms, and the reduced
structures against projections of known structures.
"""

from typing import Iterator

from ddks.structures import DDKStructure
from ddks.symplectic import (
    ReducedStructure,
    SymplecticSpace,
    verify_reduced,
)


def sp_order(b: int) -> int:
    """|Sp(2b, F2)| by the standard product formula."""
    if b < 1:
        raise ValueError("b >= 1 required")
    out = 2 ** (b * b)
    for i in range(1, b + 1):
        out *= 4**i - 1
    return out


def orthogonal_order(b: int, epsilon: int) -> int:
    """|O_epsilon(2b, F2)|."""
    if b < 1 or epsilon not in (1, -1):
        raise ValueError("need b >= 1 and epsilon in {+1, -1}")
    out = 2 ** (b * (b - 1) + 1) * (2**b - epsilon)
    for i in range(1, b):
        out *= 4**i - 1
    return out


def enumerate_symplectic_bases(space: SymplecticSpace) -> Iterator[tuple[int, ...]]:
    """All ordered symplectic bases (e1, f1, e2, f2) of a dim-4 space, in
    lexicographic order, one pairing at a time."""
    if space.dim != 4:
        raise ValueError("basis enumeration supports dim 4 only")
    pair = space.pair_table.item
    for e1 in range(1, 16):
        for f1 in range(1, 16):
            if pair(e1, f1) != 1:
                continue
            perp = [
                v for v in range(1, 16)
                if pair(e1, v) == 0 and pair(f1, v) == 0
            ]
            for e2 in perp:
                for f2 in perp:
                    if pair(e2, f2) == 1:
                        yield (e1, f1, e2, f2)


def form_type(space: SymplecticSpace) -> int:
    """epsilon from the zero count of q: #zeros = 2^(2b-1) + epsilon 2^(b-1)."""
    zeros = space.q_table.tolist().count(0)
    half = 2 ** (space.dim - 1)
    step = 2 ** (space.b - 1)
    if zeros == half + step:
        return 1
    if zeros == half - step:
        return -1
    raise ValueError(f"zero count {zeros} matches neither form type")


def arf_invariant(space: SymplecticSpace) -> int:
    """Sum of q(e)q(f) over the dual pairs of one symplectic basis."""
    basis = next(enumerate_symplectic_bases(space))
    return (
        sum(space.q_table.item(basis[2 * i]) * space.q_table.item(basis[2 * i + 1]) for i in range(space.b))
        % 2
    )


def reduce_structure(space: SymplecticSpace, s: DDKStructure) -> ReducedStructure:
    """Project a verified structure to V."""
    vectors = tuple(space.projection_table[list(s.elements[:8])].tolist())
    ok, diag = verify_reduced(space, vectors)
    if not ok:
        raise ValueError(f"projection is not a reduced structure: {diag}")
    tag = "a" if space.pair_table[vectors[0], vectors[1]] == 1 else "b"
    return ReducedStructure(vectors, tag)
