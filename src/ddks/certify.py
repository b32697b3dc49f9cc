"""The relator certifier: a boolean mask of the rows under which every
relator word evaluates to the identity.

It certifies the output of the genus-2 search in `structures` and of the
symplectic route, so it imports nothing from either.  `_relator_program`
compiles the relator list once into a straight-line program: a commutator
a b a^-1 b^-1 is one gather from a commutator table, a conjugate a b a^-1
one gather from a conjugate table, and each inverse letter and each shared
prefix is computed once for all relators (65 gathers for the 22 structure
relators, against their 140 letters).
`bulk_relator_filter` runs the program on uint8 registers, a chunk of rows
at a time, through flat uint8 tables cached on the group.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

from .group_core import FiniteGroup, Word

# The certifier keeps element indices in uint8 registers.
CERTIFY_ORDER_CAP = 256
# Rows the certifier evaluates at a time.  Its registers, one uint8 row of
# this length per column and per program step (74 for the 22 structure
# relators), then take about 1.2 MB, and each step's temporaries stay in
# cache.
_CERTIFY_CHUNK = 1 << 14


@lru_cache(maxsize=None)
def _relator_program(
    relators: tuple[Word, ...]
) -> tuple[int, tuple[tuple[str, int, int], ...], tuple[int, ...]]:
    """The relators as one straight-line program: (columns, steps, results).

    Registers 0 .. columns-1 hold the row's columns; step k, (op, i, j),
    writes register columns + k with inv[reg i], or with the `mul`, `comm`
    or `conj` table at (reg i, reg j).  Each relator is read left to right,
    a factor at a time: a b a^-1 b^-1 is one `comm`, else a b a^-1 one
    `conj`, and any other letter one factor.
    Steps are hash-consed, so an inverse letter or a shared prefix is
    computed once for all relators.  A row satisfies every relator iff all
    `results` registers hold the identity (an empty relator adds none).
    """
    columns = max((abs(l) for w in relators for l in w.letters), default=0)
    steps: dict[tuple[str, int, int], int] = {}  # each step and its register

    def emit(op: str, i: int, j: int = 0) -> int:
        return steps.setdefault((op, i, j), columns + len(steps))

    def letter(l: int) -> int:
        return l - 1 if l > 0 else emit("inv", -l - 1)

    results = set()
    for w in relators:
        lets, acc, i = w.letters, None, 0
        while i < len(lets):
            if i + 3 < len(lets) and lets[i + 2] == -lets[i] and lets[i + 3] == -lets[i + 1]:
                factor = emit("comm", letter(lets[i]), letter(lets[i + 1]))
                i += 4
            elif i + 2 < len(lets) and lets[i + 2] == -lets[i]:
                factor = emit("conj", letter(lets[i]), letter(lets[i + 1]))
                i += 3
            else:
                factor = letter(lets[i])
                i += 1
            acc = factor if acc is None else emit("mul", acc, factor)
        if acc is not None:
            results.add(acc)
    return columns, tuple(steps), tuple(sorted(results))


def _relator_tables(G: FiniteGroup) -> tuple[int, dict[str, np.ndarray]]:
    """(s, tables): uint8 `inv`, and flat uint8 `mul`, `comm` and `conj`
    tables indexed by (a << s) | b, with [a, b] = a b a^-1 b^-1 and
    conj(a, b) = a b a^-1; cached on G."""
    cached = getattr(G, "_relator_tables", None)
    if cached is not None:
        return cached
    n = G.order
    s = max(1, (n - 1).bit_length())
    cayley = np.array(G.cayley, dtype=np.uint8)
    inv = np.array(G.inverse, dtype=np.uint8)
    a = np.arange(n)[:, None]
    b = np.arange(n)[None, :]
    ab = cayley[a, b]
    tables = {"inv": inv}
    for op, table in (
        ("mul", cayley),
        ("comm", cayley[ab, cayley[inv[a], inv[b]]]),
        ("conj", cayley[ab, inv[a]]),
    ):
        tables[op] = np.zeros(1 << 2 * s, dtype=np.uint8)
        tables[op][(a << s) | b] = table
    G._relator_tables = (s, tables)
    return G._relator_tables


def bulk_relator_filter(
    G: FiniteGroup, rows: np.ndarray, relators: Iterable[Word]
) -> np.ndarray:
    """Boolean mask: rows under which every relator evaluates to identity.

    Runs `_relator_program` over at most `_CERTIFY_CHUNK` rows at a time.
    Raises ValueError above order `CERTIFY_ORDER_CAP` and for entries that
    are not elements of G.
    """
    if G.order > CERTIFY_ORDER_CAP:
        raise ValueError(
            f"relator certifier cap is order {CERTIFY_ORDER_CAP}, got {G.order}"
        )
    columns, steps, results = _relator_program(tuple(relators))
    if rows.size and (rows.min() < 0 or rows.max() >= G.order):
        raise ValueError("element index out of range for the group")
    ok = np.empty(len(rows), dtype=bool)
    s, tables = _relator_tables(G)
    shift = np.uint16(s)
    chunk = max(1, min(_CERTIFY_CHUNK, len(rows)))
    regs = np.empty((columns + len(steps), chunk), dtype=np.uint8)
    index = np.empty(chunk, dtype=np.uint16)
    for start in range(0, len(rows), chunk):
        m = min(chunk, len(rows) - start)
        r, ix = regs[:, :m], index[:m]
        r[:columns] = rows[start:start + m, :columns].T
        # mode="clip" skips the bounds check, which would also buffer `out`:
        # every index is in range, since rows and tables hold elements of G
        for k, (op, i, j) in enumerate(steps, columns):
            if op == "inv":
                np.take(tables[op], r[i], out=r[k], mode="clip")
            else:
                np.left_shift(r[i], shift, out=ix, dtype=np.uint16)
                np.bitwise_or(ix, r[j], out=ix)
                np.take(tables[op], ix, out=r[k], mode="clip")
        ok[start:start + m] = np.bitwise_or.reduce(r[list(results)], axis=0) == 0  # identity is 0
    return ok
