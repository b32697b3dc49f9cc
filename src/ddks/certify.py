"""The relator certifier: a boolean mask of the rows under which every
relator word evaluates to the identity.

It certifies the output of the genus-2 search in `structures` and of the
symplectic route, so it imports nothing from either.  `_relator_program`
compiles the relator list once into a straight-line program of table
gathers and equality tests.  A relator w holds iff, for a cyclic rotation of
w split as A B^-1, A and B have the same value; each relator takes the
rotation and split that add the fewest gathers to those already emitted.
A commutator a b a^-1 b^-1 is one gather from a commutator table, a
conjugate a b a^-1 one gather from a conjugate table, and the tables take
each operand as x or x^-1, so an inverse letter costs no gather (39 gathers
and 22 tests for the 22 structure relators, against their 140 letters).
`bulk_relator_filter` runs the program on uint8 registers, a chunk of rows
at a time, through flat uint8 tables cached on the group.  `relator_join`
joins candidate columns, filtering by each relator at its last column.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .group_core import FiniteGroup, Word

# The certifier keeps element indices in uint8 registers.
CERTIFY_ORDER_CAP = 256
# Rows the certifier evaluates at a time.  Its registers, one uint8 row of
# this length per column and per program step (48 for the 22 structure
# relators), then take about 0.8 MB, and each step's temporaries stay in
# cache.
_CERTIFY_CHUNK = 1 << 14


def _letter(l: int) -> tuple[int, int]:
    return (abs(l) - 1, 1 if l > 0 else -1)


def _word_value(lets: tuple[int, ...], made: list) -> Optional[tuple[object, int]]:
    """The word's value as (node, sign), the node's value or its inverse;
    None for the empty word.  A node is a column index or a step (op,
    value, value).  The word is read left to right, a factor at a time:
    a b a^-1 b^-1 is one `comm`, else a b a^-1 one `conj`, else a letter.
    Each step is appended to `made` after the steps it reads."""
    acc, i = None, 0
    while i < len(lets):
        factor = _letter(lets[i])
        if i + 3 < len(lets) and lets[i + 2] == -lets[i] and lets[i + 3] == -lets[i + 1]:
            made.append(("comm", factor, _letter(lets[i + 1])))
            factor, i = (made[-1], 1), i + 4
        elif i + 2 < len(lets) and lets[i + 2] == -lets[i]:
            made.append(("conj", factor, _letter(lets[i + 1])))
            factor, i = (made[-1], 1), i + 3
        else:
            i += 1
        if acc is not None:
            made.append(("mul", acc, factor))
            factor = (made[-1], 1)
        acc = factor
    return acc


def _equality(w: tuple[int, ...], cut: int, made: list) -> Optional[tuple[object, object]]:
    """(p, q): w = 1 iff nodes p and q have the same value (q None: the
    identity), from w = A B^-1 with A = w[:cut].  None when exactly one
    side is an inverse letter, which no register holds; a cut at either end
    of w always gives a test."""
    a = _word_value(w[:cut], made)
    b = _word_value(tuple(-l for l in reversed(w[cut:])), made)
    if a is None or b is None:
        return (a or b)[0], None
    return (a[0], b[0]) if a[1] == b[1] else None


@lru_cache(maxsize=None)
def _relator_program(
    relators: tuple[Word, ...]
) -> tuple[
    int,
    tuple[tuple[str, int, int, int, int], ...],
    tuple[tuple[int, Optional[int]], ...],
]:
    """The relators as one straight-line program: (columns, steps, tests).

    Registers 0 .. columns-1 hold the row's columns; step k, (op, si, sj,
    i, j), writes register columns + k with the `mul`, `comm` or `conj` table
    at (reg i ** si, reg j ** sj), signs si, sj in {1, -1}.  Steps are
    hash-consed across relators.  Each nonempty relator adds one test
    (i, j): registers i and j must be equal (j None: register i must be the
    identity).  A row satisfies every relator iff it passes every test.
    """
    columns = max((abs(l) for w in relators for l in w.letters), default=0)
    steps: dict[tuple, int] = {}  # each step node and its register
    tests: list[tuple[object, object]] = []
    for w in relators:
        lets, best = w.letters, None
        for rot in range(len(lets)):
            rotated = lets[rot:] + lets[:rot]
            for cut in range(len(lets) + 1):
                made: list = []
                test = _equality(rotated, cut, made)
                cost = len({m for m in made if m not in steps})
                if test is not None and (best is None or cost < best[0]):
                    best = (cost, made, test)
        if best is not None:
            for m in best[1]:
                steps.setdefault(m, columns + len(steps))
            tests.append(best[2])

    def reg(node: object) -> Optional[int]:
        return node if node is None or isinstance(node, int) else steps[node]

    program = tuple(
        (op, si, sj, reg(i), reg(j)) for op, (i, si), (j, sj) in steps
    )
    return columns, program, tuple((reg(p), reg(q)) for p, q in tests)


def _relator_tables(G: FiniteGroup) -> tuple[int, dict[tuple[str, int, int], np.ndarray]]:
    """(s, tables): flat uint8 tables indexed by (a << s) | b, one for each
    op in `mul`, `comm`, `conj` and signs si, sj, holding op(a ** si, b ** sj)
    with [a, b] = a b a^-1 b^-1 and conj(a, b) = a b a^-1; cached on G."""
    cached = getattr(G, "_relator_tables", None)
    if cached is not None:
        return cached
    n = G.order
    s = max(1, (n - 1).bit_length())
    cayley, inv = G.table, G.inverses  # uint8: order <= CERTIFY_ORDER_CAP
    a = np.arange(n)[:, None]
    b = np.arange(n)[None, :]
    ab = cayley[a, b]
    tables = {}
    for op, table in (
        ("mul", cayley),
        ("comm", cayley[ab, cayley[inv[a], inv[b]]]),
        ("conj", cayley[ab, inv[a]]),
    ):
        for si in (1, -1):
            for sj in (1, -1):
                flat = np.zeros(1 << 2 * s, dtype=np.uint8)
                flat[(a << s) | b] = table[
                    a if si > 0 else inv[a], b if sj > 0 else inv[b]
                ]
                tables[op, si, sj] = flat
    G._relator_tables = (s, tables)
    return G._relator_tables


def bulk_relator_filter(
    G: FiniteGroup, rows: np.ndarray, relators: Iterable[Word]
) -> np.ndarray:
    """Boolean mask: rows under which every relator evaluates to identity.

    Runs `_relator_program` over at most `_CERTIFY_CHUNK` rows at a time.
    Raises ValueError above order `CERTIFY_ORDER_CAP`, for rows narrower
    than the relators and for entries that are not elements of G.
    """
    if G.order > CERTIFY_ORDER_CAP:
        raise ValueError(
            f"relator certifier cap is order {CERTIFY_ORDER_CAP}, got {G.order}"
        )
    columns, steps, tests = _relator_program(tuple(relators))
    if rows.shape[1] < columns:
        raise ValueError(f"the relators use {columns} columns, the rows have {rows.shape[1]}")
    if rows.size and (rows.min() < 0 or rows.max() >= G.order):
        raise ValueError("element index out of range for the group")
    ok = np.empty(len(rows), dtype=bool)
    s, tables = _relator_tables(G)
    program = [(tables[op, si, sj], i, j) for op, si, sj, i, j in steps]
    shift = np.uint16(s)
    chunk = max(1, min(_CERTIFY_CHUNK, len(rows)))
    regs = np.empty((columns + len(steps), chunk), dtype=np.uint8)
    index = np.empty(chunk, dtype=np.uint16)
    bad = np.empty(chunk, dtype=np.uint8)
    for start in range(0, len(rows), chunk):
        m = min(chunk, len(rows) - start)
        r, ix, nz = regs[:, :m], index[:m], bad[:m]
        r[:columns] = rows[start:start + m, :columns].T
        # mode="clip" skips the bounds check, which would also buffer `out`:
        # every index is in range, since rows and tables hold elements of G
        for k, (table, i, j) in enumerate(program, columns):
            np.left_shift(r[i], shift, out=ix, dtype=np.uint16)
            np.bitwise_or(ix, r[j], out=ix)
            np.take(table, ix, out=r[k], mode="clip")
        nz[:] = 0
        for i, j in tests:  # the identity is 0
            np.bitwise_or(nz, r[i] if j is None else r[i] ^ r[j], out=nz)
        ok[start:start + m] = nz == 0
    return ok


def relator_join(
    G: FiniteGroup, candidates: Sequence[np.ndarray], relators: Iterable[Word], cap: int
) -> np.ndarray:
    """The uint8 rows, column i from `candidates[i]` in lexicographic order,
    under which every relator is the identity; a relator drops rows once its
    last column is added.  Raises ValueError for a relator past the last
    column and for a level above `cap` rows."""
    closing: list[list[Word]] = [[] for _ in candidates]  # relators by last column
    for rel in relators:
        top = rel.max_generator()
        if top >= len(candidates):
            raise ValueError(f"a relator uses generator {top + 1} of {len(candidates)} columns")
        if top >= 0:
            closing[top].append(rel)
    rows = np.zeros((1, 0), dtype=np.uint8)
    for i, values in enumerate(candidates):
        need = len(rows) * len(values)
        if need > cap:
            raise ValueError(f"relator join frontier cap is {cap} rows, column {i} needs {need}")
        column = np.tile(np.asarray(values, dtype=np.uint8), len(rows))
        rows = np.column_stack((np.repeat(rows, len(values), axis=0), column))
        rows = rows[bulk_relator_filter(G, rows, closing[i])]
    return rows
