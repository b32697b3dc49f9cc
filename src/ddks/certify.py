"""The relator certifier: a boolean mask of the rows under which every
relator word evaluates to the identity.

It certifies the output of the genus-2 search in `structures` and of the
symplectic route, so it imports nothing from either.  `_relator_program`
compiles the relator list once into a straight-line program in which every
step is one gather from a table over at most W registers, W = min(3, 16 // s)
for s the bit length of |G| - 1, so that a table index, the registers
packed s bits apart, fits in uint16 (the Four Russians idea: Arlazarov,
Dinic, Kronrod and Faradzev, 1970).  The program depends only on the
relators and W, so groups share it; a group's tables are built once and
cached per group (`_GROUP_TABLES`).  Both caches have a fixed bound
(`CACHED_PROGRAMS`, `CACHED_TABLES`).

- A relator over at most W columns is a flags table over those columns,
  0 iff every relator folded into it is the identity; a relator whose
  columns lie inside another one's is folded into that one's table.
- A wider relator w holds iff, for a cyclic rotation of w cut as A B^-1,
  A and B have the same value; each side is a chain of value tables, the
  first over at most W columns and each later one over the previous
  step's value and at most W - 1 new columns.  Each relator takes the
  rotation and cut that add the fewest steps to those already emitted,
  then the narrowest tables.  (At W = 3 the 22 structure relators take
  24 gathers, 11 flags tables and 13 value tables, and 18 tests, against
  their 140 letters.)

Why a gather certifies exactly what evaluating the word does: a table's
entry at the packed index of (x_1, .., x_k) is computed from `G.table`
and `G.inverses` letter by letter, left to right, as
`FiniteGroup.evaluate_word` computes it, and packing is one-to-one on
element indices below 2^s, so the gather returns the word's value on the
row (flags: whether some folded word is not the identity).  A chain step
holds P S = (value of P) S.  And w = 1 iff each rotation of w, a
conjugate, is 1, iff A = B for w = A B^-1.

`bulk_relator_filter` runs the program a chunk of rows at a time on uint16
copies of the columns (with their shifts by s and 2s) and uint8 step
registers.  `relator_join` compiles its relators once, grouped by their
last column, and at each column runs only the steps and tests that close
there.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .group_core import FiniteGroup, Word, check_elements, read_only

# The certifier keeps element indices in uint8 registers.
CERTIFY_ORDER_CAP = 256
# Rows the certifier evaluates at a time.  Its registers, a uint16 row of
# this length per column and shifted copy and a uint8 row per step (17 and
# 24 for the 22 structure relators), then take about 0.9 MB.
_CERTIFY_CHUNK = 1 << 14
# Bits of a packed table index: the kernel packs into uint16.
_INDEX_BITS = 16
# Compiled programs kept, and tables kept per group (at most 64 KB each, at
# order 256), oldest out first: `verify-paper` compiles 6 programs and
# builds at most 20 tables per group, the benchmark's workloads fewer.
CACHED_PROGRAMS = 64
CACHED_TABLES = 64
# The tables built by group object: a copy of a group shares none, and a
# freed group takes its tables with it.
_GROUP_TABLES: weakref.WeakKeyDictionary[FiniteGroup, dict[Table, np.ndarray]] = weakref.WeakKeyDictionary()


def register_bits(order: int) -> int:
    """s: the bit length of |G| - 1, at least 1, the bits of one register."""
    return max(1, (order - 1).bit_length())


def table_width(s: int) -> int:
    """W: the registers one table reads, so that W * s <= 16."""
    return min(3, _INDEX_BITS // s)


class Table(NamedTuple):
    """A gather table over `width` registers, register p packed at bits
    s * (width - 1 - p).  `words` are over the letters +-1 .. +-width,
    letter p + 1 reading register p.  A value table (`flags` false) holds
    its one word's value; a flags table holds 0 where every word is the
    identity and 1 elsewhere."""

    width: int
    words: tuple[tuple[int, ...], ...]
    flags: bool


class Stage(NamedTuple):
    """Straight-line code for some relators.  `loads[i]` is the row column
    that wide register i holds (uint16); wide register len(loads) + j holds
    wide register `shifts[j][0]` shifted left by s * `shifts[j][1]`.  Step
    k, (table, operands), writes narrow register k (uint8) with the table
    at the OR of its operands, each (0, i) for wide register i or (1, i)
    for narrow register i < k.  A test is one narrow register, which must
    be 0 (the identity, or no flag), or two, which must be equal."""

    loads: tuple[int, ...]
    shifts: tuple[tuple[int, int], ...]
    steps: tuple[tuple[Table, tuple[tuple[int, int], ...]], ...]
    tests: tuple[tuple[int, ...], ...]


class Program(NamedTuple):
    """The columns the relators read (the largest generator index, plus
    one) and one stage per relator group."""

    columns: int
    stages: tuple[Stage, ...]


# A step before register allocation, equal keys being one step: ("flags",
# words) tabulates relators over their columns; ("value", prev, letters) is
# a chain step, the value of `letters` (+-(column + 1)) times that of step
# `prev` (None: the identity) on the left.
_Key = tuple


def _step(key: _Key) -> tuple[Table, tuple]:
    """(table, inputs) of a step: the table over the columns its letters
    read, highest first, so that steps share shifted copies of a column,
    and then over its chain's previous step, read as the word's first
    letter; the inputs are those columns and that step's key."""
    words, prev = (key[1], None) if key[0] == "flags" else ((key[2],), key[1])
    columns = sorted({abs(l) - 1 for w in words for l in w}, reverse=True)
    local = {c + 1: p + 1 for p, c in enumerate(columns)}
    table_words = tuple(tuple(local[l] if l > 0 else -local[-l] for l in w) for w in words)
    if prev is None:
        return Table(len(columns), table_words, key[0] == "flags"), tuple(columns)
    acc = (len(columns) + 1,)
    return Table(len(columns) + 1, tuple(acc + w for w in table_words), False), (*columns, prev)


def _chains(lets: tuple[int, ...], width: int) -> list[Optional[_Key]]:
    """keys[c]: the last step of the chain for lets[:c], None for c = 0.
    A chain's first step reads at most `width` columns and each later one
    the previous value and at most width - 1 new columns, each segment as
    long as that allows, so the chain for lets[:c + 1] extends that for
    lets[:c]."""
    keys: list[Optional[_Key]] = [None]
    prev, begin, columns = None, 0, set()
    for c, l in enumerate(lets):
        if abs(l) not in columns and len(columns) == (width if prev is None else width - 1):
            prev, begin, columns = ("value", prev, lets[begin:c]), c, set()
        columns.add(abs(l))
        keys.append(("value", prev, lets[begin:c + 1]))
    return keys


def _wide_test(lets: tuple[int, ...], width: int, emitted: dict) -> tuple[_Key, ...]:
    """The test for a relator over more than `width` columns: the last
    steps of the chains for A and B, or for the one nonempty side, against
    the identity, at the rotation and cut A B^-1 that add the fewest steps
    to `emitted`, then the narrowest tables."""
    best = None
    for rot in range(len(lets)):
        rotated = lets[rot:] + lets[:rot]
        sides = _chains(rotated, width)
        inverse = _chains(tuple(-l for l in reversed(rotated)), width)
        for cut in range(len(lets) + 1):
            test = tuple(k for k in (sides[cut], inverse[len(lets) - cut]) if k is not None)
            new = set()
            for key in test:
                while key is not None and key not in emitted:
                    new.add(key)
                    key = key[1]
            widths = sorted((len({abs(l) for l in k[2]}) + (k[1] is not None) for k in new), reverse=True)
            if best is None or (len(new), widths) < best[0]:
                best = ((len(new), widths), test)
    return best[1]


def _emit(key: Optional[_Key], emitted: dict) -> None:
    """Appends a chain step to `emitted` after the steps it reads."""
    if key is not None and key not in emitted:
        _emit(key[1], emitted)
        emitted[key] = None


def _folded(relators: Sequence[Word], width: int) -> list[tuple[tuple[int, ...], ...]]:
    """The relators over at most `width` columns, grouped by flags table:
    each goes to the first, widest first, whose columns contain its own."""
    def columns(w: tuple[int, ...]) -> frozenset[int]:
        return frozenset(abs(l) for l in w)

    narrow = [w.letters for w in relators if 0 < len(columns(w.letters)) <= width]
    hosts: list[tuple[frozenset[int], list[tuple[int, ...]]]] = []
    for w in sorted(narrow, key=lambda w: -len(columns(w))):
        host = next((h for h in hosts if columns(w) <= h[0]), None)
        if host is None:
            hosts.append((columns(w), [w]))
        else:
            host[1].append(w)
    return [tuple(words) for _, words in hosts]


def _stage(tests: list[tuple[_Key, ...]], order: dict) -> Stage:
    """The stage running `tests` and the steps they read, in the order of
    `order` (every step key, predecessors first)."""
    needed: set = set()
    for test in tests:
        for key in test:
            while key is not None and key not in needed:
                needed.add(key)
                key = key[1] if key[0] == "value" else None
    keys = sorted(needed, key=order.__getitem__)
    narrow = {key: k for k, key in enumerate(keys)}
    steps = [_step(key) for key in keys]
    loads = sorted({i for _, inputs in steps for i in inputs if isinstance(i, int)})
    wide = {(c, 0): i for i, c in enumerate(loads)}
    shifts: list[tuple[int, int]] = []
    program = []
    for table, inputs in steps:
        operands = []
        for p, i in enumerate(inputs):
            if not isinstance(i, int):  # a chain's previous step, packed last
                operands.append((1, narrow[i]))
                continue
            place = (i, table.width - 1 - p)
            if place not in wide:
                wide[place] = len(loads) + len(shifts)
                shifts.append((wide[i, 0], place[1]))
            operands.append((0, wide[place]))
        program.append((table, tuple(operands)))
    return Stage(
        tuple(loads), tuple(shifts), tuple(program),
        tuple(tuple(narrow[key] for key in test) for test in tests),
    )


@lru_cache(maxsize=CACHED_PROGRAMS)
def _relator_program(groups: tuple[tuple[Word, ...], ...], width: int) -> Program:
    """The relator groups as a `Program` of tables over at most `width`
    registers, stage g certifying group g.  Steps are shared across
    relators and groups; a stage runs every step its tests read."""
    emitted: dict[_Key, None] = {}  # every step, predecessors first
    tests: list[list[tuple[_Key, ...]]] = []
    for group in groups:
        tests.append([])
        for words in _folded(group, width):
            key = ("flags", words)
            emitted.setdefault(key)
            tests[-1].append((key,))
        for w in group:
            if len({abs(l) for l in w.letters}) > width:
                test = _wide_test(w.letters, width, emitted)
                for key in test:
                    _emit(key, emitted)
                tests[-1].append(test)
    order = {key: k for k, key in enumerate(emitted)}
    columns = max((abs(l) for group in groups for w in group for l in w.letters), default=0)
    return Program(columns, tuple(_stage(t, order) for t in tests))


def _group_table(G: FiniteGroup, s: int, table: Table) -> np.ndarray:
    """`table` for G as a flat uint8 array of 2^(s * width) entries (those
    at no element tuple stay 0), cached per group.  Built by one gather over
    `G.table` per letter on the grid of all element tuples, register p
    on axis p, so the C order of a (2^s, .., 2^s) array is the packing.
    The cache keeps G's `CACHED_TABLES` latest built."""
    cache = _GROUP_TABLES.setdefault(G, {})
    flat = cache.get(table)
    if flat is not None:
        return flat
    n, k = G.order, table.width
    axes = [np.arange(n).reshape((n,) + (1,) * (k - 1 - p)) for p in range(k)]
    signed = {p + 1: x for p, x in enumerate(axes)}
    signed.update({-(p + 1): G.inverses[x] for p, x in enumerate(axes)})
    bad = False
    for w in table.words:
        value = signed[w[0]]
        for l in w[1:]:
            value = G.table[value, signed[l]]
        bad = bad | (value != 0)
    grid = np.zeros((1 << s,) * k, dtype=np.uint8)
    grid[(slice(n),) * k] = bad if table.flags else value
    flat = read_only(grid.reshape(-1))
    if len(cache) >= CACHED_TABLES:
        del cache[next(iter(cache))]
    cache[table] = flat
    return flat


def _stage_mask(G: FiniteGroup, rows: np.ndarray, stage: Stage) -> np.ndarray:
    """Boolean mask: rows that pass every test of `stage`, run at most
    `_CERTIFY_CHUNK` rows at a time.  Every entry must be an element."""
    ok = np.ones(len(rows), dtype=bool)
    if not stage.tests or not len(rows):
        return ok
    s = register_bits(G.order)
    tables = [_group_table(G, s, table) for table, _ in stage.steps]
    chunk = min(_CERTIFY_CHUNK, len(rows))
    wide = np.empty((len(stage.loads) + len(stage.shifts), chunk), dtype=np.uint16)
    narrow = np.empty((len(stage.steps), chunk), dtype=np.uint8)
    index = np.empty(chunk, dtype=np.uint16)
    bad = np.empty(chunk, dtype=np.uint8)
    diff = np.empty(chunk, dtype=np.uint8)
    loads, bound = list(stage.loads), None
    for start in range(0, len(rows), chunk):
        m = min(chunk, len(rows) - start)
        if bound != m:  # views of the registers for chunks of m rows
            bound = m
            w, v, ix, nz, d = wide[:, :m], narrow[:, :m], index[:m], bad[:m], diff[:m]
            banks = (w, v)
            steps = [
                (flat, [banks[b][i] for b, i in operands], v[k])
                for k, (flat, (_, operands)) in enumerate(zip(tables, stage.steps))
            ]
            shifts = [(w[i], np.uint16(s * mult), w[j]) for j, (i, mult) in enumerate(stage.shifts, len(stage.loads))]
            tests = [[v[i] for i in test] for test in stage.tests]
        w[:len(loads)] = rows[start:start + m].T[loads]  # one strided pass
        for src, shift, out in shifts:
            np.left_shift(src, shift, out=out)
        # mode="clip" skips the bounds check, which would also buffer `out`:
        # every index is in range, since it packs elements of G
        for flat, operands, out in steps:
            if len(operands) == 1:
                np.take(flat, operands[0], out=out, mode="clip")
                continue
            np.bitwise_or(operands[0], operands[1], out=ix)
            for x in operands[2:]:
                np.bitwise_or(ix, x, out=ix)
            np.take(flat, ix, out=out, mode="clip")
        nz[:] = 0
        for test in tests:  # the identity is 0
            if len(test) == 2:
                np.bitwise_xor(test[0], test[1], out=d)
                np.bitwise_or(nz, d, out=nz)
            else:
                np.bitwise_or(nz, test[0], out=nz)
        np.equal(nz, 0, out=ok[start:start + m])
    return ok


def check_rows(rows: np.ndarray, columns: Optional[int] = None, what: str = "rows") -> None:
    """Raises ValueError unless `rows` is a 2-D ndarray, with exactly
    `columns` columns if given.  Reads the type and shape only."""
    if not isinstance(rows, np.ndarray):
        raise ValueError(f"{what} must be a 2-D array, got {type(rows).__name__}")
    if rows.ndim != 2:
        raise ValueError(f"{what} must be a 2-D array, got {rows.ndim}-D")
    if columns is not None and rows.shape[1] != columns:
        raise ValueError(f"{what} must have {columns} columns, got {rows.shape[1]}")


def check_keys(keys: np.ndarray) -> None:
    """Raises ValueError unless `keys` is a 1-D uint64 ndarray, as
    `structures.pack_rows` makes them.  Reads the type, shape and dtype only."""
    if not isinstance(keys, np.ndarray):
        raise ValueError(f"row keys must be a 1-D uint64 array, got {type(keys).__name__}")
    if keys.ndim != 1 or keys.dtype != np.uint64:
        raise ValueError(f"row keys must be a 1-D uint64 array, got {keys.ndim}-D {keys.dtype}")


def _check_order(G: FiniteGroup) -> None:
    if G.order > CERTIFY_ORDER_CAP:
        raise ValueError(
            f"relator certifier cap is order {CERTIFY_ORDER_CAP}, got {G.order}"
        )


def bulk_relator_filter(
    G: FiniteGroup, rows: np.ndarray, relators: Iterable[Word]
) -> np.ndarray:
    """Boolean mask: rows under which every relator evaluates to identity.

    Runs the relators' compiled program (the module docstring): a gather
    per step from tables that hold each word's value, so a row passes
    exactly when `FiniteGroup.evaluate_word` gives the identity for every
    relator.  Raises ValueError above order `CERTIFY_ORDER_CAP`, for rows
    that are not 2-D or are narrower than the relators, and for entries
    that are not element indices of G (out of range, or of a non-integer
    dtype).
    """
    _check_order(G)
    check_rows(rows)
    program = _relator_program((tuple(relators),), table_width(register_bits(G.order)))
    if rows.shape[1] < program.columns:
        raise ValueError(f"the relators use {program.columns} columns, the rows have {rows.shape[1]}")
    check_elements(G, rows)
    return _stage_mask(G, rows, program.stages[0])


def relator_join(
    G: FiniteGroup, candidates: Sequence[np.ndarray], relators: Iterable[Word], cap: int
) -> np.ndarray:
    """The uint8 rows, column i from `candidates[i]` in lexicographic order,
    under which every relator is the identity; a relator drops rows once its
    last column is added.  Raises ValueError above order
    `CERTIFY_ORDER_CAP`, for a relator past the last column, for a
    candidate that is not an element index of G and for a level above
    `cap` rows."""
    _check_order(G)
    closing: list[list[Word]] = [[] for _ in candidates]  # relators by last column
    for rel in relators:
        top = rel.max_generator()
        if top >= len(candidates):
            raise ValueError(f"a relator uses generator {top + 1} of {len(candidates)} columns")
        if top >= 0:
            closing[top].append(rel)
    program = _relator_program(tuple(map(tuple, closing)), table_width(register_bits(G.order)))
    rows = np.zeros((1, 0), dtype=np.uint8)
    for i, values in enumerate(candidates):
        values = np.asarray(values)
        check_elements(G, values)
        need = len(rows) * len(values)
        if need > cap:
            raise ValueError(f"relator join frontier cap is {cap} rows, column {i} needs {need}")
        column = np.tile(values.astype(np.uint8), len(rows))
        rows = np.column_stack((np.repeat(rows, len(values), axis=0), column))
        rows = rows[_stage_mask(G, rows, program.stages[i])]
    return rows
