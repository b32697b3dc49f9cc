"""Coset enumeration (Todd-Coxeter, HLT strategy with lookahead-free filling).

Deterministic by construction: cosets are defined at the first undefined
table entry encountered while scanning relators in presentation order, and
the final table is compacted in discovery order.
"""

from __future__ import annotations

from typing import Sequence

DEFAULT_MAX_COSETS = 4096


class CosetEnumerationError(RuntimeError):
    """Raised when the live-coset cap is exceeded before closure."""

    def __init__(self, max_cosets: int):
        self.max_cosets = max_cosets
        super().__init__(
            f"coset enumeration exceeded the cap of {max_cosets} live cosets"
        )


def _letter_to_col(letter: int) -> int:
    # generator g (0-based) acts via column 2g, its inverse via 2g+1
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


class _Enumerator:
    def __init__(self, ngens: int, max_cosets: int):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.parent: list[int] = [0]  # union-find over coset numbers
        self.nlive = 1

    def rep(self, c: int) -> int:
        parent = self.parent
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(self, alpha: int, col: int) -> int:
        if self.nlive >= self.max_cosets:
            raise CosetEnumerationError(self.max_cosets)
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.parent.append(beta)
        self.nlive += 1
        self.table[alpha][col] = beta
        self.table[beta][col ^ 1] = alpha
        return beta

    def coincidence(self, alpha: int, beta: int):
        table = self.table
        queue: list[int] = []

        def merge(a: int, b: int):
            a, b = self.rep(a), self.rep(b)
            if a != b:
                if a > b:
                    a, b = b, a
                self.parent[b] = a
                self.nlive -= 1
                queue.append(b)

        merge(alpha, beta)
        i = 0
        while i < len(queue):
            gamma = queue[i]
            i += 1
            for col in range(self.ncols):
                delta = table[gamma][col]
                if delta is None:
                    continue
                table[delta][col ^ 1] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if table[mu][col] is not None:
                    merge(nu, table[mu][col])
                elif table[nu][col ^ 1] is not None:
                    merge(mu, table[nu][col ^ 1])
                else:
                    table[mu][col] = nu
                    table[nu][col ^ 1] = mu

    def scan_and_fill(self, alpha: int, word_cols: Sequence[int]):
        """Trace `word_cols` from alpha, defining cosets to close the scan."""
        table = self.table
        while True:
            f, i = alpha, 0
            b, j = alpha, len(word_cols) - 1
            # forward
            while i <= j and table[f][word_cols[i]] is not None:
                f = self.rep(table[f][word_cols[i]])
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            # backward
            while j >= i and table[b][word_cols[j] ^ 1] is not None:
                b = self.rep(table[b][word_cols[j] ^ 1])
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                # the single gap is forced: deduction
                table[f][word_cols[i]] = b
                table[b][word_cols[i] ^ 1] = f
                return
            # gap of length > 1: define the first missing entry and rescan
            self.define(f, word_cols[i])
            if self.rep(alpha) != alpha:
                return


def coset_table(
    ngens: int,
    relators: Sequence[Sequence[int]],
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> list[list[int]]:
    """Enumerate the cosets of the trivial subgroup in <gens | relators>,
    that is, the group elements.

    Words are sequences of signed 1-based generator numbers.  Returns the
    compacted coset table: row per coset, ``2*ngens`` columns in the order
    g0, g0^-1, g1, g1^-1, ...; coset 0 is the identity.

    The table is verified before returning: complete, mutually inverse
    columns, and every relator closing at every coset.
    """
    if ngens <= 0:
        raise ValueError("need at least one generator")
    enum = _Enumerator(ngens, max_cosets)
    rel_cols = [[_letter_to_col(l) for l in r] for r in relators]

    alpha = 0
    while alpha < len(enum.table):
        if enum.rep(alpha) != alpha:
            alpha += 1
            continue
        for r in rel_cols:
            if r:
                enum.scan_and_fill(alpha, r)
            if enum.rep(alpha) != alpha:
                break
        if enum.rep(alpha) == alpha:
            for col in range(enum.ncols):
                if enum.table[alpha][col] is None:
                    enum.define(alpha, col)
        alpha += 1

    # compact in discovery order
    live = [c for c in range(len(enum.table)) if enum.rep(c) == c]
    renumber = {old: new for new, old in enumerate(live)}
    out: list[list[int]] = []
    for old in live:
        row = enum.table[old]
        new_row = []
        for entry in row:
            if entry is None:
                raise AssertionError("incomplete coset table after closure")
            new_row.append(renumber[enum.rep(entry)])
        out.append(new_row)

    _verify_table(out, rel_cols)
    return out


def _verify_table(table, rel_cols):
    n = len(table)
    ncols = len(table[0]) if table else 0
    for c in range(n):
        for col in range(ncols):
            d = table[c][col]
            if not 0 <= d < n:
                raise AssertionError("table entry out of range")
            if table[d][col ^ 1] != c:
                raise AssertionError("columns not mutually inverse")
    for r in rel_cols:
        for c in range(n):
            x = c
            for col in r:
                x = table[x][col]
            if x != c:
                raise AssertionError("relator does not close")
