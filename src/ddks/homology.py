"""First homology of the covering surface attached to a structure.

The kernel of the surjection from the orbifold surface-braid group onto G
is the fundamental group of the covering surface.  Its abelianization is
computed without any coset enumeration: cosets of the kernel biject with
elements of G (the coset action is g -> g * phi(x)), so a Schreier
transversal (the `spanning_tree` of G over phi(x1), phi(x1)^-1, ...),
the abelianized rewritten relators, and an integer Smith normal form
give H_1 directly.  The relators are those of phi's own source
presentation: `first_homology(hom)` takes no other.

The relator matrix is built by tracing every relator from all cosets at
once over the Cayley table, one gather a letter.  It is large and sparse
(736 x 257 with about 4 000 nonzeros for the order-32 groups), so H_1
reduces it in two phases, as for badly presented Z-modules (Havas, Holt &
Rees 1993).  Phase one eliminates +-1 pivots on the nonzeros held as
sorted (row, column, value) arrays, in rounds of pivots that do not
interfere: each round picks them by Markowitz's fill score (Markowitz
1957), one local minimum per conflict, and applies all of its row
operations with one sort and one `np.add.reduceat`.  Its certificate is
the elimination's own multipliers, replayed as array code: F is unit lower
triangular by one comparison of row ranks, one scatter rebuilds
A = F @ M from the final rows M, M's pivot rows form a block on the pivot
columns that is upper triangular by round with a +-1 diagonal, and its
other rows vanish there and equal the residual R elsewhere.  Phase two
runs `smith_normal_form`, on Python ints with sparse transforms, on R's
distinct rows up to sign.  Then rank = pivots + rank(R) and the invariant
factors are those of R after as many 1s as there were pivots.  Every
exact product is int64 under a stated bound or Python ints, never
floating point, so no product goes through BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, count
from typing import Sequence

import numpy as np

from .group_core import FiniteGroup, Homomorphism, Presentation, Word, spanning_tree, tree_words
from .structures import (
    DDKStructure,
    braid_presentation,
    k_subgroups,
)

__all__ = [
    "HomologyInvariants",
    "SmithDecomposition",
    "Transversal",
    "abelianized_relator_matrix",
    "first_homology",
    "h1_of_surface",
    "integer_determinant",
    "orbifold_presentation",
    "schreier_transversal",
    "smith_invariants",
    "smith_normal_form",
]

# ------------------------------------------------------------ transversal

@dataclass(frozen=True)
class Transversal:
    """The `spanning_tree` of the target over x1, x1^-1, x2, ...: each
    coset's parent and step, -1 at the identity.  The tree path to a coset
    spells its representative (ValueError for a coset without one), so
    they are prefix-closed, each the shortlex-least word to its coset."""

    parent: tuple[int, ...]
    step: tuple[int, ...]
    representative_words: tuple[Word, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "representative_words", tuple(tree_words(self.parent, self.step)))


def schreier_transversal(hom: Homomorphism) -> Transversal:
    """The transversal of the kernel of hom; ValueError unless hom is onto."""
    G = hom.target
    order, parent, step = spanning_tree(G.table[:, [s for x in hom.images for s in (x, G.inverse[x])]].tolist())
    if len(order) != G.order:
        raise ValueError("homomorphism is not surjective")
    return Transversal(tuple(parent), tuple(step))


# -------------------------------------------------------- relator matrix

def _schreier_columns(hom: Homomorphism, t: Transversal) -> np.ndarray:
    """(coset, generator) -> column of its Schreier generator, -1 on tree
    edges, the others numbered in (coset, generator) order.

    The tree edge into coset v from its parent u is (u, x) for a step x
    and (v, x) for a step x^-1.  The parents form a tree rooted at the
    identity (`Transversal`), and one gather checks that u phi(x) = v or
    v phi(x) = u, so the edges are a spanning tree of the Cayley graph;
    then no two give one pair (u and v would be each other's parent)."""
    G, images = hom.target, np.array(hom.images)
    parent, step = np.array(t.parent), np.array(t.step)
    if not parent.shape == step.shape == (G.order,):
        raise AssertionError("the transversal needs a parent and a step per coset")
    u, x, child = parent[1:], step[1:] // 2, np.arange(1, G.order)
    tail, head = np.where(step[1:] % 2, child, u), np.where(step[1:] % 2, u, child)
    if not (x < len(images)).all() or (G.table[tail, images[x]] != head).any():
        raise AssertionError("a tree edge is not an edge of the Cayley graph")
    tree = np.zeros((G.order, len(images)), dtype=bool)
    tree[tail, x] = True
    columns = np.full(tree.shape, -1)
    columns[~tree] = np.arange(tree.size - np.count_nonzero(tree))
    return columns


def abelianized_relator_matrix(hom: Homomorphism, t: Transversal) -> np.ndarray:
    """One row per (coset, relator r of hom.source): exponent sums of
    Schreier generators in the rewritten conjugate rep * r * rep^-1 (tree
    edges excluded).

    Each relator is traced from all cosets at once over the right-action
    tables u -> u * phi(x)^(+-1), one gather a letter; the entries are added
    with one scatter at the end."""
    G = hom.target
    columns = _schreier_columns(hom, t)
    step = G.table[:, list(hom.images)].T
    back = G.table[:, G.inverses[list(hom.images)]].T
    cosets = np.arange(G.order)
    relators = hom.source.relators
    nrel = len(relators)
    rows, cols, signs = [], [], []
    for j, rel in enumerate(relators):
        c = cosets
        for letter in rel.letters:
            x = abs(letter) - 1
            if letter > 0:
                cols.append(columns[c, x])
                c = step[x][c]
            else:
                c = back[x][c]
                cols.append(columns[c, x])
        if (c != cosets).any():
            raise AssertionError("relator does not map to the identity")
        rows.append(np.tile(cosets * nrel + j, len(rel)))
        signs += [1 if letter > 0 else -1 for letter in rel.letters]
    matrix = np.zeros((G.order * nrel, np.count_nonzero(columns >= 0)), dtype=np.int64)
    if cols:
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        signs = np.repeat(np.array(signs, dtype=np.int64), G.order)
        edge = cols >= 0
        np.add.at(matrix, (rows[edge], cols[edge]), signs[edge])
    return matrix


# --------------------------------------------------- Smith normal form

@dataclass(frozen=True)
class SmithDecomposition:
    invariant_factors: tuple[int, ...]
    rank: int
    left: np.ndarray
    right: np.ndarray
    diagonal: np.ndarray


def _integer(v) -> int:
    """v as a Python int; a float, a string or a Fraction is refused."""
    if not isinstance(v, (int, np.integer)):
        raise ValueError(f"matrix entry {v!r} is not an integer")
    return int(v)


def _integer_matrix(matrix: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """matrix as a 2-D int64 array as given, or as a new array of Python ints."""
    int64 = isinstance(matrix, np.ndarray) and matrix.dtype == np.int64
    A = matrix if int64 else np.array(matrix, dtype=object)
    if A.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if not int64:
        A.reshape(-1)[:] = [_integer(v) for v in A.flat]
    return A


def integer_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    M = [[_integer(v) for v in row] for row in matrix]
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def _entry_max(x: np.ndarray) -> int:
    return max(int(x.max()), -int(x.min())) if x.size else 0


def _exact_matmul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y exactly: int64 when every partial sum stays below 2^63 (also
    for object arrays whose entries fit).  Otherwise the columns of Y where
    that holds still run on int64, the others on Python ints, and the
    product is an object array.  No product goes through floating point,
    so none reaches BLAS."""
    row_bound = _entry_max(X) * max(X.shape[1], 1)
    if row_bound * _entry_max(Y) < 2 ** 63:
        return X.astype(np.int64) @ Y.astype(np.int64)
    Y = Y.astype(object)
    column_max = np.maximum(Y.max(axis=0, initial=0), -Y.min(axis=0, initial=0))
    fits = (row_bound * column_max < 2 ** 63) & (_entry_max(X) < 2 ** 63)
    product = np.empty((X.shape[0], Y.shape[1]), dtype=object)
    if fits.any():
        product[:, fits] = X.astype(np.int64) @ Y[:, fits].astype(np.int64)
    product[:, ~fits] = X.astype(object) @ Y[:, ~fits]
    return product


def _add_line(target: dict[int, int], q: int, source: dict[int, int]) -> None:
    """target += q * source, on rows of L or columns of R as {index: entry}."""
    for c, v in source.items():
        target[c] = target.get(c, 0) + q * v


def _eliminate_at(M: list[list[int]], L: list[dict], R: list[dict], k: int) -> bool:
    """Clear row and column k of M, each row operation also on L and each
    column operation on R; False when M[k:, k:] is all zero.  Each pass
    moves the smallest nonzero |entry| of M[k:, k:] (ties row-major) to
    (k, k), makes it positive and subtracts its floor quotients from the
    rows below, then, once column k is clear, from the columns to the
    right.  Rows and columns before k are zero off the diagonal, so a
    column swap changes rows k onward only and a column operation row k."""
    nrows, ncols = len(M), len(R)
    while True:
        smallest = min(map(abs, filter(None, chain.from_iterable(M[k:]))), default=0)
        if not smallest:
            return False
        for i in range(k, nrows):
            if smallest in M[i] or -smallest in M[i]:
                break
        j = list(map(abs, M[i])).index(smallest)
        M[k], M[i], L[k], L[i] = M[i], M[k], L[i], L[k]
        if j != k:
            for line in M[k:]:
                line[k], line[j] = line[j], line[k]
            R[k], R[j] = R[j], R[k]
        if M[k][k] < 0:
            M[k], L[k] = [-v for v in M[k]], {c: -v for c, v in L[k].items()}
        Mk, Lk, pivot = M[k], L[k], M[k][k]
        support = [(c, b) for c, b in enumerate(Mk) if b]
        rest = 0  # a nonzero left in column k below the pivot
        for t in range(k + 1, nrows):
            Mt, q = M[t], -(M[t][k] // pivot)
            if q:
                for c, b in support:
                    Mt[c] += q * b
                _add_line(L[t], q, Lk)
            rest = rest or Mt[k]
        if rest:
            continue
        for t in range(k + 1, ncols):
            q = -(Mk[t] // pivot)
            if q:
                Mk[t] += q * pivot
                _add_line(R[t], q, R[k])
        if not any(Mk[k + 1:]):
            return True


def _enforce_divisibility(M: list[list[int]], L: list[dict], R: list[dict], rank: int) -> None:
    """Make d_1 | d_2 | ...: while d_i does not divide d_(i+1), add column i + 1
    to column i (M changes at (i + 1, i)) and eliminate anew from i on."""
    while broken := [i for i in range(rank - 1) if M[i + 1][i + 1] % M[i][i]]:
        i = broken[0]
        M[i + 1][i] += M[i + 1][i + 1]
        _add_line(R[i], 1, R[i + 1])
        for k in range(i, rank):
            _eliminate_at(M, L, R, k)


def _from_lines(lines: list[dict[int, int]]) -> np.ndarray:
    """The square array of rows {index: entry}; int64 if every entry fits."""
    n, values = len(lines), [v for line in lines for v in line.values()]
    X = np.zeros((n, n), dtype=np.int64 if max(map(abs, values), default=0) < 2 ** 63 else object)
    X.reshape(-1)[[i * n + c for i, line in enumerate(lines) for c in line]] = values
    return X


def smith_normal_form(matrix: Sequence[Sequence[int]] | np.ndarray) -> SmithDecomposition:
    """Exact SNF with unimodular transforms: left @ input @ right == diagonal.

    Row and column operations on Python ints, which cannot overflow: M is a
    list of integer rows and L's rows and R's columns are sparse dicts (see
    `_eliminate_at`).  Checked: positive factors, a diagonal M, a
    divisibility chain, and left @ input @ right == diagonal exactly.  Each
    of left, right and diagonal is int64 when every entry fits (the
    diagonal only when the input's do too), else Python ints."""
    A = _integer_matrix(matrix)
    nrows, ncols = A.shape
    M = A.tolist()
    wide = A.dtype == object and max(map(abs, chain.from_iterable(M)), default=0) >= 2 ** 63
    L, R = [{i: 1} for i in range(nrows)], [{j: 1} for j in range(ncols)]
    rank = 0
    while rank < min(nrows, ncols) and _eliminate_at(M, L, R, rank):
        rank += 1
    _enforce_divisibility(M, L, R, rank)
    for i in range(rank):
        if M[i][i] < 0:  # gcd steps can leave a sign behind the pivot
            M[i], L[i] = [-v for v in M[i]], {c: -v for c, v in L[i].items()}

    factors = tuple(int(M[i][i]) for i in range(rank))
    fits = not wide and max(map(abs, chain.from_iterable(M)), default=0) < 2 ** 63
    D = np.array(M, dtype=np.int64 if fits else object).reshape(A.shape)
    left, right = _from_lines(L), np.ascontiguousarray(_from_lines(R).T)
    if not all(d > 0 for d in factors):
        raise AssertionError("invariant factor is not positive")
    if np.count_nonzero(D) != rank:
        raise AssertionError("the reduced matrix is not diagonal")
    if not all(factors[i + 1] % factors[i] == 0 for i in range(rank - 1)):
        raise AssertionError("invariant factors do not form a divisibility chain")
    if not np.array_equal(_exact_matmul(_exact_matmul(left, A), right), D):
        raise AssertionError("transform check failed")
    return SmithDecomposition(factors, rank, left, right, D)


# ------------------------------------------- sparse unit-pivot reduction

def _merge(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, ncols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries summed at equal (row, col), zeros dropped, sorted by
    row * ncols + col.

    One sort of the keys, each with its index in its low bits: keys stay
    below 2^31 (see `_eliminate_unit_pivots`), so this fits int64 for
    fewer than 2^32 entries."""
    shift = len(rows).bit_length()
    packed = np.sort(((rows * ncols + cols) << shift) | np.arange(len(rows)))
    key = packed >> shift
    first = np.flatnonzero(np.diff(key, prepend=-1))
    values = np.add.reduceat(values[packed & ((1 << shift) - 1)], first) if len(first) else values[:0]
    nonzero = values != 0
    rows, cols = np.divmod(key[first[nonzero]], ncols)
    return rows, cols, values[nonzero]


def _row_entries(start: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(which, at): the entries of rows r[0], r[1], ... one after another,
    where row i holds entries [start[i], start[i + 1]); which[t] is the
    index into r whose row holds entry at[t]."""
    length = start[r + 1] - start[r]
    which = np.repeat(np.arange(len(r)), length)
    at = np.arange(len(which)) - np.repeat(np.cumsum(length) - length, length)
    return which, at + start[r][which]


def _eliminate_unit_pivots(
    A: np.ndarray,
) -> tuple[
    tuple[np.ndarray, np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray, np.ndarray],
]:
    """Phase one: clear every column that some row can pivot on with +-1.

    The live rows' nonzeros are three arrays (row, column, value), sorted
    by row * ncols + column.  Each round picks a set of independent unit
    pivots.  Every +-1 entry is a candidate, ranked by its Markowitz score
    (row nnz - 1)(column nnz - 1) with ties by (row, column), packed into
    one int64 rank below (nrows ncols)^2.  Each column keeps its best
    candidate, then each row its best, and a candidate is dropped when a
    better one conflicts with it (one's row is nonzero in the other's
    column).  The best candidate always survives, and no survivor's row is
    nonzero in another survivor's column.  So every update of the round,
    row s -= (a * sign) * pivot row r for each entry a of a live row s in
    a pivot column, is one concatenation and one merge, and the pivot rows
    then leave the live rows as they are.  Rounds repeat until no unit
    entry is left; each takes at least one row away.

    Values are int64 while max|entry| (1 + max|entry| * hits), with hits
    the most pivot columns one row meets in a round, stays below 2^63,
    which bounds every entry the round can make; from the first round where
    it does not, they are Python ints.

    Returns (M, ops, pivots) as triples of arrays.  M = (rows, cols,
    values) are the nonzeros of the final rows, sorted by position; ops =
    (s, r, f) lists each update row s -= f * row r; pivots = (rows, cols,
    rounds) lists each pivot and its round, round by round.  A pivot row is
    never touched after its round, so A = F @ M, F the identity plus f at
    (s, r) per op.
    """
    nrows, ncols = A.shape
    if nrows * ncols >= 2 ** 31:
        raise ValueError("the pivot ranks need fewer than 2^31 matrix entries")
    flat = np.flatnonzero(A != 0)
    rows, cols = np.divmod(flat, ncols)
    values = A.reshape(-1)[flat]
    values = values.astype(np.int64 if _entry_max(values) < 2 ** 63 else object)
    done = [(rows[:0], cols[:0], values[:0])]
    ops = [(rows[:0], rows[:0], values[:0])]
    pivots = [(rows[:0], rows[:0], rows[:0])]
    for round_ in count():
        unit = np.flatnonzero(np.abs(values) == 1)
        if not len(unit):
            break
        row_nnz = np.bincount(rows, minlength=nrows)
        col_nnz = np.bincount(cols, minlength=ncols)
        score = (row_nnz[rows[unit]] - 1) * (col_nnz[cols[unit]] - 1)
        rank = score * (nrows * ncols) + rows[unit] * ncols + cols[unit]
        for line, size in ((cols, ncols), (rows, nrows)):
            best = np.full(size, np.iinfo(np.int64).max)
            np.minimum.at(best, line[unit], rank)
            kept = rank == best[line[unit]]
            unit, rank = unit[kept], rank[kept]
        n = len(unit)
        candidate_of_row = np.full(nrows, -1)
        candidate_of_row[rows[unit]] = np.arange(n)
        candidate_of_col = np.full(ncols, -1)
        candidate_of_col[cols[unit]] = np.arange(n)
        i, j = candidate_of_col[cols], candidate_of_row[rows]
        clash = (i >= 0) & (j >= 0) & (i != j)
        i, j = i[clash], j[clash]
        beaten = np.zeros(n, dtype=bool)
        beaten[np.where(rank[i] > rank[j], i, j)] = True
        unit = unit[~beaten]
        pr, pc, sign = rows[unit], cols[unit], values[unit]

        pivot_of_col = np.full(ncols, -1)
        pivot_of_col[pc] = np.arange(len(unit))
        on_pivot_row = np.zeros(nrows, dtype=bool)
        on_pivot_row[pr] = True
        on_pivot_row = on_pivot_row[rows]
        target = np.flatnonzero((pivot_of_col[cols] >= 0) & ~on_pivot_row)
        if values.dtype != object:
            most = _entry_max(values)
            hits = int(np.bincount(rows[target]).max(initial=0))
            if most * (1 + most * hits) >= 2 ** 63:
                values, sign = values.astype(object), sign.astype(object)
        s, jt = rows[target], pivot_of_col[cols[target]]
        f = values[target] * sign[jt]
        start = np.concatenate(([0], np.cumsum(row_nnz)))
        which, at = _row_entries(start, pr[jt])

        done.append((rows[on_pivot_row], cols[on_pivot_row], values[on_pivot_row]))
        ops.append((s, pr[jt], f))
        pivots.append((pr, pc, np.full(len(unit), round_)))
        live = ~on_pivot_row
        rows, cols, values = _merge(
            np.concatenate((rows[live], s[which])),
            np.concatenate((cols[live], cols[at])),
            np.concatenate((values[live], -f[which] * values[at])),
            ncols,
        )
    done.append((rows, cols, values))
    M = _merge(*(np.concatenate(part) for part in zip(*done)), ncols)
    return (
        M,
        tuple(np.concatenate(part) for part in zip(*ops)),
        tuple(np.concatenate(part) for part in zip(*pivots)),
    )


def _unit_pivot_residual(A: np.ndarray) -> tuple[int, np.ndarray]:
    """(number of unit pivots k, residual R) with A equivalent to I_k (+) R.

    Certificate, from the phase-one multipliers, as array code on the
    nonzeros of the final rows M, which must be sorted by position with no
    position repeated: every op reads a row earlier in the order (pivot
    rows in pivot order, then the others), so F is unit lower triangular;
    and one scatter of M and of f * M[r] into row s, for each op, leaves
    A - F @ M, which must vanish.  That runs on int64 when
    |A| + |M| (1 + max|f| * ops), which bounds every partial sum, is below
    2^63, and on Python ints otherwise.  In M the pivot rows on the pivot
    columns form a block that is upper triangular by round, with +-1 on
    the diagonal and no other entry inside a round, and the other rows
    vanish on every pivot column.  So column operations split M into
    I_k (+) R, where R is the surviving rows on the surviving columns.  The
    all-zero rows of R are dropped, which leaves its SNF unchanged.
    """
    nrows, ncols = A.shape
    (rows, cols, values), (s, r, f), (pivot_rows, pivot_cols, rounds) = (
        _eliminate_unit_pivots(A)
    )
    k = len(pivot_rows)
    step_of_row = np.full(nrows, -1, dtype=np.intp)
    step_of_row[pivot_rows] = np.arange(k)
    step_of_col = np.full(ncols, -1, dtype=np.intp)
    step_of_col[pivot_cols] = np.arange(k)
    # a repeated index keeps only its last step; read back rather than
    # np.unique, which imports numpy.ma on first use
    if (step_of_row[pivot_rows] != np.arange(k)).any() or (
        step_of_col[pivot_cols] != np.arange(k)
    ).any():
        raise AssertionError("a pivot row or column repeats")
    order = step_of_row.copy()
    survivors = order < 0
    order[survivors] = np.arange(k, nrows)
    if (order[r] >= order[s]).any():
        raise AssertionError("a row operation reads a later row")
    key = rows * ncols + cols
    if len(key) and not (
        (np.diff(key) > 0).all()
        and 0 <= cols.min() <= cols.max() < ncols
        and 0 <= key[0] <= key[-1] < nrows * ncols
    ):
        raise AssertionError("the final rows are not sorted by position")

    bound = _entry_max(A) + _entry_max(values) * (1 + _entry_max(f) * len(f))
    dtype = np.int64 if bound < 2 ** 63 else object
    values, f = values.astype(dtype), f.astype(dtype)
    residue = A.astype(dtype)
    residue[rows, cols] -= values
    which, at = _row_entries(np.searchsorted(rows, np.arange(nrows + 1)), r)
    np.subtract.at(residue.reshape(-1), s[which] * ncols + cols[at], f[which] * values[at])
    if residue.any():
        raise AssertionError("row transform check failed")

    i, j = step_of_row[rows], step_of_col[cols]
    in_block = (i >= 0) & (j >= 0)
    row_round, col_round = rounds[i[in_block]], rounds[j[in_block]]
    if (row_round > col_round).any():
        raise AssertionError("pivot block is not triangular")
    if ((row_round == col_round) & (i[in_block] != j[in_block])).any():
        raise AssertionError("two pivots of one round conflict")
    diagonal = in_block & (i == j)
    if np.count_nonzero(diagonal) != k or (np.abs(values[diagonal]) != 1).any():
        raise AssertionError("unit pivot check failed")
    if ((i < 0) & (j >= 0)).any():
        raise AssertionError("a pivot column survived")
    rest = i < 0
    keep_cols = np.flatnonzero(step_of_col < 0)
    kept_rows, at = np.unique(rows[rest], return_inverse=True)
    residual = np.zeros((len(kept_rows), len(keep_cols)), dtype=dtype)
    residual[at, np.searchsorted(keep_cols, cols[rest])] = values[rest]
    return k, residual


def _distinct_rows(R: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, at, source): D holds each row of R once up to sign, with its
    first nonzero entry positive, in lexicographic order; row i of R is
    +-D[at[i]], and row j of D is +-R[source[j]].  Phase one leaves no zero
    row in the residual (one would stay as one zero row of D).

    Negating an int64 row cannot overflow: phase one keeps every int64
    entry's magnitude below 2^63, so no entry is -2^63.
    """
    r, c = np.nonzero(R)
    lead = np.flatnonzero(np.diff(r, prepend=-1))
    flip = r[lead][R[r[lead], c[lead]] < 0]
    S = R.copy()
    S[flip] = -S[flip]
    order = np.lexsort(S.T[::-1]) if S.shape[1] else np.arange(len(S))
    S = S[order]
    new = np.ones(len(S), dtype=bool)
    new[1:] = (S[1:] != S[:-1]).any(axis=1)
    at = np.empty(len(R), dtype=np.intp)
    at[order] = np.cumsum(new) - 1
    return S[new], at, order[new]


def smith_invariants(
    matrix: Sequence[Sequence[int]] | np.ndarray,
) -> tuple[int, tuple[int, ...]]:
    """(rank, invariant factors) of an integer matrix, without transforms.

    Two phases: sparse elimination of the +-1 pivots (each contributes an
    invariant factor 1), then `smith_normal_form`, which keeps its own
    transform check, of the residual's distinct rows up to sign.  Equal to
    the rank and invariant factors of `smith_normal_form(matrix)`.
    ValueError for an entry that is not an integer.
    """
    units, residual = _unit_pivot_residual(_integer_matrix(matrix))
    distinct, at, source = _distinct_rows(residual)
    # two gathers: every residual row is +-1 times a distinct row and every
    # distinct row +-1 times a residual row, so both span one lattice and
    # have one SNF
    for X, Y in ((distinct[at], residual), (residual[source], distinct)):
        if not ((X == Y).all(axis=1) | (X == -Y).all(axis=1)).all():
            raise AssertionError("distinct row check failed")
    snf = smith_normal_form(distinct)
    return units + snf.rank, (1,) * units + snf.invariant_factors


# ------------------------------------------------------------- pipeline

@dataclass(frozen=True)
class HomologyInvariants:
    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
            if i and d % self.torsion[i - 1]:
                raise ValueError("torsion coefficients must form a chain")

    def to_dict(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def first_homology(hom: Homomorphism) -> HomologyInvariants:
    """H_1 of the kernel of hom, a map from the presentation hom.source,
    as an abstract abelian group."""
    t = schreier_transversal(hom)
    matrix = abelianized_relator_matrix(hom, t)
    rank, factors = smith_invariants(matrix)
    return HomologyInvariants(
        free_rank=matrix.shape[1] - rank,
        torsion=tuple(d for d in factors if d > 1),
    )


@lru_cache(maxsize=None)
def orbifold_presentation(b: int, n: int) -> Presentation:
    """The braid relation system together with the branching relator A12^n."""
    base = braid_presentation(b)
    a12 = Word.gen(len(base.generators) - 1)
    return Presentation(base.generators, base.relators + (a12 ** n,))


def h1_of_surface(
    G: FiniteGroup, s: DDKStructure
) -> tuple[HomologyInvariants, bool]:
    """(H_1 of the covering surface, maximality flag free_rank == 4b) for
    s, a structure on G (ValueError if s lies in another group object)."""
    if s.ambient is not G:
        raise ValueError("the structure lies in another group")
    if not k_subgroups(s).strong:
        raise ValueError("structure is not strong: base genera would differ")
    hom = Homomorphism(orbifold_presentation(s.stype.b, s.stype.n), G, s.elements)
    invariants = first_homology(hom)
    return invariants, invariants.free_rank == 4 * s.stype.b
