"""First homology of the covering surface attached to a structure.

The kernel of the surjection from the orbifold surface-braid group onto G
is the fundamental group of the covering surface.  Its abelianization is
computed without any coset enumeration: cosets of the kernel biject with
elements of G (the coset action is g -> g * phi(x)), so a Schreier
transversal, the abelianized rewritten relators, and an integer Smith
normal form give H_1 directly.

The relator matrix is large and sparse (736 x 257 with about 4 000
nonzeros for the order-32 groups), so H_1 reduces it in two phases, as for
badly presented Z-modules (Havas, Holt & Rees 1993).  Phase one eliminates
every +-1 pivot on rows held as dicts of Python ints, recording each row
operation and dropping each pivot row and column.  Its certificate is the
elimination's own multipliers, replayed as array code: F is unit lower
triangular by one comparison of row ranks, one scatter rebuilds
A = F @ M from the final rows M, M's pivot rows form a unit upper
triangular block on the pivot columns, and its other rows vanish there and
equal the residual R elsewhere.  Phase two cuts the tall R (about 330 x 12)
to an echelon basis of its row lattice (4 x 12 on the order-32 matrices)
by elementary row operations, certified by replaying them in reverse to R,
and runs the dense `smith_normal_form` on that basis, which keeps its own
transform check.  Then rank = pivots + rank(R) and the invariant factors
are those of R after as many 1s as there were pivots.  Every exact product
is int64 under a stated bound or Python ints, never floating point, so no
product goes through BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from .group_core import FiniteGroup, Homomorphism, Presentation, Word
from .structures import (
    DDKStructure,
    braid_presentation,
    k_subgroups,
    verify_structure,
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

_INT64_GUARD = 2 ** 31  # keep |entry| below this so one update round cannot overflow


# ------------------------------------------------------------ transversal

@dataclass(frozen=True)
class Transversal:
    """Coset representatives indexed by target element, identity first.

    Built breadth-first over the alphabet x1 < x1^-1 < x2 < x2^-1 < ...,
    so representatives are shortest-lex and prefix-closed (every prefix of
    a representative is itself a representative).
    """

    representative_words: tuple[Word, ...]

    def __len__(self) -> int:
        return len(self.representative_words)


def schreier_transversal(hom: Homomorphism) -> Transversal:
    if not hom.is_surjective():
        raise ValueError("homomorphism is not surjective")
    G = hom.target
    reps: list[Word | None] = [None] * G.order
    reps[0] = Word.identity()
    queue = [0]
    steps = []
    for index, image in enumerate(hom.images):
        steps.append((index + 1, image))
        steps.append((-(index + 1), G.inverse[image]))
    while queue:
        frontier = []
        for g in queue:
            base = reps[g]
            for letter, image in steps:
                h = G.mul(g, image)
                if reps[h] is None:
                    reps[h] = Word(base.letters + (letter,))
                    frontier.append(h)
        queue = frontier
    if any(r is None for r in reps):
        raise AssertionError("a coset has no representative")
    for rep in reps:
        for cut in range(len(rep)):
            prefix = Word(rep.letters[:cut])
            if reps[hom.image_of_word(prefix)] != prefix:
                raise AssertionError("a prefix of a representative is not a representative")
    return Transversal(tuple(reps))


# -------------------------------------------------------- relator matrix

def _schreier_columns(
    hom: Homomorphism, t: Transversal
) -> dict[tuple[int, int], int]:
    """Map non-tree (coset, generator) pairs to column indices.

    A pair (u, x) is a tree edge exactly when rep(u) * x is itself a
    representative (of the coset u * phi(x)); those Schreier generators are
    trivial and get no column.
    """
    G = hom.target
    columns: dict[tuple[int, int], int] = {}
    for u, rep in enumerate(t.representative_words):
        for x, image in enumerate(hom.images):
            v = G.mul(u, image)
            if Word(rep.letters + (x + 1,)) == t.representative_words[v]:
                continue
            if Word(t.representative_words[v].letters + (-(x + 1),)) == rep:
                continue
            columns[(u, x)] = len(columns)
    if len(columns) != G.order * (len(hom.images) - 1) + 1:
        raise AssertionError("Schreier generator count is not |G|(gens - 1) + 1")
    return columns


def abelianized_relator_matrix(
    p: Presentation, hom: Homomorphism, t: Transversal
) -> np.ndarray:
    """One row per (coset, relator): exponent sums of Schreier generators
    in the rewritten conjugate rep * r * rep^-1 (tree edges excluded)."""
    G = hom.target
    columns = _schreier_columns(hom, t)
    matrix = np.zeros((G.order * len(p.relators), len(columns)), dtype=np.int64)
    inverse_images = [G.inverse[image] for image in hom.images]
    for u in range(G.order):
        for j, rel in enumerate(p.relators):
            row = matrix[u * len(p.relators) + j]
            c = u
            for letter in rel.letters:
                x = abs(letter) - 1
                if letter > 0:
                    key = (c, x)
                    c = G.mul(c, hom.images[x])
                    sign = 1
                else:
                    c = G.mul(c, inverse_images[x])
                    key = (c, x)
                    sign = -1
                col = columns.get(key)
                if col is not None:
                    row[col] += sign
            if c != u:
                raise AssertionError("relator does not map to the identity")
    return matrix


# --------------------------------------------------- Smith normal form

@dataclass(frozen=True)
class SmithDecomposition:
    invariant_factors: tuple[int, ...]
    rank: int
    left: np.ndarray
    right: np.ndarray
    diagonal: np.ndarray


def integer_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    M = [[int(v) for v in row] for row in matrix]
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
    for object arrays whose entries fit), Python ints otherwise.  No product
    goes through floating point, so none reaches BLAS."""
    bound = _entry_max(X) * _entry_max(Y) * max(X.shape[1], 1)
    if bound < 2 ** 63:
        return X.astype(np.int64) @ Y.astype(np.int64)
    return X.astype(object) @ Y.astype(object)


def _product_check(L: np.ndarray, A: np.ndarray, R: np.ndarray) -> np.ndarray:
    return _exact_matmul(_exact_matmul(L, A), R)


def _pivot_position(M: np.ndarray, k: int) -> tuple[int, int] | None:
    """Smallest nonzero |entry| in M[k:, k:], ties by row-major position."""
    sub = np.abs(M[k:, k:])
    mask = sub != 0
    if not mask.any():
        return None
    smallest = sub[mask].min()
    r, c = np.argwhere(mask & (sub == smallest))[0]
    return int(r) + k, int(c) + k


def smith_normal_form(matrix: Sequence[Sequence[int]] | np.ndarray) -> SmithDecomposition:
    """Exact SNF with unimodular transforms: left @ input @ right == diagonal.

    Runs on int64 with an overflow guard; silently upcasts the whole state
    to arbitrary-precision integers if any intermediate approaches 2^31.
    """
    A = np.array(matrix, dtype=object)
    if A.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    original = A.copy()
    nrows, ncols = A.shape
    if A.size and all(abs(int(v)) < _INT64_GUARD for v in A.flat):
        M = A.astype(np.int64)
        L = np.eye(nrows, dtype=np.int64)
        R = np.eye(ncols, dtype=np.int64)
    else:
        M = A.copy()
        L = np.eye(nrows, dtype=object)
        R = np.eye(ncols, dtype=object)

    def upcast_if_needed():
        nonlocal M, L, R
        if M.dtype == object:
            return
        if (
            np.abs(M).max(initial=0) >= _INT64_GUARD
            or np.abs(L).max(initial=0) >= _INT64_GUARD
            or np.abs(R).max(initial=0) >= _INT64_GUARD
        ):
            M = M.astype(object)
            L = L.astype(object)
            R = R.astype(object)

    def eliminate(k: int) -> bool:
        """Clear row and column k; False when M[k:, k:] is all zero."""
        nonlocal M, L, R
        while True:
            pos = _pivot_position(M, k)
            if pos is None:
                return False
            i, j = pos
            if i != k:
                M[[k, i]] = M[[i, k]]
                L[[k, i]] = L[[i, k]]
            if j != k:
                M[:, [k, j]] = M[:, [j, k]]
                R[:, [k, j]] = R[:, [j, k]]
            if M[k, k] < 0:
                M[k] = -M[k]
                L[k] = -L[k]
            pivot = M[k, k]
            upcast_if_needed()
            changed = False
            q = M[k + 1:, k] // pivot
            if np.any(q != 0):
                M[k + 1:, :] -= q[:, None] * M[k, :]
                L[k + 1:, :] -= q[:, None] * L[k, :]
                changed = True
            if np.any(M[k + 1:, k] != 0):
                continue
            upcast_if_needed()
            q = M[k, k + 1:] // pivot
            if np.any(q != 0):
                M[:, k + 1:] -= M[:, k:k + 1] * q[None, :]
                R[:, k + 1:] -= R[:, k:k + 1] * q[None, :]
                changed = True
            if np.any(M[k, k + 1:] != 0):
                continue
            return True

    rank = 0
    for k in range(min(nrows, ncols)):
        if not eliminate(k):
            break
        rank += 1

    # Enforce the divisibility chain d_1 | d_2 | ... with tracked operations.
    # Re-eliminating at i can fill M[i + 1:, i + 1:] again, so every later
    # position is eliminated anew.
    done = False
    while not done:
        done = True
        for i in range(rank - 1):
            if M[i + 1, i + 1] % M[i, i]:
                M[:, i] += M[:, i + 1]
                R[:, i] += R[:, i + 1]
                upcast_if_needed()
                for k in range(i, rank):
                    eliminate(k)
                done = False
                break
    for i in range(rank):
        if M[i, i] < 0:  # gcd steps can leave a sign behind the pivot
            M[i] = -M[i]
            L[i] = -L[i]

    factors = tuple(int(M[i, i]) for i in range(rank))
    if not all(d > 0 for d in factors):
        raise AssertionError("invariant factor is not positive")
    if np.count_nonzero(M) != rank:
        raise AssertionError("the reduced matrix is not diagonal")
    if not all(factors[i + 1] % factors[i] == 0 for i in range(rank - 1)):
        raise AssertionError("invariant factors do not form a divisibility chain")
    if not np.array_equal(_product_check(L, original, R), M.astype(object)):
        raise AssertionError("transform check failed")
    return SmithDecomposition(
        invariant_factors=factors,
        rank=rank,
        left=L,
        right=R,
        diagonal=M,
    )


# ------------------------------------------- sparse unit-pivot reduction

SparseRow = dict[int, int]


def _subtract(
    target: SparseRow, f: int, source: SparseRow, holders: list[set[int]], owner: int
) -> None:
    """target -= f * source in place; holders[j] tracks the rows nonzero at j."""
    for j, v in source.items():
        w = target.get(j, 0) - f * v
        if w:
            target[j] = w
            holders[j].add(owner)
        else:  # f * v != 0, so j was present
            del target[j]
            holders[j].discard(owner)


def _eliminate_unit_pivots(
    A: np.ndarray,
) -> tuple[list[SparseRow], list[tuple[int, int, int]], list[tuple[int, int]]]:
    """Phase one: clear every column that some row can pivot on with +-1.

    Rows are dicts of Python ints, so nothing overflows.  Sweeps the live
    rows by (nnz, index); in each row it takes the unit column held by the
    fewest live rows (ties by column index), subtracts multiples of the row
    from the other rows holding that column, then drops the row and the
    column.  Sweeps repeat until one finds no unit entry.

    Returns (rows, ops, pivots): rows[i] is row i as phase one left it, ops
    lists each update row s -= f * row r as (s, r, f), and pivots lists
    (row, column) in pivot order.  A pivot row is never touched after its
    pivot step, so A = F @ rows, F the identity plus f at (s, r) per op.
    """
    nrows, ncols = A.shape
    rows = [
        {int(j): int(A[i, j]) for j in np.flatnonzero(A[i])} for i in range(nrows)
    ]
    holders: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    live = set(range(nrows))
    ops: list[tuple[int, int, int]] = []
    pivots: list[tuple[int, int]] = []
    progress = True
    while progress:
        progress = False
        for r in sorted(live, key=lambda i: (len(rows[i]), i)):
            units = [j for j, v in rows[r].items() if v == 1 or v == -1]
            if not units:
                continue
            c = min(units, key=lambda j: (len(holders[j]), j))
            sign = rows[r][c]
            live.discard(r)
            for j in rows[r]:
                holders[j].discard(r)
            for s in sorted(holders[c]):
                f = rows[s][c] * sign
                _subtract(rows[s], f, rows[r], holders, s)
                ops.append((s, r, f))
            pivots.append((r, c))
            progress = True
    return rows, ops, pivots


def _unit_pivot_residual(A: np.ndarray) -> tuple[int, np.ndarray]:
    """(number of unit pivots k, residual R) with A equivalent to I_k (+) R.

    Certificate, from the phase-one multipliers, as array code on the
    nonzeros of the final rows M: every op reads a row earlier in the order
    (pivot rows in pivot order, then the others), so F is unit lower
    triangular; and subtracting M and then f * M[r] from row s, for each op,
    leaves A - F @ M, which must vanish.  That runs on int64 when
    |M| (1 + sum |f|), which bounds every partial sum of F @ M, is below
    2^63, and on Python ints otherwise.  In M the pivot rows on the pivot
    columns form an upper triangular block with +-1 on the diagonal, and the
    other rows vanish on every pivot column.  So column operations split M
    into I_k (+) R, where R is the surviving rows on the surviving columns.
    The all-zero rows of R are dropped, which leaves its SNF unchanged.
    """
    nrows, ncols = A.shape
    rows, ops, pivots = _eliminate_unit_pivots(A)
    k = len(pivots)
    pivot_rows = np.array([r for r, _ in pivots], dtype=np.intp)
    pivot_cols = np.array([c for _, c in pivots], dtype=np.intp)
    if len(np.unique(pivot_rows)) < k or len(np.unique(pivot_cols)) < k:
        raise AssertionError("a pivot row or column repeats")
    step_of_row = np.full(nrows, -1, dtype=np.intp)
    step_of_row[pivot_rows] = np.arange(k)
    step_of_col = np.full(ncols, -1, dtype=np.intp)
    step_of_col[pivot_cols] = np.arange(k)
    order = step_of_row.copy()
    survivors = order < 0
    order[survivors] = np.arange(k, nrows)
    s, r, f = (list(column) for column in zip(*ops)) if ops else ([], [], [])
    s = np.array(s, dtype=np.intp)
    r = np.array(r, dtype=np.intp)
    if (order[r] >= order[s]).any():
        raise AssertionError("a row operation reads a later row")

    # M's nonzeros, row by row: row i holds cols and values [start[i], start[i + 1])
    counts = np.fromiter(map(len, rows), dtype=np.intp, count=nrows)
    start = np.concatenate(([0], np.cumsum(counts)))
    row_of = np.repeat(np.arange(nrows), counts)
    cols = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=int(start[-1]))
    values = list(chain.from_iterable(row.values() for row in rows))
    bound = max(map(abs, values), default=0) * (1 + sum(map(abs, f)))
    dtype = np.int64 if bound < 2 ** 63 else object
    values = np.array(values, dtype=dtype)
    f = np.array(f, dtype=dtype)

    residue = A.astype(dtype)
    residue[row_of, cols] -= values
    # the ops of one pivot step read one row r and come one after another
    cuts = [0, *(np.flatnonzero(np.diff(r)) + 1), len(r)] if ops else []
    for a, b in zip(cuts, cuts[1:]):
        read = slice(start[r[a]], start[r[a] + 1])
        np.subtract.at(residue, (s[a:b, None], cols[read]), f[a:b, None] * values[read])
    if residue.any():
        raise AssertionError("row transform check failed")

    i, j = step_of_row[row_of], step_of_col[cols]
    in_block = (i >= 0) & (j >= 0)
    if (i[in_block] > j[in_block]).any():
        raise AssertionError("pivot block is not triangular")
    diagonal = in_block & (i == j)
    if np.count_nonzero(diagonal) != k or (np.abs(values[diagonal]) != 1).any():
        raise AssertionError("unit pivot check failed")
    if ((i < 0) & (j >= 0)).any():
        raise AssertionError("a pivot column survived")
    rest = i < 0
    keep_cols = np.flatnonzero(step_of_col < 0)
    kept_rows, at = np.unique(row_of[rest], return_inverse=True)
    residual = np.zeros((len(kept_rows), len(keep_cols)), dtype=dtype)
    residual[at, np.searchsorted(keep_cols, cols[rest])] = values[rest]
    return k, residual


def _add_rows(
    M: np.ndarray, targets: np.ndarray, q: np.ndarray, p: int
) -> np.ndarray:
    """M[targets] += q * M[p], first moving M to Python ints when an int64
    entry could reach 2^63; returns M, which may be a new array."""
    if M.dtype != object and (
        _entry_max(q) * _entry_max(M[p]) + _entry_max(M[targets]) >= 2 ** 63
    ):
        M = M.astype(object)
    M[targets] += q.astype(M.dtype)[:, None] * M[p]
    return M


def _row_lattice_echelon(
    R: np.ndarray,
) -> tuple[np.ndarray, list[tuple[int, np.ndarray, np.ndarray]], list[int]]:
    """Row-echelon basis of the lattice spanned by R's rows.

    Column by column, the live row p with the least nonzero |entry| (ties
    by index) reduces every other live row T nonzero there by T -= q * p,
    q = T // p on that column, which leaves |T| < |p| there.  Once p is the
    only live row left in the column it becomes a basis row and leaves the
    live rows.

    Returns (M, ops, basis): M is R after the ops, ops lists each step as
    (p, T, q), and basis lists the basis rows in column order.  Every row of
    M outside the basis is zero.
    """
    M = R.copy()
    live = np.ones(len(M), dtype=bool)
    ops: list[tuple[int, np.ndarray, np.ndarray]] = []
    basis: list[int] = []
    for c in range(M.shape[1]):
        while True:
            hits = np.flatnonzero(live & (M[:, c] != 0))
            if not len(hits):
                break
            p = int(hits[np.argmin(np.abs(M[hits, c]))])
            targets = hits[hits != p]
            if not len(targets):
                live[p] = False
                basis.append(p)
                break
            q = M[targets, c] // M[p, c]
            M = _add_rows(M, targets, -q, p)
            ops.append((p, targets, q))
    return M, ops, basis


def _row_lattice_basis(R: np.ndarray) -> np.ndarray:
    """Rows spanning the same lattice as R's rows, as many as R's rank.

    Certificate: no op updates its own pivot row, so each is unimodular;
    replaying the ops in reverse (T += q * p) on the final rows rebuilds R
    exactly; and no row outside the basis survives.  So R and the basis
    have the same rank and invariant factors.
    """
    M, ops, basis = _row_lattice_echelon(R)
    n = len(M)
    rebuilt = M.copy()
    for p, targets, q in reversed(ops):
        if (np.asarray(targets) % n == p % n).any():
            raise AssertionError("a row operation updates its own pivot row")
        rebuilt = _add_rows(rebuilt, targets, q, p)
    if not np.array_equal(rebuilt, R):
        raise AssertionError("row lattice check failed")
    outside = np.ones(n, dtype=bool)
    outside[basis] = False
    if M[outside].any():
        raise AssertionError("a row outside the basis survived")
    return M[basis]


def smith_invariants(
    matrix: Sequence[Sequence[int]] | np.ndarray,
) -> tuple[int, tuple[int, ...]]:
    """(rank, invariant factors) of an integer matrix, without transforms.

    Two phases: sparse elimination of the +-1 pivots (each contributes an
    invariant factor 1), then the dense `smith_normal_form` of an echelon
    basis of the residual's row lattice, which keeps its own transform
    check.  Equal to the rank and invariant factors of
    `smith_normal_form(matrix)`.
    """
    if isinstance(matrix, np.ndarray) and matrix.dtype == np.int64:
        A = matrix
    else:
        A = np.array(matrix, dtype=object)
    if A.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    units, residual = _unit_pivot_residual(A)
    snf = smith_normal_form(_row_lattice_basis(residual))
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

    @property
    def first_betti(self) -> int:
        return self.free_rank

    def to_dict(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def first_homology(p: Presentation, hom: Homomorphism) -> HomologyInvariants:
    """H_1 of the kernel of hom as an abstract abelian group."""
    t = schreier_transversal(hom)
    matrix = abelianized_relator_matrix(p, hom, t)
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
    """(H_1 of the covering surface, maximality flag free_rank == 4b)."""
    ok, diag = verify_structure(G, s.elements, s.stype)
    if not ok:
        raise ValueError(f"not a structure: {diag}")
    if not k_subgroups(s).strong:
        raise ValueError("structure is not strong: base genera would differ")
    p = orbifold_presentation(s.stype.b, s.stype.n)
    hom = Homomorphism(p, G, s.elements)
    invariants = first_homology(p, hom)
    return invariants, invariants.free_rank == 4 * s.stype.b
