"""The dense numpy Smith normal form, kept as an independent oracle for
`ddks.homology.smith_normal_form`, which runs the same elimination on
Python ints with sparse transforms.

Both take the pivot of smallest |entry| (ties row-major), the same floor
quotients, the same divisibility fix-up and the same final sign fix, so on
every input their left, right and diagonal agree entry for entry.  This one
does each operation as one vectorized row or column update on whole
arrays, keeps M, L and R in int64 until an update could overflow, and runs
its transform check over the nonzeros of the input.
"""

from typing import Sequence

import numpy as np

from ddks.homology import SmithDecomposition, _entry_max, _exact_matmul


def _pivot_position(M: np.ndarray, k: int) -> tuple[int, int] | None:
    """Smallest nonzero |entry| in M[k:, k:], ties by row-major position."""
    sub = np.abs(M[k:, k:])
    mask = sub != 0
    if not mask.any():
        return None
    smallest = sub[mask].min()
    r, c = np.argwhere(mask & (sub == smallest))[0]
    return int(r) + k, int(c) + k


def _left_product(L: np.ndarray, A: np.ndarray) -> np.ndarray:
    """L @ A exactly, over the nonzeros of A: column c of the product is
    L[:, rows] @ A[rows, c] over the rows where A[:, c] is nonzero.  Every
    partial sum is at most max|L| max|A| times the most nonzeros in one
    column; int64 when that is below 2^63, else Python ints."""
    cols, rows = np.nonzero(A.T)
    most = int(np.bincount(cols).max(initial=0))
    dtype = np.int64 if _entry_max(L) * _entry_max(A) * most < 2 ** 63 else object
    L, A = L.astype(dtype), A.astype(dtype)
    product = np.zeros((L.shape[0], A.shape[1]), dtype=dtype)
    bounds = np.searchsorted(cols, np.arange(A.shape[1] + 1))
    for c in np.flatnonzero(np.diff(bounds)):
        r = rows[bounds[c]:bounds[c + 1]]
        product[:, c] = L[:, r] @ A[r, c]
    return product


def smith_normal_form(matrix: Sequence[Sequence[int]] | np.ndarray) -> SmithDecomposition:
    """Exact SNF with unimodular transforms: left @ input @ right == diagonal.

    M, L and R each stay int64 until an update could take one of their
    entries to 2^63, and only the array it would overflow moves to Python
    ints.  Each array carries a cap on its entries, which an update by
    multipliers q raises to cap (1 + max|q|); once that could reach 2^63,
    each update bounds exactly the rows (or columns) it touches.
    """
    A = np.array(matrix, dtype=object)
    if A.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    original = A.copy()
    nrows, ncols = A.shape
    M = A.astype(np.int64) if _entry_max(A) < 2 ** 63 else A
    L = np.eye(nrows, dtype=np.int64)
    R = np.eye(ncols, dtype=np.int64)
    caps = [_entry_max(M), 1, 1]  # >= max|entry| of M, L, R

    def add(which, X, targets, q, most, p):
        """X[targets] += q * X[p], X = (M, L, R)[which] or its transpose,
        most = max|q|."""
        caps[which] *= 1 + most
        if caps[which] >= 2 ** 63 and X.dtype != object and (
            most * _entry_max(X[p]) + _entry_max(X[targets]) >= 2 ** 63
        ):
            X = X.astype(object)
        X[targets] += q.astype(X.dtype, copy=False)[:, None] * X[p]
        return X

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
            q = -(M[k + 1:, k] // pivot)
            hit = np.flatnonzero(q)
            if len(hit):
                update = (hit + k + 1, q[hit], _entry_max(q), k)
                M = add(0, M, *update)
                L = add(1, L, *update)
            if np.any(M[k + 1:, k] != 0):
                continue
            q = -(M[k, k + 1:] // pivot)
            hit = np.flatnonzero(q)
            if len(hit):
                update = (hit + k + 1, q[hit], _entry_max(q), k)
                M = add(0, M.T, *update).T
                R = add(2, R.T, *update).T
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
                update = (np.array([i]), np.ones(1, dtype=np.int64), 1, i + 1)
                M = add(0, M.T, *update).T
                R = add(2, R.T, *update).T
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
    if not np.array_equal(_exact_matmul(_left_product(L, original), R), M.astype(object)):
        raise AssertionError("transform check failed")
    return SmithDecomposition(
        invariant_factors=factors,
        rank=rank,
        left=L,
        right=R,
        diagonal=M,
    )
