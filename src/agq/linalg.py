"""Dense linear algebra over a Field, on numpy index matrices."""

from __future__ import annotations

import numpy as np

from .gf import Field


def matmul(F: Field, A, B):
    """Matrix product over F; A is (m, k), B is (k, n)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    B = np.atleast_2d(np.asarray(B, dtype=np.int64))
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch: {A.shape} @ {B.shape}")
    if A.shape[0] == 0 or B.shape[1] == 0 or A.shape[1] == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    prod = F.vmul(A[:, :, None], B[None, :, :])
    return F.vsum(prod, axis=1)


def matvec(F: Field, A, v):
    return matmul(F, A, np.asarray(v, dtype=np.int64).reshape(-1, 1))[:, 0]


def rref(F: Field, A):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = np.atleast_2d(np.asarray(A, dtype=np.int64)).copy()
    m, n = R.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = np.nonzero(R[row:, col])[0]
        if len(nz) == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            R[[row, piv]] = R[[piv, row]]
        R[row] = F.vscale(F.inv(int(R[row, col])), R[row])
        others = np.nonzero(R[:, col])[0]
        others = others[others != row]
        R[others] = F.vsub(R[others], F.vmul(R[others, col][:, None], R[row]))
        pivots.append(col)
        row += 1
    return R, pivots


def rank(F: Field, A) -> int:
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    if A.size == 0:
        return 0
    _, pivots = rref(F, A)
    return len(pivots)


def row_basis(F: Field, A):
    """Canonical (rref) basis of the row space, zero rows stripped."""
    R, pivots = rref(F, A)
    return R[: len(pivots)]


def right_nullspace(F: Field, A):
    """Basis of {v : A v^T = 0}, as rows of an (n - rank, n) matrix."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    n = A.shape[1]
    R, pivots = rref(F, A)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = F.vneg(R[: len(pivots)][:, free].T)
    return basis


def row_space_equal(F: Field, A, B) -> bool:
    RA = row_basis(F, A)
    RB = row_basis(F, B)
    return RA.shape == RB.shape and bool(np.array_equal(RA, RB))


def in_row_space(F: Field, A, v) -> bool:
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    stacked = np.vstack([A, np.asarray(v, dtype=np.int64).reshape(1, -1)])
    return rank(F, stacked) == rank(F, A)


def normalize_rows(F: Field, A):
    """Scale each nonzero row so that its first nonzero entry is 1.

    Zero rows stay zero.  Two nonzero rows are parallel iff their
    normalized forms are equal.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    lead = A[np.arange(A.shape[0]), (A != 0).argmax(axis=1)]
    return F.vmul(F.vinv(np.where(lead == 0, 1, lead))[:, None], A)
