"""Dense linear algebra over a Field, on numpy index matrices."""

from __future__ import annotations

import numpy as np

from .gf import Field


# float64 holds every integer below 2^53 exactly: the largest partial sum of
# one inner slice of `matmul`, plus a carried residue, stays below this bound.
EXACT_SUM_BOUND = 1 << 53
# Entries of each row block's float temporaries in `matmul`: 1 MB arrays stay
# in cache through the reduction, and still give BLAS blocks of useful size.
BLOCK_ENTRIES = 1 << 17
# Longest table v -> v mod p that `matmul` builds.  Larger sums, as in GF(p)
# for p above about 1000, are reduced with `%` instead.
RESIDUE_TABLE_MAX = 1 << 20


def matmul(F: Field, A, B):
    """Matrix product over F; A is (m, k), B is (k, n).

    Subfield expansion with delayed reduction, as in FFLAS-FFPACK (Dumas,
    Giorgi, Pernet, ACM TOMS 2008).  Writing a = sum_i a_i x^i over the
    polynomial basis, digits(a*b) = sum_i a_i digits(x^i b).  So the digits
    of A B are the integer product of the (m, k*e) digit matrix of A with
    the (k*e, n*e) matrix whose block for b = B[t, j] has rows
    digits(x^i b), i < e, reduced mod p once.  That product is one float64
    BLAS call.

    Exactness: a digit sum of the product is an integer of at most
    k*e*(p-1)^2, exact in float64 while below EXACT_SUM_BOUND (2^53).  A
    longer inner dimension is cut into slices, each slice's sums reduced
    mod p and carried into the next.  The reduction gathers from a
    residue table (a bit mask for p = 2).

    Memory: A is taken in blocks of rows whose float temporaries, rows x
    k*e and rows x n*e, hold about BLOCK_ENTRIES entries each.  Besides
    the (m, n) result and the (k*e, n*e) expansion of B, nothing larger is
    allocated; no m*k*n array exists.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    B = np.atleast_2d(np.asarray(B, dtype=np.int64))
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch: {A.shape} @ {B.shape}")
    (m, k), n, p, e = A.shape, B.shape[1], F.p, F.e
    out = np.zeros((m, n), dtype=np.int64)
    if out.size == 0 or k == 0:
        return out
    # np.take, not fancy indexing: several times faster gathering table rows
    B_hat = np.take(F._digit_floats, np.take(F._x_multiples, B, axis=0), axis=0)
    B_hat = B_hat.transpose(0, 2, 1, 3).reshape(k * e, n * e)
    term = e * (p - 1) ** 2
    width = e * max(1, min(k, (EXACT_SUM_BOUND - p) // term))
    top = width * (p - 1) ** 2 + p - 1
    residues = F._residues(top) if p > 2 and top < RESIDUE_TABLE_MAX else None
    rows = max(1, BLOCK_ENTRIES // (max(k, n) * e))
    for r0 in range(0, m, rows):
        A_hat = np.take(F._digit_floats, A[r0:r0 + rows], axis=0).reshape(-1, k * e)
        digits = None
        for c0 in range(0, k * e, width):
            C = A_hat[:, c0:c0 + width] @ B_hat[c0:c0 + width]
            if digits is not None:
                C += digits
            digits = C.astype(np.int64)
            if p == 2:
                digits &= 1
            elif residues is not None:
                digits = np.take(residues, digits)
            else:
                digits %= p
        out[r0:r0 + rows] = digits.reshape(-1, n, e) @ F._pows
    return out


def _eliminate(F: Field, A, full: bool):
    """Gaussian elimination on a copy of A; returns (R, pivot_columns).

    The one elimination loop of the package.  At each pivot the pivot
    row is scaled to lead with 1, and then every row of the slice
    R[lo:, col:] has its factor times the pivot row subtracted, with one
    outer-product `vmul` and one `vsub`.  The pivot row's own factor is
    zeroed, so it stays as it is, and rows whose factor is 0 subtract
    zeros: the update selects no rows and scatters nothing.  Rows at or
    below the pivot row are zero left of the pivot column, so the columns
    from the pivot column on are all that change.

    With `full`, lo = 0 and every other row is cleared, which gives the
    reduced row echelon form.  Otherwise lo is the pivot row and only the
    rows below it are cleared, which leaves a row echelon form with the
    same pivot columns.
    """
    R = np.atleast_2d(np.asarray(A, dtype=np.int64)).copy()
    m, n = R.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = np.flatnonzero(R[row:, col])
        if len(nz) == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            R[[row, piv]] = R[[piv, row]]
        R[row, col:] = F.vmul(F.inv(int(R[row, col])), R[row, col:])
        lo = 0 if full else row
        factors = R[lo:, col].copy()
        factors[row - lo] = 0
        R[lo:, col:] = F.vsub(R[lo:, col:], F.vmul(factors[:, None], R[row, col:]))
        pivots.append(col)
        row += 1
    return R, pivots


def rref(F: Field, A):
    """Reduced row echelon form; returns (R, pivot_columns).

    R is unique for the row space of A: each pivot row leads with 1 and
    every other row is zero in its pivot column.
    """
    return _eliminate(F, A, full=True)


def pivot_columns(F: Field, A) -> list[int]:
    """The pivot columns of rref(A): the columns of A that are not in the
    span of the columns before them.

    Forward elimination alone finds them, clearing only the rows below
    each pivot, which saves rref's clearing of the rows above it.
    """
    return _eliminate(F, A, full=False)[1]


def rank(F: Field, A) -> int:
    """Rank of A, the number of its pivot columns."""
    return len(pivot_columns(F, A))


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


def normalize_rows(F: Field, A):
    """Scale each nonzero row so that its first nonzero entry is 1.

    Zero rows stay zero.  Two nonzero rows are parallel iff their
    normalized forms are equal.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    lead = A[np.arange(A.shape[0]), (A != 0).argmax(axis=1)]
    return F.vmul(F.vinv(np.where(lead == 0, 1, lead))[:, None], A)
