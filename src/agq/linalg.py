"""Dense linear algebra over a Field, on numpy index matrices: one forward
elimination gives every rank, and its recorded transform every null space."""

from __future__ import annotations

import numpy as np

from .gf import Field


# float64 holds every integer below 2^53 exactly: the largest partial sum of
# one inner slice of `matmul`, plus a carried residue, stays below this bound.
EXACT_SUM_BOUND = 1 << 53
# Entries of each row block's float temporaries in `matmul`.  At 2^15 (256 KB
# arrays) the allocator reuses the blocks' memory from call to call, while
# 1 MB arrays are mapped afresh and page-fault on every call: a 2000x35 @
# 35x28 product over GF(25) takes no minor faults and 1.1 ms instead of 838
# and 2.5 ms (one BLAS thread, 2-vCPU VM).
BLOCK_ENTRIES = 1 << 15
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

    Memory: only the smaller side is expanded.  When the (k*e, n*e)
    expansion of B exceeds the (k*e, m*e) one of A^T by more than
    BLOCK_ENTRIES entries, A and B trade roles, and B^T A^T is written
    into the transpose of the C-contiguous (m, n) result.  The side not
    expanded is taken in blocks of rows whose float temporaries, rows x
    k*e and rows x e times the other side's columns, hold about
    BLOCK_ENTRIES entries each.  Besides the result and the one
    expansion, nothing larger is allocated; no m*k*n array exists.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    B = np.atleast_2d(np.asarray(B, dtype=np.int64))
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch: {A.shape} @ {B.shape}")
    (m, k), n, p, e = A.shape, B.shape[1], F.p, F.e
    out = np.zeros((m, n), dtype=np.int64)
    if out.size == 0 or k == 0:
        return out
    target = out
    if (n - m) * k * e * e > BLOCK_ENTRIES:
        A, B, m, n, target = B.T, A.T, n, m, out.T
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
        target[r0:r0 + rows] = digits.reshape(-1, n, e) @ F._pows
    return out


def _eliminate(F: Field, A, transform: bool = False):
    """Forward Gaussian elimination on a copy of A; returns (R, pivots), and
    with `transform` also `origin`, the row of A that each row of R began as.
    `pivots` are the pivot columns of A: the columns that are not in the
    span of the columns before them.

    The one elimination loop of the package, with one clearing mode: only
    the rows below each pivot are cleared, which leaves a row echelon form.
    Each pivot step is an AXPY, row <- row + g * pivot row, as in
    FFLAS-FFPACK (Dumas, Giorgi, Pernet, ACM TOMS 2008), made for the whole
    slice R[row:, col:] of the pivot row and the rows below it at once.  A
    row whose column entry is c takes the factor g = -c/a, where a leads
    the pivot row; the pivot row itself takes 0 and keeps its lead, and
    rows whose factor is 0 get zero products added, which leaves them as
    they were.  These rows are zero left of the pivot column, so the
    columns from the pivot column on are all that change.  Any nonzero
    entry of the column may be the pivot: the pivot columns do not depend
    on the choice.  So the pivot is the row itself when its entry is
    nonzero, which needs no swap, and otherwise the row below with the
    largest entry, one `argmax`.

    In a field of order at most ADD_TABLE_MAX, R is held in the compact
    dtype of `Field._row_tables`.  A step then gathers the `order`
    multiples of the pivot row once, from the rows of the multiplication
    table at its entries, and takes one of those multiples per factor.  In
    characteristic 2 the products are XORed into R in place; otherwise
    they are multiples of the order, so R + products indexes the flat
    addition table.  Larger fields step with one outer-product `vmul`
    and one `vadd` on int64.  R keeps the compact dtype.

    With `transform`, the steps also record each row's multiples of the
    pivot rows, as in the rank-profile elimination of Dumas, Pernet and
    Sultan (ISSAC 2013).  R gets min(m, n) extra columns, zero at first,
    in which pivots are never sought.  Step t puts a 1 in extra column t
    of its pivot row before the update, and the update carries the pivot
    row's extra columns with the rest, up to column t, the last one it
    has filled.  So, with W = R[:, n:], row i of R is, in its first n
    columns, sum_t W[i, t] times row origin[t] of A when i is a pivot
    row, and row origin[i] of A plus that sum when it is not.
    """
    tables = F._row_tables
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    m, n = A.shape
    R = np.zeros((m, n + min(m, n) * transform), dtype=np.int64 if tables is None else tables[0].dtype)
    R[:, :n] = A
    origin = np.arange(m)
    pivots = []
    row = 0
    # -1/a is exp(log(-1) - log a), and -1 is the GF(p) element p - 1
    log_minus_one, units = F._log[F.p - 1], F.order - 1
    for col in range(n):
        if row >= m:
            break
        piv = row if R[row, col] else row + int(R[row:, col].argmax())
        a = int(R[piv, col])
        if a == 0:
            continue
        if piv != row:
            R[[row, piv]] = R[[piv, row]]
            origin[[row, piv]] = origin[[piv, row]]
        if transform:
            R[row, n + row] = 1
        neg_inv = F._exp[(log_minus_one - F._log[a]) % units]
        # the pivot row is zero past extra column `row`
        stop = n + row + 1 if transform else n
        if tables is None:
            factors = F.vmul(neg_inv, R[row:, col])
            factors[0] = 0
            R[row:, col:stop] = F.vadd(R[row:, col:stop], F.vmul(factors[:, None], R[row, col:stop]))
        else:
            products, multiples, sums = tables
            factors = products[neg_inv].take(R[row:, col])
            factors[0] = 0
            # the multiplication table is symmetric: the rows of the pivot
            # row's entries, transposed, are its multiples
            prods = multiples.take(R[row, col:stop], axis=0).T.take(factors, axis=0)
            if sums is None:
                R[row:, col:stop] ^= prods
            else:
                prods += R[row:, col:stop]
                R[row:, col:stop] = sums.take(prods)
        pivots.append(col)
        row += 1
    return (R, pivots, origin) if transform else (R, pivots)


def pivots_and_transform(F: Field, A):
    """(pivots, T): the pivot columns of the (m, n) matrix A, and an
    invertible (m, m) T with T A = R[:, :n], the row echelon form of one
    forward elimination of A with `transform`.  By its W and origin, with
    r = len(pivots), T[:, origin[:r]] = W[:, :r] and T[i, origin[i]] = 1
    for i >= r.  Up to column order T is [[W_p, 0], [W_z, I]], with W_p unit
    lower triangular, so T is invertible.

    If the first c columns of A hold k pivots, rows k onward of R are zero
    there once the elimination passes them, and later steps only swap and
    combine those rows.  So T[k:] is a basis of the left kernel
    {h : h A[:, :c] = 0}, and T[r:] one of A's.  T is not reduced.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    m, n = A.shape
    R, pivots, origin = _eliminate(F, A, transform=True)
    r = len(pivots)
    T = np.zeros((m, m), dtype=np.int64)
    T[:, origin[:r]] = R[:, n:n + r]
    T[np.arange(r, m), origin[r:]] = 1
    return pivots, T


def rank(F: Field, A) -> int:
    """Rank of A, the number of its pivot columns."""
    return len(_eliminate(F, A)[1])


def right_nullspace(F: Field, A):
    """Basis of {v : A v^T = 0}, as rows of an (n - rank, n) matrix.

    It is the left kernel of A^T, the rows of its `pivots_and_transform`
    past the rank, and so is not in reduced row echelon form.
    """
    pivots, T = pivots_and_transform(F, np.atleast_2d(np.asarray(A, dtype=np.int64)).T)
    return T[len(pivots):]


def normalize_rows(F: Field, A):
    """Scale each nonzero row so that its first nonzero entry is 1.

    Zero rows stay zero.  Two nonzero rows are parallel iff their
    normalized forms are equal.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    lead = A[np.arange(A.shape[0]), (A != 0).argmax(axis=1)]
    return F.vmul(F.vinv(np.where(lead == 0, 1, lead))[:, None], A)


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one opaque byte string, for sorting and lookup."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))[:, 0]


def _column_table(F: Field, H: np.ndarray):
    """(keys, positions): the normalized nonzero columns of H as byte
    strings, sorted stably, and the position of each.

    Two columns are parallel iff their keys are equal, so equal columns
    sit next to each other, the first position first.  None when H has
    no rows.
    """
    if H.shape[0] == 0:
        return None
    columns = normalize_rows(F, H.T).astype(np.uint16)
    positions = np.nonzero(columns.any(axis=1))[0]
    keys = _row_bytes(columns[positions])
    order = np.argsort(keys, kind="stable")
    return keys[order], positions[order]
