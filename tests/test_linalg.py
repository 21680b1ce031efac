import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agq.linalg
from agq.gf import Field, field
from agq.linalg import (
    matmul,
    normalize_rows,
    pivot_columns,
    rank,
    right_nullspace,
    rref,
)
from oracles import NaiveField, naive_matmul, naive_rank, naive_row_space_equal, naive_rref


@st.composite
def matrices(draw, order):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 7))
    data = draw(st.lists(st.integers(0, order - 1), min_size=m * n, max_size=m * n))
    return np.array(data, dtype=np.int64).reshape(m, n)


@settings(max_examples=60, deadline=None)
@given(matrices(9))
def test_rank_matches_naive_oracle(A):
    F = field(3, 2)
    nf = NaiveField(3, 2, F.modulus)
    assert rank(F, A) == naive_rank(nf, A.tolist())


@settings(max_examples=60, deadline=None)
@given(matrices(4))
def test_nullspace_annihilates_and_has_complementary_rank(A):
    F = field(2, 2)
    N = right_nullspace(F, A)
    assert N.shape[0] == A.shape[1] - rank(F, A)
    if N.shape[0]:
        assert not matmul(F, A, N.T).any()
        assert rank(F, N) == N.shape[0]


@settings(max_examples=40, deadline=None)
@given(matrices(9))
def test_rref_idempotent_and_preserves_row_space(A):
    F = field(3, 2)
    R, pivots = rref(F, A)
    R2, pivots2 = rref(F, R)
    assert np.array_equal(R, R2) and pivots == pivots2
    assert naive_row_space_equal(NaiveField(3, 2, F.modulus), A, R)


def test_matmul_identity_and_shapes():
    F = field(2, 2)
    A = np.array([[1, 2], [3, 0]], dtype=np.int64)
    I = np.eye(2, dtype=np.int64)
    assert np.array_equal(matmul(F, A, I), A)
    assert np.array_equal(matmul(F, A, [[1], [0]]), A[:, :1])
    with pytest.raises(ValueError):
        matmul(F, A, np.zeros((3, 2), dtype=np.int64))


def test_matmul_against_naive():
    F = field(3, 2)
    nf = NaiveField(3, 2, F.modulus)
    rng = np.random.default_rng(5)
    A = rng.integers(0, 9, size=(3, 4))
    B = rng.integers(0, 9, size=(4, 2))
    C = matmul(F, A, B)
    for i in range(3):
        for j in range(2):
            acc = 0
            for t in range(4):
                acc = nf.add(acc, nf.mul(int(A[i, t]), int(B[t, j])))
            assert acc == C[i, j]


def test_empty_dimensions():
    F = field(2, 2)
    empty = np.zeros((0, 5), dtype=np.int64)
    assert rank(F, empty) == 0
    N = right_nullspace(F, empty)
    assert N.shape == (5, 5)
    assert rank(F, N) == 5


def test_greedy_filter_matches_full_rank():
    F = field(3, 2)
    nf = NaiveField(3, 2, F.modulus)
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = rng.integers(0, 9, size=(6, 5))
        # pivot columns of rref(A^T): the rows independent of those before them
        kept = rref(F, A.T)[1]
        assert kept == [i for i in range(len(A)) if rank(F, A[: i + 1]) > rank(F, A[:i])]
        assert len(kept) == rank(F, A)
        # the kept subset itself has full rank
        assert rank(F, A[kept]) == len(kept)
        # and every row is in the span of the kept subset
        for row in A:
            assert naive_rank(nf, A[kept].tolist() + [row.tolist()]) == len(kept)


@settings(max_examples=40, deadline=None)
@given(matrices(9))
def test_normalize_rows_leads_with_one_and_keeps_row_space(A):
    F = field(3, 2)
    nf = NaiveField(3, 2, F.modulus)
    A = A.copy()
    A[0] = 0  # always include a zero row
    N = normalize_rows(F, A)
    assert not N[0].any()
    for row, norm in zip(A, N):
        nz = np.nonzero(row)[0]
        assert np.array_equal(np.nonzero(norm)[0], nz)
        if len(nz):
            assert norm[nz[0]] == 1
            assert naive_row_space_equal(nf, [row], [norm])
    assert naive_row_space_equal(nf, A, N)


# ---------------------------------------------------------------------------
# the subfield-expansion matmul against the schoolbook product

MATMUL_FIELDS = [(p, e) for p in (2, 3, 5, 7) for e in range(1, 5)]


def _index_matrix(draw, order, rows, cols):
    data = draw(st.lists(st.integers(0, order - 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(data, dtype=np.int64).reshape(rows, cols)


def _check_matmul(F, A, B):
    C = matmul(F, A, B)
    assert C.shape == (A.shape[0], B.shape[1]) and C.dtype == np.int64
    assert C.tolist() == naive_matmul(NaiveField(F.p, F.e, F.modulus), A, B)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MATMUL_FIELDS), st.sampled_from([1, 5, 40, agq.linalg.BLOCK_ENTRIES]), st.data())
def test_matmul_matches_schoolbook(pe, block_entries, data):
    F = field(*pe)
    m, k, n = (data.draw(st.integers(0, 6)) for _ in range(3))
    A = _index_matrix(data.draw, F.order, m, k)
    B = _index_matrix(data.draw, F.order, k, n)
    # small blocks put the m rows into several row blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(agq.linalg, "BLOCK_ENTRIES", block_entries)
        _check_matmul(F, A, B)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 3), st.data())
def test_matmul_inner_split_matches_schoolbook(e, slice_len, data):
    # a lowered exactness bound cuts the inner dimension into slices of
    # slice_len indices, each reduced mod 7 before the next is added
    F = Field(7, e)  # a fresh residue table
    bound = slice_len * e * 6**2 + 7
    m, k, n = data.draw(st.integers(1, 4)), data.draw(st.integers(4, 10)), data.draw(st.integers(1, 4))
    A = _index_matrix(data.draw, F.order, m, k)
    B = _index_matrix(data.draw, F.order, k, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(agq.linalg, "EXACT_SUM_BOUND", bound)
        _check_matmul(F, A, B)
    # no value reduced reached the bound
    assert len(F._residue_table) <= bound


@pytest.mark.parametrize("p", [257, 1031, 65521])
def test_matmul_large_prime_fields(p):
    # 1031 and 65521 have sums past the residue table and reduce with `%`;
    # a row and a column of -1 give the largest sums
    F = field(p)
    rng = np.random.default_rng(p)
    A = rng.integers(0, p, size=(3, 40))
    B = rng.integers(0, p, size=(40, 2))
    A[0], B[:, 0] = p - 1, p - 1
    _check_matmul(F, A, B)


@pytest.mark.parametrize("shape", [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0)])
def test_matmul_empty_shapes(shape):
    F = field(3, 2)
    m, k, n = shape
    C = matmul(F, np.zeros((m, k), dtype=np.int64), np.zeros((k, n), dtype=np.int64) + 1)
    assert C.shape == (m, n) and not C.any()


def test_matmul_many_row_blocks_at_the_default_block_size():
    # m spans several row blocks; each row is one of the 16 rows of GF(4)^2,
    # so the schoolbook product of those 16 rows checks all of them
    F = field(2, 2)
    B = np.array([[1, 2, 3], [3, 0, 2]], dtype=np.int64)
    rows = np.array([[a, b] for a in range(4) for b in range(4)], dtype=np.int64)
    m = 3 * agq.linalg.BLOCK_ENTRIES // (B.shape[1] * F.e) + 5
    which = np.random.default_rng(2).integers(0, len(rows), size=m)
    want = np.array(naive_matmul(NaiveField(2, 2, F.modulus), rows, B))
    assert np.array_equal(matmul(F, rows[which], B), want[which])


def test_matmul_memory_is_bounded():
    # the Hermitian q=8 syndrome shape over GF(256); a product that held the
    # (m, k, n, e) digit array would need 0.54 GB
    F = field(2, 8)
    rng = np.random.default_rng(3)
    A = rng.integers(0, 256, size=(2048, 8))
    B = rng.integers(0, 256, size=(8, 512))
    tracemalloc.start()
    try:
        matmul(F, A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


# ---------------------------------------------------------------------------
# rref against a literal Gauss-Jordan elimination

# GF(4) and GF(256) in characteristic 2, GF(9), GF(25) and GF(49) on the
# addition tables, GF(3^6) on the digit path and log/antilog products
RREF_FIELDS = [(2, 2), (3, 2), (5, 2), (7, 2), (2, 8), (3, 6)]


@st.composite
def rref_cases(draw):
    """A field and an (m, n) matrix, m <= 8 and n <= 9, of rank at most r:
    the product of random (m, r) and (r, n) matrices, with some rows and
    columns then set to zero."""
    F = field(*draw(st.sampled_from(RREF_FIELDS)))
    nf = NaiveField(F.p, F.e, F.modulus)
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 9))
    r = draw(st.integers(0, min(m, n)))
    X = _index_matrix(draw, F.order, m, r)
    Y = _index_matrix(draw, F.order, r, n)
    A = np.array(naive_matmul(nf, X, Y), dtype=np.int64).reshape(m, n)
    A[draw(st.lists(st.integers(0, m - 1), max_size=2)) if m else []] = 0
    A[:, draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else []] = 0
    return F, nf, A


@settings(max_examples=200, deadline=None)
@given(rref_cases())
def test_rref_matches_naive_gauss_jordan(case):
    F, nf, A = case
    R, pivots = rref(F, A)
    want, want_pivots = naive_rref(nf, A.tolist())
    assert R.shape == A.shape and R.dtype == np.int64
    assert R.tolist() == want and pivots == want_pivots


@settings(max_examples=200, deadline=None)
@given(rref_cases())
def test_pivot_columns_and_rank_match_naive_pivots(case):
    # forward elimination alone; A.T puts every wide matrix in tall form
    F, nf, A = case
    for M in (A, A.T):
        want = naive_rref(nf, M.tolist())[1]
        assert pivot_columns(F, M) == want
        assert rank(F, M) == len(want)


def test_rank_memory_is_bounded():
    # the generator shape of the Hermitian q=8 codes' duals over GF(64):
    # the elimination holds a few (m, n) temporaries at most, each 2 MB
    F = field(2, 6)
    A = np.random.default_rng(4).integers(0, 64, size=(496, 512))
    tracemalloc.start()
    try:
        assert rank(F, A) == 496
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
