import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agq.linalg
from agq.agcode import build_onepoint_code
from agq.curve import hermitian_curve
from agq.gf import Field, field
from agq.linalg import (
    _eliminate,
    matmul,
    normalize_rows,
    pivots_and_transform,
    rank,
    right_nullspace,
)
from oracles import NaiveField, TabledField, naive_matmul, naive_rank, naive_row_space_equal, naive_rref


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
        # pivot columns of A^T: the rows independent of those before them
        kept = pivots_and_transform(F, A.T)[0]
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


def test_matmul_row_block_temporaries_are_small():
    # the sweep's syndrome product: 2000 received words of the [35, 7] code
    # over GF(25) times its 35 x 28 transposed parity check.  Beyond the
    # output, the row blocks' float temporaries stay under 1.5 MiB
    F = field(5, 2)
    rng = np.random.default_rng(4)
    A = rng.integers(0, 25, size=(2000, 35))
    B = rng.integers(0, 25, size=(35, 28))
    matmul(F, A[:1], B)  # the field's digit tables, built once
    tracemalloc.start()
    try:
        out = matmul(F, A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 1.5 * 2**20


def _matmul_peak(F, A, B):
    tracemalloc.start()
    try:
        out = matmul(F, A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("below_rule", [False, True])
def test_matmul_expands_the_smaller_side(monkeypatch, below_rule):
    # a row times a 64 x 64 matrix over GF(256): B's expansion is 512 x 512
    # floats, 2 MiB, and A^T's 512 x 8.  It is traded when the difference,
    # (n - m) k e^2 = 63 * 64 * 64 entries, exceeds BLOCK_ENTRIES, and not
    # when it equals it.  Either way the product is the schoolbook's, and a
    # C-contiguous (m, n) array; transposed views go in as well
    F = field(2, 8)
    difference = 63 * 64 * 64
    monkeypatch.setattr(agq.linalg, "BLOCK_ENTRIES", difference - 1 + below_rule)
    rng = np.random.default_rng(6)
    A = rng.integers(0, 256, size=(1, 64))
    B = rng.integers(0, 256, size=(64, 64)).T
    matmul(F, A, B)  # the field's digit tables, built once
    out, peak = _matmul_peak(F, A, B)
    assert out.shape == (1, 64) and out.flags.c_contiguous
    assert out.tolist() == naive_matmul(NaiveField(2, 8, F.modulus), A, B)
    assert (peak > 2 << 20) if below_rule else (peak < 1 << 20)


@pytest.mark.parametrize("pe", [(2, 2), (3, 2), (5, 1), (2, 4)])
def test_matmul_is_the_schoolbook_product_on_both_sides_of_the_trade(pe):
    # at the default block size, with m = 3 and k = 16: n = n0 sits on the
    # rule, (n - m) k e^2 = BLOCK_ENTRIES, and n0 + 1 is past it
    F = field(*pe)
    tf = TabledField(F.p, F.e, F.modulus)
    m, k = 3, 16
    n0 = m + agq.linalg.BLOCK_ENTRIES // (k * F.e**2)
    rng = np.random.default_rng(F.order)
    for n in (n0, n0 + 1):
        A = rng.integers(0, F.order, size=(m, k))
        B = rng.integers(0, F.order, size=(k, n))
        out = matmul(F, A, B)
        assert out.shape == (m, n) and out.flags.c_contiguous
        assert out.tolist() == naive_matmul(tf, A, B)


def test_a_certificate_expands_the_generator_not_the_parity_check():
    # G H^T of [512, 3] over GF(64), as `simulator._decoder_table` makes it:
    # H^T's expansion would be 3072 x 3054 floats, 75 MB, and G^T's is
    # 3072 x 18
    code = build_onepoint_code(hermitian_curve(8), 9)
    assert (code.n, code.k) == (512, 3)
    out, peak = _matmul_peak(code.field, code.generator, code.parity_check.T)
    assert out.shape == (3, 509) and not out.any()
    assert peak < 8 << 20


# ---------------------------------------------------------------------------
# forward elimination against a literal Gauss-Jordan elimination

# GF(4) and GF(256) in characteristic 2, whose uint8 rows add by XOR;
# GF(3), GF(9), GF(25) and GF(49), whose uint8 rows add through the
# addition table; GF(3^6) and the prime field GF(257), above ADD_TABLE_MAX,
# on int64 rows with the digit path and log/antilog products
RREF_FIELDS = [(2, 2), (3, 1), (3, 2), (5, 2), (7, 2), (2, 8), (3, 6), (257, 1)]


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
def test_pivot_columns_and_rank_match_naive_pivots(case):
    # forward elimination alone; A.T puts every wide matrix in tall form
    F, nf, A = case
    for M in (A, A.T):
        want = naive_rref(nf, M.tolist())[1]
        assert pivots_and_transform(F, M)[0] == want
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


# tall, wide and square shapes of planted rank, with a zero row and a zero
# column: (rows, columns, rank)
SEEDED_RREF_SHAPES = [(40, 25, 17), (25, 40, 18), (40, 40, 31), (33, 38, 0), (12, 40, 12)]


@pytest.mark.parametrize("pe", RREF_FIELDS)
def test_rref_and_pivots_match_naive_on_larger_seeded_matrices(pe):
    F = field(*pe)
    nf = TabledField(F.p, F.e, F.modulus)
    rng = np.random.default_rng(F.order)
    for m, n, r in SEEDED_RREF_SHAPES:
        # any matrix will do, so agq's own product plants the rank
        A = matmul(F, rng.integers(0, F.order, size=(m, r)), rng.integers(0, F.order, size=(r, n)))
        A[rng.integers(m)] = 0
        A[:, rng.integers(n)] = 0
        want, want_pivots = naive_rref(nf, A.tolist())
        R, pivots = _eliminate(F, A)
        assert pivots == want_pivots and pivots_and_transform(F, A)[0] == want_pivots
        # a row echelon form: row i leads at pivot i, the rows past the rank
        # are zero, and it keeps the row space, so its rref is A's
        assert not R[len(pivots):].any()
        for i, col in enumerate(pivots):
            assert R[i, col] and not R[i, :col].any()
        assert R.shape == A.shape and naive_rref(nf, R.tolist())[0] == want


def test_row_tables_are_built_on_first_elimination():
    A = np.array([[1, 2], [2, 1]], dtype=np.int64)
    for p, e in [(2, 2), (7, 2), (3, 6)]:
        F = Field(p, e)
        assert "_row_tables" not in vars(F)
        rank(F, A)
        assert "_row_tables" in vars(F)
    # GF(3^6), of order above ADD_TABLE_MAX, eliminates on int64
    assert F._row_tables is None


@pytest.mark.parametrize("eliminate", [rank, pivots_and_transform])
def test_elimination_memory_is_bounded(eliminate):
    # 512 x 512 over GF(256): R is held as uint8, 256 KiB, or 512 KiB with
    # the transform's extra columns, and the transform T itself is 2 MiB of
    # int64.  The field's tables, built once per field, are built before
    # measuring.
    F = field(2, 8)
    A = np.random.default_rng(6).integers(0, 256, size=(512, 512))
    rank(F, A[:2])
    tracemalloc.start()
    try:
        eliminate(F, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


# ---------------------------------------------------------------------------
# pivots and transform from one elimination: past the pivots of each column
# prefix, the rows of T are a basis of that prefix's left kernel


def _check_transform(F, nf, M, naive_ranks=True):
    pivots, T = pivots_and_transform(F, M)
    m, n = M.shape
    assert T.shape == (m, m) and T.dtype == np.int64
    TM = np.array(naive_matmul(nf, T, M), dtype=np.int64).reshape(m, n)
    # a row echelon form: row i leads at pivot i
    for i, col in enumerate(pivots):
        assert TM[i, col] and not TM[i, :col].any()
    # the rows past the k pivots left of column c are zero left of it, so
    # T[k:] annihilates M[:, :c]; at c = n, T[rank:] annihilates M
    for c in range(n + 1):
        k = sum(col < c for col in pivots)
        assert not TM[k:, :c].any()
    # T is invertible, so those m - k rows are independent
    if naive_ranks:
        assert pivots == naive_rref(nf, M.tolist())[1]
        assert naive_rank(nf, T.tolist()) == m
    else:
        # the pivots of rank's elimination and `rank` are checked against
        # the oracle above
        assert pivots == _eliminate(F, M)[1] and rank(F, T) == m


@settings(max_examples=200, deadline=None)
@given(rref_cases())
def test_left_kernel_annihilates_and_has_complementary_rank(case):
    F, nf, A = case
    for M in (A, A.T):
        _check_transform(F, nf, M)


@pytest.mark.parametrize("pe", RREF_FIELDS)
def test_left_kernel_matches_naive_on_larger_seeded_matrices(pe):
    F = field(*pe)
    nf = TabledField(F.p, F.e, F.modulus)
    rng = np.random.default_rng(F.order + 1)
    for m, n, r in SEEDED_RREF_SHAPES:
        A = matmul(F, rng.integers(0, F.order, size=(m, r)), rng.integers(0, F.order, size=(r, n)))
        A[rng.integers(m)] = 0
        A[:, rng.integers(n)] = 0
        _check_transform(F, nf, A, naive_ranks=False)
