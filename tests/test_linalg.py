import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agq.gf import field
from agq.linalg import (
    in_row_space,
    matmul,
    matvec,
    normalize_rows,
    rank,
    right_nullspace,
    row_basis,
    row_space_equal,
    rref,
)
from oracles import NaiveField, naive_rank


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
    assert row_space_equal(F, A, R)


def test_matmul_identity_and_shapes():
    F = field(2, 2)
    A = np.array([[1, 2], [3, 0]], dtype=np.int64)
    I = np.eye(2, dtype=np.int64)
    assert np.array_equal(matmul(F, A, I), A)
    assert np.array_equal(matvec(F, A, [1, 0]), A[:, 0])
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


def test_in_row_space():
    F = field(2, 2)
    A = np.array([[1, 0, 1], [0, 1, 2]], dtype=np.int64)
    v = F.vadd(A[0], F.vscale(3, A[1]))
    assert in_row_space(F, A, v)
    assert not in_row_space(F, A, [0, 0, 1])


def test_greedy_filter_matches_full_rank():
    F = field(3, 2)
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
            assert in_row_space(F, A[kept], row)


@settings(max_examples=40, deadline=None)
@given(matrices(9))
def test_normalize_rows_leads_with_one_and_keeps_row_space(A):
    F = field(3, 2)
    A = A.copy()
    A[0] = 0  # always include a zero row
    N = normalize_rows(F, A)
    assert not N[0].any()
    for row, norm in zip(A, N):
        nz = np.nonzero(row)[0]
        assert np.array_equal(np.nonzero(norm)[0], nz)
        if len(nz):
            assert norm[nz[0]] == 1
            assert row_space_equal(F, row.reshape(1, -1), norm.reshape(1, -1))
    assert row_space_equal(F, A, N)
