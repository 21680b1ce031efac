from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agq.curve import enumerate_points, hermitian_curve, superelliptic_curve
from agq.rrspace import (
    candidate_count,
    candidate_monomials,
    dimension_by_cases,
    dimension_report,
    evaluation_matrix,
    verified_basis,
)
from oracles import NaiveField, TabledField, naive_rank, semigroup


# ---------------------------------------------------------------------------
# candidate monomials and the counting function


def test_hermitian_q2_r3_candidates(herm2):
    basis = candidate_monomials(herm2, 3)
    assert set(basis.monomials) == {(0, 0), (1, 0), (0, 1)}  # {1, x, y}
    assert basis.pole_orders == (0, 2, 3)
    assert not basis.verified


def test_negative_r_empty(se33):
    assert candidate_monomials(se33, -1).monomials == ()
    assert candidate_count(se33, -1) == 0


def test_se33_r2_candidates(se33):
    assert candidate_monomials(se33, 2).monomials == ((0, 0), (1, 0))
    assert candidate_count(se33, 2) == 2


def naive_count(curve, r):
    # direct double loop, independent of the package's arithmetic count
    total = 0
    for j in range(curve.q):
        for i in range(0, max(0, r) + 1):
            if i * curve.pole_order_x + j * curve.pole_order_y <= r:
                total += 1
    return total


@pytest.mark.parametrize("make", [lambda: superelliptic_curve(3, 3), lambda: hermitian_curve(2),
                                  lambda: superelliptic_curve(5, 2)])
def test_count_equals_list_length_and_naive(make):
    curve = make()
    for r in range(-3, 31):
        n_list = len(candidate_monomials(curve, r))
        assert n_list == candidate_count(curve, r)
        assert n_list == naive_count(curve, r)


def test_count_nondecreasing_with_bounded_increments(se33):
    values = [candidate_count(se33, r) for r in range(-1, 21)]
    for prev, cur in zip(values, values[1:]):
        assert 0 <= cur - prev <= 3


def test_monomials_sorted_by_pole_order(se33):
    basis = candidate_monomials(se33, 12)
    assert list(basis.pole_orders) == sorted(basis.pole_orders)
    assert len(set(basis.monomials)) == len(basis.monomials)


@settings(max_examples=40, deadline=None)
@given(st.integers(-5, 40))
def test_count_matches_list_hypothesis(r):
    curve = superelliptic_curve(3, 3)
    assert len(candidate_monomials(curve, r)) == candidate_count(curve, r)


# ---------------------------------------------------------------------------
# verified bases


def test_hermitian_r3_all_retained(herm2):
    pts = enumerate_points(herm2)
    basis = verified_basis(herm2, 3, pts)
    assert basis.verified
    assert basis.monomials == ((0, 0), (1, 0), (0, 1))
    assert basis.dropped == ()


def test_saturation_retains_point_count(herm2):
    pts = enumerate_points(herm2)
    basis = verified_basis(herm2, 30, pts)
    assert len(basis) == len(pts) == 8
    assert len(basis.dropped) == candidate_count(herm2, 30) - 8


def test_retained_count_equals_independent_rank(se33):
    pts = enumerate_points(se33)
    F = se33.tower.ext
    nf = NaiveField(F.p, F.e, F.modulus)
    for r in (0, 2, 5, 6, 9, 15, 16):
        cand = candidate_monomials(se33, r)
        basis = verified_basis(se33, r, pts)
        matrix = evaluation_matrix(se33, cand.monomials, pts)
        assert len(basis) == naive_rank(nf, matrix.tolist())
        assert set(basis.monomials) | set(basis.dropped) == set(cand.monomials)


def test_dropped_monomial_at_r6(se33):
    # pole order 6 is hit twice ((3,0) and (0,2)); one of them must drop
    pts = enumerate_points(se33)
    basis = verified_basis(se33, 6, pts)
    assert len(basis) == 6
    assert len(basis.dropped) == 1
    assert basis.dropped[0] in {(3, 0), (0, 2)}


def test_verified_basis_rejects_bad_points(se33):
    with pytest.raises(ValueError):
        verified_basis(se33, 3, [])
    with pytest.raises(ValueError):
        verified_basis(se33, 3, np.zeros((0, 2), dtype=np.int64))  # empty set
    with pytest.raises(ValueError):
        verified_basis(se33, 3, np.zeros((4, 3), dtype=np.int64))  # wrong shape
    with pytest.raises(ValueError):
        verified_basis(se33, 3, np.array([[0, 0], [1, 9]]))  # 9 is outside GF(9)
    with pytest.raises(ValueError):
        verified_basis(se33, 3, np.array([[0, 0], [-1, 1]]))


def test_basis_json(se33):
    pts = enumerate_points(se33)
    basis = verified_basis(se33, 6, pts)
    assert basis.r == 6
    assert len(basis) == 6
    assert len(basis.dropped) == 1


# ---------------------------------------------------------------------------
# closed-form dimension cases


def test_case1_negative(se33):
    pred = dimension_by_cases(se33, -4)
    assert pred.case == 1 and pred.value == 0


def test_case2_matches_count(se33):
    for r in (0, 1, 2):
        pred = dimension_by_cases(se33, r)
        assert pred.case == 2
        assert pred.value == candidate_count(se33, r)


def test_case3_value(se33):
    pred = dimension_by_cases(se33, 5)
    assert pred.case == 3
    assert pred.value == Fraction(5 * 4 - 1)  # r(q+1) - (q-1)(m-1)/4 = 20 - 1
    assert pred.is_integer


def test_case3_fractional_for_hermitian_q2(herm2):
    pred = dimension_by_cases(herm2, 3)
    assert pred.case == 3
    assert pred.value == Fraction(17, 2)
    assert not pred.is_integer


def test_case4_and_case5(se33):
    pred = dimension_by_cases(se33, 10)
    assert pred.case == 4
    assert pred.value == 9 - candidate_count(se33, 1)
    pred = dimension_by_cases(se33, 30)
    assert pred.case == 5 and pred.value == 9


# ---------------------------------------------------------------------------
# semigroup


def test_semigroup_2_3():
    table = semigroup(2, 3, 6)
    assert table.elements == (0, 2, 3, 4, 5, 6)
    assert table.gaps == (1,)


def test_semigroup_gap_count_equals_genus():
    for make in (lambda: superelliptic_curve(3, 3), lambda: hermitian_curve(2),
                 lambda: hermitian_curve(3), lambda: superelliptic_curve(5, 5)):
        curve = make()
        table = semigroup(curve.pole_order_x, curve.pole_order_y, 4 * curve.genus + 4)
        assert len(table.gaps) == curve.genus


def test_semigroup_closed_under_addition():
    table = semigroup(3, 5, 30)
    inside = set(table.elements)
    for a in table.elements:
        for b in table.elements:
            if a + b <= table.bound:
                assert a + b in inside


def test_semigroup_bound_zero():
    table = semigroup(2, 3, 0)
    assert table.elements == (0,)
    assert table.gaps == ()


def test_semigroup_gcd_error():
    with pytest.raises(ValueError):
        semigroup(3, 3, 10)
    with pytest.raises(ValueError):
        curve = superelliptic_curve(5, 3)
        semigroup(curve.pole_order_x, curve.pole_order_y, 10)  # pole orders (3, 3)


# ---------------------------------------------------------------------------
# dimension report: ground truth vs printed formula


def test_dimension_report_se33():
    curve = superelliptic_curve(3, 3)
    rows = dimension_report(curve, 30)
    by_r = {row.r: row for row in rows}
    # rank always equals the verified-basis size
    assert all(row.rank == row.verified_count for row in rows)
    # Riemann-Roch in the unsaturated range: rank = r + 1 - g = r (g = 1)
    for r in range(1, 15):
        assert by_r[r].riemann_roch == r
        assert by_r[r].rank == r
    # saturation onset: r = 15 reaches only 14 (the 15 points sum to the
    # divisor class of 15*Pinf), full rank 15 from r = 16 on
    assert by_r[15].rank == 14 and by_r[15].riemann_roch is None
    assert by_r[16].rank == 15 and by_r[30].rank == 15
    # the printed formula agrees exactly at r in {0, 1, 2} and nowhere else
    agree = [row.r for row in rows if row.prediction_matches_rank]
    assert agree == [0, 1, 2]


def naive_candidate_rank(curve, nf, r, points):
    """Rank of the evaluation matrix of every x^i y^j with pole order <= r
    and j < q, built and reduced over the naive field."""
    rows = []
    for j in range(curve.q):
        for i in range(max(0, r) + 1):
            if i * curve.pole_order_x + j * curve.pole_order_y <= r:
                rows.append([nf.mul(nf.pow(x, i), nf.pow(y, j)) for x, y in points.tolist()])
    return naive_rank(nf, rows)


@pytest.mark.parametrize("make, r_max, first", [
    (lambda: superelliptic_curve(3, 3), 30, None),
    (lambda: hermitian_curve(3), 40, None),
    (lambda: superelliptic_curve(5, 2), 40, None),
    (lambda: superelliptic_curve(5, 3), 40, None),  # pole orders (3, 3): gcd warning
    (lambda: superelliptic_curve(3, 3), 30, 7),     # 7 points saturate at r = 7
], ids=["se-q3-m3", "herm-q3", "se-q5-m2", "se-q5-m3", "se-q3-m3-7pts"])
def test_dimension_report_matches_per_r_and_naive_ranks(make, r_max, first):
    curve = make()
    points = enumerate_points(curve)[:first]
    F = curve.tower.ext
    nf = TabledField(F.p, F.e, F.modulus)
    rows = dimension_report(curve, r_max, None if first is None else points)
    assert [row.r for row in rows] == list(range(r_max + 1))
    for row in rows:
        kept = len(verified_basis(curve, row.r, points))
        assert row.candidates == len(candidate_monomials(curve, row.r))
        assert row.rank == row.verified_count == kept
        assert row.rank == naive_candidate_rank(curve, nf, row.r, points)
    assert rows[-1].rank == len(points)


@pytest.mark.parametrize("make, r", [
    (lambda: hermitian_curve(2), 20),        # GF(4)
    (lambda: hermitian_curve(3), 30),        # GF(9)
    (lambda: superelliptic_curve(7, 3), 40),  # GF(49)
    (lambda: hermitian_curve(27), 60),       # GF(3^6)
], ids=["GF4", "GF9", "GF49", "GF729"])
def test_evaluation_matrix_matches_naive_powers(make, r):
    # off-curve points too: every pair of zero, one, the primitive element
    # and the largest index, so x = 0 and y = 0 meet 0^0 and 0^i, i > 0
    curve = make()
    F = curve.tower.ext
    nf = NaiveField(F.p, F.e, F.modulus)
    values = sorted({0, 1, F.primitive, F.order - 1})
    points = np.array([(x, y) for x in values for y in values] + enumerate_points(curve)[:5].tolist())
    # over GF(4) and GF(9) some exponents i pass order - 1
    monomials = candidate_monomials(curve, r).monomials
    E = evaluation_matrix(curve, monomials, points)
    assert E.shape == (len(monomials), len(points))
    for row, (i, j) in zip(E.tolist(), monomials):
        assert row == [nf.mul(nf.pow(x, i), nf.pow(y, j)) for x, y in points.tolist()]
