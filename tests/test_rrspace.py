from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agq.agcode import (_dual_sum_rank, build_onepoint_code, check_duality_claim, code_report,
                        is_euclidean_self_orthogonal, is_hermitian_self_orthogonal, resolve_eval_set)
from agq.curve import enumerate_points, hermitian_curve, superelliptic_curve
from agq.linalg import matmul, pivots_and_transform, rank
from agq.claims import candidate_count, dimension_by_cases
from agq.rrspace import (
    candidate_monomials,
    code_ladder,
    dimension_report,
    evaluation_matrix,
    verified_basis,
)
from oracles import (NaiveField, TabledField, naive_matmul, naive_prefix_ranks, naive_rank,
                     projective_points, semigroup, superelliptic_form)


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
            if i * curve.n + j * curve.m <= r:
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
    # candidates stop at weight r* = (q^2 - 1) n + (q - 1) m = 9, past
    # which none is kept, so `dropped` lists those up to 9 only
    assert len(basis.dropped) == candidate_count(herm2, 9) - 8


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
        table = semigroup(curve.n, curve.m, 4 * curve.genus + 4)
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
        semigroup(curve.n, curve.m, 10)  # weights (3, 3)


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
            if i * curve.n + j * curve.m <= r:
                rows.append([nf.mul(nf.pow(x, i), nf.pow(y, j)) for x, y in points.tolist()])
    return naive_rank(nf, rows)


@pytest.mark.parametrize("make, r_max, first", [
    (lambda: superelliptic_curve(3, 3), 30, None),
    (lambda: hermitian_curve(3), 40, None),
    (lambda: superelliptic_curve(5, 2), 40, None),
    (lambda: superelliptic_curve(5, 3), 40, None),  # weights (3, 3): 3 places at infinity
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
        # Hermitian q=3, r = 27 and 28: deg + 1 - g is 25 and 26, the rank
        # 24 and 25, since deg G is not below the 27 points; so None there
        assert row.riemann_roch is None or row.riemann_roch == row.rank
    assert rows[-1].rank == len(points)


@pytest.mark.parametrize("q, m", [(q, m) for q in (3, 5, 7) for m in range(2, 9) if (m - 1) % q])
def test_genus_certified_by_naive_ranks(q, m):
    # p = q does not divide m - 1, so x^m + x is separable, the affine
    # model is smooth and the candidates span L(G), G the divisor of r.
    # Wherever 2g - 2 < deg G < #points their naive rank is deg G + 1 - g.
    curve = superelliptic_curve(q, m)
    F = curve.tower.ext
    nf = TabledField(F.p, F.e, F.modulus)
    points = [(x, y) for x, y, z in projective_points(nf, superelliptic_form(nf, curve.n, m)) if z == 1]
    g, npts = curve.genus, len(points)
    r_max = npts + curve.places_at_infinity
    weighted = sorted((i * curve.n + j * m, i, j) for j in range(q) for i in range(r_max // curve.n + 1)
                      if i * curve.n + j * m <= r_max)
    ranks = naive_prefix_ranks(nf, [[nf.mul(nf.pow(x, i), nf.pow(y, j)) for x, y in points]
                                    for _, i, j in weighted])
    shown = 0
    for row in dimension_report(curve, r_max):
        count = sum(w <= row.r for w, _, _ in weighted)
        assert row.rank == ranks[count - 1]
        deg = curve.divisor_degree(row.r)
        if 2 * g - 2 < deg < npts:
            assert row.rank == row.riemann_roch == deg + 1 - g
            shown += 1
        else:
            assert row.riemann_roch is None
    assert shown


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


# ---------------------------------------------------------------------------
# the one-elimination basis and parity check against the reference path

# the curves of the report benchmarks, and GF(17^2), of order above
# ADD_TABLE_MAX, whose elimination steps on int64
REPORT_CURVES = {
    "hermitian-q3": lambda: hermitian_curve(3),
    "superelliptic-q3-m3": lambda: superelliptic_curve(3, 3),
    "hermitian-q4": lambda: hermitian_curve(4),
    "superelliptic-q7-m3": lambda: superelliptic_curve(7, 3),
    "hermitian-q5": lambda: hermitian_curve(5),
    "superelliptic-q17-m2": lambda: superelliptic_curve(17, 2),
}


def naive_kept_rows(nf, E):
    """The rows of E independent of the rows before them, i.e. the pivot
    columns of E^T, from the naive prefix ranks."""
    ranks = naive_prefix_ranks(nf, E)
    return [i for i, (before, now) in enumerate(zip([0] + ranks, ranks)) if now > before]


def _eval_sets(curve):
    pts = enumerate_points(curve)
    if len(pts) > 200:
        # all 425 points of GF(17^2)'s curve would make the naive products slow
        return ["first:30", pts[::-14]]
    return ["all", f"first:{len(pts) // 2}", "exclude-subfield", pts[::-3]]


@pytest.mark.parametrize("name", REPORT_CURVES)
def test_one_elimination_basis_and_parity_check_match_reference(name):
    curve = REPORT_CURVES[name]()
    F = curve.tower.ext
    nf = TabledField(F.p, F.e, F.modulus)
    for policy in _eval_sets(curve):
        points = resolve_eval_set(curve, policy)
        N = len(points)
        r_top = N + 2 * curve.genus + curve.places_at_infinity
        for r in [-1] + sorted({int(r) for r in np.linspace(0, r_top, 6)}):
            basis = verified_basis(curve, r, points)
            cand = candidate_monomials(curve, r)
            E = evaluation_matrix(curve, cand.monomials, points)
            pivots = naive_kept_rows(nf, E)
            assert basis.monomials == tuple(cand.monomials[i] for i in pivots)
            # `dropped` stops at r*, past which no candidate is kept
            r_star = (curve.q**2 - 1) * curve.n + (curve.q - 1) * curve.m
            assert basis.dropped == tuple(m for i, m in enumerate(cand.monomials)
                                          if i not in pivots and cand.pole_orders[i] <= r_star)
            G, H = basis.rows, basis.transform[len(basis):]
            assert np.array_equal(G, E[pivots])
            assert H.shape == (N - len(pivots), N)
            assert not any(any(row) for row in naive_matmul(nf, G, H.T))
            # N - k independent rows in the null space of G, of rank k, span it
            assert naive_rank(nf, H.tolist()) == N - len(pivots)
            code = build_onepoint_code(curve, r, policy)
            assert np.array_equal(code.generator, G) and np.array_equal(code.parity_check, H)
        assert len(basis) == N  # the last r is past saturation


# ---------------------------------------------------------------------------
# one verified basis read at every r

LADDER_CURVES = {
    "hermitian-q3": lambda: hermitian_curve(3),
    "hermitian-q4": lambda: hermitian_curve(4),
    "hermitian-q5": lambda: hermitian_curve(5),
    "superelliptic-q3-m3": lambda: superelliptic_curve(3, 3),
    "superelliptic-q5-m3": lambda: superelliptic_curve(5, 3),
    "superelliptic-q7-m3": lambda: superelliptic_curve(7, 3),
}


@pytest.mark.parametrize("name", LADDER_CURVES)
def test_prefix_readings_of_one_basis_match_per_r_builds(name):
    # Every C_r is a row prefix of the basis at r_max, so one Euclidean Gram
    # M_e = G G^T and one Hermitian Gram M_h = G conj(G)^T give every
    # self-orthogonality verdict as a zero leading block.  And
    # dim(C_r^perp + C_r') = n - k + rank M_e[:k', :k], with k' the prefix
    # of r', is the rank that decides the duality claim.
    curve = LADDER_CURVES[name]()
    F, tower = curve.tower.ext, curve.tower
    half = (curve.q - 1) * (curve.m - 1) // 2
    exact_half = (curve.q - 1) * (curve.m - 1) % 2 == 0
    pts = enumerate_points(curve)
    verdicts = set()
    for policy in ["all", "first:7", "exclude-subfield", pts[::-1]]:
        points = resolve_eval_set(curve, policy)
        n = len(points)
        r_top = n + 2 * curve.genus + curve.places_at_infinity
        # the duality claim at r = -1 reads the prefix of r' = q^2 + half + 1
        basis = verified_basis(curve, max(r_top, curve.q**2 + half + 1), points)
        G = basis.rows
        M_e = matmul(F, G, G.T)
        M_h = matmul(F, G, tower.vfrobenius(G).T)
        for r in range(-1, r_top + 1):
            code = build_onepoint_code(curve, r, policy)
            k = basis.prefix(r)
            assert np.array_equal(G[:k], code.generator)
            assert basis.monomials[:k] == verified_basis(curve, r, points).monomials
            assert (not M_e[:k, :k].any()) == is_euclidean_self_orthogonal(code)
            assert (not M_h[:k, :k].any()) == is_hermitian_self_orthogonal(code)
            verdicts.add(is_hermitian_self_orthogonal(code))
            claim = check_duality_claim(curve, r, policy)
            r_prime = curve.q**2 + half - r
            assert claim.applicable == (exact_half and r_prime >= 0)
            if not claim.applicable:
                continue
            k_prime = basis.prefix(r_prime)
            dual_sum = n - k + rank(F, M_e[:k_prime, :k])
            companion = build_onepoint_code(curve, r_prime, policy)
            assert dual_sum == _dual_sum_rank(code, companion)
            assert (claim.dim_dual, claim.dim_companion) == (n - k, k_prime)
            assert claim.row_spaces_equal == (dual_sum == n - k == k_prime)
            assert claim.companion_inside_dual == (dual_sum == n - k)
            assert claim.dual_inside_companion == (dual_sum == k_prime)
        assert k == n  # the last r is past saturation
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", LADDER_CURVES)
def test_candidates_stop_at_the_weight_past_which_none_is_kept(name):
    # past r* = (q^2 - 1) n + (q - 1) m a candidate x^i y^j has i >= q^2 and
    # evaluates as x^(i - q^2 + 1) y^j, of smaller weight, so an
    # elimination over the candidates up to 2 r* keeps those of r*
    curve = LADDER_CURVES[name]()
    F, q = curve.tower.ext, curve.q
    r_star = (q * q - 1) * curve.n + (q - 1) * curve.m
    pts = enumerate_points(curve)
    cand = candidate_monomials(curve, 2 * r_star)
    E = evaluation_matrix(curve, cand.monomials, pts)
    for (i, j), po, row in zip(cand.monomials, cand.pole_orders, E):
        if po > r_star:
            assert i >= q * q
            assert np.array_equal(row, evaluation_matrix(curve, [(i - q * q + 1, j)], pts)[0])
    pivots, T = pivots_and_transform(F, E.T)
    at = verified_basis(curve, r_star, pts)
    assert at.monomials == tuple(cand.monomials[t] for t in pivots)
    assert np.array_equal(at.rows, E[pivots]) and np.array_equal(at.transform, T)
    # a huge r reads the basis at r*, with the r it was asked for
    huge = verified_basis(curve, 10**9, pts)
    assert (huge.r, huge.prefix(10**9)) == (10**9, len(at))
    assert (huge.monomials, huge.dropped) == (at.monomials, at.dropped)
    assert np.array_equal(huge.rows, at.rows) and np.array_equal(huge.transform, at.transform)


def test_prefix_past_the_basis_is_refused(se33):
    basis = verified_basis(se33, 6, enumerate_points(se33))
    assert basis.prefix(6) == len(basis)
    with pytest.raises(ValueError, match="past the basis"):
        basis.prefix(7)


def test_one_ladder_per_curve_on_the_last_point_set():
    curve = superelliptic_curve(3, 3)
    pts = np.array(enumerate_points(curve))  # writable, the caller's own
    top = code_ladder(curve, 10, pts)
    assert code_ladder(curve, 4, pts) is top and code_ladder(curve, 10, pts.copy()) is top
    assert not any(a.flags.writeable for a in (top.rows, top.transform))
    assert code_ladder(curve, 12, pts).r == 12
    # the ladder holds its own copy of the points, so a changed array is
    # another point set, which replaces the ladder
    pts[:] = pts[::-1]
    other = code_ladder(curve, 4, pts)
    assert other.r == 4 and np.array_equal(other.rows, verified_basis(curve, 4, pts).rows)
    assert code_ladder(curve, 4, enumerate_points(curve)) is not other


# the order in which one curve object is asked for its codes
R_ORDERS = {
    "rising": sorted,
    "falling": lambda rs: sorted(rs, reverse=True),
    "shuffled": list,
    "repeated": lambda rs: [r for r in rs for _ in range(2)],
}
# small enough that most codes take the bounds path, which reads H
LADDER_BUDGET = 4096


def _drawn_eval_set(curve, kind, data):
    pts = enumerate_points(curve)
    if kind == "first":
        return f"first:{data.draw(st.integers(1, len(pts)), label='N')}"
    if kind == "explicit":
        chosen = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, unique=True), label="points")
        return np.array(pts[chosen])
    return kind


EVAL_SET_KINDS = ["all", "first", "exclude-subfield", "explicit"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LADDER_CURVES)), st.lists(st.sampled_from(EVAL_SET_KINDS), min_size=1, max_size=2),
       st.sampled_from(sorted(R_ORDERS)), st.data())
def test_builds_on_one_curve_match_fresh_curve_builds(name, kinds, order, data):
    # one curve object answers every build from its code ladder, whatever
    # the order of r and of its point sets; a fresh curve per build makes
    # the per-r elimination
    curve = LADDER_CURVES[name]()
    F = curve.tower.ext
    policies = [_drawn_eval_set(curve, kind, data) for kind in kinds]
    drawn = data.draw(st.lists(st.integers(-1, len(enumerate_points(curve)) + 2 * curve.genus + 1),
                               min_size=1, max_size=4), label="r")
    for r in R_ORDERS[order](drawn):
        policy = policies[data.draw(st.integers(0, len(policies) - 1), label="eval set")]
        n = len(resolve_eval_set(curve, policy))
        code = build_onepoint_code(curve, r, policy)
        fresh = build_onepoint_code(LADDER_CURVES[name](), r, policy)
        assert np.array_equal(code.generator, fresh.generator)
        # H is the suffix of the ladder's transform past the code's prefix
        basis = code_ladder(curve, r, resolve_eval_set(curve, policy))
        H = code.parity_check
        assert np.array_equal(H, basis.transform[basis.prefix(r):])
        assert H.shape == (n - code.k, n) and rank(F, H) == n - code.k
        assert not matmul(F, code.generator, H.T).any()
        report = code_report(curve, r, policy, budget=LADDER_BUDGET, include_weights=True)
        fresh_report = code_report(LADDER_CURVES[name](), r, policy, budget=LADDER_BUDGET,
                                   include_weights=True)
        assert report.to_json() == fresh_report.to_json()
