import tracemalloc

import numpy as np
import pytest

from agq.agcode import build_onepoint_code, resolve_eval_set
from agq.curve import (
    CurveSpec,
    Family,
    MaximalityReport,
    enumerate_points,
    hermitian_curve,
    maximality_check,
    superelliptic_curve,
)
from agq.gf import FieldError, quadratic_tower
from oracles import NaiveField, TabledField, projective_points, superelliptic_form


def naive_affine_points(curve):
    """Exhaustive double scan via the naive oracle arithmetic."""
    F = curve.tower.ext
    nf = NaiveField(F.p, F.e, F.modulus)
    pts = []
    for x in range(nf.order):
        for y in range(nf.order):
            if curve.family is Family.SUPERELLIPTIC:
                lhs = nf.pow(y, curve.n)
                rhs = nf.add(nf.pow(x, curve.m), x)
            else:
                lhs = nf.add(nf.pow(y, curve.q), y)
                rhs = nf.pow(x, curve.q + 1)
            if lhs == rhs:
                pts.append((x, y))
    return pts


# ---------------------------------------------------------------------------
# construction


def test_superelliptic_parameters(se33):
    assert (se33.q, se33.n, se33.m) == (3, 2, 3)
    assert se33.genus == 1
    assert se33.places_at_infinity == 1


def test_hermitian_parameters(herm2):
    assert (herm2.q, herm2.n, herm2.m) == (2, 2, 3)
    assert herm2.genus == 1
    assert herm2.places_at_infinity == 1


def test_even_q_rejected_for_superelliptic():
    with pytest.raises(FieldError):
        superelliptic_curve(4, 3)


# ---------------------------------------------------------------------------
# substitution oracle


def test_on_curve_examples(se33, herm2):
    # an explicit evaluation set is checked against the curve equation
    assert resolve_eval_set(se33, [[0, 0]]).tolist() == [[0, 0]]  # 0 = 0
    with pytest.raises(ValueError, match="not on the curve"):
        resolve_eval_set(se33, [[1, 1]])  # 1 != 2
    assert resolve_eval_set(herm2, [[0, 1]]).tolist() == [[0, 1]]  # 1+1 = 0 = 0^3
    # every row is checked, not only the first
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        resolve_eval_set(se33, [[0, 0], [1, 1]])


def test_on_curve_field_mismatch(se33):
    # index 9 names an element of a larger field, not of GF(9)
    with pytest.raises(ValueError):
        resolve_eval_set(se33, [[9, 1]])
    with pytest.raises(ValueError):
        resolve_eval_set(se33, [[1, 3], [2, -1]])


@pytest.mark.parametrize("make", [lambda: hermitian_curve(2), lambda: superelliptic_curve(3, 3),
                                  lambda: hermitian_curve(3), lambda: superelliptic_curve(5, 2),
                                  lambda: hermitian_curve(4), lambda: superelliptic_curve(5, 3),
                                  lambda: superelliptic_curve(7, 3)])
def test_enumerated_points_satisfy_equation(make):
    curve = make()
    pts = enumerate_points(curve)
    assert pts.dtype == np.int64 and pts.ndim == 2 and pts.shape[1] == 2
    assert not pts.flags.writeable  # a code and its duals share it
    # distinct points on the curve: valid as an explicit evaluation set
    assert np.array_equal(resolve_eval_set(curve, pts), pts)
    # matches the naive exhaustive scan exactly, including order
    assert [tuple(p) for p in pts.tolist()] == naive_affine_points(curve)


def test_point_counts(se33, herm2):
    # affine points only: the places at infinity are not stored
    assert len(enumerate_points(herm2)) == 8
    assert len(enumerate_points(se33)) == 15


def test_enumeration_deterministic(se33):
    assert np.array_equal(enumerate_points(se33), enumerate_points(se33))


def test_equal_curves_share_no_cached_state():
    # a curve object owns its points and its code ladder; neither reaches
    # ==, hash or repr, and an equal curve starts cold
    a, b = hermitian_curve(3), hermitian_curve(3)
    pts = enumerate_points(a)
    assert enumerate_points(a) is pts and not pts.flags.writeable
    build_onepoint_code(a, 5)
    assert set(a._cache) == {"points", "ladder"} and b._cache == {}
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    other = enumerate_points(b)
    assert other is not pts and np.array_equal(other, pts)
    assert b._cache["points"] is other and a._cache["points"] is pts


def test_enumeration_memory_bounded():
    # 262 144 points over GF(4096); an order x order comparison table
    # alone would take 16.8 MB
    curve = hermitian_curve(64)
    tracemalloc.start()
    try:
        pts = enumerate_points(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pts.shape == (64**3, 2)
    assert peak < 16 * 2**20


def test_fiber_symmetry(se33):
    # (x, ly) stays on the curve for every l with l^n = 1
    F = se33.tower.ext
    roots = [l for l in range(F.order) if int(F.vpow(l, se33.n)) == 1]
    assert len(roots) >= 1
    pts = enumerate_points(se33)
    on_curve = set(map(tuple, pts.tolist()))
    for l in roots:
        scaled = np.column_stack([pts[:, 0], F.vmul(l, pts[:, 1])])
        assert set(map(tuple, scaled.tolist())) == on_curve


# ---------------------------------------------------------------------------
# genus and maximality


def test_genus_values():
    assert superelliptic_curve(3, 3).genus == 1
    assert hermitian_curve(2).genus == 1
    assert hermitian_curve(3).genus == 3
    assert superelliptic_curve(5, 2).genus == 1
    assert superelliptic_curve(5, 5).genus == 4


@pytest.mark.parametrize(
    "make,count,maximal",
    [
        (lambda: superelliptic_curve(3, 3), 16, True),
        (lambda: hermitian_curve(2), 9, True),
        (lambda: hermitian_curve(3), 28, True),
        (lambda: superelliptic_curve(5, 2), 36, True),
    ],
)
def test_maximality_reports(make, count, maximal):
    rep = maximality_check(make())
    assert rep.count_points == count
    assert rep.expected == count
    assert rep.is_maximal is maximal


def test_maximality_flags_rather_than_aborts():
    # gcd(n, m) = 3 here: 33 affine points and 3 rational places at
    # infinity make 36 = 25 + 1 + 2*1*5, maximal with genus 1
    rep = maximality_check(superelliptic_curve(5, 3))
    assert rep.count_points == 36
    assert rep.expected == 36
    assert rep.is_maximal
    assert rep.genus == 1


@pytest.mark.parametrize("make, q", [(lambda: superelliptic_curve(3, 3), 3), (lambda: hermitian_curve(4), 4),
                                     (lambda: superelliptic_curve(7, 5), 7)])
def test_a_curves_tower_and_maximality_are_derived(make, q):
    curve = make()
    assert curve.tower is quadratic_tower(q)
    with pytest.raises(TypeError):
        CurveSpec(Family.HERMITIAN, q, q, q + 1, 0, 1, tower=curve.tower)
    rep = maximality_check(curve)
    assert rep.is_maximal is (rep.count_points == rep.expected)
    assert not MaximalityReport(count_points=10, expected=11, genus=1).is_maximal
    with pytest.raises(TypeError):
        MaximalityReport(count_points=11, expected=11, genus=1, is_maximal=False)


def naive_curve_points(q, m):
    """The rational points of the plane model of superelliptic_curve(q, m),
    found by the projective oracle."""
    F = superelliptic_curve(q, m).tower.ext
    nf = TabledField(F.p, F.e, F.modulus)
    return projective_points(nf, superelliptic_form(nf, (q + 1) // 2, m))


@pytest.mark.parametrize("q, count, maximal", [(3, 10, True), (5, 36, True), (7, 20, False)])
def test_smooth_plane_models_count_every_place(q, count, maximal):
    # m = n: Y^n = X^n + X Z^(n-1) is smooth, as p divides neither n nor
    # n - 1, so its projective points are its rational places, n of them at
    # infinity, and its genus is the plane (n-1)(n-2)/2
    n = (q + 1) // 2
    curve = superelliptic_curve(q, n)
    pts = naive_curve_points(q, n)
    assert len(pts) == count
    assert curve.genus == (n - 1) * (n - 2) // 2
    assert curve.places_at_infinity == sum(z == 0 for _, _, z in pts) == n
    rep = maximality_check(curve)
    assert (rep.count_points, rep.is_maximal) == (count, maximal)
    assert maximal == (count == q * q + 1 + 2 * curve.genus * q)


@pytest.mark.parametrize("q, m", [(3, 4), (3, 7), (5, 6), (7, 8)])
def test_inseparable_curves_meet_the_maximal_count(q, m):
    # p | m - 1, so x^m + x = x (x^t + 1)^(p^v) is not separable
    curve = superelliptic_curve(q, m)
    pts = naive_curve_points(q, m)
    affine = [(x, y) for x, y, z in pts if z == 1]
    assert enumerate_points(curve).tolist() == [list(pt) for pt in affine]
    assert len(affine) + curve.places_at_infinity == q * q + 1 + 2 * curve.genus * q
    assert maximality_check(curve).is_maximal
