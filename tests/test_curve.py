import json
import tracemalloc

import numpy as np
import pytest

from agq.curve import (
    Family,
    enumerate_points,
    hermitian_curve,
    is_on_curve,
    maximality_check,
    superelliptic_curve,
)
from agq.gf import FieldError
from oracles import NaiveField


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
    assert (se33.pole_order_x, se33.pole_order_y) == (2, 3)
    assert se33.genus == 1
    assert se33.warnings == ()


def test_hermitian_parameters(herm2):
    assert (herm2.q, herm2.n, herm2.m) == (2, 2, 3)
    assert (herm2.pole_order_x, herm2.pole_order_y) == (2, 3)
    assert herm2.genus == 1


def test_even_q_rejected_for_superelliptic():
    with pytest.raises(FieldError):
        superelliptic_curve(4, 3)


def test_odd_genus_product_rejected():
    # q=3 gives n=2; m=2 makes (m-1)(n-1) = 1 odd
    with pytest.raises(FieldError):
        superelliptic_curve(3, 2)


def test_gcd_violations_become_warnings():
    curve = superelliptic_curve(5, 3)  # n = 3, gcd(n, m) = 3
    assert any("gcd(n, m)" in w for w in curve.warnings)


def test_unproven_m_flagged():
    curve = superelliptic_curve(5, 9)  # m = 9 = p^2 but s = 1
    assert any("proven-maximal" in w for w in curve.warnings)
    assert superelliptic_curve(5, 5).warnings == ()  # m = p^1, b | s


# ---------------------------------------------------------------------------
# substitution oracle


def test_on_curve_examples(se33, herm2):
    assert is_on_curve(se33, 0, 0)  # 0 = 0
    assert not is_on_curve(se33, 1, 1)  # 1 != 2
    assert is_on_curve(herm2, 0, 1)  # 1+1 = 0 = 0^3
    # index arrays are checked entrywise
    assert is_on_curve(se33, np.array([0, 1]), np.array([0, 1])).tolist() == [True, False]


def test_on_curve_field_mismatch(se33):
    # index 9 names an element of a larger field, not of GF(9)
    with pytest.raises(FieldError):
        is_on_curve(se33, 9, 1)
    with pytest.raises(FieldError):
        is_on_curve(se33, np.array([1, 2]), np.array([3, -1]))


@pytest.mark.parametrize("make", [lambda: hermitian_curve(2), lambda: superelliptic_curve(3, 3),
                                  lambda: hermitian_curve(3), lambda: superelliptic_curve(5, 2),
                                  lambda: hermitian_curve(4), lambda: superelliptic_curve(5, 3),
                                  lambda: superelliptic_curve(7, 3)])
def test_enumerated_points_satisfy_equation(make):
    curve = make()
    pts = enumerate_points(curve)
    assert pts.dtype == np.int64 and pts.ndim == 2 and pts.shape[1] == 2
    assert not pts.flags.writeable  # a code and its duals share it
    assert is_on_curve(curve, pts[:, 0], pts[:, 1]).all()
    # matches the naive exhaustive scan exactly, including order
    assert [tuple(p) for p in pts.tolist()] == naive_affine_points(curve)


def test_point_counts(se33, herm2):
    # affine points only: the point at infinity is implicit
    assert len(enumerate_points(herm2)) == 8
    assert len(enumerate_points(se33)) == 15


def test_enumeration_deterministic(se33):
    assert np.array_equal(enumerate_points(se33), enumerate_points(se33))


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
    roots = [l for l in range(F.order) if F.pow(l, se33.n) == 1]
    assert len(roots) >= 1
    pts = enumerate_points(se33)
    for l in roots:
        assert is_on_curve(se33, pts[:, 0], F.vmul(l, pts[:, 1])).all()


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
    # gcd(n, m) = 3 here; the plane model has 33 affine points + P∞, far
    # from the would-be bound computed with the printed genus formula.
    rep = maximality_check(superelliptic_curve(5, 3))
    assert rep.count_points == 34
    assert rep.expected == 46
    assert not rep.is_maximal
    assert rep.warnings


# ---------------------------------------------------------------------------
# serialization


def test_curve_json_round_trip(se33, herm2):
    for curve in (se33, herm2):
        data = json.loads(curve.to_json())
        assert data == {"family": curve.family.value, "q": curve.q, "m": curve.m}
