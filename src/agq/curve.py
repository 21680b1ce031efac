"""Plane curve families over GF(q^2): point enumeration, genus, maximality.

Two families are supported:

* superelliptic: y^n = x^m + x with n = (q+1)/2;
* hermitian: y^q + y = x^(q+1), so n = q and m = q+1.

x^i y^j has weight i*n + j*m.  Above x = infinity lie e places, e =
gcd(n, m) for the superelliptic family and 1 for the Hermitian one, and
x^i y^j has pole order (i*n + j*m)/e at each.  So the functions of
weight <= r form L(floor(r/e)*D), D the sum of the places at infinity:
the code at r comes from a divisor of degree e*floor(r/e).  The genus
and e are derived from (q, n, m); building a curve counts nothing.

A set of points is an (N, 2) int64 array of affine (x, y) field indices;
the places at infinity are never stored.

A curve object owns its affine points, enumerated on first use, and one
code ladder (`rrspace.code_ladder`): the verified basis at the largest r
asked for so far, on the last point set asked for, whose row prefixes
and its transform's row suffixes are the G and H of every code at a
smaller r.  Both live on the object, outside its ==, hash and repr, so
equal curves share nothing and each new object starts cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from math import gcd
import numpy as np

from .gf import FieldError, QuadraticTower, quadratic_tower


class Family(str, Enum):
    SUPERELLIPTIC = "superelliptic"
    HERMITIAN = "hermitian"


@dataclass(frozen=True)
class CurveSpec:
    """A curve family instance over GF(q^2): its weights, genus and number
    of places at infinity, all of them rational."""

    family: Family
    q: int
    n: int
    m: int
    genus: int
    places_at_infinity: int
    tower: QuadraticTower = dc_field(repr=False, compare=False, hash=False, default=None)
    # this object's points ("points") and code ladder ("ladder"), filled on first use
    _cache: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False, hash=False)

    def label(self) -> str:
        return f"{self.family.value}-q{self.q}-m{self.m}"

    def divisor_degree(self, r: int) -> int:
        """Degree of the divisor whose space holds the functions of weight <= r."""
        e = self.places_at_infinity
        return e * (r // e)


def superelliptic_curve(q: int, m: int) -> CurveSpec:
    """y^n = x^m + x over GF(q^2) with n = (q+1)/2.

    A Kummer cover of the x-line of degree n, tame as n | q+1 (Stichtenoth,
    Prop. 3.7.3).  With m - 1 = t*p^v, p not dividing t, x^m + x =
    x*(x^t + 1)^(p^v) has t + 1 roots, of multiplicities prime to n, so
    each ramifies fully; over x = infinity lie e = gcd(n, m) places of
    index n/e.  Riemann-Hurwitz: 2g - 2 = -2n + (t+1)(n-1) + n - e.  Those
    places are rational: w = y^(n/e) / x^(m/e) has w^e = 1 + x^(1-m), so
    it tells them apart by its value, an e-th root of unity, and e | q^2-1.
    """
    if q % 2 == 0:
        raise FieldError(f"superelliptic family needs odd q so that (q+1)/2 is an integer; got q={q}")
    tower = quadratic_tower(q)
    n = (q + 1) // 2
    if m < 2 or n < 2:
        raise FieldError(f"exponents must be >= 2; got n={n}, m={m}")
    e = gcd(n, m)
    t = m - 1
    while t % tower.p == 0:
        t //= tower.p
    return CurveSpec(
        family=Family.SUPERELLIPTIC,
        q=q,
        n=n,
        m=m,
        genus=((n - 1) * t + 1 - e) // 2,
        places_at_infinity=e,
        tower=tower,
    )


def hermitian_curve(q: int) -> CurveSpec:
    """y^q + y = x^(q+1) over GF(q^2)."""
    tower = quadratic_tower(q)
    return CurveSpec(
        family=Family.HERMITIAN,
        q=q,
        n=q,
        m=q + 1,
        genus=q * (q - 1) // 2,
        places_at_infinity=1,
        tower=tower,
    )


def _lhs_rhs_tables(curve: CurveSpec) -> tuple[np.ndarray, np.ndarray]:
    """Index tables: lhs[y] and rhs[x] of the defining equation."""
    F = curve.tower.ext
    idx = np.arange(F.order, dtype=np.int64)
    if curve.family is Family.SUPERELLIPTIC:
        lhs = F.vpow(idx, curve.n)
        rhs = F.vadd(F.vpow(idx, curve.m), idx)
    else:
        lhs = F.vadd(F.vpow(idx, curve.q), idx)
        rhs = F.vpow(idx, curve.q + 1)
    return lhs, rhs


def check_points(curve: CurveSpec, points) -> np.ndarray:
    """`points` as an (N, 2) int64 index array, N >= 1, each index in
    [0, q^2); ValueError otherwise."""
    pts = np.asarray(points)
    order = curve.tower.ext.order
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0 or pts.dtype.kind not in "iu":
        raise ValueError(f"points must be a nonempty (N, 2) integer index array; got shape {pts.shape}")
    if pts.min() < 0 or pts.max() >= order:
        raise ValueError(f"point coordinates must be indices in [0, {order})")
    return pts.astype(np.int64, copy=False)


def enumerate_points(curve: CurveSpec) -> np.ndarray:
    """All affine GF(q^2)-rational points, a read-only (N, 2) array of
    (x, y) indices in lexicographic order.  It is computed once per curve
    object, and later calls return the same array.

    The y with lhs[y] = v form one run of the stable argsort of lhs, in
    increasing y; each x takes the run of v = rhs[x], found by
    `searchsorted`.
    """
    pts = curve._cache.get("points")
    if pts is not None:
        return pts
    lhs, rhs = _lhs_rhs_tables(curve)
    ys = np.argsort(lhs, kind="stable")
    lo = np.searchsorted(lhs[ys], rhs, side="left")
    counts = np.searchsorted(lhs[ys], rhs, side="right") - lo
    xs = np.repeat(np.arange(len(rhs), dtype=np.int64), counts)
    # point t is y number t - first[x] of x's run, which starts at ys[lo[x]]
    first = np.cumsum(counts) - counts
    pts = np.column_stack([xs, ys[(lo - first)[xs] + np.arange(len(xs))]])
    pts.setflags(write=False)
    curve._cache["points"] = pts
    return pts


@dataclass(frozen=True)
class MaximalityReport:
    count_points: int
    expected: int
    is_maximal: bool
    genus: int


def maximality_check(curve: CurveSpec) -> MaximalityReport:
    """Compare the rational point count, the exhaustive affine count plus
    the places at infinity, against q^2 + 1 + 2gq."""
    count = len(enumerate_points(curve)) + curve.places_at_infinity
    expected = curve.q**2 + 1 + 2 * curve.genus * curve.q
    return MaximalityReport(
        count_points=count,
        expected=expected,
        is_maximal=count == expected,
        genus=curve.genus,
    )
