"""Plane curve families over GF(q^2): point enumeration, genus, maximality.

Two families are supported, both with a single designated point at
infinity carrying the pole orders used by the code construction:

* superelliptic: y^n = x^m + x with n = (q+1)/2; x and y have pole
  orders n and m at infinity.
* hermitian: y^q + y = x^(q+1); pole orders q and q+1.

The curve is modeled as its affine plane locus plus one abstract point
at infinity; resolution of singularities is out of scope, so for
parameter choices where the smooth model has several points above
x = infinity the reported point count refers to this plane model.

A set of points is an (N, 2) int64 array of affine (x, y) field indices;
the point at infinity P∞ is implicit and never stored.
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
    """A curve family instance over GF(q^2) with its pole orders at infinity.

    `warnings` collects violated side conditions (gcd constraints,
    coverage of the maximality criterion) that do not prevent building
    the curve but void the guarantees attached to them.
    """

    family: Family
    q: int
    n: int
    m: int
    pole_order_x: int
    pole_order_y: int
    genus: int
    tower: QuadraticTower = dc_field(repr=False, compare=False, hash=False, default=None)
    warnings: tuple[str, ...] = ()

    def label(self) -> str:
        return f"{self.family.value}-q{self.q}-m{self.m}"


def superelliptic_curve(q: int, m: int) -> CurveSpec:
    """y^n = x^m + x over GF(q^2) with n = (q+1)/2."""
    if q % 2 == 0:
        raise FieldError(f"superelliptic family needs odd q so that (q+1)/2 is an integer; got q={q}")
    tower = quadratic_tower(q)
    n = (q + 1) // 2
    if m < 2 or n < 2:
        raise FieldError(f"exponents must be >= 2; got n={n}, m={m}")
    if (m - 1) * (n - 1) % 2 != 0:
        raise FieldError(
            f"(m-1)(n-1) = {(m - 1) * (n - 1)} is odd, genus (m-1)(n-1)/2 is not an integer"
        )
    warnings = []
    if gcd(n, m) != 1:
        warnings.append(f"gcd(n, m) = gcd({n}, {m}) != 1")
    if gcd(q, n) != 1:
        warnings.append(f"gcd(q, n) = gcd({q}, {n}) != 1")
    if gcd(q, m - 1) != 1:
        warnings.append(f"gcd(q, m-1) = gcd({q}, {m - 1}) != 1")
    if not _maximality_criterion_covers(tower.p, tower.s, m):
        warnings.append(f"m={m} outside the proven-maximal cases (m in {{2, 3}} or m = p^b with b | s)")
    return CurveSpec(
        family=Family.SUPERELLIPTIC,
        q=q,
        n=n,
        m=m,
        pole_order_x=n,
        pole_order_y=m,
        genus=(m - 1) * (n - 1) // 2,
        tower=tower,
        warnings=tuple(warnings),
    )


def hermitian_curve(q: int) -> CurveSpec:
    """y^q + y = x^(q+1) over GF(q^2)."""
    tower = quadratic_tower(q)
    return CurveSpec(
        family=Family.HERMITIAN,
        q=q,
        n=q,
        m=q + 1,
        pole_order_x=q,
        pole_order_y=q + 1,
        genus=q * (q - 1) // 2,
        tower=tower,
    )


def _maximality_criterion_covers(p: int, s: int, m: int) -> bool:
    if m in (2, 3):
        return True
    mm = m
    b = 0
    while mm % p == 0:
        mm //= p
        b += 1
    return mm == 1 and b >= 1 and s % b == 0


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
    (x, y) indices in lexicographic order.

    The y with lhs[y] = v form one run of the stable argsort of lhs, in
    increasing y; each x takes the run of v = rhs[x], found by
    `searchsorted`.
    """
    lhs, rhs = _lhs_rhs_tables(curve)
    ys = np.argsort(lhs, kind="stable")
    lo = np.searchsorted(lhs[ys], rhs, side="left")
    counts = np.searchsorted(lhs[ys], rhs, side="right") - lo
    xs = np.repeat(np.arange(len(rhs), dtype=np.int64), counts)
    # point t is y number t - first[x] of x's run, which starts at ys[lo[x]]
    first = np.cumsum(counts) - counts
    pts = np.column_stack([xs, ys[(lo - first)[xs] + np.arange(len(xs))]])
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True)
class MaximalityReport:
    count_points: int
    expected: int
    is_maximal: bool
    genus: int
    warnings: tuple[str, ...]


def maximality_check(curve: CurveSpec) -> MaximalityReport:
    """Compare the exhaustive point count, affine points plus P∞, against
    q^2 + 1 + 2gq."""
    count = len(enumerate_points(curve)) + 1
    expected = curve.q**2 + 1 + 2 * curve.genus * curve.q
    return MaximalityReport(
        count_points=count,
        expected=expected,
        is_maximal=count == expected,
        genus=curve.genus,
        warnings=curve.warnings,
    )
