"""Monomial spaces attached to multiples of the point at infinity.

`candidate_monomials` lists the pairs (i, j) with
i*pole(x) + j*pole(y) <= r and 0 <= j <= q-1.  That j-range is known to
overcount for the superelliptic family (y already satisfies a relation
of degree n = (q+1)/2 over GF(q^2)(x)), so candidates are never used as
a basis directly: `verified_basis` rank-filters their evaluation
vectors at the chosen points and records what was dropped.

`dimension_by_cases` evaluates a five-case closed-form dimension
prediction exactly as specified (including its fractional /4 term) and
is intended for comparison reports only; `dimension_report` tabulates
it against ground-truth ranks and against deg + 1 - g.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from .curve import CurvePoint, CurveSpec, affine_points
from .linalg import rank as matrix_rank, rref

@dataclass(frozen=True)
class MonomialBasis:
    """Exponent pairs (i, j) for x^i y^j, with pole orders i*px + j*py."""

    r: int
    monomials: tuple[tuple[int, int], ...]
    pole_orders: tuple[int, ...]
    verified: bool
    dropped: tuple[tuple[int, int], ...] = ()

    def __len__(self) -> int:
        return len(self.monomials)

    def to_json(self) -> str:
        return json.dumps(
            {
                "r": self.r,
                "monomials": [list(m) for m in self.monomials],
                "dropped": [list(m) for m in self.dropped],
            }
        )


def candidate_monomials(curve: CurveSpec, r: int) -> MonomialBasis:
    """All (i, j) with i*px + j*py <= r, i >= 0, 0 <= j <= q-1, sorted by
    (pole order, i, j).  Negative r yields the empty basis."""
    px, py = curve.pole_order_x, curve.pole_order_y
    found = []
    if r >= 0:
        for j in range(0, curve.q):
            rem = r - j * py
            if rem < 0:
                break
            for i in range(rem // px + 1):
                found.append((i * px + j * py, i, j))
    found.sort()
    return MonomialBasis(
        r=r,
        monomials=tuple((i, j) for _, i, j in found),
        pole_orders=tuple(po for po, _, _ in found),
        verified=False,
    )


def candidate_count(curve: CurveSpec, r) -> int:
    """Size of the candidate set, counted arithmetically (no list built)."""
    px, py = curve.pole_order_x, curve.pole_order_y
    if r < 0:
        return 0
    total = 0
    for j in range(0, curve.q):
        rem = r - j * py
        if rem < 0:
            break
        total += int(rem // px) + 1
    return total


def evaluation_matrix(curve: CurveSpec, monomials: Sequence[tuple[int, int]],
                      points: Sequence[CurvePoint]) -> np.ndarray:
    """Rows = monomials evaluated at the affine points (index matrix)."""
    F = curve.tower.ext
    xs = np.array([p.x.index for p in points], dtype=np.int64)
    ys = np.array([p.y.index for p in points], dtype=np.int64)
    rows = np.zeros((len(monomials), len(points)), dtype=np.int64)
    for k, (i, j) in enumerate(monomials):
        rows[k] = F.vmul(F.vpow(xs, i), F.vpow(ys, j))
    return rows


def verified_basis(curve: CurveSpec, r: int, points: Sequence[CurvePoint]) -> MonomialBasis:
    """Greedy rank-filtered subset of the candidates, in (pole, i, j) order.

    The retained monomials have linearly independent evaluation vectors
    at `points`; the retained count equals the rank of the full
    candidate evaluation matrix E.  A candidate is kept iff its row of E
    is independent of the rows before it, i.e. iff it is a pivot column
    of rref(E^T).
    """
    if not points:
        raise ValueError("evaluation point set is empty")
    if any(p.at_infinity for p in points):
        raise ValueError("evaluation points must be affine")
    cand = candidate_monomials(curve, r)
    E = evaluation_matrix(curve, cand.monomials, points)
    kept = set(rref(curve.tower.ext, E.T)[1])
    return MonomialBasis(
        r=r,
        monomials=tuple(m for k, m in enumerate(cand.monomials) if k in kept),
        pole_orders=tuple(po for k, po in enumerate(cand.pole_orders) if k in kept),
        verified=True,
        dropped=tuple(m for k, m in enumerate(cand.monomials) if k not in kept),
    )


@dataclass(frozen=True)
class DimensionPrediction:
    case: int
    value: Fraction
    is_integer: bool


def dimension_by_cases(curve: CurveSpec, r: int) -> DimensionPrediction:
    """Five-case closed-form dimension prediction, evaluated verbatim.

    Case 3 is r(q+1) - (q-1)(m-1)/4, which can be fractional; the value
    is returned as a Fraction with a flag rather than rounded.
    """
    q, m = curve.q, curve.m
    half = Fraction((q - 1) * (m - 1), 2)
    quarter = Fraction((q - 1) * (m - 1), 4)
    qq = q * q
    if r < 0:
        val = Fraction(0)
        case = 1
    elif r <= half:
        val = Fraction(candidate_count(curve, r))
        case = 2
    elif r < qq:
        val = Fraction(r * (q + 1)) - quarter
        case = 3
    elif r <= qq + half:
        arg = Fraction(qq) + half - r
        val = Fraction(qq - candidate_count(curve, arg))
        case = 4
    else:
        val = Fraction(qq)
        case = 5
    return DimensionPrediction(case=case, value=val, is_integer=val.denominator == 1)


@dataclass(frozen=True)
class SemigroupTable:
    generators: tuple[int, int]
    bound: int
    elements: tuple[int, ...]
    gaps: tuple[int, ...]


def semigroup(gen_a: int, gen_b: int, bound: int) -> SemigroupTable:
    """The numerical semigroup <gen_a, gen_b> intersected with [0, bound]."""
    if gcd(gen_a, gen_b) != 1:
        raise ValueError(
            f"gcd({gen_a}, {gen_b}) = {gcd(gen_a, gen_b)} != 1: the gap set is infinite"
        )
    if bound < 0:
        raise ValueError("bound must be >= 0")
    reachable = [False] * (bound + 1)
    reachable[0] = True
    for v in range(1, bound + 1):
        reachable[v] = (v >= gen_a and reachable[v - gen_a]) or (
            v >= gen_b and reachable[v - gen_b]
        )
    elements = tuple(v for v in range(bound + 1) if reachable[v])
    gaps = tuple(v for v in range(bound + 1) if not reachable[v])
    return SemigroupTable(generators=(gen_a, gen_b), bound=bound, elements=elements, gaps=gaps)


def semigroup_at_infinity(curve: CurveSpec, bound: int) -> SemigroupTable:
    return semigroup(curve.pole_order_x, curve.pole_order_y, bound)


def write_semigroup_csv(table: SemigroupTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "in_semigroup"])
        in_sg = set(table.elements)
        for v in range(table.bound + 1):
            writer.writerow([v, int(v in in_sg)])


@dataclass(frozen=True)
class DimensionRow:
    r: int
    candidates: int
    rank: int
    verified_count: int
    case: int
    predicted: str
    riemann_roch: int | None
    prediction_matches_rank: bool


def dimension_report(curve: CurveSpec, r_max: int,
                     points: Sequence[CurvePoint] | None = None) -> list[DimensionRow]:
    """Ground-truth ranks vs the case formula for r = 0..r_max.

    `riemann_roch` holds deg + 1 - g when 2g - 2 < r and the code is not
    saturated (deg + 1 - g < #points), else None.
    """
    if points is None:
        points = affine_points(curve)
    F = curve.tower.ext
    g = curve.genus
    npts = len(points)
    rows = []
    for r in range(0, r_max + 1):
        cand = candidate_monomials(curve, r)
        basis = verified_basis(curve, r, points)
        rk = matrix_rank(F, evaluation_matrix(curve, cand.monomials, points)) if cand.monomials else 0
        pred = dimension_by_cases(curve, r)
        rr = r + 1 - g if (r > 2 * g - 2 and r + 1 - g < npts) else None
        rows.append(
            DimensionRow(
                r=r,
                candidates=len(cand),
                rank=rk,
                verified_count=len(basis),
                case=pred.case,
                predicted=str(pred.value),
                riemann_roch=rr,
                prediction_matches_rank=pred.is_integer and pred.value == rk,
            )
        )
    return rows
