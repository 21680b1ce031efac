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
it against ground-truth ranks and against deg + 1 - g.  Since the
candidates of r are a prefix of those of r_max, and the kept candidates
of a prefix are the r_max pivots inside it, every row's `rank` and
`verified_count` come from one elimination at r_max.  The tests check
that elimination against per-r ranks over a naive field.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .curve import CurveSpec, check_points, enumerate_points
from .linalg import pivot_columns, rank as matrix_rank  # noqa: F401 (matrix_rank stays public)

@dataclass(frozen=True)
class MonomialBasis:
    """Exponent pairs (i, j) for x^i y^j, with pole orders i*px + j*py.

    A verified basis also carries `rows`, the evaluation vectors of its
    monomials at the points it was verified on.
    """

    r: int
    monomials: tuple[tuple[int, int], ...]
    pole_orders: tuple[int, ...]
    verified: bool
    dropped: tuple[tuple[int, int], ...] = ()
    rows: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.monomials)


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
                      points: np.ndarray) -> np.ndarray:
    """Rows = monomials evaluated at the affine points, an (N, 2) array of
    (x, y) indices (index matrix).

    x^i y^j is g^(i log x + j log y) for the primitive element g, so all
    rows are one gather from the antilog table.  A zero base with a
    positive exponent makes the entry 0; 0^0 = 1.
    """
    F = curve.tower.ext
    xs, ys = check_points(curve, points).T
    exps = np.array(monomials, dtype=np.int64).reshape(-1, 2)
    i, j = exps[:, :1], exps[:, 1:]
    rows = F._exp[(F._log[xs] * i + F._log[ys] * j) % (F.order - 1)]
    rows[((xs == 0) & (i > 0)) | ((ys == 0) & (j > 0))] = 0
    return rows


def _candidate_pivots(curve: CurveSpec, r: int, points: np.ndarray):
    """The candidates for r, their evaluation matrix E at `points`, and
    the pivot columns of rref(E^T): the candidates whose row of E is
    independent of the rows before it."""
    cand = candidate_monomials(curve, r)
    E = evaluation_matrix(curve, cand.monomials, points)
    return cand, E, pivot_columns(curve.tower.ext, E.T)


def verified_basis(curve: CurveSpec, r: int, points: np.ndarray) -> MonomialBasis:
    """Greedy rank-filtered subset of the candidates, in (pole, i, j) order.

    The retained monomials have linearly independent evaluation vectors
    at `points`; the retained count equals the rank of the full
    candidate evaluation matrix E.  A candidate is kept iff its row of E
    is independent of the rows before it, i.e. iff it is a pivot column
    of rref(E^T).
    """
    cand, E, pivots = _candidate_pivots(curve, r, points)
    kept = set(pivots)
    return MonomialBasis(
        r=r,
        monomials=tuple(m for k, m in enumerate(cand.monomials) if k in kept),
        pole_orders=tuple(po for k, po in enumerate(cand.pole_orders) if k in kept),
        verified=True,
        dropped=tuple(m for k, m in enumerate(cand.monomials) if k not in kept),
        rows=E[pivots],
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
                     points: np.ndarray | None = None) -> list[DimensionRow]:
    """Ground-truth ranks vs the case formula for r = 0..r_max.

    The candidates are sorted by (pole order, i, j), so those of r are
    the prefix of the r_max list with pole order <= r.  A pivot column of
    rref(E^T) for the r_max candidate matrix E is a candidate independent
    of those before it, so the pivots of r's prefix are the r_max pivots
    inside it.  One elimination at r_max thus gives every row's rank,
    which is also the size of `verified_basis(curve, r, points)`; `rank`
    and `verified_count` are two readings of that one elimination.

    `riemann_roch` holds deg + 1 - g when 2g - 2 < r and the code is not
    saturated (deg + 1 - g < #points), else None.
    """
    if points is None:
        points = enumerate_points(curve)
    g = curve.genus
    npts = len(points)
    if r_max < 0:
        return []
    cand, _, pivots = _candidate_pivots(curve, r_max, points)
    rows = []
    for r in range(0, r_max + 1):
        count = bisect_right(cand.pole_orders, r)
        rk = bisect_left(pivots, count)
        pred = dimension_by_cases(curve, r)
        rr = r + 1 - g if (r > 2 * g - 2 and r + 1 - g < npts) else None
        rows.append(
            DimensionRow(
                r=r,
                candidates=count,
                rank=rk,
                verified_count=rk,
                case=pred.case,
                predicted=str(pred.value),
                riemann_roch=rr,
                prediction_matches_rank=pred.is_integer and pred.value == rk,
            )
        )
    return rows
