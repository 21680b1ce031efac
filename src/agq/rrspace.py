"""Monomial spaces attached to multiples of the places at infinity.

`candidate_monomials` lists the pairs (i, j) with weight
i*n + j*m <= r and 0 <= j <= q-1.  That j-range is known to
overcount for the superelliptic family (y already satisfies a relation
of degree n = (q+1)/2 over GF(q^2)(x)), so candidates are never used as
a basis directly: `verified_basis` rank-filters their evaluation
vectors at the chosen points and records what was dropped.  The one
forward elimination that does so also yields a basis of the null space
of the kept vectors, the parity check of the code they generate.  The
verified basis at r is a row prefix of the one at any larger r
(`MonomialBasis.prefix`), so one basis serves a whole range of r.

`dimension_by_cases` evaluates a five-case closed-form dimension
prediction exactly as specified (including its fractional /4 term) and
is intended for comparison reports only; `dimension_report` tabulates
it against ground-truth ranks and against deg + 1 - g, all read from
the one verified basis at r_max.  The tests check those readings
against per-r ranks over a naive field.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .curve import CurveSpec, check_points, enumerate_points
from .linalg import pivots_and_left_kernel, rank as matrix_rank  # noqa: F401 (matrix_rank stays public)

@dataclass(frozen=True)
class MonomialBasis:
    """Exponent pairs (i, j) for x^i y^j, with weights i*n + j*m
    (`pole_orders`: e times the pole order at each place at infinity).

    A verified basis also carries `rows`, the evaluation vectors of its
    monomials at the points it was verified on, and `parity_check`, a
    basis of the null space of `rows` from the elimination that verified
    them.
    """

    r: int
    monomials: tuple[tuple[int, int], ...]
    pole_orders: tuple[int, ...]
    verified: bool
    dropped: tuple[tuple[int, int], ...] = ()
    rows: np.ndarray | None = field(default=None, compare=False, repr=False)
    parity_check: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.monomials)

    def prefix(self, r: int) -> int:
        """The number of kept monomials of weight <= r, for r <= self.r.

        For a verified basis, `rows[:prefix(r)]` is exactly
        `verified_basis(curve, r, points).rows`, since the spaces of
        functions of weight <= r nest.  The candidates are sorted by
        (weight, i, j), so those of r are the prefix of the candidates of
        self.r with weight <= r.  A candidate is kept iff it is a pivot
        column of E^T, E the candidate evaluation matrix: iff its row of E
        is independent of the rows before it.  That depends only on the
        rows before it, so the kept candidates of r's prefix are the kept
        candidates of self.r inside it, in the same order.
        """
        return bisect_right(self.pole_orders, r)


def candidate_monomials(curve: CurveSpec, r: int) -> MonomialBasis:
    """All (i, j) with i*n + j*m <= r, i >= 0, 0 <= j <= q-1, sorted by
    (weight, i, j).  Negative r yields the empty basis."""
    n, m = curve.n, curve.m
    found = []
    if r >= 0:
        for j in range(0, curve.q):
            rem = r - j * m
            if rem < 0:
                break
            for i in range(rem // n + 1):
                found.append((i * n + j * m, i, j))
    found.sort()
    return MonomialBasis(
        r=r,
        monomials=tuple((i, j) for _, i, j in found),
        pole_orders=tuple(po for po, _, _ in found),
        verified=False,
    )


def candidate_count(curve: CurveSpec, r) -> int:
    """Size of the candidate set, counted arithmetically (no list built)."""
    n, m = curve.n, curve.m
    if r < 0:
        return 0
    total = 0
    for j in range(0, curve.q):
        rem = r - j * m
        if rem < 0:
            break
        total += int(rem // n) + 1
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


def verified_basis(curve: CurveSpec, r: int, points: np.ndarray) -> MonomialBasis:
    """Greedy rank-filtered subset of the candidates, in (pole, i, j) order.

    The retained monomials have linearly independent evaluation vectors
    at `points`; the retained count equals the rank of the full
    candidate evaluation matrix E.  A candidate is kept iff its row of E
    is independent of the rows before it, i.e. iff it is a pivot column
    of E^T.

    The same forward elimination of E^T gives `parity_check`, a basis of
    its left kernel {h : h E^T = 0}: the null space of E, which is that
    of `rows`, since the kept rows span the row space of E.
    """
    cand = candidate_monomials(curve, r)
    E = evaluation_matrix(curve, cand.monomials, points)
    pivots, H = pivots_and_left_kernel(curve.tower.ext, E.T)
    kept = set(pivots)
    return MonomialBasis(
        r=r,
        monomials=tuple(m for k, m in enumerate(cand.monomials) if k in kept),
        pole_orders=tuple(po for k, po in enumerate(cand.pole_orders) if k in kept),
        verified=True,
        dropped=tuple(m for k, m in enumerate(cand.monomials) if k not in kept),
        rows=E[pivots],
        parity_check=H,
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

    Every row reads the one verified basis at r_max: its `prefix(r)` is
    the size of `verified_basis(curve, r, points)`, which is the rank of
    the candidate evaluation matrix at r, so `rank` and `verified_count`
    are two readings of one elimination.

    `riemann_roch` holds l(G) = deg G + 1 - g for the divisor G of r
    where 2g - 2 < deg G < #points, else None.  There evaluation is
    injective on L(G), so for separable x^m + x, whose smooth affine
    model makes the candidates span L(G), the value is the rank.
    """
    if points is None:
        points = enumerate_points(curve)
    g = curve.genus
    npts = len(points)
    if r_max < 0:
        return []
    basis = verified_basis(curve, r_max, points)
    rows = []
    for r in range(0, r_max + 1):
        rk = basis.prefix(r)
        pred = dimension_by_cases(curve, r)
        deg = curve.divisor_degree(r)
        rr = deg + 1 - g if 2 * g - 2 < deg < npts else None
        rows.append(
            DimensionRow(
                r=r,
                candidates=candidate_count(curve, r),
                rank=rk,
                verified_count=rk,
                case=pred.case,
                predicted=str(pred.value),
                riemann_roch=rr,
                prediction_matches_rank=pred.is_integer and pred.value == rk,
            )
        )
    return rows
