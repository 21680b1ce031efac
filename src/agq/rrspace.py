"""Monomial spaces attached to multiples of the places at infinity.

`candidate_monomials` lists the pairs (i, j) with weight
i*n + j*m <= r and 0 <= j <= q-1.  That j-range is known to
overcount for the superelliptic family (y already satisfies a relation
of degree n = (q+1)/2 over GF(q^2)(x)), so candidates are never used as
a basis directly: `verified_basis` rank-filters their evaluation
vectors at the chosen points and records what was dropped.  The
verified basis at r is a row prefix of the one at any larger r
(`MonomialBasis.prefix`), and the parity check of the code it generates
is a row suffix of the transform of the elimination that verified it.
So one basis serves a whole range of r: `code_ladder` keeps one on each
curve object, and every code built on the curve reads it.

`dimension_report` tabulates the closed-form dimension of
`claims.dimension_by_cases` against ground-truth ranks and against
deg + 1 - g, all read from the curve's code ladder at r_max.  The tests
check those readings against per-r ranks over a naive field.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import claims
from .curve import CurveSpec, check_points, enumerate_points
from .linalg import pivots_and_transform, rank as matrix_rank  # noqa: F401 (matrix_rank stays public)

@dataclass(frozen=True)
class MonomialBasis:
    """Exponent pairs (i, j) for x^i y^j, with weights i*n + j*m
    (`pole_orders`: e times the pole order at each place at infinity).

    A verified basis also carries `rows`, the evaluation vectors of its
    monomials at the points it was verified on, and `transform`, the T of
    the elimination that verified them: `transform[prefix(r):]` is a basis
    of the null space of `rows[:prefix(r)]`, the code at r's parity check.
    """

    r: int
    monomials: tuple[tuple[int, int], ...]
    pole_orders: tuple[int, ...]
    verified: bool
    dropped: tuple[tuple[int, int], ...] = ()
    rows: np.ndarray | None = field(default=None, compare=False, repr=False)
    transform: np.ndarray | None = field(default=None, compare=False, repr=False)

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

        Past self.r the basis holds too few monomials to tell, so an r above
        self.r is a ValueError.
        """
        if r > self.r:
            raise ValueError(f"prefix({r}) reads past the basis at r={self.r}")
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

    The same elimination gives `transform`, its T from
    `pivots_and_transform`.  The candidates of weight <= s are the first
    columns of E^T, so `transform[prefix(s):]` is a basis of the null
    space of `rows[:prefix(s)]`.

    Candidates stop at r* = (q^2 - 1) n + (q - 1) m.  Past it x^i y^j has
    i >= q^2 (j < q), and x^(q^2) = x on GF(q^2), so it evaluates as
    x^(i - q^2 + 1) y^j, of smaller weight: never kept, it is a column with
    no pivot, which changes nothing.  `dropped` lists those up to r*.
    """
    cand = candidate_monomials(curve, min(r, (curve.q**2 - 1) * curve.n + (curve.q - 1) * curve.m))
    E = evaluation_matrix(curve, cand.monomials, points)
    pivots, T = pivots_and_transform(curve.tower.ext, E.T)
    kept = set(pivots)
    return MonomialBasis(
        r=r,
        monomials=tuple(m for k, m in enumerate(cand.monomials) if k in kept),
        pole_orders=tuple(po for k, po in enumerate(cand.pole_orders) if k in kept),
        verified=True,
        dropped=tuple(m for k, m in enumerate(cand.monomials) if k not in kept),
        rows=E[pivots],
        transform=T,
    )


def code_ladder(curve: CurveSpec, r: int, points: np.ndarray) -> MonomialBasis:
    """The curve's code ladder on `points`, read at r: a verified basis at
    some top r_top >= r, so that `rows[:prefix(r)]` are the rows of
    `verified_basis(curve, r, points)`.

    A curve object keeps one ladder: the verified basis at the largest r
    asked for so far, on the last point set asked for.  A request above
    its top, or on other points, makes one `verified_basis` at r, which
    becomes the ladder; any other request makes no elimination.  The
    ladder's arrays are read-only, since the codes read from it share
    them.
    """
    points = check_points(curve, points)
    held = curve._cache.get("ladder")
    if held is not None:
        top_points, basis = held
        if r <= basis.r and np.array_equal(top_points, points):
            return basis
    basis = verified_basis(curve, r, points)
    if points.flags.writeable:
        points = points.copy()
    for array in (points, basis.rows, basis.transform):
        array.setflags(write=False)
    curve._cache["ladder"] = (points, basis)
    return basis


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

    Every row reads the curve's code ladder at r_max: its `prefix(r)` is
    the size of `verified_basis(curve, r, points)`, which is the rank of
    the candidate evaluation matrix at r, so `rank` and `verified_count`
    are two readings of one elimination, or of none when the ladder
    already reaches r_max on these points.

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
    basis = code_ladder(curve, r_max, points)
    rows = []
    for r in range(0, r_max + 1):
        rk = basis.prefix(r)
        pred = claims.dimension_by_cases(curve, r)
        deg = curve.divisor_degree(r)
        rr = deg + 1 - g if 2 * g - 2 < deg < npts else None
        rows.append(DimensionRow(r=r, candidates=claims.candidate_count(curve, r), rank=rk,
                                 verified_count=rk, case=pred.case, predicted=str(pred.value),
                                 riemann_roch=rr, prediction_matches_rank=pred.is_integer and pred.value == rk))
    return rows
