"""The paper's closed forms for the codes of y^n = x^m + x, each evaluated
as printed, in Fractions where it can be fractional: the term
(q-1)(m-1)/2, the duality companion r', the five-case dimension, the
stabilizer family with its proven range of r, and the thresholds and
claimed parameters of a code report.  No other module evaluates them;
reports and tables compare them with computed ground truth, never use
them as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curve import CurveSpec
from .gf import MAX_FIELD_SIZE, FieldError, factor_prime_power


def half_term(q: int, m: int) -> Fraction:
    """(q-1)(m-1)/2, a half-integer when (q-1)(m-1) is odd."""
    return Fraction((q - 1) * (m - 1), 2)


def companion(q: int, m: int, r) -> Fraction:
    """The duality companion r' = q^2 + (q-1)(m-1)/2 - r."""
    return q * q + half_term(q, m) - r


def candidate_count(curve: CurveSpec, r) -> int:
    """The number of (i, j) with i*n + j*m <= r, i >= 0 and 0 <= j <= q-1,
    counted arithmetically (no list built)."""
    return sum(int((r - j * curve.m) // curve.n) + 1 for j in range(curve.q) if r - j * curve.m >= 0)


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
    half, qq = half_term(q, m), q * q
    if r < 0:
        case, val = 1, Fraction(0)
    elif r <= half:
        case, val = 2, Fraction(candidate_count(curve, r))
    elif r < qq:
        case, val = 3, r * (q + 1) - half / 2
    elif r <= qq + half:
        case, val = 4, Fraction(qq - candidate_count(curve, companion(q, m, r)))
    else:
        case, val = 5, Fraction(qq)
    return DimensionPrediction(case=case, value=val, is_integer=val.denominator == 1)


def quantum_family(q: int, m: int, r) -> tuple[Fraction, Fraction, Fraction, bool]:
    """n, k, d of [[q^2, q^2 + (q-1)(m-1)/2 - 2 - 2r, r - (q-1)(m-1)/2 + 2]]_q,
    and whether r lies in the proven range q-1 <= r <= 2(q-1).

    FieldError unless q is a prime power, so that GF(q^2) exists, and
    m >= 2, as the curve constructors require.
    """
    # q's size before factoring it, so that a huge q fails at once
    if q * q > MAX_FIELD_SIZE:
        raise FieldError(f"q={q}: field size GF({q}^2) = {q * q} exceeds desk-scale limit {MAX_FIELD_SIZE}")
    try:
        factor_prime_power(q)
    except FieldError:
        raise FieldError(f"q={q} is not a prime power, so there is no GF({q}^2)") from None
    if m < 2:
        raise FieldError(f"m={m}: the exponent of x must be >= 2")
    n, half = Fraction(q * q), half_term(q, m)
    return n, n + half - 2 - 2 * r, r - half + 2, q - 1 <= r <= 2 * (q - 1)


def report_claims(q: int, m: int, r: int) -> dict:
    """A code report's thresholds and claimed parameters, keyed by their
    `CodeReport` fields: Euclidean self-orthogonality for
    2r <= q^2 + (q-1)(m-1)/2, Hermitian self-orthogonality for r <= q-1
    and for r <= (q-1)(q+1), length q^2 and designed distance q^2 - r(q+1)."""
    return {
        "euclidean_threshold_holds": 2 * r <= q * q + half_term(q, m),
        "hermitian_threshold_r": r <= q - 1,
        "hermitian_threshold_pole": r <= (q - 1) * (q + 1),
        "length_claimed": q * q,
        "designed_distance_claimed": q * q - r * (q + 1),
    }
