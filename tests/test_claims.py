import time
from fractions import Fraction

import pytest

from agq import claims
from agq.agcode import code_report
from agq.curve import hermitian_curve, superelliptic_curve
from agq.gf import FieldError
from agq.quantum import designed_params
from oracles import paper_dimension, paper_monomial_count, paper_report_claims, paper_stabilizer_family

# every curve the report families build: Hermitian q <= 9, superelliptic odd q <= 9 with m = 2..9
CURVES = ([hermitian_curve(q) for q in (2, 3, 4, 5, 7, 8, 9)]
          + [superelliptic_curve(q, m) for q in (3, 5, 7, 9) for m in range(2, 10)])


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.label())
def test_every_closed_form_matches_the_paper_oracle(curve):
    # r runs from -2 to 3 past q^2 + (q-1)(m-1)/2, so every dimension case,
    # both signs of r' and the stabilizer family's whole range are met
    q, n, m = curve.q, curve.n, curve.m
    for r in range(-2, q * q + (q - 1) * (m - 1) // 2 + 4):
        expected = paper_report_claims(q, m, r)
        assert claims.half_term(q, m) == Fraction((q - 1) * (m - 1), 2)
        assert claims.companion(q, m, r) == expected.pop("r_prime")
        assert claims.report_claims(q, m, r) == expected
        assert all(type(v) in (bool, int) for v in claims.report_claims(q, m, r).values())

        case, k = paper_dimension(q, n, m, r)
        pred = claims.dimension_by_cases(curve, r)
        assert (pred.case, pred.value, pred.is_integer) == (case, k, k.denominator == 1), r
        assert claims.candidate_count(curve, r) == paper_monomial_count(q, n, m, r)

        fn, fk, fd, in_range = paper_stabilizer_family(q, m, r)
        assert claims.quantum_family(q, m, r) == (fn, fk, fd, in_range)
        p = designed_params(q, m, r)
        fractional = fk.denominator != 1 or fd.denominator != 1
        assert (p.n, p.k, p.d) == (fn, fk if not fractional else 0, None if fractional else fd)
        assert (p.fractional, p.range_ok, p.k_nonnegative) == (fractional, in_range, fk >= 0)
        assert p.singleton_ok == (None if fractional else fk + 2 * fd <= fn + 2)
        assert p.valid == (not fractional and fd >= 1 and fk >= 0)


@pytest.mark.parametrize("curve, rs", [
    # one r in each of the five dimension cases, in order
    (superelliptic_curve(3, 3), (-1, 1, 5, 10, 12)),   # (q-1)(m-1)/2 = 2, q^2 = 9
    (hermitian_curve(3), (-2, 3, 7, 11, 13)),          # (q-1)(m-1)/2 = 3
    (superelliptic_curve(5, 2), (-1, 2, 20, 26, 30)),  # (q-1)(m-1)/2 = 2, q^2 = 25
], ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_code_report_claim_fields_match_the_paper_oracle(curve, rs):
    q, n, m = curve.q, curve.n, curve.m
    for case, r in enumerate(rs, start=1):
        report = code_report(curve, r)
        expected = paper_report_claims(q, m, r)
        r_prime = expected.pop("r_prime")
        assert {key: getattr(report, key) for key in expected} == expected
        _, k = paper_dimension(q, n, m, r)
        assert (report.dimension_case, report.dimension_predicted) == (case, str(k))
        assert report.dimension_prediction_matches == (k == report.k)
        claim = report.duality_claim
        assert claim["applicable"] == (r_prime >= 0 and r_prime.denominator == 1)
        assert claim["r_prime"] == (r_prime if r_prime.denominator == 1 else None)


@pytest.mark.parametrize("q, m, named", [
    (10, 3, "q=10"), (1, 3, "q=1"), (0, 3, "q=0"), (-3, 3, "q=-3"), (6, 2, "q=6"),
    (9, 1, "m=1"), (3, 0, "m=0"), (5, -2, "m=-2"),
])
def test_designed_params_needs_a_curve(q, m, named):
    # the family lives on a curve over GF(q^2): q a prime power and m >= 2
    with pytest.raises(FieldError, match=named):
        designed_params(q, m, q)


def test_designed_params_rejects_a_huge_q_before_factoring_it():
    # 2^61 - 1 is prime; trial division would take minutes
    start = time.perf_counter()
    with pytest.raises(FieldError, match="exceeds desk-scale limit"):
        designed_params(2**61 - 1, 3, 5)
    assert time.perf_counter() - start < 1.0


def test_designed_params_accepts_q_up_to_the_field_limit():
    # q = 256 is the largest q with q^2 <= 2^16, and 257 the first past it
    assert designed_params(256, 2, 255).range_ok
    with pytest.raises(FieldError, match="q=257"):
        designed_params(257, 2, 256)
