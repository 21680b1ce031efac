import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agq.gf import (
    Felt,
    Field,
    FieldError,
    FieldMismatchError,
    factor_prime_power,
    field,
    quadratic_tower,
)
from oracles import NaiveField, digits


# ---------------------------------------------------------------------------
# construction and defaults


def test_gf4_default_modulus_gives_a_squared_plus_a_plus_one(f4):
    # a^2 + a + 1 = 0, i.e. a*a == a+1
    assert f4.modulus == (1, 1, 1)
    a = f4.felt(2)
    assert a * a == f4.felt(3)
    assert (a * a + a + f4.one()).index == 0


def test_canonical_order_gf4(f4):
    assert [f4.format_element(i) for i in range(4)] == ["0", "1", "a", "a+1"]
    assert [e.index for e in f4.elements()] == [0, 1, 2, 3]


def test_nonprime_characteristic_rejected():
    with pytest.raises(FieldError):
        field(4, 2)


def test_desk_scale_limit():
    with pytest.raises(FieldError):
        field(2, 17)


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        Field(2, 2, modulus=[0, 1, 1])  # x^2 + x = x(x+1)


@pytest.mark.parametrize("p,e,modulus,primitive", [
    (3, 2, (1, 0, 1), 4),         # x^2 + 1: the x-class has order 4
    (2, 4, (1, 1, 1, 1, 1), 3),   # x^4 + x^3 + x^2 + x + 1: order 5
    (5, 2, (2, 0, 1), 6),         # x^2 + 2: order 8
])
def test_custom_modulus_without_primitive_x_class(p, e, modulus, primitive):
    F = Field(p, e, modulus=modulus)
    assert F.primitive == primitive
    nf = NaiveField(p, e, modulus)
    for a in range(F.order):
        for b in range(F.order):
            assert F.mul(a, b) == nf.mul(a, b)


def test_gf2_16_default_modulus():
    F = field(2, 16)
    assert F.modulus == (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,)
    assert F.primitive == 2


def test_factor_prime_power():
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(2) == (2, 1)
    with pytest.raises(FieldError):
        factor_prime_power(12)


# ---------------------------------------------------------------------------
# arithmetic against a naive polynomial oracle


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 4), (5, 2), (7, 1)])
def test_mul_matches_naive_poly_reduction(p, e):
    F = field(p, e)
    nf = NaiveField(p, e, F.modulus)
    for a in range(F.order):
        for b in range(F.order):
            assert F.mul(a, b) == nf.mul(a, b)
            assert F.add(a, b) == nf.add(a, b)


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (5, 2)])
def test_inv_matches_naive(p, e):
    F = field(p, e)
    nf = NaiveField(p, e, F.modulus)
    for a in range(1, F.order):
        assert F.inv(a) == nf.inv(a)
        assert F.mul(a, F.inv(a)) == 1


def test_gf4_example_values(f4):
    a = 2  # the element a
    assert f4.add(a, a) == 0          # characteristic 2
    assert f4.add(a, 1) == 3          # a + 1
    assert f4.mul(a, a) == 3          # a^2 = a + 1
    assert f4.mul(a, f4.mul(a, a)) == 1  # a * a^2 = 1
    assert f4.inv(1) == 1
    assert f4.inv(a) == f4.mul(a, a)  # inv(a) = a^2


def test_additive_inverse_gf9(f9):
    for a in range(9):
        assert f9.add(a, f9.neg(a)) == 0


def test_inv_zero_raises(f4):
    with pytest.raises(ZeroDivisionError):
        f4.inv(0)
    with pytest.raises(ZeroDivisionError):
        f4.vinv(np.array([1, 0, 2]))


# ---------------------------------------------------------------------------
# field axioms, exhaustive at small orders, vectorized at 256


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_axioms_exhaustive(p, e):
    F = field(p, e)
    n = F.order
    idx = np.arange(n, dtype=np.int64)
    a = idx[:, None, None]
    b = idx[None, :, None]
    c = idx[None, None, :]
    assert np.array_equal(F.vadd(F.vadd(a, b), c), F.vadd(a, F.vadd(b, c)))
    assert np.array_equal(F.vmul(F.vmul(a, b), c), F.vmul(a, F.vmul(b, c)))
    assert np.array_equal(F.vmul(a, F.vadd(b, c)), F.vadd(F.vmul(a, b), F.vmul(a, c)))
    ab = idx[:, None]
    assert np.array_equal(F.vadd(ab, idx[None, :]), F.vadd(idx[None, :], ab))
    assert np.array_equal(F.vmul(ab, idx[None, :]), F.vmul(idx[None, :], ab))


def test_axioms_gf256_vectorized():
    F = field(2, 8)
    idx = np.arange(256, dtype=np.int64)
    # exhaustive associativity/distributivity in 16 chunks over the first axis
    for lo in range(0, 256, 16):
        a = idx[lo : lo + 16, None, None]
        b = idx[None, :, None]
        c = idx[None, None, :]
        assert np.array_equal(F.vmul(F.vmul(a, b), c), F.vmul(a, F.vmul(b, c)))
        assert np.array_equal(F.vmul(a, F.vadd(b, c)), F.vadd(F.vmul(a, b), F.vmul(a, c)))


def test_primitive_generates_all_nonzero():
    for p, e in [(2, 2), (3, 2), (2, 4), (5, 2), (13, 1)]:
        F = field(p, e)
        seen = set()
        acc = 1
        for _ in range(F.order - 1):
            seen.add(acc)
            acc = F.mul(acc, F.primitive)
        assert seen == set(range(1, F.order))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
def test_axioms_sampled_gf49(a, b, c):
    F = field(7, 2)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if a:
        assert F.mul(a, F.inv(a)) == 1


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_sizes_and_distinct():
    for p, e in [(3, 2), (2, 4)]:
        F = field(p, e)
        elems = [x.index for x in F.elements()]
        assert len(elems) == p**e
        assert len(set(elems)) == p**e


def test_enumeration_closed_under_add_gf16():
    F = field(2, 4)
    all_sums = {F.add(a, b) for a in range(16) for b in range(16)}
    assert all_sums == set(range(16))


def test_digit_encoding_matches_indices(f9):
    for a in range(9):
        assert f9.coeffs(a) == digits(a, 3, 2)


# ---------------------------------------------------------------------------
# Felt wrapper


def test_felt_mismatch_raises(f4, f9):
    with pytest.raises(FieldMismatchError):
        f4.felt(1) + f9.felt(1)
    with pytest.raises(FieldMismatchError):
        f4.felt(1) * f9.felt(2)
    with pytest.raises(FieldMismatchError):
        f4.felt(1) + 1


def test_felt_algebra(f9):
    a = f9.felt(f9.primitive)
    assert a / a == f9.one()
    assert a - a == f9.zero()
    assert (a**8).index == 1
    assert a.coeffs == f9.coeffs(a.index)
    assert bool(f9.zero()) is False and bool(a) is True


# ---------------------------------------------------------------------------
# tower: frobenius, embedding, subfield


def test_frobenius_gf4_square(tower2):
    F = tower2.ext
    a = F.felt(2)
    assert tower2.frobenius(a) == a * a  # b^q with q = 2


def test_frobenius_involution_and_fixed_set():
    for q in (2, 3, 4, 5):
        tw = quadratic_tower(q)
        F = tw.ext
        for a in range(F.order):
            fa = int(tw.frob_table[a])
            assert int(tw.frob_table[fa]) == a
        fixed = {a for a in range(F.order) if int(tw.frob_table[a]) == a}
        assert fixed == set(tw.subfield_indices)
        assert len(fixed) == q


def test_embed_is_homomorphism_gf3_to_gf9(tower3):
    base, ext = tower3.base, tower3.ext
    for a in range(3):
        for b in range(3):
            ea = tower3.embed(base.felt(a))
            eb = tower3.embed(base.felt(b))
            assert tower3.embed(base.felt(base.mul(a, b))) == ea * eb
            assert tower3.embed(base.felt(base.add(a, b))) == ea + eb
    assert tower3.embed(base.felt(0)).index == 0
    assert tower3.embed(base.felt(1)).index == 1


def test_embed_image_is_frobenius_fixed(tower3):
    for a in range(3):
        img = tower3.embed(tower3.base.felt(a))
        assert tower3.frobenius(img) == img


def test_frobenius_wrong_field_raises(tower2, f9):
    with pytest.raises(FieldMismatchError):
        tower2.frobenius(f9.felt(1))
    with pytest.raises(FieldMismatchError):
        tower2.embed(f9.felt(1))


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip(f4):
    data = json.loads(f4.to_json())
    assert data == {"p": 2, "e": 2, "modulus": [1, 1, 1], "primitive": [0, 1]}
    restored = Field.from_json(f4.to_json())
    assert restored == f4
    assert restored.primitive == f4.primitive


def test_json_non_default_primitive(f9):
    text = json.dumps({"p": 3, "e": 2, "modulus": list(f9.modulus), "primitive": [0, 2]})
    F = Field.from_json(text)
    assert F.primitive == 6
    assert F._exp.tolist() == [1, 6, 7, 4, 2, 3, 5, 8]
    for a in range(1, 9):
        assert F.mul(a, F.inv(a)) == 1
        assert F.mul(a, 6) == f9.mul(a, 6)


def test_json_rejects_non_generator():
    # 1 has order 1 in GF(4)*, not a valid primitive element
    with pytest.raises(FieldError):
        Field.from_json(json.dumps({"p": 2, "e": 2, "modulus": [1, 1, 1], "primitive": [1, 0]}))


# ---------------------------------------------------------------------------
# vectorized ops agree with scalar ops


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 200))
def test_vector_ops_match_scalar(seed):
    rng = np.random.default_rng(seed)
    F = field(3, 2)
    a = rng.integers(0, 9, size=20)
    b = rng.integers(0, 9, size=20)
    assert list(F.vadd(a, b)) == [F.add(int(x), int(y)) for x, y in zip(a, b)]
    assert list(F.vmul(a, b)) == [F.mul(int(x), int(y)) for x, y in zip(a, b)]
    assert list(F.vsub(a, b)) == [F.sub(int(x), int(y)) for x, y in zip(a, b)]
    assert int(F.vsum(a)) == _fold_add(F, a)
    k = int(rng.integers(0, 7))
    assert list(F.vpow(a, k)) == [F.pow(int(x), k) for x in a]


def _fold_add(F, values):
    acc = 0
    for v in values:
        acc = F.add(acc, int(v))
    return acc
