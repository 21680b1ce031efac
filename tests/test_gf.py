import functools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agq import gf
from agq.gf import Field, FieldError, factor_prime_power, field, quadratic_tower
from oracles import NaiveField, digits, poly_pow_mod, undigits


def _prime_powers(limit):
    return [(p, e) for p in range(2, limit + 1) if all(p % d for d in range(2, p))
            for e in range(1, 17) if p**e <= limit]


# ---------------------------------------------------------------------------
# construction and defaults


def test_gf4_default_modulus_gives_a_squared_plus_a_plus_one(f4):
    # a^2 + a + 1 = 0, i.e. a*a == a+1
    assert f4.modulus == (1, 1, 1)
    a = 2
    assert f4.mul(a, a) == 3
    assert f4.add(f4.add(f4.mul(a, a), a), 1) == 0


def test_canonical_order_gf4(f4):
    # 0, 1, a, a+1: coefficients (c0, c1) of c0 + c1 a
    assert [f4.coeffs(i) for i in range(4)] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_nonprime_characteristic_rejected():
    with pytest.raises(FieldError):
        field(4, 2)


def test_desk_scale_limit():
    with pytest.raises(FieldError):
        field(2, 17)
    # the size is checked before the primality test of a huge p, the power
    # of a huge e, or the factoring of a huge q: 2^61 - 1 is prime, and
    # trial division up to its square root would not finish
    with pytest.raises(FieldError, match="exceeds"):
        field(2**61 - 1, 1)
    with pytest.raises(FieldError, match="exceeds"):
        field(2, 10**9)
    with pytest.raises(FieldError, match=r"GF\(2305843009213693951\^2\)"):
        quadratic_tower(2**61 - 1)
    with pytest.raises(FieldError, match="exceeds"):
        quadratic_tower(257)


def _x_class(modulus, p):
    """x reduced by the monic modulus, as e coefficients."""
    e = len(modulus) - 1
    return ((-modulus[0]) % p,) if e == 1 else (0, 1) + (0,) * (e - 2)


@functools.cache
def _prime_divisors(n):
    return {r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))}


def _has_full_order(a, p, modulus):
    """Whether a has multiplicative order p^e - 1 modulo the modulus."""
    n = p ** (len(modulus) - 1) - 1
    one = digits(1, p, len(a))
    return poly_pow_mod(a, n, p, modulus) == one and all(
        poly_pow_mod(a, n // r, p, modulus) != one for r in _prime_divisors(n))


# every field up to 256, and larger ones up to the size limit: GF(251^2)
# and GF(7^4) find their modulus past the first batch of candidates, and
# GF(65521) tests 1 x 1 companion matrices
@pytest.mark.parametrize("p,e", _prime_powers(256) + [(2, 12), (2, 16), (3, 8), (3, 10), (5, 6),
                                                       (7, 4), (251, 2), (65521, 1)])
def test_canonical_modulus_and_primitive_match_oracle(p, e):
    # the smallest monic degree-e encoding whose x-class has full order,
    # which also makes the modulus irreducible
    modulus = next(m for m in (digits(enc, p, e) + (1,) for enc in range(p**e))
                   if _has_full_order(_x_class(m, p), p, m))
    F = field(p, e)
    assert F.modulus == modulus
    x = _x_class(modulus, p)
    assert F.primitive == undigits(x, p)
    n = p**e - 1
    for i in {n // 2, n - 1} | set(range(0, n, max(1, n // 7))):
        assert int(F._exp[i]) == undigits(poly_pow_mod(x, i, p, modulus), p)


def test_gf2_16_default_modulus():
    F = field(2, 16)
    assert F.modulus == (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,)
    assert F.primitive == 2


def test_factor_prime_power():
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(2**16) == (2, 16)
    assert factor_prime_power(65521**2) == (65521, 2)
    # a prime needs trial division only up to its square root
    assert factor_prime_power(2**31 - 1) == (2**31 - 1, 1)
    for q in (12, 65521 * 65519, 1, 0, -4):
        with pytest.raises(FieldError):
            factor_prime_power(q)


def test_largest_field_builds_in_bounded_memory():
    # the (2^16, 16) int64 digit table is 8 MiB of the peak; the modulus
    # search holds only one batch of 16 x 16 companion matrices
    tracemalloc.start()
    try:
        Field(2, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


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
        assert int(F.vinv(a)) == nf.inv(a)
        assert F.mul(a, nf.inv(a)) == 1


def test_gf4_example_values(f4):
    a = 2  # the element a
    assert f4.add(a, a) == 0          # characteristic 2
    assert f4.add(a, 1) == 3          # a + 1
    assert f4.mul(a, a) == 3          # a^2 = a + 1
    assert f4.mul(a, f4.mul(a, a)) == 1  # a * a^2 = 1
    assert f4.vinv(1) == 1
    assert f4.vinv(a) == f4.mul(a, a)  # inv(a) = a^2


def test_additive_inverse_gf9(f9):
    for a in range(9):
        assert f9.add(a, int(f9.vneg(a))) == 0


def test_inv_zero_raises(f4):
    with pytest.raises(ZeroDivisionError):
        f4.vinv(0)
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
        assert F.mul(a, int(F.vinv(a))) == 1


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_sizes_and_distinct():
    for p, e in [(3, 2), (2, 4)]:
        F = field(p, e)
        elems = [F.coeffs(a) for a in range(F.order)]
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
# tower: frobenius, embedding, subfield


def test_frobenius_gf4_square(tower2):
    F = tower2.ext
    assert int(tower2.vfrobenius(2)) == F.mul(2, 2)  # b^q with q = 2
    assert tower2.vfrobenius([0, 1, 2, 3]).tolist() == [F.mul(b, b) for b in range(4)]


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
    base, ext, embed = tower3.base, tower3.ext, tower3.embed_table
    for a in range(3):
        for b in range(3):
            assert embed[base.mul(a, b)] == ext.mul(int(embed[a]), int(embed[b]))
            assert embed[base.add(a, b)] == ext.add(int(embed[a]), int(embed[b]))
    assert embed[0] == 0 and embed[1] == 1


def test_embed_image_is_frobenius_fixed(tower3):
    img = tower3.embed_table
    assert np.array_equal(tower3.vfrobenius(img), img)
    assert set(img.tolist()) == tower3.subfield_indices


@pytest.mark.parametrize("q", [49, 64, 81, 256])
def test_large_tower_embedding_and_frobenius(q, monkeypatch):
    # fresh caches, so the tower builds its own fields
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    monkeypatch.setattr(gf, "_TOWER_CACHE", {})
    tw = quadratic_tower(q)
    for f in (tw.base, tw.ext):
        assert not {"_mul_table", "_add_table"} & set(vars(f))
    base = NaiveField(tw.p, tw.s, tw.base.modulus)
    ext = NaiveField(tw.p, 2 * tw.s, tw.ext.modulus)
    embed = tw.embed_table
    assert embed[0] == 0 and embed[1] == 1
    rng = random.Random(q)
    for _ in range(40):
        a, b = rng.randrange(q), rng.randrange(q)
        assert embed[base.add(a, b)] == ext.add(int(embed[a]), int(embed[b]))
        assert embed[base.mul(a, b)] == ext.mul(int(embed[a]), int(embed[b]))
    fixed = np.flatnonzero(tw.frob_table == np.arange(ext.order))
    assert sorted(embed.tolist()) == fixed.tolist()
    for a in rng.sample(range(ext.order), 20):
        assert int(tw.frob_table[a]) == ext.pow(a, q)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip(f4):
    data = json.loads(f4.to_json())
    assert data == {"p": 2, "e": 2, "modulus": [1, 1, 1], "primitive": [0, 1]}


# ---------------------------------------------------------------------------
# vadd / vneg shortcuts against the naive field; a - b is vadd(a, vneg(b))


# every odd-characteristic field on addition tables, every characteristic-2
# field up to 256, and XOR and digit-path fields above 256
ADDITION_FIELDS = _prime_powers(256) + [(2, 9), (2, 12), (3, 6), (7, 3), (257, 1)]


@pytest.mark.parametrize("p,e", ADDITION_FIELDS)
@settings(max_examples=4, deadline=None)
@given(st.data())
def test_vadd_vsub_vneg_match_naive(p, e, data):
    F = field(p, e)
    nf = NaiveField(p, e, F.modulus)
    elements = st.integers(0, F.order - 1)
    a = data.draw(st.lists(elements, min_size=0, max_size=12))
    b = data.draw(st.lists(elements, min_size=len(a), max_size=len(a)))
    c = data.draw(elements)
    assert F.vadd(a, b).tolist() == [nf.add(x, y) for x, y in zip(a, b)]
    assert F.vadd(a, F.vneg(b)).tolist() == [nf.sub(x, y) for x, y in zip(a, b)]
    assert F.vneg(a).tolist() == [nf.neg(x) for x in a]
    # a scalar operand broadcasts against an array, and two scalars give one
    assert F.vadd(c, a).tolist() == [nf.add(c, x) for x in a]
    assert F.vadd(a, F.vneg(c)).tolist() == [nf.sub(x, c) for x in a]
    column = F.vneg(np.array(a, dtype=np.int64).reshape(-1, 1))
    assert F.vadd(c, column).tolist() == [[nf.sub(c, x)] for x in a]
    assert int(F.vadd(c, c)) == nf.add(c, c) and int(F.vneg(c)) == nf.neg(c)


def test_vneg_returns_a_new_array():
    a = np.arange(5, dtype=np.int64)
    for p, e in [(2, 3), (3, 2), (3, 6)]:
        field(p, e).vneg(a)[0] = 1
        assert a[0] == 0


def test_addition_tables_are_built_on_first_use():
    tables = {"_add_table", "_mul_table"}
    # negation multiplies by p - 1, so it builds the multiplication table only
    for p, e in [(3, 2), (7, 2)]:
        F = Field(p, e)
        F.vneg(2)
        assert tables & set(vars(F)) == {"_mul_table"}
        F.vadd(1, 2)
        assert F._add_table.shape == (F.order**2,)
    # GF(3^6), of order above ADD_TABLE_MAX, negates through the log tables
    big = Field(3, 6)
    assert int(big.vneg(2)) == NaiveField(3, 6, big.modulus).neg(2)
    assert not tables & set(vars(big))


# ---------------------------------------------------------------------------
# vmul / vsum / vpow / vinv against the naive field

# every field of order at most 256 multiplies by table; GF(2^9), GF(3^6),
# GF(7^3) and GF(257) multiply through the log/antilog tables
MULTIPLICATION_FIELDS = _prime_powers(256) + [(2, 9), (3, 6), (7, 3), (257, 1)]


@pytest.mark.parametrize("p,e", MULTIPLICATION_FIELDS)
@settings(max_examples=4, deadline=None)
@given(st.data())
def test_vmul_vscale_vdot_match_naive(p, e, data):
    F = field(p, e)
    nf = NaiveField(p, e, F.modulus)
    # zero drawn as often as all other elements together
    elements = st.one_of(st.just(0), st.integers(0, F.order - 1))
    a = data.draw(st.lists(elements, min_size=0, max_size=12))
    b = data.draw(st.lists(elements, min_size=len(a), max_size=len(a)))
    c = data.draw(elements)
    assert F.vmul(a, b).tolist() == [nf.mul(x, y) for x, y in zip(a, b)]
    assert F.vmul(c, a).tolist() == [nf.mul(c, x) for x in a]
    assert F.vmul(a, c).tolist() == [nf.mul(x, c) for x in a]
    # a column against a row broadcasts to the table of all products
    column = np.array(a, dtype=np.int64).reshape(-1, 1)
    assert F.vmul(column, b).tolist() == [[nf.mul(x, y) for y in b] for x in a]
    assert int(F.vmul(c, c)) == nf.mul(c, c)
    dot = 0
    for x, y in zip(a, b):
        dot = nf.add(dot, nf.mul(x, y))
    assert int(F.vsum(F.vmul(a, b))) == dot
    # powers of both signs and the zeroth; a negative power needs a unit
    units = [x for x in a if x]
    up = data.draw(st.integers(1, 2 * F.order))
    down = data.draw(st.integers(1, 2 * F.order))
    assert F.vpow(a, up).tolist() == [nf.pow(x, up) for x in a]
    assert F.vpow(a, 0).tolist() == [1] * len(a)
    assert F.vpow(units, -down).tolist() == [nf.inv(nf.pow(x, down)) for x in units]
    assert F.vinv(units).tolist() == [nf.inv(x) for x in units]


def test_negative_power_of_zero_raises():
    for p, e in [(2, 2), (3, 2), (3, 6)]:
        with pytest.raises(ZeroDivisionError):
            field(p, e).vpow([1, 0], -3)


def test_multiplication_table_is_built_on_first_use(monkeypatch):
    # fresh caches, so the tower builds its own fields
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    monkeypatch.setattr(gf, "_TOWER_CACHE", {})
    F = Field(7, 2)
    tower = quadratic_tower(5)
    fields = [F, tower.base, tower.ext]
    assert not any("_mul_table" in vars(f) for f in fields)
    for f in fields:
        f.vmul(2, [1, 3])
    assert all("_mul_table" in vars(f) for f in fields)
    # a field above the table bound never builds one
    big = Field(3, 6)
    big.vmul(2, [1, 3])
    assert "_mul_table" not in vars(big)
