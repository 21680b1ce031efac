"""Exact arithmetic in small finite fields GF(p^e).

Elements are represented by their index in the canonical enumeration:
an element with polynomial-basis coefficients (c0, c1, ..., c_{e-1})
over GF(p) has index c0 + c1*p + ... + c_{e-1}*p^(e-1).  Index order is
therefore the canonical element order (zero first, then 1, then the
class of x, ...), and GF(4) enumerates as [0, 1, a, a+1] where a is the
class of x modulo the modulus x^2 + x + 1.

Arithmetic works on numpy index arrays through three kernels: `vadd`,
`vmul` and `vpow`.  Negation is multiplication by -1, the GF(p)
element p - 1, whose index is p - 1; subtraction is addition of the
negative, inversion is the power -1, and a sum is a fold of `vadd`.
The scalar `add` and `mul` check their operands and return ints.
Multiplication uses discrete log/antilog tables with respect to a fixed
primitive element, and addition works on the base-p digit vectors.

`QuadraticTower` is GF(q^2) with its conjugation a -> a^q, the one map
the Hermitian products need; GF(q) is the set of the q elements it fixes.

Vectorized addition avoids the digits where it can.  In characteristic
2 the digits are bits, so a + b is the XOR of the indices at every
order.  Other fields of order at most ADD_TABLE_MAX look sums up in one
(order, order) addition table, gathered flat at a * order + b and built
on first use, so a field that never adds pays nothing for it at
construction.  Larger odd-characteristic fields add digit by digit.

Vectorized multiplication in a field of order at most ADD_TABLE_MAX is
one gather from an (order, order) multiplication table, built on first
use from the log/antilog tables.  Larger fields multiply through the
log/antilog tables, masking the products with a zero factor.

The modulus is chosen deterministically: the monic polynomial of
degree e with the smallest coefficient encoding such that the class of
x generates the multiplicative group, and that class is the primitive
element.  For GF(4) this is x^2 + x + 1, so a satisfies a^2 + a + 1 = 0.
Fields larger than 2^16 are rejected; this module targets desk-scale
experimentation, not cryptography.

The modulus search tests candidates in batches of MODULUS_BATCH, in
encoding order.  A candidate's companion matrix over GF(p), the map
a -> x*a on coefficient vectors, is squared bit by bit to give x^t for
t = N - 1 and t = (N - 1)/l for every prime l dividing N - 1, where N is
the order; x has order N - 1 exactly when the first power is 1 and none
of the others is.  That order certifies the modulus: every nonzero
element of the quotient ring is then a power of x and so a unit, which
makes the ring a field and the modulus irreducible.  Only the winner
gets a vectorized shift-register step, x*a for every a, and its orbit
of 1, taken by doubling, is the exp table of x.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Sequence

import numpy as np

MAX_FIELD_SIZE = 1 << 16
# Largest order whose vmul gathers from a multiplication table, and whose
# vadd, in odd characteristic, gathers from an addition table.  Negation
# is vmul by p - 1, so it reads the multiplication table too.  Elements of
# these fields fit in uint8, and order * order - 1 in uint16, the dtypes of
# `_row_tables`.
ADD_TABLE_MAX = 256
# Candidate moduli per batched order test in `_search_default_modulus`.
# Each live power is MODULUS_BATCH x e x e int64, at most 128 KB.  Most
# fields find their modulus in the first batch, where a larger batch would
# only add work.
MODULUS_BATCH = 64


class FieldError(Exception):
    """Invalid field construction or unsupported field operation."""


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, by trial division up to sqrt(n)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, s) with q = p^s, or raise FieldError."""
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise FieldError(f"{q} is not a prime power")
    p, s = primes[0], 0
    while q > 1:
        q //= p
        s += 1
    return p, s


# ---------------------------------------------------------------------------
# Field construction.  Moduli are little-endian coefficient tuples.


def _times_x(digits: np.ndarray, modulus: Sequence[int], p: int) -> np.ndarray:
    """Index of x*a for every index a: one shift-register step.

    The digits move up one place; the digit carried out of the top is
    reduced by x^e = -(m_0 + m_1 x + ... + m_{e-1} x^{e-1}), which changes
    only the places where m_i is nonzero.
    """
    order, e = digits.shape
    top = digits[:, e - 1]
    out = np.arange(order, dtype=np.int64) % (order // p) * p
    for i, m in enumerate(modulus[:e]):
        if m:
            shifted = digits[:, i - 1] if i else 0
            out += ((shifted - top * m) % p - shifted) * p**i
    return out


def _orbit(step: np.ndarray) -> np.ndarray:
    """[1, g, ..., g^(N-2)] from the table a -> g*a of GF(N), g primitive.

    Doubling: with seq = [1, ..., g^(k-1)] and step the table of g^k,
    step[seq] continues seq to g^(2k-1), and step[step] is the table of g^(2k).
    """
    n = len(step) - 1
    seq = np.ones(1, dtype=np.int64)
    while len(seq) < n:
        seq = np.concatenate([seq, step[seq]])
        step = step[step]
    return seq[:n]


def _search_default_modulus(digits: np.ndarray, p: int) -> tuple[int, ...]:
    """Smallest monic degree-e polynomial whose x-class is primitive.

    x is not a unit when m_0 = 0, so candidates start with m_0 != 0.  The
    companion matrices of a batch act on the coefficient vector of 1, one
    column per tested power, and are squared once per bit of N - 1.  The
    int64 products are exact: e * (p - 1)^2 < 2^63 for every field up to
    MAX_FIELD_SIZE.
    """
    order, e = digits.shape
    n = order - 1
    targets = [n] + [n // ell for ell in _prime_factors(n)]
    one = np.zeros((e, 1), dtype=np.int64)
    one[0] = 1
    encodings = np.arange(order, dtype=np.int64)
    candidates = encodings[encodings % p != 0]
    for start in range(0, len(candidates), MODULUS_BATCH):
        low = digits[candidates[start:start + MODULUS_BATCH]]
        # column j holds x * x^j: x^(j+1), or x^e = -(m_0 + ... + m_{e-1} x^{e-1})
        power = np.zeros((len(low), e, e), dtype=np.int64)
        power[:, np.arange(1, e), np.arange(e - 1)] = 1
        power[:, :, e - 1] = -low % p
        # column t of vecs becomes x^targets[t]; bit by bit, from the lowest
        vecs = np.broadcast_to(one, (len(low), e, len(targets)))
        for bit in range(n.bit_length()):
            if bit:
                power = power @ power % p
            steps = np.array([t >> bit & 1 for t in targets], dtype=bool)
            vecs = np.where(steps, power @ vecs % p, vecs)
        is_one = (vecs == one).all(axis=1)
        primitive = is_one[:, 0] & ~is_one[:, 1:].any(axis=1)
        if primitive.any():
            return tuple(int(c) for c in low[primitive.argmax()]) + (1,)
    raise FieldError(f"no primitive modulus found for GF({p}^{e})")


class Field:
    """GF(p^e) with table-backed arithmetic on integer element indices.

    Parameters
    ----------
    p : prime characteristic.
    e : extension degree over GF(p).

    The modulus and primitive element follow from (p, e) alone; see the
    module docstring.
    """

    def __init__(self, p: int, e: int):
        if e < 1:
            raise FieldError(f"extension degree must be >= 1, got {e}")
        # the size before the primality test, which trial-divides up to
        # sqrt(p); p^e >= 2^e, so a large e fails without computing p^e
        if p >= 2 and (e >= MAX_FIELD_SIZE.bit_length() or p**e > MAX_FIELD_SIZE):
            raise FieldError(f"field size GF({p}^{e}) exceeds desk-scale limit {MAX_FIELD_SIZE}")
        if _prime_factors(p) != [p]:
            raise FieldError(f"characteristic {p} is not prime")
        order = p**e
        self.p = p
        self.e = e
        self.order = order

        # digit table: index -> base-p coefficient vector
        idx = np.arange(order, dtype=np.int64)
        self._pows = np.array([p**i for i in range(e)], dtype=np.int64)
        self._digits = idx[:, None] // self._pows % p
        self._residue_table = np.zeros(1, dtype=np.int64)
        self.modulus = _search_default_modulus(self._digits, p)
        self._exp = _orbit(_times_x(self._digits, self.modulus, p))
        # the x-class: x^1, or 1 itself in GF(2), whose orbit is [1]
        self.primitive = int(self._exp[1 % (order - 1)])
        self._log = np.zeros(order, dtype=np.int64)
        self._log[self._exp] = np.arange(order - 1, dtype=np.int64)

    # -- tables built on first use -------------------------------------------

    @cached_property
    def _add_table(self) -> np.ndarray:
        """(order, order) table a, b -> a + b, flattened to a * order + b."""
        d = self._digits
        return (((d[:, None, :] + d[None, :, :]) % self.p) @ self._pows).ravel()

    @cached_property
    def _mul_table(self) -> np.ndarray:
        """(order, order) table a, b -> a * b, flattened to a * order + b."""
        prod = self._exp[(self._log[:, None] + self._log[None, :]) % (self.order - 1)]
        prod[0, :] = prod[:, 0] = 0
        return prod.ravel()

    @cached_property
    def _row_tables(self):
        """(products, multiples, sums), the tables of `linalg._eliminate`
        in its compact dtype, or None above ADD_TABLE_MAX.

        products is the (order, order) multiplication table as uint8.  In
        characteristic 2 multiples is products and sums is None: addition is
        XOR.  Otherwise multiples holds order * (a * b) as uint16, so that
        r + multiples[a, b] is the flat index of r + a * b in sums, the
        addition table as uint8.
        """
        if self.order > ADD_TABLE_MAX:
            return None
        products = self._mul_table.astype(np.uint8).reshape(self.order, self.order)
        if self.p == 2:
            return products, products, None
        multiples = products.astype(np.uint16) * np.uint16(self.order)
        return products, multiples, self._add_table.astype(np.uint8)

    @cached_property
    def _digit_floats(self) -> np.ndarray:
        """The digit table in float64, for the BLAS product of `linalg.matmul`."""
        return self._digits.astype(np.float64)

    @cached_property
    def _x_multiples(self) -> np.ndarray:
        """(order, e) table whose column i holds the index of x^i * a."""
        # x is the primitive element, so x^i * a adds i to the log of a
        out = self._exp[(self._log[:, None] + np.arange(self.e)) % (self.order - 1)]
        out[0] = 0
        return out

    def _residues(self, top: int) -> np.ndarray:
        """Table v -> v mod p covering 0 <= v <= top, kept and grown as needed."""
        if len(self._residue_table) <= top:
            self._residue_table = np.arange(top + 1, dtype=np.int64) % self.p
        return self._residue_table

    # -- scalar operations ---------------------------------------------------

    def _check(self, *indices: int) -> None:
        for a in indices:
            if not 0 <= a < self.order:
                raise FieldError(f"index {a} out of range for {self!r}")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.vadd(a, b))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.order - 1)])

    # -- vectorized operations on index arrays -------------------------------

    def vadd(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.p == 2:
            return a ^ b
        if self.order <= ADD_TABLE_MAX:
            return self._add_table.take(a * self.order + b)
        return ((self._digits[a] + self._digits[b]) % self.p) @ self._pows

    def vneg(self, a):
        """-a, as the product with -1, the element p - 1."""
        return self.vmul(self.p - 1, a)

    def vmul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.order <= ADD_TABLE_MAX:
            # a flat `take`, not 2-D fancy indexing: faster past a few
            # hundred entries, and as fast below on elimination's shapes
            return self._mul_table.take(a * self.order + b)
        prod = self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def vinv(self, a):
        return self.vpow(a, -1)

    def vpow(self, a, k: int):
        """a^k, with a^0 = 1; a negative k raises ZeroDivisionError on a zero."""
        a = np.asarray(a, dtype=np.int64)
        if k == 0:
            return np.ones_like(a)
        zero = a == 0
        if k < 0 and zero.any():
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return np.where(zero, 0, self._exp[(self._log[a] * k) % (self.order - 1)])

    # -- serialization -----------------------------------------------------------

    def coeffs(self, index: int) -> tuple[int, ...]:
        self._check(index)
        return tuple(int(c) for c in self._digits[index])

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "e": self.e,
                "modulus": list(self.modulus),
                "primitive": list(self.coeffs(self.primitive)),
            }
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self) -> int:
        return hash((self.p, self.e))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


_FIELD_CACHE: dict[tuple[int, int], Field] = {}


def field(p: int, e: int = 1) -> Field:
    """Field constructor, caching one instance per (p, e)."""
    key = (p, e)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, e)
    return _FIELD_CACHE[key]


class QuadraticTower:
    """GF(q^2), q = p^s, with its conjugation a -> a^q as the index table
    `frob_table`, applied by `vfrobenius`.  GF(q) inside GF(q^2) is the
    set of the q elements it fixes.  `base` is GF(q) as a field of its
    own, indexed by its own enumeration, not by those fixed elements."""

    def __init__(self, q: int):
        # before factoring q, so that a huge q fails at once
        if q * q > MAX_FIELD_SIZE:
            raise FieldError(f"field size GF({q}^2) = {q * q} exceeds desk-scale limit {MAX_FIELD_SIZE}")
        p, s = factor_prime_power(q)
        self.q = q
        self.p = p
        self.base = field(p, s)
        self.ext = field(p, 2 * s)
        idx = np.arange(self.ext.order, dtype=np.int64)
        self.frob_table = self.ext.vpow(idx, q)
        fixed = np.count_nonzero(self.frob_table == idx)
        if fixed != q:
            raise FieldError(f"frobenius fixed set has size {fixed}, expected {q}")

    def vfrobenius(self, arr):
        return self.frob_table[np.asarray(arr, dtype=np.int64)]

    def __repr__(self) -> str:
        return f"Tower(GF({self.q}) < GF({self.q**2}))"


_TOWER_CACHE: dict[int, QuadraticTower] = {}


def quadratic_tower(q: int) -> QuadraticTower:
    if q not in _TOWER_CACHE:
        _TOWER_CACHE[q] = QuadraticTower(q)
    return _TOWER_CACHE[q]
