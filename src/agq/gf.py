"""Exact arithmetic in small finite fields GF(p^e).

Elements are represented by their index in the canonical enumeration:
an element with polynomial-basis coefficients (c0, c1, ..., c_{e-1})
over GF(p) has index c0 + c1*p + ... + c_{e-1}*p^(e-1).  Index order is
therefore the canonical element order (zero first, then 1, then the
class of x, ...), and GF(4) enumerates as [0, 1, a, a+1] where a is the
class of x modulo the modulus x^2 + x + 1.

Arithmetic works on numpy index arrays (`Field.vadd`, `Field.vmul`,
...).  The scalar `add`, `mul` and `inv` serve table construction and
elimination pivots: multiplication uses discrete log/antilog tables with
respect to a fixed primitive element, and addition works on the base-p
digit vectors.

Vectorized addition avoids the digits where it can.  In characteristic
2 the digits are bits, so a + b and a - b are the XOR of the indices and
negation is the identity, at every order.  Other fields of order at most
ADD_TABLE_MAX look sums up in an (order, order) addition table and
differences in a subtraction table, gathered flat at a * order + b, whose
row 0 holds the negatives.  Each table is built on first use, so a field
that never adds or subtracts pays nothing for it at construction.
Larger odd-characteristic fields add digit by digit.

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

The tables come from one vectorized shift-register step, x*a for every
a.  The orbit of 1 under it is the exp table of x, and reaching every
nonzero element certifies x primitive and the modulus irreducible.  The
modulus search walks that orbit for each candidate, and the walk that
succeeds is kept as the exp table.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Sequence

import numpy as np

MAX_FIELD_SIZE = 1 << 16
# Largest order whose vmul gathers from a multiplication table, and whose
# vadd/vsub, in odd characteristic, gather from addition and subtraction
# tables.
ADD_TABLE_MAX = 256


class FieldError(Exception):
    """Invalid field construction or unsupported field operation."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, s) with q = p^s, or raise FieldError."""
    if q < 2:
        raise FieldError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            s = 0
            m = q
            while m % p == 0:
                m //= p
                s += 1
            if m != 1:
                raise FieldError(f"{q} is not a prime power")
            return p, s
    raise FieldError(f"{q} is not a prime power")


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


def _powers(times: np.ndarray) -> np.ndarray | None:
    """[1, g, ..., g^(N-2)] from the table a -> g*a of a ring with N
    elements, or None unless g has order N - 1, which makes every nonzero
    element a unit and so certifies that the modulus is irreducible."""
    step = times.tolist()
    full = len(step) - 1
    out = [1]
    cur = step[1]
    while cur != 1 and len(out) < full:
        out.append(cur)
        cur = step[cur]
    if cur != 1 or len(out) != full:
        return None
    return np.array(out, dtype=np.int64)


def _search_default_modulus(digits: np.ndarray, p: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Smallest monic degree-e polynomial whose x-class is primitive, and
    the powers [1, x, x^2, ...] of that class."""
    order, e = digits.shape
    for enc in range(order):
        modulus = tuple(int(c) for c in digits[enc]) + (1,)
        # x is not a unit when m_0 = 0; skip the walk that would show it
        if modulus[0]:
            powers = _powers(_times_x(digits, modulus, p))
            if powers is not None:
                return modulus, powers
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
        if not _is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if e < 1:
            raise FieldError(f"extension degree must be >= 1, got {e}")
        order = p**e
        if order > MAX_FIELD_SIZE:
            raise FieldError(f"field size {order} exceeds desk-scale limit {MAX_FIELD_SIZE}")
        self.p = p
        self.e = e
        self.order = order

        # digit table: index -> base-p coefficient vector
        idx = np.arange(order, dtype=np.int64)
        self._digits = np.stack([(idx // p**i) % p for i in range(e)], axis=-1)
        self._pows = np.array([p**i for i in range(e)], dtype=np.int64)
        self._residue_table = np.zeros(1, dtype=np.int64)
        self.modulus, self._exp = _search_default_modulus(self._digits, p)
        # the x-class: x^1, or 1 itself in GF(2), whose orbit is [1]
        self.primitive = int(self._exp[1 % (order - 1)])
        self._log = np.zeros(order, dtype=np.int64)
        self._log[self._exp] = np.arange(order - 1, dtype=np.int64)

    # -- tables built on first use -------------------------------------------

    @cached_property
    def _add_table(self) -> np.ndarray:
        """(order, order) table a, b -> a + b."""
        d = self._digits
        return ((d[:, None, :] + d[None, :, :]) % self.p) @ self._pows

    @cached_property
    def _mul_table(self) -> np.ndarray:
        """(order, order) table a, b -> a * b, flattened to a * order + b."""
        prod = self._exp[(self._log[:, None] + self._log[None, :]) % (self.order - 1)]
        prod[0, :] = prod[:, 0] = 0
        return prod.ravel()

    @cached_property
    def _sub_table(self) -> np.ndarray:
        """(order, order) table a, b -> a - b, flattened to a * order + b."""
        d = self._digits
        return (((d[:, None, :] - d[None, :, :]) % self.p) @ self._pows).ravel()

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
        return int(((self._digits[a] + self._digits[b]) % self.p) @ self._pows)

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.order - 1)])

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return int(self._exp[(-self._log[a]) % (self.order - 1)])

    # -- vectorized operations on index arrays -------------------------------

    def vadd(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.p == 2:
            return a ^ b
        if self.order <= ADD_TABLE_MAX:
            return self._add_table[a, b]
        return ((self._digits[a] + self._digits[b]) % self.p) @ self._pows

    def vsub(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.p == 2:
            return a ^ b
        if self.order <= ADD_TABLE_MAX:
            return self._sub_table.take(a * self.order + b)
        return ((self._digits[a] - self._digits[b]) % self.p) @ self._pows

    def vneg(self, a):
        return self.vsub(0, a)

    def vmul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.order <= ADD_TABLE_MAX:
            # a flat `take`, not 2-D fancy indexing: faster past a few
            # hundred entries, and as fast below on rref's shapes
            return self._mul_table.take(a * self.order + b)
        prod = self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def vinv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[(-self._log[a]) % (self.order - 1)]

    def vpow(self, a, k: int):
        a = np.asarray(a, dtype=np.int64)
        if k == 0:
            return np.ones_like(a)
        if k < 0:
            return self.vinv(self.vpow(a, -k))
        powered = self._exp[(self._log[a] * k) % (self.order - 1)]
        return np.where(a == 0, 0, powered)

    def vsum(self, a, axis: int = -1):
        """Field sum reducing the given axis of an index array."""
        a = np.asarray(a, dtype=np.int64)
        if a.shape[axis if axis >= 0 else a.ndim + axis] == 0:
            shape = list(a.shape)
            del shape[axis if axis >= 0 else a.ndim + axis]
            return np.zeros(shape, dtype=np.int64)
        digit_axis = axis if axis >= 0 else a.ndim + axis
        summed = self._digits[a].sum(axis=digit_axis) % self.p
        return summed @ self._pows

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
    """The tower GF(p) < GF(q) < GF(q^2) with q = p^s.

    Holds, as index tables, the conjugation map a -> a^q on GF(q^2)
    (`frob_table`, applied by `vfrobenius`), the embedding of GF(q) into
    GF(q^2) (`embed_table`, sending the x-class of the base field to the
    canonically smallest root of the base modulus), and the embedded
    subfield's indices (`subfield_indices`).
    """

    def __init__(self, q: int):
        p, s = factor_prime_power(q)
        self.q = q
        self.p = p
        self.s = s
        self.base = field(p, s)
        self.ext = field(p, 2 * s)

        idx = np.arange(self.ext.order, dtype=np.int64)
        self.frob_table = self.ext.vpow(idx, q)
        fixed = idx[self.frob_table == idx]
        if len(fixed) != q:
            raise FieldError(f"frobenius fixed set has size {len(fixed)}, expected {q}")

        root = None
        for z in (int(v) for v in fixed):
            acc = 0
            for c in reversed(self.base.modulus):
                acc = self.ext.add(self.ext.mul(acc, z), c % p)
            if acc == 0:
                root = z
                break
        if root is None:
            raise FieldError("base modulus has no root in the extension")
        self._root = root

        embed = np.zeros(q, dtype=np.int64)
        for a in range(q):
            acc = 0
            for c in reversed(self.base.coeffs(a)):
                acc = self.ext.add(self.ext.mul(acc, root), c)
            embed[a] = acc
        self.embed_table = embed
        self.subfield_indices = frozenset(int(v) for v in embed)
        if self.subfield_indices != {int(v) for v in fixed}:
            raise FieldError("embedded subfield does not match frobenius fixed set")

    def vfrobenius(self, arr):
        return self.frob_table[np.asarray(arr, dtype=np.int64)]

    def __repr__(self) -> str:
        return f"Tower(GF({self.q}) < GF({self.q**2}))"


_TOWER_CACHE: dict[int, QuadraticTower] = {}


def quadratic_tower(q: int) -> QuadraticTower:
    if q not in _TOWER_CACHE:
        _TOWER_CACHE[q] = QuadraticTower(q)
    return _TOWER_CACHE[q]
