"""Exact arithmetic in small finite fields GF(p^e).

Elements are represented by their index in the canonical enumeration:
an element with polynomial-basis coefficients (c0, c1, ..., c_{e-1})
over GF(p) has index c0 + c1*p + ... + c_{e-1}*p^(e-1).  Index order is
therefore the canonical element order (zero first, then 1, then the
class of x, ...), and GF(4) enumerates as [0, 1, a, a+1] where a is the
class of x modulo the default modulus x^2 + x + 1.

Arithmetic is exposed in scalar form (`Field.add`, `Field.mul`, ...)
and in vectorized form over numpy index arrays (`Field.vadd`,
`Field.vmul`, ...).  Scalar multiplication uses discrete log/antilog
tables with respect to a fixed primitive element, and scalar addition
works on the base-p digit vectors.  The `Felt` wrapper provides
operator syntax and guards against mixing elements of different fields.

Vectorized addition avoids the digits where it can.  In characteristic
2 the digits are bits, so a + b and a - b are the XOR of the indices and
negation is the identity, at every order.  Other fields of order at most
ADD_TABLE_MAX look sums up in an (order, order) addition table,
differences in a subtraction table, gathered flat at a * order + b, and
negatives in a negation table.  Each table is built on first use, so a
field that never adds, subtracts or negates pays nothing for it at
construction.  Larger odd-characteristic fields add digit by digit.

Vectorized multiplication in a field of order at most ADD_TABLE_MAX is
one gather from an (order, order) multiplication table, built on first
use from the log/antilog tables.  Larger fields multiply through the
log/antilog tables, masking the products with a zero factor.

Default moduli are chosen deterministically: the monic polynomial of
degree e with the smallest coefficient encoding such that the class of
x generates the multiplicative group.  For GF(4) this is x^2 + x + 1,
so a satisfies a^2 + a + 1 = 0.  Fields larger than 2^16 are rejected;
this module targets desk-scale experimentation, not cryptography.

The tables come from one vectorized shift-register step, x*a for every
a.  The orbit of 1 under it is the exp table of x, and reaching every
nonzero element certifies x primitive and the modulus irreducible.  If
a given modulus has a non-primitive x-class, the smallest index of full
order is used instead, its table built from the x-step by Horner's rule.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

MAX_FIELD_SIZE = 1 << 16
# Largest order whose vmul gathers from a multiplication table, and whose
# vadd/vsub/vneg, in odd characteristic, gather from addition, subtraction
# and negation tables.
ADD_TABLE_MAX = 256


class FieldError(Exception):
    """Invalid field construction or unsupported field operation."""


class FieldMismatchError(FieldError):
    """Operands belong to different fields."""


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
# Polynomial helpers over GF(p), used only during field construction.
# Polynomials are little-endian coefficient tuples.


def _poly_trim(f: Sequence[int]) -> tuple[int, ...]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def _poly_divmod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    lead_inv = pow(g[-1], p - 2, p)
    quot = [0] * max(0, len(f) - dg)
    while len(_poly_trim(f)) - 1 >= dg and any(f):
        f = list(_poly_trim(f))
        shift = len(f) - 1 - dg
        c = (f[-1] * lead_inv) % p
        quot[shift] = c
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % p
    return _poly_trim(quot), _poly_trim(f)


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Trial division by all monic polynomials up to degree deg(f)//2."""
    f = _poly_trim(f)
    deg = len(f) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            g = [(enc // p**i) % p for i in range(d)] + [1]
            _, rem = _poly_divmod(f, g, p)
            if not rem:
                return False
    return True


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


def _search_default_modulus(digits: np.ndarray, p: int) -> tuple[int, ...]:
    """Smallest monic degree-e polynomial whose x-class is primitive."""
    order, e = digits.shape
    for enc in range(order):
        modulus = tuple(int(c) for c in digits[enc]) + (1,)
        # x is not a unit when m_0 = 0; skip the walk that would show it
        if modulus[0] and _powers(_times_x(digits, modulus, p)) is not None:
            return modulus
    raise FieldError(f"no primitive modulus found for GF({p}^{e})")


class Field:
    """GF(p^e) with table-backed arithmetic on integer element indices.

    Parameters
    ----------
    p : prime characteristic.
    e : extension degree over GF(p).
    modulus : optional monic irreducible polynomial of degree e over
        GF(p), as a little-endian coefficient list of length e+1.
        Defaults to the canonical primitive modulus for (p, e).
    """

    def __init__(self, p: int, e: int, modulus: Sequence[int] | None = None):
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
        if modulus is None:
            modulus = _search_default_modulus(self._digits, p)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree e")
            if not _is_irreducible(modulus, p):
                raise FieldError(f"modulus {list(modulus)} is reducible over GF({p})")
        self.modulus = tuple(modulus)

        # exp/log tables for the fixed primitive element: the x-class when it
        # has full order, else the smallest index that does
        times_x = _times_x(self._digits, self.modulus, p)
        x_class = int(times_x[1])
        for g in itertools.chain([x_class], range(1, order)):
            powers = _powers(times_x if g == x_class else self._times(times_x, g))
            if powers is not None:
                self._set_primitive(g, powers)
                break
        else:
            raise FieldError("no primitive element found")

    # -- construction internals --------------------------------------------

    def _times(self, times_x: np.ndarray, g: int) -> np.ndarray:
        """Table a -> g*a by Horner's rule over the digits of g."""
        out = np.zeros(self.order, dtype=np.int64)
        for c in self._digits[g][::-1]:
            out = self.vadd(times_x[out], (c * self._digits % self.p) @ self._pows)
        return out

    def _set_primitive(self, g: int, powers: np.ndarray) -> None:
        """Make g, with powers [1, g, g^2, ...], the primitive element."""
        self.primitive = g
        self._exp = powers
        self._log = np.zeros(self.order, dtype=np.int64)
        self._log[powers] = np.arange(self.order - 1, dtype=np.int64)

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
    def _neg_table(self) -> np.ndarray:
        return ((-self._digits) % self.p) @ self._pows

    @cached_property
    def _digit_floats(self) -> np.ndarray:
        """The digit table in float64, for the BLAS product of `linalg.matmul`."""
        return self._digits.astype(np.float64)

    @cached_property
    def _x_multiples(self) -> np.ndarray:
        """(order, e) table whose column i holds the index of x^i * a."""
        step = _times_x(self._digits, self.modulus, self.p)
        cols = [np.arange(self.order, dtype=np.int64)]
        for _ in range(1, self.e):
            cols.append(step[cols[-1]])
        return np.stack(cols, axis=1)

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

    def sub(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(((self._digits[a] - self._digits[b]) % self.p) @ self._pows)

    def neg(self, a: int) -> int:
        self._check(a)
        return int(((-self._digits[a]) % self.p) @ self._pows)

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

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        self._check(a)
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 0
        return int(self._exp[(self._log[a] * k) % (self.order - 1)])

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
        a = np.asarray(a, dtype=np.int64)
        if self.p == 2:
            return +a
        if self.order <= ADD_TABLE_MAX:
            return self._neg_table[a]
        return ((-self._digits[a]) % self.p) @ self._pows

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

    def vscale(self, c: int, a):
        return self.vmul(np.int64(c), a)

    def vdot(self, a, b):
        return self.vsum(self.vmul(a, b), axis=-1)

    # -- element views ---------------------------------------------------------

    def felt(self, index: int) -> "Felt":
        self._check(index)
        return Felt(self, int(index))

    def element(self, coeffs: Sequence[int]) -> "Felt":
        if len(coeffs) != self.e:
            raise FieldError(f"expected {self.e} coefficients, got {len(coeffs)}")
        return Felt(self, int(sum((c % self.p) * self.p**i for i, c in enumerate(coeffs))))

    def coeffs(self, index: int) -> tuple[int, ...]:
        self._check(index)
        return tuple(int(c) for c in self._digits[index])

    def elements(self) -> Iterator["Felt"]:
        """All field elements in canonical order (zero first)."""
        for i in range(self.order):
            yield Felt(self, i)

    def zero(self) -> "Felt":
        return Felt(self, 0)

    def one(self) -> "Felt":
        return Felt(self, 1)

    def format_element(self, index: int) -> str:
        """Human-readable polynomial form, e.g. 'a+1' in GF(4)."""
        self._check(index)
        if self.e == 1:
            return str(index)
        terms = []
        for i in range(self.e - 1, -1, -1):
            c = int(self._digits[index][i])
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms) if terms else "0"

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "e": self.e,
                "modulus": list(self.modulus),
                "primitive": list(self.coeffs(self.primitive)),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Field":
        data = json.loads(text)
        f = cls(data["p"], data["e"], modulus=data["modulus"])
        if "primitive" in data:
            prim = f.element(data["primitive"]).index
            if prim != f.primitive:
                powers = _powers(f._times(_times_x(f._digits, f.modulus, f.p), prim))
                if powers is None:
                    raise FieldError("declared primitive element does not have full order")
                f._set_primitive(prim, powers)
        return f

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


_FIELD_CACHE: dict[tuple[int, int], Field] = {}


def field(p: int, e: int = 1, modulus: Sequence[int] | None = None) -> Field:
    """Field constructor with caching of default-modulus instances."""
    if modulus is not None:
        return Field(p, e, modulus)
    key = (p, e)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, e)
    return _FIELD_CACHE[key]


@dataclass(frozen=True)
class Felt:
    """A single field element: owning field plus canonical index."""

    field: Field
    index: int

    def _coerce(self, other) -> "Felt":
        if not isinstance(other, Felt):
            raise FieldMismatchError(f"cannot combine {self!r} with {other!r}")
        if other.field != self.field:
            raise FieldMismatchError(f"field mismatch: {self.field!r} vs {other.field!r}")
        return other

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs(self.index)

    def __add__(self, other):
        other = self._coerce(other)
        return Felt(self.field, self.field.add(self.index, other.index))

    def __sub__(self, other):
        other = self._coerce(other)
        return Felt(self.field, self.field.sub(self.index, other.index))

    def __neg__(self):
        return Felt(self.field, self.field.neg(self.index))

    def __mul__(self, other):
        other = self._coerce(other)
        return Felt(self.field, self.field.mul(self.index, other.index))

    def __truediv__(self, other):
        other = self._coerce(other)
        return Felt(self.field, self.field.div(self.index, other.index))

    def __pow__(self, k: int):
        return Felt(self.field, self.field.pow(self.index, k))

    def inverse(self) -> "Felt":
        return Felt(self.field, self.field.inv(self.index))

    def __bool__(self) -> bool:
        return self.index != 0

    def __repr__(self) -> str:
        return self.field.format_element(self.index)


class QuadraticTower:
    """The tower GF(p) < GF(q) < GF(q^2) with q = p^s.

    Exposes the conjugation map a -> a^q on GF(q^2), the embedding of
    GF(q) into GF(q^2) (sending the x-class of the base field to the
    canonically smallest root of the base modulus), and O(1) subfield
    membership tests.
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

    def frobenius(self, a: Felt) -> Felt:
        """a^q on GF(q^2); an involution fixing exactly the embedded GF(q)."""
        if a.field != self.ext:
            raise FieldMismatchError(f"{a!r} is not in {self.ext!r}")
        return Felt(self.ext, int(self.frob_table[a.index]))

    def vfrobenius(self, arr):
        return self.frob_table[np.asarray(arr, dtype=np.int64)]

    def embed(self, a: Felt) -> Felt:
        if a.field != self.base:
            raise FieldMismatchError(f"{a!r} is not in {self.base!r}")
        return Felt(self.ext, int(self.embed_table[a.index]))

    def in_subfield(self, a: Felt | int) -> bool:
        index = a.index if isinstance(a, Felt) else int(a)
        return index in self.subfield_indices

    def __repr__(self) -> str:
        return f"Tower(GF({self.q}) < GF({self.q**2}))"


_TOWER_CACHE: dict[int, QuadraticTower] = {}


def quadratic_tower(q: int) -> QuadraticTower:
    if q not in _TOWER_CACHE:
        _TOWER_CACHE[q] = QuadraticTower(q)
    return _TOWER_CACHE[q]
