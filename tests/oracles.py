"""Independent reference implementations used as test oracles.

Everything here works on little-endian coefficient tuples over GF(p)
and plain Python lists, sharing no code with the package's table-based
arithmetic or vectorized linear algebra.  Slow and obvious on purpose.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction


def digits(index: int, p: int, e: int) -> tuple[int, ...]:
    return tuple((index // p**i) % p for i in range(e))


def undigits(coeffs, p: int) -> int:
    return sum((c % p) * p**i for i, c in enumerate(coeffs))


def poly_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def poly_neg(a, p):
    return tuple((-x) % p for x in a)


def poly_mul_mod(a, b, p, modulus):
    """Schoolbook product reduced by the monic modulus (length e+1)."""
    e = len(a)
    prod = [0] * (2 * e - 1 if e > 1 else 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(len(prod) - 1, e - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i in range(e):
                prod[d - e + i] = (prod[d - e + i] - c * modulus[i]) % p
    return tuple(prod[:e])


def poly_pow_mod(a, n, p, modulus):
    e = len(a)
    result = digits(1, p, e)
    base = a
    while n:
        if n & 1:
            result = poly_mul_mod(result, base, p, modulus)
        base = poly_mul_mod(base, base, p, modulus)
        n >>= 1
    return result


class NaiveField:
    """Reference GF(p^e) on integer indices, built only from the modulus."""

    def __init__(self, p: int, e: int, modulus):
        self.p = p
        self.e = e
        self.order = p**e
        self.modulus = tuple(modulus)

    def add(self, a, b):
        return undigits(poly_add(digits(a, self.p, self.e), digits(b, self.p, self.e), self.p), self.p)

    def neg(self, a):
        return undigits(poly_neg(digits(a, self.p, self.e), self.p), self.p)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return undigits(
            poly_mul_mod(digits(a, self.p, self.e), digits(b, self.p, self.e), self.p, self.modulus),
            self.p,
        )

    def pow(self, a, n):
        if a == 0:
            return 1 if n == 0 else 0
        return undigits(poly_pow_mod(digits(a, self.p, self.e), n, self.p, self.modulus), self.p)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        return self.pow(a, self.order - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))


class TabledField(NaiveField):
    """NaiveField with its operations memoised, so that naive ranks of
    matrices with thousands of entries over GF(16) or GF(25) stay quick."""

    @functools.cache
    def pow(self, a, n):
        return super().pow(a, n)

    @functools.cache
    def mul(self, a, b):
        return super().mul(a, b)

    @functools.cache
    def sub(self, a, b):
        return super().sub(a, b)

    @functools.cache
    def inv(self, a):
        return super().inv(a)


def naive_rref(nf: NaiveField, rows):
    """Gauss-Jordan elimination over the naive field; rows = lists of indices.

    Returns (rows, pivots): the reduced rows, each pivot entry 1 and alone
    in its column, with zero rows last, and the pivot column of each
    nonzero row.
    """
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = nf.inv(rows[rank][col])
        rows[rank] = [nf.mul(inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [nf.sub(v, nf.mul(f, w)) for v, w in zip(rows[i], rows[rank])]
        pivots.append(col)
    return rows, pivots


def naive_rank(nf: NaiveField, rows) -> int:
    return len(naive_rref(nf, rows)[1])


def naive_row_space_equal(nf: NaiveField, A, B) -> bool:
    """Whether the rows of A and of B span the same space.  The reduced
    echelon form of a row space is unique, so compare its nonzero rows."""
    def basis(rows):
        reduced, pivots = naive_rref(nf, [[int(v) for v in row] for row in rows])
        return reduced[:len(pivots)]

    return basis(A) == basis(B)


def naive_matmul(nf: NaiveField, A, B):
    """Schoolbook product of (m, k) and (k, n) index matrices, as row lists."""
    (m, k), n = A.shape, B.shape[1]
    out = []
    for i in range(m):
        row = []
        for j in range(n):
            acc = 0
            for t in range(k):
                acc = nf.add(acc, nf.mul(int(A[i, t]), int(B[t, j])))
            row.append(acc)
        out.append(row)
    return out


def naive_codewords(nf: NaiveField, generator):
    """All q^k codewords of the code spanned by `generator` (lists of indices)."""
    k = len(generator)
    n = len(generator[0]) if generator else 0
    for message in itertools.product(range(nf.order), repeat=k):
        word = [0] * n
        for sym, row in zip(message, generator):
            word = [nf.add(w, nf.mul(sym, g)) for w, g in zip(word, row)]
        yield word


def naive_weight_distribution(nf: NaiveField, generator):
    counts = {}
    for word in naive_codewords(nf, generator):
        w = sum(1 for v in word if v)
        counts[w] = counts.get(w, 0) + 1
    return counts


def naive_min_distance(nf: NaiveField, generator):
    best = None
    for word in naive_codewords(nf, generator):
        w = sum(1 for v in word if v)
        if w and (best is None or w < best):
            best = w
    return best


def naive_hermitian_inner(nf: NaiveField, q: int, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = nf.add(acc, nf.mul(x, nf.pow(y, q)))
    return acc


def krawtchouk(j: int, i: int, n: int, q: int) -> int:
    """K_j(i) = sum_s (-1)^s (q-1)^(j-s) C(i, s) C(n-i, j-s)."""
    return sum((-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
               for s in range(j + 1))


def macwilliams_transform(counts, q: int) -> list[Fraction]:
    """Weight distribution of the dual of a code with distribution `counts`
    (counts[i] words of weight i, length n = len(counts) - 1), by
    B_j = (1/|C|) sum_i A_i K_j(i)."""
    n = len(counts) - 1
    size = sum(counts)
    return [Fraction(sum(a * krawtchouk(j, i, n, q) for i, a in enumerate(counts)), size)
            for j in range(n + 1)]
