"""Independent reference implementations used as test oracles.

Everything here works on little-endian coefficient tuples over GF(p)
and plain Python lists, sharing no code with the package's table-based
arithmetic or vectorized linear algebra; the channel reference only
reads its draws from a numpy Generator.  Slow and obvious on purpose.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
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
    def add(self, a, b):
        return super().add(a, b)

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


def naive_row_basis(nf: NaiveField, rows):
    """The nonzero rows of the reduced echelon form of `rows`: the unique
    reduced basis of their span, as lists of indices."""
    reduced, pivots = naive_rref(nf, [[int(v) for v in row] for row in rows])
    return reduced[:len(pivots)]


def naive_row_space_equal(nf: NaiveField, A, B) -> bool:
    """Whether the rows of A and of B span the same space.  The reduced
    echelon form of a row space is unique, so compare its nonzero rows."""
    return naive_row_basis(nf, A) == naive_row_basis(nf, B)


@functools.cache
def _product_and_difference_tables(nf: NaiveField):
    """The full tables a*b and a-b of nf, built once per field object."""
    order = nf.order
    mul = [[nf.mul(a, b) for b in range(order)] for a in range(order)]
    sub = [[nf.sub(a, b) for b in range(order)] for a in range(order)]
    return mul, sub


def naive_prefix_ranks(nf: NaiveField, rows) -> list[int]:
    """ranks[i] = rank of rows[:i+1].  Each row is reduced against the
    rows kept so far, each 1 at its own pivot column and 0 at the earlier
    pivot columns, and is kept, scaled to 1 at its first nonzero entry,
    if anything is left.  Uses full product and difference tables."""
    mul, sub = _product_and_difference_tables(nf)
    kept = []
    ranks = []
    for row in rows:
        row = [int(v) for v in row]
        for col, pivot_row in kept:
            if row[col]:
                scaled = mul[row[col]]
                row = [sub[v][scaled[w]] for v, w in zip(row, pivot_row)]
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is not None:
            scale = mul[nf.inv(row[lead])]
            kept.append((lead, [scale[v] for v in row]))
        ranks.append(len(kept))
    return ranks


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


def _naive_encode(nf: NaiveField, message, generator, n: int):
    word = [0] * n
    for sym, row in zip(message, generator):
        word = [nf.add(w, nf.mul(sym, g)) for w, g in zip(word, row)]
    return word


def naive_codewords(nf: NaiveField, generator):
    """All q^k codewords of the code spanned by `generator` (lists of indices)."""
    n = len(generator[0]) if generator else 0
    for message in itertools.product(range(nf.order), repeat=len(generator)):
        yield _naive_encode(nf, message, generator, n)


def naive_orbit_codewords(nf: NaiveField, generator):
    """One codeword per scalar orbit, in agq's message order.

    Message (m_0, ..., m_{k-1}) is sum_i m_i q^i, so m_0 varies fastest
    and the highest digit is m_{k-1}.  Yields the word of the zero
    message, then that of every message whose highest nonzero digit is
    1; its multiples by the other nonzero scalars are the rest of its
    orbit.
    """
    n = len(generator[0]) if generator else 0
    for high_first in itertools.product(range(nf.order), repeat=len(generator)):
        top = next((d for d in high_first if d), 1)
        if top == 1:
            yield _naive_encode(nf, high_first[::-1], generator, n)


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


def naive_syndrome(nf: NaiveField, H, word):
    """H w^T, one field sum per row of the parity check H."""
    out = []
    for row in H:
        acc = 0
        for h, w in zip(row, word):
            acc = nf.add(acc, nf.mul(int(h), int(w)))
        out.append(acc)
    return out


def decode_word(nf: NaiveField, H, received):
    """Single-word decoder by literal search; returns (word or None, status).

    A zero syndrome returns the word unchanged ("success").  Otherwise the
    first single-position substitution, scanning positions in order and
    the other symbols in index order, whose word has zero syndrome is
    returned ("corrected"); if none has, the result is (None, "failure").
    H is the parity check as rows of indices; every syndrome is computed
    afresh by `naive_syndrome`.
    """
    word = [int(v) for v in received]
    if not any(naive_syndrome(nf, H, word)):
        return word, "success"
    for i, current in enumerate(word):
        for c in range(nf.order):
            if c == current:
                continue
            trial = word[:i] + [c] + word[i + 1:]
            if not any(naive_syndrome(nf, H, trial)):
                return trial, "corrected"
    return None, "failure"


def apply_random_errors(order: int, codeword, rate: float, rng):
    """Corrupt each position independently with probability `rate`; a hit
    replaces the symbol by a uniformly random other element of a field of
    `order` elements.  Returns (received, number_of_changed_positions).

    Reads the channel part of a trial's stream from the numpy Generator
    `rng`: n uniforms, then n replacement offsets in [0, order - 1),
    whatever the outcome.  Offset o stands for the o-th element other
    than the sent symbol.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    word = [int(v) for v in codeword]
    hits = [float(u) < rate for u in rng.random(len(word))]
    offsets = [int(o) for o in rng.integers(0, order - 1, size=len(word))]
    received = []
    for sent, hit, o in zip(word, hits, offsets):
        others = [c for c in range(order) if c != sent]
        received.append(others[o] if hit else sent)
    return received, sum(hits)


def projective_points(nf: NaiveField, form):
    """The rational points of the plane curve form(X, Y, Z) = 0, one
    representative each: (x, y, 1) in lexicographic order, then (x, 1, 0),
    then (1, 0, 0).  `form` is a homogeneous polynomial on field indices."""
    reps = [(x, y, 1) for x in range(nf.order) for y in range(nf.order)]
    reps += [(x, 1, 0) for x in range(nf.order)] + [(1, 0, 0)]
    return [pt for pt in reps if form(*pt) == 0]


def superelliptic_form(nf: NaiveField, n: int, m: int):
    """y^n = x^m + x made homogeneous of degree d = max(n, m):
    Y^n Z^(d-n) - X^m Z^(d-m) - X Z^(d-1)."""
    d = max(n, m)

    def form(X, Y, Z):
        lhs = nf.mul(nf.pow(Y, n), nf.pow(Z, d - n))
        rhs = nf.add(nf.mul(nf.pow(X, m), nf.pow(Z, d - m)), nf.mul(X, nf.pow(Z, d - 1)))
        return nf.sub(lhs, rhs)

    return form


@dataclass(frozen=True)
class SemigroupTable:
    generators: tuple[int, int]
    bound: int
    elements: tuple[int, ...]
    gaps: tuple[int, ...]


def semigroup(gen_a: int, gen_b: int, bound: int) -> SemigroupTable:
    """The numerical semigroup <gen_a, gen_b> intersected with [0, bound]."""
    if math.gcd(gen_a, gen_b) != 1:
        raise ValueError(
            f"gcd({gen_a}, {gen_b}) = {math.gcd(gen_a, gen_b)} != 1: the gap set is infinite"
        )
    if bound < 0:
        raise ValueError("bound must be >= 0")
    reachable = [False] * (bound + 1)
    reachable[0] = True
    for v in range(1, bound + 1):
        reachable[v] = (v >= gen_a and reachable[v - gen_a]) or (
            v >= gen_b and reachable[v - gen_b]
        )
    elements = tuple(v for v in range(bound + 1) if reachable[v])
    gaps = tuple(v for v in range(bound + 1) if not reachable[v])
    return SemigroupTable(generators=(gen_a, gen_b), bound=bound, elements=elements, gaps=gaps)


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


# ---------------------------------------------------------------------------
# the paper's closed forms for y^n = x^m + x over GF(q^2), as it states them


def paper_monomial_count(q: int, n: int, m: int, bound) -> int:
    """#{(i, j) : i >= 0, 0 <= j <= q-1, i*n + j*m <= bound}, by listing them."""
    top = max(0, math.floor(bound))
    return len([(i, j) for j in range(q) for i in range(top + 1) if i * n + j * m <= bound])


def paper_dimension(q: int, n: int, m: int, r: int) -> tuple[int, Fraction]:
    """(case, k) of the five-case dimension: 0 for r < 0; the monomial count
    for r <= (q-1)(m-1)/2; r(q+1) - (q-1)(m-1)/4 for r < q^2;
    q^2 minus the count at r' = q^2 + (q-1)(m-1)/2 - r for
    r <= q^2 + (q-1)(m-1)/2; q^2 past it."""
    if r < 0:
        return 1, Fraction(0)
    if r <= Fraction((q - 1) * (m - 1), 2):
        return 2, Fraction(paper_monomial_count(q, n, m, r))
    if r < q**2:
        return 3, r * (q + 1) - Fraction((q - 1) * (m - 1), 4)
    if r <= q**2 + Fraction((q - 1) * (m - 1), 2):
        return 4, Fraction(q**2 - paper_monomial_count(q, n, m, q**2 + Fraction((q - 1) * (m - 1), 2) - r))
    return 5, Fraction(q**2)


def paper_stabilizer_family(q: int, m: int, r: int) -> tuple[Fraction, Fraction, Fraction, bool]:
    """[[q^2, q^2 + (q-1)(m-1)/2 - 2 - 2r, r - (q-1)(m-1)/2 + 2]]_q, and
    whether r is in the range q-1 <= r <= 2(q-1) where it is proven."""
    n = Fraction(q**2)
    k = q**2 + Fraction((q - 1) * (m - 1), 2) - 2 - 2 * r
    d = r - Fraction((q - 1) * (m - 1), 2) + 2
    return n, k, d, q - 1 <= r <= 2 * (q - 1)


def paper_report_claims(q: int, m: int, r: int) -> dict:
    """The claims a code report sets beside its computed values: Euclidean
    self-orthogonality when 2r <= q^2 + (q-1)(m-1)/2, Hermitian when
    r <= q-1 and when r <= q^2 - 1, length q^2, designed distance
    q^2 - r(q+1), and the duality companion r' = q^2 + (q-1)(m-1)/2 - r."""
    return {
        "euclidean_threshold_holds": 2 * r <= q**2 + Fraction((q - 1) * (m - 1), 2),
        "hermitian_threshold_r": r <= q - 1,
        "hermitian_threshold_pole": r <= q**2 - 1,
        "length_claimed": q**2,
        "designed_distance_claimed": q**2 - r * (q + 1),
        "r_prime": q**2 + Fraction((q - 1) * (m - 1), 2) - r,
    }
