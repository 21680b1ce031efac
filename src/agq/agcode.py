"""One-point evaluation codes over GF(q^2) and their verification.

Codes are built by evaluating a rank-verified basis of the monomials of
weight <= r at a chosen set of affine points.  Everything
the construction claims about a code (dimension, minimum distance,
duality, self-orthogonality) is checked by explicit linear algebra at
desk scale rather than assumed: distances are brute-forced within a
codeword budget, and the paper's closed forms, read from `claims`, are
compared against computed ranks and row spaces, never asserted.  A code
carries a generator G and a parity check H, a basis of the null space
of G, so its Euclidean dual is the code with G and H traded, and its
Hermitian dual trades their entrywise conjugates.

A curve object owns its points and one code ladder (`code_ladder`), and
`build_onepoint_code` reads every code from it: G is a row prefix of the
ladder's verified basis and H a row suffix of its elimination's
transform.  A code given no H makes one at construction.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import reduce
import numpy as np

from . import claims
from .curve import CurveSpec, _lhs_rhs_tables, check_points, enumerate_points
from .gf import Field, FieldError, QuadraticTower, factor_prime_power, field, quadratic_tower
from .linalg import _column_table, matmul, rank, right_nullspace
from .rrspace import code_ladder, ladder_gram

DEFAULT_BUDGET = 1 << 20
# Most words of one block of `iter_codeword_blocks`.
CODEWORD_BLOCK = 4096
# Most digit outputs, q^k * n * e, for which `iter_codeword_blocks` makes
# all words in one `matmul`; past it the coset path is faster (measured
# break-even, see its docstring).
SINGLE_PRODUCT_DIGITS = 1 << 13


class BudgetExceededError(Exception):
    """Requested enumeration is larger than the codeword budget."""


@dataclass(eq=False)
class LinearCode:
    """A linear [n, k] code over `field`, held as a full-row-rank generator.

    `parity_check` is a basis of the dual C^perp: n - k rows whose null
    space is C.  When not supplied, it is computed from the generator, by
    `right_nullspace`, at construction; a supplied one must meet that
    contract, which `dual` and `hermitian_dual` rely on.  A built code's
    generator and parity check are read-only views of its curve's ladder:
    a row prefix of its rows and a row suffix of its transform.  No H is
    in reduced form: nothing that reads H depends on which basis of
    C^perp it is.  `points` (an (N, 2) index array) and `r` record
    provenance for codes built from a curve.
    """

    field: Field
    generator: np.ndarray
    parity_check: np.ndarray | None = None
    points: np.ndarray | None = None
    curve: CurveSpec | None = None
    r: int | None = None
    name: str = ""

    def __post_init__(self):
        self.generator = np.atleast_2d(np.asarray(self.generator, dtype=np.int64))
        H = right_nullspace(self.field, self.generator) if self.parity_check is None else self.parity_check
        self.parity_check = np.atleast_2d(np.asarray(H, dtype=np.int64))
        if not self.name:
            self.name = f"n{self.n}k{self.k}q{self.field.order}"

    @property
    def n(self) -> int:
        return self.generator.shape[1]

    @property
    def k(self) -> int:
        return self.generator.shape[0]

    @property
    def tower(self) -> QuadraticTower:
        """GF(q) < GF(q^2) = `field`, whose conjugation a -> a^q enables Hermitian operations."""
        F = self.field
        if F.e % 2:
            raise FieldError(f"{F!r} carries no designated quadratic subfield; Hermitian operations are unavailable")
        return quadratic_tower(F.p ** (F.e // 2))

    @property
    def designed_distance(self) -> int | None:
        """n - deg G, G the divisor of the code at r, a multiple of the sum
        of the places at infinity: a nonzero f in L(G) has at most deg G
        poles, all there, hence at most deg G zeros at the n affine points."""
        if self.curve is None or self.r is None:
            return None
        return self.n - self.curve.divisor_degree(self.r)

    @classmethod
    def from_generator(cls, F: Field, rows, **kwargs) -> "LinearCode":
        """Construct from explicit rows, rejecting rank-deficient input.

        The rank is read off the null space computed at construction:
        rank = n - rows of the parity check.
        """
        G = np.atleast_2d(np.asarray(rows, dtype=np.int64))
        if np.any((G < 0) | (G >= F.order)):
            raise ValueError(f"matrix entries must be indices in [0, {F.order})")
        code = cls(field=F, generator=G, **kwargs)
        rk = code.n - len(code.parity_check)
        if rk != code.k:
            raise ValueError(f"generator has rank {rk} < {code.k} rows; not a basis")
        return code


def resolve_eval_set(curve: CurveSpec, policy) -> np.ndarray:
    """Point-selection policy: 'all', 'first:N', 'exclude-subfield',
    or an explicit (N, 2) array of distinct affine (x, y) indices of
    curve points.

    The designed distance holds only for distinct points on the
    curve, so an explicit set with an off-curve or repeated point is a
    ValueError.
    """
    if not isinstance(policy, str):
        pts = check_points(curve, policy)
        lhs, rhs = _lhs_rhs_tables(curve)
        off = np.flatnonzero(lhs[pts[:, 1]] != rhs[pts[:, 0]])
        if len(off):
            raise ValueError(f"point {tuple(pts[off[0]].tolist())} is not on the curve")
        if len(np.unique(pts, axis=0)) < len(pts):
            raise ValueError("evaluation points must be distinct")
        return pts
    pts = enumerate_points(curve)
    if policy == "all":
        return pts
    if policy.startswith("first:"):
        text = policy.split(":", 1)[1]
        try:
            count = int(text)
        except ValueError:
            raise ValueError(f"first:N needs an integer N, got {text!r}") from None
        if count < 1 or count > len(pts):
            raise ValueError(f"cannot select {count} of {len(pts)} affine points")
        return pts[:count]
    if policy == "exclude-subfield":
        # GF(q) is the Frobenius-fixed set; keep a point unless both coordinates lie in it
        return pts[(curve.tower.frob_table[pts] != pts).any(axis=1)]
    raise ValueError(f"unknown evaluation-set policy {policy!r}")


def build_onepoint_code(curve: CurveSpec, r: int, eval_set="all", name: str = "") -> LinearCode:
    """Evaluation code of the verified basis of weight <= r at the chosen points.

    With k = `prefix(r)` on the curve's code ladder on those points, the
    generator is the ladder's first k rows and the parity check the rows
    of its transform from k on.
    """
    points = resolve_eval_set(curve, eval_set)
    basis = code_ladder(curve, r, points)
    k = basis.prefix(r)
    return LinearCode(
        field=curve.tower.ext,
        generator=basis.rows[:k],
        parity_check=basis.transform[k:],
        points=points,
        curve=curve,
        r=r,
        name=name or f"{curve.label()}-r{r}",
    )


def _traded(code: LinearCode, generator, parity_check, prefix: str) -> LinearCode:
    """A dual of `code`, given its generator and parity check: `code`'s
    parity check and generator, or their conjugates, as fresh arrays.
    The parity check becomes a generator, so it must hold n - k rows."""
    if len(code.parity_check) != code.n - code.k:
        raise ValueError(
            f"parity check has {len(code.parity_check)} rows, not n - k = {code.n - code.k}; "
            "not a basis of the dual"
        )
    return LinearCode(
        field=code.field,
        generator=generator,
        parity_check=parity_check,
        points=code.points,
        curve=code.curve,
        name=f"{prefix}-{code.name}",
    )


def dual(code: LinearCode) -> LinearCode:
    """Euclidean dual C^perp: the code with generator and parity check traded."""
    return _traded(code, code.parity_check.copy(), code.generator.copy(), "dual")


# ---------------------------------------------------------------------------
# codeword enumeration


def _message_digits(order: int, k: int, msgs: np.ndarray) -> np.ndarray:
    out = np.zeros((len(msgs), k), dtype=np.int64)
    for i in range(k):
        out[:, i] = (msgs // order**i) % order
    return out


def _orbit_messages(order: int, k: int, skip_zero: bool) -> np.ndarray:
    """Message 0 unless skipped, then, in increasing order, the messages of
    k digits whose highest nonzero digit is 1: the integers in
    [q^t, 2 q^t) for t < k, one in each orbit of GF(q)* on the nonzero
    messages."""
    return np.concatenate([np.arange(int(skip_zero), 1, dtype=np.int64)]
                          + [np.arange(order**t, 2 * order**t, dtype=np.int64) for t in range(k)])


def iter_codeword_blocks(code: LinearCode, skip_zero: bool = False):
    """Yield one codeword of each scalar orbit, as coset blocks (H, L) of
    index matrices whose words are H[t] + L[s], t major.

    Message m = sum_i m_i q^i encodes to sum_i m_i G[i].  The messages
    whose highest nonzero digit is 1 meet each orbit {lambda m : lambda
    in GF(q)*} of a nonzero message once, and lambda c has the weight of
    c, so their (q^k - 1)/(q - 1) words carry every nonzero weight.
    Message 0 comes first unless `skip_zero`.  Words come in increasing
    order of m, in nonempty blocks of at most `block` = CODEWORD_BLOCK
    words.  No block's words are formed: wt(h + l) is the Hamming
    distance d(-h, l), which `_orbit_weights` counts from H and L.

    When q^k <= block and either k <= 1 or the q^k * n * e digits of all
    words are at most SINGLE_PRODUCT_DIGITS, all messages (from 1 if
    `skip_zero`) are one `matmul`, and the one block is its orbit rows
    with a zero row for L.  Otherwise the code is the union of the
    cosets h + C_low, where C_low is spanned by the first j rows of G, j
    the largest with q^(j+1) <= block (0 if q > block) and at most k - 1.
    The low table L of all q^j words of C_low is built from the zero row
    by j steps, each adding the q multiples of one row of G (`vmul`) to
    the table so far (`vadd`).  Message h q^j + s with h != 0 is a
    representative when h is one, whatever s, so the blocks are (zero
    row, the orbit rows of L), for h = 0, then, for each chunk of c =
    block // q^j representative high messages, (H, L) with the c offsets
    H of one `matmul` with G[j:].  Memory: L holds at most block/q rows
    and each chunk only its c offsets; the coset path forms no word, and
    no q^k-row array exists on either path.

    The boundary is a cost, not a size: `matmul` reduces and recombines
    e float digits per output symbol, where a coset block compares
    symbols of two small tables.  Measured on random generators for one
    `_orbit_weights` of all orbit words, one BLAS thread on a 2-vCPU VM,
    single product against cosets: GF(4) n=8 k=3 (1024 digits) 44 vs
    57 us, GF(4) n=64 k=3 (8192) 69 vs 66 us, GF(9) n=8 k=3 (11664) 96
    vs 63 us, GF(9) n=27 k=3 (39366) 467 vs 69 us.
    """
    F, G, q, k, block = code.field, code.generator, code.field.order, code.k, CODEWORD_BLOCK
    total = q**k
    zero = np.zeros((1, code.n), dtype=np.int64)
    if total <= block and (k <= 1 or total * code.n * F.e <= SINGLE_PRODUCT_DIGITS):
        start = int(skip_zero)
        if start < total:
            words = matmul(F, _message_digits(q, k, np.arange(start, total)), G)
            yield words[_orbit_messages(q, k, skip_zero) - start], zero
        return
    j = 0
    while q ** (j + 2) <= block and j < k - 1:
        j += 1
    low = zero
    scalars = np.arange(q, dtype=np.int64)[:, None]
    for row in G[:j]:
        low = F.vadd(F.vmul(scalars, row)[:, None, :], low[None, :, :]).reshape(-1, code.n)
    lead = low[_orbit_messages(q, j, skip_zero)]
    if len(lead):
        yield zero, lead
    highs = _orbit_messages(q, k - j, skip_zero=True)
    chunk = block // q**j
    for lo in range(0, len(highs), chunk):
        yield matmul(F, _message_digits(q, k - j, highs[lo:lo + chunk]), G[j:]), low


def _fits_budget(code: LinearCode, budget: int) -> bool:
    """Whether enumerating the q^k codewords of `code` fits `budget`."""
    return code.k == 0 or code.field.order**code.k <= budget


def _orbit_weights(code: LinearCode, skip_zero: bool) -> np.ndarray:
    """Counts by Hamming weight, 0..n, of the words of `iter_codeword_blocks`:
    one per scalar orbit, and the zero word unless `skip_zero`.

    A word H[t] + L[s] of a coset block is zero at i exactly where L[s, i]
    is -H[t, i], so its weight is the Hamming distance d(-H[t], L[s]),
    counted without forming it: one (n, len(H), len(L)) bool comparison
    of the symbols in their least dtype, summed over its first axis in
    the least dtype that holds n.  That comparison, at most n x
    CODEWORD_BLOCK bytes, is the only array of a block's size.
    """
    F, n = code.field, code.n
    symbols, sums = np.min_scalar_type(F.order - 1), np.min_scalar_type(n)
    counts = np.zeros(n + 1, dtype=np.int64)
    for H, L in iter_codeword_blocks(code, skip_zero=skip_zero):
        # C order: numpy would otherwise lay the broadcast result out
        # transposed, which makes the sum over its first axis much slower
        differ = np.not_equal(F.vneg(H).T.astype(symbols)[:, :, None],
                              L.T.astype(symbols)[:, None, :], order="C")
        counts += np.bincount(differ.sum(axis=0, dtype=sums).ravel(), minlength=n + 1)
    return counts


@dataclass(frozen=True)
class DistanceResult:
    d: int | None
    method: str
    lower: int | None
    upper: int | None

    @property
    def exact(self) -> bool:
        return self.d is not None


def distance_lower_bound(code: LinearCode, table=None) -> int:
    """A proven lower bound on the minimum distance, with no enumeration;
    any value bounds a code with k = 0, which has no nonzero codeword.

    It is the designed distance when that is at least 3.  Otherwise it
    reads the parity-check columns from `table`, their `_column_table`,
    which is built here when not given: a zero column (or a parity check
    with no rows) is a codeword of weight 1, so d = 1; two parallel
    columns give one of weight 2, so d = 2; with neither, no codeword
    has weight 1 or 2, so d >= 3.  The columns are not read when the
    designed distance is at least 3, as they could only show d <= 2.
    """
    designed = code.designed_distance
    if designed is not None and designed >= 3:
        return designed
    if table is None:
        table = _column_table(code.field, code.parity_check)
    if table is None or len(table[1]) < code.n:
        return 1
    keys = table[0]
    return 2 if (keys[1:] == keys[:-1]).any() else 3


def min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Exact minimum distance when q^k fits the budget, bounds otherwise.

    Within budget, d is the least nonzero weight of the words of
    `iter_codeword_blocks`, one per scalar orbit.  Over budget the lower
    bound is `distance_lower_bound`: below 3 it is d itself, read from
    the parity-check columns (a zero or two parallel columns); from 3 on
    it meets the Singleton bound n - k + 1 or not.  Where they meet, the
    distance is proven and returned as `bounds-meet`; otherwise the
    result is an explicit bounds-only report, never an estimate.
    """
    n, k = code.n, code.k
    if k == 0:
        return DistanceResult(d=None, method="empty", lower=None, upper=None)
    if k == n:
        return DistanceResult(d=1, method="full-space", lower=1, upper=1)
    if _fits_budget(code, budget):
        found = np.flatnonzero(_orbit_weights(code, skip_zero=True)[1:])
        best = int(found[0]) + 1 if len(found) else n + 1
        return DistanceResult(d=best, method="exhaustive", lower=best, upper=best)

    lower = distance_lower_bound(code)
    if lower < 3:
        return DistanceResult(d=lower, method="parity-columns", lower=lower, upper=lower)
    upper = n - k + 1
    if lower == upper:
        return DistanceResult(d=lower, method="bounds-meet", lower=lower, upper=upper)
    return DistanceResult(d=None, method="bounds-only", lower=lower, upper=upper)


def weight_distribution(code: LinearCode, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Codeword counts by Hamming weight; counts sum to q^k.

    Each nonzero message from `iter_codeword_blocks` stands for the q - 1
    messages of its scalar orbit, whose words share its weight, so its
    word counts q - 1 times; message 0 counts once.  A nonzero message
    that encodes to the zero word (a rank-deficient generator) thus adds
    q - 1 to counts[0].
    """
    if not _fits_budget(code, budget):
        raise BudgetExceededError(
            f"{code.field.order}^{code.k} codewords exceed budget {budget}"
        )
    if code.k == 0:
        counts = np.zeros(code.n + 1, dtype=np.int64)
        counts[0] = 1
        return counts
    counts = _orbit_weights(code, skip_zero=False)
    counts *= code.field.order - 1
    counts[0] -= code.field.order - 2  # message 0, its own orbit, was counted q - 1 times
    return counts


# ---------------------------------------------------------------------------
# Hermitian structure


def hermitian_inner(tower: QuadraticTower, a, b) -> int:
    """<a, b> = sum_i a_i * b_i^q over GF(q^2), for index vectors a and b."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(reduce(tower.ext.vadd, tower.ext.vmul(a, tower.vfrobenius(b)).tolist(), 0))


def _hermitian_gram(code: LinearCode) -> np.ndarray:
    return matmul(code.field, code.generator, code.tower.vfrobenius(code.generator).T)


def hermitian_violation(code: LinearCode) -> tuple[int, int] | None:
    """First generator row pair with nonzero Hermitian product, if any."""
    gram = _hermitian_gram(code)
    nz = np.argwhere(gram != 0)
    if len(nz) == 0:
        return None
    return int(nz[0][0]), int(nz[0][1])


def is_hermitian_self_orthogonal(code: LinearCode) -> bool:
    """All pairwise Hermitian products of generator rows vanish; by
    sesquilinearity this puts every codeword pair, hence C, inside its
    Hermitian dual."""
    return not _hermitian_gram(code).any()


def _euclidean_gram(a: LinearCode, b: LinearCode) -> np.ndarray:
    """G_a G_b^T, a block of `ladder_gram` (then holding G_b G_b^T too) when both are row prefixes of a's ladder."""
    held = a.curve._cache.get("ladder") if a.curve is not None else None
    if held is not None and all(np.array_equal(G, held[1].rows[:len(G)]) for G in (a.generator, b.generator)):
        return ladder_gram(a.curve, max(a.k, b.k), b.k)[:a.k, :b.k]
    return matmul(a.field, a.generator, b.generator.T)


def is_euclidean_self_orthogonal(code: LinearCode) -> bool:
    """All pairwise products of generator rows vanish, a block of the ladder's Gram."""
    return not _euclidean_gram(code, code).any()


def hermitian_dual(code: LinearCode) -> LinearCode:
    """Hermitian dual C^perp_h = (C^q)^perp.  Frobenius is a field
    automorphism, so conj(G) generates C^q and conj(H) checks it: the dual
    is the code with the conjugated generator and parity check traded."""
    tower = code.tower
    return _traded(code, tower.vfrobenius(code.parity_check), tower.vfrobenius(code.generator), "hdual")


# ---------------------------------------------------------------------------
# duality claim comparison


@dataclass(frozen=True)
class DualityClaim:
    """Computed comparison of dual(C_r) with C_{r'}, r' the companion of
    `claims.companion`.  Reports, never asserts."""

    q: int
    m: int
    r: int
    r_prime: int | None
    applicable: bool
    dim_code: int | None = None
    dim_dual: int | None = None
    dim_companion: int | None = None
    row_spaces_equal: bool | None = None
    companion_inside_dual: bool | None = None
    dual_inside_companion: bool | None = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _dual_sum_rank(code: LinearCode, companion: LinearCode) -> int:
    """dim(C^perp + V) = n - k + rank(G_c G^T) for C = `code` and V = `companion`,
    of generators G and G_c: x G_c lies in C^perp iff x G_c G^T = 0.  G_c G^T
    is k' x k, a block of the ladder's Gram when both codes read one ladder."""
    return code.n - code.k + rank(code.field, _euclidean_gram(companion, code))


def check_duality_claim(curve: CurveSpec, r: int, eval_set="all") -> DualityClaim:
    """Compare dual(C_r) with C_{r'} at the same points by one rank.

    C_r and C_{r'} are read from the curve's code ladder, the larger r
    first: its build makes one elimination at most, none when the ladder
    already reaches it, and the other build makes none.  `_dual_sum_rank`
    then ranks the k' x k block of the ladder's Gram that determines
    dim(dual(C_r) + C_{r'}), before `dual` copies C_r's parity check.
    """
    r_prime = claims.companion(curve.q, curve.m, r)
    r_prime = int(r_prime) if r_prime.denominator == 1 else None
    if r_prime is None or r_prime < 0:
        return DualityClaim(q=curve.q, m=curve.m, r=r, r_prime=r_prime, applicable=False)
    built = [build_onepoint_code(curve, s, eval_set) for s in sorted((r, r_prime), reverse=True)]
    code, companion = built if r >= r_prime else built[::-1]
    dual_sum = _dual_sum_rank(code, companion)
    code_dual = dual(code)
    # dim(U + V) = dim U = dim V holds iff U = V: the one rank decides
    # equality as well as both containments, with no further elimination
    return DualityClaim(
        q=curve.q,
        m=curve.m,
        r=r,
        r_prime=r_prime,
        applicable=True,
        dim_code=code.k,
        dim_dual=code_dual.k,
        dim_companion=companion.k,
        row_spaces_equal=dual_sum == code_dual.k == companion.k,
        companion_inside_dual=dual_sum == code_dual.k,
        dual_inside_companion=dual_sum == companion.k,
    )


# ---------------------------------------------------------------------------
# reporting


@dataclass
class CodeReport:
    name: str
    n: int
    k: int
    d: int | None
    d_method: str
    d_lower: int | None
    d_upper: int | None
    d_designed: int | None
    singleton_ok: bool | None
    goppa_bound_ok: bool | None
    euclidean_self_orthogonal: bool
    hermitian_self_orthogonal: bool | None
    euclidean_threshold_holds: bool | None
    hermitian_threshold_r: bool | None
    hermitian_threshold_pole: bool | None
    length_claimed: int | None
    designed_distance_claimed: int | None
    dimension_case: int | None
    dimension_predicted: str | None
    dimension_prediction_matches: bool | None
    weight_distribution: list[int] | None
    duality_claim: dict

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


def code_report(curve: CurveSpec, r: int, eval_set="all", budget: int = DEFAULT_BUDGET,
                include_weights: bool = False) -> CodeReport:
    """Full verification record for the one-point code at r."""
    # the claim first: its builds take the curve's ladder to max(r, r')
    claim = check_duality_claim(curve, r, eval_set).to_dict()
    code = build_onepoint_code(curve, r, eval_set)
    dist = min_distance(code, budget)
    designed = code.designed_distance
    herm = is_hermitian_self_orthogonal(code)
    eucl = is_euclidean_self_orthogonal(code)
    pred = claims.dimension_by_cases(curve, r)
    wd = None
    if include_weights and _fits_budget(code, budget):
        wd = [int(c) for c in weight_distribution(code, budget)]
    return CodeReport(
        name=code.name,
        n=code.n,
        k=code.k,
        d=dist.d,
        d_method=dist.method,
        d_lower=dist.lower,
        d_upper=dist.upper,
        d_designed=designed,
        singleton_ok=(dist.d <= code.n - code.k + 1) if dist.exact else None,
        goppa_bound_ok=(dist.d >= designed) if (dist.exact and designed is not None and designed > 0) else None,
        euclidean_self_orthogonal=eucl,
        hermitian_self_orthogonal=herm,
        **claims.report_claims(curve.q, curve.m, r),
        dimension_case=pred.case,
        dimension_predicted=str(pred.value),
        dimension_prediction_matches=bool(pred.is_integer and pred.value == code.k),
        weight_distribution=wd,
        duality_claim=claim,
    )


# ---------------------------------------------------------------------------
# explicit matrix files


def save_code(code: LinearCode, path) -> None:
    """Write 'q2=<size> n=<n> k=<k>' then k rows of canonical indices."""
    with open(path, "w") as fh:
        fh.write(f"q2={code.field.order} n={code.n} k={code.k}\n")
        for row in code.generator:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def load_code(path) -> LinearCode:
    """Read the matrix format written by `save_code` and verify rank."""
    with open(path) as fh:
        header = fh.readline().strip()
        match = re.fullmatch(r"q2=(\d+) n=(\d+) k=(\d+)", header)
        if not match:
            raise ValueError(f"bad header {header!r}; expected 'q2=<size> n=<n> k=<k>'")
        size, n, k = (int(g) for g in match.groups())
        p, e = factor_prime_power(size)
        F = field(p, e)
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([int(tok) for tok in line.split()])
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: expected integer entries, got {line!r}") from None
        if len(rows) != k or any(len(row) != n for row in rows):
            raise ValueError(f"expected {k} rows of {n} entries")
    # reshaped, so that a k = 0 file gives a (0, n) generator
    return LinearCode.from_generator(F, np.array(rows, dtype=np.int64).reshape(k, n))
