import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import agq.linalg
import agq.rrspace
from agq import agcode, benchmarks
from agq.agcode import (
    BudgetExceededError,
    DistanceResult,
    LinearCode,
    build_onepoint_code,
    check_duality_claim,
    code_report,
    dual,
    hermitian_dual,
    hermitian_inner,
    hermitian_violation,
    is_euclidean_self_orthogonal,
    is_hermitian_self_orthogonal,
    iter_codeword_blocks,
    load_code,
    min_distance,
    resolve_eval_set,
    save_code,
    weight_distribution,
)
from agq.curve import enumerate_points, hermitian_curve, superelliptic_curve
from agq.rrspace import code_ladder, dimension_report, evaluation_matrix
from agq.gf import FieldError, field, quadratic_tower
from agq.linalg import matmul, rank, right_nullspace
from oracles import (
    NaiveField,
    TabledField,
    macwilliams_transform,
    naive_hermitian_inner,
    naive_matmul,
    naive_min_distance,
    naive_orbit_codewords,
    naive_rank,
    naive_row_basis,
    naive_row_space_equal,
    naive_weight_distribution,
)

# weight distribution of the [8, 3, 5] benchmark code over GF(4),
# frozen from the naive enumeration oracle (64 codewords)
BENCHMARK_8_3_WEIGHTS = {0: 1, 5: 24, 6: 12, 7: 24, 8: 3}


@pytest.fixture(scope="module")
def code_8_3():
    return benchmarks.benchmark_code_8_3()


def row_basis(F, rows):
    """The oracle's reduced basis of the span of an (m, n) index array."""
    reduced = naive_row_basis(NaiveField(F.p, F.e, F.modulus), rows)
    return np.array(reduced, dtype=np.int64).reshape(len(reduced), rows.shape[1])


# ---------------------------------------------------------------------------
# construction


def test_benchmark_code_parameters(code_8_3):
    assert (code_8_3.n, code_8_3.k) == (8, 3)
    assert code_8_3.designed_distance == 5
    assert rank(code_8_3.field, code_8_3.generator) == 3
    assert not matmul(code_8_3.field, code_8_3.generator, code_8_3.parity_check.T).any()
    assert rank(code_8_3.field, code_8_3.parity_check) == 5


def test_benchmark_min_distance_and_weights(code_8_3):
    nf = NaiveField(2, 2, code_8_3.field.modulus)
    assert naive_min_distance(nf, code_8_3.generator.tolist()) == 5
    dist = min_distance(code_8_3)
    assert dist.d == 5 and dist.method == "exhaustive"
    wd = weight_distribution(code_8_3)
    assert {i: int(c) for i, c in enumerate(wd) if c} == BENCHMARK_8_3_WEIGHTS
    assert naive_weight_distribution(nf, code_8_3.generator.tolist()) == BENCHMARK_8_3_WEIGHTS
    assert int(wd.sum()) == 64


def test_benchmark_dual_is_8_5_3(code_8_3):
    d = dual(code_8_3)
    assert (d.n, d.k) == (8, 5)
    assert min_distance(d).d == 3
    assert not matmul(d.field, d.generator, code_8_3.generator.T).any()


def test_saturated_code_is_full_space():
    code = benchmarks.saturated_code_4_4()
    assert (code.n, code.k) == (4, 4)
    assert min_distance(code).d == 1
    wd = weight_distribution(code)
    assert int(wd.sum()) == 256
    assert code.parity_check.shape == (0, 4)


def test_se33_r2_code(se33):
    code = build_onepoint_code(se33, 2)
    assert (code.n, code.k) == (15, 2)
    nf = NaiveField(3, 2, code.field.modulus)
    assert naive_min_distance(nf, code.generator.tolist()) == min_distance(code).d == 13


def test_zero_code_for_negative_r(se33):
    code = build_onepoint_code(se33, -1)
    assert (code.n, code.k) == (15, 0)
    assert min_distance(code).method == "empty"
    wd = weight_distribution(code)
    assert wd[0] == 1 and int(wd.sum()) == 1


def test_eval_set_policies(se33):
    assert len(resolve_eval_set(se33, "all")) == 15
    assert len(resolve_eval_set(se33, "first:4")) == 4
    # X(F_3) has 3 affine points on this curve
    assert len(resolve_eval_set(se33, "exclude-subfield")) == 12
    with pytest.raises(ValueError):
        resolve_eval_set(se33, "first:99")
    with pytest.raises(ValueError):
        resolve_eval_set(se33, "bogus")


@pytest.mark.parametrize("make", [lambda: superelliptic_curve(3, 3), lambda: hermitian_curve(3),
                                  lambda: hermitian_curve(4), lambda: superelliptic_curve(5, 3)])
def test_exclude_subfield_matches_per_point_filter(make):
    curve = make()
    F = curve.tower.ext
    nf = NaiveField(F.p, F.e, F.modulus)
    subfield = {a for a in range(F.order) if nf.pow(a, curve.q) == a}
    kept = [(x, y) for x, y in resolve_eval_set(curve, "all").tolist()
            if not {x, y} <= subfield]
    assert [tuple(p) for p in resolve_eval_set(curve, "exclude-subfield").tolist()] == kept


def test_explicit_eval_set_validated(se33):
    pts = np.array([[0, 0], [1, 5]])
    assert resolve_eval_set(se33, pts).tolist() == pts.tolist()
    bad = [
        [],                                  # empty
        np.zeros((0, 2), dtype=np.int64),    # empty, right shape
        np.array([0, 0]),                    # one pair, not an (N, 2) array
        np.zeros((3, 3), dtype=np.int64),    # wrong shape
        np.array([[0.0, 1.0]]),              # not indices
        np.array([[0, 9]]),                  # outside GF(9)
        np.array([[-1, 0]]),
    ]
    for points in bad:
        with pytest.raises(ValueError):
            resolve_eval_set(se33, points)
        with pytest.raises(ValueError):
            evaluation_matrix(se33, [(0, 0), (1, 0)], points)
    # n - r bounds d only for distinct curve points: (1, 2) is off
    # y^2 = x^3 + x, and a point listed twice repeats a coordinate.
    # `evaluation_matrix` takes any indices, so only the eval set rejects them
    with pytest.raises(ValueError, match="not on the curve"):
        resolve_eval_set(se33, np.array([[0, 0], [1, 2]]))
    with pytest.raises(ValueError, match="distinct"):
        resolve_eval_set(se33, np.array([[0, 0], [1, 5], [0, 0]]))


def test_code_points_shared_read_only(se33):
    code = build_onepoint_code(se33, 4)
    assert code.points.shape == (15, 2) and not code.points.flags.writeable
    assert dual(code).points is code.points
    assert hermitian_dual(code).points is code.points


# ---------------------------------------------------------------------------
# reference matrices


def test_reference_generator_spans_equivalent_code(code_8_3):
    ref = benchmarks.reference_code_8_3()
    assert (ref.n, ref.k) == (8, 3)
    assert np.array_equal(weight_distribution(ref), weight_distribution(code_8_3))
    assert min_distance(ref).d == 5


def test_reference_parity_check_properties():
    F = field(2, 2)
    assert rank(F, benchmarks.REFERENCE_H_8_3) == 5
    product = matmul(F, benchmarks.REFERENCE_G_8_3, benchmarks.REFERENCE_H_8_3.T)
    assert not product.any()


# ---------------------------------------------------------------------------
# duals


def test_dual_dimensions_sum(code_8_3, se33):
    for code in (code_8_3, build_onepoint_code(se33, 2), build_onepoint_code(se33, 6)):
        assert dual(code).k + code.k == code.n


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(3, 6), st.data())
def test_double_dual_recovers_row_space(k, n, data):
    F = field(2, 2)
    entries = data.draw(st.lists(st.integers(0, 3), min_size=k * n, max_size=k * n))
    G = np.array(entries, dtype=np.int64).reshape(k, n)
    code = LinearCode(field=F, generator=row_basis(F, G))
    dd = dual(dual(code))
    assert dd.k == code.k
    if code.k:
        assert naive_row_space_equal(NaiveField(2, 2, F.modulus), dd.generator, code.generator)


def test_dual_of_full_code_is_zero_code():
    code = benchmarks.saturated_code_4_4()
    d = dual(code)
    assert (d.n, d.k) == (4, 0)


@st.composite
def full_rank_codes(draw):
    """A random full-rank [n, k] code over GF(4), GF(9) or GF(25), n <= 7,
    carrying its tower, with the naive field of its extension."""
    tower = quadratic_tower(draw(st.sampled_from([2, 3, 5])))
    F = tower.ext
    nf = NaiveField(F.p, F.e, F.modulus)
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n))
    G = _matrix(draw, F, k, n)
    assume(naive_rank(nf, G.tolist()) == k)
    return nf, LinearCode(field=F, generator=G, tower=tower)


@settings(max_examples=80, deadline=None)
@given(full_rank_codes())
def test_duals_against_naive_oracles(case):
    nf, code = case
    n, k, q = code.n, code.k, code.tower.q
    d, hd = dual(code), hermitian_dual(code)
    for other in (d, hd):
        assert other.generator.shape == (n - k, n)
        assert naive_rank(nf, other.generator.tolist()) == n - k
        # fresh arrays: a dual never aliases its source's matrices
        for mine in (other.generator, other.parity_check):
            for theirs in (code.generator, code.parity_check):
                assert not np.shares_memory(mine, theirs)
    assert not any(any(row) for row in naive_matmul(nf, code.generator, d.generator.T))
    for h in hd.generator.tolist():
        for g in code.generator.tolist():
            assert naive_hermitian_inner(nf, q, h, g) == 0
    assert naive_row_space_equal(nf, dual(d).generator, code.generator)
    assert naive_row_space_equal(nf, hermitian_dual(hd).generator, code.generator)


def _counted_eliminations(monkeypatch) -> list:
    # `rank`, `pivots_and_transform` and so `right_nullspace` reach the
    # one elimination loop through the module global
    calls = []
    eliminate = agq.linalg._eliminate

    def counted(F, A, *args, **kwargs):
        calls.append(np.shape(A))
        return eliminate(F, A, *args, **kwargs)

    monkeypatch.setattr(agq.linalg, "_eliminate", counted)
    return calls


def test_duals_make_no_elimination(monkeypatch, code_8_3):
    calls = _counted_eliminations(monkeypatch)
    large = build_onepoint_code(hermitian_curve(5), 24)
    for code in (code_8_3, large):
        calls.clear()
        dual(code)
        hermitian_dual(code)
        assert calls == []
    # from_generator ranks G by the one null space its construction computes
    LinearCode.from_generator(field(2, 2), benchmarks.REFERENCE_G_8_3)
    assert len(calls) == 1
    # a built code's basis and parity check come from one elimination, and
    # the duality claim adds one rank to its builds: C_24 takes the fresh
    # curve's ladder to r = 24, and the companion at r' = 11 reads a prefix
    calls.clear()
    build_onepoint_code(hermitian_curve(5), 24)
    assert len(calls) == 1
    calls.clear()
    check_duality_claim(hermitian_curve(5), 24)
    assert len(calls) == 2
    # every row of the dimension table reads the one basis at r_max, and a
    # later read lower on the same curve's ladder makes no elimination
    calls.clear()
    se = superelliptic_curve(3, 3)
    dimension_report(se, 30)
    assert len(calls) == 1
    code_ladder(se, se.q - 1, enumerate_points(se))
    assert len(calls) == 1


def test_a_prefix_build_makes_no_elimination_and_shares_the_ladders_transform(monkeypatch):
    calls = _counted_eliminations(monkeypatch)
    curve = hermitian_curve(4)
    top = build_onepoint_code(curve, 16)
    assert len(calls) == 1
    basis = code_ladder(curve, 16, enumerate_points(curve))
    # the top again, and a code below it: G a prefix of the ladder's rows,
    # H a suffix of its transform, read with no elimination
    again = build_onepoint_code(curve, 16)
    low = build_onepoint_code(curve, 7)
    H = low.parity_check
    assert len(calls) == 1
    assert np.array_equal(again.parity_check, top.parity_check)
    assert np.array_equal(low.generator, top.generator[:low.k])
    assert np.array_equal(H, basis.transform[low.k:])
    for code in (top, again, low):
        assert np.shares_memory(code.parity_check, basis.transform)
    assert not H.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        H[0, 0] = 1
    assert H.shape == (low.n - low.k, low.n) and rank(low.field, H) == low.n - low.k
    assert not matmul(low.field, low.generator, H.T).any()
    assert len(calls) == 2  # the rank just above


# fresh curves whose duality claim applies, with r' below and above r
REPORT_ELIMINATION_CASES = {
    "hermitian-q5-r24": (lambda: hermitian_curve(5), 24, 11),
    "superelliptic-q7-m3-r6": (lambda: superelliptic_curve(7, 3), 6, 49),
    "hermitian-q2-r3": (lambda: hermitian_curve(2), 3, 2),
}


@pytest.mark.parametrize("name", REPORT_ELIMINATION_CASES)
def test_a_report_makes_one_ladder_elimination_and_one_rank(monkeypatch, name):
    # the claim builds the larger of C_r and C_r' first, whose elimination
    # takes the fresh curve's ladder to both; `_dual_sum_rank` ranks one
    # block of the ladder's Gram; the report's own build and every H read
    # are free
    make, r, r_prime = REPORT_ELIMINATION_CASES[name]
    curve = make()
    calls = _counted_eliminations(monkeypatch)
    report = code_report(curve, r, include_weights=True)
    assert report.duality_claim["applicable"] and report.duality_claim["r_prime"] == r_prime
    assert len(calls) == 2


def _recorded_products(monkeypatch, module) -> list:
    # (rows, inner, columns) of each `matmul` the module makes
    shapes = []
    product = module.matmul

    def recorded(F, A, B):
        shapes.append((*np.shape(A), np.shape(B)[1]))
        return product(F, A, B)

    monkeypatch.setattr(module, "matmul", recorded)
    return shapes


# and the [4096,6] code over GF(256) whose companion has k' = 217: its
# claim ranked a 3885 x 4096 stack, which took 7.5 s on a 2-vCPU machine,
# and now ranks a 217 x 6 block
GRAM_CASES = {**REPORT_ELIMINATION_CASES, "hermitian-q16-r40": (lambda: hermitian_curve(16), 40, 336)}


@pytest.mark.parametrize("name", GRAM_CASES)
def test_a_reports_euclidean_products_are_blocks_of_one_ladder_gram(monkeypatch, name):
    # the duality claim and the Euclidean verdict read one K x k Gram of the
    # fresh ladder, K = max(k, k'), and the claim's rank eliminates its
    # k' x k block; agcode's one product is the Hermitian Gram (budget 0:
    # no enumeration)
    make, r, r_prime = GRAM_CASES[name]
    calls = _counted_eliminations(monkeypatch)
    ladder = _recorded_products(monkeypatch, agq.rrspace)
    own = _recorded_products(monkeypatch, agcode)
    report = code_report(make(), r, budget=0)
    n, k, k_prime = report.n, report.k, report.duality_claim["dim_companion"]
    assert ladder == [(max(k, k_prime), n, k)]
    assert own == [(k, n, k)]
    assert len(calls) == 2 and calls[1] == (k_prime, k)


def test_a_report_on_a_grown_ladder_takes_the_gram_of_the_rows_it_reads(monkeypatch):
    # dimension_report took the ladder to all n rows; the report's one
    # Euclidean product is still max(k, k') x n x k, and its claim's rank
    # the only elimination
    curve = superelliptic_curve(7, 3)
    points = enumerate_points(curve)
    dimension_report(curve, len(points) + 2 * curve.genus)
    K = len(code_ladder(curve, 0, points).rows)
    calls = _counted_eliminations(monkeypatch)
    ladder = _recorded_products(monkeypatch, agq.rrspace)
    report = code_report(curve, 6, budget=0)
    n, k, k_prime = report.n, report.k, report.duality_claim["dim_companion"]
    assert K == n > max(k, k_prime)
    assert ladder == [(max(k, k_prime), n, k)]
    assert calls == [(k_prime, k)]


def test_codes_on_two_point_sets_of_one_curve_share_no_gram_block(monkeypatch):
    # a code read from the ladder on the old points is no prefix of the
    # ladder on the new ones, whose replacement dropped the old Gram: each
    # pair with it makes its own product, and every rank matches the stack's
    curve = hermitian_curve(3)
    old = build_onepoint_code(curve, 7)
    verdict = is_euclidean_self_orthogonal(old)
    assert "gram" in curve._cache
    new = build_onepoint_code(curve, 7, enumerate_points(curve)[::-1])
    assert "gram" not in curve._cache
    ladder = _recorded_products(monkeypatch, agq.rrspace)
    own = _recorded_products(monkeypatch, agcode)
    for a, b in ((old, new), (new, old), (old, old)):
        assert agcode._dual_sum_rank(a, b) == _long_stack_rank(dual(a), b)
    assert ladder == [] and len(own) == 3
    assert agcode._dual_sum_rank(new, new) == _long_stack_rank(dual(new), new)
    assert ladder == [(new.k, new.n, new.k)] and len(own) == 3
    assert is_euclidean_self_orthogonal(old) == verdict
    for code in (old, new):
        G = code.generator
        assert is_euclidean_self_orthogonal(code) == (not matmul(code.field, G, G.T).any())
    assert len(ladder) == 1 and len(own) == 5


def test_built_codes_share_read_only_ladder_arrays():
    curve = superelliptic_curve(3, 3)
    top = build_onepoint_code(curve, 8)
    low = build_onepoint_code(curve, 4)
    for array in (top.generator, top.parity_check, low.generator, low.parity_check):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1
    assert np.shares_memory(low.generator, top.generator)
    # a dual's generator is a fresh copy of the parity check
    dual(top).generator[0, 0] = 1


# ---------------------------------------------------------------------------
# codeword enumeration

# p in {2, 3, 5, 7} with e <= 3 covers the XOR and add-table paths of
# `vadd`; GF(3^6), of odd order above 256, covers its digit path and,
# with GF(7^3), the uint16 symbols of `_orbit_weights`
ENUMERATION_FIELDS = [(p, e) for p in (2, 3, 5, 7) for e in (1, 2, 3)] + [(3, 6)]


def coset_words(F, blocks):
    """The words H[t] + L[s] of the coset blocks (H, L), t major, in one array."""
    return np.concatenate([F.vadd(H[:, None, :], L[None, :, :]).reshape(-1, H.shape[1])
                           for H, L in blocks])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ENUMERATION_FIELDS), st.integers(1, 6), st.data())
def test_codeword_blocks_match_naive_enumeration(pe, n, data):
    F = field(*pe)
    q = F.order
    k = data.draw(st.integers(1, max(k for k in range(1, 5) if q**k <= 1024 or k == 1)))
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=k * n, max_size=k * n))
    G = np.array(entries, dtype=np.int64).reshape(k, n)
    code = LinearCode(field=F, generator=G)
    expected = np.array(list(naive_orbit_codewords(NaiveField(F.p, F.e, F.modulus), G.tolist())))
    assert len(expected) == 1 + (q**k - 1) // (q - 1)
    for block in {1, 2, q - 1, q, q + 1, q * q, q**k - 1, 4096}:
        for skip_zero in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(agcode, "CODEWORD_BLOCK", block)
                blocks = list(iter_codeword_blocks(code, skip_zero=skip_zero))
            assert all(0 < len(H) * len(L) <= block for H, L in blocks)
            assert np.array_equal(coset_words(F, blocks), expected[int(skip_zero):])


# CODEWORD_BLOCK and SINGLE_PRODUCT_DIGITS pairs: the single product of a
# code of at most 4096 words, the coset path at the default block when
# k >= 2, and the coset path with j = 0, a zero low table and one-word
# blocks
COUNT_PATHS = [(4096, 1 << 60), (4096, 0), (1, 0)]


def assert_counts_match_orbit_weights(code, nf):
    """`weight_distribution` and `min_distance` on every path of COUNT_PATHS
    against the weights of the naive orbit words: q - 1 words for each
    nonzero message, one for message 0."""
    q, n = code.field.order, code.n
    words = list(naive_orbit_codewords(nf, code.generator.tolist()))
    weights = [sum(1 for v in word if v) for word in words]
    expected = np.bincount(weights, minlength=n + 1) * (q - 1)
    expected[weights[0]] -= q - 2
    nonzero = [w for w in weights[1:] if w]
    for block, limit in COUNT_PATHS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(agcode, "CODEWORD_BLOCK", block)
            mp.setattr(agcode, "SINGLE_PRODUCT_DIGITS", limit)
            assert weight_distribution(code).tolist() == expected.tolist(), (block, limit)
            if code.k < n:
                assert min_distance(code).d == min(nonzero, default=n + 1), (block, limit)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ENUMERATION_FIELDS), st.data())
def test_weight_counts_match_naive_orbit_words(pe, data):
    F = field(*pe)
    q = F.order
    k = data.draw(st.integers(1, max(k for k in range(1, 5) if q**k <= 1024 or k == 1)))
    n = data.draw(st.integers(k, 6))
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=k * n, max_size=k * n))
    code = LinearCode(field=F, generator=np.array(entries, dtype=np.int64).reshape(k, n))
    assert_counts_match_orbit_weights(code, NaiveField(F.p, F.e, F.modulus))


def test_weight_of_a_256_symbol_word_does_not_wrap():
    # the all-ones word of length 256 has weight 256, which a uint8 sum of
    # its 256 differing symbols would count as 0
    for pe in ((2, 1), (3, 1)):
        F = field(*pe)
        code = LinearCode(field=F, generator=np.ones((1, 256), dtype=np.int64))
        assert weight_distribution(code)[256] == F.order - 1
        assert_counts_match_orbit_weights(code, NaiveField(F.p, F.e, F.modulus))


@pytest.mark.parametrize("pe, k, n", [((2, 2), 1, 5), ((2, 2), 3, 6), ((3, 2), 2, 4), ((2, 3), 2, 7), ((5, 1), 3, 4)])
def test_single_product_and_cosets_yield_the_same_blocks(pe, k, n):
    # SINGLE_PRODUCT_DIGITS at 0 sends every code with k >= 2 down the coset
    # path, and at a huge value every code of at most `block` words down the
    # single product, one block of words over a zero row; both must give
    # the naive words in the same order
    F = field(*pe)
    q = F.order
    G = np.random.default_rng(q * 100 + k * 10 + n).integers(0, q, (k, n))
    code = LinearCode(field=F, generator=G)
    expected = np.array(list(naive_orbit_codewords(NaiveField(F.p, F.e, F.modulus), G.tolist())))
    for block in (q - 1, q, q**k - 1, q**k, 4096):
        for skip_zero in (False, True):
            runs = []
            for limit in (0, 1 << 60):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(agcode, "SINGLE_PRODUCT_DIGITS", limit)
                    mp.setattr(agcode, "CODEWORD_BLOCK", block)
                    runs.append(list(iter_codeword_blocks(code, skip_zero=skip_zero)))
            for blocks in runs:
                assert all(0 < len(H) * len(L) <= block for H, L in blocks)
                assert np.array_equal(coset_words(F, blocks), expected[int(skip_zero):])
            single = runs[1]
            if q**k <= block:
                assert len(single) == 1 and not single[0][1].any()


def _matmul_rows(monkeypatch):
    """Wrap agcode.matmul; returns the list of the A shapes it is called with."""
    shapes = []

    def counted(F, A, B):
        shapes.append(np.shape(A))
        return matmul(F, A, B)

    monkeypatch.setattr(agcode, "matmul", counted)
    return shapes


def test_small_code_enumerates_in_one_product(monkeypatch, code_8_3):
    # [8, 3] over GF(4): 64 * 8 * 2 = 1024 digits, under the single-product bound
    shapes = _matmul_rows(monkeypatch)
    weight_distribution(code_8_3)
    min_distance(code_8_3)
    assert shapes == [(64, 3), (63, 3)]


def test_coset_path_shrinks_the_products_of_a_one_block_code(monkeypatch):
    # Hermitian q=4 r=5, [64, 3] over GF(16): 4096 words, in 1 + 4095/15 =
    # 274 orbits.  The cosets need one product, of the one high
    # representative, against 4096 messages; the low table of 256 words
    # comes from the first two generator rows with no product.  Its 18
    # orbit rows over a zero row are the first block, and the
    # representative's offset over the whole table the second
    code = build_onepoint_code(hermitian_curve(4), 5)
    assert (code.n, code.k, code.field.order) == (64, 3, 16)
    shapes = _matmul_rows(monkeypatch)
    blocks = list(iter_codeword_blocks(code))
    F = code.field
    expected = np.array(list(naive_orbit_codewords(TabledField(F.p, F.e, F.modulus),
                                                   code.generator.tolist())))
    assert [(len(H), len(L)) for H, L in blocks] == [(1, 18), (1, 256)]
    assert not blocks[0][0].any() and np.array_equal(coset_words(F, blocks), expected)
    assert [rows for rows, _ in shapes] == [1]


def test_enumeration_forms_one_word_per_scalar_orbit(monkeypatch):
    # Hermitian q=4 r=8, [64, 4] over GF(16): (16^4 - 1)/15 = 4369 orbits
    # and the zero word, from 17 high representatives (1 and 16..31, 16 to
    # a 4096-word block) against the 256 high messages of all 65536 words;
    # the 256 low words take no product
    code = build_onepoint_code(hermitian_curve(4), 8)
    assert (code.n, code.k, code.field.order) == (64, 4, 16)
    shapes = _matmul_rows(monkeypatch)
    assert sum(len(H) * len(L) for H, L in iter_codeword_blocks(code)) == 4370
    assert [rows for rows, _ in shapes] == [16, 1]


@pytest.mark.parametrize("pe, n", [((2, 2), 6), ((3, 2), 5), ((5, 1), 4)])
def test_rank_deficient_generator_on_both_paths(pe, n):
    # a repeated row: nonzero messages that encode to the zero word, so the
    # q^k counts put more than one word at weight 0
    F = field(*pe)
    G = np.random.default_rng(n).integers(1, F.order, (3, n))
    G[2] = G[0]
    code = LinearCode(field=F, generator=G)
    nf = NaiveField(F.p, F.e, F.modulus)
    expected = naive_weight_distribution(nf, G.tolist())
    assert expected[0] == F.order
    for limit in (0, 1 << 60):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(agcode, "SINGLE_PRODUCT_DIGITS", limit)
            counts = weight_distribution(code)
            dist = min_distance(code)
        assert {i: int(c) for i, c in enumerate(counts) if c} == expected
        assert dist.d == naive_min_distance(nf, G.tolist())


def _assert_macwilliams(code, block):
    """dual(code)'s weights equal the MacWilliams transform of code's, both
    enumerated in blocks of `block` rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(agcode, "CODEWORD_BLOCK", block)
        counts = [int(c) for c in weight_distribution(code)]
        dual_counts = [Fraction(int(c)) for c in weight_distribution(dual(code))]
    assert dual_counts == macwilliams_transform(counts, code.field.order)


def test_macwilliams_identity_benchmark_pair(code_8_3):
    assert dual(code_8_3).k == 5
    for block in (3, 5, 16, 4096):
        _assert_macwilliams(code_8_3, block)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 2), (3, 2), (5, 1)]), st.data())
def test_macwilliams_identity_random_codes(pe, data):
    F = field(*pe)
    q = F.order
    n = data.draw(st.integers(2, max(n for n in range(2, 7) if q**n <= 6561)))
    k = data.draw(st.integers(1, n - 1))
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=k * n, max_size=k * n))
    G = row_basis(F, np.array(entries, dtype=np.int64).reshape(k, n))
    _assert_macwilliams(LinearCode(field=F, generator=G), data.draw(st.integers(1, q * q)))


def test_weight_distribution_memory_is_bounded():
    # [512, 3] over GF(64): 2^18 words, so a q^k x n array would be 1 GiB
    code = build_onepoint_code(hermitian_curve(8), 9)
    assert (code.n, code.k) == (512, 3)
    tracemalloc.start()
    try:
        counts = weight_distribution(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 64**3 and counts[0] == 1
    assert not counts[1:code.designed_distance].any()
    assert peak < 48 << 20


def test_weight_counts_form_no_words():
    # [512, 3] over GF(64): one block's 4096 words of 512 int64 symbols
    # would take 16 MiB; its comparison of uint8 symbols takes 2 MiB
    code = build_onepoint_code(hermitian_curve(8), 9)
    assert (code.n, code.k) == (512, 3)
    tracemalloc.start()
    try:
        weight_distribution(code)
        min_distance(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


def test_enumeration_holds_one_block_at_a_time():
    # the words of one block, 4096 x 512 int64, would take 16 MiB, and
    # those of two blocks at once past 32 MiB.  r = 9 gives [512, 3] over
    # GF(64), 4162 words (one per scalar orbit, and zero) in three blocks;
    # r = 8 gives [512, 2], whose 66 words are two coset blocks
    for r, k in ((9, 3), (8, 2)):
        code = build_onepoint_code(hermitian_curve(8), r)
        assert (code.n, code.k) == (512, k)
        for run in (weight_distribution, min_distance):
            tracemalloc.start()
            try:
                run(code)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 24 << 20, (r, run.__name__)


# ---------------------------------------------------------------------------
# distances: budgets and bounds


def test_budget_forces_bounds_only(se33):
    code = build_onepoint_code(se33, 6)  # [15, 6] over GF(9): 9^6 codewords
    res = min_distance(code, budget=1000)
    assert res.d is None and res.method == "bounds-only"
    assert res.lower == 15 - 6  # designed distance
    assert res.upper == 15 - 6 + 1  # Singleton
    assert not res.exact


def test_bounds_that_meet_give_the_distance():
    # Reed-Solomon [8, 6] over GF(16): 16^6 codewords are over the default
    # budget, no parity-check column is zero or parallel to another, so
    # d >= 3, and Singleton gives d <= 8 - 6 + 1 = 3
    F = field(2, 4)
    points = np.arange(1, 9)
    G = np.stack([F.vpow(points, i) for i in range(6)])
    code = LinearCode.from_generator(F, G)
    assert code.field.order ** code.k > agcode.DEFAULT_BUDGET
    res = min_distance(code)
    assert res == DistanceResult(d=3, method="bounds-meet", lower=3, upper=3)
    assert res.exact


def test_weight_distribution_budget_error(se33):
    code = build_onepoint_code(se33, 6)
    with pytest.raises(BudgetExceededError):
        weight_distribution(code, budget=1000)


def test_parity_column_analysis_detects_small_distance():
    F = field(2, 2)
    # a parity check with the identity in front; column 6 is either zero
    # (d = 1) or 2 * column 0, the only parallel pair (d = 2)
    H = np.array([
        [1, 0, 0, 0, 1, 1, 0, 1],
        [0, 1, 0, 0, 1, 2, 0, 1],
        [0, 0, 1, 0, 1, 3, 0, 0],
        [0, 0, 0, 1, 1, 1, 0, 0],
    ], dtype=np.int64)
    for col6, expected in (((0, 0, 0, 0), 1), ((2, 0, 0, 0), 2)):
        H[:, 6] = col6
        code = LinearCode(field=F, generator=right_nullspace(F, H))
        assert code.k == 4 and F.order**code.k > 100
        res = min_distance(code, budget=100)
        assert (res.method, res.d) == ("parity-columns", expected)
        exact = min_distance(code)
        assert (exact.method, exact.d) == ("exhaustive", expected)


def test_designed_distance_counts_the_places_at_infinity():
    # y^3 = x^3 + x over GF(25) has 3 places at infinity: the code at r
    # comes from a divisor of degree 3*floor(r/3), so d >= 33 - 3*floor(r/3),
    # and the exhaustive distances meet that bound; 33 - r would be 1-2 low
    curve = superelliptic_curve(5, 3)
    found = []
    for r in range(6):
        code = build_onepoint_code(curve, r)
        res = min_distance(code)
        assert res.method == "exhaustive"
        found.append((res.d, code.designed_distance))
    assert found == [(33, 33), (33, 33), (33, 33), (30, 30), (30, 30), (30, 30)]


def test_singleton_and_goppa_bounds_hold():
    for curve, r_values in ((superelliptic_curve(3, 3), range(1, 7)),
                            (hermitian_curve(2), range(2, 6))):
        for r in r_values:
            code = build_onepoint_code(curve, r)
            res = min_distance(code, budget=1 << 21)
            if not res.exact:
                continue
            assert res.d <= code.n - code.k + 1
            designed = code.designed_distance
            if designed and designed > 0:
                assert res.d >= designed


# ---------------------------------------------------------------------------
# Hermitian inner product and self-orthogonality


def test_hermitian_inner_examples(tower2):
    a = 2
    assert hermitian_inner(tower2, [a, a, a], [0, 0, 0]) == 0
    # <(a), (a)> = a * a^2 = 1
    assert hermitian_inner(tower2, [a], [a]) == 1
    assert type(hermitian_inner(tower2, np.array([a]), np.array([a]))) is int


def test_hermitian_inner_conjugate_symmetry(tower3):
    F = tower3.ext
    rng = np.random.default_rng(3)
    nf = NaiveField(F.p, F.e, F.modulus)
    for _ in range(25):
        u = rng.integers(0, 9, size=6)
        v = rng.integers(0, 9, size=6)
        uv = hermitian_inner(tower3, u, v)
        vu = hermitian_inner(tower3, v, u)
        assert uv == int(tower3.frob_table[vu])
        assert uv == naive_hermitian_inner(nf, 3, [int(x) for x in u], [int(x) for x in v])


def test_hermitian_inner_length_mismatch(tower2):
    with pytest.raises(ValueError):
        hermitian_inner(tower2, [1, 2], [1, 2, 3])


def test_zero_code_is_self_orthogonal(se33):
    code = build_onepoint_code(se33, -1)
    assert is_hermitian_self_orthogonal(code)
    assert is_euclidean_self_orthogonal(code)


def test_full_code_is_not_self_orthogonal():
    code = benchmarks.saturated_code_4_4()
    assert not is_hermitian_self_orthogonal(code)
    assert not is_euclidean_self_orthogonal(code)
    assert hermitian_violation(code) is not None


def test_se33_verdicts_match_allpairs_oracle(se33):
    nf = NaiveField(3, 2, se33.tower.ext.modulus)
    expected = {0: True, 1: True, 2: False}
    for r, want in expected.items():
        code = build_onepoint_code(se33, r)
        direct = all(
            naive_hermitian_inner(nf, 3, gi, gj) == 0
            for gi in code.generator.tolist()
            for gj in code.generator.tolist()
        )
        assert is_hermitian_self_orthogonal(code) is direct is want


def test_row_scaling_keeps_hermitian_verdict(se33):
    # <lam a, b> = lam <a, b>: scaling a generator row by any nonzero scalar
    # cannot change whether all row products vanish
    F = se33.tower.ext
    nf = NaiveField(3, 2, F.modulus)
    for r in range(3):
        code = build_onepoint_code(se33, r)
        verdict = is_hermitian_self_orthogonal(code)
        for i in range(code.k):
            for lam in range(1, F.order):
                G = code.generator.copy()
                G[i] = F.vmul(lam, G[i])
                direct = all(
                    naive_hermitian_inner(nf, 3, gi, gj) == 0
                    for gi in G.tolist()
                    for gj in G.tolist()
                )
                scaled = LinearCode(field=F, generator=G, tower=code.tower)
                assert is_hermitian_self_orthogonal(scaled) is direct is verdict


def test_hermitian_containment_exhaustive(se33):
    # if self-orthogonal, every codeword (not only rows) is orthogonal to
    # every row; q^k <= 10^4 here so check all codewords
    from oracles import naive_codewords

    code = build_onepoint_code(se33, 1)
    assert is_hermitian_self_orthogonal(code)
    nf = NaiveField(3, 2, code.field.modulus)
    for word in naive_codewords(nf, code.generator.tolist()):
        for row in code.generator.tolist():
            assert naive_hermitian_inner(nf, 3, word, row) == 0


def test_euclidean_verdicts_vs_threshold(se33):
    # the closed-form threshold promises r <= 5 here; computed verdicts
    # disagree from r = 2 on, which the report records without asserting
    verdicts = {r: is_euclidean_self_orthogonal(build_onepoint_code(se33, r)) for r in range(4)}
    assert verdicts == {0: True, 1: True, 2: False, 3: False}


def test_hermitian_requires_tower():
    F = field(3, 1)
    code = LinearCode(field=F, generator=np.array([[1, 2, 0]], dtype=np.int64))
    with pytest.raises(FieldError):
        is_hermitian_self_orthogonal(code)


def test_hermitian_dual_dimension_and_membership(code_8_3):
    hd = hermitian_dual(code_8_3)
    assert hd.k == code_8_3.n - code_8_3.k
    tower = code_8_3.tower
    for row in hd.generator:
        for g in code_8_3.generator:
            assert hermitian_inner(tower, row, g) == 0


# ---------------------------------------------------------------------------
# duality claim records


def test_duality_claim_se33_r2(se33):
    claim = check_duality_claim(se33, 2)
    assert claim.applicable and claim.r_prime == 9
    assert claim.dim_code == 2 and claim.dim_dual == 13 and claim.dim_companion == 9
    assert claim.row_spaces_equal is False
    assert claim.companion_inside_dual is False


def test_duality_claim_inapplicable_for_negative_r_prime(se33):
    claim = check_duality_claim(se33, 100)
    assert not claim.applicable
    assert claim.r_prime is None or claim.r_prime < 0


def test_duality_claim_midpoint_hermitian_q3():
    curve = hermitian_curve(3)
    claim = check_duality_claim(curve, 6)  # r' = 9 + 3 - 6 = 6 = r
    assert claim.applicable and claim.r_prime == 6
    # self-dual iff row spaces equal; dims 4 vs 23 make it impossible
    assert claim.dim_code == 4
    assert claim.row_spaces_equal is False


# the report-exhaustive families: Hermitian q=3 r=0..7, superelliptic
# q=3 m=3 r=0..5, Hermitian q=4 r=5..8
DUALITY_FAMILIES = ([(hermitian_curve, (3,), r) for r in range(8)]
                    + [(superelliptic_curve, (3, 3), r) for r in range(6)]
                    + [(hermitian_curve, (4,), r) for r in range(5, 9)])


@pytest.mark.parametrize("make,args,r", DUALITY_FAMILIES)
def test_duality_verdict_matches_row_space_comparison(make, args, r):
    curve = make(*args)
    claim = check_duality_claim(curve, r)
    if not claim.applicable:
        return
    code_dual = dual(build_onepoint_code(curve, r))
    companion = build_onepoint_code(curve, claim.r_prime)
    F = curve.tower.ext
    nf = TabledField(F.p, F.e, F.modulus)
    equal = naive_row_space_equal(nf, code_dual.generator, companion.generator)
    assert claim.row_spaces_equal == equal


# the report-large tasks: superelliptic q=7 m=3 over GF(49), Hermitian q=5
# over GF(25); with the report-exhaustive ones and the zero code at r = -1
DUALITY_STACK_CASES = (DUALITY_FAMILIES + [(hermitian_curve, (3,), -1)]
                       + [(superelliptic_curve, (7, 3), r) for r in (6, 12, 20, 30, 40)]
                       + [(hermitian_curve, (5,), r) for r in (16, 24, 32)])


# (k, k') at cases that give k < k', k = k', k > k' and k = 0, so the
# Gram block is wide, square, tall and empty; the test below checks each
# where it builds the claim
STACK_DIMENSIONS = {(hermitian_curve, (3,), -1): (0, 11), (hermitian_curve, (3,), 6): (4, 4),
                    (hermitian_curve, (3,), 7): (5, 3), (hermitian_curve, (5,), 32): (23, 1)}


def _long_stack_rank(code_dual, companion):
    return rank(code_dual.field, np.vstack([code_dual.generator, companion.generator]))


def _verdicts(claim):
    return claim.row_spaces_equal, claim.companion_inside_dual, claim.dual_inside_companion


@pytest.mark.parametrize("make,args,r", DUALITY_STACK_CASES)
def test_shorter_duality_stack_ranks_as_the_long_one(make, args, r):
    curve = make(*args)
    claim = check_duality_claim(curve, r)
    if (make, args, r) in STACK_DIMENSIONS:
        assert (claim.dim_code, claim.dim_companion) == STACK_DIMENSIONS[make, args, r]
    code = build_onepoint_code(curve, r)
    companion = build_onepoint_code(curve, claim.r_prime)
    code_dual = dual(code)
    want = _long_stack_rank(code_dual, companion)
    # the two stacks agree, dim(C^perp + V) = dim(C + V^perp) + k' - k, and
    # the rank of the k' x k Gram block gives both
    other = rank(code.field, np.vstack([companion.parity_check, code.generator]))
    assert want == other + companion.k - code.k
    assert agcode._dual_sum_rank(code, companion) == want
    assert _verdicts(claim) == (want == code_dual.k == companion.k, want == code_dual.k,
                                want == companion.k)


def test_duality_stack_cases_cover_every_order_of_dimensions():
    assert set(STACK_DIMENSIONS) <= set(DUALITY_STACK_CASES)
    dims = STACK_DIMENSIONS.values()
    assert {int(np.sign(kc - k)) for k, kc in dims} == {-1, 0, 1}
    assert any(k == 0 for k, _ in dims)


def test_duality_stack_with_a_zero_companion():
    # no curve code is zero at r' >= 0, so the zero code stands in for V
    code = build_onepoint_code(hermitian_curve(3), 5)
    F, n = code.field, code.n
    zero = LinearCode(field=F, generator=np.zeros((0, n), dtype=np.int64))
    for c in (code, zero):
        assert agcode._dual_sum_rank(c, zero) == _long_stack_rank(dual(c), zero) == n - c.k
        # and the zero code at r against a nonzero companion
        assert agcode._dual_sum_rank(zero, c) == _long_stack_rank(dual(zero), c) == n


def _matrix(draw, F, rows, cols):
    entries = draw(st.lists(st.integers(0, F.order - 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


def _space(draw, F, n):
    """Canonical basis of the span of up to n + 1 random rows of length n."""
    return row_basis(F, _matrix(draw, F, draw(st.integers(0, n + 1)), n))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 6),
       st.sampled_from(["equal", "nested", "disjoint", "random"]), st.data())
def test_duality_verdicts_on_drawn_row_spaces(q, n, relation, data):
    # check_duality_claim on a curve whose code builds are replaced: the
    # code at r has dual U and the companion at r' = q^2 + q(q-1)/2 spans V
    curve = hermitian_curve(q)
    F = curve.tower.ext
    if relation == "disjoint":
        # U on the first s coordinates and V on the others meet only in 0
        s = data.draw(st.integers(0, n))
        U = np.pad(_space(data.draw, F, s), ((0, 0), (0, n - s)))
        V = np.pad(_space(data.draw, F, n - s), ((0, 0), (s, 0)))
    else:
        U = _space(data.draw, F, n)
        k = len(U)
        if relation == "equal":
            # a change of basis by a unit upper-triangular, so invertible, matrix
            T = np.triu(_matrix(data.draw, F, k, k), 1) + np.eye(k, dtype=np.int64)
            V = matmul(F, T, U)
        elif relation == "nested":
            V = U[np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k)), dtype=bool)]
        else:
            V = _space(data.draw, F, n)
    codes = {0: LinearCode(field=F, generator=right_nullspace(F, U)),
             q * q + q * (q - 1) // 2: LinearCode(field=F, generator=V)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(agcode, "build_onepoint_code", lambda curve, r, eval_set="all": codes[r])
        claim = check_duality_claim(curve, 0)
    equal = naive_row_space_equal(NaiveField(F.p, F.e, F.modulus), U, V)
    assert claim.applicable and claim.dim_dual == len(U) and claim.dim_companion == rank(F, V)
    assert claim.row_spaces_equal == equal
    if relation == "equal":
        assert equal
    if relation == "disjoint":
        assert equal == (len(U) == len(V) == 0)
    if relation == "nested":
        assert claim.dual_inside_companion == equal and claim.companion_inside_dual


# ---------------------------------------------------------------------------
# reports


def test_code_report_benchmark():
    report = code_report(hermitian_curve(2), 3, include_weights=True)
    assert (report.n, report.k, report.d) == (8, 3, 5)
    assert report.d_designed == 5
    assert report.singleton_ok and report.goppa_bound_ok
    assert report.weight_distribution is not None
    assert sum(report.weight_distribution) == 64
    assert report.length_claimed == 4
    data = report.to_json()
    assert '"n": 8' in data


def test_code_report_r_negative(se33):
    report = code_report(se33, -1)
    assert report.k == 0
    assert report.d_method == "empty"
    # the zero code's dual is the whole space, which holds any companion code
    claim = report.duality_claim
    assert (claim["r_prime"], claim["dim_code"], claim["dim_dual"]) == (12, 0, 15)
    assert claim["companion_inside_dual"]


# ---------------------------------------------------------------------------
# matrix file round trip


def test_save_load_round_trip(tmp_path, code_8_3):
    path = tmp_path / "code.txt"
    save_code(code_8_3, path)
    text = path.read_text().splitlines()
    assert text[0] == "q2=4 n=8 k=3"
    loaded = load_code(path)
    assert (loaded.n, loaded.k) == (8, 3)
    assert np.array_equal(loaded.generator, code_8_3.generator)
    assert loaded.tower is not None  # GF(4) = GF(2^2) gets its tower back


def test_save_load_round_trip_empty_code(tmp_path):
    path = tmp_path / "empty.txt"
    save_code(build_onepoint_code(hermitian_curve(2), -1), path)
    assert path.read_text() == "q2=4 n=8 k=0\n"
    loaded = load_code(path)
    assert (loaded.n, loaded.k) == (8, 0)
    assert loaded.generator.shape == (0, 8)
    assert loaded.parity_check.shape == (8, 8)


def test_load_rejects_rank_deficient(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("q2=4 n=3 k=2\n1 2 3\n2 3 1\n")  # row2 = a * row1
    with pytest.raises(ValueError, match="rank"):
        load_code(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("q=4 n=3 k=1\n1 2 3\n")
    with pytest.raises(ValueError, match="header"):
        load_code(path)


def test_load_rejects_non_integer_entry_naming_file_and_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("q2=4 n=3 k=2\n1 2 3\n\n1 x 2\n")
    with pytest.raises(ValueError) as info:
        load_code(path)
    assert str(info.value) == f"{path}, line 4: expected integer entries, got '1 x 2'"


def test_load_rejects_wrong_shape(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("q2=4 n=3 k=2\n1 2 3\n")
    with pytest.raises(ValueError, match="rows"):
        load_code(path)


def test_identity_matrix_is_full_code(tmp_path):
    path = tmp_path / "id.txt"
    path.write_text("q2=9 n=3 k=3\n1 0 0\n0 1 0\n0 0 1\n")
    code = load_code(path)
    assert (code.n, code.k) == (3, 3)
    assert min_distance(code).d == 1


def test_from_generator_rejects_rank_deficient():
    # the second row is a times the first
    with pytest.raises(ValueError, match=r"rank 1 < 2 rows; not a basis"):
        LinearCode.from_generator(field(2, 2), [[1, 2, 3], [2, 3, 1]])


def test_from_generator_rejects_out_of_range():
    with pytest.raises(ValueError, match="indices"):
        LinearCode.from_generator(field(2, 2), [[0, 5]])
