import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agq import benchmarks
from agq.agcode import (
    BudgetExceededError,
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
    load_code,
    min_distance,
    resolve_eval_set,
    save_code,
    weight_distribution,
)
from agq.curve import hermitian_curve, superelliptic_curve
from agq.gf import FieldError, field, quadratic_tower
from agq.linalg import matmul, rank, row_space_equal
from oracles import (
    NaiveField,
    naive_hermitian_inner,
    naive_min_distance,
    naive_weight_distribution,
)

# weight distribution of the [8, 3, 5] benchmark code over GF(4),
# frozen from the naive enumeration oracle (64 codewords)
BENCHMARK_8_3_WEIGHTS = {0: 1, 5: 24, 6: 12, 7: 24, 8: 3}


@pytest.fixture(scope="module")
def code_8_3():
    return benchmarks.benchmark_code_8_3()


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
    from agq.linalg import row_basis

    F = field(2, 2)
    entries = data.draw(st.lists(st.integers(0, 3), min_size=k * n, max_size=k * n))
    G = np.array(entries, dtype=np.int64).reshape(k, n)
    code = LinearCode(field=F, generator=row_basis(F, G).reshape(-1, n))
    dd = dual(dual(code))
    assert dd.k == code.k
    if code.k:
        assert row_space_equal(F, dd.generator, code.generator)


def test_dual_of_full_code_is_zero_code():
    code = benchmarks.saturated_code_4_4()
    d = dual(code)
    assert (d.n, d.k) == (4, 0)


# ---------------------------------------------------------------------------
# distances: budgets and bounds


def test_budget_forces_bounds_only(se33):
    code = build_onepoint_code(se33, 6)  # [15, 6] over GF(9): 9^6 codewords
    res = min_distance(code, budget=1000)
    assert res.d is None and res.method == "bounds-only"
    assert res.lower == 15 - 6  # designed distance
    assert res.upper == 15 - 6 + 1  # Singleton
    assert not res.exact


def test_weight_distribution_budget_error(se33):
    code = build_onepoint_code(se33, 6)
    with pytest.raises(BudgetExceededError):
        weight_distribution(code, budget=1000)


def test_parity_column_analysis_detects_small_distance():
    F = field(2, 2)
    # columns 2 and 3 are parallel => d = 2, regardless of the 4^6 budget
    G = np.array([
        [1, 0, 0, 1, 1, 2, 3, 1],
        [0, 1, 0, 2, 2, 1, 1, 0],
        [0, 0, 1, 3, 3, 3, 2, 2],
        [1, 1, 1, 0, 0, 1, 1, 3],
        [0, 1, 3, 1, 1, 0, 2, 1],
        [2, 0, 1, 1, 1, 1, 0, 0],
    ], dtype=np.int64)
    from agq.linalg import row_basis

    code = LinearCode(field=F, generator=row_basis(F, G))
    if code.k == 6:  # rank permitting, exercise the over-budget path
        res = min_distance(code, budget=100)
        assert res.method in ("parity-columns", "bounds-only")
        exact = min_distance(code, budget=1 << 20)
        if res.method == "parity-columns":
            assert res.d == exact.d


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
    F = tower2.ext
    a = F.felt(2)
    zero = [F.felt(0)] * 3
    assert hermitian_inner(tower2, [a, a, a], zero).index == 0
    # <(a), (a)> = a * a^2 = 1
    assert hermitian_inner(tower2, [a], [a]).index == 1


def test_hermitian_inner_conjugate_symmetry(tower3):
    F = tower3.ext
    rng = np.random.default_rng(3)
    nf = NaiveField(F.p, F.e, F.modulus)
    for _ in range(25):
        u = rng.integers(0, 9, size=6)
        v = rng.integers(0, 9, size=6)
        uv = hermitian_inner(tower3, u, v).index
        vu = hermitian_inner(tower3, v, u).index
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
                G[i] = F.vscale(lam, G[i])
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
            assert hermitian_inner(tower, row, g).index == 0


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
    report = code_report(se33, -1, check_duality=False)
    assert report.k == 0
    assert report.d_method == "empty"


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


def test_from_generator_rejects_out_of_range():
    with pytest.raises(ValueError, match="indices"):
        LinearCode.from_generator(field(2, 2), [[0, 5]])
