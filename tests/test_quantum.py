import csv
import json

import numpy as np
import pytest

from agq.agcode import LinearCode, build_onepoint_code, hermitian_dual, min_distance
from agq.gf import field
from agq.quantum import (
    KnownCode,
    TableRow,
    designed_params,
    load_known_codes,
    parameter_table,
    params_from_code,
    table_to_json,
    write_table_csv,
)

# the two benchmark parameter families, frozen
EXPECTED_Q3_M3 = {2: (9, 5, 2), 3: (9, 3, 3), 4: (9, 1, 4)}
EXPECTED_Q5_M3 = {4: (25, 19, 2), 5: (25, 17, 3), 6: (25, 15, 4), 7: (25, 13, 5), 8: (25, 11, 6)}


# ---------------------------------------------------------------------------
# closed-form family


@pytest.mark.parametrize("r,triple", EXPECTED_Q3_M3.items())
def test_designed_params_q3(r, triple):
    p = designed_params(3, 3, r)
    assert p.triple() == triple
    assert p.singleton_ok and p.range_ok and p.valid
    assert p.source == "formula"


@pytest.mark.parametrize("r,triple", EXPECTED_Q5_M3.items())
def test_designed_params_q5(r, triple):
    p = designed_params(5, 3, r)
    assert p.triple() == triple
    assert p.singleton_ok and p.range_ok


def test_affine_structure_in_r():
    # dimension falls by 2 and distance rises by 1 per unit of r
    for q, m in ((3, 3), (5, 3), (7, 3), (5, 5)):
        prev = designed_params(q, m, q - 1)
        for r in range(q, 2 * (q - 1) + 1):
            cur = designed_params(q, m, r)
            assert cur.k == prev.k - 2
            assert cur.d == prev.d + 1
            prev = cur


def test_range_flag():
    assert designed_params(3, 3, 1).range_ok is False
    assert designed_params(3, 3, 5).range_ok is False
    assert designed_params(3, 3, 2).range_ok is True


def test_fractional_intermediate_flagged():
    # q=2, m=2: (q-1)(m-1)/2 = 1/2
    p = designed_params(2, 2, 1)
    assert p.fractional
    assert not p.valid
    assert p.singleton_ok is None


def test_negative_k_marks_invalid_not_error():
    p = designed_params(3, 3, 10)
    assert p.k_nonnegative is False
    assert not p.valid


# ---------------------------------------------------------------------------
# derivation from actual codes


def test_from_code_se33_r1(se33):
    code = build_onepoint_code(se33, 1)  # [15, 1], Hermitian self-orthogonal
    qp = params_from_code(code)
    assert qp.q == 3
    assert qp.triple() == (15, 13, 2)
    assert qp.d_verified  # d = 2 certified by parity-column analysis
    assert qp.source == "derived-from-code"
    assert qp.k == code.n - 2 * code.k


def test_from_code_synthetic_4_1():
    # (1,1,0,0) is Hermitian-isotropic over GF(4): 1*1 + 1*1 = 0
    F = field(2, 2)
    code = LinearCode.from_generator(F, [[1, 1, 0, 0]])
    qp = params_from_code(code)
    assert qp.triple() == (4, 2, 1)
    assert qp.d_verified
    # oracle: the Hermitian dual has 4^3 codewords; brute-force its distance
    assert min_distance(hermitian_dual(code)).d == 1


def test_from_code_zero_code_degenerate(se33):
    code = build_onepoint_code(se33, -1)
    qp = params_from_code(code)
    assert qp.degenerate
    assert qp.triple() == (15, 15, 1)
    assert qp.d_verified


def test_from_code_rejects_non_self_orthogonal(se33):
    code = build_onepoint_code(se33, 2)
    with pytest.raises(ValueError, match="rows"):
        params_from_code(code)


HEXACODE_G = [
    [1, 0, 0, 1, 2, 2],
    [0, 1, 0, 2, 1, 2],
    [0, 0, 1, 2, 2, 1],
]


def test_from_code_unverified_falls_back_to_designed():
    # the [6,3,4] hexacode over GF(4) is Hermitian self-dual, so its
    # Hermitian dual distance (4) is invisible to parity-column analysis;
    # past the budget no designed value stands in for it
    code = LinearCode.from_generator(field(2, 2), HEXACODE_G)
    full = params_from_code(code)
    assert full.triple() == (6, 0, 4) and full.d_verified
    missing = params_from_code(code, budget=0)
    assert missing.d is None and not missing.d_verified and not missing.valid
    assert missing.singleton_ok is None


# ---------------------------------------------------------------------------
# tables


def test_table_matches_expected_triples():
    rows = parameter_table(3, 3, range(2, 5))
    assert [row.params.triple() for row in rows] == list(EXPECTED_Q3_M3.values())
    rows = parameter_table(5, 3, range(4, 9))
    assert [row.params.triple() for row in rows] == list(EXPECTED_Q5_M3.values())


def test_table_empty_range():
    assert parameter_table(3, 3, []) == []


def test_a_table_rows_q_is_its_params_q():
    for q, m in ((3, 3), (5, 3), (4, 5)):
        rows = parameter_table(q, m, range(0, 6))
        assert [row.q for row in rows] == [row.params.q for row in rows] == [q] * 6
    with pytest.raises(TypeError):
        TableRow(q=3, m=3, r=2, params=rows[0].params)


def test_table_sorted_and_deduplicated():
    rows = parameter_table(3, 3, [4, 2, 3, 2])
    assert [row.r for row in rows] == [2, 3, 4]


def test_table_known_code_comparison():
    known = [KnownCode(9, 5, 3, "tables")]
    rows = parameter_table(3, 3, range(2, 5), known=known)
    assert "known [[9,5,3]] (tables)" in rows[0].params.comparison
    assert rows[1].params.comparison == ""


def test_csv_and_json_outputs(tmp_path):
    rows = parameter_table(3, 3, range(2, 5), known=[KnownCode(9, 5, 3, "tables")])
    path = tmp_path / "table.csv"
    write_table_csv(rows, path)
    with open(path) as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["q", "m", "r", "n", "k", "d", "singleton_ok", "source", "comparison"]
    assert parsed[1][:8] == ["3", "3", "2", "9", "5", "2", "1", "formula"]
    data = json.loads(table_to_json(rows))
    assert len(data) == 3
    assert data[0]["valid"] is True


def test_load_known_codes(tmp_path):
    path = tmp_path / "known.csv"
    path.write_text("n,k,d,tag\n9,5,3,grassl\n25,19,3,grassl\n")
    known = load_known_codes(path)
    assert known == [KnownCode(9, 5, 3, "grassl"), KnownCode(25, 19, 3, "grassl")]
