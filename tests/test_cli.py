import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from agq import benchmarks, cli, simulator
from agq.agcode import save_code
from agq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# field-info


def test_field_info_gf4(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--p", "2", "--e", "2")
    assert code == 0
    data = json.loads(out)
    assert data["modulus"] == [1, 1, 1]
    assert data["order"] == 4


def test_field_info_gf3(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--p", "3", "--e", "1")
    assert code == 0
    data = json.loads(out)
    assert data["e"] == 1 and len(data["modulus"]) == 2


def test_field_info_invalid_prime(capsys):
    code, _, err = run_cli(capsys, "field-info", "--p", "4", "--e", "2")
    assert code == 1
    assert "prime" in err


# ---------------------------------------------------------------------------
# code-report


def test_code_report_hermitian(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "code-report", "--family", "hermitian", "--q", "2",
                           "--r", "3", "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert (data["n"], data["k"], data["d"]) == (8, 3, 5)
    assert data["d_designed"] == 5


def test_code_report_superelliptic(capsys):
    code, out, _ = run_cli(capsys, "code-report", "--family", "superelliptic",
                           "--q", "3", "--m", "3", "--r", "2")
    assert code == 0
    data = json.loads(out)
    assert (data["n"], data["k"]) == (15, 2)
    assert data["hermitian_self_orthogonal"] is False
    assert data["hermitian_threshold_r"] is True


def test_code_report_negative_r(capsys):
    code, out, _ = run_cli(capsys, "code-report", "--family", "superelliptic",
                           "--q", "3", "--m", "3", "--r", "-1")
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 0 and data["d_method"] == "empty"


# the benchmark's report-large tasks: codes past the enumeration budget over
# GF(49) (n = 91) and GF(25) (n = 125), whose reports rest on eliminations
LARGE_REPORTS = ([("superelliptic", 7, r, 3) for r in (6, 12, 20, 30, 40)]
                 + [("hermitian", 5, r, None) for r in (16, 24, 32)])
EXPECTED_REPORTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text())["reports"]


@pytest.mark.parametrize("family, q, r, m", LARGE_REPORTS,
                         ids=[f"{f}-q{q}-r{r}" for f, q, r, _ in LARGE_REPORTS])
def test_code_report_matches_recorded_large_reports(capsys, family, q, r, m):
    argv = ["code-report", "--family", family, "--q", str(q), "--r", str(r)]
    if m is not None:
        argv += ["--m", str(m)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    got = json.loads(out)
    want = EXPECTED_REPORTS[f"{family}-q{q}" + (f"-m{m}" if m is not None else "") + f"-r{r}"]
    for key in ("n", "k", "euclidean_self_orthogonal", "hermitian_self_orthogonal",
                "duality_claim"):
        assert got[key] == want[key], key
    # the recorded interval is bounds-only: a tighter one may replace it
    assert want["d_method"] == "bounds-only"
    assert want["d_lower"] <= got["d_lower"] <= got["d_upper"] <= want["d_upper"]


def test_code_report_invalid_family_params(capsys):
    code, _, err = run_cli(capsys, "code-report", "--family", "superelliptic",
                           "--q", "4", "--m", "3", "--r", "1")
    assert code == 1 and "odd q" in err


def test_code_report_huge_q_fails_at_once(capsys):
    # rejected on the size of GF(q^2) before q is factored
    code, _, err = run_cli(capsys, "code-report", "--family", "hermitian",
                           "--q", "100000007", "--r", "1")
    assert code == 1
    assert err.startswith("error:") and "GF(100000007^2)" in err


# ---------------------------------------------------------------------------
# quantum-table


def test_quantum_table_q3(capsys, tmp_path):
    out_path = tmp_path / "t.csv"
    json_path = tmp_path / "t.json"
    code, out, _ = run_cli(capsys, "quantum-table", "--q", "3", "--m", "3",
                           "--r-min", "2", "--r-max", "4",
                           "--out", str(out_path), "--json", str(json_path))
    assert code == 0
    assert out.count("[[9,") == 3
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    assert rows[1][3:6] == ["9", "5", "2"]
    assert len(json.loads(json_path.read_text())) == 3


def test_quantum_table_empty_range(capsys, tmp_path):
    out_path = tmp_path / "t.csv"
    code, out, _ = run_cli(capsys, "quantum-table", "--q", "3", "--m", "3",
                           "--r-min", "5", "--r-max", "4", "--out", str(out_path))
    assert code == 0
    assert out.strip() == ""
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1  # header only


def test_quantum_table_known_comparison(capsys, tmp_path):
    known = tmp_path / "known.csv"
    known.write_text("9,5,3,tables\n")
    code, out, _ = run_cli(capsys, "quantum-table", "--q", "3", "--m", "3",
                           "--r-min", "2", "--r-max", "2", "--known", str(known))
    assert code == 0
    assert "known [[9,5,3]]" in out


@pytest.mark.parametrize("row", ["9,3", "9,x,3"])
def test_quantum_table_known_row_malformed(capsys, tmp_path, row):
    known = tmp_path / "known.csv"
    known.write_text(f"n,k,d,tag\n{row}\n")
    code, _, err = run_cli(capsys, "quantum-table", "--q", "3", "--m", "3",
                           "--r-min", "2", "--r-max", "3", "--known", str(known))
    assert code == 1
    assert err.startswith("error:") and "line 2" in err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_rate_zero_single_row(capsys, tmp_path):
    out_path = tmp_path / "res.csv"
    code, out, _ = run_cli(capsys, "simulate", "--family", "hermitian", "--q", "2",
                           "--r", "3", "--rates", "0", "--trials", "200",
                           "--seed", "9", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[4] == "0.0" and row[6] == "1.0"
    assert (tmp_path / "res.csv.manifest.json").exists()


def test_simulate_matrix_file_equivalent(capsys, tmp_path):
    matrix = tmp_path / "code.txt"
    save_code(benchmarks.benchmark_code_8_3(), matrix)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["--rates", "0,0.1", "--trials", "500", "--seed", "77"]
    code_a, _, _ = run_cli(capsys, "simulate", "--matrix", str(matrix),
                           "--out", str(out_a), *args)
    code_b, _, _ = run_cli(capsys, "simulate", "--family", "hermitian", "--q", "2",
                           "--r", "3", "--out", str(out_b), *args)
    assert code_a == code_b == 0
    # same generator, same seed: identical metric columns
    rows_a = [line.split(",")[4:-1] for line in out_a.read_text().splitlines()[1:]]
    rows_b = [line.split(",")[4:-1] for line in out_b.read_text().splitlines()[1:]]
    assert rows_a == rows_b


def test_simulate_matrix_rejects_dependent_rows(capsys, tmp_path):
    matrix = tmp_path / "code.txt"
    matrix.write_text("q2=4 n=3 k=2\n1 2 3\n2 3 1\n")  # row 2 = a * row 1
    code, out, err = run_cli(capsys, "simulate", "--matrix", str(matrix),
                             "--rates", "0.1", "--trials", "10")
    assert code == 1
    assert err.startswith("error: ") and err.strip().endswith("not a basis")
    assert "success=" not in out


def test_simulate_seed_env_fallback(capsys, tmp_path, monkeypatch):
    out1 = tmp_path / "e1.csv"
    out2 = tmp_path / "e2.csv"
    monkeypatch.setenv("AGQ_SEED", "4242")
    run_cli(capsys, "simulate", "--family", "hermitian", "--q", "2", "--r", "3",
            "--rates", "0.1", "--trials", "300", "--out", str(out1))
    monkeypatch.delenv("AGQ_SEED")
    run_cli(capsys, "simulate", "--family", "hermitian", "--q", "2", "--r", "3",
            "--rates", "0.1", "--trials", "300", "--seed", "4242", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_preset_sweep(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    series = tmp_path / "sweep_series.csv"
    code, out, _ = run_cli(capsys, "simulate", "--preset", "sweep",
                           "--rates", "0,0.1", "--trials", "300", "--seed", "3",
                           "--out", str(out_path), "--series-out", str(series))
    assert code == 0
    assert "substituted" in out
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    names = {row[0] for row in rows[1:]}
    assert names == {"herm-q2-r2", "super-q3-m3-r2", "super-q5-m2-r7"}
    assert len(rows) == 1 + 3 * 2


def test_simulate_manifest_records_distance_and_counts(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "simulate", "--preset", "sweep",
                         "--rates", "0,0.2", "--trials", "300", "--seed", "3",
                         "--out", str(out_path))
    assert code == 0
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert_code_records(manifest["codes"], out_path)
    bounded = {rec["code"]: rec for rec in manifest["codes"]}["super-q5-m2-r7"]
    # the CSV prints d = 28 for this code; the manifest says it is a lower bound
    assert (bounded["d_method"], bounded["d_lower"], bounded["d_upper"]) == ("bounds-only", 28, 29)


def test_simulate_preset_sweep_honours_budget(capsys, tmp_path):
    # herm-q2-r2 is the [8, 2]_4 code of --family hermitian --q 2 --r 2; both
    # commands compute its distance within the same 10-codeword budget
    common = ["--rates", "0,0.2", "--trials", "200", "--seed", "3", "--budget", "10"]
    records = {}
    for tag, source in (("preset", ["--preset", "sweep"]),
                        ("family", ["--family", "hermitian", "--q", "2", "--r", "2"])):
        out_path = tmp_path / f"{tag}.csv"
        code, _, _ = run_cli(capsys, "simulate", *source, *common, "--out", str(out_path))
        assert code == 0
        manifest = json.loads((tmp_path / f"{tag}.csv.manifest.json").read_text())
        assert manifest["parameters"]["budget"] == 10
        records[tag] = manifest["codes"][0]
    for rec in records.values():
        del rec["code"]
    assert records["preset"] == records["family"]
    assert records["preset"]["d_method"] == "bounds-only"


def assert_code_records(records, results_csv):
    """Schema of the manifest's per-code records, and agreement with the CSV."""
    with open(results_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert [rec["code"] for rec in records] == list(dict.fromkeys(r["code"] for r in rows))
    for rec in records:
        assert set(rec) == {"code", "n", "k", "d_method", "d_lower", "d_upper", "rates"}
        csv_rows = [r for r in rows if r["code"] == rec["code"]]
        assert len(rec["rates"]) == len(csv_rows)
        assert int(csv_rows[0]["d"]) == rec["d_lower"] <= rec["d_upper"]
        assert (rec["d_method"] == "bounds-only") == (rec["d_lower"] != rec["d_upper"])
        for entry, row in zip(rec["rates"], csv_rows):
            assert set(entry) == {"rate", "trials", "successes", "uncorrectable", "miscorrected"}
            assert entry["rate"] == float(row["rate"])
            assert entry["trials"] == int(row["trials"])
            assert entry["successes"] + entry["uncorrectable"] == entry["trials"]
            assert 0 <= entry["miscorrected"] <= entry["successes"]
            assert entry["successes"] / entry["trials"] == float(row["success_rate"])


@pytest.mark.parametrize("chunk", ["0", "-5"])
def test_simulate_rejects_bad_chunk_size(capsys, chunk):
    code, out, err = run_cli(capsys, "simulate", "--family", "hermitian", "--q", "2",
                             "--r", "3", "--rates", "0.1", "--trials", "100",
                             "--chunk-size", chunk)
    assert code == 1
    assert err.strip() == "error: chunk_size must be >= 1"
    assert "success=" not in out


def test_simulate_rejects_empty_rate_list(capsys):
    code, out, err = run_cli(capsys, "simulate", "--family", "hermitian", "--q", "2",
                             "--r", "3", "--rates", "", "--trials", "100")
    assert code == 1
    assert err.strip() == "error: error_rates must name at least one rate"
    assert "success=" not in out


@pytest.mark.parametrize("argv,message", [
    (["--rates", "0.1,1.5", "--trials", "100"], "error rates must lie in [0, 1]"),
    (["--rates", "0.1", "--trials", "0"], "trials must be >= 1"),
])
def test_simulate_rejects_bad_inputs_and_writes_nothing(capsys, tmp_path, argv, message):
    out_path = tmp_path / "res.csv"
    code, out, err = run_cli(capsys, "simulate", "--family", "hermitian", "--q", "2",
                             "--r", "3", "--out", str(out_path), *argv)
    assert code == 1
    assert err.strip() == f"error: {message}"
    assert "success=" not in out
    assert list(tmp_path.iterdir()) == []


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_simulate_requires_r(capsys):
    code, _, err = run_cli(capsys, "simulate", "--family", "hermitian", "--q", "2",
                           "--rates", "0")
    assert code == 1 and "--r" in err


def test_simulate_requires_code_source(capsys):
    code, _, err = run_cli(capsys, "simulate", "--rates", "0")
    assert code == 1 and "--q" in err


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_skip_sim(capsys, tmp_path):
    out_dir = tmp_path / "bundle"
    code, out, _ = run_cli(capsys, "reproduce", "--skip-sim", "--out-dir", str(out_dir))
    assert code == 0
    assert out.count("[PASS]") >= 8
    assert "[FAIL]" not in out
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "quantum_q3_m3.csv").exists()
    assert not (out_dir / "results.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "reproduce"
    assert str(out_dir / "report_8_3.json") in manifest["outputs"]
    assert "codes" not in manifest


def test_reproduce_with_sim_byte_identical_csvs(capsys, tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for d in (dir_a, dir_b):
        code, out, _ = run_cli(capsys, "reproduce", "--out-dir", str(d),
                               "--trials", "400", "--seed", "100")
        assert code == 0, out
    assert (dir_a / "results.csv").read_bytes() == (dir_b / "results.csv").read_bytes()
    assert (dir_a / "series.csv").read_bytes() == (dir_b / "series.csv").read_bytes()
    manifest = json.loads((dir_a / "manifest.json").read_text())
    assert_code_records(manifest["codes"], dir_a / "results.csv")


@pytest.mark.parametrize("trials", ["400", "2001"])  # sweep rows reused; two runs
def test_reproduce_determinism_check_fails_on_chunk_dependence(capsys, tmp_path, monkeypatch,
                                                                trials):
    real = simulator.simulate_transmission

    def chunk_dependent(*args, chunk_size=2048, **kwargs):
        result = real(*args, chunk_size=chunk_size, **kwargs)
        return dataclasses.replace(result, total_errors=result.total_errors + chunk_size)

    monkeypatch.setattr(simulator, "simulate_transmission", chunk_dependent)
    code, out, _ = run_cli(capsys, "reproduce", "--out-dir", str(tmp_path),
                           "--trials", trials, "--seed", "5")
    assert code == 1
    assert "[FAIL] simulation-determinism" in out


def test_reproduce_simulates_each_sweep_code_once_plus_one_rerun(capsys, tmp_path, monkeypatch):
    calls = []
    real = cli.run_simulation

    def counted(*args, **kwargs):
        calls.append(kwargs.get("chunk_size", 2048))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_simulation", counted)
    code, out, _ = run_cli(capsys, "reproduce", "--out-dir", str(tmp_path),
                           "--trials", "2000", "--seed", "5")
    assert code == 0, out
    assert sorted(calls) == [199, 2048, 2048, 2048]
