import csv
import dataclasses
import hashlib
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


def test_code_report_first_n_needs_an_integer(capsys):
    code, out, err = run_cli(capsys, "code-report", "--family", "hermitian", "--q", "2",
                             "--r", "3", "--eval-set", "first:abc")
    assert code == 1 and out == ""
    assert err.strip() == "error: first:N needs an integer N, got 'abc'"


def test_code_report_huge_q_fails_at_once(capsys):
    # rejected on the size of GF(q^2) before q is factored
    code, _, err = run_cli(capsys, "code-report", "--family", "hermitian",
                           "--q", "100000007", "--r", "1")
    assert code == 1
    assert err.startswith("error:") and "GF(100000007^2)" in err


@pytest.mark.parametrize("command", [["code-report"], ["simulate", "--rates", "0", "--trials", "10"]])
def test_hermitian_family_rejects_an_m_other_than_q_plus_1(capsys, command):
    # the Hermitian curve y^q + y = x^(q+1) has m = q + 1; any other --m was ignored
    code, out, err = run_cli(capsys, *command, "--family", "hermitian", "--q", "3", "--m", "5", "--r", "4")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--m 5" in err and "q+1 = 4" in err
    code, out, _ = run_cli(capsys, *command, "--family", "hermitian", "--q", "3", "--m", "4", "--r", "4")
    assert code == 0 and "hermitian-q3-m4-r4" in out


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


def test_quantum_table_empty_range_still_reads_known(capsys, tmp_path):
    code, out, err = run_cli(capsys, "quantum-table", "--q", "3", "--m", "3",
                             "--r-min", "5", "--r-max", "4",
                             "--known", str(tmp_path / "missing.csv"))
    assert code == 1
    assert err.startswith("error:") and "missing.csv" in err
    assert out == ""


@pytest.mark.parametrize("q, m, named", [("10", "3", "q=10"), ("9", "1", "m=1"), ("4", "0", "m=0"),
                                         ("4294967311", "3", "q=4294967311")])
def test_quantum_table_rejects_parameters_of_no_curve(capsys, tmp_path, q, m, named):
    # there is no GF(10), and the curves need m >= 2: no record, no file, exit 1
    json_path = tmp_path / "t.json"
    code, out, err = run_cli(capsys, "quantum-table", "--q", q, "--m", m,
                             "--r-min", "9", "--r-max", "9", "--json", str(json_path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and named in err
    assert not json_path.exists()


@pytest.mark.parametrize("q, m, named", [("10", "3", "q=10"), ("9", "1", "m=1")])
def test_quantum_table_rejects_parameters_of_no_curve_on_an_empty_range(capsys, tmp_path, q, m, named):
    # (q, m) is checked before the range is walked: no header-only file
    out_path = tmp_path / "e.csv"
    code, out, err = run_cli(capsys, "quantum-table", "--q", q, "--m", m,
                             "--r-min", "5", "--r-max", "4", "--out", str(out_path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and named in err
    assert not out_path.exists()


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


def test_simulate_matrix_rejects_non_integer_entry(capsys, tmp_path):
    matrix = tmp_path / "code.txt"
    matrix.write_text("q2=4 n=3 k=1\n1 x 2\n")
    code, out, err = run_cli(capsys, "simulate", "--matrix", str(matrix),
                             "--rates", "0.1", "--trials", "10")
    assert code == 1
    assert err.strip() == f"error: {matrix}, line 2: expected integer entries, got '1 x 2'"
    assert "success=" not in out


def test_reproduce_rejects_non_integer_seed_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("AGQ_SEED", "abc")
    out_dir = tmp_path / "bundle"
    code, out, err = run_cli(capsys, "reproduce", "--skip-sim", "--out-dir", str(out_dir))
    assert code == 1
    assert err.strip() == "error: AGQ_SEED needs an integer, got 'abc'"
    assert out == "" and not out_dir.exists()


def test_simulate_preset_sweep(capsys, tmp_path):
    # the three codes share each trial's stream, over two chunks and, for
    # the [35,7]_25 code's 14-block streams, several Philox row blocks;
    # rate 0 draws nothing and rate 1 puts an error on every symbol.  The
    # CSV holds each code's rows simulated alone.
    out_path = tmp_path / "sweep.csv"
    series = tmp_path / "sweep_series.csv"
    rates, trials, seed = (0.0, 0.05, 0.2, 1.0), 3000, 9
    code, out, _ = run_cli(capsys, "simulate", "--preset", "sweep",
                           "--rates", ",".join(map(str, rates)), "--trials", str(trials),
                           "--seed", str(seed), "--out", str(out_path), "--series-out", str(series))
    assert code == 0
    assert "substituted" in out
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[1::len(rates)]] == [
        "herm-q2-r2", "super-q3-m3-r2", "super-q5-m2-r7"]
    alone = [[c.name, repr(row.rate), str(row.trials), repr(row.success_rate),
              repr(row.uncorrectable_rate), repr(row.avg_errors)]
             for c in benchmarks.sweep_codes()
             for row in simulator.run_simulation(c, rates, trials, seed)]
    assert [[row[0], *row[4:9]] for row in rows[1:]] == alone
    with open(series) as fh:
        assert list(csv.reader(fh))[1:] == [row[:2] + row[3:] for row in alone]


def test_simulate_writes_a_manifest_with_either_csv(capsys, tmp_path):
    common = ["simulate", "--family", "hermitian", "--q", "2", "--r", "3",
              "--rates", "0,0.1", "--trials", "100", "--seed", "4"]
    series = tmp_path / "s.csv"
    code, _, _ = run_cli(capsys, *common, "--series-out", str(series),
                         "--manifest", str(tmp_path / "m.json"))
    assert code == 0
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["outputs"] == [str(series)]
    assert manifest["master_seed"] == 4 and len(manifest["codes"]) == 1
    assert set(manifest["parameters"]) == {"preset", "matrix", "family", "q", "m", "r",
                                           "rates", "trials", "budget"}
    # without --manifest it sits beside the series CSV, or the results CSV when both are written
    code, _, _ = run_cli(capsys, *common, "--series-out", str(series))
    assert code == 0 and (tmp_path / "s.csv.manifest.json").exists()
    code, _, _ = run_cli(capsys, *common, "--series-out", str(series),
                         "--out", str(tmp_path / "r.csv"))
    assert code == 0
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert manifest["outputs"] == [str(tmp_path / "r.csv"), str(series)]


def test_simulate_refuses_a_manifest_without_a_csv(capsys, tmp_path):
    # the manifest records the CSVs of a run, so a run that writes none is
    # refused before it simulates, and writes nothing
    code, out, err = run_cli(capsys, "simulate", "--family", "hermitian", "--q", "2", "--r", "3",
                             "--rates", "0,0.1", "--trials", "100",
                             "--manifest", str(tmp_path / "none.json"))
    assert code == 1
    assert err.strip() == "error: --manifest needs --out or --series-out: it records the CSVs a run writes"
    assert "success=" not in out and list(tmp_path.iterdir()) == []


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


def test_simulate_rejects_empty_rate_list(capsys):
    for rates in ("", ",", " , "):
        code, out, err = run_cli(capsys, "simulate", "--family", "hermitian", "--q", "2",
                                 "--r", "3", "--rates", rates, "--trials", "100")
        assert code == 1
        assert err.strip() == f"error: --rates needs at least one rate, got {rates!r}"
        assert "success=" not in out


@pytest.mark.parametrize("argv,message", [
    (["--rates", "0.1,1.5", "--trials", "100"], "error rates must lie in [0, 1]"),
    (["--rates", "0.1", "--trials", "0"], "trials must be >= 1"),
    (["--rates", "0.1,abc"], "--rates needs comma-separated numbers, got '0.1,abc'"),
])
def test_simulate_rejects_bad_inputs_and_writes_nothing(capsys, tmp_path, argv, message):
    out_path = tmp_path / "res.csv"
    code, out, err = run_cli(capsys, "simulate", "--family", "hermitian", "--q", "2",
                             "--r", "3", "--out", str(out_path), *argv)
    assert code == 1
    assert err.strip() == f"error: {message}"
    assert "success=" not in out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["code-report", "--family", "hermitian", "--q", "2", "--r", "3", "--weights"],
    ["simulate", "--family", "hermitian", "--q", "2", "--r", "3", "--rates", "0.1", "--trials", "10"],
])
def test_negative_budget_is_refused(capsys, tmp_path, argv):
    # a negative budget fits no code, so a report would silently drop its
    # weights and its exact distance
    out_path = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, "--budget", "-1", "--out", str(out_path))
    assert code == 1
    assert err.strip() == "error: --budget needs a codeword count >= 0, got -1"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["--rates", "0.1,1.5", "--trials", "10"], "error rates must lie in [0, 1]"),
    (["--rates", "0.1", "--trials", "0"], "trials must be >= 1"),
    (["--rates", "0.1,nan"], "error rates must lie in [0, 1]"),
    (["--rates", ""], "--rates needs at least one rate, got ''"),
    (["--rates", ","], "--rates needs at least one rate, got ','"),
])
def test_simulate_checks_inputs_before_the_distance(capsys, monkeypatch, argv, message):
    # [64, 5] over GF(16): a distance would enumerate 2^20 codewords first
    def no_distance(*args, **kwargs):
        raise AssertionError("min_distance ran before the inputs were checked")

    monkeypatch.setattr(cli, "min_distance", no_distance)
    code, _, err = run_cli(capsys, "simulate", "--family", "hermitian", "--q", "4",
                           "--r", "9", *argv)
    assert code == 1
    assert err.strip() == f"error: {message}"


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


@pytest.mark.parametrize("argv", [["--trials", "0"], ["--trials", "-5", "--skip-sim"]])
def test_reproduce_rejects_too_few_trials_before_any_output(capsys, tmp_path, argv):
    # the manifest records the trials with or without the simulation, so
    # no check runs and nothing is written until they are known to be valid
    code, out, err = run_cli(capsys, "reproduce", "--out-dir", str(tmp_path), *argv)
    assert code == 1
    assert err.strip() == "error: trials must be >= 1"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


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


# SHA-256 of every output of `agq reproduce --trials 2000 --seed 7` but the
# manifest, which holds a timestamp and paths: pinned, so any change to
# these bytes is a golden shift
REPRODUCE_SHA256 = {
    "report_8_3.json": "ec0d5d9c62d4b385ec878bbd259a07c016ffa030d1ea9c5467f2f45df1f759c4",
    "quantum_q3_m3.csv": "a01409952f3fc7c1f100c4596c85ff3cee8b78d5484427443569c36b2996c1ad",
    "quantum_q5_m3.csv": "63fcd1a2ede102bd9e10658d4d9762a51af1ef1937e9646407b58bf1011a9484",
    "dimension_report_q3_m3.json": "fc409f8338fc38ab09ba6dfe4091bd59372f3290947a578fad6e824cf06439b8",
    "results.csv": "81d1fb85c7a7210e8bac54b6e670bea686a03ba8774de031421b10026e8c57a1",
    "series.csv": "cfc4490af66c2c178805cdcd4f6055b137c75c0a58fd80d0e884903690461bc4",
}
HERMITIAN_ORTHOGONALITY_LINE = ("[PASS] hermitian-orthogonality-consistency: verdicts for r<=q-1: "
                                "{0: True, 1: True, 2: False} (threshold claim: all true)")


def test_reproduce_csvs_match_their_pinned_digests(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "reproduce", "--out-dir", str(tmp_path),
                           "--trials", "2000", "--seed", "7")
    assert code == 0, out
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in REPRODUCE_SHA256}
    assert digests == REPRODUCE_SHA256
    assert HERMITIAN_ORTHOGONALITY_LINE in out.splitlines()
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted([*REPRODUCE_SHA256, "manifest.json"])


def reproduce_determinism_fails(capsys, tmp_path, trials):
    code, out, _ = run_cli(capsys, "reproduce", "--out-dir", str(tmp_path),
                           "--trials", trials, "--seed", "5")
    return code == 1 and "[FAIL] simulation-determinism" in out


@pytest.mark.parametrize("trials", ["400", "2001"])  # sweep rows reused; a 2000-trial sweep
def test_reproduce_determinism_check_fails_on_chunk_dependence(capsys, tmp_path, monkeypatch,
                                                                trials):
    # every rate of every run goes through the per-rate loop, whose first
    # argument is the codes that share the chunk's streams and whose result
    # holds one row per code: a result that depends on how many codes are
    # simulated together tells the sweep from the rerun of its first code
    real = simulator._transmit

    def sharing_dependent(codes, *args):
        return tuple(dataclasses.replace(row, total_errors=row.total_errors + len(codes))
                     for row in real(codes, *args))

    monkeypatch.setattr(simulator, "_transmit", sharing_dependent)
    assert reproduce_determinism_fails(capsys, tmp_path, trials)


def test_reproduce_determinism_check_fails_on_row_block_dependence(capsys, tmp_path, monkeypatch):
    # each Philox row block reads the streams of the trials one block
    # length on: the sweep's row blocks of 1820 and 180 trials then read
    # other streams than the rerun's one block of 2000
    real = simulator._philox_words

    def block_dependent(key0, key1, blocks, first=0):
        return real(key0, key1 + np.uint64(key1.shape[0]), blocks, first)

    monkeypatch.setattr(simulator, "_philox_words", block_dependent)
    assert reproduce_determinism_fails(capsys, tmp_path, "2001")


def test_reproduce_determinism_check_spans_different_row_blocks(capsys, tmp_path, monkeypatch):
    # at 2000 trials the sweep's 9 uniform blocks, for the [35,7]_25
    # code, make row blocks of 16384 // 9 = 1820 trials, and the [8,2]_4
    # code's 2 blocks alone one block of 2000; rate 0 draws nothing.  Tail
    # blocks, drawn for heavy rows only, start past the uniform blocks
    rows = []
    real = simulator._philox_words

    def spy(key0, key1, blocks, first=0):
        if not first:
            rows.append(key1.shape[0])
        return real(key0, key1, blocks, first)

    monkeypatch.setattr(simulator, "_philox_words", spy)
    code, out, _ = run_cli(capsys, "reproduce", "--out-dir", str(tmp_path),
                           "--trials", "2000", "--seed", "5")
    assert code == 0, out
    assert rows == [1820, 180] * 3 + [2000]


def test_reproduce_simulates_each_sweep_code_once_plus_one_rerun(capsys, tmp_path, monkeypatch):
    # one sweep of the three codes on shared streams, and the determinism
    # rerun of the first code alone
    calls = []

    def counted(name, real):
        def call(codes, *args, **kwargs):
            names = [c.name for c in codes] if name == "run_sweep" else [codes.name]
            calls.append((name, names))
            return real(codes, *args, **kwargs)
        return call

    for name in ("run_sweep", "run_simulation"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    code, out, _ = run_cli(capsys, "reproduce", "--out-dir", str(tmp_path),
                           "--trials", "2000", "--seed", "5")
    assert code == 0, out
    names = [c.name for c in benchmarks.sweep_codes()]
    assert calls == [("run_sweep", names), ("run_simulation", names[:1])]
