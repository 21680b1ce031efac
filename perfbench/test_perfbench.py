"""Tests of the benchmark itself: tracer coverage and restore, computed
counters, byte-identical traced output, and the correctness gate.

Run from the root of the repository:  python -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import agq.agcode  # noqa: E402
import agq.cli  # noqa: E402
import agq.linalg  # noqa: E402
import agq.rrspace  # noqa: E402
import agq.simulator  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = ["code-report", "--family", "hermitian", "--q", "2", "--r", "3", "--weights"]


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = agq.cli.main(argv)
    return rc, buf.getvalue()


def _namespace_snapshot() -> dict:
    """Identity of every attribute of every agq module and class."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "agq" or name.startswith("agq."):
            for attr, value in vars(module).items():
                snap[(name, attr)] = id(value)
                if isinstance(value, type):
                    for member, raw in vars(value).items():
                        snap[(name, attr, member)] = id(raw)
    return snap


def test_traced_tiny_task_counts_and_identical_output(tmp_path):
    before = _namespace_snapshot()
    rc, plain_out = _cli(TINY + ["--out", str(tmp_path / "plain.json")])
    assert rc == 0

    matmul, rank = agq.linalg.matmul, agq.linalg.rank
    t = tracer.Tracer()
    with t:
        # names imported by name are rebound too, not only the defining module's
        for module in (agq.linalg, agq.agcode, agq.simulator, agq.cli):
            assert module.matmul is not matmul and module.matmul.__wrapped__ is matmul
        assert agq.rrspace.matrix_rank.__wrapped__ is rank
        rc, traced_out = _cli(TINY + ["--out", str(tmp_path / "traced.json")])
    assert rc == 0
    assert _namespace_snapshot() == before

    assert traced_out == plain_out
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    stats = t.take()
    calls = stats["calls"]
    # code_report builds the code, then check_duality_claim builds it and its companion
    assert calls["agcode.build"] == 3
    assert calls["agcode.min_distance"] == 1
    assert calls["agcode.weight_distribution"] == 1
    assert calls["agcode.duality_claim"] == 1
    assert calls["agcode.dual"] == 1
    assert calls["agcode.self_orth"] == 2  # Hermitian and Euclidean
    assert calls["cli.main"] == 1
    assert calls["curve.enumerate_points"] == 3
    # 2 enumerations (distance, weights), the Hermitian Gram (nonzero, so no
    # rescaled re-checks) and the Euclidean Gram, all through agcode's alias
    assert calls["linalg.matmul"] == 4
    counters = stats["counters"]
    # [8,3] over GF(4): 64 words for the weights, 63 nonzero words for the distance
    assert counters["agcode.codewords"] == 64 + 63
    # enumeration (64 or 63 x 3 x 8, one block each) and two 3x8x3 Gram products
    assert counters["linalg.matmul.macs"] == 64 * 3 * 8 + 63 * 3 * 8 + 2 * 3 * 8 * 3
    assert counters["linalg.matmul.gather_bytes_max"] == 64 * 3 * 8 * 2 * 8

    metrics = tracer.derive(stats)
    assert metrics["agcode.min_distance.exact_ratio"] == 1.0
    assert metrics["simulator.transmission.calls"] == 0
    assert metrics["agcode.self_s"] > 0 and metrics["cli.self_s"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in tracer.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert set(tracer.derive(tracer.empty_stats())) | {"trace.overhead_ratio"} == {
        name for name, _, _ in tracer.PER_LAYER}


def _report_task(task_id: str) -> dict:
    return next(t for t in workloads.tasks("report-exhaustive", 0) if t["id"] == task_id)


def test_wrong_report_is_counted_as_failure(tmp_path):
    task = _report_task("hermitian-q3-r2")
    out = tmp_path / "report.json"
    rc, stdout = _cli(task["argv"] + ["--out", str(out)])
    files = {"report.json": out.read_bytes()}
    assert checks.check_task(task, rc, stdout, files) == []

    wrong = json.loads(stdout)
    wrong["d"] -= 1
    text = json.dumps(wrong)
    errors = checks.check_task(task, rc, text, {"report.json": text.encode()})
    assert errors

    good = {"id": task["id"], "s": 1.0, "ref_s": 0.5, "errors": []}
    bad = {"id": task["id"], "s": 0.001, "ref_s": 0.5, "errors": errors}
    other = {"id": "other", "s": 0.5, "ref_s": 0.5, "errors": []}
    passes = [{"traced": False, "tasks": [good, other]}, {"traced": False, "tasks": [bad, other]}]
    result = run._summary(passes, setup=[0.1], rss=[1.0], per_layer=[])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 1)
    # the fast wrong output is not a timing sample
    assert result["metrics"]["run_ref"]["value"] == 3.0
    # nor when the task never gave a right answer: then its slowest time counts
    passes = [{"traced": False, "tasks": [dict(bad, s=0.2)]}, {"traced": False, "tasks": [bad]}]
    assert run._summary(passes, setup=[0.1], rss=[1.0], per_layer=[])["metrics"]["run_ref"]["value"] == 0.4


def test_run_ref_cancels_the_host_speed():
    calm = [{"id": "a", "s": 1.0, "ref_s": 0.05, "errors": []},
            {"id": "b", "s": 0.2, "ref_s": 0.05, "errors": []}]
    slow = [dict(r, s=r["s"] * 1.6, ref_s=r["ref_s"] * 1.6) for r in calm]
    assert run.run_ref([{"traced": False, "tasks": slow}]) == pytest.approx(24.0)
    assert run.run_ref([{"traced": False, "tasks": calm}]) == pytest.approx(24.0)
    assert run.run_s([{"traced": False, "tasks": slow}]) == pytest.approx(1.92)
    # each task's median over the passes, so one disturbed pass moves nothing
    passes = [{"traced": False, "tasks": calm}] * 2 + [{"traced": False, "tasks": [dict(calm[0], s=9.0), calm[1]]}]
    assert run.run_ref(passes) == pytest.approx(24.0)


def test_changed_output_between_passes_is_a_failure():
    passes = [[{"id": "a", "digest": "x", "errors": []}],
              [{"id": "a", "digest": "y", "errors": []}]]
    run._mark_changed_outputs(passes, "digest")
    assert passes[0][0]["errors"] == [] and passes[1][0]["errors"]


def test_distance_bounds_may_tighten_but_not_leave_the_record():
    want = {"d": None, "d_method": "bounds-only", "d_lower": 28, "d_upper": 29}
    assert checks._distance_errors(want, dict(want)) == []
    assert checks._distance_errors(want, {"d": 29, "d_method": "x", "d_lower": 29, "d_upper": 29}) == []
    assert checks._distance_errors(want, {"d": 27, "d_method": "x", "d_lower": 27, "d_upper": 27})
    assert checks._distance_errors(want, {"d": None, "d_method": "other", "d_lower": 28, "d_upper": 29})
    exact = {"d": 5, "d_method": "exhaustive", "d_lower": 5, "d_upper": 5}
    assert checks._distance_errors(exact, dict(exact, d=4, d_lower=4, d_upper=4))


def _reproduce_outputs(seed: int, trials: int):
    stdout = "".join(f"[PASS] check{i}\n" for i in range(12)) + "\nall 12 golden checks passed\n"
    rows = [",".join(checks.RESULTS_HEADER)]
    series = [",".join(checks.SERIES_HEADER)]
    for code in ("a", "b", "c"):
        for rate, ok in (("0.0", trials), ("0.05", trials - 3), ("0.1", trials - 7), ("0.2", trials // 2)):
            sr, ur = repr(ok / trials), repr((trials - ok) / trials)
            avg = "0.0" if rate == "0.0" else "1.5"
            rows.append(f"{code},8,2,6,{rate},{trials},{sr},{ur},{avg},{seed}")
            series.append(f"{code},{rate},{sr},{ur},{avg}")
    files = {name: b"{}" for name in checks.REPRODUCE_FILES}
    files["results.csv"] = ("\r\n".join(rows) + "\r\n").encode()
    files["series.csv"] = ("\r\n".join(series) + "\r\n").encode()
    return stdout, files


def test_reproduce_invariants():
    task = {"kind": "reproduce", "seed": 7, "trials": 1000}
    stdout, files = _reproduce_outputs(7, 1000)
    assert checks.check_reproduce(task, 0, stdout, files) == []
    assert checks.check_reproduce(task, 1, stdout, files)
    assert checks.check_reproduce(task, 0, stdout.replace("[PASS] check3", "[FAIL] check3"), files)
    broken = dict(files, **{"results.csv": files["results.csv"].replace(b",0.997,", b",0.996,")})
    assert any("successes + uncorrectable" in e for e in checks.check_reproduce(task, 0, stdout, broken))
    rate0 = dict(files, **{"results.csv": files["results.csv"].replace(b"0.0,1000,1.0,0.0,0.0", b"0.0,1000,1.0,0.0,0.5", 1)})
    assert any("rate 0" in e for e in checks.check_reproduce(task, 0, stdout, rate0))


def test_schoolbook_field_arithmetic_and_tower_check():
    # GF(4) = GF(2)[x]/(x^2 + x + 1): x * x = x + 1, (x + 1) + x = 1
    assert checks.schoolbook_mul(2, 2, 2, [1, 1, 1]) == 3
    assert checks.schoolbook_add(3, 2, 2, 2) == 1
    q = 25
    want = checks.EXPECTED["towers"][str(q)]
    samples = workloads.tower_samples(q, seed=1, count=8)
    p, mod = want["ext"]["p"], want["ext"]["modulus"]
    output = {"base": want["base"], "ext": want["ext"],
              "mul": [checks.schoolbook_mul(a, b, p, mod) for a, b in samples],
              "add": [checks.schoolbook_add(a, b, p, len(mod) - 1) for a, b in samples]}
    task = {"q": q}
    assert checks.check_tower(task, output, samples) == []
    output["mul"][3] = (output["mul"][3] + 1) % (q * q)
    assert checks.check_tower(task, output, samples)


@pytest.mark.parametrize("q", workloads.FIELD_TABLE_QS[:2])
def test_agq_tower_agrees_with_schoolbook(q):
    tower = agq.gf.quadratic_tower(q)
    samples = workloads.tower_samples(q, seed=3, count=32)
    output = {level: json.loads(F.to_json()) | {"p": F.p, "e": F.e}
              for level, F in (("base", tower.base), ("ext", tower.ext))}
    output["mul"] = [tower.ext.mul(a, b) for a, b in samples]
    output["add"] = [tower.ext.add(a, b) for a, b in samples]
    assert checks.check_tower({"q": q}, output, samples) == []
