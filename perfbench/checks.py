"""Correctness gate for every task, sharing no code with agq.

Each `check_*` function returns a list of error strings; an empty list means
the task's output is right.  Expected values in `expected.json` were recorded
from agq's outputs at the commit that introduced this benchmark
(`record_expected.py` rewrites them); everything else is re-derived here:
CSV invariants, weight-distribution sums, and field products by schoolbook
polynomial multiplication.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

REPRODUCE_CHECKS = 12
REPRODUCE_FILES = ("dimension_report_q3_m3.json", "manifest.json", "quantum_q3_m3.csv",
                   "quantum_q5_m3.csv", "report_8_3.json", "results.csv", "series.csv")
RESULTS_HEADER = ["code", "n", "k", "d", "rate", "trials", "success_rate",
                  "uncorrectable_rate", "avg_errors", "seed"]
SERIES_HEADER = ["code", "rate", "success_rate", "uncorrectable_rate", "avg_errors"]
SEED_MASK = (1 << 64) - 1


def digest(stdout: str, files: dict[str, bytes]) -> str:
    """Hash of a task's stdout and output files; the manifest's timestamp is
    the one field allowed to differ between identical runs, so it is dropped."""
    h = hashlib.sha256(stdout.encode())
    for name in sorted(files):
        data = files[name]
        if name.endswith("manifest.json"):
            manifest = json.loads(data)
            manifest.pop("timestamp", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


# -- reproduce ---------------------------------------------------------------------


def _count(rate: str, trials: int) -> int | None:
    """The whole number of trials a rate stands for, or None if it is not whole."""
    x = float(rate) * trials
    return round(x) if abs(x - round(x)) < 1e-6 else None


def check_reproduce(task: dict, rc, stdout: str, files: dict[str, bytes]) -> list[str]:
    errors = []
    if rc != 0:
        errors.append(f"exit code {rc}")
    lines = stdout.splitlines()
    passed = sum(line.startswith("[PASS] ") for line in lines)
    failed = [line for line in lines if line.startswith("[FAIL] ")]
    if passed != REPRODUCE_CHECKS or failed:
        errors.append(f"{passed} PASS lines, failures: {failed}")
    if f"all {REPRODUCE_CHECKS} golden checks passed" not in stdout:
        errors.append("missing the all-passed line")
    missing = [name for name in REPRODUCE_FILES if name not in files]
    if missing:
        return errors + [f"missing outputs {missing}"]

    results = list(csv.reader(io.StringIO(files["results.csv"].decode())))
    series = list(csv.reader(io.StringIO(files["series.csv"].decode())))
    if results[0] != RESULTS_HEADER or series[0] != SERIES_HEADER:
        return errors + ["CSV headers changed"]
    rows = [dict(zip(RESULTS_HEADER, row)) for row in results[1:]]
    if len(rows) != 12:
        errors.append(f"{len(rows)} result rows, expected 3 codes x 4 rates")
    for row in rows:
        where = f"{row['code']} rate={row['rate']}"
        trials = int(row["trials"])
        if trials != task["trials"] or int(row["seed"]) != task["seed"] & SEED_MASK:
            errors.append(f"{where}: trials {trials} / seed {row['seed']} differ from the request")
        successes = _count(row["success_rate"], trials)
        uncorrectable = _count(row["uncorrectable_rate"], trials)
        if successes is None or uncorrectable is None or successes + uncorrectable != trials:
            errors.append(f"{where}: successes + uncorrectable != trials")
        if float(row["rate"]) == 0.0 and (float(row["success_rate"]) != 1.0
                                          or float(row["avg_errors"]) != 0.0):
            errors.append(f"{where}: rate 0 must give all successes and no errors")
    expected_series = [[r["code"], r["rate"], r["success_rate"], r["uncorrectable_rate"],
                        r["avg_errors"]] for r in rows]
    if series[1:] != expected_series:
        errors.append("series.csv disagrees with results.csv")
    return errors


# -- code reports ------------------------------------------------------------------


def _distance_errors(want: dict, got: dict) -> list[str]:
    keys = ("d", "d_method", "d_lower", "d_upper")
    if want["d_method"] != "bounds-only":
        bad = [k for k in keys if got[k] != want[k]]
        return [f"{k}={got[k]!r}, expected {want[k]!r}" for k in bad]
    # A bounds-only record may later be tightened (exact distances past the
    # enumeration budget), but never leave the recorded interval.
    lo, hi, d = got["d_lower"], got["d_upper"], got["d"]
    if lo is None or hi is None or not want["d_lower"] <= lo <= hi <= want["d_upper"]:
        return [f"distance bounds [{lo}, {hi}] leave [{want['d_lower']}, {want['d_upper']}]"]
    if d is not None and not lo == d == hi:
        return [f"d={d} outside its own bounds [{lo}, {hi}]"]
    if d is None and (lo, hi) == (want["d_lower"], want["d_upper"]) and got["d_method"] != want["d_method"]:
        return [f"d_method={got['d_method']!r}, expected {want['d_method']!r}"]
    return []


def _weight_errors(report: dict, order: int) -> list[str]:
    wd = report["weight_distribution"]
    n, k, d = report["n"], report["k"], report["d"]
    if wd is None:
        return ["weight distribution missing"]
    errors = []
    if len(wd) != n + 1 or wd[0] != 1:
        errors.append("weight distribution must have n+1 entries and one zero word")
    if sum(wd) != order**k:
        errors.append(f"weight distribution sums to {sum(wd)}, not {order}^{k}")
    nonzero = [w for w, count in enumerate(wd) if w > 0 and count]
    if k > 0 and (not nonzero or nonzero[0] != d):
        errors.append(f"least nonzero weight {nonzero[:1]} != d = {d}")
    return errors


def check_report(task: dict, rc, stdout: str, files: dict[str, bytes]) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    if "report.json" not in files:
        return ["report.json missing"]
    text = files["report.json"].decode()
    if stdout != text:
        return ["stdout differs from the written report"]
    got = json.loads(text)
    want = EXPECTED["reports"][task["id"]]
    errors = [f"{k}={got[k]!r}, expected {want[k]!r}"
              for k in ("n", "k", "euclidean_self_orthogonal", "hermitian_self_orthogonal",
                        "duality_claim")
              if got[k] != want[k]]
    errors += _distance_errors(want, got)
    if got["d_upper"] is not None and got["d_upper"] > got["n"] - got["k"] + 1:
        errors.append("distance upper bound above the Singleton bound")
    if task["weights"]:
        q = int(task["argv"][task["argv"].index("--q") + 1])
        errors += _weight_errors(got, q * q)
    return errors


def check_task(task: dict, rc, stdout: str, files: dict[str, bytes]) -> list[str]:
    if task["kind"] == "reproduce":
        return check_reproduce(task, rc, stdout, files)
    return check_report(task, rc, stdout, files)


# -- field tables ------------------------------------------------------------------


def _digits(index: int, p: int, e: int) -> list[int]:
    return [(index // p**i) % p for i in range(e)]


def schoolbook_mul(a: int, b: int, p: int, modulus: list[int]) -> int:
    """a*b in GF(p)[x]/(modulus) on canonical indices, by long multiplication."""
    e = len(modulus) - 1
    prod = [0] * (2 * e - 1)
    for i, u in enumerate(_digits(a, p, e)):
        for j, v in enumerate(_digits(b, p, e)):
            prod[i + j] = (prod[i + j] + u * v) % p
    for deg in range(len(prod) - 1, e - 1, -1):
        c = prod[deg]
        for i in range(e + 1):
            prod[deg - e + i] = (prod[deg - e + i] - c * modulus[i]) % p
    return sum(c * p**i for i, c in enumerate(prod[:e]))


def schoolbook_add(a: int, b: int, p: int, e: int) -> int:
    return sum(((u + v) % p) * p**i
               for i, (u, v) in enumerate(zip(_digits(a, p, e), _digits(b, p, e))))


def check_tower(task: dict, output: dict, samples: list[tuple[int, int]]) -> list[str]:
    want = EXPECTED["towers"][str(task["q"])]
    errors = [f"{level} {key}={output[level][key]} expected {want[level][key]}"
              for level in ("base", "ext") for key in ("p", "e", "modulus", "primitive")
              if output[level][key] != want[level][key]]
    if errors:
        return errors
    p, modulus = want["ext"]["p"], want["ext"]["modulus"]
    e = len(modulus) - 1
    for (a, b), prod, total in zip(samples, output["mul"], output["add"]):
        if prod != schoolbook_mul(a, b, p, modulus):
            errors.append(f"mul({a}, {b}) = {prod}")
        if total != schoolbook_add(a, b, p, e):
            errors.append(f"add({a}, {b}) = {total}")
    if len(output["mul"]) != len(samples) or len(output["add"]) != len(samples):
        errors.append("sample results missing")
    return errors
