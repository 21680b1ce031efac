"""Rewrite expected.json from the agq in this checkout.

Usage, from the root of a checkout:  python3 perfbench/record_expected.py

Run it only to record a new reference on purpose (a declared golden shift);
the benchmark's correctness gate compares every run against this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import workloads

sys.path.insert(0, str(Path.cwd() / "src"))

import agq.cli  # noqa: E402
from agq.gf import quadratic_tower  # noqa: E402

REPORT_KEYS = ("n", "k", "d", "d_method", "d_lower", "d_upper", "euclidean_self_orthogonal",
               "hermitian_self_orthogonal", "duality_claim")


def main() -> int:
    reports = {}
    for workload in ("report-exhaustive", "report-large"):
        for task in sorted(workloads.tasks(workload, 0), key=lambda t: t["id"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if agq.cli.main(task["argv"]) != 0:
                    raise SystemExit(f"{task['id']} failed")
            report = json.loads(buf.getvalue())
            reports[task["id"]] = {k: report[k] for k in REPORT_KEYS}
    towers = {}
    for q in workloads.FIELD_TABLE_QS:
        tower = quadratic_tower(q)
        towers[str(q)] = {level: json.loads(F.to_json()) | {"p": F.p, "e": F.e}
                          for level, F in (("base", tower.base), ("ext", tower.ext))}
    path = Path(__file__).parent / "expected.json"
    path.write_text(json.dumps({"reports": reports, "towers": towers}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} reports and {len(towers)} towers to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
