import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_survey_codes_gives_exact_distances_within_default_budget():
    # superelliptic q=3 m=3 reaches [15, 6] over GF(9) at r=6: 9^6 = 531 441
    # codewords, inside agq's default budget of 2^20, so every d is exact
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "survey_codes.py"), "--q", "3", "--m", "3", "--r-max", "6"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [f for f in map(str.split, proc.stdout.splitlines()) if f and f[0].isdigit()]
    assert [int(row[0]) for row in rows] == list(range(7))
    assert rows[-1][1:3] == ["15", "6"]
    for row in rows:
        assert row[5].isdigit(), row
