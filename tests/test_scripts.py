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


def test_readme_library_sketch_runs_as_documented():
    # every line of the README's "Library sketch" block runs, and each value
    # its comment leads with holds: a tuple or number for an expression (an
    # array's shape), an [n, k] pair for an assigned code
    import ast
    import re

    import numpy as np

    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library sketch\s+```python\n(.*?)```", readme, re.S).group(1)
    tree = ast.parse(block)
    lines = block.splitlines()
    namespace = {}
    checked = []
    for node in tree.body:
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        leading = re.match(r"(\[[\d, ]+\]|\([\d, ]+\)|\d+)", comment)
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            got = value.shape if isinstance(value, np.ndarray) else value
            assert got == ast.literal_eval(leading.group(1)), (ast.unparse(node), comment)
            checked.append(got)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            if isinstance(node, ast.Assign) and leading and leading.group(1).startswith("["):
                code = namespace[node.targets[0].id]
                assert [code.n, code.k] == ast.literal_eval(leading.group(1)), ast.unparse(node)
                checked.append((code.n, code.k))
    assert checked == [(8, 2), (8, 3), 5, 5, (15, 1), (15, 13, 2), (9, 3, 3)]


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # under the repo's pytest settings, a failing @given test is reported and
    # the tests after it still run; Hypothesis's failure explanation must not
    # turn into an INTERNALERROR that ends the session
    (tmp_path / "test_sample.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(database=None, max_examples=5)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path / "test_sample.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert proc.stdout.strip().splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout
