"""Fixed task lists of the four workloads, and what each one sets up.

A task is one call of an agq entry point.  Every task of the three CLI
workloads is an argument list for `agq.cli.main`; a `field-tables` task is
one `quadratic_tower(q)` call in a fresh process.  The seed is the master
seed in `reproduce`; elsewhere it only permutes the task order, so the work
done per run is the same for every seed.
"""

from __future__ import annotations

import random

REPRODUCE_TRIALS = 2000

# quadratic towers built during set-up, i.e. before the timed passes
SETUP_TOWERS = {
    "reproduce": (2, 3, 5),
    "report-exhaustive": (3, 4),
    "report-large": (7, 5),
    "field-tables": (),
}
WORKLOADS = tuple(SETUP_TOWERS)

FIELD_TABLE_QS = (25, 27, 32, 49, 81)


def _report(family: str, q: int, r: int, m: int | None = None, weights: bool = False) -> dict:
    tag = f"{family}-q{q}" + (f"-m{m}" if m is not None else "") + f"-r{r}"
    argv = ["code-report", "--family", family, "--q", str(q), "--r", str(r)]
    if m is not None:
        argv += ["--m", str(m)]
    if weights:
        argv.append("--weights")
    return {"id": tag, "kind": "report", "argv": argv, "weights": weights}


def _exhaustive() -> list[dict]:
    return ([_report("hermitian", 3, r, weights=True) for r in range(0, 8)]
            + [_report("superelliptic", 3, r, m=3, weights=True) for r in range(0, 6)]
            + [_report("hermitian", 4, r, weights=True) for r in range(5, 9)])


def _large() -> list[dict]:
    return ([_report("superelliptic", 7, r, m=3) for r in (6, 12, 20, 30, 40)]
            + [_report("hermitian", 5, r) for r in (16, 24, 32)])


def tasks(workload: str, seed: int) -> list[dict]:
    """The workload's task list, in the order the seed gives."""
    if workload == "reproduce":
        return [{"id": "reproduce", "kind": "reproduce", "seed": seed, "trials": REPRODUCE_TRIALS,
                 "argv": ["reproduce", "--trials", str(REPRODUCE_TRIALS), "--seed", str(seed)]}]
    if workload == "report-exhaustive":
        found = _exhaustive()
    elif workload == "report-large":
        found = _large()
    elif workload == "field-tables":
        found = [{"id": f"tower-q{q}", "kind": "tower", "q": q} for q in FIELD_TABLE_QS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(found)
    return found


def tower_samples(q: int, seed: int, count: int = 64) -> list[tuple[int, int]]:
    """Element pairs of GF(q^2) whose products and sums a tower task reports."""
    rng = random.Random(f"{seed}:{q}")
    order = q * q
    return [(rng.randrange(order), rng.randrange(order)) for _ in range(count)]


def another_pass(walls: list[float], seconds: float) -> bool:
    """Whether to start another pass, given the wall seconds of the passes so
    far: only if, at the pace of the slowest one, it ends within `seconds`.
    Every run makes two passes at least: a traced run needs an untraced and a
    traced one, and a process's first pass runs on a cold allocator."""
    if len(walls) < 2:
        return True
    return sum(walls) + max(walls) <= seconds
