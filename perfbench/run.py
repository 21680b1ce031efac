"""agq benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Workloads: reproduce, report-exhaustive, report-large, field-tables (see
README.md).  Each child process runs one at a time with its thread pools
capped at one thread.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it records the
environment, the tasks and every pass.  The exit code is nonzero, with no
result line, when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads
from reference import reference_s

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4  # set-up-only children before and again after the measuring child
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("setup_s", "s"), ("run_ref", "ref"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark could not run (as opposed to a task giving a wrong answer)."""


class Children:
    """Starts child processes one after another, within one overall deadline."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})

    def run(self, spec: dict) -> dict:
        spec = dict(spec, spawned=time.monotonic())
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("a child process ran past the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"child process exited with code {proc.returncode}")
        return json.loads(out.decode().splitlines()[-1])


def _mark_changed_outputs(records_by_pass: list[list[dict]], key: str) -> None:
    """Every pass must reproduce the first pass's outputs byte for byte,
    traced or not; a pass that does not has its task counted as failed."""
    first = {r["id"]: r[key] for r in records_by_pass[0]}
    for records in records_by_pass[1:]:
        for r in records:
            if r[key] != first[r["id"]]:
                r["errors"].append("output differs from the first pass")


def _task_list(passes: list[dict], traced: bool, key) -> float:
    """One run of the task list: the sum over tasks of the median over the
    passes of `key(task record)`.  Only a task's correct runs count; a task
    that never gave a correct output counts with its largest value, never as
    a fast one."""
    values: dict[str, list[float]] = {}
    failing: dict[str, list[float]] = {}
    for p in passes:
        if p["traced"] == traced:
            for r in p["tasks"]:
                (failing if r["errors"] else values).setdefault(r["id"], []).append(key(r))
    return (sum(statistics.median(v) for v in values.values())
            + sum(max(v) for k, v in failing.items() if k not in values))


def run_ref(passes: list[dict], traced: bool = False) -> float:
    """The task list's time in reference units: each task's seconds over the
    reference computation's seconds timed around it (see reference.py)."""
    return _task_list(passes, traced, lambda r: r["s"] / r["ref_s"])


def run_s(passes: list[dict], traced: bool = False) -> float:
    """The task list's wall seconds, as the host ran it during this run."""
    return _task_list(passes, traced, lambda r: r["s"])


def _summary(passes: list[dict], setup: list[float], rss: list[float], per_layer: list[dict]) -> dict:
    """End-to-end or per-layer metrics from the passes of one run."""
    for p in passes:
        p["s"] = sum(r["s"] for r in p["tasks"])
    attempted = sum(len(p["tasks"]) for p in passes)
    failed = sum(bool(r["errors"]) for p in passes for r in p["tasks"])
    if per_layer:
        metrics = {name: statistics.median(m[name] for m in per_layer)
                   for name, _, _ in tracer.PER_LAYER if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = run_ref(passes, True) / run_ref(passes, False) - 1
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        metrics = {"setup_s": statistics.median(setup), "run_ref": run_ref(passes),
                   "peak_rss_mb": max(rss)}
        units = dict(END_TO_END)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}


def run_cli_workload(children: Children, args, workdir: Path) -> tuple[dict, dict]:
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "towers": workloads.SETUP_TOWERS[args.workload],
            "workdir": str(workdir)}
    def probes():
        return [] if args.trace else [children.run(dict(spec, mode="setup"))["setup_s"]
                                      for _ in range(SETUP_PROBES)]

    setup = probes()
    main = children.run(dict(spec, mode="passes"))
    setup += probes()
    passes = main["passes"]
    _mark_changed_outputs([p["tasks"] for p in passes], "digest")
    per_layer = [tracer.derive(tracer.merge_stats(main["setup_stats"], p["stats"]))
                 for p in passes if p["traced"]]
    result = _summary(passes, setup + [main["setup_s"]], [main["rss_mb"]], per_layer)
    return result, {"numpy": main["numpy"], "passes": _pass_detail(passes)}


def run_field_tables(children: Children, args) -> tuple[dict, dict]:
    order = workloads.tasks("field-tables", args.seed)
    samples = {t["q"]: workloads.tower_samples(t["q"], args.seed) for t in order}
    passes, walls, setup, rss, per_layer = [], [], [], [], []
    reference_s()  # warm-up, untimed
    before = reference_s()
    while workloads.another_pass(walls, args.seconds):
        traced = bool(args.trace) and len(passes) % 2 == 1
        records, stats = [], tracer.empty_stats()
        begin = time.monotonic()
        for task in order:
            child = children.run({"mode": "tower", "q": task["q"], "trace": int(traced),
                                  "samples": samples[task["q"]]})
            after = reference_s()
            setup.append(child["setup_s"])
            rss.append(child["rss_mb"])
            records.append({"id": task["id"], "s": child["s"], "ref_s": (before + after) / 2,
                            "output": child["output"],
                            "errors": checks.check_tower(task, child["output"], samples[task["q"]])})
            before = after
            if traced:
                stats = tracer.merge_stats(stats, child["stats"])
        walls.append(time.monotonic() - begin)
        passes.append({"traced": traced, "tasks": records})
        if traced:
            per_layer.append(tracer.derive(stats))
    _mark_changed_outputs([p["tasks"] for p in passes], "output")
    for p in passes:
        for r in p["tasks"]:
            del r["output"]
    result = _summary(passes, setup, rss, per_layer)
    return result, {"numpy": child["numpy"], "passes": _pass_detail(passes)}


def _pass_detail(passes: list[dict]) -> list[dict]:
    return [{"traced": p["traced"], "s": p["s"],
             "tasks": [{"id": r["id"], "s": r["s"], "ref_s": r["ref_s"], "errors": r["errors"]}
                       for r in p["tasks"]]}
            for p in passes]


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (root / ".git" / name).is_file():
        return (root / ".git" / name).read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def environment(root: Path, args, env: dict) -> dict:
    tasks = workloads.tasks(args.workload, args.seed)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "threads": {v: env[v] for v in THREAD_VARS},
        "git_commit": _git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_towers": list(workloads.SETUP_TOWERS[args.workload]),
        "reproduce_trials": workloads.REPRODUCE_TRIALS if args.workload == "reproduce" else None,
        "tasks": [t["id"] for t in tasks],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "agq" / "__init__.py").is_file():
        print(f"error: no agq sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(root / "src" / "agq"), quiet=1)
    children = Children(root, time.monotonic() + DEADLINE_S)
    workdir = root / ".perfbench_work" / str(os.getpid())
    try:
        if args.workload == "field-tables":
            result, detail = run_field_tables(children, args)
        else:
            result, detail = run_cli_workload(children, args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    env = dict(environment(root, args, children.env), numpy=detail.pop("numpy"))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:18s} {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload:18s} {'fail_ratio':34s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} tasks)")
    # wall seconds move with the host's speed; run_ref is the steady figure
    wall = {"run_s": run_s(detail["passes"]),
            "ref_s_median": statistics.median(r["ref_s"] for p in detail["passes"] for r in p["tasks"])}
    print(f"{args.workload:18s} {'run_s (wall clock)':34s} {wall['run_s']:.6g} s")
    print(f"{args.workload:18s} {'reference computation (median)':34s} {wall['ref_s_median']:.6g} s")
    print(json.dumps({"environment": env, "wall": wall, "passes": detail["passes"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
