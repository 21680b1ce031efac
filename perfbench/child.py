"""One benchmark child process; `run.py` starts it and reads its last line.

Usage: python3 perfbench/child.py '<json spec>'   (from the checkout root)

The spec names the mode:

* `setup`:  import agq and build the workload's towers, then report the
  set-up time and exit;
* `passes`: set up, then run the workload's task list through
  `agq.cli.main` as many times as fit in `seconds`, checking every task's
  output and timing the reference computation (`reference.py`) between
  tasks; with `trace` set, passes alternate untraced and traced;
* `tower`:  import agq, then time one `quadratic_tower(q)` call.

Set-up time runs from `spawned`, the parent's `time.monotonic()` just before
it started this process (a system-wide clock on Linux), until agq is imported
and the towers are built.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _import_agq(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import agq.cli  # noqa: F401  (imports the whole package)
    import agq

    if Path(agq.__file__).resolve().parent != src / "agq":
        raise SystemExit(f"agq was imported from {agq.__file__}, not from {src}")
    return agq


def _peak_rss_mb() -> float:
    """This process's peak resident set size.  `VmHWM` covers this process's
    own address space alone, while Linux carries `ru_maxrss` over from the
    parent across the exec that started it."""
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# The benchmark's own modules are imported after set-up, so that set-up time
# covers the interpreter, numpy and agq alone.


def _run_task(agq, task: dict, workdir: Path) -> dict:
    import checks

    out = workdir / task["id"]
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    target = ["--out-dir", str(out)] if task["kind"] == "reproduce" else ["--out", str(out / "report.json")]
    buf = io.StringIO()
    crash = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = agq.cli.main(task["argv"] + target)
    except Exception:  # a crashing task is a failed task, not a crashed benchmark
        rc, crash = None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    errors = [crash] if crash else checks.check_task(task, rc, buf.getvalue(), files)
    return {"id": task["id"], "s": seconds, "errors": errors,
            "digest": checks.digest(buf.getvalue(), files)}


def _run_passes(agq, spec: dict, tracer) -> list[dict]:
    """Passes over the task list; every task record carries `ref_s`, the
    mean time of the reference computation run just before and just after
    the task (it calls no agq code, so a traced pass adds no spans to it)."""
    import workloads
    from reference import reference_s

    tasks = workloads.tasks(spec["workload"], spec["seed"])
    workdir = Path(spec["workdir"])
    passes, walls = [], []
    reference_s()  # warm-up, untimed
    before = reference_s()
    while workloads.another_pass(walls, spec["seconds"]):
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        records = []
        with tracer if traced else contextlib.nullcontext():
            for task in tasks:
                record = _run_task(agq, task, workdir)
                after = reference_s()
                records.append(dict(record, ref_s=(before + after) / 2))
                before = after
        walls.append(time.perf_counter() - t0)
        passes.append({"traced": traced, "tasks": records,
                       "stats": tracer.take() if traced else None})
    return passes


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path.cwd()
    agq = _import_agq(root)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        for q in spec.get("towers", ()):
            agq.gf.quadratic_tower(q)
    result = {"setup_s": time.monotonic() - spec["spawned"]}
    if tracer is not None:
        result["setup_stats"] = tracer.take()

    if spec["mode"] == "passes":
        result["passes"] = _run_passes(agq, spec, tracer)
    elif spec["mode"] == "tower":
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            tower = agq.gf.quadratic_tower(spec["q"])
            result["s"] = time.perf_counter() - t0
        if tracer is not None:
            result["stats"] = tracer.take()
        ext = tower.ext
        result["output"] = {
            "base": json.loads(tower.base.to_json()) | {"p": tower.base.p, "e": tower.base.e},
            "ext": json.loads(ext.to_json()) | {"p": ext.p, "e": ext.e},
            "mul": [ext.mul(a, b) for a, b in spec["samples"]],
            "add": [ext.add(a, b) for a, b in spec["samples"]],
        }
    import numpy

    result["numpy"] = numpy.__version__
    result["rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
