"""Benchmark of the emiscat pipelines.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each repeat of the workload runs in a fresh Python process, one at a time,
with BLAS and OpenMP pinned to one thread, because a command-line user
pays imports, symbol builds and any cache on every run.  Repeats go on
until the next one would end after ``--seconds``, with at least
``MIN_REPEATS`` of them; each attempts the same operation, the workload's
one pipeline call.

With ``--trace 0`` the last line reports the end-to-end metrics, medians
over the repeats, with times corrected for the machine's speed by the
calibration kernel of ``child.py`` (see README.md).  With ``--trace 1`` every other repeat runs under the
span tracer of ``spans.py`` and the last line reports the per-layer
metrics, with the tracing overhead measured against the untraced repeats
of the same run.  Spans, per-repeat records and the environment go to
``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

from spans import layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
MIN_REPEATS = 2
# seconds child.calibrate() takes on the 2-vCPU Xeon the reference figures
# come from; times are reported at the machine speed where it takes this
CALIBRATION_REF_S = 0.45
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1"}
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("_per_solve"):
        return "matvec/solve"
    return "count"


LAYER_NAMES = list(layer_metrics({}, {})) + [
    "trace.run_s", "trace.overhead_pct", "trace.spans"]


def git_sha(root: Path):
    """Commit of a git checkout, read from .git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy
    return {"git_sha": git_sha(root), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": version("scipy"),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": THREAD_ENV}


def run_child(name, work, repeat, traced, full_check, root, timeout):
    spec = {"workload": name, "workdir": str(work), "repeat": repeat,
            "trace": traced, "full_check": full_check,
            "src": str(root / "src")}
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(root / "src"))
    shutil.rmtree(work / "out", ignore_errors=True)
    t_spawn = time.monotonic()
    spec["t_spawn"] = t_spawn
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failed": True, "error": f"timed out after {timeout:.0f} s",
                "wall_s": time.monotonic() - t_spawn}
    wall = time.monotonic() - t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failed": True, "wall_s": wall,
                "error": proc.stderr.strip()[-2000:]}
    record = json.loads(lines[-1])
    record.update(failed=False, wall_s=wall)
    return record


def run_workload(name, seed, seconds, trace, root, size="full",
                 min_repeats=MIN_REPEATS):
    """Run repeats of one workload; returns (result, per-repeat records)."""
    wl = WORKLOADS[name]
    work = root / ".bench_out" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = wl.inputs(seed, size)
    (work / "inputs.json").write_text(json.dumps(inputs))
    wl.write_inputs(inputs, work)
    reps = []
    t0 = time.monotonic()
    while True:
        k = len(reps)
        remaining = RUN_LIMIT_S - (time.monotonic() - t0)
        reps.append(run_child(name, work, k, trace and k % 2 == 1, k == 0,
                              root, remaining))
        elapsed = time.monotonic() - t0
        est = statistics.median(r["wall_s"] - r.get("check_s", 0.0)
                                for r in reps)
        if elapsed + est > RUN_LIMIT_S or reps[-1]["failed"] and \
                "timed out" in reps[-1]["error"]:
            break
        if len(reps) >= min_repeats and elapsed + est > seconds:
            break
    return summarize(reps, trace), reps


def corrected(rep, key):
    """A repeat's wall time rescaled to the reference machine speed, by the
    calibration kernel timed right before and right after its call."""
    return rep[key] * CALIBRATION_REF_S / statistics.fmean(rep["calibration_s"])


def summarize(reps, trace):
    ok = [r for r in reps if not r["failed"]]
    plain = [r for r in ok if not r["traced"]]
    if not plain:
        return None
    correct = (all(c["ok"] for r in ok for c in r["checks"])
               and len({r["digest"] for r in ok}) == 1)
    run_s = statistics.median(corrected(r, "run_wall_s") for r in plain)
    if trace:
        traced = [r for r in ok if r["traced"]]
        if not traced:
            return None
        values = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        values["trace.run_s"] = statistics.median(
            corrected(r, "run_wall_s") for r in traced)
        values["trace.overhead_pct"] = 100.0 * (values["trace.run_s"]
                                                / run_s - 1.0)
        values["trace.spans"] = statistics.median(r["spans"] for r in traced)
        metrics = {k: {"value": values[k], "unit": layer_unit(k)}
                   for k in LAYER_NAMES}
    else:
        values = {"setup_s": statistics.median(corrected(r, "setup_wall_s")
                                               for r in plain),
                  "run_s": run_s,
                  "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                                    for r in plain)}
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in END_TO_END.items()}
    return {"correct": bool(correct), "attempted": len(reps),
            "failed": len(reps) - len(ok), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "emiscat" / "__init__.py").is_file():
        print("error: run from the root of an emiscat checkout "
              "(src/emiscat not found)", file=sys.stderr)
        return 2
    result, reps = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), root)
    env = environment(root)
    work = root / ".bench_out" / args.workload
    with open(work / "result.json", "w") as fh:
        json.dump({"args": vars(args), "environment": env, "result": result,
                   "repeats": reps}, fh, indent=1)
    for r in reps:
        if r["failed"]:
            print(f"repeat failed: {r['error']}", file=sys.stderr)
        for c in r.get("checks", ()):
            if not c["ok"]:
                print(f"check failed: {c}", file=sys.stderr)
    if result is None:
        print("error: no repeat completed", file=sys.stderr)
        return 1
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
