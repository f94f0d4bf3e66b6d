"""Fast self-test of the benchmark on tiny grids.

    python3 bench/selftest.py

Run from the root of a checkout; takes under a minute.  It runs every
workload's code path at its ``tiny`` size through the same parent and
child processes as the benchmark, one untraced and one traced repeat each,
and then shows that each correctness check fails on a corrupted output.
It also checks that ``BENCHMARK.json`` names exactly the metrics the
benchmark prints, and that the benchmark refuses to run without the
program's sources.  Prints one PASS/FAIL line per item; exits 1 on a FAIL.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
import workloads as W

# per-layer metrics that must read above zero on each workload
EXERCISED = {
    "nearfield-n48": ("forward.solves", "forward.potential_calls",
                      "io.bytes_written", "cli.self_s"),
    "near2far-n16": ("forward.far_pattern_calls",
                     "spherical.near_from_far_calls", "spherical.far_coeffs_s"),
    "rates-n16": ("inversion.objective_evals", "inversion.lbfgs_iters",
                  "inversion.adjoint_solves", "fourier.inverse_fourier_calls"),
    "cgo-pairing": ("cgo.solves", "cgo.neumann_iters", "cgo.faddeev_calls",
                    "cgo.medium_fields_builds", "vsc.pair_estimate_self_s"),
}

failures = []


def report(label: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {label}" + (f"  [{detail}]" if detail
                                                     else ""))
    if not ok:
        failures.append(label)


def check_declaration(root: Path):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report("BENCHMARK.json end-to-end metrics", e2e == run.END_TO_END)
    report("BENCHMARK.json per-layer metrics",
           layers == {k: run.layer_unit(k) for k in run.LAYER_NAMES})
    report("BENCHMARK.json workloads",
           [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS))


def run_tiny(root: Path, name: str) -> dict:
    """Both repeat kinds of one workload at its tiny size."""
    untraced, _ = run.run_workload(name, 1, 0, False, root, size="tiny",
                                   min_repeats=1)
    traced, reps = run.run_workload(name, 1, 0, True, root, size="tiny",
                                    min_repeats=2)
    errors = [r["error"] for r in reps if r["failed"]]
    report(f"{name}: tiny run", bool(untraced and traced) and not errors,
           errors[0][-300:] if errors else "")
    if not (untraced and traced):
        return {}
    report(f"{name}: end-to-end metrics printed",
           set(untraced["metrics"]) == set(run.END_TO_END))
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    missed = [k for k in EXERCISED[name] if not values.get(k, 0.0) > 0.0]
    report(f"{name}: traced layers reached", not missed, ", ".join(missed))
    return {c["name"]: c for r in reps if not r["failed"]
            for c in r["checks"]}


def check_nearfield(root: Path, checks: dict):
    from emiscat.io import read_data
    for name, c in checks.items():
        if name != "reciprocity":
            report(f"nearfield: {name} holds", c["ok"])
    # the reciprocity tolerance of acceptance 03 needs N = 48; at the tiny
    # N = 16 the discretization alone errs by about 2e-2
    report("nearfield: reciprocity computed on tiny data",
           np.isfinite(checks["reciprocity"]["value"]),
           f"{checks['reciprocity']['value']:.2e} at N = 16")
    out = root / ".bench_out" / "nearfield-n48" / "out"
    w = read_data(out / "near_data.dat").matrices
    sym = 0.5 * (w + np.swapaxes(np.swapaxes(w, 0, 1), 2, 3))
    report("nearfield: reciprocal data passes",
           W.reciprocity_check(sym)["ok"])
    bad = sym.copy()
    bad[0, 1] = bad[0, 1].T
    report("nearfield: a transposed data block fails",
           not W.reciprocity_check(bad)["ok"])
    summary = out / "nearfield_summary.json"
    summary.write_text(summary.read_text() + " ")
    report("nearfield: an edited artifact fails the manifest",
           not W.manifest_check(out)["ok"])


def check_near2far(root: Path, checks: dict):
    from emiscat.io import read_far_coeffs
    report("near2far: series check holds on tiny data",
           checks["near-from-far series"]["ok"],
           f"{checks['near-from-far series']['value']:.2e}")
    work = root / ".bench_out" / "near2far-n16"
    inp = json.loads((work / "inputs.json").read_text())
    coeffs = read_far_coeffs(work / "out" / "far_coeffs.alf")
    i = coeffs.index(1, 0)
    coeffs.alpha[i, i] += 0.5 * np.max(np.abs(coeffs.alpha))
    medium = W._bump_medium(inp["n"], [inp["center"]],
                            [W.BUMP["amplitude"]], [W.BUMP["width"]])
    report("near2far: a perturbed far-field coefficient fails",
           not W.series_check(coeffs, medium, inp["xs"], inp["ys"])["ok"])


def check_rates(checks: dict):
    for name, c in checks.items():
        report(f"rates: {name} holds on tiny data", c["ok"],
               f"{c['value']:.3g} < {c['limit']:.3g}")
    errors, zero = [3.0, 2.5], 3.2
    report("rates: correct errors pass",
           all(c["ok"] for c in W.rates_checks(errors, zero)))
    report("rates: errors rising with falling delta fail",
           not W.rates_checks(errors[::-1], zero)[0]["ok"])
    report("rates: errors above the zero start fail",
           not W.rates_checks(errors, 2.9)[1]["ok"])
    report("rates: a gradient 1% off fails",
           not W.gradient_check(1.01 * 0.37, 0.37)["ok"])


def check_cgo(root: Path, checks: dict):
    for name, c in checks.items():
        report(f"cgo: {name} holds on tiny data", c["ok"],
               f"{c['value']:.3g} < {c['limit']:.3g}")
    refs, scale, res = [0.5 + 0.1j], 0.6, [1e-5, 2e-5]
    report("cgo: matching values pass",
           all(c["ok"] for c in W.cgo_checks(refs, refs, scale, res, 2)))
    bad = [refs[0] + 0.05 * scale]
    report("cgo: a perturbed coefficient estimate fails",
           not W.cgo_checks(bad, refs, scale, res, 2)[0]["ok"])
    report("cgo: a large Maxwell residual fails",
           not W.cgo_checks(refs, refs, scale, [1e-5, 1e-3], 2)[1]["ok"])
    report("cgo: a missing solve fails",
           not all(c["ok"] for c in W.cgo_checks(refs, refs, scale, res[:1],
                                                 2)))


def check_summary():
    rep = {"failed": False, "traced": False, "checks": [],
           "setup_wall_s": 1.0, "run_wall_s": 1.0, "calibration_s": [0.4, 0.5],
           "peak_rss_mib": 1.0}
    same = run.summarize([dict(rep, digest="a"), dict(rep, digest="a")], False)
    differ = run.summarize([dict(rep, digest="a"), dict(rep, digest="b")],
                           False)
    report("repeats with equal outputs are correct", same["correct"])
    report("repeats with differing outputs are not correct",
           not differ["correct"])


def check_bare(root: Path):
    """Only BENCHMARK.json and the benchmark's files: must exit non-zero
    without printing a result."""
    bare = root / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for f in run.BENCH.glob("*"):
        if f.is_file():
            shutil.copy(f, bare / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cgo-pairing",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    report("without src/ the benchmark exits non-zero and prints nothing",
           proc.returncode != 0 and not proc.stdout.strip(),
           f"exit {proc.returncode}")
    shutil.rmtree(bare)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "emiscat").is_dir():
        print("run from the root of an emiscat checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    check_declaration(root)
    checks = {name: run_tiny(root, name) for name in W.WORKLOADS}
    if checks["nearfield-n48"]:
        check_nearfield(root, checks["nearfield-n48"])
    if checks["near2far-n16"]:
        check_near2far(root, checks["near2far-n16"])
    check_rates(checks["rates-n16"])
    check_cgo(root, checks["cgo-pairing"])
    check_summary()
    check_bare(root)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
