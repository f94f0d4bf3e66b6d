"""The benchmark's workloads: seeded inputs, the timed call into one of the
program's public entry points, and checks of what that call produced.

Inputs are plain JSON, made in the parent process from ``--seed``.  A
child process turns them into a config or media (its set-up), makes the
one timed call, and then checks the outputs against computations or
properties that do not go through the code path being timed.  No check
compares against a stored copy of an earlier output.

Seeds move positions (bump centres, probe directions) and noise draws,
never sizes, strengths or iteration limits, so the amount of work stays
the same from seed to seed.

Each workload has a ``full`` size, which the benchmark runs, and a
``tiny`` size for the self-test.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

KAPPA = 1.0
R_DATA = 1.5 * np.pi  # measurement radius of acceptance 03 and 09
R_INV = 1.2 * np.pi  # acceptance 11 and the CGO tests
# the acceptance bump; seeds jitter its centre by up to JITTER per axis
BUMP = {"center": (0.3, -0.2, 0.1), "amplitude": 0.2, "width": 1.5, "b": 0.7}
JITTER = 0.05

RECIPROCITY_TOL = 1e-3  # acceptance 03
SERIES_TOL = 3e-2  # near-from-far at l = 4 errs by about 1e-2
RATES_TRUTH_SEED = 11  # acceptance 11's band-limited truth
GRADIENT_TOL = 1e-3  # the finite-difference tolerance of test_inversion
CGO_COEFF_TOL = 1e-2  # share of max |F(n1 - n2)|; test_vsc allows 1e-2
CGO_RESIDUAL_TOL = 1e-4  # acceptance 05


def check(name: str, value: float, limit: float) -> dict:
    """One named check: passes when ``value < limit``."""
    value = float(value)
    return {"name": name, "value": value, "limit": float(limit),
            "ok": bool(value < limit)}


def _ini(sections: dict) -> str:
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
        lines.append("")
    return "\n".join(lines)


def _jittered(rng, center):
    return tuple(float(c) for c in
                 np.asarray(center) + rng.uniform(-JITTER, JITTER, 3))


def _bump_section(center):
    return {"profile": "bump", "centers": ",".join(repr(c) for c in center),
            "amplitudes": BUMP["amplitude"], "widths": BUMP["width"],
            "b": BUMP["b"]}


def _unit(rng, count):
    v = rng.standard_normal((count, 3))
    return (v / np.linalg.norm(v, axis=1, keepdims=True)).tolist()


def _bump_medium(n, centers, amplitudes, widths):
    from emiscat.fourier import BumpProfile, CubeGrid, make_test_index
    prof = BumpProfile(centers=tuple(tuple(c) for c in centers),
                       amplitudes=tuple(amplitudes), widths=tuple(widths))
    return make_test_index(prof, CubeGrid(np.pi, n), b=BUMP["b"])


# ---- checks, shared with the self-test -----------------------------------

def reciprocity_check(matrices) -> dict:
    """w(x, y) = w(y, x)^T over all node pairs, as a relative norm."""
    wt = np.swapaxes(np.swapaxes(matrices, 0, 1), 2, 3)
    rel = np.linalg.norm(matrices - wt) / np.linalg.norm(matrices)
    return check("reciprocity", rel, RECIPROCITY_TOL)


def manifest_check(out) -> dict:
    from emiscat.cli import verify_manifest
    return check("manifest hashes", 0.0 if verify_manifest(out) else 1.0, 0.5)


def series_check(coeffs, medium, xs, ys) -> dict:
    """Near data summed from far-field coefficients against near data from
    direct dipole solves, at probe points the pipeline never used."""
    from emiscat.forward import DipoleSource, ScatteringSolver
    from emiscat.spherical import near_from_far
    solver = ScatteringSolver(medium, KAPPA)
    xs, ys = np.asarray(xs), np.asarray(ys)
    direct = np.empty((len(xs), len(ys), 3, 3), dtype=complex)
    series = np.empty_like(direct)
    for iy, y in enumerate(ys):
        for j in range(3):
            e = solver.solve(DipoleSource(y, np.eye(3)[j], KAPPA))
            direct[:, iy, :, j] = solver.scattered_at(e, xs)
        for ix, x in enumerate(xs):
            series[ix, iy], _ = near_from_far(coeffs, KAPPA, x, y)
    rel = np.linalg.norm(series - direct) / np.linalg.norm(direct)
    return check("near-from-far series", rel, SERIES_TOL)


def rates_checks(errors, zero_error) -> list:
    """H^m errors fall with delta and stay below the zero start's error."""
    errors = np.asarray(errors, dtype=float)
    return [check("error falls with delta",
                  np.max(errors[1:] / errors[:-1]), 1.0),
            check("error below zero start", np.max(errors) / zero_error, 1.0)]


def gradient_check(analytic: float, fd: float) -> dict:
    return check("adjoint gradient vs finite difference",
                 abs(fd - analytic) / abs(fd), GRADIENT_TOL)


def directional_derivatives(problem, c0, h, eps=1e-5):
    """(adjoint, central finite difference) derivative of the weighted
    misfit at coefficients ``c0`` along ``h``."""
    from emiscat.inversion import ContrastMedium, _ForwardState, misfit_gradient

    def state(coeffs):
        return _ForwardState(problem, ContrastMedium(grid=problem.grid,
                                                     coeffs=coeffs))

    def misfit(coeffs):
        s = state(coeffs)
        w = s.measurement_weights()
        return float(np.sum(w[..., None, None]
                            * np.abs(s.matrices - problem.data.matrices) ** 2))

    _, grad = misfit_gradient(state(c0))
    analytic = 2.0 * float(np.real(np.sum(grad * np.conj(h))))
    fd = (misfit(c0 + eps * h) - misfit(c0 - eps * h)) / (2.0 * eps)
    return analytic, fd


def cgo_checks(estimates, references, scale, residuals, solves) -> list:
    """CGO-corrected estimates against the FFT coefficients of n1 - n2, and
    the Maxwell residual of every CGO solve."""
    err = max(abs(e - r) for e, r in zip(estimates, references)) / scale
    out = [check("CGO estimate vs FFT coefficient", err, CGO_COEFF_TOL),
           check("CGO Maxwell residual", max(residuals), CGO_RESIDUAL_TOL)]
    if len(residuals) != solves:
        out.append(check("CGO solves seen", abs(len(residuals) - solves), 0.5))
    return out


# ---- workloads ------------------------------------------------------------

class CliWorkload:
    """A pipeline run through ``emiscat.cli.run`` from a generated config."""

    kind = ""
    cli_seed = 0
    threads = 1
    sizes: dict = {}

    def inputs(self, seed: int, size: str) -> dict:
        raise NotImplementedError

    def write_inputs(self, inputs: dict, workdir: Path):
        (workdir / "config.ini").write_text(inputs["config"])

    def prepare(self, inputs: dict, workdir: Path):
        from emiscat import cli
        return {"cli": cli, "inputs": inputs, "config": workdir / "config.ini",
                "out": workdir / "out"}

    def call(self, prep):
        return prep["cli"].run(self.kind, str(prep["config"]),
                               out_dir=str(prep["out"]), seed=self.cli_seed,
                               threads=self.threads)

    def digest(self, manifest) -> str:
        return hashlib.sha256(json.dumps(manifest, sort_keys=True)
                              .encode()).hexdigest()

    def check(self, prep, manifest, full: bool) -> list:
        return [manifest_check(prep["out"])] + self.check_outputs(prep, full)

    def check_outputs(self, prep, full: bool) -> list:
        raise NotImplementedError


class Nearfield(CliWorkload):
    name = "nearfield-n48"
    why = ("emiscat nearfield at N=48: potential matvecs and GMRES on 96^3 "
           "FFTs dominate; --threads 2 is passed")
    kind = "nearfield"
    threads = 2
    sizes = {"full": {"n": 48, "n_phi": 2}, "tiny": {"n": 16, "n_phi": 2}}

    def inputs(self, seed, size):
        p = self.sizes[size]
        rng = np.random.default_rng(seed)
        return {"config": _ini({
            "physics": {"kappa": KAPPA, "r": repr(R_DATA)},
            "grids": {"n": p["n"], "n_theta": 1, "n_phi": p["n_phi"]},
            "medium": _bump_section(_jittered(rng, BUMP["center"]))})}

    def check_outputs(self, prep, full):
        from emiscat.io import read_data
        data = read_data(prep["out"] / "near_data.dat")
        return [reciprocity_check(data.matrices)]


class Near2far(CliWorkload):
    name = "near2far-n16"
    why = ("emiscat near2far at N=16, l=4: many cheap plane-wave solves, "
           "far patterns, harmonic projection and series")
    kind = "near2far"
    sizes = {"full": {"n": 16, "l": 4}, "tiny": {"n": 8, "l": 4}}

    def inputs(self, seed, size):
        p = self.sizes[size]
        rng = np.random.default_rng(seed)
        center = _jittered(rng, BUMP["center"])
        return {"n": p["n"], "center": center,
                # probe points for the check: receivers on 2R, a source on R
                "xs": (2.0 * R_DATA * np.asarray(_unit(rng, 2))).tolist(),
                "ys": (R_DATA * np.asarray(_unit(rng, 1))).tolist(),
                "config": _ini({
                    "physics": {"kappa": KAPPA, "r": repr(R_DATA)},
                    "grids": {"n": p["n"], "n_theta": 1, "n_phi": 3,
                              "l": p["l"]},
                    "medium": _bump_section(center)})}

    def check_outputs(self, prep, full):
        if not full:
            return []
        from emiscat.io import read_far_coeffs
        inp = prep["inputs"]
        medium = _bump_medium(inp["n"], [inp["center"]], [BUMP["amplitude"]],
                              [BUMP["width"]])
        coeffs = read_far_coeffs(prep["out"] / "far_coeffs.alf")
        return [series_check(coeffs, medium, inp["xs"], inp["ys"])]


class Rates(CliWorkload):
    name = "rates-n16"
    why = ("emiscat rates at N=16, two noise levels: adjoint GMRES, "
           "measurement adjoints and a solver build per L-BFGS evaluation")
    kind = "rates"
    cli_seed = RATES_TRUTH_SEED
    sizes = {"full": {"n": 16, "maxiter": 2}, "tiny": {"n": 8, "maxiter": 1}}
    deltas = (1e-1, 1e-3)

    def inputs(self, seed, size):
        p = self.sizes[size]
        rng = np.random.default_rng(seed)
        noise = rng.integers(1, 2**31 - 1, len(self.deltas))
        return {"n": p["n"], "fd_seed": int(rng.integers(1, 2**31 - 1)),
                "config": _ini({
                    "physics": {"kappa": KAPPA, "r": repr(R_INV)},
                    "grids": {"n": p["n"], "n_theta": 1, "n_phi": 3},
                    "smoothness": {"m": 4.0, "s": 6.0},
                    "medium": {"profile": "bandlimited", "gamma_max": 2.0,
                               "amplitude": 0.08, "b": 0.5},
                    "noise": {"deltas": ", ".join(map(repr, self.deltas)),
                              "seeds": ", ".join(str(s) for s in noise)},
                    "inversion": {"gamma_max": 2.0, "a": 1.0, "nu": 0.5,
                                  "maxiter": p["maxiter"]}})}

    def check_outputs(self, prep, full):
        from emiscat.fourier import CubeGrid, hm_norm
        from emiscat.inversion import band_limited_index
        with open(prep["out"] / "rates.csv", newline="") as fh:
            errors = [float(row["error"]) for row in csv.DictReader(fh)]
        grid = CubeGrid(np.pi, prep["inputs"]["n"])
        truth = band_limited_index(grid, 2.0, 0.08, seed=RATES_TRUTH_SEED)
        out = rates_checks(errors, hm_norm(truth.coeffs, 4.0, grid))
        if full:
            out.append(gradient_check(*self.derivatives(prep["inputs"],
                                                        truth)))
        return out

    @staticmethod
    def derivatives(inputs, truth):
        """Adjoint and finite-difference derivatives of the misfit for the
        truth's exact data, at a seeded start along a seeded direction."""
        from emiscat.forward import NearFieldData, SphereGrid
        from emiscat.inversion import (InverseProblem, _ForwardState,
                                       band_limited_index)
        grid = truth.grid
        sphere = SphereGrid.build(R_INV, 1, 3)
        zeros = np.zeros((3, 3, 3, 3), dtype=complex)
        problem = InverseProblem(
            kind="near", kappa=KAPPA, grid=grid, delta=0.0, m=4.0,
            gamma_max=2.0, b=0.5,
            data=NearFieldData(receivers=sphere, sources=sphere,
                               matrices=zeros))
        problem.data = NearFieldData(
            receivers=sphere, sources=sphere,
            matrices=_ForwardState(problem, truth).matrices)
        rng = np.random.default_rng(inputs["fd_seed"])
        c0 = band_limited_index(grid, 2.0, 0.04,
                                seed=int(rng.integers(2**31))).coeffs
        mask = problem.coeff_mask()
        h = np.zeros_like(c0)
        h[mask] = (rng.standard_normal(int(mask.sum()))
                   + 1j * rng.standard_normal(int(mask.sum())))
        return directional_derivatives(problem, c0, h)


class CgoPairing:
    """``emiscat.vsc.cgo_pair_estimate`` for two bump media."""

    name = "cgo-pairing"
    why = ("vsc.cgo_pair_estimate at t=15 on m_grid=48: Faddeev FFTs, "
           "Neumann iterations and MediumFields builds")
    t = 15.0  # as in tests/test_vsc.py
    sizes = {"full": {"n": 24, "m_grid": 48,
                      "gammas": [(1, 0, 0), (0, 1, 0), (0, 0, 1)]},
             "tiny": {"n": 24, "m_grid": 48, "gammas": [(1, 0, 0)]}}

    def inputs(self, seed, size):
        p = self.sizes[size]
        rng = np.random.default_rng(seed)
        return {"n": p["n"], "m_grid": p["m_grid"], "gammas": p["gammas"],
                "extra_center": _jittered(rng, (-0.6, 0.4, 0.2))}

    def write_inputs(self, inputs, workdir):
        pass

    def prepare(self, inputs, workdir):
        from emiscat import cgo, vsc
        base = [BUMP["center"]], [BUMP["amplitude"]], [BUMP["width"]]
        n1 = _bump_medium(inputs["n"], *base)
        n2 = _bump_medium(inputs["n"], base[0] + [inputs["extra_center"]],
                          base[1] + [0.05], base[2] + [1.0])
        residuals = []

        def recording_cgo_solve(*args, **kwargs):
            # looked up at call time, so that a tracer's wrapper is used
            sol = cgo.cgo_solve(*args, **kwargs)
            residuals.append(sol.residual)
            return sol

        vsc.cgo_solve = recording_cgo_solve
        return {"vsc": vsc, "n1": n1, "n2": n2, "inputs": inputs,
                "residuals": residuals}

    def call(self, prep):
        inp = prep["inputs"]
        return [prep["vsc"].cgo_pair_estimate(
            prep["n1"], prep["n2"], gamma, self.t, KAPPA, R_INV,
            m_grid=inp["m_grid"]) for gamma in inp["gammas"]]

    def digest(self, estimates) -> str:
        return hashlib.sha256(repr(estimates).encode()).hexdigest()

    def check(self, prep, estimates, full):
        n1, n2 = prep["n1"], prep["n2"]
        diff = n1.coeffs - n2.coeffs
        gammas = prep["inputs"]["gammas"]
        refs = [diff[tuple(int(g) % n1.grid.n for g in gamma)]
                for gamma in gammas]
        return cgo_checks([corrected for corrected, _ in estimates], refs,
                          np.max(np.abs(diff)), prep["residuals"],
                          2 * len(gammas))


WORKLOADS = {w.name: w for w in (Nearfield(), Near2far(), Rates(),
                                 CgoPairing())}
