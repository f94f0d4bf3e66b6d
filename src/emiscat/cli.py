"""Command-line harness: configs, experiment pipelines, and artifacts.

Configs are INI files (flat key-value sections, no programmable logic).
Every run writes its artifacts plus ``manifest.json`` listing each output
file with a SHA-256 content hash; reruns with the same config and seed
reproduce byte-identical payloads.  All randomness flows through one
master seed recorded in the manifest.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.fft

from . import io as containers
from .cgo import cgo_solve, cgo_vectors, rotate_index, rotation_to_axis
from .forward import (
    PlaneWave,
    ScatteringSolver,
    SphereGrid,
    far_field_operator,
    near_field_operator,
)
from .fourier import (
    BumpProfile,
    CubeGrid,
    SobolevParams,
    make_test_index,
)
from .inversion import (
    InverseProblem,
    add_noise,
    alpha_rule,
    band_limited_index,
    rate_study,
    tikhonov_reconstruct,
)
from .spherical import far_coeffs, near_from_far
from .vsc import data_diff_norm, vsc_check

KINDS = ("forward", "nearfield", "farfield", "cgo", "vsc-check", "invert",
         "rates", "near2far")


class ConfigError(Exception):
    """Invalid experiment configuration; the message names the guard."""


@dataclass
class ExperimentConfig:
    kind: str | None
    kappa: float
    R: float
    n: int
    n_theta: int
    n_phi: int
    L: int | None
    m: float
    s: float
    theta: float | None
    profile: str
    bump: BumpProfile
    b: float
    band_gamma_max: float
    band_amplitude: float
    deltas: tuple
    seeds: tuple
    cgo_gamma: tuple
    cgo_t: float | None
    cgo_m_grid: int
    inv_gamma_max: float
    inv_A: float
    inv_nu: float | None
    inv_alpha: float | None
    inv_maxiter: int
    vsc_members: int
    vsc_amplitude: float
    vsc_beta: float
    out_dir: str | None

    @property
    def smoothness(self) -> SobolevParams:
        return SobolevParams(self.m, self.s)

    @property
    def nu(self) -> float:
        return self.inv_nu if self.inv_nu is not None else self.smoothness.nu


def _triples(text: str):
    out = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            out.append(tuple(float(v) for v in part.split(",")))
    return tuple(out)


def _floats(text: str):
    return tuple(float(v) for v in text.split(",") if v.strip())


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file, enforcing the parameter guards."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")

    def get(section, key, default=None, cast=str):
        if parser.has_option(section, key):
            return cast(parser.get(section, key))
        return default

    kind = get("experiment", "kind")
    if kind is not None and kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; "
                          f"expected one of {', '.join(KINDS)}")
    kappa = get("physics", "kappa", 1.0, float)
    R = get("physics", "r", 1.2 * np.pi, float)
    m = get("smoothness", "m", 4.0, float)
    s = get("smoothness", "s", 6.0, float)
    theta = get("smoothness", "theta", None, float)
    # parameter guards; each rejection names the violated constraint
    if R <= np.pi:
        raise ConfigError(f"guard violated: R = {R} but the measurement "
                          "radius requires R > pi")
    if m <= 3.5:
        raise ConfigError(f"guard violated: m = {m} but the smoothness "
                          "order requires m > 7/2")
    if s <= m:
        raise ConfigError(f"guard violated: s = {s}, m = {m} but the "
                          "smoothness orders require s > m")
    if abs(s - (2.0 * m + 1.5)) < 1e-12:
        raise ConfigError(f"guard violated: s = {s} = 2m + 3/2 is the "
                          "excluded exceptional case (requires s != 2m + 3/2)")
    if theta is not None and not 0.0 < theta < 1.0:
        raise ConfigError(f"guard violated: theta = {theta} but the "
                          "far-field interpolation requires 0 < theta < 1")

    bump = BumpProfile(
        centers=_triples(get("medium", "centers", "")),
        amplitudes=tuple(complex(a) for a in
                         get("medium", "amplitudes", "").split(",") if a.strip()),
        widths=_floats(get("medium", "widths", "")),
    )
    gamma = get("cgo", "gamma", None)
    return ExperimentConfig(
        kind=kind, kappa=kappa, R=R,
        n=get("grids", "n", 16, int),
        n_theta=get("grids", "n_theta", 2, int),
        n_phi=get("grids", "n_phi", 4, int),
        L=get("grids", "l", None, int),
        m=m, s=s, theta=theta,
        profile=get("medium", "profile", "vacuum"),
        bump=bump,
        b=get("medium", "b", 0.5, float),
        band_gamma_max=get("medium", "gamma_max", 2.0, float),
        band_amplitude=get("medium", "amplitude", 0.08, float),
        deltas=_floats(get("noise", "deltas", "")),
        seeds=tuple(int(v) for v in get("noise", "seeds", "").split(",")
                    if v.strip()),
        cgo_gamma=tuple(float(v) for v in gamma.split(",")) if gamma else (),
        cgo_t=get("cgo", "t", None, float),
        cgo_m_grid=get("cgo", "m_grid", 32, int),
        inv_gamma_max=get("inversion", "gamma_max", 2.0, float),
        inv_A=get("inversion", "a", 1.0, float),
        inv_nu=get("inversion", "nu", None, float),
        inv_alpha=get("inversion", "alpha", None, float),
        inv_maxiter=get("inversion", "maxiter", 40, int),
        vsc_members=get("vsc", "members", 6, int),
        vsc_amplitude=get("vsc", "amplitude", 0.02, float),
        vsc_beta=get("vsc", "beta", 0.5, float),
        out_dir=get("output", "directory", None),
    )


class Workspace:
    """Output directory with a manifest of hashed artifacts."""

    def __init__(self, out_dir, seed: int):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.artifacts = {}

    def path(self, name: str) -> Path:
        return self.dir / name

    def record(self, name: str):
        digest = hashlib.sha256(self.path(name).read_bytes()).hexdigest()
        self.artifacts[name] = digest

    def write_json(self, name: str, payload: dict):
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.record(name)

    def write_csv(self, name: str, header, rows):
        with open(self.path(name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        self.record(name)

    def finish(self):
        manifest = {"seed": self.seed,
                    "artifacts": dict(sorted(self.artifacts.items()))}
        with open(self.path("manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest


def verify_manifest(out_dir) -> bool:
    """Re-hash every artifact listed in a manifest."""
    out = Path(out_dir)
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    for name, digest in manifest["artifacts"].items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
            return False
    return True


def build_medium(cfg: ExperimentConfig, grid: CubeGrid, seed: int):
    if cfg.profile == "vacuum":
        return make_test_index(BumpProfile(), grid, b=cfg.b,
                               smoothness=cfg.smoothness)
    if cfg.profile == "bump":
        return make_test_index(cfg.bump, grid, b=cfg.b,
                               smoothness=cfg.smoothness)
    if cfg.profile == "bandlimited":
        return band_limited_index(grid, cfg.band_gamma_max,
                                  cfg.band_amplitude, seed=seed)
    raise ConfigError(f"unknown medium profile {cfg.profile!r}")


def _noise_seeds(cfg: ExperimentConfig, master: int, count: int):
    if cfg.seeds:
        if len(cfg.seeds) < count:
            raise ConfigError("fewer seeds than noise levels in config")
        return cfg.seeds[:count]
    return tuple(int(v) for v in
                 np.random.SeedSequence(master).generate_state(count))


def run_forward(cfg, ws: Workspace):
    grid = CubeGrid(np.pi, cfg.n)
    medium = build_medium(cfg, grid, ws.seed)
    solver = ScatteringSolver(medium, cfg.kappa)
    source = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
                       cfg.kappa)
    total = solver.solve(source)
    scattered = total.values - source.electric(solver.pts)
    containers.write_field(ws.path("total_field.fld"), total.values, grid,
                           kind="total-electric")
    ws.record("total_field.fld")
    containers.write_field(ws.path("scattered_field.fld"), scattered, grid,
                           kind="scattered-electric")
    ws.record("scattered_field.fld")
    ws.write_json("forward_summary.json", {
        "kind": "forward", "kappa": cfg.kappa, "n": cfg.n,
        "residual": solver.residual(total, source),
        "scattered_max": float(np.max(np.abs(scattered))),
    })


def run_nearfield(cfg, ws: Workspace):
    grid = CubeGrid(np.pi, cfg.n)
    medium = build_medium(cfg, grid, ws.seed)
    sphere = SphereGrid.build(cfg.R, cfg.n_theta, cfg.n_phi)
    data = near_field_operator(medium, cfg.kappa, sphere)
    containers.write_data(ws.path("near_data.dat"), data)
    ws.record("near_data.dat")
    ws.write_json("nearfield_summary.json", {
        "kind": "nearfield", "kappa": cfg.kappa, "radius": cfg.R,
        "nodes": int(sphere.nodes.shape[0]), "norm": data.norm(),
    })


def run_farfield(cfg, ws: Workspace):
    grid = CubeGrid(np.pi, cfg.n)
    medium = build_medium(cfg, grid, ws.seed)
    unit = SphereGrid.build(1.0, cfg.n_theta, cfg.n_phi)
    data = far_field_operator(medium, cfg.kappa, unit, unit)
    containers.write_data(ws.path("far_data.dat"), data)
    ws.record("far_data.dat")
    ws.write_json("farfield_summary.json", {
        "kind": "farfield", "kappa": cfg.kappa,
        "nodes": int(unit.nodes.shape[0]), "norm": data.norm(),
    })


def run_cgo(cfg, ws: Workspace):
    if cfg.cgo_t is None or not cfg.cgo_gamma:
        raise ConfigError("cgo runs need [cgo] gamma and t")
    if cfg.profile not in ("vacuum", "bump"):
        raise ConfigError(f"cgo runs do not support [medium] profile = "
                          f"{cfg.profile!r}; use 'vacuum' or 'bump'")
    grid = CubeGrid(np.pi, cfg.n)
    medium = build_medium(cfg, grid, ws.seed)
    gamma = np.asarray(cfg.cgo_gamma, dtype=float)
    v = cgo_vectors(gamma, cfg.cgo_t, cfg.kappa)
    rot = rotation_to_axis(v.a1, v.a2, gamma / np.linalg.norm(gamma))
    sol = cgo_solve(rotate_index(medium, rot), rot @ v.zeta1, rot @ v.eta1,
                    cfg.R, m_grid=cfg.cgo_m_grid, kappa=cfg.kappa)
    containers.write_field(ws.path("cgo_u.fld"), sol.u, sol.grid,
                           kind="cgo-electric-profile")
    ws.record("cgo_u.fld")
    containers.write_field(ws.path("cgo_h.fld"), sol.h, sol.grid,
                           kind="cgo-magnetic-profile")
    ws.record("cgo_h.fld")
    ws.write_json("cgo_summary.json", {
        "kind": "cgo", "t": sol.t, "kappa": cfg.kappa,
        "zeta_re": list(np.real(sol.zeta)), "zeta_im": list(np.imag(sol.zeta)),
        "eta_re": list(np.real(sol.eta)), "eta_im": list(np.imag(sol.eta)),
        "residual": sol.residual,
        "contraction": float(max(sol.contraction)) if sol.contraction else None,
        "remainder_norm": sol.remainder_norm(),
    })


def run_vsc_check(cfg, ws: Workspace):
    grid = CubeGrid(np.pi, cfg.n)
    base = make_test_index(cfg.bump if cfg.profile == "bump" else BumpProfile(),
                           grid, b=cfg.b, smoothness=cfg.smoothness)
    sphere = SphereGrid.build(cfg.R, cfg.n_theta, cfg.n_phi)
    w_base = near_field_operator(base, cfg.kappa, sphere)
    rng = np.random.default_rng(ws.seed)
    family, misfits = [], []
    for _ in range(cfg.vsc_members):
        center = rng.uniform(-0.5, 0.5, size=3)
        width = rng.uniform(1.0, 1.6)
        amp = cfg.vsc_amplitude * rng.uniform(0.5, 1.0)
        prof = BumpProfile(
            centers=cfg.bump.centers + (tuple(center),),
            amplitudes=cfg.bump.amplitudes + (amp,),
            widths=cfg.bump.widths + (width,))
        member = make_test_index(prof, grid, b=cfg.b,
                                 smoothness=cfg.smoothness)
        family.append(member)
        misfits.append(data_diff_norm(
            near_field_operator(member, cfg.kappa, sphere), w_base))
    report = vsc_check(base, family, misfits, cfg.m, cfg.nu,
                       beta=cfg.vsc_beta, family_id="cli")
    ws.write_csv("vsc_samples.csv",
                 ["member", "lhs", "quad_term", "misfit_sq",
                  "cauchy_schwarz_branch", "margin"],
                 [[s.member, s.lhs, s.quad_term, s.misfit_sq,
                   s.cauchy_schwarz_branch, s.margin]
                  for s in report.samples])
    ws.write_json("vsc_summary.json", {
        "kind": "vsc-check", "A": report.A, "beta": report.beta,
        "nu": report.nu, "violations": report.violations(),
        "members": len(report.samples),
    })


def _near_problem(cfg, grid, data):
    return InverseProblem(kind="near", kappa=cfg.kappa, grid=grid, data=data,
                          delta=0.0, m=cfg.m, gamma_max=cfg.inv_gamma_max,
                          b=cfg.b)


def run_invert(cfg, ws: Workspace):
    if not cfg.deltas:
        raise ConfigError("invert runs need [noise] deltas (first entry used)")
    grid = CubeGrid(np.pi, cfg.n)
    truth = build_medium(cfg, grid, ws.seed)
    sphere = SphereGrid.build(cfg.R, cfg.n_theta, cfg.n_phi)
    clean = near_field_operator(truth, cfg.kappa, sphere)
    delta = cfg.deltas[0]
    seed = _noise_seeds(cfg, ws.seed, 1)[0]
    noisy = add_noise(clean, delta, seed)
    alpha = cfg.inv_alpha if cfg.inv_alpha is not None \
        else alpha_rule(delta, cfg.inv_A, cfg.nu)
    prob = _near_problem(cfg, grid, noisy)
    prob.delta = delta
    res = tikhonov_reconstruct(prob, alpha, maxiter=cfg.inv_maxiter)
    containers.write_field(ws.path("reconstruction.fld"),
                           res.medium.values, grid, kind="refractive-index")
    ws.record("reconstruction.fld")
    from .fourier import hm_norm
    ws.write_json("invert_summary.json", {
        "kind": "invert", "delta": delta, "alpha": alpha,
        "misfit": res.misfit, "penalty": res.penalty,
        "functional": res.functional, "iterations": res.iterations,
        "converged": res.converged, "monotone": res.monotone,
        "admissible_re": res.admissible_re, "admissible_im": res.admissible_im,
        "error_hm": float(hm_norm(res.coeffs - truth.coeffs, cfg.m, grid)),
    })


def run_rates(cfg, ws: Workspace):
    if len(cfg.deltas) < 2:
        raise ConfigError("rates runs need at least two [noise] deltas")
    grid = CubeGrid(np.pi, cfg.n)
    truth = build_medium(cfg, grid, ws.seed)
    sphere = SphereGrid.build(cfg.R, cfg.n_theta, cfg.n_phi)
    clean = near_field_operator(truth, cfg.kappa, sphere)
    prob = _near_problem(cfg, grid, clean)
    seeds = _noise_seeds(cfg, ws.seed, len(cfg.deltas))
    study = rate_study(truth, prob, cfg.deltas, seeds, cfg.inv_A, cfg.nu,
                       maxiter=cfg.inv_maxiter)
    ws.write_csv("rates.csv",
                 ["delta", "alpha", "error", "misfit", "iterations"],
                 [[d, a, e, m, i] for d, a, e, m, i in
                  zip(study.deltas, study.alphas, study.errors,
                      study.misfits, study.iterations)])
    ws.write_json("rates_summary.json", {
        "kind": "rates", "nu_hat": study.nu_hat, "nu_theory": study.nu_theory,
        "monotonicity_violations": study.monotonicity_violations,
        "floor": study.floor, "levels": len(study.deltas),
    })


def run_near2far(cfg, ws: Workspace):
    grid = CubeGrid(np.pi, cfg.n)
    medium = build_medium(cfg, grid, ws.seed)
    L = cfg.L if cfg.L is not None else int(np.ceil(cfg.kappa * cfg.R)) + 12
    n_theta = L + 1
    n_phi = 2 * L + 1
    unit = SphereGrid.build(1.0, n_theta, n_phi)
    far = far_field_operator(medium, cfg.kappa, unit, unit)
    coeffs = far_coeffs(far, L)
    containers.write_far_coeffs(ws.path("far_coeffs.alf"), coeffs)
    ws.record("far_coeffs.alf")
    # compare the series reconstruction on 2R with direct near data
    src_sphere = SphereGrid.build(cfg.R, cfg.n_theta, cfg.n_phi)
    eval_pts = SphereGrid.build(2.0 * cfg.R, cfg.n_theta, cfg.n_phi)
    direct = near_field_operator(medium, cfg.kappa, src_sphere,
                                 receivers=eval_pts)
    series = np.zeros_like(direct.matrices)
    shells = []
    for ix, x in enumerate(eval_pts.points()):
        for iy, y in enumerate(src_sphere.points()):
            series[ix, iy], last = near_from_far(coeffs, cfg.kappa, x, y)
            shells.append(last)
    num = np.linalg.norm(series - direct.matrices)
    den = np.linalg.norm(direct.matrices)
    rel = float(num / den) if den > 0 else 0.0
    ws.write_json("near2far_summary.json", {
        "kind": "near2far", "L": L, "relative_error": rel,
        "direct_norm": float(den), "last_shell_max": float(max(shells)),
    })


RUNNERS = {"forward": run_forward, "nearfield": run_nearfield,
           "farfield": run_farfield, "cgo": run_cgo,
           "vsc-check": run_vsc_check, "invert": run_invert,
           "rates": run_rates, "near2far": run_near2far}


def run(kind: str, config_path, out_dir=None, seed: int = 0,
        threads: int = 1) -> dict:
    """Execute one experiment with ``threads`` FFT workers."""
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    cfg = load_config(config_path)
    if cfg.kind is not None and cfg.kind != kind:
        raise ConfigError(f"config declares kind {cfg.kind!r} but the "
                          f"{kind!r} subcommand was invoked")
    target = out_dir or cfg.out_dir
    if target is None:
        raise ConfigError("no output directory (config [output] or --out)")
    ws = Workspace(target, seed)
    with scipy.fft.set_workers(threads):
        RUNNERS[kind](cfg, ws)
    return ws.finish()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="emiscat",
        description="Electromagnetic inverse medium scattering experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        manifest = run(args.command, args.config, out_dir=args.out,
                       seed=args.seed, threads=args.threads)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"wrote {len(manifest['artifacts'])} artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
