"""Command-line harness: configs, experiment pipelines, and artifacts.

Configs are INI files whose keys are declared once, each by a field of
``ExperimentConfig`` with its default and parser.  An undeclared key, an
unparsable value or a violated guard raises ``ConfigError`` (exit 2)
before the output directory exists.  Every run writes its artifacts plus
``manifest.json`` listing each output file with a SHA-256 content hash;
reruns with the same config and seed reproduce byte-identical payloads.
All randomness flows through one master seed recorded in the manifest.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import io as containers
from .cgo import cgo_solve, cgo_vectors
from .forward import (
    PlaneWave,
    ScatteringSolver,
    SphereGrid,
    far_field_coeffs,
    far_field_operator,
    near_field_operator,
    support_box,
)
from .fourier import (
    BumpProfile,
    CubeGrid,
    SobolevParams,
    hm_norm,
    make_test_index,
)
from .inversion import (
    InverseProblem,
    add_noise,
    alpha_rule,
    band_limited_index,
    check_levels,
    rate_study,
    tikhonov_reconstruct,
)
from .spherical import near_from_far
from .vsc import data_diff_norm, vsc_check


class ConfigError(Exception):
    """Invalid configuration; the message names the key or guard."""


def _key(section: str, key: str, default=None, parse=str, profile=None):
    """A field read from ``[section] key`` by ``parse``, else ``default``;
    a ``[medium]`` key that one medium ``profile`` alone reads names it."""
    return field(default=default, metadata=dict(
        key=(section, key), parse=parse, profile=profile))


def _guard(keys: str, build, *args):
    """``build(*args)``, whose guards' ValueError names config ``keys``."""
    try:
        return build(*args)
    except ValueError as err:
        raise ConfigError(f"guard violated by {keys}: {err}") from None


def _list(cast, sep=","):
    """Parser of a ``sep``-separated list into a tuple of ``cast`` values."""
    return lambda text: tuple(cast(v) for v in text.split(sep) if v.strip())


def _kind(text: str) -> str:
    """An experiment kind, one of ``KINDS``; ``run`` checks its argument
    with it too, so it raises ConfigError itself."""
    if text not in KINDS:
        raise ConfigError(f"unknown experiment kind {text!r}; "
                          f"expected one of {', '.join(KINDS)}")
    return text


@dataclass
class ExperimentConfig:
    """Every parameter of an experiment.  Each field but the four derived
    ones is read from the config key in its metadata; construction
    enforces the parameter guards and builds the derived fields."""

    kind: str | None = _key("experiment", "kind", None, _kind)
    kappa: float = _key("physics", "kappa", 1.0, float)
    R: float = _key("physics", "r", 1.2 * np.pi, float)
    n: int = _key("grids", "n", 16, int)
    n_theta: int = _key("grids", "n_theta", 2, int)
    n_phi: int = _key("grids", "n_phi", 4, int)
    L: int | None = _key("grids", "l", None, int)
    m: float = _key("smoothness", "m", 4.0, float)
    s: float = _key("smoothness", "s", 6.0, float)
    profile: str = _key("medium", "profile", "vacuum")
    centers: tuple = _key("medium", "centers", (), _list(_list(float), ";"),
                          "bump")
    amplitudes: tuple = _key("medium", "amplitudes", (), _list(complex),
                             "bump")
    widths: tuple = _key("medium", "widths", (), _list(float), "bump")
    b: float = _key("medium", "b", 0.5, float)
    band_gamma_max: float = _key("medium", "gamma_max", 2.0, float,
                                 "bandlimited")
    band_amplitude: float = _key("medium", "amplitude", 0.08, float,
                                 "bandlimited")
    deltas: tuple = _key("noise", "deltas", (), _list(float))
    seeds: tuple = _key("noise", "seeds", (), _list(int))
    cgo_gamma: tuple = _key("cgo", "gamma", (), _list(float))
    cgo_t: float | None = _key("cgo", "t", None, float)
    cgo_m_grid: int = _key("cgo", "m_grid", 32, int)
    inv_gamma_max: float = _key("inversion", "gamma_max", 2.0, float)
    inv_A: float = _key("inversion", "a", 1.0, float)
    inv_nu: float | None = _key("inversion", "nu", None, float)
    inv_alpha: float | None = _key("inversion", "alpha", None, float)
    inv_maxiter: int = _key("inversion", "maxiter", 40, int)
    vsc_members: int = _key("vsc", "members", 6, int)
    vsc_amplitude: float = _key("vsc", "amplitude", 0.02, float)
    vsc_beta: float = _key("vsc", "beta", 0.5, float)
    out_dir: str | None = _key("output", "directory")
    smoothness: SobolevParams = field(init=False)
    bump: BumpProfile = field(init=False)
    grid: CubeGrid = field(init=False)
    sphere: SphereGrid = field(init=False)

    def __post_init__(self):
        if self.profile not in ("vacuum", "bump", "bandlimited"):
            raise ConfigError(f"unknown [medium] profile {self.profile!r}; "
                              "expected vacuum, bump or bandlimited")
        for f in fields(self):
            reader = f.metadata.get("profile") or self.profile
            if reader != self.profile and getattr(self, f.name) != f.default:
                raise ConfigError(f"[medium] {f.metadata['key'][1]} is "
                                  f"read only under profile = {reader}")
        for keys, holds, rule in (
                ("[physics] kappa", self.kappa > 0, "kappa > 0"),
                ("[physics] r", self.R > np.pi, "R > pi"),
                ("[grids] l", self.L is None or self.L >= 0, "L >= 0"),
                ("[noise] deltas", min(self.deltas, default=0) >= 0,
                 "deltas >= 0"),
                ("[noise] seeds", min(self.seeds, default=0) >= 0,
                 "seeds >= 0"),
                ("[inversion] gamma_max", self.inv_gamma_max <= self.n // 2,
                 "gamma_max <= n/2, the Nyquist frequency of [grids] n"),
                ("[inversion] a", self.inv_A > 0, "A > 0"),
                ("[inversion] nu",
                 self.inv_nu is None or 0 < self.inv_nu < 1, "0 < nu < 1"),
                ("[inversion] alpha",
                 self.inv_alpha is None or self.inv_alpha > 0, "alpha > 0"),
                ("[inversion] maxiter", self.inv_maxiter >= 1, "maxiter >= 1"),
                ("[vsc] members", self.vsc_members >= 1, "members >= 1")):
            if not holds:
                raise ConfigError(f"guard violated by {keys}: requires {rule}")
        self.smoothness = _guard("[smoothness]", SobolevParams, self.m, self.s)
        self.bump = _guard("[medium]", BumpProfile, self.centers,
                           self.amplitudes, self.widths)
        self.grid = _guard("[grids] n", CubeGrid, np.pi, self.n)
        self.sphere = _guard("[grids] n_theta, n_phi", SphereGrid.build,
                             self.R, self.n_theta, self.n_phi)
        _guard("[cgo] m_grid", CubeGrid, 2.0 * self.R, self.cgo_m_grid)

    @property
    def nu(self) -> float:
        return self.inv_nu if self.inv_nu is not None else self.smoothness.nu


def load_config(path) -> ExperimentConfig:
    """Parse a config file into an :class:`ExperimentConfig`.  A key that
    no field declares, or a value that its parser rejects, raises
    :class:`ConfigError` naming the key; so does any violated guard."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
    except configparser.Error as err:
        raise ConfigError(f"cannot parse config {path}: {err}") from None
    keys = {f.metadata["key"]: f for f in fields(ExperimentConfig) if f.init}
    values = {}
    for section in parser.sections():
        for key in parser[section]:
            f = keys.get((section, key))
            if f is None:
                raise ConfigError(f"unknown config key [{section}] {key}")
            try:
                values[f.name] = f.metadata["parse"](parser.get(section, key))
            except (ValueError, configparser.Error) as err:
                raise ConfigError(f"cannot parse [{section}] {key}: "
                                  f"{err}") from None
    return ExperimentConfig(**values)


def _write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class Workspace:
    """Manifest of hashed artifacts in a directory made by the first write."""

    def __init__(self, out_dir, seed: int):
        self.dir = Path(out_dir)
        self.seed = seed
        self.artifacts = {}

    def write(self, name: str, writer, *args):
        """``writer(path, *args)`` writes the file ``name``; its SHA-256
        goes into the manifest."""
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / name
        writer(path, *args)
        self.artifacts[name] = hashlib.sha256(path.read_bytes()).hexdigest()

    def finish(self):
        """Write ``manifest.json``, which lists every artifact but itself."""
        manifest = {"seed": self.seed,
                    "artifacts": dict(sorted(self.artifacts.items()))}
        self.write("manifest.json", _write_json, manifest)
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


def build_medium(cfg: ExperimentConfig, seed: int):
    """The configured medium on ``cfg.grid``; bump media are checked."""
    if cfg.profile == "bandlimited":
        return band_limited_index(cfg.grid, cfg.band_gamma_max,
                                  cfg.band_amplitude, seed=seed)
    return _guard("[medium]", make_test_index, cfg.bump, cfg.grid, cfg.b)


def _require_bump_profile(cfg: ExperimentConfig, kind: str):
    """Reject media without a closed-form bump profile."""
    if cfg.profile not in ("vacuum", "bump"):
        raise ConfigError(f"{kind} runs do not support [medium] profile = "
                          f"{cfg.profile!r}; use 'vacuum' or 'bump'")


def _noise_seeds(cfg: ExperimentConfig, master: int, count: int):
    if cfg.seeds:
        if len(cfg.seeds) < count:
            raise ConfigError("fewer [noise] seeds than noise levels")
        return cfg.seeds[:count]
    return tuple(int(v) for v in
                 np.random.SeedSequence(master).generate_state(count))


def _box(medium) -> dict:
    """The lattice a run's solves work on: the first node and the node
    counts of the solver's box, per axis."""
    box = support_box(medium)
    return {"box_lo": [s.start for s in box],
            "box_shape": [s.stop - s.start for s in box]}


def run_forward(cfg, medium, ws: Workspace):
    solver = ScatteringSolver(medium, cfg.kappa)
    source = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
                       cfg.kappa)
    solved = solver.solve(source)
    residual = solver.residual(solved, source)
    # the fields are written on the whole grid: off the box, E_inc + P(E)
    total = solver.grid_field(solved, source)
    scattered = total - source.electric(medium.grid.points())
    ws.write("total_field.fld", containers.write_field, total, medium.grid,
             "total-electric")
    ws.write("scattered_field.fld", containers.write_field, scattered,
             medium.grid, "scattered-electric")
    ws.write("forward_summary.json", _write_json, {
        "kind": "forward", "kappa": cfg.kappa, "n": cfg.n,
        "residual": residual,
        "scattered_max": float(np.max(np.abs(scattered))), **_box(medium),
    })


def run_nearfield(cfg, medium, ws: Workspace):
    data = near_field_operator(medium, cfg.kappa, cfg.sphere)
    ws.write("near_data.dat", containers.write_data, data)
    ws.write("nearfield_summary.json", _write_json, {
        "kind": "nearfield", "kappa": cfg.kappa, "radius": cfg.R,
        "nodes": int(cfg.sphere.nodes.shape[0]), "norm": data.norm(),
        **_box(medium),
    })


def run_farfield(cfg, medium, ws: Workspace):
    unit = SphereGrid.build(1.0, cfg.n_theta, cfg.n_phi)
    data = far_field_operator(medium, cfg.kappa, unit, unit)
    ws.write("far_data.dat", containers.write_data, data)
    ws.write("farfield_summary.json", _write_json, {
        "kind": "farfield", "kappa": cfg.kappa,
        "nodes": int(unit.nodes.shape[0]), "norm": data.norm(),
        **_box(medium),
    })


def run_cgo(cfg, medium, ws: Workspace):
    if cfg.cgo_t is None or not cfg.cgo_gamma:
        raise ConfigError("cgo runs need [cgo] gamma and t")
    _require_bump_profile(cfg, "cgo")
    v = _guard("[cgo] gamma, t", cgo_vectors, cfg.cgo_gamma, cfg.cgo_t,
               cfg.kappa)
    sol = cgo_solve(medium, v.zeta1, v.eta1, cfg.R, m_grid=cfg.cgo_m_grid,
                    kappa=cfg.kappa, rotation=v.rotation)
    ws.write("cgo_u.fld", containers.write_field, sol.u, sol.grid,
             "cgo-electric-profile")
    ws.write("cgo_h.fld", containers.write_field, sol.h, sol.grid,
             "cgo-magnetic-profile")
    # zeta, eta and the fields are in the rotated CGO frame; rotation^T
    # brings zeta and eta back to the medium's frame
    ws.write("cgo_summary.json", _write_json, {
        "kind": "cgo", "t": cfg.cgo_t, "kappa": cfg.kappa,
        "frame": "rotated", "rotation": v.rotation.tolist(),
        "zeta_re": list(np.real(sol.zeta)), "zeta_im": list(np.imag(sol.zeta)),
        "eta_re": list(np.real(sol.eta)), "eta_im": list(np.imag(sol.eta)),
        "residual": sol.residual, "iterations": sol.iterations,
        "step": sol.step,
        "contraction": float(max(sol.contraction)) if sol.contraction else None,
        "remainder_norm": sol.remainder_norm(),
    })


def run_vsc_check(cfg, base, ws: Workspace):
    _require_bump_profile(cfg, "vsc-check")
    rng = np.random.default_rng(ws.seed)
    family = []
    for _ in range(cfg.vsc_members):
        center = rng.uniform(-0.5, 0.5, size=3)
        width = rng.uniform(1.0, 1.6)
        amp = cfg.vsc_amplitude * rng.uniform(0.5, 1.0)
        prof = BumpProfile(
            centers=base.profile.centers + (tuple(center),),
            amplitudes=base.profile.amplitudes + (amp,),
            widths=base.profile.widths + (width,))
        family.append(_guard("[vsc] amplitude", make_test_index, prof,
                             base.grid, cfg.b))
    w_base = near_field_operator(base, cfg.kappa, cfg.sphere)
    misfits = [data_diff_norm(near_field_operator(member, cfg.kappa,
                                                  cfg.sphere), w_base)
               for member in family]
    report = vsc_check(base, family, misfits, cfg.m, cfg.nu,
                       beta=cfg.vsc_beta)
    ws.write("vsc_samples.csv", _write_csv,
             ["member", "lhs", "quad_term", "misfit_sq",
              "cauchy_schwarz_branch", "margin"],
             [[s.member, s.lhs, s.quad_term, s.misfit_sq,
               s.cauchy_schwarz_branch, s.margin]
              for s in report.samples])
    ws.write("vsc_summary.json", _write_json, {
        "kind": "vsc-check", "A": report.A, "beta": report.beta,
        "nu": report.nu, "violations": report.violations(),
        "members": len(report.samples),
    })


def _near_problem(cfg, data, delta):
    return InverseProblem(kind="near", kappa=cfg.kappa, grid=cfg.grid,
                          data=data, delta=delta, m=cfg.m,
                          gamma_max=cfg.inv_gamma_max, b=cfg.b)


def run_invert(cfg, truth, ws: Workspace):
    if not cfg.deltas:
        raise ConfigError("invert runs need [noise] deltas (first entry used)")
    delta = cfg.deltas[0]
    seed = _noise_seeds(cfg, ws.seed, 1)[0]
    alpha = cfg.inv_alpha if cfg.inv_alpha is not None \
        else _guard("[noise] deltas", alpha_rule, delta, cfg.inv_A, cfg.nu)
    grid = truth.grid
    clean = near_field_operator(truth, cfg.kappa, cfg.sphere)
    noisy = add_noise(clean, delta, seed)
    prob = _near_problem(cfg, noisy, delta)
    res = tikhonov_reconstruct(prob, alpha, maxiter=cfg.inv_maxiter)
    ws.write("reconstruction.fld", containers.write_field, res.medium.values,
             grid, "refractive-index")
    ws.write("invert_summary.json", _write_json, {
        "kind": "invert", "delta": delta, "alpha": alpha,
        "misfit": res.misfit, "penalty": res.penalty,
        "functional": res.functional, "iterations": res.iterations,
        "converged": res.converged,
        "admissible_re": res.admissible_re, "admissible_im": res.admissible_im,
        "error_hm": float(hm_norm(res.coeffs - truth.coeffs, cfg.m, grid)),
    })


def run_rates(cfg, truth, ws: Workspace):
    seeds = _noise_seeds(cfg, ws.seed, len(cfg.deltas))
    _guard("[noise] deltas", check_levels, cfg.deltas, seeds)
    clean = near_field_operator(truth, cfg.kappa, cfg.sphere)
    prob = _near_problem(cfg, clean, 0.0)
    study = rate_study(truth, prob, cfg.deltas, seeds, cfg.inv_A, cfg.nu,
                       maxiter=cfg.inv_maxiter)
    ws.write("rates.csv", _write_csv,
             ["delta", "alpha", "error", "misfit", "iterations"],
             [[d, a, e, m, i] for d, a, e, m, i in
              zip(study.deltas, study.alphas, study.errors,
                  study.misfits, study.iterations)])
    ws.write("rates_summary.json", _write_json, {
        "kind": "rates", "nu_hat": study.nu_hat, "nu_theory": study.nu_theory,
        "monotonicity_violations": study.monotonicity_violations,
        "floor": study.floor, "levels": len(study.deltas),
    })


def run_near2far(cfg, medium, ws: Workspace):
    L = cfg.L if cfg.L is not None else int(np.ceil(cfg.kappa * cfg.R)) + 12
    n_theta = L + 1
    n_phi = 2 * L + 1
    unit = SphereGrid.build(1.0, n_theta, n_phi)
    coeffs = far_field_coeffs(medium, cfg.kappa, unit, unit, L)
    ws.write("far_coeffs.alf", containers.write_far_coeffs, coeffs)
    # compare the series reconstruction on 2R with direct near data
    eval_pts = SphereGrid.build(2.0 * cfg.R, cfg.n_theta, cfg.n_phi)
    direct = near_field_operator(medium, cfg.kappa, cfg.sphere,
                                 receivers=eval_pts)
    series = np.zeros_like(direct.matrices)
    shells = []
    for ix, x in enumerate(eval_pts.points()):
        for iy, y in enumerate(cfg.sphere.points()):
            series[ix, iy], last = near_from_far(coeffs, cfg.kappa, x, y)
            shells.append(last)
    num = np.linalg.norm(series - direct.matrices)
    den = np.linalg.norm(direct.matrices)
    rel = float(num / den) if den > 0 else 0.0
    ws.write("near2far_summary.json", _write_json, {
        "kind": "near2far", "L": L, "relative_error": rel,
        "direct_norm": float(den), "last_shell_max": float(max(shells)),
        **_box(medium),
    })


RUNNERS = {"forward": run_forward, "nearfield": run_nearfield,
           "farfield": run_farfield, "cgo": run_cgo,
           "vsc-check": run_vsc_check, "invert": run_invert,
           "rates": run_rates, "near2far": run_near2far}
KINDS = tuple(RUNNERS)


def run(kind: str, config_path, out_dir=None, seed: int = 0,
        threads: int = 1) -> dict:
    """Execute one experiment with ``threads`` FFT workers.

    The workers are ``scipy.fft``'s and serve the forward solver: they run
    its transforms, and a box potential of more than one block of slabs
    also shares its blocks out over ``threads`` threads, which end with
    the potential.  The ``cgo`` pipeline calls no solver: its transforms
    run on numpy, which has no workers, so it loads no scipy and ignores
    ``threads``."""
    _kind(kind)
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    if seed < 0:
        raise ConfigError(f"--seed {seed}: the seed must be nonnegative")
    cfg = load_config(config_path)
    if cfg.kind is not None and cfg.kind != kind:
        raise ConfigError(f"config declares kind {cfg.kind!r} but the "
                          f"{kind!r} subcommand was invoked")
    target = out_dir or cfg.out_dir
    if target is None:
        raise ConfigError("no output directory (config [output] or --out)")
    medium = build_medium(cfg, seed)
    ws = Workspace(target, seed)
    if kind == "cgo":
        run_cgo(cfg, medium, ws)
    else:
        import scipy.fft

        with scipy.fft.set_workers(threads):
            RUNNERS[kind](cfg, medium, ws)
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
