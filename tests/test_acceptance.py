"""Acceptance gate: one end-to-end check per headline property.

Each test prints exactly one PASS/FAIL line for its criterion (visible
with ``pytest -s``; ``pytest -v`` additionally shows one PASSED/FAILED
line per criterion through the test names).  The checks exercise the
library end to end against independent oracles: a Lorenz-Mie series for
the forward solver, analytic operator bounds, algebraic identities, and
cross-module consistency (far-field series vs direct near-field data).

This suite is the slow one (roughly 25 minutes on a single core); the
fast unit tests live in the per-module test files.
"""

import sys

import numpy as np
import pytest

sys.path.insert(0, "tests")

from emiscat.cgo import (
    FaddeevOperator,
    cgo_solve,
    cgo_vectors,
    t_min,
)
from emiscat.forward import (
    NearFieldData,
    PlaneWave,
    ScatteringSolver,
    SphereGrid,
    far_field_coeffs,
    near_field_operator,
)
from emiscat.fourier import (
    BumpProfile,
    CubeGrid,
    RefractiveIndex,
    embedding_constant,
    hm_norm,
    make_test_index,
)
from emiscat.inversion import (
    InverseProblem,
    _ForwardState,
    add_noise,
    alpha_rule,
    band_limited_index,
    rate_study,
)
from emiscat.spherical import near_from_far
from emiscat.vsc import (
    check_fourier_diff,
    data_diff_norm,
    highfreq_tail,
    vsc_check,
)
from mie_reference import far_matrix

KAPPA = 1.0


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num:2d} ({label}): {status} [{detail}]")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _bump(grid, amplitude=0.2, width=1.5, center=(0.3, -0.2, 0.1), b=0.7):
    prof = BumpProfile(centers=(center,), amplitudes=(amplitude,),
                       widths=(width,))
    return make_test_index(prof, grid, b=b)


def test_01_far_field_matches_mie_series():
    """Sharp homogeneous ball vs the independent Lorenz-Mie oracle."""
    a, n0, N = 1.0, 1.2, 48
    grid = CubeGrid(np.pi, N)
    vals = np.where(grid.radii() < a, n0, 1.0).astype(complex)
    med = RefractiveIndex(grid=grid, values=vals, b=0.5)
    solver = ScatteringSolver(med, KAPPA)
    rec = SphereGrid.build(1.0, 8, 16)
    d = np.array([0.0, 0.0, 1.0])
    t1, t2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    pats = [solver.far_pattern(solver.solve(PlaneWave(d, t, KAPPA)),
                               rec.nodes) for t in (t1, t2)]
    mat = np.empty((rec.nodes.shape[0], 3, 3), dtype=complex)
    for j in range(3):
        mat[:, :, j] = t1[j] * pats[0] + t2[j] * pats[1]
    mie = np.stack([far_matrix(x, d, KAPPA, a, n0) for x in rec.nodes])
    w = rec.weights[:, None, None]
    rel = float(np.sqrt(np.sum(w * np.abs(mat - mie) ** 2)
                        / np.sum(w * np.abs(mie) ** 2)))
    _report(1, "Mie far-field oracle", rel <= 0.02, f"rel L2 {rel:.2e} <= 2e-2")


def test_02_born_deviation_scales_linearly():
    """Deviation from the first Born approximation halves with the contrast."""
    grid = CubeGrid(np.pi, 24)
    pw = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), KAPPA)
    ratios = []
    for amp in (0.02, 0.01, 0.005):
        solver = ScatteringSolver(_bump(grid, amplitude=amp, b=1.0), KAPPA)
        e = solver.solve(pw)
        born = solver.born_field(pw)
        dev = np.linalg.norm(e - born)
        scat = np.linalg.norm(born - pw.electric(solver.pts))
        ratios.append(dev / scat)
    halvings = [r1 / r2 for r1, r2 in zip(ratios, ratios[1:])]
    ok = all(1.5 <= h <= 2.5 for h in halvings)
    _report(2, "Born-regime linear scaling", ok,
            "halving ratios " + ", ".join(f"{h:.2f}" for h in halvings)
            + " in [1.5, 2.5]")


def test_03_reciprocity_of_near_field_data():
    """w^s(x, y) = w^s(y, x)^T aggregated over a 26-node sphere grid."""
    grid = CubeGrid(np.pi, 48)
    med = _bump(grid)
    sg = SphereGrid.build(1.5 * np.pi, 2, 13)
    assert sg.nodes.shape[0] == 26
    W = near_field_operator(med, KAPPA, sg).matrices
    WT = np.swapaxes(np.swapaxes(W, 0, 1), 2, 3)
    rel = float(np.linalg.norm(W - WT) / np.linalg.norm(W))
    _report(3, "reciprocity", rel <= 1e-3, f"aggregated {rel:.2e} <= 1e-3")


def test_04_conjugated_laplacian_inverse_norm_bound():
    """||G_zeta f|| / ||f|| <= R'' / (pi t) on random inputs, both t levels."""
    R = 1.2 * np.pi
    grid16 = CubeGrid(np.pi, 16)
    med = _bump(grid16, b=0.8)
    lm = embedding_constant(4.0)
    cm = hm_norm(med.coeffs, 4.0, grid16)
    t0 = t_min(R, KAPPA, 0.8, lm * cm)
    grid = CubeGrid(2.0 * R, 32)
    rng = np.random.default_rng(7)
    worst, violations = 0.0, 0
    for t in (t0, 2.0 * t0):
        zeta = np.array([np.sqrt(t**2 + KAPPA**2), 0.0, 1j * t])
        op = FaddeevOperator(zeta, grid)  # raises if the floor is violated
        bound = grid.half_side / (np.pi * t)
        for _ in range(10):
            f = (rng.standard_normal((32,) * 3)
                 + 1j * rng.standard_normal((32,) * 3))
            ratio = float(np.linalg.norm(op(f)) / np.linalg.norm(f))
            worst = max(worst, ratio / bound)
            violations += ratio > bound * (1.0 + 1e-12)
    _report(4, "conjugated-inverse norm bound", violations == 0,
            f"20 inputs, worst ratio/bound {worst:.3f}, {violations} violations")


def test_05_cgo_maxwell_residual_and_remainder_decay():
    """Assembled CGO pair solves Maxwell; remainder decays like 1/t."""
    R = 1.2 * np.pi
    grid = CubeGrid(np.pi, 16)
    med = _bump(grid, b=0.8)
    lm = embedding_constant(4.0)
    t0 = t_min(R, KAPPA, 0.8, lm * hm_norm(med.coeffs, 4.0, grid))
    gamma = np.array([1.0, 0.0, 0.0])
    rems, res64, res96 = [], None, None
    for i, t in enumerate((t0, 2.0 * t0, 4.0 * t0)):
        vt = cgo_vectors(gamma, t, KAPPA)
        sol = cgo_solve(med, vt.zeta1, vt.eta1, R, m_grid=64, kappa=KAPPA,
                        rotation=vt.rotation)
        rems.append(sol.remainder_norm())
        if i == 0:
            res64 = sol.residual
            res96 = cgo_solve(med, vt.zeta1, vt.eta1, R, m_grid=96,
                              kappa=KAPPA, rotation=vt.rotation).residual
    slope = float(np.polyfit(np.log([t0, 2 * t0, 4 * t0]), np.log(rems), 1)[0])
    ok = res64 <= 1e-4 and res96 < res64 and abs(slope + 1.0) <= 0.3
    _report(5, "CGO validity", ok,
            f"residual {res64:.1e} -> {res96:.1e} under refinement, "
            f"remainder slope {slope:.3f} = -1 +/- 0.3")


def test_06_complex_frequency_vector_algebra():
    """zeta.zeta = kappa^2, zeta.eta = 0, zeta1+zeta2 = -gamma, norms."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        gamma = rng.standard_normal(3)
        gamma *= rng.uniform(0.5, 4.0) / np.linalg.norm(gamma)
        t = rng.uniform(np.linalg.norm(gamma), 50.0)
        v = cgo_vectors(gamma, t, KAPPA)
        target = np.sqrt(2.0 * t**2 + KAPPA**2)
        errs = []
        for zeta, eta in ((v.zeta1, v.eta1), (v.zeta2, v.eta2)):
            errs += [abs(zeta @ zeta - KAPPA**2), abs(zeta @ eta),
                     abs(np.linalg.norm(zeta) - target)]
            assert np.linalg.norm(eta) <= 3.0 + 1e-10
        errs.append(float(np.max(np.abs(v.zeta1 + v.zeta2 + gamma))))
        worst = max(worst, max(errs) / max(1.0, t))
    _report(6, "complex frequency algebra", worst <= 1e-10,
            f"50 draws, worst scaled error {worst:.1e} <= 1e-10")


def _fourier_diff_family(sign, grid):
    pairs = []
    for i in range(6):
        c = sign * np.array([0.35 * np.cos(i), 0.35 * np.sin(1.7 * i),
                             0.2 * np.sin(i)])
        a = 0.15 + 0.02 * i / 6
        da = 0.01 + 0.002 * i
        n1 = _bump(grid, amplitude=a, width=1.4, center=tuple(c))
        n2 = _bump(grid, amplitude=a + da, width=1.4, center=tuple(c))
        pairs.append((n1, n2))
    return pairs


def test_07_fourier_difference_constant_stable():
    """Per-frequency bound constant: finite, stable across disjoint families,
    and never exceeded by the true coefficients."""
    R = 1.2 * np.pi
    grid = CubeGrid(np.pi, 16)
    sphere = SphereGrid.build(R, 2, 5)
    lm = embedding_constant(4.0)
    log_m3, samples = {}, []
    for name, sign in (("A", 1.0), ("B", -1.0)):
        best = -np.inf
        for n1, n2 in _fourier_diff_family(sign, grid):
            w1 = near_field_operator(n1, KAPPA, sphere)
            w2 = near_field_operator(n2, KAPPA, sphere)
            cm = max(hm_norm(n1.coeffs, 4.0, grid),
                     hm_norm(n2.coeffs, 4.0, grid))
            tmin = t_min(R, KAPPA, 0.7, lm * cm)
            rep = check_fourier_diff(n1, n2, w1, w2, t=tmin, rho=4.0,
                                     m=4.0, R=R, kappa=KAPPA)
            best = max(best, rep.log_m3)
            samples.extend(rep.samples)
        log_m3[name] = best
    fitted = max(log_m3.values())
    exceed = sum(s.log_ratio > fitted + 1e-9 for s in samples)
    diff = abs(log_m3["A"] - log_m3["B"])
    ok = np.isfinite(fitted) and diff <= np.log(1.25) and exceed == 0
    _report(7, "Fourier-difference constant", ok,
            f"log M3 A {log_m3['A']:.6e}, B {log_m3['B']:.6e}, "
            f"family gap {diff:.1e} <= ln 1.25, {exceed} exceedances")


def test_08_high_frequency_tail_inequality():
    """Tail energy above rho bounded by rho^(2(m-s)) times the smoother norm."""
    grid = CubeGrid(np.pi, 16)
    media = [
        _bump(grid),
        make_test_index(BumpProfile(
            centers=((-0.4, 0.2, 0.0), (0.5, 0.3, -0.2)),
            amplitudes=(0.15, 0.1), widths=(1.4, 1.3)), grid, b=0.7),
        band_limited_index(grid, 3.0, 0.1, seed=5),
    ]
    worst, checks = -np.inf, 0
    for med in media:
        for rho in (2.0, 4.0, 8.0, 16.0):
            tail, bound = highfreq_tail(med, rho, 4.0, 6.0)
            worst = max(worst, tail - bound * (1.0 + 1e-12))
            checks += 1
    _report(8, "high-frequency tail bound", worst <= 0.0,
            f"{checks} medium/rho combinations, worst slack {worst:.1e} <= 0")


def test_09_near_field_recovered_from_far_field_series():
    """Harmonic series from far data reproduces direct near data at 2R."""
    R = 1.5 * np.pi
    L = int(np.ceil(KAPPA * R)) + 12
    grid = CubeGrid(np.pi, 16)
    unit = SphereGrid.build(1.0, L + 1, 2 * L + 1)
    src = SphereGrid.build(R, 1, 3)
    rec = SphereGrid.build(2.0 * R, 1, 3)
    media = [
        _bump(grid),
        _bump(grid, amplitude=0.15, width=1.6, center=(-0.3, 0.25, -0.15)),
    ]
    rels = []
    for med in media:
        coeffs = far_field_coeffs(med, KAPPA, unit, unit, L)
        direct = near_field_operator(med, KAPPA, src, receivers=rec)
        series = np.zeros_like(direct.matrices)
        for ix, x in enumerate(rec.points()):
            for iy, y in enumerate(src.points()):
                series[ix, iy], _ = near_from_far(coeffs, KAPPA, x, y)
        rels.append(float(np.linalg.norm(series - direct.matrices)
                          / np.linalg.norm(direct.matrices)))
    ok = all(r <= 0.01 for r in rels)
    _report(9, "near-from-far series", ok,
            f"L = {L}, two media, rel errors "
            + ", ".join(f"{r:.2e}" for r in rels) + " <= 1e-2")


def test_10_source_condition_fit_zero_violations():
    """A single finite constant satisfies the variational inequality over a
    10-member family; the distant member uses the Cauchy-Schwarz branch."""
    grid = CubeGrid(np.pi, 16)
    base = _bump(grid)
    sphere = SphereGrid.build(1.2 * np.pi, 1, 3)
    w_base = near_field_operator(base, KAPPA, sphere)
    rng = np.random.default_rng(0)
    family, misfits = [], []
    for i in range(9):
        prof = BumpProfile(
            centers=((0.3, -0.2, 0.1), tuple(rng.uniform(-0.5, 0.5, 3))),
            amplitudes=(0.2, 0.01 + 0.004 * i),
            widths=(1.5, rng.uniform(1.0, 1.6)))
        member = make_test_index(prof, grid, b=0.7)
        family.append(member)
        misfits.append(data_diff_norm(
            near_field_operator(member, KAPPA, sphere), w_base))
    # one member far beyond the 4 C_s distance -> Cauchy-Schwarz branch
    far_member = _bump(grid, amplitude=0.9, center=(-0.3, 0.3, 0.2))
    family.append(far_member)
    misfits.append(data_diff_norm(
        near_field_operator(far_member, KAPPA, sphere), w_base))
    report = vsc_check(base, family, misfits, m=4.0, nu=0.5, beta=0.5)
    branches = [s.cauchy_schwarz_branch for s in report.samples]
    ok = (np.isfinite(report.A) and report.violations() == 0
          and branches[-1] and not any(branches[:-1]))
    _report(10, "variational source condition fit", ok,
            f"A = {report.A:.3e}, {report.violations()} violations over "
            f"{len(family)} members, distant member on Cauchy-Schwarz branch")


def test_11_noise_sweep_reconstruction_rates():
    """Reconstruction error decays monotonically over four noise decades."""
    grid = CubeGrid(np.pi, 16)
    truth = band_limited_index(grid, 2.0, 0.08, seed=11)
    sphere = SphereGrid.build(1.2 * np.pi, 1, 3)
    shape = (3, 3, 3, 3)
    dummy = NearFieldData(receivers=sphere, sources=sphere,
                          matrices=np.zeros(shape, dtype=complex))
    problem = InverseProblem(kind="near", kappa=KAPPA, grid=grid, data=dummy,
                             delta=0.0, m=4.0, gamma_max=2.0, b=0.5)
    state = _ForwardState(problem, truth)
    problem.data = NearFieldData(receivers=sphere, sources=sphere,
                                 matrices=state.matrices)
    study = rate_study(truth, problem, deltas=(1e-1, 1e-2, 1e-3, 1e-4),
                       seeds=(1, 2, 3, 4), A=1.0, nu=0.5, maxiter=40)
    ok = (study.monotonicity_violations == 0 and study.nu_hat > 0.0
          and all(np.isfinite(study.errors)))
    _report(11, "noise-sweep convergence rates", ok,
            "errors " + " -> ".join(f"{e:.2f}" for e in study.errors)
            + f", fitted exponent {study.nu_hat:.2f} > 0 "
            f"(a-priori value {study.nu_theory}), "
            f"{study.monotonicity_violations} monotonicity violations")


def test_12_regularization_rule_closed_form():
    """alpha rule: worked value and the defining derivative identity."""
    worked = alpha_rule(0.1, 1.0, 0.5)
    worked_ok = abs(worked - 0.2487) <= 5e-4

    def psi(t, A, nu):
        return A * np.log(3.0 + 1.0 / t) ** (-2.0 * nu)

    worst = 0.0
    for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for A, nu in ((1.0, 0.5), (3.0, 0.25)):
            t = 4.0 * delta**2
            h = 1e-5 * t
            dpsi = (psi(t + h, A, nu) - psi(t - h, A, nu)) / (2.0 * h)
            implied = 1.0 / (2.0 * dpsi)
            rel = abs(alpha_rule(delta, A, nu) - implied) / implied
            worst = max(worst, rel)
    ok = worked_ok and worst <= 1e-8
    _report(12, "regularization parameter rule", ok,
            f"alpha(0.1, 1, 1/2) = {worked:.5f} ~ 0.2487, "
            f"derivative identity worst rel err {worst:.1e} <= 1e-8")
