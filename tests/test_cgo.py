"""Tests for the complex-geometrical-optics machinery."""

import tracemalloc

import numpy as np
import pytest

from emiscat import cgo
from emiscat.cgo import (
    CgoError,
    FaddeevOperator,
    MediumFields,
    Potential,
    cgo_solve,
    cgo_vectors,
    q_bound,
    t_min,
)
from emiscat.fourier import BumpProfile, CubeGrid, RefractiveIndex, make_test_index
from emiscat.inversion import ContrastMedium
from emiscat.vsc import cgo_pair_estimate

KAPPA = 1.0
R_CGO = 1.2 * np.pi


def bump_medium(n_grid=24, amplitude=0.2, width=1.5, center=(0.3, -0.2, 0.1)):
    grid = CubeGrid(np.pi, n_grid)
    prof = BumpProfile(centers=(center,), amplitudes=(amplitude,),
                       widths=(width,))
    return make_test_index(prof, grid, b=0.8)


def axis_aligned_zeta(t, kappa=KAPPA):
    """zeta with Im(zeta) = t e_z and zeta.zeta = kappa^2, plus eta = e_y."""
    zeta = np.array([np.sqrt(t**2 + kappa**2), 0.0, 1j * t])
    eta = np.array([0.0, 1.0, 0.0], dtype=complex)
    return zeta, eta


def q_matrix(pot):
    """Explicit 6x6 potential matrix field (6, 6, m, m, m) of a
    ``Potential``: the oracle of its action ``apply``."""
    q = np.zeros((6, 6) + pot.k2q.shape, dtype=complex)
    wx, wy, wz = pot.w
    cross = np.zeros((3, 3) + pot.k2q.shape, dtype=complex)  # w x .
    cross[0, 1], cross[0, 2] = -wz, wy
    cross[1, 0], cross[1, 2] = wz, -wx
    cross[2, 0], cross[2, 1] = -wy, wx
    q[:3, 3:] = -cross
    q[3:, :3] = cross
    q[:3, :3] = -pot.jac_p
    for i in range(3):
        q[i, i] += pot.k2q_helm
        q[i + 3, i + 3] = pot.k2q
    return q


def potential(n, m_grid=16):
    """The ``Potential`` of ``n`` on the CGO cube of ``m_grid`` points."""
    med = MediumFields(n, R_CGO, m_grid)
    return Potential(med, KAPPA, *cgo._derivatives(med))


def shifted_gradient(op, f):
    """Spectral gradient (3, ...) of a shifted-band (antiperiodic) field
    f (..., m, m, m) under a ``FaddeevOperator``; component d is d_d f."""
    g = op._forward(f)
    return op._inverse(np.stack([1j * xi * g for xi in op._xi]))


class TestThresholds:
    def test_t_min_formula(self):
        got = t_min(np.pi, 1.0, 0.5, 2.0)
        assert got == pytest.approx(60.0 * 1.0 * 2.0 * 4.0 * 4.0, rel=1e-12)

    def test_q_bound_formula(self):
        assert q_bound(1.0, 0.5, 2.0) == pytest.approx(15.0 * 2.0 * 4.0 * 4.0,
                                                       rel=1e-12)

    def test_consistency(self):
        # t_min = 2 (R''/pi) q_bound with R'' = 2R
        R, kappa, b, lc = 1.3 * np.pi, 1.7, 0.6, 1.4
        assert t_min(R, kappa, b, lc) == pytest.approx(
            2.0 * (2.0 * R / np.pi) * q_bound(kappa, b, lc), rel=1e-12)

    def test_errors_and_warning(self):
        with pytest.raises(ValueError):
            t_min(-1.0, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            q_bound(1.0, 0.0, 1.0)
        with pytest.warns(UserWarning):
            t_min(np.pi, 1.0, 0.5, 0.5)


class TestCgoVectors:
    def test_random_algebra(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            gamma = rng.integers(-4, 5, size=3).astype(float)
            if not np.any(gamma):
                gamma[0] = 1.0
            t = float(rng.uniform(5.0, 200.0))
            kappa = float(rng.uniform(0.5, 3.0))
            v = cgo_vectors(gamma, t, kappa)
            g = np.linalg.norm(gamma)
            for zeta, eta in ((v.zeta1, v.eta1), (v.zeta2, v.eta2)):
                assert abs(zeta @ zeta - kappa**2) < 1e-10 * max(1, kappa**2)
                assert abs(zeta @ eta) < 1e-10
                assert abs(np.sum(np.abs(zeta) ** 2)
                           - (2 * t**2 + kappa**2)) < 1e-8 * (t**2 + 1)
                modulus = np.sqrt(1.0 + g**2 / (4.0 * t**2))
                assert np.linalg.norm(eta) == pytest.approx(modulus, rel=1e-10)
                assert np.linalg.norm(eta) <= 3.0
            assert np.max(np.abs(v.zeta1 + v.zeta2 + gamma)) < 1e-10
            assert np.max(np.abs(v.zeta1.imag - t * v.a1)) < 1e-8
            # right-handed orthonormal completion of gamma
            frame = np.stack([gamma / g, v.a1, v.a2])
            assert np.max(np.abs(frame @ frame.T - np.eye(3))) < 1e-10

    def test_gamma_zero(self):
        with pytest.raises(ValueError):
            cgo_vectors(np.zeros(3), 10.0, 1.0)

    def test_gamma_too_large(self):
        with pytest.raises(ValueError):
            cgo_vectors(np.array([30.0, 0.0, 0.0]), 1.0, 1.0)


class TestRotation:
    def test_cgo_vectors_rotation(self):
        rng = np.random.default_rng(9)
        gammas = [np.array([1.0, 2.0, -1.0])] + [
            g for g in rng.integers(-3, 4, size=(30, 3)).astype(float)
            if np.any(g)]
        for gamma in gammas:
            v = cgo_vectors(gamma, 20.0, 1.0)
            rot = v.rotation
            assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-12
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rot @ v.a1 - np.array([0, 0, 1.0]))) < 1e-12

    def test_profile_matches_rotated_centers(self):
        # closed-form oracle: n(rot^T x) is the profile with centres rot c
        n = bump_medium(n_grid=16)
        rot = cgo_vectors(np.array([0.0, 1.0, 1.0]), 15.0, 1.0).rotation
        med = MediumFields(n, R_CGO, 32, rot)
        prof = n.profile
        rotated = BumpProfile(
            centers=tuple(tuple(rot @ np.asarray(c)) for c in prof.centers),
            amplitudes=prof.amplitudes, widths=prof.widths)
        expected = 1.0 + rotated.contrast(med.grid.points())
        assert np.max(np.abs(med.values - expected)) < 1e-12

    def test_sampled_medium_rejected(self):
        # the cube samples the closed form; a medium known by its samples
        # or its coefficients has none
        n = bump_medium(n_grid=16)
        rot = cgo_vectors(np.array([1.0, -1.0, 1.0]), 15.0, KAPPA).rotation
        for sampled in (RefractiveIndex(grid=n.grid, values=n.values, b=n.b),
                        ContrastMedium(grid=n.grid, coeffs=n.coeffs)):
            with pytest.raises(ValueError, match="bump-profile"):
                MediumFields(sampled, R_CGO, 32, rot)

    def test_non_orthogonal(self):
        n = bump_medium(n_grid=16)
        with pytest.raises(ValueError, match="orthogonal"):
            MediumFields(n, R_CGO, 16, np.diag([1.0, 2.0, 1.0]))


class TestFaddeev:
    def test_diagonal_mode(self):
        grid = CubeGrid(2.0 * R_CGO, 16)
        zeta, _ = axis_aligned_zeta(12.0)
        op = FaddeevOperator(zeta, grid)
        k = np.array([1.0, -2.0, 3.5])  # half-integer along the shift axis
        xi = (np.pi / grid.half_side) * k
        f = np.exp(1j * grid.points() @ xi)
        expected = f / (xi @ xi + 2.0 * zeta @ xi)
        assert np.max(np.abs(op(f) - expected)) < 1e-12

    def test_pde_identity(self):
        # (Laplacian + 2 i zeta . grad) G_zeta f = -f on the samples
        grid = CubeGrid(2.0 * R_CGO, 16)
        zeta, _ = axis_aligned_zeta(9.0)
        op = FaddeevOperator(zeta, grid)
        rng = np.random.default_rng(3)
        f = (rng.standard_normal((16,) * 3)
             + 1j * rng.standard_normal((16,) * 3))
        g = op(f)
        grad = shifted_gradient(op, g)
        lap = sum(shifted_gradient(op, grad[c])[c] for c in range(3))
        lhs = lap + 2j * np.einsum("j,j...->...", zeta, grad)
        assert np.max(np.abs(lhs + f)) < 1e-9 * np.max(np.abs(f))

    def test_batched_apply(self):
        # one (3, m, m, m) apply equals three scalar applies
        grid = CubeGrid(2.0 * R_CGO, 16)
        zeta, _ = axis_aligned_zeta(9.0)
        op = FaddeevOperator(zeta, grid)
        rng = np.random.default_rng(4)
        v = (rng.standard_normal((3,) + (16,) * 3)
             + 1j * rng.standard_normal((3,) + (16,) * 3))
        expected = np.stack([op(v[c]) for c in range(3)])
        assert np.max(np.abs(op(v) - expected)) <= 1e-14 * np.max(
            np.abs(expected))

    def test_shifted_curl(self):
        grid = CubeGrid(2.0 * R_CGO, 16)
        zeta, _ = axis_aligned_zeta(9.0)
        op = FaddeevOperator(zeta, grid)
        rng = np.random.default_rng(6)
        v = (rng.standard_normal((3,) + (16,) * 3)
             + 1j * rng.standard_normal((3,) + (16,) * 3))
        d = [shifted_gradient(op, v[c]) for c in range(3)]  # d[c][j] = d_j v_c
        expected = np.stack([d[2][1] - d[1][2], d[0][2] - d[2][0],
                             d[1][0] - d[0][1]])
        assert np.max(np.abs(op.shifted_curl(v) - expected)) < 1e-12

    def test_operator_bound(self):
        grid = CubeGrid(2.0 * R_CGO, 12)
        rng = np.random.default_rng(8)
        for t in (20.0, 40.0):
            zeta, _ = axis_aligned_zeta(t)
            op = FaddeevOperator(zeta, grid)
            bound = grid.half_side / (np.pi * t)
            assert op.denominator_min >= 1.0 / bound * (1 - 1e-12)
            for _ in range(10):
                f = (rng.standard_normal((12,) * 3)
                     + 1j * rng.standard_normal((12,) * 3))
                ratio = np.linalg.norm(op(f)) / np.linalg.norm(f)
                assert ratio <= bound * (1 + 1e-12)

    def test_frame_mismatch(self):
        grid = CubeGrid(2.0 * R_CGO, 8)
        zeta = np.array([1j * 10.0, 0.0, np.sqrt(101.0)])  # Im along e_x
        with pytest.raises(CgoError):
            FaddeevOperator(zeta, grid)


    def test_input_unchanged(self):
        # callers read a field again after transforming it (acceptance 04
        # and the tests above), so neither method may write into it
        grid = CubeGrid(2.0 * R_CGO, 16)
        zeta, _ = axis_aligned_zeta(9.0)
        op = FaddeevOperator(zeta, grid)
        rng = np.random.default_rng(10)
        v = (rng.standard_normal((3,) + (16,) * 3)
             + 1j * rng.standard_normal((3,) + (16,) * 3))
        for method, field in ((op, v[0]), (op, v), (op.shifted_curl, v)):
            before = field.copy()
            method(field)
            assert np.array_equal(field, before)

class TestMediumFields:
    def test_vacuum_outside_support(self):
        med = MediumFields(bump_medium(n_grid=16), R_CGO, 24)
        outside = med.grid.radii() > np.pi + 0.3
        assert np.max(np.abs(med.values[outside] - 1.0)) < 1e-10

    def test_q_matrix_matches_action(self):
        n = bump_medium(n_grid=16)
        pot = potential(n)
        q = q_matrix(pot)
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 16, 16, 16)) + 0j
        B = rng.standard_normal((3, 16, 16, 16)) + 0j
        top, bot = pot.apply(A, B)
        full = np.concatenate([A, B], axis=0)
        ref = np.einsum("ij...,j...->i...", q, full)
        assert np.max(np.abs(top - ref[:3])) < 1e-10
        assert np.max(np.abs(bot - ref[3:])) < 1e-10

    def test_q_bound_dominates(self):
        # the explicit matrix stays below the generic spectral-norm bound
        n = bump_medium(n_grid=16)
        q = q_matrix(potential(n))
        spectral = np.linalg.norm(np.moveaxis(q, (0, 1), (-2, -1))
                                  .reshape(-1, 6, 6), ord=2, axis=(1, 2))
        lm_cm = 2.0  # a crude admissible-class constant for this medium
        assert np.max(spectral) <= q_bound(KAPPA, n.b, lm_cm)


class TestCgoSolve:
    def test_vacuum(self):
        grid = CubeGrid(np.pi, 16)
        vac = make_test_index(BumpProfile(), grid, b=0.9)
        zeta, eta = axis_aligned_zeta(12.0)
        sol = cgo_solve(vac, zeta, eta, R_CGO, KAPPA, 16)
        assert sol.remainder_norm() < 1e-12
        assert sol.residual < 1e-10
        assert np.max(np.abs(sol.u - eta)) < 1e-12

    def test_residual_and_decay(self):
        n = bump_medium()
        sols = []
        for t in (25.0, 50.0):
            zeta, eta = axis_aligned_zeta(t)
            sols.append(cgo_solve(n, zeta, eta, R_CGO, KAPPA, 32))
        for sol in sols:
            assert sol.residual < 1e-3
            assert all(r < 0.9 for r in sol.contraction[-3:])
        ratio = sols[1].remainder_norm() / sols[0].remainder_norm()
        # ||f|| + ||V|| = O(1/t): halving per doubling of t
        assert 0.3 < ratio < 0.75

    def test_rotated_frame(self):
        n = bump_medium()
        v = cgo_vectors(np.array([1.0, 1.0, 0.0]), 25.0, KAPPA)
        sol = cgo_solve(n, v.zeta1, v.eta1, R_CGO, KAPPA, 32,
                        rotation=v.rotation)
        assert sol.residual < 1e-3

    def test_transform_count(self, monkeypatch):
        # the derivative fields 18 volumes, right-hand side 12, each
        # Neumann sweep 12, the extraction 2 and the two residual curls 12
        n = bump_medium(n_grid=16)
        volumes = []
        for name in ("fftn", "ifftn"):
            def counted(x, axes, _fft=getattr(cgo, name)):
                assert x.size % 16**3 == 0
                volumes.append(x.size // 16**3)
                return _fft(x, axes)

            monkeypatch.setattr(cgo, name, counted)
        zeta, eta = axis_aligned_zeta(12.0)
        sol = cgo_solve(n, zeta, eta, R_CGO, KAPPA, 16)
        assert sol.iterations == len(sol.contraction) + 1
        assert sum(volumes) == 44 + 12 * sol.iterations

    @pytest.mark.parametrize("sweeps", [1, 3])
    def test_nonconvergence_carries_contraction(self, monkeypatch, sweeps):
        # too few sweeps to reach the tolerance: the error carries one
        # contraction ratio per sweep after the first
        monkeypatch.setattr(cgo, "NEUMANN_SWEEPS", sweeps)
        zeta, eta = axis_aligned_zeta(12.0)
        with pytest.raises(CgoError, match="did not converge") as err:
            cgo_solve(bump_medium(n_grid=16), zeta, eta, R_CGO, KAPPA, 16)
        assert len(err.value.contraction) == sweeps - 1
        assert all(0 < r < 1 for r in err.value.contraction)

    def test_divergence_fails_fast(self):
        # a strong narrow bump at small t: the contraction ratios exceed 1
        # from the start (1.99, 1.41, 1.12, ...), so the third of them
        # stops the iteration after 4 sweeps rather than 80
        prof = BumpProfile(centers=((0.3, -0.2, 0.1),), amplitudes=(5.0,),
                           widths=(0.6,))
        n = make_test_index(prof, CubeGrid(np.pi, 24), b=0.5)
        zeta, eta = axis_aligned_zeta(0.5, kappa=3.0)
        with pytest.raises(CgoError, match="diverging") as err:
            cgo_solve(n, zeta, eta, R_CGO, 3.0, 32)
        assert len(err.value.contraction) == 3
        assert all(r > 1.0 for r in err.value.contraction)

    def test_pair_memory(self):
        # one pairing at m_grid = 32 peaks at about 45 cube volumes of m^3
        # complex numbers; holding both whole solutions and every medium
        # field to the end took 80
        m = 32
        n1 = bump_medium()
        prof = BumpProfile(centers=((0.3, -0.2, 0.1), (-0.6, 0.4, 0.2)),
                           amplitudes=(0.2, 0.05), widths=(1.5, 1.0))
        n2 = make_test_index(prof, n1.grid, b=0.8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cgo_pair_estimate(n1, n2, (1.0, 0.0, 0.0), 15.0, KAPPA, R_CGO,
                              m_grid=m)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 56 * m**3 * 16

    def test_bad_inputs(self):
        n = bump_medium(n_grid=16)
        zeta, eta = axis_aligned_zeta(10.0)
        with pytest.raises(CgoError):
            cgo_solve(n, zeta, np.array([1.0, 0, 0]), R_CGO, KAPPA, 16)
        with pytest.raises(CgoError):
            cgo_solve(n, np.array([3.0, 0, 1j * 10.0]), eta, R_CGO, KAPPA,
                      16)

    @pytest.mark.parametrize("gamma, t", [((1.0, -1.0, 1.0), 1e4),
                                          ((1.0, 0.0, 0.0), 2.5e5)])
    def test_constraints_scale_with_zeta(self, gamma, t):
        # the rotation into the CGO frame leaves zeta.zeta - kappa^2 at
        # about |zeta|^2 eps
        n = bump_medium(n_grid=16)
        v = cgo_vectors(np.array(gamma), t, KAPPA)
        rot = v.rotation
        zeta, eta = rot @ v.zeta1, rot @ v.eta1
        assert abs(zeta @ zeta - KAPPA**2) > 1e-8
        cgo_solve(n, v.zeta1, v.eta1, R_CGO, KAPPA, 16, rotation=rot)
        wrong = zeta + np.array([1e-6 * t, 0.0, 0.0])
        with pytest.raises(CgoError, match="zeta.zeta"):
            cgo_solve(n, wrong, eta, R_CGO, KAPPA, 16)
        with pytest.raises(CgoError, match="zeta.eta"):
            cgo_solve(n, zeta, eta + 1e-6 * np.conj(zeta), R_CGO, KAPPA,
                      16)


class TestProductExpansion:
    def test_identity(self):
        rng = np.random.default_rng(17)
        gamma = np.array([2.0, -1.0, 1.0])
        g = np.linalg.norm(gamma)
        t, kappa = 30.0, 1.3
        v = cgo_vectors(gamma, t, kappa)
        shape = (6, 6, 6)
        f1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        V1 = rng.standard_normal(shape + (3,)) + 0j
        V2 = rng.standard_normal(shape + (3,)) + 0j
        u1 = v.eta1 + f1[..., None] * v.zeta1 + V1
        u2 = v.eta2 + f2[..., None] * v.zeta2 + V2
        lhs = np.einsum("...j,...j->...", u1, u2)
        rhs = ((1.0 + g**2 / (4.0 * t**2))
               - g * (f1 + f2)
               + V2 @ v.eta1 + V1 @ v.eta2
               + f1 * f2 * (g**2 / 2.0 - kappa**2)
               + f1 * (V2 @ v.zeta1) + f2 * (V1 @ v.zeta2)
               + np.einsum("...j,...j->...", V1, V2))
        assert np.max(np.abs(lhs - rhs)) < 1e-10
