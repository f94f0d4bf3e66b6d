"""Tests for the complex-geometrical-optics machinery."""

import numpy as np
import pytest

from emiscat.cgo import (
    CgoError,
    FaddeevOperator,
    MediumFields,
    cgo_solve,
    cgo_vectors,
    q_bound,
    q_matrix,
    rotate_index,
    rotation_to_axis,
    t_min,
)
from emiscat.fourier import BumpProfile, CubeGrid, RefractiveIndex, make_test_index

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
    def test_rotation_to_axis(self):
        v = cgo_vectors(np.array([1.0, 2.0, -1.0]), 20.0, 1.0)
        ghat = v.gamma / np.linalg.norm(v.gamma)
        rot = rotation_to_axis(v.a1, v.a2, ghat)
        assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-12
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rot @ v.a1 - np.array([0, 0, 1.0]))) < 1e-12

    def test_profile_round_trip(self):
        n = bump_medium(n_grid=16)
        v = cgo_vectors(np.array([0.0, 1.0, 1.0]), 15.0, 1.0)
        rot = rotation_to_axis(v.a1, v.a2, v.gamma / np.sqrt(2.0))
        back = rotate_index(rotate_index(n, rot), rot.T)
        assert np.max(np.abs(back.values - n.values)) < 1e-12

    def test_generic_matches_profile(self):
        n = bump_medium(n_grid=16, width=1.8)
        plain = RefractiveIndex(grid=n.grid, values=n.values, b=n.b)
        rot = rotation_to_axis(*[r for r in np.eye(3)[[1, 2, 0]]])
        a = rotate_index(n, rot)
        b = rotate_index(plain, rot)
        # generic path uses trigonometric interpolation: aliasing-level match
        assert np.max(np.abs(a.values - b.values)) < 1e-2

    def test_non_orthogonal(self):
        n = bump_medium(n_grid=16)
        with pytest.raises(ValueError):
            rotate_index(n, np.diag([1.0, 2.0, 1.0]))


class TestFaddeev:
    def test_diagonal_mode(self):
        grid = CubeGrid(2.0 * R_CGO, 16)
        zeta, _ = axis_aligned_zeta(12.0)
        op = FaddeevOperator(zeta, grid, axis=2)
        k = np.array([1.0, -2.0, 3.5])  # half-integer along the shift axis
        xi = (np.pi / grid.half_side) * k
        f = np.exp(1j * grid.points() @ xi)
        expected = f / (xi @ xi + 2.0 * zeta @ xi)
        assert np.max(np.abs(op(f) - expected)) < 1e-12

    def test_pde_identity(self):
        # (Laplacian + 2 i zeta . grad) G_zeta f = -f on the samples
        grid = CubeGrid(2.0 * R_CGO, 16)
        zeta, _ = axis_aligned_zeta(9.0)
        op = FaddeevOperator(zeta, grid, axis=2)
        rng = np.random.default_rng(3)
        f = (rng.standard_normal((16,) * 3)
             + 1j * rng.standard_normal((16,) * 3))
        g = op(f)
        grad = op.shifted_gradient(g)
        lap = sum(op.shifted_gradient(grad[..., c])[..., c] for c in range(3))
        lhs = lap + 2j * np.einsum("j,...j->...", zeta, grad)
        assert np.max(np.abs(lhs + f)) < 1e-9 * np.max(np.abs(f))

    def test_operator_bound(self):
        grid = CubeGrid(2.0 * R_CGO, 12)
        rng = np.random.default_rng(8)
        for t in (20.0, 40.0):
            zeta, _ = axis_aligned_zeta(t)
            op = FaddeevOperator(zeta, grid, axis=2)
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
            FaddeevOperator(zeta, grid, axis=2)


class TestMediumFields:
    def test_resample_paths_agree(self):
        n = bump_medium(n_grid=24, width=1.8)
        plain = RefractiveIndex(grid=n.grid, values=n.values, b=n.b)
        a = MediumFields(n, R_CGO, 16)
        b = MediumFields(plain, R_CGO, 16)
        assert np.max(np.abs(a.values - b.values)) < 1e-2

    def test_vacuum_outside_support(self):
        med = MediumFields(bump_medium(n_grid=16), R_CGO, 24)
        outside = med.grid.radii() > np.pi + 0.3
        assert np.max(np.abs(med.values[outside] - 1.0)) < 1e-10

    def test_q_matrix_matches_action(self):
        n = bump_medium(n_grid=16)
        q, grid = q_matrix(n, R_CGO, 16, KAPPA)
        med = MediumFields(n, R_CGO, 16).attach_kappa(KAPPA)
        rng = np.random.default_rng(2)
        A = rng.standard_normal((16, 16, 16, 3)) + 0j
        B = rng.standard_normal((16, 16, 16, 3)) + 0j
        top, bot = med.q_apply(A, B)
        full = np.concatenate([A, B], axis=-1)
        ref = np.einsum("...ij,...j->...i", q, full)
        assert np.max(np.abs(top - ref[..., :3])) < 1e-10
        assert np.max(np.abs(bot - ref[..., 3:])) < 1e-10

    def test_q_bound_dominates(self):
        # the explicit matrix stays below the generic spectral-norm bound
        n = bump_medium(n_grid=16)
        q, _ = q_matrix(n, R_CGO, 16, KAPPA)
        spectral = np.linalg.norm(q.reshape(-1, 6, 6), ord=2, axis=(1, 2))
        lm_cm = 2.0  # a crude admissible-class constant for this medium
        assert np.max(spectral) <= q_bound(KAPPA, n.b, lm_cm)


class TestCgoSolve:
    def test_vacuum(self):
        grid = CubeGrid(np.pi, 16)
        vac = RefractiveIndex(grid=grid, values=np.ones((16,) * 3), b=0.9)
        zeta, eta = axis_aligned_zeta(12.0)
        sol = cgo_solve(vac, zeta, eta, R_CGO, m_grid=16)
        assert sol.remainder_norm() < 1e-12
        assert sol.residual < 1e-10
        assert np.max(np.abs(sol.u - eta)) < 1e-12

    def test_residual_and_decay(self):
        n = bump_medium()
        sols = []
        for t in (25.0, 50.0):
            zeta, eta = axis_aligned_zeta(t)
            sols.append(cgo_solve(n, zeta, eta, R_CGO, m_grid=32))
        for sol in sols:
            assert sol.residual < 1e-3
            assert all(r < 0.9 for r in sol.contraction[-3:])
        ratio = sols[1].remainder_norm() / sols[0].remainder_norm()
        # ||f|| + ||V|| = O(1/t): halving per doubling of t
        assert 0.3 < ratio < 0.75

    def test_rotated_frame(self):
        n = bump_medium()
        v = cgo_vectors(np.array([1.0, 1.0, 0.0]), 25.0, KAPPA)
        ghat = v.gamma / np.linalg.norm(v.gamma)
        rot = rotation_to_axis(v.a1, v.a2, ghat)
        sol = cgo_solve(rotate_index(n, rot), rot @ v.zeta1, rot @ v.eta1,
                        R_CGO, m_grid=32)
        assert sol.residual < 1e-3

    def test_bad_inputs(self):
        n = bump_medium(n_grid=16)
        zeta, eta = axis_aligned_zeta(10.0)
        with pytest.raises(CgoError):
            cgo_solve(n, zeta, np.array([1.0, 0, 0]), R_CGO, m_grid=16,
                      kappa=KAPPA)
        with pytest.raises(CgoError):
            cgo_solve(n, np.array([3.0, 0, 1j * 10.0]), eta, R_CGO,
                      m_grid=16, kappa=KAPPA)

    @pytest.mark.parametrize("gamma, t", [((1.0, -1.0, 1.0), 1e4),
                                          ((1.0, 0.0, 0.0), 2.5e5)])
    def test_constraints_scale_with_zeta(self, gamma, t):
        # rotation_to_axis leaves zeta.zeta - kappa^2 at about |zeta|^2 eps
        n = bump_medium(n_grid=16)
        gamma = np.array(gamma)
        v = cgo_vectors(gamma, t, KAPPA)
        rot = rotation_to_axis(v.a1, v.a2, gamma / np.linalg.norm(gamma))
        zeta, eta = rot @ v.zeta1, rot @ v.eta1
        assert abs(zeta @ zeta - KAPPA**2) > 1e-8
        cgo_solve(rotate_index(n, rot), zeta, eta, R_CGO, m_grid=16,
                  kappa=KAPPA)
        wrong = zeta + np.array([1e-6 * t, 0.0, 0.0])
        with pytest.raises(CgoError, match="zeta.zeta"):
            cgo_solve(n, wrong, eta, R_CGO, m_grid=16, kappa=KAPPA)
        with pytest.raises(CgoError, match="zeta.eta"):
            cgo_solve(n, zeta, eta + 1e-6 * np.conj(zeta), R_CGO,
                      m_grid=16, kappa=KAPPA)


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
