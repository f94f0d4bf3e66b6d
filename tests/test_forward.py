"""Tests for the volume-integral forward solver and data operators."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad
from scipy.sparse.linalg import LinearOperator, gmres

from emiscat import forward
from emiscat.forward import (
    DataColumns,
    DipoleSource,
    PlaneWave,
    ReceiverMap,
    ScatteringSolver,
    SolveError,
    SphereGrid,
    background_green,
    far_field_coeffs,
    far_field_operator,
    near_field_operator,
    support_box,
    truncated_kernel_symbol,
)
from emiscat.fourier import BumpProfile, CubeGrid, RefractiveIndex, make_test_index
from emiscat.inversion import ContrastMedium, band_limited_index
from emiscat.spherical import far_coeffs, harmonic_table

KAPPA = 1.0


def bump_medium(grid, amplitude=0.2, width=1.5, center=(0.3, -0.2, 0.1)):
    prof = BumpProfile(centers=(center,), amplitudes=(amplitude,), widths=(width,))
    return make_test_index(prof, grid, b=1.0)


def two_path_solver(case):
    """A solver on the whole grid ("whole": a medium known by its samples,
    N = 8) or on a box smaller than the grid ("box": an off-centre bump,
    N = 16), its box checked; the two run different potential routines."""
    if case == "whole":
        grid = CubeGrid(np.pi, 8)
        n = RefractiveIndex(grid=grid, values=bump_medium(grid).values, b=1.0)
    else:
        n = bump_medium(CubeGrid(np.pi, 16), width=1.0,
                        center=(1.2, -0.9, 0.6))
    solver = ScatteringSolver(n, KAPPA)
    if case == "whole":
        assert solver.shape == (solver.N,) * 3
    else:
        assert all(size < solver.N for size in solver.shape)
    return solver


def fd_curl(f, x, h=1e-4):
    """Finite-difference curl of a vector field evaluator at point x."""
    jac = np.empty((3, 3), dtype=complex)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        jac[:, j] = (f(x + e) - f(x - e)) / (2 * h)
    return np.array([jac[2, 1] - jac[1, 2],
                     jac[0, 2] - jac[2, 0],
                     jac[1, 0] - jac[0, 1]])


class TestBackgroundGreen:
    def test_maxwell_residual(self):
        # curl curl E - kappa^2 E = 0 away from the source point
        y = np.array([0.0, 0.0, 0.0])
        a = np.array([0.3, -1.0, 0.7])
        src = DipoleSource(y, a, KAPPA)
        for x in ([2.0, 0.5, -0.3], [-1.0, 1.5, 2.2]):
            x = np.array(x)
            curl_e = lambda p: fd_curl(lambda q: src.electric(q), p)
            res = fd_curl(curl_e, x) - KAPPA**2 * src.electric(x)
            assert np.linalg.norm(res) < 1e-6 * np.linalg.norm(src.electric(x))

    def test_symmetry(self):
        x = np.array([1.0, 2.0, -0.5])
        y = np.array([-0.7, 0.3, 1.1])
        w_xy = background_green(x, y, KAPPA)
        w_yx = background_green(y, x, KAPPA)
        assert np.allclose(w_xy, w_yx.T, atol=1e-14)

    def test_linearity(self):
        y = np.zeros(3)
        x = np.array([1.5, -0.5, 0.8])
        a1 = np.array([1.0, 0.0, 2.0])
        a2 = np.array([0.0, 1.0 + 1j, -1.0])
        lhs = DipoleSource(y, 2.0 * a1 + 1j * a2, KAPPA).electric(x)
        rhs = (2.0 * DipoleSource(y, a1, KAPPA).electric(x)
               + 1j * DipoleSource(y, a2, KAPPA).electric(x))
        assert np.allclose(lhs, rhs, rtol=1e-13)

    def test_electric_matches_tensor(self):
        # the dipole field is w1(x, y) a, contracted without forming w1
        grid = CubeGrid(np.pi, 16)
        y = 1.5 * np.pi * np.array([0.6, -0.8, 0.0])
        src = DipoleSource(y, np.array([0.3, -1.0 + 0.5j, 0.7]), KAPPA)
        expected = background_green(grid.points(), y, KAPPA) @ src.a
        err = np.max(np.abs(src.electric(grid.points()) - expected))
        assert err <= 1e-13 * np.max(np.abs(expected))


class TestIncidentPlane:
    def test_parallel_polarization_vanishes(self):
        d = np.array([0.0, 0.0, 1.0])
        pw = PlaneWave(d, 3.0 * d, KAPPA)
        pts = np.random.default_rng(0).standard_normal((5, 3))
        assert np.max(np.abs(pw.electric(pts))) == 0.0

    def test_orthogonal_case(self):
        pw = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), KAPPA)
        pts = np.array([[0.2, -0.4, 1.3], [0.0, 0.0, 0.0]])
        e = pw.electric(pts)
        expected = np.exp(1j * pts[:, 2])[:, None] * np.array([1.0, 0.0, 0.0])
        assert np.allclose(e, expected, rtol=1e-14)

    def test_transverse(self):
        d = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        pw = PlaneWave(d, np.array([0.3, 1.0, 0.2]), KAPPA)
        pts = np.random.default_rng(1).standard_normal((6, 3))
        assert np.max(np.abs(pw.electric(pts) @ d)) < 1e-14

    def test_non_unit_direction(self):
        with pytest.raises(ValueError):
            PlaneWave(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.0]), KAPPA)


class TestKernelSymbol:
    def test_quadrature_oracle(self):
        # radial Fourier integral of the truncated kernel, integrated directly
        rho = 2.0 * np.pi
        for xi in (1e-12, 0.3, 0.5, 1.0, 2.3):
            if xi < 1e-9:
                f = lambda r: r * np.exp(1j * KAPPA * r)
            else:
                f = lambda r: np.exp(1j * KAPPA * r) * np.sin(xi * r) / xi
            re = quad(lambda r: f(r).real, 0.0, rho, limit=200)[0]
            im = quad(lambda r: f(r).imag, 0.0, rho, limit=200)[0]
            got = truncated_kernel_symbol(np.array([xi]), KAPPA, rho)[0]
            assert abs(got - (re + 1j * im)) < 1e-9

    def test_kernel_positive_radius(self):
        y = np.array([0.5, -0.2, 0.1])
        with pytest.raises(ValueError, match="coincident"):
            DipoleSource(y, np.eye(3)[0], KAPPA).electric(y[None, :])

    @pytest.mark.parametrize("n", [8, 16])
    def test_solver_symbol_matches_full_lattice(self, n):
        # the solver evaluates the symbol once per distinct |xi|^2; the
        # oracle evaluates it at every point of the padded lattice
        solver = ScatteringSolver(bump_medium(CubeGrid(np.pi, n)), KAPPA)
        k = np.fft.fftfreq(2 * n, d=1.0 / (2 * n)) * (np.pi / (2 * np.pi))
        xi = np.sqrt(k[:, None, None]**2 + k[None, :, None]**2
                     + k[None, None, :]**2)
        full = truncated_kernel_symbol(xi, KAPPA, 2.0 * np.pi)
        assert np.array_equal(solver.symbol, full)


class TestSolver:
    def test_vacuum_identity(self):
        grid = CubeGrid(np.pi, 16)
        n = RefractiveIndex(grid=grid, values=np.ones((16,) * 3), b=1.0)
        solver = ScatteringSolver(n, KAPPA)
        pw = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), KAPPA)
        e = solver.solve(pw)
        assert np.max(np.abs(e - pw.electric(grid.points()))) < 1e-12

    def test_residual_small(self):
        grid = CubeGrid(np.pi, 24)
        n = bump_medium(grid)
        solver = ScatteringSolver(n, KAPPA)
        pw = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), KAPPA)
        e = solver.solve(pw)
        assert solver.residual(e, pw) < 1e-7

    def test_born_scaling(self):
        grid = CubeGrid(np.pi, 24)
        pw = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), KAPPA)
        ratios = []
        for a in (0.02, 0.01, 0.005):
            n = bump_medium(grid, amplitude=a)
            solver = ScatteringSolver(n, KAPPA)
            e = solver.solve(pw)
            born = solver.born_field(pw)
            e_inc = pw.electric(solver.pts)
            dev = np.linalg.norm(e - born)
            born_term = np.linalg.norm(born - e_inc)
            ratios.append(dev / born_term)
        for r1, r2 in zip(ratios, ratios[1:]):
            assert 1.5 <= r1 / r2 <= 2.5

    def test_grid_convergence(self):
        pw = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), KAPPA)
        xh = np.array([[0.0, 0.0, 1.0], [np.sin(2.0), 0.0, np.cos(2.0)]])
        pats = {}
        for N in (24, 48, 96):
            grid = CubeGrid(np.pi, N)
            solver = ScatteringSolver(bump_medium(grid), KAPPA)
            pats[N] = solver.far_pattern(solver.solve(pw), xh)
        err_coarse = np.linalg.norm(pats[24] - pats[96])
        err_fine = np.linalg.norm(pats[48] - pats[96])
        assert err_coarse >= 2.0 * err_fine

    def test_nonconvergence_reported(self, monkeypatch):
        grid = CubeGrid(np.pi, 16)
        n = bump_medium(grid, amplitude=0.5, width=2.0, center=(0.0, 0.0, 0.0))
        monkeypatch.setattr(forward, "GMRES_RTOL", 1e-14)
        monkeypatch.setattr(forward, "GMRES_RESTART", 2)
        monkeypatch.setattr(forward, "GMRES_MAXITER", 2)
        solver = ScatteringSolver(n, KAPPA)
        pw = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), KAPPA)
        with pytest.raises(SolveError) as err:
            solver.solve(pw)
        assert len(err.value.residuals) > 0


class TestSupportBox:
    """Bump media are solved on a box around their support; media known by
    their samples, and media without contrast, on the whole grid."""

    @pytest.mark.parametrize("n_grid", [16, 24, 48])
    def test_holds_the_support(self, n_grid):
        grid = CubeGrid(np.pi, n_grid)
        prof = BumpProfile(centers=((0.3, -0.2, 0.1), (-1.0, 0.8, -0.5)),
                           amplitudes=(0.2, 0.05j), widths=(1.5, 0.9))
        for n in (bump_medium(grid), make_test_index(prof, grid, b=0.7)):
            box = support_box(n)
            outside = np.ones((n_grid,) * 3, dtype=bool)
            outside[box] = False
            assert np.all(n.values[outside] == 1.0)
            assert np.any(outside)
            for s in box:
                size = s.stop - s.start
                assert 0 <= s.start and s.stop <= n_grid
                assert size == n_grid or size == scipy.fft.next_fast_len(size)
            solver = ScatteringSolver(n, KAPPA)
            assert solver.box == box
            assert np.array_equal(solver.pts, grid.points()[box])
            # its own memory: a view would keep the whole grid alive
            assert solver.pts.base is None

    def test_whole_grid_media(self):
        grid = CubeGrid(np.pi, 24)
        mie = RefractiveIndex(grid=grid, b=0.5, values=np.where(
            grid.radii() < 1.0, 1.2, 1.0).astype(complex))
        band = band_limited_index(grid, 2.0, 0.08, seed=11)
        iterate = ContrastMedium(grid=grid, coeffs=band.coeffs)
        vacuum = make_test_index(BumpProfile(), grid, b=0.5)
        for n in (mie, band, iterate, vacuum):
            assert support_box(n) == (slice(0, 24),) * 3
            assert ScatteringSolver(n, KAPPA).shape == (24,) * 3

    def test_grid_field_matches_zeroed_full_cube(self):
        # outside the box, E_inc + P(E) is the field a whole-grid solve has
        # there once (q, p) are zeroed outside the box
        grid = CubeGrid(np.pi, 16)
        n = bump_medium(grid)
        solver = ScatteringSolver(n, KAPPA)
        assert solver.shape != (16,) * 3
        pw = PlaneWave(np.array([0.6, 0.0, 0.8]), np.array([0.0, 1.0, 0.0]),
                       KAPPA)
        filled = solver.grid_field(solver.solve(pw), pw)
        full = ScatteringSolver(RefractiveIndex(grid=grid, values=n.values,
                                                b=1.0), KAPPA)
        outside = np.ones((16,) * 3, dtype=bool)
        outside[solver.box] = False
        full.q[outside] = 0.0
        full.p[outside] = 0.0
        ref = full.solve(pw)
        assert np.max(np.abs(filled - ref)) <= 1e-7 * np.max(np.abs(ref))
        assert np.max(np.abs(filled[outside] - pw.electric(
            grid.points()[outside]))) > 1e-4


@pytest.fixture(scope="module")
def solved():
    grid = CubeGrid(np.pi, 24)
    n = bump_medium(grid)
    solver = ScatteringSolver(n, KAPPA)
    pw = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), KAPPA)
    return solver, solver.solve(pw)


class TestScatteredEvaluation:

    def test_vacuum_zero(self):
        grid = CubeGrid(np.pi, 16)
        n = RefractiveIndex(grid=grid, values=np.ones((16,) * 3), b=1.0)
        solver = ScatteringSolver(n, KAPPA)
        pw = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), KAPPA)
        e = solver.solve(pw)
        out = solver.scattered_at(e, np.array([[5.0, 0.0, 0.0]]))
        assert np.max(np.abs(out)) < 1e-12

    def test_interior_point_rejected(self, solved):
        solver, e = solved
        with pytest.raises(ValueError):
            solver.scattered_at(e, np.array([[1.0, 0.0, 0.0]]))

    def test_radiation_decay(self, solved):
        solver, e = solved
        xhat = np.array([np.sin(1.0), 0.0, np.cos(1.0)])
        vals = [np.linalg.norm(solver.scattered_at(e, (r * xhat)[None, :])) * r
                for r in (10.0, 20.0, 40.0)]
        assert max(vals) < 2.0 * min(vals)

    def test_far_field_asymptotics(self, solved):
        # r e^{-i kappa r} E^s(r xhat) approaches the far pattern
        solver, e = solved
        xhat = np.array([np.sin(2.2), np.cos(2.2) * np.sin(0.7),
                         np.cos(2.2) * np.cos(0.7)])
        # r large enough that the Fresnel phase kappa*|y|^2/(2r) is small
        r = 500.0
        near = solver.scattered_at(e, (r * xhat)[None, :])[0]
        far = solver.far_pattern(e, xhat[None, :])[0]
        assert np.linalg.norm(r * np.exp(-1j * KAPPA * r) * near - far) \
            <= 1e-2 * np.linalg.norm(far)


class TestSphereGrid:
    def test_weights_sum(self):
        sg = SphereGrid.build(2.0 * np.pi, 6, 12)
        assert np.sum(sg.weights) == pytest.approx(4.0 * np.pi, rel=1e-12)

    def test_harmonic_exactness(self):
        from scipy.special import sph_harm_y
        sg = SphereGrid.build(1.0, 6, 12)
        theta = np.arccos(sg.nodes[:, 2])
        phi = np.arctan2(sg.nodes[:, 1], sg.nodes[:, 0])
        # orthonormality of Y_2^1 and vanishing mean of Y_3^2 up to the
        # declared degree
        y21 = sph_harm_y(2, 1, theta, phi)
        assert np.sum(sg.weights * np.abs(y21) ** 2) == pytest.approx(1.0, rel=1e-12)
        y32 = sph_harm_y(3, 2, theta, phi)
        assert abs(np.sum(sg.weights * y32)) < 1e-12

    def test_degree(self):
        sg = SphereGrid.build(1.0, 6, 12)
        assert sg.degree == 11

    def test_points_radius(self):
        sg = SphereGrid.build(5.0, 4, 8)
        assert np.allclose(np.linalg.norm(sg.points(), axis=1), 5.0)


class TestNearFieldOperator:
    def test_vacuum_zero(self):
        grid = CubeGrid(np.pi, 16)
        n = RefractiveIndex(grid=grid, values=np.ones((16,) * 3), b=1.0)
        sg = SphereGrid.build(1.5 * np.pi, 2, 2)
        data = near_field_operator(n, KAPPA, sg)
        assert np.max(np.abs(data.matrices)) < 1e-12

    def test_radius_check(self):
        grid = CubeGrid(np.pi, 16)
        n = RefractiveIndex(grid=grid, values=np.ones((16,) * 3), b=1.0)
        with pytest.raises(ValueError):
            near_field_operator(n, KAPPA, SphereGrid.build(2.0, 2, 2))

    def test_reciprocity_pointwise(self):
        # w^s(x, y) = w^s(y, x)^T for two source/receiver locations; the
        # defect converges with the grid (2.5e-4 at N=48), smoke level here
        grid = CubeGrid(np.pi, 32)
        n = bump_medium(grid)
        solver = ScatteringSolver(n, KAPPA)
        R = 1.5 * np.pi
        x = R * np.array([0.3, -0.5, 0.81])
        x *= R / np.linalg.norm(x)
        y = R * np.array([-0.9, 0.1, 0.42])
        y *= R / np.linalg.norm(y)
        w_xy = np.empty((3, 3), dtype=complex)
        w_yx = np.empty((3, 3), dtype=complex)
        for j in range(3):
            e = solver.solve(DipoleSource(y, np.eye(3)[j], KAPPA))
            w_xy[:, j] = solver.scattered_at(e, x[None, :])[0]
            e = solver.solve(DipoleSource(x, np.eye(3)[j], KAPPA))
            w_yx[:, j] = solver.scattered_at(e, y[None, :])[0]
        assert np.linalg.norm(w_xy - w_yx.T) <= 2e-3 * np.linalg.norm(w_xy)

    def test_linear_response(self):
        grid = CubeGrid(np.pi, 24)
        sg = SphereGrid.build(1.5 * np.pi, 2, 2)
        norms = []
        for a in (0.02, 0.01):
            data = near_field_operator(bump_medium(grid, amplitude=a), KAPPA, sg)
            norms.append(data.norm())
        assert norms[0] / norms[1] == pytest.approx(2.0, rel=0.1)


class TestFarFieldOperator:
    def test_vacuum_zero(self):
        grid = CubeGrid(np.pi, 16)
        n = RefractiveIndex(grid=grid, values=np.ones((16,) * 3), b=1.0)
        sg = SphereGrid.build(1.0, 2, 4)
        data = far_field_operator(n, KAPPA, sg, sg)
        assert np.max(np.abs(data.matrices)) < 1e-12

    def test_reciprocity(self):
        # e_inf(xhat, d) = e_inf(-d, -xhat)^T
        grid = CubeGrid(np.pi, 24)
        solver = ScatteringSolver(bump_medium(grid), KAPPA)
        d = np.array([0.0, 0.0, 1.0])
        xhat = np.array([np.sin(1.2), 0.0, np.cos(1.2)])

        def matrix(xh, dd):
            ref = np.eye(3)[np.argmin(np.abs(dd))]
            t1 = np.cross(dd, ref)
            t1 /= np.linalg.norm(t1)
            t2 = np.cross(dd, t1)
            pats = [solver.far_pattern(solver.solve(PlaneWave(dd, t, KAPPA)),
                                       xh[None, :])[0] for t in (t1, t2)]
            m = np.empty((3, 3), dtype=complex)
            for j in range(3):
                m[:, j] = t1[j] * pats[0] + t2[j] * pats[1]
            return m

        m1 = matrix(xhat, d)
        m2 = matrix(-d, -xhat)
        assert np.linalg.norm(m1 - m2.T) <= 1e-2 * np.linalg.norm(m1)

    def test_matrix_assembly_matches_direct(self):
        # column for a generic polarization equals the matrix times it
        grid = CubeGrid(np.pi, 16)
        n = bump_medium(grid, amplitude=0.1)
        rec = SphereGrid.build(1.0, 2, 4)
        inc = SphereGrid.build(1.0, 2, 2)
        data = far_field_operator(n, KAPPA, rec, inc)
        solver = ScatteringSolver(n, KAPPA)
        d = inc.nodes[1]
        p = np.array([0.3, -0.9, 0.5])
        e = solver.solve(PlaneWave(d, p, KAPPA))
        direct = solver.far_pattern(e, rec.nodes)
        via_matrix = np.einsum("xij,j->xi", data.matrices[:, 1], p)
        assert np.linalg.norm(direct - via_matrix) <= 1e-8 * np.linalg.norm(direct)

    def test_nonconvergence_context(self, monkeypatch):
        # an unreachable tolerance fails the first solve, tagged with its
        # (incidence, polarization) label
        grid = CubeGrid(np.pi, 8)
        one = SphereGrid.build(1.0, 1, 1)
        monkeypatch.setattr(forward, "GMRES_RTOL", 1e-30)
        monkeypatch.setattr(forward, "GMRES_MAXITER", forward.GMRES_RESTART)
        with pytest.raises(SolveError) as err:
            far_field_operator(bump_medium(grid), KAPPA, one, one)
        assert err.value.context == (0, 0)
        assert len(err.value.residuals) > 0


class TestFarFieldCoeffs:
    """Harmonic coefficients from one Herglotz solve per (harmonic, axis)."""

    def test_matches_plane_wave_coeffs(self):
        grid = CubeGrid(np.pi, 16)
        n = bump_medium(grid)
        L = 4
        unit = SphereGrid.build(1.0, L + 1, 2 * L + 1)
        want = far_coeffs(far_field_operator(n, KAPPA, unit, unit), L).alpha
        got = far_field_coeffs(n, KAPPA, unit, unit, L).alpha
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    def test_per_axis_field_matches_dense_sum(self):
        # sum_d w_d conj(Y_b(d)) (I - d d^T) e_j exp(i kappa d.x) with the
        # phase formed per point, on a box that is not a cube
        L = 2
        inc = SphereGrid.build(1.0, L + 1, 2 * L + 1)
        pts = CubeGrid(np.pi, 16).points()[2:9, 4:8, 1:12]
        cols = DataColumns.herglotz(inc, KAPPA, L)
        d, w = inc.nodes, inc.weights
        phase = np.exp(1j * KAPPA * pts @ d.T)  # (..., n_d)
        ys = harmonic_table(L, d)
        assert len(cols.sources) == 3 * (L + 1) ** 2
        for src, (b, j) in zip(cols.sources, cols.labels):
            amps = (w * np.conj(ys[b]))[:, None] * (np.eye(3)[j] - d * d[:, [j]])
            want = phase @ amps
            got = src.electric(pts)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_solve_count(self, monkeypatch):
        calls = []
        solve = ScatteringSolver.solve

        def counted(self, source, context=None):
            calls.append(context)
            return solve(self, source, context)

        monkeypatch.setattr(ScatteringSolver, "solve", counted)
        L = 2
        unit = SphereGrid.build(1.0, L + 1, 2 * L + 1)
        far_field_coeffs(bump_medium(CubeGrid(np.pi, 8)), KAPPA, unit, unit, L)
        assert calls == list(np.ndindex(((L + 1) ** 2, 3)))

    def test_nonconvergence_context(self, monkeypatch):
        # the first Herglotz solve fails, tagged with its (harmonic, axis);
        # two directions off the axes, so that no field of degree 0 is zero
        two = SphereGrid.build(1.0, 2, 1)
        monkeypatch.setattr(forward, "GMRES_RTOL", 1e-30)
        monkeypatch.setattr(forward, "GMRES_MAXITER", forward.GMRES_RESTART)
        with pytest.raises(SolveError) as err:
            far_field_coeffs(bump_medium(CubeGrid(np.pi, 8)), KAPPA, two, two,
                             0)
        assert err.value.context == (0, 0)
        assert len(err.value.residuals) > 0

    def test_insufficient_degree(self):
        unit = SphereGrid.build(1.0, 3, 5)  # degree 4
        n = bump_medium(CubeGrid(np.pi, 8))
        with pytest.raises(ValueError, match="degree L=5"):
            far_field_coeffs(n, KAPPA, unit, unit, 5)


class TestKrylov:
    """The package's GMRES against scipy.sparse.linalg.gmres at the same
    constants as the oracle: the same matvecs, the same solution, and the
    last matvec at the returned x."""

    @staticmethod
    def _dense_system(size=40, seed=0, scale=0.1):
        rng = np.random.default_rng(seed)
        a = np.eye(size) + scale * _random(rng, (size, size)) / np.sqrt(size)
        return a, _random(rng, size)

    @staticmethod
    def _recorded(a):
        inputs = []

        def matvec(v):
            inputs.append(v.copy())
            return a @ v
        return matvec, inputs

    def _check_against_scipy(self, a, b, x0=None):
        """Solve with both; returns the number of matvecs."""
        matvec, inputs = self._recorded(a)
        x = forward._gmres(matvec, b, x0)
        oracle, oracle_inputs = self._recorded(a)
        y, info = gmres(LinearOperator(a.shape, matvec=oracle, dtype=complex),
                        b, x0=x0, rtol=forward.GMRES_RTOL, atol=0.0,
                        restart=forward.GMRES_RESTART,
                        maxiter=forward.GMRES_MAXITER // forward.GMRES_RESTART)
        assert info == 0
        assert len(inputs) == len(oracle_inputs)
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)
        assert np.array_equal(inputs[-1], x)
        assert np.linalg.norm(a @ x - b) \
            <= forward.GMRES_RTOL * np.linalg.norm(b)
        return len(inputs)

    def test_no_matvec_beyond_gmres(self):
        for seed, scale in ((0, 0.1), (1, 1.0), (2, 2.0)):
            a, b = self._dense_system(seed=seed, scale=scale)
            assert self._check_against_scipy(a, b) > 2
            assert self._check_against_scipy(a, b, x0=0.5 * b) > 2

    def test_restarts_match_scipy(self, monkeypatch):
        monkeypatch.setattr(forward, "GMRES_RESTART", 3)
        a, b = self._dense_system(size=30, seed=3, scale=0.5)
        # more matvecs than three cycles of 3 Arnoldi steps and a true
        # residual each
        assert self._check_against_scipy(a, b) > 3 * (3 + 1)

    def test_zero_rhs_explicit_matvec(self):
        # b = 0 returns x = 0, whatever x0, after one matvec there
        a, _ = self._dense_system()
        rng = np.random.default_rng(4)
        for x0 in (None, _random(rng, a.shape[0])):
            matvec, inputs = self._recorded(a)
            x = forward._gmres(matvec, np.zeros(a.shape[0], dtype=complex), x0)
            assert np.all(x == 0)
            assert len(inputs) == 1 and np.all(inputs[0] == 0)

    def test_wrong_solution_still_caught(self, monkeypatch):
        # an operator that changes at the cycle's true-residual matvec: the
        # Arnoldi estimate reports convergence, the true residual does not
        a, b = self._dense_system()
        oracle, inputs = self._recorded(a)
        forward._gmres(oracle, b)
        k = len(inputs) - 1  # Arnoldi steps of the unchanged operator
        calls = []

        def changing(v):
            calls.append(1)
            return (a if len(calls) <= k else 2.0 * a) @ v

        monkeypatch.setattr(forward, "GMRES_MAXITER", forward.GMRES_RESTART)
        with pytest.raises(SolveError, match=rf"in {k + 1} matvecs \(residual "
                           r"\d\.\de[-+]\d+ above tolerance\)") as err:
            forward._gmres(changing, b, context=(2, 1))
        assert len(err.value.residuals) == k
        assert err.value.residuals[-1] <= forward.GMRES_RTOL
        assert err.value.context == (2, 1)

    def test_matvecs_per_solve(self, monkeypatch):
        # one initial residual, four Arnoldi steps and GMRES's final
        # residual, with no extra matvec for the check
        grid = CubeGrid(np.pi, 16)
        solver = ScatteringSolver(bump_medium(grid), KAPPA)
        calls = []
        matvec = ScatteringSolver._matvec

        def counted(self, flat):
            calls.append(1)
            return matvec(self, flat)

        monkeypatch.setattr(ScatteringSolver, "_matvec", counted)
        pw = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), KAPPA)
        e = solver.solve(pw)
        assert len(calls) == 6
        assert solver.residual(e, pw) < 1e-7

    @pytest.mark.parametrize("mapped", [False, True])
    def test_basis_held_once(self, monkeypatch, mapped):
        # the basis is one array grown a block of rows at a time, and the
        # update multiplies a view of it, where a copy of the basis would
        # add about one traced vector per matvec.  A numpy basis, grown in
        # place, keeps the solve's traced peak under one vector per matvec
        # plus a few (the block's spare rows, x, b, the last Arnoldi
        # vector, the potential's output).  A mapped one (every basis here,
        # with _HUGE = 0) is not traced, and the rest stays under a few;
        # it gives the numpy basis's solution bit for bit.
        grid = CubeGrid(np.pi, 16)
        solver = ScatteringSolver(bump_medium(grid, amplitude=1.0), 4.0)
        pw = PlaneWave(np.array([0.0, 0.6, 0.8]), np.array([1.0, 0.0, 0.0]),
                       4.0)
        want = solver.solve(pw)  # plans and caches outside the trace
        if mapped:
            monkeypatch.setattr(forward, "_HUGE", 0)
        calls = []
        matvec = ScatteringSolver._matvec

        def counted(self, flat):
            calls.append(1)
            return matvec(self, flat)

        monkeypatch.setattr(ScatteringSolver, "_matvec", counted)
        tracemalloc.start()
        try:
            got = solver.solve(pw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        vector = np.prod(solver.shape) * 3 * 16
        assert len(calls) >= 20  # the basis outgrows its first rows
        assert peak < (8 if mapped else len(calls) + 8) * vector
        assert np.array_equal(got, want)


def _random(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _inner(a, b):
    return np.sum(a * np.conj(b))


class TestAdjointIdentities:
    """<A x, y> = <x, A^H y> for the data maps and the volume potential."""

    grid = CubeGrid(np.pi, 12)

    def _check_map(self, rmap, seed):
        rng = np.random.default_rng(seed)
        n_ball = int(np.sum(self.grid.radii() < np.pi))
        qe, pe = _random(rng, (n_ball, 3)), _random(rng, n_ball)
        rows = _random(rng, (rmap.kernel.shape[0], 3))
        mu, nu = rmap.adjoint(rows)
        lhs = _inner(rmap.apply(qe, pe), rows)
        rhs = _inner(qe, mu) + _inner(pe, nu)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def _ball(self):
        return self.grid.points()[self.grid.radii() < np.pi]

    def test_near_map(self):
        points = SphereGrid.build(1.5 * np.pi, 2, 3).points()
        self._check_map(ReceiverMap.near(self.grid, KAPPA, points,
                                         self._ball()), 1)

    def test_far_map(self):
        dirs = SphereGrid.build(1.0, 2, 3).nodes
        self._check_map(ReceiverMap.far(self.grid, KAPPA, dirs, self._ball()),
                        2)

    def test_volume_potential(self):
        solver = two_path_solver("whole")
        rng = np.random.default_rng(3)
        shape = solver.shape
        q, p = _random(rng, shape), _random(rng, shape + (3,))
        e, lam = _random(rng, shape + (3,)), _random(rng, shape + (3,))
        vec, sca = solver.potential_adjoint(lam)
        lhs = _inner(solver._conv.potential(e, q, p), lam)
        rhs = _inner(e, np.conj(q)[..., None] * vec + np.conj(p) * sca[..., None])
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_column_layout(self):
        # the layout's adjoint written out per source: rows (x, i) of the
        # column contracted with the source's polarization
        rng = np.random.default_rng(4)
        cols = DataColumns.plane_waves(SphereGrid.build(1.0, 2, 2), KAPPA)
        rows = [_random(rng, (5, 3)) for _ in cols.sources]
        mats = _random(rng, (5, cols.pols.shape[0], 3, 3))
        lhs = _inner(cols.assemble(rows), mats)
        rhs = sum(_inner(r, mats[:, c] @ cols.pols[c, s])
                  for r, (c, s) in zip(rows, cols.labels))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def _full_pad(solver, x):
    """Box data x embedded in the zero (2N)^3 pad: at the box's nodes of the
    grid, and the grid at the potential's offset."""
    o, N = solver.N // 2, solver.N
    grid = np.zeros((N,) * 3, dtype=complex)
    grid[solver.box] = x
    pad = np.zeros((2 * N,) * 3, dtype=complex)
    pad[o:o + N, o:o + N, o:o + N] = grid
    return pad


def _crop(solver, x, box=None):
    """The nodes of ``box`` (by default the solver's) of the grid block of a
    (2N)^3 pad."""
    o, N = solver.N // 2, solver.N
    return x[o:o + N, o:o + N, o:o + N][solver.box if box is None else box]


def _full_grad_symbol(solver, symbol):
    k = np.fft.fftfreq(2 * solver.N, d=1.0 / (2 * solver.N)) * 0.5
    k1, k2, k3 = np.meshgrid(k, k, k, indexing="ij")
    return 1j * np.stack([k1, k2, k3], axis=-1) * symbol[..., None]


def oracle_potential(solver, e, q, p, box=None):
    """Volume potential by dense FFTs of the full zero-padded cube, with
    the inputs zero outside the solver's box, read on ``box`` (by default
    the solver's)."""
    symbol = solver.symbol
    gsym = _full_grad_symbol(solver, symbol)
    ghat = scipy.fft.fftn(_full_pad(solver, np.sum(p * e, axis=-1)))
    out = []
    for c in range(3):
        spec = (-solver.kappa**2 * symbol
                * scipy.fft.fftn(_full_pad(solver, q * e[..., c]))
                + gsym[..., c] * ghat)
        out.append(_crop(solver, scipy.fft.ifftn(spec), box))
    return np.stack(out, axis=-1)


def oracle_potential_adjoint(solver, lam):
    symbol = solver.symbol
    gsym = _full_grad_symbol(solver, symbol)
    acc = np.zeros((2 * solver.N,) * 3, dtype=complex)
    vec = np.empty_like(lam)
    for c in range(3):
        lhat = scipy.fft.fftn(_full_pad(solver, lam[..., c]))
        vec[..., c] = -solver.kappa**2 * _crop(
            solver, scipy.fft.ifftn(np.conj(symbol) * lhat))
        acc += np.conj(gsym[..., c]) * lhat
    return vec, _crop(solver, scipy.fft.ifftn(acc))


class TestPrunedPotential:
    """The axis-by-axis padded transforms against dense FFTs of the full
    (2N)^3 pad."""

    @staticmethod
    def _rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    @staticmethod
    def _check(solver, seed):
        # the adjoint only where the solver has one: on the whole grid
        rng = np.random.default_rng(seed)
        shape = solver.shape
        e, lam = _random(rng, shape + (3,)), _random(rng, shape + (3,))
        q, p = _random(rng, shape), _random(rng, shape + (3,))
        assert TestPrunedPotential._rel(
            solver.potential(e),
            oracle_potential(solver, e, solver.q, solver.p)) <= 1e-13
        assert TestPrunedPotential._rel(
            solver._conv.potential(e, q, p),
            oracle_potential(solver, e, q, p)) \
            <= 1e-13
        if shape == (solver.N,) * 3:
            for got, want in zip(solver.potential_adjoint(lam),
                                 oracle_potential_adjoint(solver, lam)):
                assert TestPrunedPotential._rel(got, want) <= 1e-13

    @pytest.mark.parametrize("n_grid", [8, 12, 16, 24])
    def test_matches_full_pad(self, n_grid):
        # a medium known by its samples: the solver works on the whole grid
        grid = CubeGrid(np.pi, n_grid)
        n = RefractiveIndex(grid=grid, values=bump_medium(grid).values, b=1.0)
        solver = ScatteringSolver(n, KAPPA)
        assert solver.shape == (n_grid,) * 3
        assert not hasattr(solver, "grad_symbol")
        self._check(solver, n_grid)

    @pytest.mark.parametrize("n_grid", [8, 12, 16, 24])
    def test_box_matches_zeroed_full_pad(self, n_grid):
        # an off-centre bump: the box potential is the whole grid's with
        # its inputs zero outside the box, read on the box
        n = bump_medium(CubeGrid(np.pi, n_grid), width=1.0,
                        center=(1.2, -0.9, 0.6))
        solver = ScatteringSolver(n, KAPPA)
        if n_grid >= 16:
            assert all(s.stop - s.start < n_grid for s in solver.box)
            assert all(s.start > 0 for s in solver.box)
        self._check(solver, n_grid)

    @pytest.mark.parametrize("case", ["whole", "box"])
    def test_copying_transforms(self, monkeypatch, case):
        # transforms that leave their input as it is and return a new array
        # give the same potentials: nothing relies on overwrite_x
        for name in ("fftn", "ifftn"):
            def copying(x, *args, _transform=getattr(scipy.fft, name),
                        **kwargs):
                return _transform(np.array(x), *args, **kwargs)
            monkeypatch.setattr(scipy.fft, name, copying)
        solver = two_path_solver(case)
        rng = np.random.default_rng(8)
        shape = solver.shape + (3,)
        e, lam = _random(rng, shape), _random(rng, shape)
        assert self._rel(solver.potential(e),
                         oracle_potential(solver, e, solver.q, solver.p)) \
            <= 1e-13
        if case == "whole":
            for got, want in zip(solver.potential_adjoint(lam),
                                 oracle_potential_adjoint(solver, lam)):
                assert self._rel(got, want) <= 1e-13

    @pytest.mark.parametrize("case", ["whole", "box"])
    def test_results_survive_later_calls(self, case):
        # the solver transforms in work buffers it keeps: a result must not
        # be one of them, nor change when the solver is called again
        solver = two_path_solver(case)
        rng = np.random.default_rng(9)
        shape = solver.shape + (3,)
        e1, e2 = _random(rng, shape), _random(rng, shape)
        first = solver.potential(e1)
        kept = first.copy()
        solver.potential(e2)
        assert np.array_equal(first, kept)
        adj = ()
        if case == "whole":  # only the whole grid has an adjoint
            adj = solver.potential_adjoint(e1)
            kept = [a.copy() for a in adj]
            solver.potential_adjoint(e2)
            assert all(np.array_equal(a, k) for a, k in zip(adj, kept))
        buffers = [v for v in (*vars(solver).values(),
                               *vars(solver._conv).values())
                   if isinstance(v, np.ndarray)]
        for result in (first, *adj):
            assert not any(np.shares_memory(result, b) for b in buffers)

    @pytest.mark.parametrize("case", ["whole", "box"])
    def test_zero_inputs_skip_transforms(self, monkeypatch, case):
        # a vacuum solver (q = p = 0, the inversion's start) and zero
        # adjoint right-hand sides: exact zeros, with no call to scipy.fft
        solver = two_path_solver(case)
        grid = solver.n.grid
        vacuum = ScatteringSolver(
            ContrastMedium(grid=grid, coeffs=np.zeros((grid.n,) * 3,
                                                      dtype=complex)), KAPPA)
        calls = []
        for name in ("fftn", "ifftn"):
            def counted(*args, _transform=getattr(scipy.fft, name),
                        **kwargs):
                calls.append(_transform)
                return _transform(*args, **kwargs)
            monkeypatch.setattr(scipy.fft, name, counted)
        rng = np.random.default_rng(10)
        e, e_vac = (_random(rng, s.shape + (3,)) for s in (solver, vacuum))
        out = vacuum.potential(e_vac)
        assert out.shape == e_vac.shape and not np.any(out)
        if case == "whole":
            vec, sca = solver.potential_adjoint(np.zeros_like(e))
            assert vec.shape == e.shape and sca.shape == solver.shape
            assert not (np.any(vec) or np.any(sca))
        assert calls == []
        solver.potential(e)  # the medium's own contrast is not zero
        assert calls

    def test_box_has_no_adjoint(self, monkeypatch):
        # the adjoint potential serves the data Jacobian, which pairs fields
        # on the whole grid: a box solver refuses it before any transform
        solver = two_path_solver("box")
        calls = []
        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(scipy.fft, name,
                                lambda *args, **kwargs: calls.append(args))
        lam = _random(np.random.default_rng(11), solver.shape + (3,))
        for x in (lam, np.zeros_like(lam)):
            with pytest.raises(ValueError, match="box"):
                solver.potential_adjoint(x)
        assert calls == []

    @pytest.mark.parametrize("n_grid", [16, 24])
    def test_grid_field_matches_full_pad(self, n_grid):
        # off the box, grid_field is E_inc plus the whole grid's potential
        # of the box's sources, embedded in the grid with zeros elsewhere
        grid = CubeGrid(np.pi, n_grid)
        solver = ScatteringSolver(bump_medium(grid, width=1.0,
                                              center=(1.2, -0.9, 0.6)),
                                  KAPPA)
        assert solver.shape != (n_grid,) * 3
        pw = PlaneWave(np.array([0.6, 0.0, 0.8]), np.array([0.0, 1.0, 0.0]),
                       KAPPA)
        e = _random(np.random.default_rng(n_grid), solver.shape + (3,))
        filled = solver.grid_field(e, pw)
        outside = np.ones((n_grid,) * 3, dtype=bool)
        outside[solver.box] = False
        want = oracle_potential(solver, e, solver.q, solver.p,
                                box=(slice(0, n_grid),) * 3)[outside]
        got = filled[outside] - pw.electric(grid.points()[outside])
        assert self._rel(got, want) <= 1e-13
        assert np.array_equal(filled[solver.box], e)


class TestBatchedPasses:
    """The padded passes over a batch of fields on the leading axis: one
    scipy.fft call per axis, each field as if transformed alone."""

    shape, ext = (12, 9, 10), (6, 4, 5)  # a non-cubic lattice and extent

    def _filled(self, rng):
        # garbage outside the data's corner, which the passes must pad away
        batch = 1e3 * _random(rng, (4,) + self.shape)
        forward._corner(batch, self.ext)[...] = _random(rng, (4,) + self.ext)
        return batch

    def test_forward_matches_per_field(self):
        batch = self._filled(np.random.default_rng(12))
        data = forward._corner(batch, self.ext).copy()
        fields = [b.copy() for b in batch]
        forward._fft_passes(batch, self.ext, (0, 1, 2))
        for field, x, got in zip(fields, data, batch):
            forward._fft_passes(field, self.ext, (0, 1, 2))
            assert np.array_equal(got, field)
            pad = np.zeros(self.shape, dtype=complex)
            pad[:6, :4, :5] = x
            want = scipy.fft.fftn(pad)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_inverse_matches_per_field(self):
        batch = _random(np.random.default_rng(13), (4,) + self.shape)
        fields = [b.copy() for b in batch[:3]]
        crop = forward._ifft_passes(batch[:3], self.ext, (2, 1, 0))
        assert crop.shape == (3,) + self.ext
        for field, got in zip(fields, crop):
            full = scipy.fft.ifftn(field)[:6, :4, :5]
            want = forward._ifft_passes(field, self.ext, (2, 1, 0))
            assert np.array_equal(got, want)
            assert np.linalg.norm(got - full) <= 1e-13 * np.linalg.norm(full)

    def test_box_potential_calls(self, monkeypatch):
        # the four densities forward in 3 calls, the three components back
        # in 3 more
        solver = two_path_solver("box")
        calls = []
        for name in ("fftn", "ifftn"):
            def counted(*args, _transform=getattr(scipy.fft, name),
                        **kwargs):
                calls.append(_transform)
                return _transform(*args, **kwargs)
            monkeypatch.setattr(scipy.fft, name, counted)
        e = _random(np.random.default_rng(14), solver.shape + (3,))
        solver.potential(e)
        assert len(calls) == 6

    @staticmethod
    def _small_blocks(monkeypatch, rows):
        """A box solver whose lattice runs in blocks of ``rows`` axis-0
        slabs, with its lattice's shape."""
        shape = two_path_solver("box")._conv.spectra[0].shape
        monkeypatch.setattr(forward, "_BLOCK",
                            rows * shape[1] * shape[2] + 1)
        return two_path_solver("box"), shape

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_blocks_match_one_block(self, monkeypatch, workers):
        # axes 1 and 2 run on blocks of 4 axis-0 slabs, or with K workers
        # on K threads of blocks of 4 // K slabs, each on one worker: the
        # same bits as one block holding the lattice, in 2 + 4 calls per
        # block, the 2 axis-0 calls on the caller with its workers; 4
        # threads on 2 cores, switching often, write no slab twice
        solver = two_path_solver("box")
        e = _random(np.random.default_rng(15), solver.shape + (3,))
        want = solver.potential(e)
        solver, shape = self._small_blocks(monkeypatch, 4)
        calls = []
        for name in ("fftn", "ifftn"):
            def counted(*args, _transform=getattr(scipy.fft, name),
                        **kwargs):
                calls.append((threading.current_thread(),
                              scipy.fft.get_workers()))
                return _transform(*args, **kwargs)
            monkeypatch.setattr(scipy.fft, name, counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with scipy.fft.set_workers(workers):
                got = solver.potential(e)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)
        caller = (threading.current_thread(), workers)
        assert calls[0] == calls[-1] == caller
        assert len(calls) == 2 + 4 * -(-shape[0] // (4 // workers))
        blocks = calls[1:-1]
        assert {w for _, w in blocks} == {1}
        assert len({t for t, _ in blocks}) == workers

    def test_block_threads_share_the_block_memory(self, monkeypatch):
        # each thread transforms in its own share of the solver's one block
        # and work buffer: no more block memory with 2 workers than with 1
        solver, _ = self._small_blocks(monkeypatch, 5)
        conv, used = solver._conv, []

        def recording(self, batch, block, work, starts,
                      _blocks=forward._Convolution._blocks):
            used.append((scipy.fft.get_workers(), block, work))
            return _blocks(self, batch, block, work, starts)

        monkeypatch.setattr(forward._Convolution, "_blocks", recording)
        e = _random(np.random.default_rng(16), solver.shape + (3,))
        with scipy.fft.set_workers(1):
            one = solver.potential(e)
        with scipy.fft.set_workers(2):
            assert np.array_equal(solver.potential(e), one)
        assert len(used) == 3 and used[0][0] == 1
        shares = used[1:]
        assert sum(b.nbytes + w.nbytes for _, b, w in shares) \
            <= used[0][1].nbytes + used[0][2].nbytes
        for _, block, work in shares:
            assert np.shares_memory(block, conv._block)
            assert np.shares_memory(work, conv._work)
        (_, b0, w0), (_, b1, w1) = shares
        assert not (np.shares_memory(b0, b1) or np.shares_memory(w0, w1))

    @pytest.mark.parametrize("where", ["caller", "thread"])
    def test_block_thread_errors_reach_the_caller(self, monkeypatch, where):
        # an error in either share of the blocks reaches the caller, once
        # every block thread has ended
        solver, _ = self._small_blocks(monkeypatch, 4)
        caller = threading.current_thread()

        def failing(buf, ext, axes, full=(0, 1, 2),
                    _passes=forward._ifft_passes):
            if (threading.current_thread() is caller) == (where == "caller"):
                raise RuntimeError(f"failed on the {where}")
            return _passes(buf, ext, axes, full)

        monkeypatch.setattr(forward, "_ifft_passes", failing)
        e = _random(np.random.default_rng(17), solver.shape + (3,))
        before = threading.active_count()
        with scipy.fft.set_workers(2), \
                pytest.raises(RuntimeError, match=f"on the {where}"):
            solver.potential(e)
        assert threading.active_count() == before


def oracle_box_spectra(solver):
    """The box kernels' spectra from the full (2N)^3
    :attr:`ScatteringSolver.symbol`: the pruned inverse passes along axes 0
    and 1 on the whole cube, then axis 2, the i k_2 factor and the padded
    forward transform as the solver takes them."""
    symbol, conv = solver.symbol, solver._conv
    M, ext = symbol.shape[0], conv.ext
    top = max(ext)
    span = np.arange(1 - top, top) % M

    def ifft_at(x, ax):
        return np.take(scipy.fft.ifftn(x, axes=(ax,)), span, axis=ax)

    half = ifft_at(ifft_at(symbol, 0), 1)
    g2 = ifft_at(0.5j * np.r_[:M // 2, -(M // 2):0] * half, 2)
    samples = (ifft_at(half, 2), g2.transpose(2, 1, 0),
               g2.transpose(0, 2, 1), g2)
    keep = tuple(slice(top - a, top + a - 1) for a in ext)
    shape = conv.spectra[0].shape
    phase = np.ones(shape, dtype=complex)
    for ax, (n, size) in enumerate(zip(shape, ext)):
        turns = (size - 1) * np.arange(n) % n / n
        phase *= np.exp(2j * np.pi * turns).reshape(np.roll((-1, 1, 1), ax))
    spectra = [scipy.fft.fftn(k[keep], s=shape) * phase for k in samples]
    spectra[0] *= -solver.kappa**2
    return spectra


class TestBoxKernels:
    """The box solver gathers its symbol slab by slab, never the (2N)^3
    cube."""

    @pytest.mark.parametrize("n_grid, shape", [(16, (14, 14, 14)),
                                               (48, (28, 28, 30))])
    def test_spectra_match_full_symbol(self, n_grid, shape):
        # the medium of the acceptance tests: a cubic box at N = 16, a
        # non-cubic one at N = 48
        solver = ScatteringSolver(bump_medium(CubeGrid(np.pi, n_grid)), KAPPA)
        assert solver.shape == shape
        for got, want in zip(solver._conv.spectra, oracle_box_spectra(solver)):
            assert np.array_equal(got, want)

    def test_build_memory(self):
        # N = 48: the (2N)^3 symbol and its first inverse pass alone would
        # take 27 MiB; whole, the build peaked at 53.5 MiB traced when it
        # formed them, and at 39 MiB gathering slabs
        n = bump_medium(CubeGrid(np.pi, 48))
        ScatteringSolver(n, KAPPA)  # first call: plans and caches
        tracemalloc.start()
        try:
            solver = ScatteringSolver(n, KAPPA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solver.shape == (28, 28, 30)
        assert peak < 45 * 2**20
