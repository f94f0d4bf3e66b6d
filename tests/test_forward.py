"""Tests for the volume-integral forward solver and data operators."""

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad

from emiscat.forward import (
    DataColumns,
    DipoleSource,
    PlaneWave,
    ReceiverMap,
    ScatteringSolver,
    SolveError,
    SphereGrid,
    background_green,
    far_field_operator,
    helmholtz_kernel,
    near_field_operator,
    truncated_kernel_symbol,
)
from emiscat.fourier import BumpProfile, CubeGrid, RefractiveIndex, make_test_index

KAPPA = 1.0


def bump_medium(grid, amplitude=0.2, width=1.5, center=(0.3, -0.2, 0.1)):
    prof = BumpProfile(centers=(center,), amplitudes=(amplitude,), widths=(width,))
    return make_test_index(prof, grid, b=1.0)


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

    def test_magnetic_is_curl(self):
        src = DipoleSource(np.zeros(3), np.array([0.2, 1.0, -0.4]), KAPPA)
        x = np.array([1.2, 0.7, -1.5])
        # H = (i kappa)^{-1} curl E for the radiated dipole field
        expected = fd_curl(lambda p: src.electric(p), x) / (1j * KAPPA)
        assert np.linalg.norm(src.magnetic(x) - expected) < 1e-6


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

    def test_magnetic_is_curl(self):
        d = np.array([0.0, 1.0, 0.0])
        pw = PlaneWave(d, np.array([0.0, 0.0, 1.0]), KAPPA)
        x = np.array([0.3, -0.8, 0.4])
        expected = fd_curl(lambda p: pw.electric(p), x) / (1j * KAPPA)
        assert np.linalg.norm(pw.magnetic(x) - expected) < 1e-6

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
        with pytest.raises(ValueError):
            helmholtz_kernel(np.zeros(3), KAPPA)


class TestSolver:
    def test_vacuum_identity(self):
        grid = CubeGrid(np.pi, 16)
        n = RefractiveIndex(grid=grid, values=np.ones((16,) * 3), b=1.0)
        solver = ScatteringSolver(n, KAPPA)
        pw = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), KAPPA)
        e = solver.solve(pw)
        assert np.max(np.abs(e.values - pw.electric(grid.points()))) < 1e-12

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
            e_inc = pw.electric(grid.points())
            dev = np.linalg.norm(e.values - born.values)
            born_term = np.linalg.norm(born.values - e_inc)
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

    def test_nonconvergence_reported(self):
        grid = CubeGrid(np.pi, 16)
        n = bump_medium(grid, amplitude=0.5, width=2.0, center=(0.0, 0.0, 0.0))
        solver = ScatteringSolver(n, KAPPA, rtol=1e-14, restart=2, maxiter=2)
        pw = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), KAPPA)
        with pytest.raises(SolveError) as err:
            solver.solve(pw)
        assert len(err.value.residuals) > 0


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

    def test_nonconvergence_context(self):
        # an unreachable tolerance fails the first solve, tagged with its
        # (incidence, polarization) label
        grid = CubeGrid(np.pi, 8)
        one = SphereGrid.build(1.0, 1, 1)
        with pytest.raises(SolveError) as err:
            far_field_operator(bump_medium(grid), KAPPA, one, one, rtol=1e-30)
        assert err.value.context == (0, 0)
        assert len(err.value.residuals) > 0


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

    def test_near_map(self):
        points = SphereGrid.build(1.5 * np.pi, 2, 3).points()
        self._check_map(ReceiverMap.near(self.grid, KAPPA, points), 1)

    def test_far_map(self):
        dirs = SphereGrid.build(1.0, 2, 3).nodes
        self._check_map(ReceiverMap.far(self.grid, KAPPA, dirs), 2)

    def test_volume_potential(self):
        solver = ScatteringSolver(bump_medium(self.grid), KAPPA)
        rng = np.random.default_rng(3)
        shape = (12,) * 3
        q, p = _random(rng, shape), _random(rng, shape + (3,))
        e, lam = _random(rng, shape + (3,)), _random(rng, shape + (3,))
        vec, sca = solver.potential_adjoint(lam)
        lhs = _inner(solver.potential(e, q, p), lam)
        rhs = _inner(e, np.conj(q)[..., None] * vec + np.conj(p) * sca[..., None])
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_column_layout(self):
        rng = np.random.default_rng(4)
        cols = DataColumns.plane_waves(SphereGrid.build(1.0, 2, 2), KAPPA)
        rows = [_random(rng, (5, 3)) for _ in cols.sources]
        mats = _random(rng, (5, cols.pols.shape[0], 3, 3))
        lhs = _inner(cols.assemble(rows), mats)
        rhs = sum(_inner(r, m) for r, m in zip(rows, cols.split(mats)))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def _full_pad(solver, x):
    """x embedded in the zero (2N)^3 pad at the potential's offset."""
    o, N = solver.N // 2, solver.N
    pad = np.zeros((solver.M,) * 3, dtype=complex)
    pad[o:o + N, o:o + N, o:o + N] = x
    return pad


def _full_grad_symbol(solver):
    k = np.fft.fftfreq(solver.M, d=1.0 / solver.M) * 0.5
    k1, k2, k3 = np.meshgrid(k, k, k, indexing="ij")
    return 1j * np.stack([k1, k2, k3], axis=-1) * solver.symbol[..., None]


def oracle_potential(solver, e, q, p):
    """Volume potential by dense FFTs of the full zero-padded cube."""
    o, N = solver.N // 2, solver.N
    sl = slice(o, o + N)
    gsym = _full_grad_symbol(solver)
    ghat = scipy.fft.fftn(_full_pad(solver, np.sum(p * e, axis=-1)))
    out = np.empty_like(e)
    for c in range(3):
        spec = (-solver.kappa**2 * solver.symbol
                * scipy.fft.fftn(_full_pad(solver, q * e[..., c]))
                + gsym[..., c] * ghat)
        out[..., c] = scipy.fft.ifftn(spec)[sl, sl, sl]
    return out


def oracle_potential_adjoint(solver, lam):
    o, N = solver.N // 2, solver.N
    sl = slice(o, o + N)
    gsym = _full_grad_symbol(solver)
    acc = np.zeros((solver.M,) * 3, dtype=complex)
    vec = np.empty_like(lam)
    for c in range(3):
        lhat = scipy.fft.fftn(_full_pad(solver, lam[..., c]))
        vec[..., c] = -solver.kappa**2 * scipy.fft.ifftn(
            np.conj(solver.symbol) * lhat)[sl, sl, sl]
        acc += np.conj(gsym[..., c]) * lhat
    return vec, scipy.fft.ifftn(acc)[sl, sl, sl]


class TestPrunedPotential:
    """The axis-by-axis padded transforms against dense FFTs of the full
    (2N)^3 pad."""

    @staticmethod
    def _rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    @pytest.mark.parametrize("n_grid", [8, 12, 16])
    def test_matches_full_pad(self, n_grid):
        solver = ScatteringSolver(bump_medium(CubeGrid(np.pi, n_grid)), KAPPA)
        assert not hasattr(solver, "grad_symbol")
        rng = np.random.default_rng(n_grid)
        shape = (n_grid,) * 3
        e, lam = _random(rng, shape + (3,)), _random(rng, shape + (3,))
        q, p = _random(rng, shape), _random(rng, shape + (3,))
        assert self._rel(solver.potential(e),
                         oracle_potential(solver, e, solver.q, solver.p)) \
            <= 1e-13
        assert self._rel(solver.potential(e, q, p),
                         oracle_potential(solver, e, q, p)) <= 1e-13
        for got, want in zip(solver.potential_adjoint(lam),
                             oracle_potential_adjoint(solver, lam)):
            assert self._rel(got, want) <= 1e-13
