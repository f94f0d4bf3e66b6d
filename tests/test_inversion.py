"""Tests for the regularized reconstruction module."""

import numpy as np
import pytest

from emiscat import forward, inversion
from emiscat.forward import (
    FarFieldData,
    NearFieldData,
    SolveError,
    SphereGrid,
    _gmres,
    near_field_operator,
)
from emiscat.fourier import (
    BumpProfile,
    CubeGrid,
    hm_norm,
    inverse_fourier,
    make_test_index,
)
from emiscat.inversion import (
    ContrastMedium,
    InverseProblem,
    RateStudy,
    _CoeffTranspose,
    _ForwardState,
    add_noise,
    alpha_rule,
    band_limited_index,
    minimize,
    misfit_gradient,
    rate_study,
    tikhonov_reconstruct,
)

KAPPA = 1.0
R_DATA = 1.2 * np.pi


def small_problem(n_grid=12, gamma_max=2.0, kind="near", data=None):
    grid = CubeGrid(np.pi, n_grid)
    sphere = SphereGrid.build(R_DATA, 1, 3)
    unit = SphereGrid.build(1.0, 1, 3)
    if data is None:
        if kind == "near":
            shape = (sphere.nodes.shape[0], sphere.nodes.shape[0], 3, 3)
            data = NearFieldData(receivers=sphere, sources=sphere,
                                 matrices=np.zeros(shape, dtype=complex))
        else:
            shape = (unit.nodes.shape[0], unit.nodes.shape[0], 3, 3)
            data = FarFieldData(receivers=unit, incidences=unit,
                                matrices=np.zeros(shape, dtype=complex))
    return InverseProblem(kind=kind, kappa=KAPPA, grid=grid, data=data,
                          delta=0.0, m=4.0, gamma_max=gamma_max, b=0.5)


def random_direction(grid, gamma_max, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    mask = grid.gamma_norm2() <= gamma_max**2
    h = np.zeros((grid.n,) * 3, dtype=complex)
    k = int(mask.sum())
    h[mask] = scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    return h


def frechet_apply(problem, medium, h_coeffs):
    """Directional derivative F'(n)[h] of the data map, as data matrices,
    from one linearized forward solve per source: the oracle for J.

    ``h_coeffs`` are full-lattice coefficients of the contrast direction."""
    state = _ForwardState(problem, medium)
    s = state.solver
    grid = problem.grid
    v = inverse_fourier(h_coeffs, grid)
    w = np.stack([inverse_fourier(1j * f * h_coeffs, grid)
                  for f in grid.frequencies()], axis=-1)
    dq = -v
    dp = (w - s.p * v[..., None]) / s.n.values[..., None]
    d_rows = []
    for u, label in zip(state.fields, state.columns.labels):
        du = _gmres(s._matvec, s._conv.potential(u, dq, dp).ravel(),
                    context=label).reshape(u.shape)
        # measurement perturbation: medium term plus field term
        ub = u[s.ball]
        d_rows.append(state.map.apply(dq[s.ball][:, None] * ub,
                                      np.sum(dp[s.ball] * ub, axis=-1))
                      + state._measure_rows(du))
    return state.columns.assemble(d_rows)


def exact_data(problem, medium):
    state = _ForwardState(problem, medium)
    if problem.kind == "near":
        return NearFieldData(receivers=problem.data.receivers,
                             sources=problem.data.sources,
                             matrices=state.matrices)
    return FarFieldData(receivers=problem.data.receivers,
                        incidences=problem.data.incidences,
                        matrices=state.matrices)


def weighted_misfit(problem, medium):
    state = _ForwardState(problem, medium)
    w = state.measurement_weights()
    return float(np.sum(w[..., None, None]
                        * np.abs(state.matrices - problem.data.matrices) ** 2))


class TestAlphaRule:
    def test_worked_value(self):
        # t = 0.04, derivative = (ln 28)^-2 / (28 * 0.0016), alpha ~ 0.2487
        alpha = alpha_rule(0.1, 1.0, 0.5)
        deriv = np.log(28.0) ** -2 / (28.0 * 0.0016)
        assert abs(deriv - 2.0103) < 5e-4
        assert abs(alpha - 1.0 / (2.0 * deriv)) < 1e-14
        assert abs(alpha - 0.2487) < 5e-5

    def test_matches_numerical_derivative(self):
        # closed-form derivative of (ln(3+1/t))^(-2 nu) vs central FD
        for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            for A, nu in ((1.0, 0.5), (3.0, 0.25)):
                t = 4.0 * delta**2

                def psi(s):
                    return np.log(3.0 + 1.0 / s) ** (-2.0 * nu)

                h = 1e-5 * t
                fd = (psi(t + h) - psi(t - h)) / (2.0 * h)
                alpha = alpha_rule(delta, A, nu)
                assert abs(1.0 / alpha - 2.0 * A * fd) * alpha / 2.0 / A \
                    <= 1e-8 * abs(fd)

    def test_monotone_in_A(self):
        # alpha = 1/(2 A psi'(4 delta^2)) scales like 1/A
        alphas = [alpha_rule(0.01, A, 0.5) for A in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))
        assert alphas[0] == pytest.approx(2.0 * alphas[1], rel=1e-12)

    def test_vanishes_with_delta(self):
        alphas = [alpha_rule(d, 1.0, 0.5) for d in (1e-1, 1e-2, 1e-4, 1e-6)]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))
        assert alphas[-1] < 1e-8

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            alpha_rule(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            alpha_rule(0.1, -1.0, 0.5)
        with pytest.raises(ValueError):
            alpha_rule(0.1, 1.0, 1.5)


class TestAddNoise:
    def _data(self):
        sphere = SphereGrid.build(R_DATA, 2, 4)
        n = sphere.nodes.shape[0]
        rng = np.random.default_rng(0)
        mats = rng.standard_normal((n, n, 3, 3)) \
            + 1j * rng.standard_normal((n, n, 3, 3))
        return NearFieldData(receivers=sphere, sources=sphere, matrices=mats)

    def test_zero_delta_identity(self):
        data = self._data()
        assert add_noise(data, 0.0, 1) is data

    def test_exact_norm(self):
        data = self._data()
        for delta in (1e-1, 1e-3, 1e-6):
            noisy = add_noise(data, delta, 7)
            diff = NearFieldData(receivers=data.receivers,
                                 sources=data.sources,
                                 matrices=noisy.matrices - data.matrices)
            assert abs(diff.norm() - delta) <= 1e-12 * max(delta, 1.0)

    def test_exact_norm_far(self):
        unit = SphereGrid.build(1.0, 2, 4)
        n = unit.nodes.shape[0]
        data = FarFieldData(receivers=unit, incidences=unit,
                            matrices=np.zeros((n, n, 3, 3), dtype=complex))
        noisy = add_noise(data, 0.01, 3)
        assert isinstance(noisy, FarFieldData)
        assert abs(noisy.norm() - 0.01) <= 1e-12

    def test_seeds(self):
        data = self._data()
        a = add_noise(data, 1e-2, 1)
        b = add_noise(data, 1e-2, 2)
        assert not np.allclose(a.matrices, b.matrices)
        da = NearFieldData(receivers=data.receivers, sources=data.sources,
                           matrices=a.matrices - data.matrices)
        db = NearFieldData(receivers=data.receivers, sources=data.sources,
                           matrices=b.matrices - data.matrices)
        assert abs(da.norm() - db.norm()) <= 1e-12

    def test_negative_delta(self):
        with pytest.raises(ValueError):
            add_noise(self._data(), -0.1, 0)


class TestBandLimitedIndex:
    def test_properties(self):
        grid = CubeGrid(np.pi, 16)
        med = band_limited_index(grid, 2.0, 0.08, seed=5)
        assert np.max(np.abs(med.values - 1.0)) == pytest.approx(0.08)
        assert np.max(np.abs(med.values.imag)) < 1e-13
        outside = grid.gamma_norm2() > 4.0
        assert np.max(np.abs(med.coeffs[outside])) == 0.0


class TestCoeffTranspose:
    def test_transpose_identity(self):
        # on the whole lattice and on a gamma_max = 2 mask
        grid = CubeGrid(np.pi, 8)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8))
        t = rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8))
        for mask in (np.ones((8, 8, 8), dtype=bool),
                     grid.gamma_norm2() <= 4.0):
            a_mask = np.where(mask, a, 0.0)
            lhs = np.sum(inverse_fourier(a_mask, grid) * t)
            rhs = np.sum(a[mask] * _CoeffTranspose(grid, mask)(t))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestForwardState:
    def test_matches_near_field_operator(self):
        grid = CubeGrid(np.pi, 12)
        prof = BumpProfile(centers=[(0.3, -0.2, 0.1)], amplitudes=[0.1],
                           widths=[1.5])
        n = make_test_index(prof, grid, b=0.5)
        prob = small_problem(12)
        state = _ForwardState(prob, n)
        ref = near_field_operator(n, KAPPA, prob.data.sources,
                                  prob.data.receivers)
        assert np.max(np.abs(state.matrices - ref.matrices)) \
            <= 1e-10 * np.max(np.abs(ref.matrices))


class TestFrechet:
    def test_zero_direction(self):
        prob = small_problem(12)
        med = band_limited_index(prob.grid, 2.0, 0.05, seed=1)
        out = frechet_apply(prob, med, np.zeros((12, 12, 12), dtype=complex))
        assert np.max(np.abs(out)) == 0.0

    def test_linearity(self, monkeypatch):
        prob = small_problem(12)
        monkeypatch.setattr(forward, "GMRES_RTOL", 1e-13)
        med = band_limited_index(prob.grid, 2.0, 0.05, seed=1)
        h1 = random_direction(prob.grid, 2.0, 10)
        h2 = random_direction(prob.grid, 2.0, 11)
        a, b = 0.7 - 0.2j, -1.3 + 0.4j
        lhs = frechet_apply(prob, med, a * h1 + b * h2)
        rhs = a * frechet_apply(prob, med, h1) + b * frechet_apply(prob, med, h2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    def test_finite_difference(self):
        prob = small_problem(12)
        c0 = band_limited_index(prob.grid, 2.0, 0.05, seed=1).coeffs
        med = ContrastMedium(grid=prob.grid, coeffs=c0)
        h = random_direction(prob.grid, 2.0, 12, scale=0.01)
        eps = 1e-4
        df = frechet_apply(prob, med, h)
        plus = _ForwardState(prob, ContrastMedium(grid=prob.grid,
                                                  coeffs=c0 + eps * h))
        minus = _ForwardState(prob, ContrastMedium(grid=prob.grid,
                                                   coeffs=c0 - eps * h))
        fd = (plus.matrices - minus.matrices) / (2.0 * eps)
        assert np.linalg.norm(df - fd) <= 1e-3 * np.linalg.norm(df)

    def test_finite_difference_far(self):
        prob = small_problem(12, kind="far")
        c0 = band_limited_index(prob.grid, 2.0, 0.05, seed=2).coeffs
        med = ContrastMedium(grid=prob.grid, coeffs=c0)
        h = random_direction(prob.grid, 2.0, 13, scale=0.01)
        eps = 1e-4
        df = frechet_apply(prob, med, h)
        plus = _ForwardState(prob, ContrastMedium(grid=prob.grid,
                                                  coeffs=c0 + eps * h))
        minus = _ForwardState(prob, ContrastMedium(grid=prob.grid,
                                                   coeffs=c0 - eps * h))
        fd = (plus.matrices - minus.matrices) / (2.0 * eps)
        assert np.linalg.norm(df - fd) <= 1e-3 * np.linalg.norm(df)


class TestJacobianGuard:
    def test_bump_state_rejected(self):
        # a bump medium is solved on a box, but the Jacobian's pairings need
        # fields at every node a perturbation can reach
        prob = small_problem(16)
        prof = BumpProfile(centers=[(0.3, -0.2, 0.1)], amplitudes=[0.1],
                           widths=[1.5])
        state = _ForwardState(prob, make_test_index(prof, prob.grid, b=0.5))
        assert state.solver.shape != (16,) * 3
        with pytest.raises(ValueError, match="box"):
            misfit_gradient(state)
        with pytest.raises(ValueError, match="box"):
            state.jacobian()


class TestMisfitGradient:
    def _setup(self, kind):
        prob = small_problem(12, kind=kind)
        truth = band_limited_index(prob.grid, 2.0, 0.05, seed=3)
        data = exact_data(prob, truth)
        prob = small_problem(12, kind=kind, data=data)
        c0 = band_limited_index(prob.grid, 2.0, 0.04, seed=4).coeffs
        return prob, c0

    def _check_directions(self, prob, c0, seeds, tol=1e-3):
        med = ContrastMedium(grid=prob.grid, coeffs=c0)
        _, grad = misfit_gradient(_ForwardState(prob, med))
        eps = 1e-5
        for seed in seeds:
            h = random_direction(prob.grid, 2.0, seed)
            fd = (weighted_misfit(prob, ContrastMedium(grid=prob.grid,
                                                       coeffs=c0 + eps * h))
                  - weighted_misfit(prob, ContrastMedium(grid=prob.grid,
                                                         coeffs=c0 - eps * h))) \
                / (2.0 * eps)
            an = 2.0 * np.real(np.sum(grad * np.conj(h)))
            assert abs(fd - an) <= tol * abs(fd)

    def test_near_gradient(self):
        prob, c0 = self._setup("near")
        self._check_directions(prob, c0, seeds=range(20, 25))

    def test_far_gradient(self):
        prob, c0 = self._setup("far")
        self._check_directions(prob, c0, seeds=range(30, 33))

    def test_adjoint_nonconvergence_context(self, monkeypatch):
        # one GMRES iteration cannot reach the tolerance: the failure names
        # the (receiver, component) row label and keeps its residual history
        prob = small_problem(8)
        med = band_limited_index(prob.grid, 2.0, 0.05, seed=1)
        state = _ForwardState(prob, med)
        monkeypatch.setattr(forward, "GMRES_RESTART", 1)
        monkeypatch.setattr(forward, "GMRES_MAXITER", 1)
        with pytest.raises(SolveError) as err:
            misfit_gradient(state)
        assert err.value.context == (0, 0)
        assert len(err.value.residuals) > 0

    def test_gradient_at_vacuum(self):
        # measurement adjoints must see the whole ball, not just the
        # (empty) contrast support of the starting iterate
        prob, _ = self._setup("near")
        c0 = np.zeros((12, 12, 12), dtype=complex)
        med = ContrastMedium(grid=prob.grid, coeffs=c0)
        _, grad = misfit_gradient(_ForwardState(prob, med))
        assert np.max(np.abs(grad)) > 0.0
        self._check_directions(prob, c0, seeds=(40,))

    @staticmethod
    def _count_adjoint_work(state, monkeypatch):
        """Count the adjoint solves, their matvecs and ``potential_adjoint``
        calls on ``state``'s solver; forward solves are already done."""
        s = state.solver
        counts = {"solve": 0, "matvec": 0, "potential_adjoint": 0}
        potential_adjoint = s.potential_adjoint

        def counted_gmres(matvec, *args, **kwargs):
            counts["solve"] += 1

            def counted(v):
                counts["matvec"] += 1
                return matvec(v)
            return _gmres(counted, *args, **kwargs)

        def counted_potential_adjoint(lam):
            counts["potential_adjoint"] += 1
            return potential_adjoint(lam)

        monkeypatch.setattr(inversion, "_gmres", counted_gmres)
        s.potential_adjoint = counted_potential_adjoint
        return counts

    def test_adjoint_potential_reused(self, monkeypatch):
        # the gradient takes potential_adjoint(lambda) from the adjoint
        # solve's last matvec: no recompute per column, same bits
        prob, c0 = self._setup("near")
        state = _ForwardState(prob, ContrastMedium(grid=prob.grid, coeffs=c0))
        counts = self._count_adjoint_work(state, monkeypatch)
        value, grad = misfit_gradient(state)
        assert counts["matvec"] > len(state.columns.sources)
        assert counts["potential_adjoint"] == counts["matvec"]

        # the Jacobian is kept on the state, so recompute on a fresh one
        state = _ForwardState(prob, ContrastMedium(grid=prob.grid, coeffs=c0))
        adjoint_solve = state.adjoint_solve

        def recomputed(rho, context=None):
            lam, _ = adjoint_solve(rho, context=context)
            return lam, state.solver.potential_adjoint(lam)

        state.adjoint_solve = recomputed
        value2, grad2 = misfit_gradient(state)
        assert value2 == value
        assert np.array_equal(grad2, grad)

    def test_adjoint_solve_result_survives(self):
        # the (vec, sca) kept from the adjoint solve's last matvec is not
        # overwritten by a later potential_adjoint on the same solver
        prob = small_problem(8)
        med = band_limited_index(prob.grid, 2.0, 0.05, seed=1)
        state = _ForwardState(prob, med)
        rng = np.random.default_rng(12)
        shape = (8, 8, 8, 3)
        rho = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        lam, kept = state.adjoint_solve(rho)
        copies = [k.copy() for k in kept]
        state.solver.potential_adjoint(np.conj(lam))
        assert all(np.array_equal(k, c) for k, c in zip(kept, copies))
        fresh = state.solver.potential_adjoint(lam)
        assert all(np.array_equal(f, k) for f, k in zip(fresh, kept))

    def test_exact_data_zero_gradient(self, monkeypatch):
        # r = 0 gives J^H W r = 0 exactly; the Jacobian costs one adjoint
        # solve per receiver row, whatever the residual
        prob = small_problem(12)
        truth = band_limited_index(prob.grid, 2.0, 0.05, seed=6)
        prob = small_problem(12, data=exact_data(prob, truth))
        state = _ForwardState(prob, truth)
        counts = self._count_adjoint_work(state, monkeypatch)
        value, grad = misfit_gradient(state)
        assert value == 0.0
        assert np.all(grad == 0)
        assert counts["potential_adjoint"] == counts["matvec"]
        assert counts["solve"] == 3 * prob.data.receivers.nodes.shape[0]


class TestJacobian:
    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_matches_frechet_apply(self, kind):
        # J h over the masked coefficients against the linearized solves
        prob = small_problem(12, kind=kind)
        med = band_limited_index(prob.grid, 2.0, 0.05, seed=1)
        state = _ForwardState(prob, med)
        jac = state.jacobian()
        mask = prob.coeff_mask()
        assert jac.shape == (state.matrices.size, int(mask.sum()))
        for seed in (10, 11):
            h = random_direction(prob.grid, 2.0, seed)
            jh = (jac @ h[mask]).reshape(state.matrices.shape)
            ref = frechet_apply(prob, med, h)
            assert np.linalg.norm(jh - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_built_once(self):
        prob = small_problem(8)
        state = _ForwardState(prob, band_limited_index(prob.grid, 2.0, 0.05,
                                                       seed=1))
        assert state.jacobian() is state.jacobian()


class TestGaussNewtonLoop:
    """The complex loop on synthetic problems with exact g = df/d(conj c)
    and model Hessian a, against the conventions of the real iteration in
    (Re c, Im c): gradient 2 (Re g, Im g), predicted decrease
    -2 Re(g^H s) - s^H a s, damping (mu/2) diag(w)."""

    @staticmethod
    def quadratic():
        # f(c) = |A c - b|^2 / alpha + (1/2) sum w |c|^2: the model is exact
        rng = np.random.default_rng(5)
        A = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        alpha, w = 0.5, np.array([1.0, 2.0, 4.0, 8.0])
        a = A.conj().T @ A / alpha + 0.5 * np.diag(w)

        def fun(c):
            return (float(np.sum(np.abs(A @ c - b) ** 2)) / alpha
                    + 0.5 * float(np.sum(w * np.abs(c) ** 2)), None)

        def jac(c, point):
            return A.conj().T @ (A @ c - b) / alpha + 0.5 * w * c, a

        c_star = np.linalg.solve(a, A.conj().T @ b / alpha)
        c0 = np.array([0.3, -0.2j, 0.1 + 0.4j, -0.5])
        return fun, jac, w, c0, c_star

    def test_one_step_reaches_quadratic_minimizer(self):
        fun, jac, w, c0, c_star = self.quadratic()
        history = []
        out = minimize(fun, c0, jac=jac, callback=history.append,
                       maxiter=10, gtol=0.0, damping=w)
        assert np.linalg.norm(out.x - c_star) \
            <= 1e-12 * np.linalg.norm(c_star)
        assert (out.nit, out.nfev, out.njev) == (1, 2, 2)
        assert out.success and out.message == "predicted decrease below FTOL"
        assert history == [fun(c0)[0], out.fun]

    def test_gradient_stop_uses_real_gradient(self):
        # the real gradient's largest entry is 2 max(|Re g|, |Im g|)
        fun, jac, w, c0, _ = self.quadratic()
        g = jac(c0, None)[0]
        top = np.max(np.abs([g.real, g.imag]))
        outs = [minimize(fun, c0, jac=jac, callback=lambda f: None,
                         maxiter=10, gtol=factor * top, damping=w)
                for factor in (1.5, 2.5)]
        assert [(o.nit, o.message) for o in outs] == \
            [(1, "gradient below gtol"), (0, "gradient below gtol")]

    def test_rejected_step_raises_damping(self):
        # F(c) = exp(c) from c = 0 towards exp(c) = b: the undamped step
        # overshoots and raises f, so mu goes 0 -> 1 before a step is taken
        b = np.exp(np.array([2.0, 1.0 + 1.0j]))
        w = np.array([0.01, 0.02])
        trials = []

        def fun(c):
            trials.append(c)
            return (float(np.sum(np.abs(np.exp(c) - b) ** 2))
                    + 0.5 * float(np.sum(w * np.abs(c) ** 2)), None)

        def jac(c, point):
            e = np.exp(c)
            return (np.conj(e) * (e - b) + 0.5 * w * c,
                    np.diag(np.abs(e) ** 2 + 0.5 * w))

        c0 = np.zeros(2, dtype=complex)
        g, a = jac(c0, None)
        undamped = np.linalg.solve(a, -g)
        assert fun(c0 + undamped)[0] > fun(c0)[0]
        trials.clear()
        history = []
        out = minimize(fun, c0, jac=jac, callback=history.append,
                       maxiter=50, gtol=1e-10, damping=w)
        damped = np.linalg.solve(a + 0.5 * np.diag(w), -g)
        assert np.allclose(trials[1], c0 + undamped, rtol=1e-12, atol=0)
        assert np.allclose(trials[2], c0 + damped, rtol=1e-12, atol=0)
        assert out.success and out.nfev > out.nit + 1
        assert len(history) == out.nit + 1 and history[-1] == out.fun
        assert all(f1 <= f0 for f0, f1 in zip(history, history[1:]))

    def test_indefinite_model_hessian_raises(self):
        # the step is solved by a Cholesky factorization of a + mu d, so a
        # model Hessian that is not positive definite fails loudly
        fun, _, w, c0, _ = self.quadratic()

        def jac(c, point):
            return np.ones(4, dtype=complex), np.diag([2.0, -1.0, 1.0, 3.0])

        with pytest.raises(np.linalg.LinAlgError):
            minimize(fun, c0, jac=jac, callback=lambda f: None, maxiter=10,
                     gtol=0.0, damping=w)


class TestTikhonov:
    def test_exact_data_truth_init_stationary(self):
        prob = small_problem(12)
        truth = band_limited_index(prob.grid, 2.0, 0.05, seed=6)
        prob = small_problem(12, data=exact_data(prob, truth))
        res = tikhonov_reconstruct(prob, alpha=1e-12,
                                   init_coeffs=truth.coeffs, maxiter=10)
        drift = hm_norm(res.coeffs - truth.coeffs, prob.m, prob.grid)
        assert drift <= 1e-6

    def test_background_data_large_alpha(self):
        # scattered data of the background vanishes; huge alpha drives the
        # minimizer to the vacuum contrast
        prob = small_problem(12)
        init = band_limited_index(prob.grid, 2.0, 0.05, seed=7).coeffs
        res = tikhonov_reconstruct(prob, alpha=1e8, init_coeffs=init,
                                   maxiter=40)
        assert hm_norm(res.coeffs, prob.m, prob.grid) \
            <= 1e-3 * hm_norm(init, prob.m, prob.grid)
        assert res.functional <= weighted_misfit(
            prob, ContrastMedium(grid=prob.grid, coeffs=init)) / 1e8 \
            + 0.5 * hm_norm(init, prob.m, prob.grid) ** 2

    def test_misfit_not_worse_than_init(self):
        prob = small_problem(12)
        truth = band_limited_index(prob.grid, 2.0, 0.06, seed=8)
        prob = small_problem(12, data=exact_data(prob, truth))
        init = band_limited_index(prob.grid, 2.0, 0.03, seed=9).coeffs
        res = tikhonov_reconstruct(prob, alpha=1e-4, init_coeffs=init,
                                   maxiter=15)
        mis_init = np.sqrt(weighted_misfit(
            prob, ContrastMedium(grid=prob.grid, coeffs=init)))
        assert res.misfit <= mis_init
        # admissibility is only flagged, not enforced; Re n stays safe here
        assert res.admissible_re

    def test_gauss_newton_counts(self, monkeypatch):
        # a forward state per functional evaluation, one gradient and one
        # Jacobian per accepted iterate whose step is computed
        import emiscat.inversion as inv
        counts = {"state": 0, "gradient": 0, "jacobian": 0}
        outs = []
        gauss_newton = inv.minimize

        class CountedState(_ForwardState):
            def __init__(self, *args):
                counts["state"] += 1
                super().__init__(*args)

            def jacobian(self):
                counts["jacobian"] += self._jac is None
                return super().jacobian()

        def counted_gradient(state, *data):
            counts["gradient"] += 1
            return misfit_gradient(state, *data)

        def counted_minimize(*args, **kwargs):
            outs.append(gauss_newton(*args, **kwargs))
            return outs[-1]

        prob = small_problem(12)
        truth = band_limited_index(prob.grid, 2.0, 0.06, seed=8)
        prob = small_problem(12, data=exact_data(prob, truth))
        monkeypatch.setattr(inv, "_ForwardState", CountedState)
        monkeypatch.setattr(inv, "misfit_gradient", counted_gradient)
        monkeypatch.setattr(inv, "minimize", counted_minimize)
        res = tikhonov_reconstruct(prob, alpha=1e-4, maxiter=2)
        out, = outs
        assert out.nit == res.iterations == 2
        assert counts == {"state": out.nfev, "gradient": out.njev,
                          "jacobian": out.njev}
        assert (out.nfev, out.njev) == (3, 2)
        assert len(res.history) == res.iterations + 1

    def test_solve_failure_names_iteration(self, monkeypatch):
        # an unreachable tolerance fails the first forward solve at the
        # start point; the error names the iteration and keeps the label
        prob = small_problem(8)
        truth = band_limited_index(prob.grid, 2.0, 0.05, seed=6)
        prob = small_problem(8, data=exact_data(prob, truth))
        monkeypatch.setattr(forward, "GMRES_RTOL", 1e-30)
        monkeypatch.setattr(forward, "GMRES_MAXITER", forward.GMRES_RESTART)
        with pytest.raises(SolveError) as err:
            tikhonov_reconstruct(prob, alpha=1e-4, maxiter=2)
        assert "Gauss-Newton iteration 0" in str(err.value)
        assert err.value.context == (0, 0)
        assert len(err.value.residuals) > 0

    def test_jacobian_failure_names_iteration(self, monkeypatch):
        # the first accepted trial iterate's Jacobian adjoint solves cannot
        # converge: the error names iteration 1 and the receiver row
        import emiscat.inversion as inv
        built = []

        class FailingState(_ForwardState):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)
                if len(built) == 2:
                    monkeypatch.setattr(forward, "GMRES_RESTART", 1)
                    monkeypatch.setattr(forward, "GMRES_MAXITER", 1)

        prob = small_problem(8)
        truth = band_limited_index(prob.grid, 2.0, 0.06, seed=8)
        prob = small_problem(8, data=exact_data(prob, truth))
        monkeypatch.setattr(inv, "_ForwardState", FailingState)
        with pytest.raises(SolveError) as err:
            tikhonov_reconstruct(prob, alpha=1e-4, maxiter=3)
        assert "Gauss-Newton iteration 1" in str(err.value)
        assert err.value.context == (0, 0)

    def test_invalid_alpha(self):
        prob = small_problem(12)
        with pytest.raises(ValueError):
            tikhonov_reconstruct(prob, alpha=0.0)


class TestRateStudy:
    def test_smoke(self):
        prob = small_problem(12)
        truth = band_limited_index(prob.grid, 2.0, 0.08, seed=11)
        prob = small_problem(12, data=exact_data(prob, truth))
        study = rate_study(truth, prob, deltas=(1e-1, 1e-2, 1e-3),
                           seeds=(1, 2, 3), A=1.0, nu=0.5, maxiter=20)
        assert isinstance(study, RateStudy)
        assert len(study.errors) == 3
        assert all(np.isfinite(study.errors))
        assert study.monotonicity_violations == 0
        assert study.nu_hat > 0.0
        assert study.floor is None
        assert all(b < a for a, b in zip(study.alphas, study.alphas[1:]))

    def test_anchor_reports_floor(self):
        prob = small_problem(12)
        truth = band_limited_index(prob.grid, 2.0, 0.08, seed=11)
        prob = small_problem(12, data=exact_data(prob, truth))
        study = rate_study(truth, prob, deltas=(1e-1, 1e-3, 1e-12),
                           seeds=(1, 2, 3), A=1.0, nu=0.5, maxiter=20)
        assert study.floor is not None
        assert study.floor <= min(study.errors[:2])

    @pytest.mark.parametrize("maxiter", [1, 20])
    def test_carries_state_between_levels(self, monkeypatch, maxiter):
        # each level starts from the previous level's forward state: the
        # same results, bit for bit, as reconstructing level by level from
        # the previous coefficients, with one forward state fewer per level
        # after the first.  maxiter = 1 hands over fields, 20 a Jacobian.
        import emiscat.inversion as inv
        built, kept_recs = [0], []

        class CountedState(_ForwardState):
            def __init__(self, *args):
                built[0] += 1
                super().__init__(*args)

        def kept(*args, _reconstruct=inv._reconstruct, **kwargs):
            rec, state = _reconstruct(*args, **kwargs)
            kept_recs.append(rec)
            return rec, state

        monkeypatch.setattr(inv, "_ForwardState", CountedState)
        monkeypatch.setattr(inv, "_reconstruct", kept)
        prob = small_problem(8)
        truth = band_limited_index(prob.grid, 2.0, 0.08, seed=11)
        prob = small_problem(8, data=exact_data(prob, truth))
        deltas, seeds = (1e-1, 1e-2, 1e-3), (1, 2, 3)
        built[0] = 0
        study = rate_study(truth, prob, deltas, seeds, A=1.0, nu=0.5,
                           maxiter=maxiter)
        swept, swept_built = kept_recs[:], built[0]

        built[0] = 0
        recs, errors, misfits, iters, init = [], [], [], [], None
        for delta, seed in zip(deltas, seeds):
            sub = small_problem(8, data=add_noise(prob.data, delta, seed))
            rec = tikhonov_reconstruct(sub, alpha_rule(delta, 1.0, 0.5),
                                       init_coeffs=init, maxiter=maxiter)
            recs.append(rec)
            init = rec.coeffs
            errors.append(float(hm_norm(rec.coeffs - truth.coeffs, prob.m,
                                        prob.grid)))
            misfits.append(rec.misfit)
            iters.append(rec.iterations)
        assert np.array_equal(study.errors, errors)
        assert np.array_equal(study.misfits, misfits)
        assert study.iterations == iters
        for a, b in zip(swept, recs, strict=True):
            assert np.array_equal(a.coeffs, b.coeffs)
            assert a.history == b.history  # the start's functional too
        assert swept_built == built[0] - (len(deltas) - 1)

    def test_one_seed_per_delta(self, monkeypatch):
        # fewer (or more) seeds than deltas fail before any reconstruction
        import emiscat.inversion as inv

        def no_reconstruction(*args, **kwargs):
            raise AssertionError("reconstructed before checking the seeds")

        monkeypatch.setattr(inv, "_reconstruct", no_reconstruction)
        prob = small_problem(8)
        truth = band_limited_index(prob.grid, 2.0, 0.08, seed=11)
        for seeds in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(ValueError, match="seeds"):
                rate_study(truth, prob, deltas=(1e-1, 1e-2, 1e-3),
                           seeds=seeds, A=1.0, nu=0.5)

    def test_rate_fit_needs_two_levels(self, monkeypatch):
        # one delta >= 1e-10 (a one-point fit) or none fail before any
        # reconstruction
        import emiscat.inversion as inv

        def no_reconstruction(*args, **kwargs):
            raise AssertionError("reconstructed before checking the deltas")

        monkeypatch.setattr(inv, "_reconstruct", no_reconstruction)
        prob = small_problem(8)
        truth = band_limited_index(prob.grid, 2.0, 0.08, seed=11)
        for deltas in ((1e-1, 1e-12), (1e-11, 1e-12)):
            with pytest.raises(ValueError, match="two deltas"):
                rate_study(truth, prob, deltas=deltas, seeds=(1, 2), A=1.0,
                           nu=0.5)

    def test_requires_decreasing_deltas(self):
        prob = small_problem(12)
        truth = band_limited_index(prob.grid, 2.0, 0.05, seed=11)
        with pytest.raises(ValueError):
            rate_study(truth, prob, deltas=(1e-2, 1e-1), seeds=(1, 2),
                       A=1.0, nu=0.5)


class TestInverseProblemGuards:
    def test_kind(self):
        with pytest.raises(ValueError):
            small_problem(12, kind="sideways")

    def test_kind_matches_data(self):
        near = small_problem(8).data
        with pytest.raises(ValueError, match="'far' needs FarFieldData, "
                                             "not NearFieldData"):
            small_problem(8, kind="far", data=near)

    def test_gamma_max_nyquist(self):
        with pytest.raises(ValueError):
            small_problem(12, gamma_max=7.0)
