"""Tests for the regularized reconstruction module."""

import numpy as np
import pytest

from emiscat.forward import (
    FarFieldData,
    NearFieldData,
    SolveError,
    SphereGrid,
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
    _coeff_transpose,
    _ForwardState,
    add_noise,
    alpha_rule,
    band_limited_index,
    frechet_apply,
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

    def test_imag_shift(self):
        grid = CubeGrid(np.pi, 12)
        med = band_limited_index(grid, 2.0, 0.05, seed=5, imag_shift=0.01)
        assert np.min(med.values.imag) == pytest.approx(0.01, abs=1e-12)


class TestCoeffTranspose:
    def test_transpose_identity(self):
        grid = CubeGrid(np.pi, 8)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8))
        t = rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8))
        lhs = np.sum(inverse_fourier(a, grid) * t)
        rhs = np.sum(a * _coeff_transpose(grid, t))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestForwardState:
    def test_matches_near_field_operator(self):
        grid = CubeGrid(np.pi, 12)
        prof = BumpProfile(centers=[(0.3, -0.2, 0.1)], amplitudes=[0.1],
                           widths=[1.5])
        n = make_test_index(prof, grid, b=0.5, smoothness=4.0)
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

    def test_linearity(self):
        prob = small_problem(12)
        prob.rtol = 1e-13
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

    def test_adjoint_nonconvergence_context(self):
        # one GMRES iteration cannot reach the tolerance: the failure names
        # the (source, polarization) label and keeps its residual history
        prob = small_problem(8)
        med = band_limited_index(prob.grid, 2.0, 0.05, seed=1)
        state = _ForwardState(prob, med)
        state.solver.restart = state.solver.maxiter = 1
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


class TestTikhonov:
    def test_exact_data_truth_init_stationary(self):
        prob = small_problem(12)
        truth = band_limited_index(prob.grid, 2.0, 0.05, seed=6)
        prob = small_problem(12, data=exact_data(prob, truth))
        res = tikhonov_reconstruct(prob, alpha=1e-12,
                                   init_coeffs=truth.coeffs, maxiter=10)
        drift = hm_norm(res.coeffs - truth.coeffs, prob.m, prob.grid)
        assert drift <= 1e-6
        assert res.monotone

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
        assert res.monotone
        # admissibility is only flagged, not enforced; Re n stays safe here
        assert res.admissible_re

    def test_one_solve_per_evaluation(self, monkeypatch):
        # the start point, the accepted iterates and the final misfit reuse
        # the evaluations L-BFGS made
        import emiscat.inversion as inv
        counts = {"state": 0, "gradient": 0}
        nfev = []
        lbfgs = inv.minimize

        class CountedState(_ForwardState):
            def __init__(self, *args):
                counts["state"] += 1
                super().__init__(*args)

        def counted_gradient(state):
            counts["gradient"] += 1
            return misfit_gradient(state)

        def counted_minimize(*args, **kwargs):
            out = lbfgs(*args, **kwargs)
            nfev.append(out.nfev)
            return out

        prob = small_problem(12)
        truth = band_limited_index(prob.grid, 2.0, 0.06, seed=8)
        prob = small_problem(12, data=exact_data(prob, truth))
        monkeypatch.setattr(inv, "_ForwardState", CountedState)
        monkeypatch.setattr(inv, "misfit_gradient", counted_gradient)
        monkeypatch.setattr(inv, "minimize", counted_minimize)
        res = tikhonov_reconstruct(prob, alpha=1e-4, maxiter=2)
        assert counts == {"state": nfev[0], "gradient": nfev[0]}
        assert len(res.history) == res.iterations + 1

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

    def test_gamma_max_nyquist(self):
        with pytest.raises(ValueError):
            small_problem(12, gamma_max=7.0)
