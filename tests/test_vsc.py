"""Tests for the stability-inequality verification lab."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import spherical_jn

from emiscat.cgo import MediumFields, cgo_solve, cgo_vectors
from emiscat.forward import (
    NearFieldData,
    SphereGrid,
    background_green,
    near_field_operator,
)
from emiscat.fourier import (
    UNITARY_FACTOR,
    BumpProfile,
    CubeGrid,
    make_test_index,
)
from emiscat.vsc import (
    ScheduleParams,
    boundary_operator_N,
    cgo_pair_estimate,
    check_difftodata,
    check_fourier_diff,
    data_diff_norm,
    delta_max,
    highfreq_tail,
    lowfreq_growth_exponent,
    lowfreq_weighted_sum,
    pairing_volume,
    schedule,
    vsc_check,
)

KAPPA = 1.0
R_DATA = 1.2 * np.pi


def bump_medium(n_grid=24, amplitude=0.2, width=1.5, center=(0.3, -0.2, 0.1),
                extra=None):
    centers = [center]
    amps = [amplitude]
    widths = [width]
    if extra is not None:
        c, a, w = extra
        centers.append(c)
        amps.append(a)
        widths.append(w)
    prof = BumpProfile(centers=tuple(centers), amplitudes=tuple(amps),
                       widths=tuple(widths))
    return make_test_index(prof, CubeGrid(np.pi, n_grid), b=0.7)


class TestSchedule:
    def test_identities(self):
        for delta in (1.0, 1e-3, 1e-8):
            p = schedule(delta, 2.0 * np.pi, 4.0, 6.0)
            p.check_identities()

    @pytest.mark.parametrize("change, identity", [({"t": 123.0}, "9Rt"),
                                                  ({"rho": 2.0}, "rho")])
    def test_identity_violation_raises(self, change, identity):
        p = replace(schedule(1e-3, 2.0 * np.pi, 4.0, 6.0), **change)
        with pytest.raises(ValueError, match=identity):
            p.check_identities()

    def test_delta_one(self):
        p = schedule(1.0, np.pi, 4.0, 6.0)
        assert p.t == pytest.approx(np.log(4.0) / (9.0 * np.pi), rel=1e-12)

    def test_worked_example(self):
        p = schedule(1e-8, 2.0 * np.pi, 4.0, 6.0)
        assert p.tau == pytest.approx(3.5)
        assert p.t == pytest.approx(np.log(3.0 + 1e16) / (18.0 * np.pi),
                                    rel=1e-12)
        assert p.t == pytest.approx(0.6515, abs=2e-4)

    def test_monotone(self):
        deltas = [1.0, 1e-2, 1e-4, 1e-6]
        ps = [schedule(d, np.pi, 4.0, 6.0) for d in deltas]
        assert all(a.t < b.t and a.rho < b.rho for a, b in zip(ps, ps[1:]))

    def test_t0_flag(self):
        p = schedule(1e-8, 2.0 * np.pi, 4.0, 6.0, t0=10.0)
        assert not p.reaches_t0  # desk-scale regime honesty
        with pytest.raises(ValueError):
            ScheduleParams(1.0, np.pi, 4.0, 6.0, 3.5, 1.0, 1.0).reaches_t0

    def test_delta_max(self):
        # moderate t0: closed form; large t0: underflows to 0
        R = np.pi
        t0 = 0.5
        dm = delta_max(R, t0)
        assert dm == pytest.approx((np.exp(9 * R * t0) - 3.0) ** -0.5,
                                   rel=1e-12)
        assert delta_max(R, 1e4) == 0.0

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            schedule(0.0, np.pi, 4.0, 6.0)


class TestPairingVolume:
    def test_equal_media(self):
        n = bump_medium()
        e = np.ones((24, 24, 24, 3), dtype=complex)
        assert pairing_volume(n, n, e, e) == 0.0

    def test_orthogonality_mode(self):
        # E1.E2 = e^{-i gamma.x} picks out (2 pi)^{3/2} times the coefficient
        n1 = bump_medium()
        n2 = bump_medium(amplitude=0.1)
        gamma = np.array([1.0, 0.0, 2.0])
        phase = np.exp(-1j * n1.grid.points() @ gamma)
        e1 = np.zeros((24, 24, 24, 3), dtype=complex)
        e1[..., 0] = phase
        e2 = np.zeros_like(e1)
        e2[..., 0] = 1.0
        got = pairing_volume(n1, n2, e1, e2)
        coeff = (n1.coeffs - n2.coeffs)[1, 0, 2]
        assert got == pytest.approx((2 * np.pi) ** 1.5 * coeff, rel=1e-12)

    def test_radial_quadrature_oracle(self):
        # centered bump against constant fields: 1-D radial integral oracle
        prof = BumpProfile(centers=((0.0, 0.0, 0.0),), amplitudes=(0.3,),
                           widths=(1.4,))
        n1 = make_test_index(prof, CubeGrid(np.pi, 64), b=0.5)
        n2 = make_test_index(BumpProfile(), CubeGrid(np.pi, 64), b=0.5)
        e = np.zeros((64, 64, 64, 3), dtype=complex)
        e[..., 1] = 1.0
        got = pairing_volume(n1, n2, e, e)
        oracle = 4 * np.pi * 0.3 * quad(
            lambda r: r**2 * np.exp(1.0 - 1.0 / (1.0 - (r / 1.4) ** 2)),
            0.0, 1.4)[0]
        assert got == pytest.approx(oracle, rel=1e-5)

    def test_oscillatory_oracle(self):
        # centered bump against e^{-i gamma.x}: spherical-Bessel oracle
        prof = BumpProfile(centers=((0.0, 0.0, 0.0),), amplitudes=(0.3,),
                           widths=(1.4,))
        n1 = make_test_index(prof, CubeGrid(np.pi, 64), b=0.5)
        n2 = make_test_index(BumpProfile(), CubeGrid(np.pi, 64), b=0.5)
        gamma = np.array([2.0, -1.0, 1.0])
        g = np.linalg.norm(gamma)
        e1 = np.zeros((64, 64, 64, 3), dtype=complex)
        e1[..., 2] = np.exp(-1j * n1.grid.points() @ gamma)
        e2 = np.zeros_like(e1)
        e2[..., 2] = 1.0
        got = pairing_volume(n1, n2, e1, e2)
        oracle = 4 * np.pi * 0.3 * quad(
            lambda r: r**2 * spherical_jn(0, g * r)
            * np.exp(1.0 - 1.0 / (1.0 - (r / 1.4) ** 2)), 0.0, 1.4)[0]
        assert got == pytest.approx(oracle, rel=1e-4)

    def test_grid_mismatch(self):
        n1 = bump_medium(n_grid=24)
        n2 = bump_medium(n_grid=16)
        e = np.ones((24, 24, 24, 3), dtype=complex)
        with pytest.raises(ValueError):
            pairing_volume(n1, n2, e, e)


def background_data(grid: SphereGrid) -> NearFieldData:
    k = grid.nodes.shape[0]
    pts = grid.points()
    mats = np.empty((k, k, 3, 3), dtype=complex)
    for i in range(k):
        for j in range(k):
            if i == j:
                mats[i, j] = 0.0
            else:
                mats[i, j] = background_green(pts[i], pts[j], KAPPA)
    return NearFieldData(receivers=grid, sources=grid, matrices=mats,
                         part="total")


class TestBoundaryOperator:
    def setup_method(self):
        self.grid = SphereGrid.build(R_DATA, 2, 6)
        self.w = background_data(self.grid)

    def tangential(self, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((self.grid.nodes.shape[0], 3))
        nu = self.grid.nodes
        return a - np.einsum("nj,nj->n", nu, a)[:, None] * nu

    def test_zero(self):
        a = np.zeros((self.grid.nodes.shape[0], 3))
        assert np.max(np.abs(boundary_operator_N(self.w, a))) == 0.0

    def test_linearity(self):
        a, b = self.tangential(1), self.tangential(2)
        got = boundary_operator_N(self.w, a + 2.0 * b)
        ref = (boundary_operator_N(self.w, a)
               + 2.0 * boundary_operator_N(self.w, b))
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_matches_loop_quadrature(self):
        a = self.tangential(3)
        got = boundary_operator_N(self.w, a)
        pts = self.grid.points()
        for i in range(pts.shape[0]):
            acc = np.zeros(3, dtype=complex)
            for j in range(pts.shape[0]):
                acc += (self.w.matrices[i, j] @ a[j]) * self.grid.weights[j] \
                    * self.grid.radius**2
            ref = 2.0 * np.cross(self.grid.nodes[i], acc)
            assert np.max(np.abs(got[i] - ref)) < 1e-10
        # output tangential
        assert np.max(np.abs(np.einsum("nj,nj->n", self.grid.nodes,
                                       got.real))) < 1e-10

    def test_non_tangential(self):
        a = np.ones((self.grid.nodes.shape[0], 3))
        with pytest.raises(ValueError):
            boundary_operator_N(self.w, a)


class TestLowHighFrequency:
    def test_zero_contrast(self):
        n = bump_medium(amplitude=0.0)
        assert lowfreq_weighted_sum(n, 4.0, 4.0) == 0.0

    def test_single_mode(self):
        grid = CubeGrid(np.pi, 16)
        c = np.zeros((16, 16, 16), dtype=complex)
        c[2, 15, 0] = 0.7  # gamma = (2, -1, 0)
        fake = SimpleNamespace(grid=grid, coeffs=c)
        expected = (1.0 + 5.0) ** 2.0 * 0.7
        assert lowfreq_weighted_sum(fake, 4.0, 4.0) == pytest.approx(expected)
        assert lowfreq_weighted_sum(fake, 3.0, 4.0) == pytest.approx(expected)
        assert lowfreq_weighted_sum(fake, 2.0, 4.0) == 0.0  # |gamma| = sqrt(5)

    def test_growth_exponent(self):
        n = bump_medium(n_grid=48)
        # m=4, s=6: tau = 3.5, fitted exponent stays below tau + 0.3
        assert lowfreq_growth_exponent(n, 4.0) <= 3.8

    def test_tail_inequality_exact(self):
        for n in (bump_medium(n_grid=32),
                  bump_medium(n_grid=32, amplitude=0.35, width=2.0,
                              center=(0.0, 0.5, -0.3))):
            for rho in (2.0, 4.0, 8.0, 16.0):
                tail, bound = highfreq_tail(n, rho, 4.0, 6.0)
                assert tail <= bound * (1.0 + 1e-12)

    def test_tail_monotone(self):
        n = bump_medium(n_grid=32)
        tails = [highfreq_tail(n, rho, 4.0, 6.0)[0] for rho in (2, 4, 8)]
        assert tails[0] >= tails[1] >= tails[2]

    def test_band_limited_tail_zero(self):
        grid = CubeGrid(np.pi, 16)
        c = np.zeros((16, 16, 16), dtype=complex)
        c[1, 1, 0] = 1.0
        fake = SimpleNamespace(grid=grid, coeffs=c)
        assert highfreq_tail(fake, 4.0, 4.0, 6.0)[0] == 0.0

    def test_tail_requires_s_above_m(self):
        with pytest.raises(ValueError):
            highfreq_tail(bump_medium(), 2.0, 4.0, 4.0)


class TestFourierDiff:
    def test_equal_media_all_zero(self):
        n = bump_medium()
        grid = SphereGrid.build(R_DATA, 2, 6)
        zero = NearFieldData(receivers=grid, sources=grid,
                             matrices=np.zeros((12, 12, 3, 3), dtype=complex))
        rep = check_fourier_diff(n, n, zero, zero, t=15.0, rho=2.0, m=4.0,
                                 R=R_DATA, kappa=KAPPA)
        assert all(s.lhs == 0.0 for s in rep.samples)
        assert rep.violations() == 0

    def test_domain_guards(self):
        n = bump_medium()
        grid = SphereGrid.build(R_DATA, 2, 6)
        zero = NearFieldData(receivers=grid, sources=grid,
                             matrices=np.zeros((12, 12, 3, 3), dtype=complex))
        with pytest.raises(ValueError):
            check_fourier_diff(n, n, zero, zero, t=15.0, rho=0.5, m=4.0,
                               R=R_DATA, kappa=KAPPA)
        with pytest.raises(ValueError):
            check_fourier_diff(n, n, zero, zero, t=2.0, rho=100.0, m=4.0,
                               R=R_DATA, kappa=KAPPA)

    def test_with_data_and_cgo(self):
        n1 = bump_medium()
        n2 = bump_medium(extra=((-0.6, 0.4, 0.2), 0.05, 1.0))
        sphere = SphereGrid.build(R_DATA, 2, 13)
        w1 = near_field_operator(n1, KAPPA, sphere)
        w2 = near_field_operator(n2, KAPPA, sphere)
        rep = check_fourier_diff(n1, n2, w1, w2, t=15.0, rho=2.0, m=4.0,
                                 R=R_DATA, kappa=KAPPA,
                                 cgo_gammas=[(1, 0, 0)], m_grid=48)
        assert np.isfinite(rep.log_m3)
        assert rep.violations() == 0
        checked = [s for s in rep.samples if s.cgo_rel_err is not None]
        assert len(checked) == 1
        # product-expansion reconstruction of the coefficient
        assert checked[0].cgo_rel_err < 1e-2
        # second RHS ingredient halves when t doubles (pure formula scaling)
        rep2 = check_fourier_diff(n1, n2, w1, w2, t=30.0, rho=2.0, m=4.0,
                                  R=R_DATA, kappa=KAPPA)
        drop = rep.samples[0].log_smooth_term - rep2.samples[0].log_smooth_term
        assert drop == pytest.approx(np.log(2.0), rel=1e-10)

    def test_cgo_pair_one_medium_build_per_solve(self, monkeypatch):
        # the pairing weight reads the index each CGO solve resampled
        builds = []
        init = MediumFields.__init__

        def counted(self, *args):
            builds.append(1)
            init(self, *args)

        n1 = bump_medium()
        n2 = bump_medium(extra=((-0.6, 0.4, 0.2), 0.05, 1.0))
        monkeypatch.setattr(MediumFields, "__init__", counted)
        est, lead = cgo_pair_estimate(n1, n2, (1.0, 0.0, 0.0), t=15.0,
                                      kappa=KAPPA, R=R_DATA, m_grid=32)
        assert len(builds) == 2
        assert np.isfinite(est) and np.isfinite(lead)


    def test_cgo_pair_matches_whole_solutions(self):
        # the pairing equals, bit for bit, the one assembled from two whole
        # solutions, and a solution's u is eta + (f zeta + V)
        n1 = bump_medium()
        n2 = bump_medium(extra=((-0.6, 0.4, 0.2), 0.05, 1.0))
        gamma, t = np.array([1.0, 0.0, 0.0]), 15.0
        g = np.linalg.norm(gamma)
        v = cgo_vectors(gamma, t, KAPPA)
        rot = v.rotation
        s1 = cgo_solve(n1, v.zeta1, v.eta1, R_DATA, KAPPA, 32, rotation=rot)
        s2 = cgo_solve(n2, v.zeta2, v.eta2, R_DATA, KAPPA, 32, rotation=rot)
        for s in (s1, s2):
            assert np.array_equal(s.u, s.eta + (s.f[..., None] * s.zeta + s.V))
        grid = s1.grid
        weight = ((s1.n_values - s2.n_values)
                  * np.exp(-1j * grid.points() @ (rot @ gamma))
                  * grid.spacing**3)
        total = np.sum(weight * np.einsum("...j,...j->...", s1.u, s2.u))
        corr = np.sum(weight * (
            -g * (s1.f + s2.f)
            + s2.V @ s1.eta + s1.V @ s2.eta
            + s1.f * s2.f * (g**2 / 2.0 - KAPPA**2)
            + s1.f * (s2.V @ s1.zeta) + s2.f * (s1.V @ s2.zeta)
            + np.einsum("...j,...j->...", s1.V, s2.V)))
        lead = UNITARY_FACTOR * (1.0 + g**2 / (4.0 * t**2))
        est, leading = cgo_pair_estimate(n1, n2, gamma, t, KAPPA, R_DATA,
                                         m_grid=32)
        assert est == complex((total - corr) / lead)
        assert leading == complex(total / lead)

class TestDiffToData:
    def test_equal_media(self):
        n = bump_medium()
        e = np.ones((24, 24, 24, 3), dtype=complex)
        grid = SphereGrid.build(R_DATA, 2, 6)
        zero = NearFieldData(receivers=grid, sources=grid,
                             matrices=np.zeros((12, 12, 3, 3), dtype=complex))
        lhs, rhs = check_difftodata(n, n, e, e, zero, zero, (1.0, 1.0))
        assert lhs == 0.0 and rhs == 0.0

    def test_linear_in_contrast(self):
        n0 = bump_medium(amplitude=0.0)
        na = bump_medium(amplitude=0.1)
        nb = bump_medium(amplitude=0.05)
        e = np.ones((24, 24, 24, 3), dtype=complex)
        grid = SphereGrid.build(R_DATA, 2, 6)
        zero = NearFieldData(receivers=grid, sources=grid,
                             matrices=np.zeros((12, 12, 3, 3), dtype=complex))
        la, _ = check_difftodata(na, n0, e, e, zero, zero, (1.0, 1.0))
        lb, _ = check_difftodata(nb, n0, e, e, zero, zero, (1.0, 1.0))
        assert la == pytest.approx(2.0 * lb, rel=1e-10)

    def test_data_diff_norm(self):
        grid = SphereGrid.build(R_DATA, 2, 6)
        rng = np.random.default_rng(4)
        m1 = rng.standard_normal((12, 12, 3, 3)) + 0j
        w1 = NearFieldData(receivers=grid, sources=grid, matrices=m1)
        w2 = NearFieldData(receivers=grid, sources=grid, matrices=2.0 * m1)
        assert data_diff_norm(w1, w2) == pytest.approx(w1.norm(), rel=1e-12)


class TestVscCheck:
    def family(self):
        base = bump_medium(amplitude=0.1)
        fam, misfits = [], []
        for i, amp in enumerate((0.08, 0.09, 0.11, 0.12, 0.15)):
            n = bump_medium(amplitude=amp)
            fam.append(n)
            misfits.append(abs(amp - 0.1))  # synthetic data discrepancy
        return base, fam, misfits

    def test_identity_member(self):
        base, _, _ = self.family()
        rep = vsc_check(base, [base], [0.0], m=4.0, nu=0.4)
        assert rep.A == 0.0
        assert rep.violations() == 0
        assert rep.samples[0].lhs == pytest.approx(0.0, abs=1e-20)

    def test_family_fit(self):
        base, fam, misfits = self.family()
        rep = vsc_check(base, fam, misfits, m=4.0, nu=0.4)
        assert np.isfinite(rep.A) and rep.A >= 0.0
        assert rep.violations() == 0
        assert all(np.isfinite(s.margin) for s in rep.samples)

    def test_cauchy_schwarz_branch(self):
        base = bump_medium(amplitude=0.02)
        far = bump_medium(amplitude=0.29)  # distance far beyond 4 C_s
        rep = vsc_check(base, [far], [1.0], m=4.0, nu=0.4)
        assert rep.samples[0].cauchy_schwarz_branch
        assert rep.samples[0].margin > 0.0
        assert rep.violations() == 0

    def test_empty_family(self):
        base, _, _ = self.family()
        with pytest.raises(ValueError):
            vsc_check(base, [], [], m=4.0, nu=0.4)
