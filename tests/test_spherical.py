"""Tests for spherical harmonics, Hankel functions, and field conversion."""

import numpy as np
import pytest
from scipy.special import spherical_jn, spherical_yn

from emiscat.forward import FarFieldData, SphereGrid
from emiscat.spherical import (
    FarCoeffs,
    far_coeffs,
    harmonic_table,
    near_far_bound,
    near_from_far,
    psi_compose,
    psi_near,
    reconstruct_far,
    sph_hankel1,
)


def harmonic(l, k, d):
    """Y_l^k at one unit vector: row l^2 + l + k of the harmonic table."""
    return harmonic_table(l, d)[FarCoeffs.index(l, k)]


class TestSphHarmonic:
    def test_y00(self):
        d = np.array([0.3, -0.5, 0.81])
        d /= np.linalg.norm(d)
        assert harmonic(0, 0, d) == pytest.approx(1.0 / np.sqrt(4 * np.pi),
                                                  rel=1e-12)

    def test_y10_north_pole(self):
        got = harmonic(1, 0, np.array([0.0, 0.0, 1.0]))
        assert got == pytest.approx(np.sqrt(3.0 / (4 * np.pi)), rel=1e-12)

    def test_orthonormality(self):
        sg = SphereGrid.build(1.0, 10, 19)  # degree 18: exact through l=8
        table = harmonic_table(8, sg.nodes)
        gram = np.einsum("an,bn,n->ab", table, np.conj(table), sg.weights)
        assert np.max(np.abs(gram - np.eye(81))) < 1e-10

    def test_addition_theorem(self):
        rng = np.random.default_rng(11)
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        for l in range(11):
            total = sum(abs(harmonic(l, k, d)) ** 2 for k in range(-l, l + 1))
            assert total == pytest.approx((2 * l + 1) / (4 * np.pi), abs=1e-10)


class TestSphHankel:
    def test_h0_closed_form(self):
        z = np.pi
        assert sph_hankel1(0, z) == pytest.approx(-1j * np.exp(1j * z) / z,
                                                  rel=1e-12)
        assert sph_hankel1(0, np.pi) == pytest.approx(1j / np.pi, rel=1e-12)

    def test_h1_closed_form(self):
        # h_1(z) = -exp(iz) (z + i) / z^2
        z = 1.0
        expected = -np.exp(1j * z) * (z + 1j) / z**2
        assert sph_hankel1(1, z) == pytest.approx(expected, rel=1e-12)

    def test_wronskian(self):
        # j_l(z) y_l'(z) - j_l'(z) y_l(z) = 1/z^2
        for z in (0.5, 1.0, 10.0):
            for l in range(21):
                w = (spherical_jn(l, z) * spherical_yn(l, z, derivative=True)
                     - spherical_jn(l, z, derivative=True) * spherical_yn(l, z))
                assert w == pytest.approx(1.0 / z**2, rel=1e-10)

    def test_growth_in_degree(self):
        z = 1.5 * np.pi
        mags = [abs(sph_hankel1(l, z)) for l in range(4, int(2 * z) + 1)]
        assert mags == sorted(mags)

    def test_nonpositive_argument(self):
        with pytest.raises(ValueError):
            sph_hankel1(0, 0.0)


def synthetic_far(L_grid=6, n_phi=13):
    """FarFieldData holding M Y_1^0(xhat) Y_0^0(d)."""
    rec = SphereGrid.build(1.0, L_grid, n_phi)
    inc = SphereGrid.build(1.0, L_grid, n_phi)
    M = np.arange(9, dtype=complex).reshape(3, 3) + 1.0
    y10 = np.sqrt(3.0 / (4 * np.pi)) * rec.nodes[:, 2]
    y00 = 1.0 / np.sqrt(4 * np.pi)
    mats = y10[:, None, None, None] * y00 * M[None, None]
    return FarFieldData(receivers=rec, incidences=inc,
                        matrices=np.broadcast_to(mats, (rec.nodes.shape[0],
                                                        inc.nodes.shape[0], 3, 3)).copy()), M


class TestFarCoeffs:
    def test_zero_field(self):
        rec = SphereGrid.build(1.0, 4, 9)
        far = FarFieldData(receivers=rec, incidences=rec,
                           matrices=np.zeros((36, 36, 3, 3), dtype=complex))
        co = far_coeffs(far, 2)
        assert np.max(np.abs(co.alpha)) == 0.0

    def test_single_mode(self):
        far, M = synthetic_far()
        co = far_coeffs(far, 3)
        i_d = FarCoeffs.index(0, 0)
        i_x = FarCoeffs.index(1, 0)
        assert np.allclose(co.alpha[i_d, i_x], M, rtol=1e-12)
        mask = np.ones(co.alpha.shape[:2], dtype=bool)
        mask[i_d, i_x] = False
        assert np.max(np.abs(co.alpha[mask])) < 1e-12

    def test_round_trip(self):
        far, _ = synthetic_far()
        co = far_coeffs(far, 3)
        recon = reconstruct_far(co, far.receivers.nodes, far.incidences.nodes)
        again = far_coeffs(FarFieldData(receivers=far.receivers,
                                        incidences=far.incidences,
                                        matrices=recon), 3)
        assert np.max(np.abs(again.alpha - co.alpha)) < 1e-10

    def test_parseval(self):
        far, _ = synthetic_far()
        co = far_coeffs(far, 3)
        assert co.frobenius_sum() <= far.norm() ** 2 + 1e-10

    def test_insufficient_degree(self):
        far, _ = synthetic_far(L_grid=3, n_phi=7)
        with pytest.raises(ValueError):
            far_coeffs(far, 10)


class TestNearFromFar:
    def test_zero_coeffs(self):
        L = 4
        co = FarCoeffs(L=L, alpha=np.zeros(((L + 1) ** 2,) * 2 + (3, 3),
                                           dtype=complex))
        m, last = near_from_far(co, 1.0, np.array([0.0, 0.0, 7.0]),
                                np.array([0.0, 5.0, 0.0]))
        assert np.max(np.abs(m)) == 0.0
        assert last == 0.0

    def test_ordering_guard(self):
        L = 2
        co = FarCoeffs(L=L, alpha=np.zeros(((L + 1) ** 2,) * 2 + (3, 3),
                                           dtype=complex))
        with pytest.raises(ValueError):
            near_from_far(co, 1.0, np.array([0.0, 0.0, 4.0]),
                          np.array([0.0, 5.0, 0.0]))


class TestNearFarBound:
    def test_zero_limit(self):
        assert near_far_bound(0.0, 0.5, 1.0, 1.0) == 0.0
        small = [near_far_bound(10.0 ** -k, 0.5, 1.0, 1.0) for k in (4, 8, 16)]
        assert small[0] > small[1] > small[2] > 0

    def test_worked_value(self):
        got = near_far_bound(np.exp(-9.0), 0.5, 1.0, 1.0)
        assert got == pytest.approx(np.exp(-3.0), rel=1e-12)

    def test_monotone(self):
        norms = np.exp(-np.linspace(2.0, 30.0, 15))
        vals = [near_far_bound(x, 0.7, 2.0, 1.5) for x in norms]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            near_far_bound(2.0, 0.5, 1.0, 1.0)  # log argument >= 1
        with pytest.raises(ValueError):
            near_far_bound(0.1, 1.5, 1.0, 1.0)  # theta out of range
        with pytest.raises(ValueError):
            near_far_bound(0.5, 0.5, 1.0, 1.0, delta_max=0.1)


class TestPsiCompose:
    def test_zero_limit(self):
        assert psi_compose(0.0, 1.0, 0.3, 0.5, 1.0, 1.0) == 0.0
        vals = [psi_compose(10.0 ** -k, 1.0, 0.3, 0.5, 1.0, 1.0)
                for k in (2, 6, 12)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_monotone(self):
        ts = np.logspace(-12, -2, 30)
        vals = [psi_compose(t, 1.0, 0.3, 0.5, 1.0, 1.0) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_log_dominance(self):
        # psi_n(phi(t)) / (ln(3+1/t))^(-2 nu theta) stays bounded
        nu, theta = 0.3, 0.5
        ratios = [psi_compose(t, 1.0, nu, theta, 1.0, 1.0)
                  / np.log(3.0 + 1.0 / t) ** (-2 * nu * theta)
                  for t in np.logspace(-16, -4, 20)]
        assert np.all(np.isfinite(ratios))
        assert max(ratios) < 50.0

    def test_vanishing_at_zero(self):
        ts = np.logspace(-30, -5, 10)
        for f in (lambda t: psi_near(t, 1.0, 0.4),
                  lambda t: psi_compose(t, 1.0, 0.4, 0.6, 1.0, 1.0)):
            vals = [f(t) for t in ts]
            assert vals[0] < 0.5 * vals[-1]
        assert psi_near(0.0, 1.0, 0.4) == 0.0
