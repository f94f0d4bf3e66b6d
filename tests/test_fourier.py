import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from emiscat.fourier import (
    BumpProfile,
    CubeGrid,
    ProfileError,
    SobolevParams,
    UNITARY_FACTOR,
    embedding_constant,
    fftn,
    fourier_coeffs,
    hm_norm,
    ifftn,
    inverse_fourier,
    make_test_index,
)


@pytest.fixture(scope="module")
def grid():
    return CubeGrid(np.pi, 24)


def random_smooth_bump(grid, seed=0):
    rng = np.random.default_rng(seed)
    prof = BumpProfile(
        centers=((0.3, -0.5, 0.2), (-0.8, 0.4, -0.1)),
        amplitudes=(0.2 + 0.05j, 0.15),
        widths=(1.4, 1.1),
    )
    return prof.contrast(grid.points()) + 0.01 * rng.standard_normal((grid.n,) * 3)


class TestFourierCoeffs:
    def test_constant_field(self, grid):
        c = fourier_coeffs(np.ones((grid.n,) * 3), grid)
        assert c[0, 0, 0] == pytest.approx(UNITARY_FACTOR, rel=1e-12)
        c[0, 0, 0] = 0.0
        assert np.max(np.abs(c)) < 1e-12

    def test_basis_function(self, grid):
        pts = grid.points()
        f = (2 * np.pi) ** -1.5 * np.exp(1j * pts[..., 0])
        c = fourier_coeffs(f, grid)
        assert c[1, 0, 0] == pytest.approx(1.0, abs=1e-12)
        c[1, 0, 0] = 0.0
        assert np.max(np.abs(c)) < 1e-12

    def test_round_trip(self, grid):
        f = random_smooth_bump(grid).astype(complex)
        g = inverse_fourier(fourier_coeffs(f, grid), grid)
        assert np.max(np.abs(f - g)) / np.max(np.abs(f)) < 1e-12

    def test_dimension_mismatch(self, grid):
        with pytest.raises(ValueError):
            fourier_coeffs(np.ones((8, 8, 8)), grid)

    def test_argument_unchanged(self, grid):
        f = random_smooth_bump(grid).astype(complex)
        kept = f.copy()
        c = fourier_coeffs(f, grid)
        assert np.array_equal(f, kept)
        kept = c.copy()
        inverse_fourier(c, grid)
        assert np.array_equal(c, kept)


class TestInPlaceTransforms:
    """fftn and ifftn reproduce scipy.fft bit for bit, in place."""

    @pytest.mark.parametrize("shape, axes", [
        ((3, 16, 16, 16), (-3, -2, -1)),  # a component-first batch
        ((3, 48, 48, 48), (-3, -2, -1)),
        ((6, 20), (1,)),  # one axis alone
        ((27, 55), (0, 1)),  # odd 11-smooth lengths
    ])
    def test_match_scipy(self, shape, axes):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for ours, theirs in ((fftn, scipy.fft.fftn),
                             (ifftn, scipy.fft.ifftn)):
            y = x.copy()
            assert ours(y, axes) is y
            assert np.array_equal(y, theirs(x, axes=axes))


class TestHmNorm:
    def test_single_coefficient(self, grid):
        c = np.zeros((grid.n,) * 3, dtype=complex)
        c[1, 1, 1] = 1.0
        assert hm_norm(c, 4.0, grid) == pytest.approx(16.0, rel=1e-12)

    def test_m_zero_is_l2(self, grid):
        c = fourier_coeffs(random_smooth_bump(grid).astype(complex), grid)
        assert hm_norm(c, 0.0, grid) == pytest.approx(np.linalg.norm(c), rel=1e-12)

    def test_direct_summation_oracle(self, grid):
        c = fourier_coeffs(random_smooth_bump(grid).astype(complex), grid)
        g2 = grid.gamma_norm2()
        expected = np.sqrt(sum((1 + g2.ravel()[i]) ** 4 * abs(c.ravel()[i]) ** 2
                               for i in range(c.size)))
        assert hm_norm(c, 4.0, grid) == pytest.approx(expected, rel=1e-12)

    def test_parseval(self, grid):
        f = random_smooth_bump(grid).astype(complex)
        c = fourier_coeffs(f, grid)
        grid_l2 = np.sqrt(np.sum(np.abs(f) ** 2) * grid.spacing**3)
        assert hm_norm(c, 0.0, grid) == pytest.approx(grid_l2, rel=1e-10)

    def test_monotone_in_m(self, grid):
        c = fourier_coeffs(random_smooth_bump(grid).astype(complex), grid)
        norms = [hm_norm(c, m, grid) for m in (0.0, 1.0, 2.5, 4.0)]
        assert norms == sorted(norms)


class TestEmbeddingConstant:
    def test_large_m_limit(self):
        assert embedding_constant(60.0) == pytest.approx((2 * np.pi) ** -1.5, rel=1e-6)

    def test_brute_force_oracle(self):
        # independent summation over the cube |gamma_i| <= 200 plus tail bound
        k = np.arange(-200, 201, dtype=float)
        plane = k[:, None] ** 2 + k[None, :] ** 2
        total = sum(np.sum((1.0 + kx**2 + plane) ** -2.0) for kx in k)
        u0 = 200 - np.sqrt(3.0)
        total += 4 * np.pi * 2.25 * u0 ** (7 - 8.0) / (8.0 - 7)
        oracle = np.sqrt(total) / (2 * np.pi) ** 1.5
        assert embedding_constant(4.0, cutoff=200) == pytest.approx(oracle, rel=1e-3)

    def test_monotone(self):
        assert embedding_constant(5.0) >= embedding_constant(6.0)

    def test_divergent(self):
        with pytest.raises(ValueError):
            embedding_constant(3.5)


class TestSobolevParams:
    def test_reference_values(self):
        p = SobolevParams(m=4.0, s=6.0)
        assert p.nu == pytest.approx(2.0 / 6.5, rel=1e-12)
        assert p.tau == pytest.approx(3.5, rel=1e-12)
        assert 0 < p.nu < 1

    def test_exclusion(self):
        with pytest.raises(ValueError):
            SobolevParams(m=4.0, s=9.5)

    def test_ordering(self):
        with pytest.raises(ValueError):
            SobolevParams(m=4.0, s=3.0)


class TestMakeTestIndex:
    def test_empty_profile(self, grid):
        n = make_test_index(BumpProfile(), grid, b=1.0)
        assert np.max(np.abs(n.values - 1.0)) == 0.0

    def test_single_bump(self, grid):
        prof = BumpProfile(centers=((0.0, 0.0, 0.0),), amplitudes=(0.2,), widths=(1.0,))
        n = make_test_index(prof, grid, b=1.0)
        assert np.max(n.values.real) == pytest.approx(1.2, abs=1e-6)
        outside = grid.radii() >= np.pi
        assert np.max(np.abs(n.values[outside] - 1.0)) == 0.0

    def test_linearity_of_coeffs(self, grid):
        p1 = BumpProfile(centers=((0.5, 0.0, 0.0),), amplitudes=(0.1,), widths=(1.0,))
        p2 = BumpProfile(centers=((-0.5, 0.5, 0.0),), amplitudes=(0.2,), widths=(0.8,))
        both = BumpProfile(
            centers=p1.centers + p2.centers,
            amplitudes=p1.amplitudes + p2.amplitudes,
            widths=p1.widths + p2.widths,
        )
        c1 = make_test_index(p1, grid, 1.0).coeffs
        c2 = make_test_index(p2, grid, 1.0).coeffs
        cb = make_test_index(both, grid, 1.0).coeffs
        assert np.max(np.abs(cb - c1 - c2)) < 1e-12

    def test_support_violation(self, grid):
        prof = BumpProfile(centers=((3.0, 0.0, 0.0),), amplitudes=(0.1,), widths=(1.0,))
        with pytest.raises(ProfileError):
            make_test_index(prof, grid, b=1.0)

    def test_lower_bound_violation(self, grid):
        prof = BumpProfile(centers=((0.0, 0.0, 0.0),), amplitudes=(-0.5,), widths=(1.0,))
        with pytest.raises(ProfileError):
            make_test_index(prof, grid, b=0.9)

    def test_c2_embedding_inequality(self):
        # grid max of FD second derivatives vs L_m * H^m norm, 5% allowance
        grid = CubeGrid(np.pi, 48)
        prof = BumpProfile(centers=((0.2, -0.3, 0.1),), amplitudes=(0.3,), widths=(1.5,))
        n = make_test_index(prof, grid, b=1.0)
        f = n.values.real - 1.0
        h = grid.spacing
        c2 = np.max(np.abs(f))
        for ax in range(3):
            d1 = (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) / (2 * h)
            d2 = (np.roll(f, -1, axis=ax) - 2 * f + np.roll(f, 1, axis=ax)) / h**2
            c2 = max(c2, np.max(np.abs(d1)), np.max(np.abs(d2)))
        bound = embedding_constant(4.0) * hm_norm(n.coeffs, 4.0, grid)
        assert c2 <= 1.05 * bound
