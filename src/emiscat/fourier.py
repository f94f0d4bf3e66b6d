"""Periodic Fourier and Sobolev toolkit on the cube C(pi) = (-pi, pi)^3.

All modules share the unitary Fourier convention fixed here: the function
(2*pi)**(-3/2) * exp(i*gamma.x) has coefficient 1 at the lattice frequency
gamma in Z^3.  Sobolev norms are weighted coefficient sums with weight
(1 + |gamma|^2)**m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
#: (2*pi)**(3/2), the coefficient of the constant function 1 at gamma = 0.
UNITARY_FACTOR = TWO_PI ** 1.5


class ProfileError(ValueError):
    """A requested test medium violates the admissibility constraints."""


@dataclass(frozen=True)
class CubeGrid:
    """Uniform grid on the open cube (-a, a)^3 with N nodes per axis.

    Nodes sit at -a + j*h for j = 0..N-1 with spacing h = 2a/N, so the
    grid is the natural sampling for 2a-periodic trigonometric polynomials.
    """

    half_side: float
    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 8, got {self.n}")
        if self.half_side <= 0:
            raise ValueError("half_side must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_side / self.n

    def axis(self) -> np.ndarray:
        return -self.half_side + self.spacing * np.arange(self.n)

    def points(self) -> np.ndarray:
        """All grid nodes, shape (N, N, N, 3)."""
        x = self.axis()
        xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
        return np.stack([xx, yy, zz], axis=-1)

    def radii(self) -> np.ndarray:
        x = self.axis()
        xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
        return np.sqrt(xx**2 + yy**2 + zz**2)

    def gammas(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer lattice labels of the discrete frequencies, FFT layout."""
        g = np.fft.fftfreq(self.n, d=1.0 / self.n)
        return np.meshgrid(g, g, g, indexing="ij")

    def gamma_norm2(self) -> np.ndarray:
        g1, g2, g3 = self.gammas()
        return g1**2 + g2**2 + g3**2

    def frequencies(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Physical frequencies (pi/a) * gamma, FFT layout."""
        scale = np.pi / self.half_side
        g1, g2, g3 = self.gammas()
        return scale * g1, scale * g2, scale * g3


def fftn(x: np.ndarray, axes) -> np.ndarray:
    """Discrete Fourier transform of the complex array ``x`` over ``axes``,
    in place; returns ``x``.

    One numpy pass per axis, in the given order, which is the order that
    ``scipy.fft.fftn`` takes them in, so the two agree bit for bit.
    """
    for ax in axes:
        np.fft.fft(x, axis=ax, out=x)
    return x


def ifftn(x: np.ndarray, axes) -> np.ndarray:
    """Inverse of :func:`fftn`, in place; returns ``x``.

    The passes do not scale.  The factor 1/prod(n) is applied right after
    the first pass, where ``scipy.fft.ifftn`` applies it, so the two agree
    bit for bit.
    """
    scale = 1.0 / math.prod(x.shape[ax] for ax in axes)
    for i, ax in enumerate(axes):
        np.fft.ifft(x, axis=ax, norm="forward", out=x)
        if i == 0:
            x *= scale
    return x


def fourier_coeffs(values: np.ndarray, grid: CubeGrid) -> np.ndarray:
    """Unitary Fourier coefficients of grid samples on C(pi).

    Returns an (N, N, N) complex array in FFT layout; entry at index of
    gamma approximates (2*pi)**(-3/2) * integral of f(x) exp(-i*gamma.x).
    """
    if values.shape != (grid.n,) * 3:
        raise ValueError(f"values shape {values.shape} does not match grid N={grid.n}")
    scale = grid.spacing**3 / UNITARY_FACTOR
    g1, g2, g3 = grid.gammas()
    # phase accounts for the grid starting at -a instead of 0
    phase = np.exp(-1j * (np.pi / grid.half_side) * grid.half_side * (g1 + g2 + g3))
    return scale * phase * fftn(np.array(values, dtype=complex), range(3))


def inverse_fourier(coeffs: np.ndarray, grid: CubeGrid) -> np.ndarray:
    """Inverse of :func:`fourier_coeffs` (exact round trip on the grid)."""
    if coeffs.shape != (grid.n,) * 3:
        raise ValueError("coefficient shape does not match grid")
    scale = grid.spacing**3 / UNITARY_FACTOR
    g1, g2, g3 = grid.gammas()
    phase = np.exp(1j * (np.pi / grid.half_side) * grid.half_side * (g1 + g2 + g3))
    return ifftn(coeffs * phase / scale, range(3))


def hm_norm(coeffs: np.ndarray, m: float, grid: CubeGrid) -> float:
    """Sobolev H^m norm from Fourier coefficients.

    ``sqrt(sum (1+|gamma|^2)^m |c(gamma)|^2)`` over the discrete lattice.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    w = (1.0 + grid.gamma_norm2()) ** m
    return float(np.sqrt(np.sum(w * np.abs(coeffs) ** 2)))


def hm_inner(c1: np.ndarray, c2: np.ndarray, m: float, grid: CubeGrid) -> complex:
    """H^m inner product ``sum (1+|gamma|^2)^m c1 conj(c2)``."""
    w = (1.0 + grid.gamma_norm2()) ** m
    return complex(np.sum(w * c1 * np.conj(c2)))


def embedding_constant(m: float, cutoff: int = 60) -> float:
    """Certified upper bound for the Sobolev-to-C^2 embedding constant.

    Computes ``(2*pi)**(-3/2) * sqrt(sum over Z^3 of (1+|gamma|^2)**(2-m))``
    by a truncated lattice sum over the cube |gamma_i| <= cutoff plus an
    integral bound for the remainder, so the result bounds the true value
    from above.  Diverges for m <= 7/2.
    """
    if m <= 3.5:
        raise ValueError("embedding constant requires m > 7/2 (lattice sum diverges)")
    if cutoff < 4:
        raise ValueError("cutoff too small for the tail bound")
    k = np.arange(-cutoff, cutoff + 1, dtype=float)
    total = 0.0
    plane = k[:, None] ** 2 + k[None, :] ** 2
    for kx in k:
        total += np.sum((1.0 + kx**2 + plane) ** (2.0 - m))
    # remainder: each lattice point outside the cube has |gamma| > cutoff;
    # comparison with the radial integral after shifting by sqrt(3)/2 gives
    #   sum_{|gamma|>K} g(|gamma|) <= 4*pi*2.25*(K-sqrt(3))^(7-2m)/(2m-7)
    u0 = cutoff - math.sqrt(3.0)
    tail = 4.0 * np.pi * 2.25 * u0 ** (7.0 - 2.0 * m) / (2.0 * m - 7.0)
    return float(np.sqrt(total + tail) / UNITARY_FACTOR)


@dataclass(frozen=True)
class SobolevParams:
    """Smoothness parameters (m, s) with the derived exponents.

    ``nu = min{(s-m)/(m+5/2), (s-m)/(s-m+1)}`` drives the logarithmic
    convergence rate; ``tau = max{2m+3/2-s, 0}`` the low-frequency growth.
    """

    m: float
    s: float

    def __post_init__(self):
        if self.m <= 3.5:
            raise ValueError(f"m = {self.m} but the smoothness order "
                             "requires m > 7/2")
        if self.s <= self.m:
            raise ValueError(f"s = {self.s}, m = {self.m} but the "
                             "smoothness orders require s > m")
        if abs(self.s - (2.0 * self.m + 1.5)) < 1e-12:
            raise ValueError(f"s = {self.s} = 2m + 3/2 is the excluded "
                             "exceptional case (requires s != 2m + 3/2)")

    @property
    def tau(self) -> float:
        return max(2.0 * self.m + 1.5 - self.s, 0.0)

    @property
    def nu(self) -> float:
        d = self.s - self.m
        return min(d / (self.m + 2.5), d / (d + 1.0))


def _mollifier(r2: np.ndarray) -> np.ndarray:
    """C-infinity bump: exp(1 - 1/(1-r^2)) inside the unit ball, 0 outside.

    Normalized so the peak value is 1 at r = 0.
    """
    out = np.zeros_like(r2, dtype=float)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


@dataclass(frozen=True)
class BumpProfile:
    """Finite sum of smooth compactly supported bumps describing a contrast.

    Each bump contributes ``amplitude * exp(1 - 1/(1 - |x-center|^2/width^2))``
    on its support ball.  Closed-form evaluation keeps media exactly
    representable in any rotated frame.
    """

    centers: tuple = ()
    amplitudes: tuple = ()
    widths: tuple = ()

    def __post_init__(self):
        if not (len(self.centers) == len(self.amplitudes) == len(self.widths)):
            raise ProfileError("centers, amplitudes and widths must have equal length")
        if any(len(c) != 3 for c in self.centers):
            raise ProfileError("each bump center needs three coordinates")

    def contrast(self, points: np.ndarray) -> np.ndarray:
        """Evaluate n - 1 at arbitrary points, shape (..., 3) -> (...)."""
        out = np.zeros(points.shape[:-1], dtype=complex)
        for c, a, w in zip(self.centers, self.amplitudes, self.widths):
            d = points - np.asarray(c, dtype=float)
            r2 = np.sum(d * d, axis=-1) / float(w) ** 2
            out += a * _mollifier(r2)
        return out


def make_test_index(profile: BumpProfile, grid: CubeGrid,
                    b: float) -> "RefractiveIndex":
    """Synthesize an admissible refractive index n = 1 + sum of bumps.

    Raises :class:`ProfileError` when a bump support leaves B(pi) or the
    amplitudes can push Re(n) below b or Im(n) below 0.
    """
    for c, a, w in zip(profile.centers, profile.amplitudes, profile.widths):
        if np.linalg.norm(c) + w > np.pi + 1e-12:
            raise ProfileError(f"bump at {c} with width {w} is not supported in B(pi)")
        if w <= 0:
            raise ProfileError("bump width must be positive")
    neg = sum(max(0.0, -np.real(a)) for a in profile.amplitudes)
    if 1.0 - neg < b - 1e-12:
        raise ProfileError(f"amplitudes allow Re(n) < b = {b}")
    values = 1.0 + profile.contrast(grid.points())
    if np.min(values.imag) < -1e-12:
        raise ProfileError("Im(n) must be nonnegative")
    return RefractiveIndex(grid=grid, values=values, b=b, profile=profile)


@dataclass
class RefractiveIndex:
    """Complex refractive index on C(pi): grid samples plus coefficients.

    ``coeffs`` are the unitary Fourier coefficients of the contrast n - 1.
    ``profile`` is the closed form of a bump medium, None for a sampled one.
    """

    grid: CubeGrid
    values: np.ndarray
    b: float
    profile: BumpProfile | None = None
    coeffs: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n,) * 3:
            raise ValueError("values shape does not match grid")
        if np.min(self.values.real) < self.b - 1e-10:
            raise ValueError("Re(n) >= b violated on the grid")
        if np.min(self.values.imag) < -1e-10:
            raise ValueError("Im(n) >= 0 violated on the grid")
        outside = self.grid.radii() >= np.pi
        if outside.any() and np.max(np.abs(self.values[outside] - 1.0)) > 1e-10:
            raise ValueError("n must equal 1 outside B(pi)")
        if self.coeffs is None:
            self.coeffs = fourier_coeffs(self.values - 1.0, self.grid)
