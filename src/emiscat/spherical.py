"""Spherical harmonics, Hankel functions, and near/far field conversion.

Scattered fields radiated from B(pi) expand in outgoing spherical waves
h_l(kappa r) Y_l^k; the far-field pattern determines the expansion in both
the receiver and (by plane-wave superposition of the dipole excitation) the
source variable.  ``near_from_far`` sums that double series.  The module
also evaluates the logarithmic near-by-far stability bound and the
composed index function used by the rate machinery.

Conventions: orthonormal spherical harmonics with the Condon-Shortley
phase (scipy's); h_l^(1) = j_l + i y_l.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: the CGO path never loads the solver
    from .forward import FarFieldData


def harmonic_table(L, directions):
    """All Y_l^k for l <= L at the given unit vectors.

    Returns shape ((L+1)**2, ...) ordered lexicographically by (l, k),
    k = -l..l; row index of (l, k) is l**2 + l + k.
    """
    from scipy.special import sph_harm_y  # on first use: vsc loads no scipy

    d = np.asarray(directions, dtype=float)
    theta = np.arccos(np.clip(d[..., 2], -1.0, 1.0))
    phi = np.arctan2(d[..., 1], d[..., 0])
    out = np.empty(((L + 1) ** 2,) + theta.shape, dtype=complex)
    for l in range(L + 1):
        ks = np.arange(-l, l + 1).reshape((-1,) + (1,) * theta.ndim)
        out[l**2:(l + 1) ** 2] = sph_harm_y(l, ks, theta[None, ...],
                                            phi[None, ...])
    return out


def sph_hankel1(l, z):
    """Spherical Hankel function of the first kind h_l^(1)(z), z > 0."""
    from scipy.special import spherical_jn, spherical_yn

    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ValueError("argument must be positive")
    return spherical_jn(l, z) + 1j * spherical_yn(l, z)


@dataclass
class FarCoeffs:
    """Harmonic coefficients of a matrix far field in both directions.

    ``alpha[i1, i2]`` is the 3x3 coefficient of conj(Y_{l1}^{k1}(d)) *
    conj(Y_{l2}^{k2}(xhat)) with i = l**2 + l + k, so the field is
    reconstructed as sum alpha * Y_{l1}^{k1}(d) Y_{l2}^{k2}(xhat).
    """

    L: int
    alpha: np.ndarray  # ((L+1)^2, (L+1)^2, 3, 3)

    def __post_init__(self):
        n = (self.L + 1) ** 2
        if self.alpha.shape != (n, n, 3, 3):
            raise ValueError("coefficient array shape does not match L")
        if not np.all(np.isfinite(self.alpha)):
            raise ValueError("non-finite coefficients")

    @staticmethod
    def index(l, k):
        return l * l + l + k

    def frobenius_sum(self) -> float:
        return float(np.sum(np.abs(self.alpha) ** 2))


def check_degree(L: int, *grids) -> None:
    """Raise ValueError unless every direction grid resolves degree L."""
    if any(grid.degree < L for grid in grids):
        raise ValueError(f"direction grids cannot resolve degree L={L}")


def far_coeffs(far: FarFieldData, L: int) -> FarCoeffs:
    """Project far-field data onto spherical harmonics in both variables."""
    check_degree(L, far.receivers, far.incidences)
    yx = harmonic_table(L, far.receivers.nodes)  # (n_lk, n_x)
    yd = harmonic_table(L, far.incidences.nodes)  # (n_lk, n_d)
    wx = far.receivers.weights
    wd = far.incidences.weights
    alpha = np.einsum("ax,bd,xdij->abij", np.conj(yx) * wx,
                      np.conj(yd) * wd, far.matrices, optimize=True)
    # alpha indexed [i_xhat, i_d]; store as [i_d (= l1), i_xhat (= l2)]
    return FarCoeffs(L=L, alpha=np.swapaxes(alpha, 0, 1))


def reconstruct_far(coeffs: FarCoeffs, xhats, ds) -> np.ndarray:
    """Evaluate the truncated expansion at nodes (n_x, n_d, 3, 3)."""
    yx = harmonic_table(coeffs.L, np.asarray(xhats))
    yd = harmonic_table(coeffs.L, np.asarray(ds))
    return np.einsum("abij,bx,ad->xdij", coeffs.alpha, yx, yd, optimize=True)


def near_from_far(coeffs: FarCoeffs, kappa: float, x, y):
    """Scattered Green's tensor w^s(x, y) summed from far-field coefficients.

    Valid for |x| >= |y| > pi.  Returns ``(matrix, last_shell)`` where
    ``last_shell`` is the Frobenius magnitude of the degree-L shell, a
    truncation indicator.
    """
    L = coeffs.L
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx, ry = np.linalg.norm(x), np.linalg.norm(y)
    if rx < ry:
        raise ValueError("series requires |x| >= |y|")
    ls = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    hy = sph_hankel1(ls, kappa * ry)
    hx = sph_hankel1(ls, kappa * rx)
    u1 = (1j ** (-ls)) * hy * harmonic_table(L, y / ry)  # source factor
    u2 = (1j ** ls) * hx * harmonic_table(L, x / rx)  # receiver factor
    a = coeffs.alpha
    terms = (-1j * kappa**3 / (4.0 * np.pi)) * u1[:, None, None, None] \
        * u2[None, :, None, None] * a
    mat = np.sum(terms, axis=(0, 1))
    shell = (ls[:, None] == L) | (ls[None, :] == L)
    last = float(np.sqrt(np.sum(np.abs(terms[shell]) ** 2)))
    return mat, last


def near_far_bound(far_diff_norm: float, theta: float, omega: float,
                   rho: float, delta_max: float | None = None) -> float:
    """Logarithmic near-by-far stability bound.

    ``rho^2 * exp(-(-ln(far_diff_norm/(omega*rho)))^theta)``, increasing in
    the far-field discrepancy; applicable only below ``delta_max``.
    """
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    if far_diff_norm < 0:
        raise ValueError("norm must be nonnegative")
    if far_diff_norm == 0:
        return 0.0
    if delta_max is not None and far_diff_norm > delta_max:
        raise ValueError("discrepancy above the bound's validity threshold")
    u = far_diff_norm / (omega * rho)
    if u >= 1.0:
        raise ValueError("discrepancy too large: logarithm argument >= 1")
    return rho**2 * np.exp(-((-np.log(u)) ** theta))


def psi_near(t: float, A: float, nu: float) -> float:
    """Logarithmic index function A * (ln(3 + 1/t))**(-2 nu), 0 for t <= 0."""
    if t <= 0:
        return 0.0
    return A * np.log(3.0 + 1.0 / t) ** (-2.0 * nu)


def psi_compose(t: float, A: float, nu: float, theta: float, omega: float,
                rho: float) -> float:
    """Composed index function psi_n(phi(t)) for far-field data.

    ``phi(t) = rho^2 exp(-(-ln(sqrt(t)) + ln(omega*rho))^theta)`` feeds the
    near-field index function; requires sqrt(t) < omega*rho.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 0.0
    phi = near_far_bound(float(np.sqrt(t)), theta, omega, rho)
    return float(psi_near(phi, A, nu))
