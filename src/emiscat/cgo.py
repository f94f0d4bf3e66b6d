"""Complex geometrical optics (CGO) machinery.

Builds Maxwell solutions of the form E = e^{i zeta.x}(eta + f zeta + V) with
zeta.zeta = kappa^2 and |Im zeta| = t large.  The construction works in
conjugated variables throughout: a periodic Faddeev-type operator G_zeta
inverts the conjugated Laplacian on a half-integer-shifted frequency
lattice, the 6x6 potential matrix Q couples the fields, and a Neumann
iteration solves the fixed-point system (contraction factor <= 1/2 once
t exceeds the explicit threshold t_min).

The factor e^{i zeta.x} itself is never evaluated: at the relevant t it
overflows by thousands of orders of magnitude.  All stored fields are the
bounded conjugated parts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .fourier import CubeGrid, RefractiveIndex


class CgoError(RuntimeError):
    """CGO construction failure (divergent iteration, bad frame, ...)."""

    def __init__(self, message, contraction=None):
        super().__init__(message)
        self.contraction = contraction


def t_min(R: float, kappa: float, b: float, lm_cm: float) -> float:
    """Imaginary-part threshold 60 (R/pi)(1+kappa^2) b^-2 (L_m C_m)^2."""
    if R <= 0 or kappa < 0 or b <= 0 or lm_cm <= 0:
        raise ValueError("all parameters must be positive")
    if lm_cm < 1.0:
        warnings.warn("L_m * C_m < 1: contraction guarantee not established",
                      stacklevel=2)
    return 60.0 * (R / np.pi) * (1.0 + kappa**2) * b**-2 * lm_cm**2


def q_bound(kappa: float, b: float, lm_cm: float) -> float:
    """Pointwise spectral-norm bound 15 (1+kappa^2) b^-2 (L_m C_m)^2 for Q."""
    if kappa < 0 or b <= 0 or lm_cm <= 0:
        raise ValueError("parameters must be positive")
    return 15.0 * (1.0 + kappa**2) * b**-2 * lm_cm**2


@dataclass(frozen=True)
class CgoVectors:
    """The paired wave vectors for one lattice frequency gamma.

    zeta_1 + zeta_2 = -gamma, zeta_j.zeta_j = kappa^2, zeta_j.eta_j = 0;
    Im(zeta_1) = +t a_1 and Im(zeta_2) = -t a_1 share one axis, so both
    members of the pair live in the same rotated frame.
    """

    gamma: np.ndarray
    t: float
    kappa: float
    a1: np.ndarray
    a2: np.ndarray
    zeta1: np.ndarray
    zeta2: np.ndarray
    eta1: np.ndarray
    eta2: np.ndarray


def cgo_vectors(gamma, t: float, kappa: float) -> CgoVectors:
    """Construct the CGO vector pair of the Fourier-difference bound."""
    gamma = np.asarray(gamma, dtype=float)
    g = np.linalg.norm(gamma)
    if g == 0:
        raise ValueError("gamma = 0 is excluded (eta is undefined)")
    if t <= 0:
        raise ValueError("t must be positive")
    disc = kappa**2 + t**2 - g**2 / 4.0
    if disc < 0:
        raise ValueError("|gamma| exceeds 2 sqrt(kappa^2 + t^2)")
    ghat = gamma / g
    # deterministic completion: smallest-index coordinate axis with a
    # nonzero projection orthogonal to gamma, then the cross product
    for j in range(3):
        cand = np.eye(3)[j] - ghat[j] * ghat
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            a1 = cand / norm
            break
    a2 = np.cross(ghat, a1)
    root = np.sqrt(disc)
    zeta1 = -0.5 * gamma + 1j * t * a1 + root * a2
    zeta2 = -0.5 * gamma - 1j * t * a1 - root * a2
    eta1 = ghat - 1j * (g / (2.0 * t)) * a1
    eta2 = ghat + 1j * (g / (2.0 * t)) * a1
    return CgoVectors(gamma=gamma, t=t, kappa=kappa, a1=a1, a2=a2,
                      zeta1=zeta1, zeta2=zeta2, eta1=eta1, eta2=eta2)


def rotation_to_axis(a1, a2, ghat) -> np.ndarray:
    """Orthogonal matrix mapping a1 to e_z (and {ghat, a2} to {e_x, e_y})."""
    rot = np.stack([ghat, a2, a1], axis=0)
    if abs(np.linalg.det(rot) - 1.0) > 1e-10:
        rot = np.stack([a2, ghat, a1], axis=0)
    return rot


def _eval_contrast(coeffs, grid: CubeGrid, points) -> np.ndarray:
    """Evaluate the trigonometric interpolant of the contrast at arbitrary
    points (P, 3); chunked triple contraction, O(P * N^3) flops."""
    g = np.fft.fftfreq(grid.n, d=1.0 / grid.n) * (np.pi / grid.half_side)
    out = np.empty(points.shape[0], dtype=complex)
    for lo in range(0, points.shape[0], 512):
        p = points[lo:lo + 512]
        e1, e2, e3 = (np.exp(1j * np.outer(p[:, c], g)) for c in range(3))
        tmp = np.einsum("ijk,pk->pij", coeffs, e3, optimize=True)
        tmp = np.einsum("pij,pj->pi", tmp, e2, optimize=True)
        out[lo:lo + 512] = np.einsum("pi,pi->p", tmp, e1, optimize=True)
    return out / (2.0 * np.pi) ** 1.5


def rotate_index(n: RefractiveIndex, rotation) -> RefractiveIndex:
    """The same medium expressed in a rotated frame, n'(x) = n(rot^T x).

    Profile media are re-evaluated in closed form (exact).  Generic media
    use trigonometric interpolation, feasible only for small grids.
    """
    rot = np.asarray(rotation, dtype=float)
    if np.max(np.abs(rot @ rot.T - np.eye(3))) > 1e-10:
        raise ValueError("rotation must be orthogonal")
    grid = n.grid
    if n.profile is not None:
        prof = n.profile
        centers = tuple(tuple(rot @ np.asarray(c, dtype=float))
                        for c in prof.centers)
        rotated = type(prof)(centers=centers, amplitudes=prof.amplitudes,
                             widths=prof.widths)
        values = 1.0 + rotated.contrast(grid.points())
        return RefractiveIndex(grid=grid, values=values, b=n.b,
                               smoothness=n.smoothness, profile=rotated)
    if grid.n > 24:
        raise ValueError("generic rotation needs a profile medium above N=24")
    # aliasing guard: the top coefficient shell must be negligible
    g2 = grid.gamma_norm2()
    top = g2 >= (grid.n // 2 - 1) ** 2
    tail = np.sum(np.abs(n.coeffs[top]) ** 2)
    total = np.sum(np.abs(n.coeffs) ** 2)
    if total > 0 and tail > 1e-2 * total:
        raise ValueError("medium is not band-limited enough to rotate")
    pts = (grid.points() @ rot).reshape(-1, 3)  # rows rot^T x
    contrast = _eval_contrast(n.coeffs, grid, pts).reshape((grid.n,) * 3)
    values = 1.0 + contrast
    return RefractiveIndex(grid=grid, values=values, b=n.b,
                           smoothness=n.smoothness)


class MediumFields:
    """Derivative fields of a refractive index on the large CGO cube."""

    def __init__(self, n: RefractiveIndex, R: float, m_grid: int):
        if R <= np.pi:
            raise ValueError("require R > pi")
        self.R = float(R)
        self.grid = CubeGrid(2.0 * R, m_grid)
        if n.profile is not None:
            vals = 1.0 + n.profile.contrast(self.grid.points())
        else:
            vals = self._resample_generic(n)
        if np.min(vals.real) < n.b - 1e-8:
            raise ValueError("resampled Re(n) dips below b")
        self.values = vals
        self.b = n.b
        f1, f2, f3 = self.grid.frequencies()
        self._freqs = (f1, f2, f3)
        chat = scipy.fft.fftn(vals - 1.0)
        self.grad = np.stack(
            [scipy.fft.ifftn(1j * f * chat) for f in self._freqs], axis=-1)
        self.p = self.grad / vals[..., None]  # grad(n)/n
        self.jac_p = np.empty(self.grad.shape[:3] + (3, 3), dtype=complex)
        for i in range(3):
            pihat = scipy.fft.fftn(self.p[..., i])
            for j in range(3):
                self.jac_p[..., i, j] = scipy.fft.ifftn(1j * self._freqs[j]
                                                        * pihat)
        sqrt_n = np.sqrt(vals)
        shat = scipy.fft.fftn(sqrt_n - 1.0)
        lap = -(f1**2 + f2**2 + f3**2)
        self.lap_sqrt = scipy.fft.ifftn(lap * shat)  # Laplacian of sqrt(n)
        self.sqrt_n = sqrt_n
        self.inv_sqrt_n = 1.0 / sqrt_n
        # n^{-1/2} Delta n^{1/2}, the scalar zeroth-order piece of Q
        self.helm_scalar = self.inv_sqrt_n * self.lap_sqrt

    def _resample_generic(self, n: RefractiveIndex):
        """Tensor-product trigonometric evaluation of n on the big grid,
        zero contrast outside C(pi)."""
        axis = self.grid.axis()
        gam = np.fft.fftfreq(n.grid.n, d=1.0 / n.grid.n)  # integer lattice
        inside = np.abs(axis) < np.pi
        xi = axis[inside]
        mat = np.exp(1j * np.outer(xi, gam))
        small = np.einsum("ai,bj,ck,ijk->abc", mat, mat, mat, n.coeffs,
                          optimize=True) / (2.0 * np.pi) ** 1.5
        out = np.zeros((self.grid.n,) * 3, dtype=complex)
        idx = np.ix_(inside, inside, inside)
        out[idx] = small
        return 1.0 + out

    def q_apply(self, A, B):
        """Action of the 6x6 potential matrix Q on a field pair (A, B)."""
        k2q = self.kappa**2 * (1.0 - self.values)
        gn = self.grad
        top = (k2q[..., None] * A
               - 1j * self.kappa * self.inv_sqrt_n[..., None] * np.cross(gn, B)
               - np.einsum("...ij,...j->...i", self.jac_p, A)
               + self.helm_scalar[..., None] * A)
        bot = (k2q[..., None] * B
               + 1j * self.kappa * self.inv_sqrt_n[..., None] * np.cross(gn, A))
        return top, bot

    def attach_kappa(self, kappa: float):
        self.kappa = float(kappa)
        return self


def q_matrix(n: RefractiveIndex, R: float, m_grid: int, kappa: float):
    """Explicit 6x6 potential matrix field on the CGO cube (heavy; prefer
    the action form for solves)."""
    med = MediumFields(n, R, m_grid).attach_kappa(kappa)
    shape = (med.grid.n,) * 3
    q = np.zeros(shape + (6, 6), dtype=complex)
    k2q = kappa**2 * (1.0 - med.values)
    for i in range(6):
        q[..., i, i] = k2q
    cross = np.zeros(shape + (3, 3), dtype=complex)
    gx, gy, gz = med.grad[..., 0], med.grad[..., 1], med.grad[..., 2]
    cross[..., 0, 1] = -gz
    cross[..., 0, 2] = gy
    cross[..., 1, 0] = gz
    cross[..., 1, 2] = -gx
    cross[..., 2, 0] = -gy
    cross[..., 2, 1] = gx
    w = 1j * kappa * med.inv_sqrt_n
    q[..., 0:3, 3:6] += -w[..., None, None] * cross
    q[..., 3:6, 0:3] += w[..., None, None] * cross
    q[..., 0:3, 0:3] += -med.jac_p
    for i in range(3):
        q[..., i, i] += med.helm_scalar
    return q, med.grid


class FaddeevOperator:
    """Periodic Faddeev-type inverse G_zeta on the cube of half-side 2R.

    Diagonal on the half-integer-shifted lattice along the Im(zeta) axis;
    the shift keeps every denominator away from zero by pi*t/(2R).
    """

    def __init__(self, zeta, grid: CubeGrid, axis: int = 2):
        zeta = np.asarray(zeta, dtype=complex)
        im = zeta.imag
        t = np.linalg.norm(im)
        if t <= 0:
            raise ValueError("Im(zeta) must be nonzero")
        if abs(abs(im[axis]) - t) > 1e-9 * t:
            raise CgoError("Im(zeta) is not aligned with the designated axis")
        self.zeta = zeta
        self.t = t
        self.grid = grid
        self.axis = axis
        rpp = grid.half_side  # R'' = 2R
        base = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
        shift = [base.copy() for _ in range(3)]
        shift[axis] = shift[axis] + 0.5
        scale = np.pi / rpp
        x1, x2, x3 = np.meshgrid(*(scale * s for s in shift), indexing="ij")
        xi2 = x1**2 + x2**2 + x3**2
        denom = xi2 + 2.0 * (zeta[0] * x1 + zeta[1] * x2 + zeta[2] * x3)
        floor = np.pi * t / rpp
        dmin = float(np.min(np.abs(denom)))
        if dmin < floor * (1.0 - 1e-9):
            raise CgoError(f"denominator {dmin:.3e} under floor {floor:.3e}")
        self.denominator_min = dmin
        self.symbol = 1.0 / denom
        ax = grid.axis()
        s = np.pi / (2.0 * rpp)
        mod = np.exp(-1j * s * ax)  # along the shifted axis only
        shape = [1, 1, 1]
        shape[axis] = grid.n
        self._demod = mod.reshape(shape)
        self._remod = np.conj(self._demod)

    def __call__(self, f):
        """Apply G_zeta to scalar samples, or componentwise along the last
        axis for vector fields."""
        if f.ndim == 4:
            return np.stack([self(f[..., c]) for c in range(f.shape[-1])],
                            axis=-1)
        g = scipy.fft.fftn(self._demod * f)
        return self._remod * scipy.fft.ifftn(self.symbol * g)

    def shifted_gradient(self, f):
        """Spectral gradient for fields in the shifted (antiperiodic) band."""
        g = scipy.fft.fftn(self._demod * f)
        rpp = self.grid.half_side
        base = np.fft.fftfreq(self.grid.n, d=1.0 / self.grid.n)
        out = np.empty(f.shape + (3,), dtype=complex)
        scale = np.pi / rpp
        for c in range(3):
            sh = base + (0.5 if c == self.axis else 0.0)
            shape = [1, 1, 1]
            shape[c] = self.grid.n
            xi = scale * sh.reshape(shape)
            out[..., c] = self._remod * scipy.fft.ifftn(1j * xi * g)
        return out

    def shifted_curl(self, v):
        """Spectral curl of a shifted-band vector field."""
        grads = [self.shifted_gradient(v[..., c]) for c in range(3)]
        out = np.empty_like(v)
        out[..., 0] = grads[2][..., 1] - grads[1][..., 2]
        out[..., 1] = grads[0][..., 2] - grads[2][..., 0]
        out[..., 2] = grads[1][..., 0] - grads[0][..., 1]
        return out


def cgo_rhs(med: MediumFields, op: FaddeevOperator, zeta, eta, kappa):
    """Right-hand side (F1, F2) of the conjugated fixed-point system."""
    zeta = np.asarray(zeta, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    zdg = np.einsum("j,...j->...", zeta, med.grad)  # zeta . grad(n)
    scalar = -1j * med.inv_sqrt_n * zdg - med.lap_sqrt
    f1 = -op(scalar[..., None] * eta)
    a0 = med.sqrt_n[..., None] * eta
    b0 = np.broadcast_to(np.cross(zeta, eta) / kappa,
                         a0.shape).astype(complex)
    qa, qb = med.q_apply(a0, b0)
    return f1 - op(qa), -op(qb)


@dataclass
class CgoSolution:
    """Conjugated CGO fields on the cube of half-side 2R.

    The physical fields are E = e^{i zeta.x} u and H = e^{i zeta.x} h with
    u = eta + f*zeta + V; only the bounded parts are stored.
    """

    grid: CubeGrid
    R: float
    kappa: float
    zeta: np.ndarray
    eta: np.ndarray
    t: float
    e_prime: np.ndarray
    h_prime: np.ndarray
    f: np.ndarray
    V: np.ndarray
    u: np.ndarray
    h: np.ndarray
    f_norm: float
    v_norm: float
    residual: float
    contraction: list = field(default_factory=list)

    def remainder_norm(self) -> float:
        """||f|| + ||V|| over the evaluation ball B(3R/2)."""
        return self.f_norm + self.v_norm


def _ball_l2(values, grid: CubeGrid, radius: float) -> float:
    mask = grid.radii() < radius
    return float(np.sqrt(np.sum(np.abs(values[mask]) ** 2) * grid.spacing**3))


def cgo_solve(n: RefractiveIndex, zeta, eta, R: float, m_grid: int = 64,
              kappa: float | None = None, axis: int = 2, tol: float = 1e-11,
              max_iter: int = 80) -> CgoSolution:
    """Solve the conjugated CGO system and assemble the remainder parts.

    ``zeta`` must satisfy zeta.zeta = kappa^2 with Im(zeta) along ``axis``
    (rotate the medium, not the operator, to arrange this).
    """
    zeta = np.asarray(zeta, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    if kappa is None:
        kappa = float(np.sqrt(np.real(zeta @ zeta)))
    zn = np.linalg.norm(zeta)  # rounding scales with |zeta| ~ t
    if abs(zeta @ zeta - kappa**2) > 1e-8 * max(1.0, kappa**2, zn**2):
        raise CgoError("zeta.zeta != kappa^2")
    if abs(zeta @ eta) > 1e-8 * zn * np.linalg.norm(eta):
        raise CgoError("zeta.eta != 0")
    med = MediumFields(n, R, m_grid).attach_kappa(kappa)
    op = FaddeevOperator(zeta, med.grid, axis=axis)
    f1, f2 = cgo_rhs(med, op, zeta, eta, kappa)
    ea, hb = f1.copy(), f2.copy()
    prev_delta = None
    ratios = []
    for _ in range(max_iter):
        qa, qb = med.q_apply(ea, hb)
        new_a = f1 - op(qa)
        new_b = f2 - op(qb)
        delta = np.sqrt(np.sum(np.abs(new_a - ea) ** 2)
                        + np.sum(np.abs(new_b - hb) ** 2))
        scale = np.sqrt(np.sum(np.abs(new_a) ** 2) + np.sum(np.abs(new_b) ** 2))
        ea, hb = new_a, new_b
        if prev_delta is not None and prev_delta > 0:
            ratios.append(delta / prev_delta)
        prev_delta = delta
        if delta <= tol * max(scale, 1e-300):
            break
    else:
        raise CgoError("Neumann iteration did not converge "
                       f"(last ratio {ratios[-1] if ratios else np.nan:.3f})",
                       contraction=ratios)
    if len(ratios) >= 3 and min(ratios[-3:]) > 1.0:
        raise CgoError("Neumann iteration diverging", contraction=ratios)
    # extraction per the remainder splitting
    g0 = op(1j * med.inv_sqrt_n
            * np.einsum("...j,j->...", med.grad, eta))  # scalar
    f_field = med.inv_sqrt_n * g0
    v_prime = ea - g0[..., None] * zeta
    v_field = med.inv_sqrt_n[..., None] * v_prime
    u = eta + f_field[..., None] * zeta + v_field
    h = np.cross(zeta, eta) / kappa + hb
    rball = 1.5 * R
    f_norm = _ball_l2(f_field, med.grid, rball)
    v_norm = _ball_l2(np.linalg.norm(v_field, axis=-1), med.grid, rball)
    # Maxwell residual in conjugated variables on B(3R/2): the constant
    # parts of u and h are curl-free and handled analytically
    mod_u = f_field[..., None] * zeta + v_field
    r1 = (1j * np.cross(zeta, u) + op.shifted_curl(mod_u)
          - 1j * kappa * h)
    r2 = (1j * np.cross(zeta, h) + op.shifted_curl(hb)
          + 1j * kappa * med.values[..., None] * u)
    scale = kappa * (_ball_l2(np.linalg.norm(u, axis=-1), med.grid, rball)
                     + _ball_l2(np.linalg.norm(h, axis=-1), med.grid, rball))
    resid = (_ball_l2(np.linalg.norm(r1, axis=-1), med.grid, rball)
             + _ball_l2(np.linalg.norm(r2, axis=-1), med.grid, rball)) / scale
    return CgoSolution(grid=med.grid, R=R, kappa=kappa, zeta=zeta, eta=eta,
                       t=op.t, e_prime=ea, h_prime=hb, f=f_field, V=v_field,
                       u=u, h=h, f_norm=f_norm, v_norm=v_norm,
                       residual=resid, contraction=ratios)
