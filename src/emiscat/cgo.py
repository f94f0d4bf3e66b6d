"""Complex geometrical optics (CGO) machinery.

Builds Maxwell solutions of the form E = e^{i zeta.x}(eta + f zeta + V) with
zeta.zeta = kappa^2 and |Im zeta| = t large.  The construction works in
conjugated variables throughout: a periodic Faddeev-type operator G_zeta
inverts the conjugated Laplacian on a half-integer-shifted frequency
lattice, the 6x6 potential matrix Q couples the fields, and a Neumann
iteration solves the fixed-point system (contraction factor <= 1/2 once
t exceeds the explicit threshold t_min).  The sweeps run in the unshifted
frame Z = demod X, where demod = e^{-i pi x_3/(4R)} moves the shifted
lattice onto the FFT's own and G_zeta is two in-place transforms around
its symbol.  One CGO pairing peaks at about 32 cube volumes (see
``cgo_solve``).

G_zeta is diagonal only for Im(zeta) along e_z.  Every other direction is
reached by a rotation rot, for a CGO pair ``CgoVectors.rotation``:
``cgo_solve`` takes zeta and eta in the medium's frame and solves with
rot @ zeta and rot @ eta, sampling the medium in the rotated frame,
n(rot^T x), directly at the CGO-cube points through the closed form of
its bump profile.

The factor e^{i zeta.x} itself is never evaluated: at the relevant t it
overflows by thousands of orders of magnitude.  All stored fields are the
bounded conjugated parts.

Layout: inside this module every vector field is stored component first,
(3, m, m, m), so that each component is contiguous and one in-place
transform over the last three axes (``fourier.fftn``, one numpy pass per
axis) covers all of them.  ``CgoSolution`` hands its fields back as
(m, m, m, 3), the layout of the rest of the package.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .fourier import CubeGrid, RefractiveIndex, fftn, ifftn

AXES = (-3, -2, -1)  # the cube's axes; any leading axis indexes components
NEUMANN_TOL, NEUMANN_SWEEPS = 1e-11, 80  # relative step to stop; sweep limit


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

    @property
    def rotation(self) -> np.ndarray:
        """Rotation of the CGO frame, rows (a2, ghat, a1): maps a1 to e_z,
        ghat to e_y and a2 to e_x, with determinant +1 since
        a2 = ghat x a1."""
        return np.stack([self.a2, self.gamma / np.linalg.norm(self.gamma),
                         self.a1])


def cgo_vectors(gamma, t: float, kappa: float) -> CgoVectors:
    """Construct the CGO vector pair of the Fourier-difference bound."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (3,):
        raise ValueError("gamma needs three components")
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


def _column(v):
    """A constant 3-vector as a component-first field, shape (3, 1, 1, 1)."""
    return np.reshape(v, (3, 1, 1, 1))


def _cross(a, b):
    """Cross product over axis 0 of component-first fields."""
    c0 = a[1] * b[2] - a[2] * b[1]
    out = np.empty((3,) + c0.shape, dtype=c0.dtype)
    out[0] = c0
    out[1] = a[2] * b[0] - a[0] * b[2]
    out[2] = a[0] * b[1] - a[1] * b[0]
    return out


def ball_box(grid: CubeGrid):
    """The grid-aligned box of nodes with every coordinate inside
    (-pi, pi), as a tuple of slices: it covers B(pi), where the contrast
    lives.  At m_grid = 48 on R = 1.2 pi it holds 19^3 of the 48^3
    nodes."""
    inside = np.flatnonzero(np.abs(grid.axis()) < np.pi)
    return (slice(inside[0], inside[-1] + 1),) * 3


class MediumFields:
    """A refractive index sampled on the large CGO cube.

    ``rotation`` rot (orthogonal; the identity when None) maps the
    medium's frame to the CGO frame, so the cube holds n'(x) = n(rot^T x),
    evaluated from the medium's bump profile; a sampled medium without one
    is refused.
    ``values`` is n', one cube volume, which ``cgo_solve`` holds from start
    to end; n'^{1/2} and n'^{-1/2} are formed where they are read.
    The sampled contrast must vanish exactly off the cube's ``ball_box``,
    or ``ValueError`` is raised, so that a pairing of two media need only
    sum over the box.  ``RefractiveIndex`` checks the support on its own
    grid only, to 1e-10, and a bump can reach past B(pi) between those
    nodes.
    """

    def __init__(self, n: RefractiveIndex, R: float, m_grid: int,
                 rotation=None):
        if R <= np.pi:
            raise ValueError("require R > pi")
        profile = getattr(n, "profile", None)  # iterates carry none
        if profile is None:
            raise ValueError("CGO solutions need a bump-profile medium")
        self.grid = CubeGrid(2.0 * R, m_grid)
        points = self.grid.points()
        if rotation is not None:
            rot = np.asarray(rotation, dtype=float)
            if np.max(np.abs(rot @ rot.T - np.eye(3))) > 1e-10:
                raise ValueError("rotation must be orthogonal")
            points = points @ rot  # rows rot^T x
        vals = 1.0 + profile.contrast(points)
        if np.min(vals.real) < n.b - 1e-8:
            raise ValueError("resampled Re(n) dips below b")
        if np.count_nonzero(vals[ball_box(self.grid)] != 1.0) \
                != np.count_nonzero(vals != 1.0):
            raise ValueError("the resampled contrast is nonzero outside "
                             "B(pi)")
        self.values = vals


# the 6 stored components of a symmetric 3x3 field: the diagonal (i, i) at
# i, then for each cyclic (i, j, k) the entry (j, k) at 3 + i
SYM_INDEX = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])


def _derivatives(med: MediumFields):
    """The spectral derivative fields of n that Q and the right-hand side
    are built from: grad(n), shape (3, m, m, m), Delta n^{1/2}, and the
    symmetric part of the Jacobian of p = grad(n)/n,
    sym[i, j] = IFFT(i (xi_j p^_i + xi_i p^_j) / 2), as its 6 components
    (``SYM_INDEX``), shape (6, m, m, m).

    The spectral Jacobian d_j p_i is not symmetric; its continuum limit,
    the Hessian of log n, is.  Keeping the symmetric part takes 6 inverse
    transforms and 6 volumes instead of 9."""
    vals = med.values
    freqs = np.stack(med.grid.frequencies())
    ifreqs = 1j * freqs
    grad = ifftn(ifreqs * fftn(vals - 1.0, AXES), AXES)
    phat = fftn(grad / vals, AXES)
    sym = np.empty((6,) + vals.shape, dtype=complex)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(ifreqs[i], phat[i], out=sym[i])
        np.multiply(freqs[k], phat[j], out=sym[3 + i])
        sym[3 + i] += freqs[j] * phat[k]
        sym[3 + i] *= 0.5j
    del phat
    ifftn(sym, AXES)
    f1, f2, f3 = freqs
    lap_sqrt = ifftn(-(f1**2 + f2**2 + f3**2)
                     * fftn(np.sqrt(vals) - 1.0, AXES), AXES)
    return grad, lap_sqrt, sym


class Potential:
    """The 6x6 potential matrix Q of a :class:`MediumFields`, built from
    the derivative fields of ``_derivatives``, of which it keeps only the
    symmetric Jacobian, folded into ``top``.

    Q has ``k2q`` = kappa^2 (1 - n) on the diagonal, the top block
    ``top`` = M = (k2q + n^{-1/2} Delta n^{1/2}) I - sym, stored as its 6
    components (``SYM_INDEX``, in the buffer of ``sym``), and the
    cross-product coupling w = i kappa n^{-1/2} grad(n).  These are 10 cube
    volumes, which ``cgo_solve`` holds through its sweeps and frees when
    the last one returns.
    """

    def __init__(self, med: MediumFields, kappa: float, grad, lap_sqrt,
                 sym):
        inv_sqrt_n = 1.0 / np.sqrt(med.values)
        self.k2q = kappa**2 * (1.0 - med.values)
        self.top = np.negative(sym, out=sym)
        self.top[:3] += self.k2q + inv_sqrt_n * lap_sqrt
        self.w = 1j * kappa * inv_sqrt_n * grad

    def apply(self, A, B):
        """Action of Q on a field pair (A, B) of component-first fields
        (3, m, m, m), or broadcastable to them: 9 products for the top
        block and 12 for the coupling."""
        top = np.empty((3,) + self.k2q.shape, dtype=complex)
        bot = self.k2q * B
        tmp = np.empty(self.k2q.shape, dtype=complex)
        mat, w = self.top, self.w
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            # top_i = M_ii A_i + M_ij A_j + M_ik A_k - (w x B)_i
            np.multiply(mat[i], A[i], out=top[i])
            top[i] += np.multiply(mat[3 + k], A[j], out=tmp)
            top[i] += np.multiply(mat[3 + j], A[k], out=tmp)
            top[i] -= np.multiply(w[j], B[k], out=tmp)
            top[i] += np.multiply(w[k], B[j], out=tmp)
            # bot_i += (w x A)_i
            bot[i] += np.multiply(w[j], A[k], out=tmp)
            bot[i] -= np.multiply(w[k], A[j], out=tmp)
        return top, bot


class FaddeevOperator:
    """Periodic Faddeev-type inverse G_zeta on the cube of half-side 2R.

    Diagonal on the lattice shifted by one half along e_z, the axis that
    Im(zeta) must lie on; the shift keeps every denominator away from zero
    by pi*t/(2R).
    """

    def __init__(self, zeta, grid: CubeGrid):
        zeta = np.asarray(zeta, dtype=complex)
        im = zeta.imag
        t = np.linalg.norm(im)
        if t <= 0:
            raise ValueError("Im(zeta) must be nonzero")
        if abs(abs(im[2]) - t) > 1e-9 * t:
            raise CgoError("Im(zeta) is not aligned with e_z")
        self.zeta = zeta
        self.t = t
        self.grid = grid
        rpp = grid.half_side  # R'' = 2R
        base = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
        scale = np.pi / rpp
        # shifted lattice frequencies, broadcast along axes 0, 1 and 2
        x1, x2, x3 = self._xi = (scale * base[:, None, None],
                                 scale * base[:, None],
                                 scale * (base + 0.5))
        xi2 = x1**2 + x2**2 + x3**2
        denom = xi2 + 2.0 * (zeta[0] * x1 + zeta[1] * x2 + zeta[2] * x3)
        floor = np.pi * t / rpp
        dmin = float(np.min(np.abs(denom)))
        if dmin < floor * (1.0 - 1e-9):
            raise CgoError(f"denominator {dmin:.3e} under floor {floor:.3e}")
        self.denominator_min = dmin
        self.symbol = 1.0 / denom
        # shape (N,): broadcasts along the last, shifted axis only
        self._demod = np.exp(-1j * (np.pi / (2.0 * rpp)) * grid.axis())
        self._remod = np.conj(self._demod)

    def _forward(self, f):
        return fftn(self._demod * f, AXES)

    def _inverse(self, g):
        """Transform back, overwriting ``g``."""
        out = ifftn(g, AXES)
        out *= self._remod
        return out

    def __call__(self, f):
        """Apply G_zeta to a scalar field (m, m, m), or to every component
        of a field (..., m, m, m) in one batched transform."""
        g = self.unshifted(self._demod * f)
        g *= self._remod
        return g

    def unshifted(self, g):
        """G_zeta in the unshifted frame, demod G_zeta remod =
        IFFT(symbol FFT(g)), in place on ``g``; returns ``g``.

        For a field Z = demod X this is demod G_zeta X without a phase
        pass, and a pointwise Q commutes with demod."""
        fftn(g, AXES)
        g *= self.symbol
        return ifftn(g, AXES)

    def shifted_curl(self, v):
        """Spectral curl of a shifted-band field v (3, m, m, m)."""
        return self._inverse(_cross([1j * xi for xi in self._xi],
                                    self._forward(v)))


def cgo_rhs(med: MediumFields, grad, lap_sqrt, q: Potential,
            op: FaddeevOperator, zeta, eta, kappa):
    """Right-hand side (F1, F2) of the conjugated fixed-point system, as
    component-first fields in the unshifted frame, demod (F1, F2), from
    the derivative fields grad(n) and Delta n^{1/2} and the potential Q
    they built."""
    zeta = np.asarray(zeta, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    sqrt_n = np.sqrt(med.values)
    zdg = np.tensordot(zeta, grad, axes=1)  # zeta . grad(n)
    scalar = -1j * (1.0 / sqrt_n) * zdg - lap_sqrt
    qa, qb = q.apply(sqrt_n * _column(eta),
                     _column(np.cross(zeta, eta) / kappa))
    del sqrt_n, zdg
    qa += scalar * _column(eta)
    del scalar
    for qx in (qa, qb):
        qx *= op._demod
        np.negative(op.unshifted(qx), out=qx)
    return qa, qb


@dataclass
class CgoSolution:
    """Conjugated CGO fields on the cube of half-side 2R.

    The physical fields are E = e^{i zeta.x} u and H = e^{i zeta.x} h with
    u = eta + f*zeta + V; only the bounded parts are stored, vector fields
    as (m, m, m, 3).  ``zeta``, ``eta``, the fields and ``n_values``, the
    refractive index sampled on the cube, are in the CGO (rotated) frame;
    ``iterations`` counts the Neumann sweeps and ``step`` is the last
    sweep's relative step, the one that ``NEUMANN_TOL`` bounds.  ``u`` is
    not stored: it is formed from ``f`` and ``V`` on each read.
    """

    grid: CubeGrid
    R: float
    kappa: float
    zeta: np.ndarray
    eta: np.ndarray
    t: float
    f: np.ndarray
    V: np.ndarray
    h: np.ndarray
    f_norm: float
    v_norm: float
    residual: float
    n_values: np.ndarray
    iterations: int
    step: float
    contraction: list = field(default_factory=list)

    @property
    def u(self) -> np.ndarray:
        """u = eta + f*zeta + V, shape (m, m, m, 3)."""
        return conjugated_u(self.f, self.V, self.zeta, self.eta)

    def remainder_norm(self) -> float:
        """||f|| + ||V|| over the evaluation ball B(3R/2)."""
        return self.f_norm + self.v_norm


def _remainder(f, v, zeta):
    """The remainder f zeta + V of u = eta + f zeta + V, for a
    component-first V."""
    out = f * _column(zeta)
    out += v
    return out


def conjugated_u(f, V, zeta, eta) -> np.ndarray:
    """u = eta + (f zeta + V) from f (m, m, m) and V (m, m, m, 3), as
    (m, m, m, 3).  It is formed component first, as ``cgo_solve`` forms
    it, so it equals the solve's u bit for bit.
    """
    remainder = _remainder(f, np.moveaxis(V, -1, 0), zeta)
    return np.moveaxis(_column(eta) + remainder, 0, -1)


def _ball_l2(values, ball, spacing: float) -> float:
    """L2 norm over the ``ball`` nodes of a scalar or component-first field."""
    return float(np.sqrt(np.sum(np.abs(values[..., ball]) ** 2) * spacing**3))


def _pair_norm(a, b) -> float:
    """Euclidean norm of the field pair (a, b)."""
    return np.sqrt(np.vdot(a, a).real + np.vdot(b, b).real)


def _system(med: MediumFields, op: FaddeevOperator, zeta, eta, kappa):
    """The potential Q, the right-hand side demod (F1, F2) and the scalar
    i n^{-1/2} eta.grad(n) that the extraction reads.  grad(n) and
    Delta n^{1/2}, which only these read, are locals here and are freed
    on return."""
    grad, lap_sqrt, sym = _derivatives(med)
    q = Potential(med, kappa, grad, lap_sqrt, sym)
    f1, f2 = cgo_rhs(med, grad, lap_sqrt, q, op, zeta, eta, kappa)
    inv_sqrt_n = 1.0 / np.sqrt(med.values)
    return q, f1, f2, 1j * inv_sqrt_n * np.tensordot(eta, grad, axes=1)


def _sweep(q: Potential, op: FaddeevOperator, z, z_f):
    """One Neumann sweep in the unshifted frame, Z <- Z_F - demod G_zeta Q
    remod Z for Z = demod (A, B), done in place on Q's product.

    Since Q acts pointwise, this is demod times the sweep
    (A, B) <- (F1, F2) - G_zeta Q (A, B), without its phase passes."""
    new = q.apply(*z)
    for c, rhs in zip(new, z_f):
        np.subtract(rhs, op.unshifted(c), out=c)
    return new


def _neumann(med: MediumFields, op: FaddeevOperator, zeta, eta, kappa):
    """Build the system (``_system``) and run the Neumann sweeps
    (``_sweep``) from (F1, F2), in the unshifted frame; |demod| = 1, so
    the steps and their norms are those of the shifted frame.

    The potential and (F1, F2) are locals here and are freed on return.
    Returns the eta.grad scalar, the last iterate (A, B), remodulated in
    place, the contraction ratios, one per sweep after the first, and the
    final relative step, which ``NEUMANN_TOL`` bounds.
    """
    q, *z_f, eta_grad = _system(med, op, zeta, eta, kappa)
    z = z_f
    prev_delta = None
    ratios = []
    for _ in range(NEUMANN_SWEEPS):
        new = _sweep(q, op, z, z_f)
        scale = _pair_norm(*new)
        # the step goes into the previous iterate's buffers, except on the
        # first sweep, whose previous iterate is (F1, F2) itself
        first = z is z_f
        delta = _pair_norm(*(np.subtract(a, b, out=None if first else b)
                             for a, b in zip(new, z)))
        z = new
        if prev_delta is not None and prev_delta > 0:
            ratios.append(delta / prev_delta)
            if len(ratios) >= 3 and min(ratios[-3:]) > 1.0:
                raise CgoError("Neumann iteration diverging",
                               contraction=ratios)
        prev_delta = delta
        if delta <= NEUMANN_TOL * max(scale, 1e-300):
            for c in z:
                c *= op._remod
            return eta_grad, *z, ratios, delta / max(scale, 1e-300)
    raise CgoError("Neumann iteration did not converge "
                   f"(last ratio {ratios[-1] if ratios else np.nan:.3f})",
                   contraction=ratios)


def cgo_solve(n: RefractiveIndex, zeta, eta, R: float, kappa: float,
              m_grid: int, rotation=None) -> CgoSolution:
    """Solve the conjugated CGO system and assemble the remainder parts.

    ``zeta`` and ``eta`` are given in the medium's frame and must satisfy
    zeta.zeta = kappa^2 and zeta.eta = 0.  The ``rotation`` rot (for a CGO
    pair ``CgoVectors.rotation``; the identity when None) must bring
    Im(zeta) onto e_z: the solve uses rot @ zeta and rot @ eta and samples
    the medium in the rotated frame, so the medium, not the operator, is
    rotated.

    The iteration fails fast: :class:`CgoError` is raised, carrying the
    contraction ratios, as soon as three consecutive ratios exceed 1
    ("diverging"), or after ``NEUMANN_SWEEPS`` sweeps ("did not
    converge").

    Memory, in cube volumes of m^3 complex numbers: the medium n (1) and
    the operator's symbol (1) are held for the whole solve, the potential
    (10), the right-hand side (6) and the eta.grad scalar (1) until the
    last sweep returns, and grad(n) and Delta n^{1/2} (4) only until the
    right-hand side is formed.  A sweep adds the iterate (6), Q's product
    (6), which it transforms in place, and one scratch volume, and one
    solve peaks there, at about 32.  The extraction starts from the last
    iterate (6) and the eta.grad scalar (1), and the solution keeps f, V,
    h and n_values (8).  ``vsc.cgo_pair_estimate`` holds f, V and n of its
    first solution only on the ``ball_box`` while the second solves,
    0.3 volumes at m_grid = 48, so a pairing peaks at about 32 as well.
    """
    zeta = np.asarray(zeta, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    if rotation is not None:
        rot = np.asarray(rotation, dtype=float)
        zeta, eta = rot @ zeta, rot @ eta
    zn = np.linalg.norm(zeta)  # rounding scales with |zeta| ~ t
    if abs(zeta @ zeta - kappa**2) > 1e-8 * max(1.0, kappa**2, zn**2):
        raise CgoError("zeta.zeta != kappa^2")
    if abs(zeta @ eta) > 1e-8 * zn * np.linalg.norm(eta):
        raise CgoError("zeta.eta != 0")
    med = MediumFields(n, R, m_grid, rotation)
    op = FaddeevOperator(zeta, med.grid)
    eta_grad, ea, hb, ratios, step = _neumann(med, op, zeta, eta, kappa)
    # extraction per the remainder splitting
    zeta_c = _column(zeta)
    g0 = op(eta_grad)
    del eta_grad
    inv_sqrt_n = 1.0 / np.sqrt(med.values)
    f_field = inv_sqrt_n * g0
    # V is formed in the last iterate's top buffer, which nothing reads
    # after it
    v_field = np.subtract(ea, g0 * zeta_c, out=ea)
    np.multiply(inv_sqrt_n, v_field, out=v_field)
    del g0, inv_sqrt_n
    # the constant parts of u and h are curl-free and handled analytically
    mod_u = _remainder(f_field, v_field, zeta)
    u = _column(eta) + mod_u
    h = _column(np.cross(zeta, eta) / kappa) + hb
    ball = med.grid.radii() < 1.5 * R
    spacing = med.grid.spacing
    f_norm = _ball_l2(f_field, ball, spacing)
    v_norm = _ball_l2(v_field, ball, spacing)
    # Maxwell residual in conjugated variables on B(3R/2):
    # r1 = curl u + i (zeta x u - kappa h),
    # r2 = curl h + i (zeta x h + kappa n u)
    r = _cross(zeta_c, u)
    r -= kappa * h
    r *= 1j
    r += op.shifted_curl(mod_u)
    r1_norm = _ball_l2(r, ball, spacing)
    r = _cross(zeta_c, h)
    r += kappa * med.values * u
    r *= 1j
    r += op.shifted_curl(hb)
    resid = ((r1_norm + _ball_l2(r, ball, spacing))
             / (kappa * (_ball_l2(u, ball, spacing)
                         + _ball_l2(h, ball, spacing))))
    return CgoSolution(grid=med.grid, R=R, kappa=kappa, zeta=zeta, eta=eta,
                       t=op.t, f=f_field, V=np.moveaxis(v_field, 0, -1),
                       h=np.moveaxis(h, 0, -1), f_norm=f_norm,
                       v_norm=v_norm, residual=resid, n_values=med.values,
                       iterations=len(ratios) + 1, step=step,
                       contraction=ratios)
