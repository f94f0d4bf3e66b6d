"""Verification lab for the stability inequalities.

Numerically exercises the chain behind the variational source condition
(VSC): the data pairing bound, the per-frequency Fourier-difference bound
built from CGO pairs, the low/high-frequency splitting of the H^m inner
product, the parameter schedule tying the noise level to (t, rho), and the
VSC inequality itself.  The multiplicative constants are existence
results; the lab FITS them over medium families and reports violations of
the fitted bound (a valid fit has none by construction, so the meaningful
outputs are finiteness and stability of the fit).

Exponentially large factors (e^{3Rt}) are carried in the log domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .cgo import ball_box, cgo_solve, cgo_vectors, conjugated_u
from .fourier import (
    UNITARY_FACTOR,
    RefractiveIndex,
    SobolevParams,
    hm_inner,
    hm_norm,
)
from .spherical import psi_near

if TYPE_CHECKING:  # annotations only: the CGO path never loads the solver
    from .forward import NearFieldData

IDENTITY_TOL = 1e-12  # relative slack of the schedule identities
TANGENTIAL_TOL = 1e-8  # relative normal part of a boundary_operator_N density
GROWTH_RHOS = (2.0, 4.0, 8.0, 16.0)  # lattice-ball radii of the growth fit


@dataclass(frozen=True)
class ScheduleParams:
    """Noise-driven parameter schedule 9Rt = ln(3+delta^-2) = rho^(1+tau+s-m)."""

    delta: float
    R: float
    m: float
    s: float
    tau: float
    t: float
    rho: float
    t0: float | None = None

    @property
    def reaches_t0(self) -> bool:
        """Whether the schedule's t clears the CGO contraction threshold."""
        if self.t0 is None:
            raise ValueError("no t0 recorded")
        return self.t >= self.t0

    def check_identities(self):
        """Raise ValueError naming the schedule identity that fails."""
        lhs = np.log(3.0 + self.delta**-2)
        tol = IDENTITY_TOL * max(1.0, lhs)
        if not abs(9.0 * self.R * self.t - lhs) <= tol:
            raise ValueError("schedule identity 9Rt = ln(3+delta^-2) fails")
        if not abs(self.rho ** (1.0 + self.tau + self.s - self.m) - lhs) \
                <= tol:
            raise ValueError("schedule identity "
                             "rho^(1+tau+s-m) = ln(3+delta^-2) fails")


def schedule(delta: float, R: float, m: float, s: float,
             t0: float | None = None) -> ScheduleParams:
    """Resolve (t, rho) from the noise level delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    params = SobolevParams(m=m, s=s)
    log_term = np.log(3.0 + delta**-2)
    t = log_term / (9.0 * R)
    rho = log_term ** (1.0 / (1.0 + params.tau + s - m))
    return ScheduleParams(delta=delta, R=R, m=m, s=s, tau=params.tau,
                          t=t, rho=rho, t0=t0)


def delta_max(R: float, t0: float) -> float:
    """Largest delta whose schedule reaches t >= t0: (exp(9 R t0) - 3)^(-1/2).

    Carried in the log domain; returns 0.0 when the exponential underflows
    the float range (the usual desk-scale situation)."""
    log_e = 9.0 * R * t0
    if log_e > 700.0:
        return 0.0
    return (np.exp(log_e) - 3.0) ** -0.5


def pairing_volume(n1: RefractiveIndex, n2: RefractiveIndex,
                   e1: np.ndarray, e2: np.ndarray) -> complex:
    """Bilinear pairing integral of (n1-n2) E1.E2 over B(pi).

    The dot product is unconjugated.  Fields are samples on the media's
    common grid, shape (N, N, N, 3)."""
    if n1.grid != n2.grid:
        raise ValueError("media live on different grids")
    shape = (n1.grid.n,) * 3 + (3,)
    if e1.shape != shape or e2.shape != shape:
        raise ValueError("field shape does not match the grid")
    dot = np.einsum("...j,...j->...", e1, e2)
    return complex(np.sum((n1.values - n2.values) * dot) * n1.grid.spacing**3)


def boundary_operator_N(w: NearFieldData, a: np.ndarray) -> np.ndarray:
    """Data-to-tangential-field operator (N a)(x) = 2 nu(x) x int w(x,y) a(y) dS.

    ``a`` holds a tangential density at the source nodes, shape (n_src, 3)."""
    src = w.sources
    rec = w.receivers
    nu_src = src.nodes  # unit outward normals on the sphere
    normal = np.max(np.abs(np.einsum("nj,nj->n", nu_src, a)))
    if normal > TANGENTIAL_TOL * max(1.0, float(np.max(np.abs(a)))):
        raise ValueError("density is not tangential")
    weights = src.weights * src.radius**2  # surface measure
    integral = np.einsum("xyij,yj,y->xi", w.matrices, a, weights,
                         optimize=True)
    return 2.0 * np.cross(rec.nodes, integral)


def data_diff_norm(w1: NearFieldData, w2: NearFieldData) -> float:
    """L2(R S^2 x R S^2) norm of the data difference (surface measure)."""
    return replace(w1, matrices=w1.matrices - w2.matrices).norm()


def check_difftodata(n1: RefractiveIndex, n2: RefractiveIndex,
                     e1: np.ndarray, e2: np.ndarray,
                     w1: NearFieldData, w2: NearFieldData,
                     field_norms: tuple[float, float]) -> tuple[float, float]:
    """One sample of the data pairing bound.

    Returns (LHS, ||w1-w2|| * ||E1|| * ||E2||); a harness fits the constant
    over a family.  ``field_norms`` are the L2(B(3R/2)) norms of the two
    admissible fields (computed by the caller on whatever grid holds them)."""
    lhs = abs(pairing_volume(n1, n2, e1, e2))
    return lhs, data_diff_norm(w1, w2) * field_norms[0] * field_norms[1]


def lowfreq_weighted_sum(n: RefractiveIndex, rho: float, m: float) -> float:
    """Weighted low-frequency coefficient sum over the lattice ball B(rho)."""
    g2 = n.grid.gamma_norm2()
    mask = g2 <= rho**2
    return float(np.sum((1.0 + g2[mask]) ** (m / 2.0)
                        * np.abs(n.coeffs[mask])))


def lowfreq_growth_exponent(n: RefractiveIndex, m: float) -> float:
    """Fitted exponent of the rho-growth of the weighted low-frequency sum."""
    sums = [lowfreq_weighted_sum(n, r, m) for r in GROWTH_RHOS]
    if min(sums) <= 0:
        return 0.0
    slope = np.polyfit(np.log(GROWTH_RHOS), np.log(sums), 1)[0]
    return float(slope)


def highfreq_tail(n: RefractiveIndex, rho: float, m: float,
                  s: float) -> tuple[float, float]:
    """Exact high-frequency tail and its rho^(2(m-s)) C_s^2 bound.

    The inequality is algebraically forced; callers may assert
    tail <= bound with roundoff-only slack."""
    if s <= m:
        raise ValueError("requires s > m")
    g2 = n.grid.gamma_norm2()
    mask = g2 > rho**2
    tail = float(np.sum((1.0 + g2[mask]) ** m * np.abs(n.coeffs[mask]) ** 2))
    bound = rho ** (2.0 * (m - s)) * hm_norm(n.coeffs, s, n.grid) ** 2
    return tail, bound


@dataclass
class FourierDiffSample:
    """Per-frequency sample of the Fourier-difference bound."""

    gamma: tuple
    lhs: float  # |F(n1-n2)(gamma)|
    log_data_term: float  # ln(||w1-w2|| e^{3Rt})
    log_smooth_term: float  # ln(||n1-n2||_{H^m} rho / t)
    log_rhs: float
    log_ratio: float  # ln(LHS / RHS); the fit constant is max over these
    cgo_rel_err: float | None = None  # product-expansion cross-check


@dataclass
class FourierDiffReport:
    t: float
    rho: float
    samples: list = field(default_factory=list)
    log_m3: float = -np.inf

    def violations(self) -> int:
        """Samples exceeding the fitted bound (0 by construction of the fit)."""
        return int(sum(s.log_ratio > self.log_m3 + 1e-12 for s in self.samples))


def _lattice_ball(rho: float):
    r = int(np.floor(rho))
    g = np.indices((2 * r + 1,) * 3).reshape(3, -1).T - r  # g1 slowest
    n2 = np.sum(g * g, axis=1)
    return [tuple(v) for v in g[(n2 >= 1) & (n2 <= rho**2)].tolist()]


def _coeff_at(n1: RefractiveIndex, n2: RefractiveIndex, gamma) -> complex:
    idx = tuple(int(g) % n1.grid.n for g in gamma)
    return complex(n1.coeffs[idx] - n2.coeffs[idx])


def cgo_pair_estimate(n1: RefractiveIndex, n2: RefractiveIndex, gamma,
                      t: float, kappa: float, R: float,
                      m_grid: int = 32) -> tuple[complex, complex]:
    """Estimate F(n1-n2)(gamma) through the CGO product expansion.

    Solves the CGO pair and forms the pairing of (n1-n2) with E1.E2 on the
    large cube.  Returns ``(corrected, leading)``: the corrected value
    subtracts the remainder terms of the product expansion and should
    match the spectral coefficient to quadrature accuracy; the leading
    value keeps only the constant term, so its error measures the actual
    size of the CGO remainders (O(1/t)).

    n1 - n2 vanishes exactly off the ``ball_box`` of the CGO cube,
    which covers B(pi) (``MediumFields`` refuses a medium whose contrast
    does not), so the pairing sums over that box only, and only the box
    of the first solution (f, V and n, 19^3 of 48^3 nodes at
    m_grid = 48) is held while the second solves."""
    gamma = np.asarray(gamma, dtype=float)
    g = np.linalg.norm(gamma)
    v = cgo_vectors(gamma, t, kappa)
    rot = v.rotation

    def solve(n, zeta, eta):
        # what the pairing reads of a CGO solution, on the box: its h is
        # never read, and u is formed from f and V when the pairing runs
        s = cgo_solve(n, zeta, eta, R, m_grid=m_grid, kappa=kappa,
                      rotation=rot)
        box = ball_box(s.grid)
        return (s.grid, box, s.f[box].copy(), s.V[box].copy(),
                s.n_values[box].copy(), s.zeta, s.eta)

    # the pairing runs on the CGO cube, in the rotated frame
    grid, box, f1, V1, nv1, zeta1, eta1 = solve(n1, v.zeta1, v.eta1)
    *_, f2, V2, nv2, zeta2, eta2 = solve(n2, v.zeta2, v.eta2)
    dn = nv1 - nv2
    phase = np.exp(-1j * grid.points()[box] @ (rot @ gamma))
    weight = dn * phase * grid.spacing**3

    def pair(scalar_field):
        return np.sum(weight * scalar_field)

    dot = np.einsum("...j,...j->...", conjugated_u(f1, V1, zeta1, eta1),
                    conjugated_u(f2, V2, zeta2, eta2))
    total = pair(dot)
    corr = pair(-g * (f1 + f2)
                + V2 @ eta1 + V1 @ eta2
                + f1 * f2 * (g**2 / 2.0 - kappa**2)
                + f1 * (V2 @ zeta1) + f2 * (V1 @ zeta2)
                + np.einsum("...j,...j->...", V1, V2))
    lead = UNITARY_FACTOR * (1.0 + g**2 / (4.0 * t**2))
    return complex((total - corr) / lead), complex(total / lead)


def check_fourier_diff(n1: RefractiveIndex, n2: RefractiveIndex,
                       w1: NearFieldData, w2: NearFieldData,
                       t: float, rho: float, m: float, R: float,
                       kappa: float, cgo_gammas=(), m_grid: int = 32,
                       ) -> FourierDiffReport:
    """Per-frequency Fourier-difference bound over |gamma| <= rho.

    The data term ||w1-w2|| e^{3Rt} lives in the log domain.  For the
    frequencies listed in ``cgo_gammas`` the coefficient is additionally
    recomputed through the CGO product expansion as a cross-check."""
    if rho < 1:
        raise ValueError("rho must be at least 1")
    if rho > 2.0 * np.sqrt(kappa**2 + t**2):
        raise ValueError("rho exceeds the reachable frequency range")
    log_data = np.log(max(data_diff_norm(w1, w2), 1e-300)) + 3.0 * R * t
    diff_hm = hm_norm(n1.coeffs - n2.coeffs, m, n1.grid)
    log_smooth = np.log(max(diff_hm * rho / t, 1e-300))
    log_rhs = np.logaddexp(log_data, log_smooth)
    cgo_set = {tuple(int(x) for x in g) for g in cgo_gammas}
    report = FourierDiffReport(t=t, rho=rho)
    for gamma in _lattice_ball(rho):
        lhs = abs(_coeff_at(n1, n2, gamma))
        rel = None
        if gamma in cgo_set:
            est, _ = cgo_pair_estimate(n1, n2, gamma, t, kappa, R,
                                       m_grid=m_grid)
            ref = _coeff_at(n1, n2, gamma)
            scale = max(abs(ref), 1e-12)
            rel = abs(est - ref) / scale
        log_ratio = np.log(max(lhs, 1e-300)) - log_rhs
        report.samples.append(FourierDiffSample(
            gamma=gamma, lhs=lhs, log_data_term=log_data,
            log_smooth_term=log_smooth, log_rhs=log_rhs,
            log_ratio=float(log_ratio), cgo_rel_err=rel))
    report.log_m3 = float(max(s.log_ratio for s in report.samples))
    return report


@dataclass
class VscSample:
    member: int
    lhs: float  # Re <n_dagger, n_dagger - n>_{H^m}
    quad_term: float  # (1-beta)/2 ||n - n_dagger||^2
    misfit_sq: float  # ||F(n) - F(n_dagger)||^2
    cauchy_schwarz_branch: bool
    margin: float = np.nan


@dataclass
class VscReport:
    beta: float
    nu: float
    A: float
    samples: list = field(default_factory=list)

    def violations(self) -> int:
        return int(sum(s.margin < -1e-12 for s in self.samples))


def vsc_check(n_dagger: RefractiveIndex, family, misfits, m: float,
              nu: float, beta: float = 0.5) -> VscReport:
    """Fit the VSC constant A over a medium family and verify zero violations.

    ``family`` are media around ``n_dagger``; ``misfits`` the matching data
    discrepancies ||F(n) - F(n_dagger)||.  Members beyond the 4 C_s
    distance are handled by the Cauchy-Schwarz branch, which needs no A."""
    if not family:
        raise ValueError("empty family")
    if len(misfits) != len(family):
        raise ValueError("one misfit per family member required")
    cs = hm_norm(n_dagger.coeffs, m, n_dagger.grid)
    samples = []
    needed = []
    for i, (n, delta) in enumerate(zip(family, misfits)):
        diff = n_dagger.coeffs - n.coeffs
        lhs = float(np.real(hm_inner(n_dagger.coeffs, diff, m,
                                     n_dagger.grid)))
        dist = hm_norm(diff, m, n_dagger.grid)
        quad = 0.5 * (1.0 - beta) * dist**2
        far_branch = dist > 4.0 * cs
        samples.append(VscSample(member=i, lhs=lhs, quad_term=quad,
                                 misfit_sq=float(delta) ** 2,
                                 cauchy_schwarz_branch=far_branch))
        if not far_branch:
            needed.append(samples[-1])
    A = 0.0
    for s in needed:
        gap = s.lhs - s.quad_term
        if gap > 0 and s.misfit_sq > 0:
            A = max(A, gap * np.log(3.0 + 1.0 / s.misfit_sq) ** (2.0 * nu))
    for s in samples:
        if s.cauchy_schwarz_branch:
            # Cauchy-Schwarz: lhs <= cs * dist <= dist^2 / 4 = quad alone
            s.margin = s.quad_term - s.lhs
        else:
            s.margin = s.quad_term + psi_near(s.misfit_sq, A, nu) - s.lhs
    return VscReport(beta=beta, nu=nu, A=A, samples=samples)
