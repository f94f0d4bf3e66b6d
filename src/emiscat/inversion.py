"""Tikhonov inversion of near- or far-field data for the refractive index.

The unknown is the truncated Fourier coefficient vector of the contrast
n - 1 (frequencies |gamma| <= gamma_max).  The data misfit uses the same
surface-measure norms as the data containers; the penalty is the H^m norm
of the contrast.  Gradients are computed by the adjoint method: one
forward and one adjoint Lippmann-Schwinger solve per measurement source,
with the chain rule through both medium-dependent coefficients (the
contrast q = 1 - n and the logarithmic gradient p = grad(n)/n).

Admissibility (Re n >= b, Im n >= 0, support in B(pi)) is not enforced
during optimization, only checked on the returned iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft
from scipy.optimize import minimize

from .forward import DataColumns, ScatteringSolver
from .fourier import CubeGrid, RefractiveIndex, hm_norm, inverse_fourier


@dataclass
class ContrastMedium:
    """Unvalidated medium 1 + contrast used for optimization iterates.

    Quacks like :class:`RefractiveIndex` for the solver (grid, values,
    coeffs) but skips the admissibility checks, which iterates may violate
    transiently."""

    grid: CubeGrid
    coeffs: np.ndarray  # full-lattice coefficients of n - 1
    values: np.ndarray = None

    def __post_init__(self):
        if self.values is None:
            self.values = 1.0 + inverse_fourier(self.coeffs, self.grid)

    def admissible(self, b: float, tol: float = 1e-8):
        """(Re n >= b, Im n >= 0) flags for the post-optimization check."""
        return (bool(np.min(self.values.real) >= b - tol),
                bool(np.min(self.values.imag) >= -tol))


@dataclass
class InverseProblem:
    """One inversion instance: operator kind, geometry, data, and knobs."""

    kind: str  # "near" | "far"
    kappa: float
    grid: CubeGrid
    data: object  # NearFieldData | FarFieldData
    delta: float
    m: float
    gamma_max: float
    b: float = 0.5
    rtol: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("near", "far"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.gamma_max > self.grid.n // 2:
            raise ValueError("gamma_max beyond the grid's Nyquist frequency")

    def coeff_mask(self) -> np.ndarray:
        return self.grid.gamma_norm2() <= self.gamma_max**2


def band_limited_index(grid: CubeGrid, gamma_max: float, amplitude: float,
                       seed: int, imag_shift: float = 0.0) -> ContrastMedium:
    """Random real band-limited contrast, exactly representable by the
    truncated coefficient vector.

    Rate studies need a truth without a truncation floor: compactly
    supported mollifier media put nearly all of their H^m norm outside
    any desk-scale coefficient ball.  Scaled so max |n - 1| = amplitude;
    ``imag_shift`` adds a constant nonnegative imaginary part."""
    rng = np.random.default_rng(seed)
    g2 = grid.gamma_norm2()
    mask = g2 <= gamma_max**2
    spec = np.zeros((grid.n,) * 3, dtype=complex)
    spec[mask] = (rng.standard_normal(int(mask.sum()))
                  + 1j * rng.standard_normal(int(mask.sum())))
    spec[mask] /= (1.0 + g2[mask]) ** 2
    field = inverse_fourier(spec, grid).real  # real part -> Hermitian coeffs
    field *= amplitude / np.max(np.abs(field))
    from .fourier import fourier_coeffs
    coeffs = fourier_coeffs(field.astype(complex), grid)
    coeffs[~mask] = 0.0
    if imag_shift:
        if imag_shift < 0:
            raise ValueError("imag_shift must be nonnegative")
        coeffs[0, 0, 0] += 1j * imag_shift * (2.0 * np.pi) ** 1.5
    return ContrastMedium(grid=grid, coeffs=coeffs)


def add_noise(data, delta: float, seed: int):
    """Perturb data with complex white noise of data-space norm exactly delta."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0:
        return data
    rng = np.random.default_rng(seed)
    shape = data.matrices.shape
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    probe = replace(data, matrices=noise)
    return replace(data, matrices=data.matrices + noise * (delta / probe.norm()))


def alpha_rule(delta: float, A: float, nu: float) -> float:
    """A-priori regularization parameter from the logarithmic index function.

    alpha = (2 A psi'(4 delta^2))^(-1) with psi(t) = (ln(3+1/t))^(-2 nu)."""
    if delta <= 0 or A <= 0 or not 0 < nu < 1:
        raise ValueError("require delta > 0, A > 0, nu in (0,1)")
    t = 4.0 * delta**2
    deriv = 2.0 * nu * np.log(3.0 + 1.0 / t) ** (-2.0 * nu - 1.0) \
        / ((3.0 + 1.0 / t) * t**2)
    return 1.0 / (2.0 * A * deriv)


class _ForwardState:
    """Solver plus retained total fields for every measurement source."""

    def __init__(self, problem: InverseProblem, medium):
        self.problem = problem
        self.solver = ScatteringSolver(medium, problem.kappa,
                                       rtol=problem.rtol)
        data = problem.data
        if problem.kind == "near":
            self.columns = DataColumns.dipoles(data.sources, problem.kappa)
            points = data.receivers.points()
        else:
            self.columns = DataColumns.plane_waves(data.incidences,
                                                   problem.kappa)
            points = data.receivers.nodes
        self.map = self.solver.receiver_map(problem.kind, points)
        self.fields = [self.solver.solve(s, context=lab) for s, lab in
                       zip(self.columns.sources, self.columns.labels)]
        self.matrices = self.columns.assemble(
            [self._measure_rows(f.values) for f in self.fields])

    def _measure_rows(self, e_values):
        """Linear measurement of one field: (n_rec, 3) rows."""
        return self.map.apply(*self.solver.densities(e_values))

    def measurement_weights(self):
        d = self.problem.data
        if self.problem.kind == "near":
            return (d.receivers.weights[:, None] * d.sources.weights[None, :]
                    * d.receivers.radius**2 * d.sources.radius**2)
        return d.receivers.weights[:, None] * d.incidences.weights[None, :]

    def measurement_adjoint(self, rows):
        """Adjoint of the measurement map: residual rows -> (mu, nu) fields.

        mu is the vector field paired with q*E, nu the scalar field paired
        with p.E, both embedded on the full grid (ball nodes only)."""
        ball = self.solver.ball
        mu = np.zeros(ball.shape + (3,), dtype=complex)
        nu = np.zeros(ball.shape, dtype=complex)
        mu[ball], nu[ball] = self.map.adjoint(rows)
        return mu, nu

    def adjoint_solve(self, rho, context=None):
        """Solve (I - P)^H lambda = rho with the adjoint potential.

        Returns lambda and its ``potential_adjoint`` (vec, sca), kept from
        the solve's last matvec, which is at lambda."""
        s = self.solver
        last = None

        def matvec(flat):
            nonlocal last
            lam = flat.reshape(rho.shape)
            last = None  # hold no copy while the potential runs
            last = vec, sca = s.potential_adjoint(lam)
            return (lam - np.conj(s.q)[..., None] * vec
                    - np.conj(s.p) * sca[..., None]).ravel()

        lam = s._krylov(matvec, rho.ravel(), context=context)
        return lam.reshape(rho.shape), last


def _coeff_transpose(grid: CubeGrid, t_field):
    """Map a grid field T to L with sum_x IF(A)(x) T(x) = sum_k A_k L_k."""
    g1, g2, g3 = grid.gammas()
    phase = (-1.0) ** (g1 + g2 + g3)
    scale = grid.spacing**3 / (2.0 * np.pi) ** 1.5
    return phase / (scale * grid.n**3) * np.conj(scipy.fft.fftn(np.conj(t_field)))


def misfit_gradient(state: _ForwardState):
    """Value and complex coefficient gradient of the weighted data misfit."""
    prob = state.problem
    w = state.measurement_weights()
    diff = state.matrices - prob.data.matrices
    value = float(np.sum(w[..., None, None] * np.abs(diff) ** 2))
    res = w[..., None, None] * diff
    s = state.solver
    a_q = np.zeros((prob.grid.n,) * 3, dtype=complex)
    a_p = np.zeros((prob.grid.n,) * 3 + (3,), dtype=complex)
    for fld, rows, label in zip(state.fields, state.columns.split(res),
                                state.columns.labels):
        mu, nu = state.measurement_adjoint(rows)
        rho = np.conj(s.q)[..., None] * mu + np.conj(s.p) * nu[..., None]
        _, (vec, sca) = state.adjoint_solve(rho, context=label)
        psi = mu + vec
        chi = nu + sca
        u = fld.values
        a_q += np.einsum("...c,...c->...", u, np.conj(psi))
        a_p += u * np.conj(chi)[..., None]
    nvals = state.solver.n.values
    p_field = -a_q - np.einsum("...c,...c->...", s.p, a_p) / nvals
    q_c = a_p / nvals[..., None]
    L = _coeff_transpose(prob.grid, p_field)
    g1, g2, g3 = prob.grid.frequencies()
    for c, g in enumerate((g1, g2, g3)):
        L += 1j * g * _coeff_transpose(prob.grid, q_c[..., c])
    return value, np.conj(L)


def frechet_apply(problem: InverseProblem, medium, h_coeffs) -> np.ndarray:
    """Directional derivative F'(n)[h] of the data map, as data matrices.

    ``h_coeffs`` are full-lattice coefficients of the contrast direction."""
    state = _ForwardState(problem, medium)
    s = state.solver
    grid = problem.grid
    v = inverse_fourier(h_coeffs, grid)
    f1, f2, f3 = grid.frequencies()
    w = np.stack([inverse_fourier(1j * f * h_coeffs, grid)
                  for f in (f1, f2, f3)], axis=-1)
    nvals = s.n.values
    dq = -v
    dp = (w - s.p * v[..., None]) / nvals[..., None]
    d_rows = []
    for fld, label in zip(state.fields, state.columns.labels):
        u = fld.values
        du = s._krylov(s._matvec, s.potential(u, dq, dp).ravel(),
                       context=label).reshape(u.shape)
        # measurement perturbation: medium term plus field term
        d_rows.append(state.map.apply(*s.densities(u, dq, dp))
                      + state._measure_rows(du))
    return state.columns.assemble(d_rows)


@dataclass
class ReconstructionResult:
    coeffs: np.ndarray  # full-lattice contrast coefficients
    medium: ContrastMedium
    functional: float
    misfit: float
    penalty: float
    converged: bool
    iterations: int
    admissible_re: bool
    admissible_im: bool
    history: list = field(default_factory=list)  # functional at accepted iterates
    monotone: bool = True


def tikhonov_reconstruct(problem: InverseProblem, alpha: float,
                         init_coeffs=None, maxiter: int = 60,
                         gtol: float = 1e-6) -> ReconstructionResult:
    """Minimize (1/alpha) * misfit^2 + (1/2) * ||n - 1||_{H^m}^2.

    Works on the truncated coefficient vector (complex entries as real
    pairs) with an L-BFGS quasi-Newton iteration and adjoint gradients."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    grid = problem.grid
    mask = problem.coeff_mask()
    n_c = int(np.sum(mask))
    weights = (1.0 + grid.gamma_norm2()[mask]) ** problem.m

    def unpack(z):
        c = z[:n_c] + 1j * z[n_c:]
        full = np.zeros((grid.n,) * 3, dtype=complex)
        full[mask] = c
        return c, full

    evals = {}  # iterate bytes -> (functional, gradient, misfit^2, penalty)

    def evaluate(z):
        key = z.tobytes()
        if key not in evals:
            c, full = unpack(z)
            state = _ForwardState(problem,
                                  ContrastMedium(grid=grid, coeffs=full))
            mis, grad_c = misfit_gradient(state)
            pen = 0.5 * float(np.sum(weights * np.abs(c) ** 2))
            g = grad_c[mask] / alpha + 0.5 * weights * c
            evals[key] = (mis / alpha + pen,
                          np.concatenate([2.0 * g.real, 2.0 * g.imag]), mis,
                          pen)
        return evals[key]

    if init_coeffs is None:
        z0 = np.zeros(2 * n_c)
    else:
        c0 = np.asarray(init_coeffs)[mask]
        z0 = np.concatenate([c0.real, c0.imag])
    history = [evaluate(z0)[0]]
    out = minimize(lambda z: evaluate(z)[:2], z0, jac=True,
                   method="L-BFGS-B",
                   callback=lambda zk: history.append(evaluate(zk)[0]),
                   options={"maxiter": maxiter, "gtol": gtol,
                            "ftol": 1e-14})
    _, full = unpack(out.x)
    med = ContrastMedium(grid=grid, coeffs=full)
    val, _, mis, pen = evaluate(out.x)
    ok_re, ok_im = med.admissible(problem.b)
    monotone = all(b <= a * (1.0 + 1e-12) + 1e-14
                   for a, b in zip(history, history[1:]))
    return ReconstructionResult(
        coeffs=full, medium=med, functional=val,
        misfit=np.sqrt(mis), penalty=pen, converged=bool(out.success),
        iterations=int(out.nit), admissible_re=ok_re, admissible_im=ok_im,
        history=history, monotone=monotone)


@dataclass
class RateStudy:
    deltas: list
    alphas: list
    errors: list  # H^m reconstruction errors
    misfits: list
    iterations: list
    nu_hat: float
    nu_theory: float
    monotonicity_violations: int
    floor: float | None = None  # error at near-exact anchor levels, if any


def rate_study(n_true: RefractiveIndex, problem: InverseProblem,
               deltas, seeds, A: float, nu: float,
               maxiter: int = 60) -> RateStudy:
    """Noise sweep with the a-priori alpha rule and warm starts.

    ``problem.data`` must hold exact data for ``n_true``; each delta gets
    its own noise realization, regularization parameter, and
    reconstruction, warm-started from the previous level's result."""
    deltas = list(deltas)
    if not all(b < a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta list must be strictly decreasing")
    clean = problem.data
    init = None
    alphas, errors, misfits, iters = [], [], [], []
    for delta, seed in zip(deltas, seeds):
        noisy = add_noise(clean, delta, seed)
        alpha = alpha_rule(delta, A, nu)
        sub = InverseProblem(kind=problem.kind, kappa=problem.kappa,
                             grid=problem.grid, data=noisy, delta=delta,
                             m=problem.m, gamma_max=problem.gamma_max,
                             b=problem.b, rtol=problem.rtol)
        rec = tikhonov_reconstruct(sub, alpha, init_coeffs=init,
                                   maxiter=maxiter)
        init = rec.coeffs
        err = hm_norm(rec.coeffs - n_true.coeffs, problem.m, problem.grid)
        alphas.append(alpha)
        errors.append(float(err))
        misfits.append(rec.misfit)
        iters.append(rec.iterations)
    # near-exact anchor levels report the discretization floor and stay
    # out of the rate fit
    darr = np.asarray(deltas, dtype=float)
    fit = darr >= 1e-10
    floor = float(min(e for e, keep in zip(errors, fit) if not keep)) \
        if not fit.all() else None
    x = np.log(np.log(3.0 + darr[fit] ** -2))
    y = np.log(np.asarray(errors)[fit])
    nu_hat = float(-np.polyfit(x, y, 1)[0])
    viol = sum(1 for (a, b, keep) in zip(errors, errors[1:], fit[1:])
               if keep and b > a * 1.1)
    return RateStudy(deltas=deltas, alphas=alphas, errors=errors,
                     misfits=misfits, iterations=iters, nu_hat=nu_hat,
                     nu_theory=nu, monotonicity_violations=viol, floor=floor)
