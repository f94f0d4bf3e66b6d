"""Tikhonov inversion of near- or far-field data for the refractive index.

The unknown is the truncated Fourier coefficient vector of the contrast
n - 1 (frequencies |gamma| <= gamma_max).  The data misfit uses the same
surface-measure norms as the data containers; the penalty is the H^m norm
of the contrast.  The functional is minimized by one damped Gauss-Newton
loop on the complex masked coefficients, with the complex Jacobian J of
the data.  That loop is the package's own :func:`minimize`, no scipy
optimizer; the benchmark's tracer wraps it by that name to read its
iteration count.  J comes from the adjoint method: the data are linear in
the measurement, so one adjoint Lippmann-Schwinger solve per receiver row
(x, c) pairs with the retained forward field of every source, with the
chain rule through both medium-dependent coefficients (the contrast
q = 1 - n and the logarithmic gradient p = grad(n)/n).  The misfit gradient
is J^H W r.  A forward state takes its misfit against the data in use at
call time, so a noise sweep hands each level's last state to the next
level, which starts there.  The loop stops at the constants ``FTOL`` and
``GTOL``.

Admissibility (Re n >= b, Im n >= 0, support in B(pi)) is not enforced
during optimization, only checked on the returned iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .forward import (
    DataColumns,
    FarFieldData,
    NearFieldData,
    ScatteringSolver,
    SolveError,
)
from .fourier import (
    UNITARY_FACTOR,
    CubeGrid,
    RefractiveIndex,
    fourier_coeffs,
    hm_norm,
    inverse_fourier,
)


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

    def admissible(self, b: float):
        """(Re n >= b, Im n >= 0) flags for the post-optimization check."""
        return (bool(np.min(self.values.real) >= b - ADMISSIBLE_TOL),
                bool(np.min(self.values.imag) >= -ADMISSIBLE_TOL))


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

    def __post_init__(self):
        data_type = {"near": NearFieldData, "far": FarFieldData}.get(self.kind)
        if data_type is None:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not isinstance(self.data, data_type):
            raise ValueError(f"kind {self.kind!r} needs {data_type.__name__}, "
                             f"not {type(self.data).__name__}")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.gamma_max > self.grid.n // 2:
            raise ValueError("gamma_max beyond the grid's Nyquist frequency")

    def coeff_mask(self) -> np.ndarray:
        return self.grid.gamma_norm2() <= self.gamma_max**2


def band_limited_index(grid: CubeGrid, gamma_max: float, amplitude: float,
                       seed: int) -> ContrastMedium:
    """Random real band-limited contrast, exactly representable by the
    truncated coefficient vector.

    Rate studies need a truth without a truncation floor: compactly
    supported mollifier media put nearly all of their H^m norm outside
    any desk-scale coefficient ball.  Scaled so max |n - 1| = amplitude."""
    rng = np.random.default_rng(seed)
    g2 = grid.gamma_norm2()
    mask = g2 <= gamma_max**2
    spec = np.zeros((grid.n,) * 3, dtype=complex)
    spec[mask] = (rng.standard_normal(int(mask.sum()))
                  + 1j * rng.standard_normal(int(mask.sum())))
    spec[mask] /= (1.0 + g2[mask]) ** 2
    field = inverse_fourier(spec, grid).real  # real part -> Hermitian coeffs
    field *= amplitude / np.max(np.abs(field))
    coeffs = fourier_coeffs(field.astype(complex), grid)
    coeffs[~mask] = 0.0
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
    """Solver, retained total fields for every measurement source and their
    model data for one medium; the data Jacobian is built on first use and
    kept.  The misfit is taken against the data passed in, so one state
    serves every problem on its geometry, grid and coefficient mask, as the
    noise levels of a sweep are."""

    def __init__(self, problem: InverseProblem, medium):
        self.problem = problem
        self.solver = ScatteringSolver(medium, problem.kappa)
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
            [self._measure_rows(f) for f in self.fields])
        self._jac = None

    def _measure_rows(self, e):
        """Linear measurement of one field: (n_rec, 3) rows."""
        return self.map.apply(*self.solver.densities(e))

    def measurement_weights(self):
        return self.problem.data.weights()

    def misfit(self, data):
        """Weighted misfit sum w |F - d|^2 against ``data`` and the weighted
        residual W r, shaped like the data matrices."""
        w = data.weights()[..., None, None]
        diff = self.matrices - data.matrices
        return float(np.sum(w * np.abs(diff) ** 2)), w * diff

    def jacobian(self):
        """Complex Jacobian of the data matrices in the masked coefficients:
        (n_data, n_c), rows in the order of ``matrices.ravel()``.

        The rows are linear in the measurement, so one adjoint solve per
        receiver row (x, c), with the source-free right-hand side
        ``measurement_adjoint(e_(x,c))``, pairs with every source field to
        give that row's derivatives; the data columns then mix the sources
        by their polarizations.  Each adjoint pair is paired as soon as it
        is solved, so one is alive at a time.  The solver, its receiver map
        and the fields are dropped once J is built: the misfit needs only
        the model data.

        A perturbation may reach any node of the grid, so the pairings need
        fields on all of them: for a solver on a smaller box the adjoint
        potential raises ValueError."""
        if self._jac is None:
            n_rec = self.matrices.shape[0]
            transpose = _CoeffTranspose(self.problem.grid,
                                        self.problem.coeff_mask())
            rows = np.empty((len(self.fields), n_rec, 3, len(transpose.ik[0])),
                            dtype=complex)
            for x, c in np.ndindex(n_rec, 3):
                rows[:, x, c] = self._pairings(*self._row_adjoint(x, c),
                                               transpose)
            self._jac = self.columns.assemble(rows).reshape(
                -1, rows.shape[-1])
            self.solver = self.map = self.fields = None
        return self._jac

    def _row_adjoint(self, x, c):
        """Conjugated adjoint pair (psi, chi) of receiver row (x, c): the
        fields paired with (q E, p.E) by the measurement and the adjoint
        solve, whose failure carries (x, c) as context."""
        s = self.solver
        unit = np.zeros(self.matrices.shape[:1] + (3,))
        unit[x, c] = 1.0
        mu, nu = self.measurement_adjoint(unit)
        rho = np.conj(s.q)[..., None] * mu + np.conj(s.p) * nu[..., None]
        _, (vec, sca) = self.adjoint_solve(rho, context=(x, c))
        return np.conj(mu + vec), np.conj(nu + sca)

    def _pairings(self, psi_c, chi_c, transpose):
        """Masked coefficient derivatives (n_src, n_c) of one receiver row
        from its conjugated adjoint pair: every source field u against it,
        with the chain rule through q = 1 - n and p = grad(n)/n."""
        s = self.solver
        chi_n = chi_c / s.n.values  # paired with u in dp
        w = psi_c + s.p * chi_n[..., None]  # paired with u in dq and dp
        out = np.empty((len(self.fields), len(transpose.ik[0])), dtype=complex)
        t = np.empty((4,) + chi_n.shape, dtype=complex)
        for k, u in enumerate(self.fields):
            t[0] = -np.einsum("...c,...c->...", u, w)
            t[1:] = np.moveaxis(u, -1, 0) * chi_n
            L = transpose(t)
            out[k] = L[0] + sum(ik * l for ik, l in zip(transpose.ik, L[1:]))
        return out

    def measurement_adjoint(self, rows):
        """Adjoint of the measurement map: residual rows -> (mu, nu) fields.

        mu is the vector field paired with q*E, nu the scalar field paired
        with p.E, both embedded on the solver's box (ball nodes only)."""
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


class _CoeffTranspose:
    """Transpose of the inverse Fourier map onto the masked coefficients.

    Maps grid fields T (leading axes a batch) to L (..., n_c) with
    sum_x IF(A)(x) T(x) = sum_k A_k L_k for every A supported on ``mask``,
    by three 1-D partial DFTs over the frequencies -r..r the mask reaches.
    ``ik`` holds i times the physical frequency along each axis at the
    masked coefficients: the symbols of the spectral derivatives."""

    def __init__(self, grid: CubeGrid, mask):
        gam = [g[mask].astype(np.intp) for g in grid.gammas()]
        r = int(max(np.max(np.abs(g)) for g in gam))
        self.index = [g + r for g in gam]
        self.dft = np.exp(2j * np.pi / grid.n * np.arange(grid.n)[:, None]
                          * np.arange(-r, r + 1))
        scale = grid.spacing**3 / UNITARY_FACTOR
        self.factor = (-1.0) ** sum(gam) / (scale * grid.n**3)
        self.ik = [1j * f[mask] for f in grid.frequencies()]

    def __call__(self, t_field):
        x = t_field @ self.dft  # (..., a, b, g3)
        x = np.swapaxes(x, -1, -2) @ self.dft  # (..., a, g3, g2)
        x = np.swapaxes(x, -3, -1) @ self.dft  # (..., g2, g3, g1)
        i1, i2, i3 = self.index
        return self.factor * x[..., i2, i3, i1]


def misfit_gradient(state: _ForwardState, data=None):
    """Value and complex coefficient gradient J^H W r of the weighted misfit
    against ``data``, by default the data of the state's own problem; the
    gradient is full-lattice and zero off ``coeff_mask()``."""
    value, res = state.misfit(state.problem.data if data is None else data)
    grad = np.zeros((state.problem.grid.n,) * 3, dtype=complex)
    grad[state.problem.coeff_mask()] = state.jacobian().conj().T @ res.ravel()
    return value, grad


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


# relative decrease, predicted by the Gauss-Newton model, that counts as
# converged; f is only as accurate as the forward solves (GMRES_RTOL 1e-8)
FTOL = 1e-10
GTOL = 1e-6  # largest entry of the real gradient that counts as converged
ADMISSIBLE_TOL = 1e-8  # rounding allowed by the admissibility flags


@dataclass
class GaussNewtonResult:
    """What :func:`minimize` returns: the last accepted iterate ``x``, its
    functional ``fun`` and point record ``point``, the counts of accepted
    steps, functional evaluations and ``jac`` calls, and why it stopped."""

    x: np.ndarray
    fun: float
    point: object
    nit: int
    nfev: int
    njev: int
    success: bool
    message: str


def minimize(fun, x0, jac, callback, maxiter, gtol, damping):
    """Damped Gauss-Newton loop on complex unknowns c.

    ``fun(c)`` returns the real functional f and a point record;
    ``jac(c, point)`` returns g = df/d(conj c) and the Hermitian model
    Hessian a, so f(c + s) ~ f + 2 Re(g^H s) + s^H a s: in (Re c, Im c) the
    gradient is 2 (Re g, Im g) and the Hessian the real block form of 2a.
    A step solves (a + (mu/2) diag(damping)) s = -g and is accepted if f
    does not increase; mu starts at 0, rises tenfold (to 1 from 0) on
    rejection and falls tenfold on acceptance.  Stops when
    2 max(|Re g|, |Im g|) <= ``gtol`` or the predicted decrease is at most
    ``FTOL * max(|f|, 1)`` (converged), or after ``maxiter`` accepted steps.
    ``jac`` runs once per accepted iterate, right after it is accepted; a
    rejected trial's record is dropped before the next trial is built.
    ``callback(f)`` sees the start and each accepted iterate; the result's
    ``point`` is the last accepted record."""
    c = np.asarray(x0, dtype=complex)
    f, point = fun(c)
    callback(f)
    d = 0.5 * np.diag(damping)
    nfev, njev, nit, mu = 1, 0, 0, 0.0
    success, message = False, "maximum number of iterations reached"
    while nit < maxiter:
        g, a = jac(c, point)
        njev += 1
        if 2.0 * np.max(np.abs([g.real, g.imag])) <= gtol:
            success, message = True, "gradient below gtol"
            break
        while True:
            step = scipy.linalg.solve(a + mu * d, -g, assume_a="pos")
            predicted = -2.0 * np.vdot(g, step).real \
                - np.vdot(step, a @ step).real
            if predicted <= FTOL * max(abs(f), 1.0):
                success, message = True, "predicted decrease below FTOL"
                break
            f_new, trial = fun(c + step)
            nfev += 1
            if f_new <= f:
                break
            trial = None
            mu = 10.0 * mu if mu else 1.0
        if success:
            break
        c, f, point = c + step, f_new, trial
        nit += 1
        mu /= 10.0
        callback(f)
    return GaussNewtonResult(x=c, fun=f, point=point, nit=nit, nfev=nfev,
                             njev=njev, success=success, message=message)


def tikhonov_reconstruct(problem: InverseProblem, alpha: float,
                         init_coeffs=None,
                         maxiter: int = 60) -> ReconstructionResult:
    """Minimize (1/alpha) * misfit^2 + (1/2) * ||n - 1||_{H^m}^2.

    Damped Gauss-Newton (:func:`minimize`) on the complex masked
    coefficients c: gradient g = J^H W r / alpha + (1/2) w c, model Hessian
    a = J^H W J / alpha + (1/2) diag(w) with the complex data Jacobian J and
    the H^m weights w, damping (mu/2) diag(w).  The data are holomorphic in
    c, so this is Gauss-Newton in (Re c, Im c) at half the size.  The loop
    starts at ``init_coeffs`` (full-lattice; default the vacuum, c = 0).  A
    trial iterate costs one forward solve per source; an accepted one a
    Jacobian, i.e. one adjoint solve per receiver row (3 n_rec near, 3 n_x
    far).  One iterate's fields are alive at a time.  ``history`` holds the
    functional at accepted iterates, which never increases.  The loop is
    the package's own; the benchmark's tracer wraps it as ``minimize``.

    A :class:`SolveError` is re-raised naming the Gauss-Newton iteration
    (the number of steps accepted before it) and keeps the failed solve's
    ``context``."""
    return _reconstruct(problem, alpha, init_coeffs, None, maxiter)[0]


def _reconstruct(problem, alpha, init_coeffs, start, maxiter):
    """:func:`tikhonov_reconstruct` and the state of its result, starting
    from ``start``, if given: a :class:`_ForwardState` at ``init_coeffs``
    on the same geometry, grid and mask, used as the first iterate's."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    mask = problem.coeff_mask()
    weights = (1.0 + problem.grid.gamma_norm2()[mask]) ** problem.m
    starts = [] if start is None else [start]

    def embed(c):
        full = np.zeros((problem.grid.n,) * 3, dtype=complex)
        full[mask] = c
        return full

    def evaluate(c):
        state = starts.pop() if starts else _ForwardState(
            problem, ContrastMedium(grid=problem.grid, coeffs=embed(c)))
        mis, _ = state.misfit(problem.data)
        pen = 0.5 * float(np.sum(weights * np.abs(c) ** 2))
        return mis / alpha + pen, {"mis": mis, "pen": pen, "state": state}

    def derivatives(c, point):
        state = point["state"]  # keeps only J and model data once J is built
        _, grad = misfit_gradient(state, problem.data)
        jac = state.jacobian()
        w = np.repeat(state.measurement_weights().ravel(), 9)  # 3x3 entries
        return (grad[mask] / alpha + 0.5 * weights * c,
                (jac.conj().T * w) @ jac / alpha + 0.5 * np.diag(weights))

    c0 = np.zeros(int(np.sum(mask)), dtype=complex) if init_coeffs is None \
        else np.asarray(init_coeffs, dtype=complex)[mask]
    history = []
    try:
        # looked up by name at call time: the benchmark's tracer replaces
        # ``minimize`` in this module to read the iteration count off .nit
        out = minimize(evaluate, c0, jac=derivatives, callback=history.append,
                       maxiter=maxiter, gtol=GTOL, damping=weights)
    except SolveError as err:
        raise SolveError(
            f"Gauss-Newton iteration {max(len(history) - 1, 0)}: {err}",
            residuals=err.residuals, context=err.context) from err
    full = embed(out.x)
    med = ContrastMedium(grid=problem.grid, coeffs=full)
    ok_re, ok_im = med.admissible(problem.b)
    return ReconstructionResult(
        coeffs=full, medium=med, functional=out.fun,
        misfit=np.sqrt(out.point["mis"]), penalty=out.point["pen"],
        converged=bool(out.success), iterations=int(out.nit),
        admissible_re=ok_re, admissible_im=ok_im,
        history=history), out.point["state"]


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


def check_levels(deltas, seeds) -> np.ndarray:
    """Mask of the rate fit's deltas (>= 1e-10); ValueError unless the
    deltas of a rate study are positive, strictly decreasing, one per seed
    and at least two in the fit."""
    deltas = np.asarray(deltas, dtype=float)
    if np.any(deltas <= 0) or np.any(np.diff(deltas) >= 0):
        raise ValueError("deltas must be positive and strictly decreasing")
    if len(seeds) != len(deltas):
        raise ValueError(f"{len(deltas)} deltas but {len(seeds)} seeds")
    # near-exact anchor levels report the discretization floor and stay
    # out of the rate fit, which needs two levels
    fit = deltas >= 1e-10
    if fit.sum() < 2:
        raise ValueError("the rate fit needs at least two deltas >= 1e-10, "
                         f"got {int(fit.sum())}")
    return fit


def rate_study(n_true: RefractiveIndex, problem: InverseProblem,
               deltas, seeds, A: float, nu: float,
               maxiter: int = 60) -> RateStudy:
    """Noise sweep with the a-priori alpha rule and warm starts.

    ``problem.data`` must hold exact data for ``n_true``; each delta, with
    its own entry of ``seeds``, gets its own noise realization,
    regularization parameter, and reconstruction.  Each level starts at the
    previous level's result and takes over its forward state (fields or
    Jacobian, and model data), so the start costs no solve.  The levels
    obey :func:`check_levels`; the rate fit takes the deltas >= 1e-10."""
    deltas, seeds = list(deltas), list(seeds)
    fit = check_levels(deltas, seeds)
    clean = problem.data
    init = state = None
    alphas, errors, misfits, iters = [], [], [], []
    for delta, seed in zip(deltas, seeds):
        noisy = add_noise(clean, delta, seed)
        alpha = alpha_rule(delta, A, nu)
        sub = replace(problem, data=noisy, delta=delta)
        rec, state = _reconstruct(sub, alpha, init, state, maxiter)
        init = rec.coeffs
        err = hm_norm(rec.coeffs - n_true.coeffs, problem.m, problem.grid)
        alphas.append(alpha)
        errors.append(float(err))
        misfits.append(rec.misfit)
        iters.append(rec.iterations)
    floor = float(min(e for e, keep in zip(errors, fit) if not keep)) \
        if not fit.all() else None
    x = np.log(np.log(3.0 + np.asarray(deltas, dtype=float)[fit] ** -2))
    y = np.log(np.asarray(errors)[fit])
    nu_hat = float(-np.polyfit(x, y, 1)[0])
    viol = sum(1 for (a, b, keep) in zip(errors, errors[1:], fit[1:])
               if keep and b > a * 1.1)
    return RateStudy(deltas=deltas, alphas=alphas, errors=errors,
                     misfits=misfits, iterations=iters, nu_hat=nu_hat,
                     nu_theory=nu, monotonicity_violations=viol, floor=floor)
