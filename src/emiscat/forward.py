"""Forward electromagnetic scattering by the volume integral equation.

The total field solves

    E = E_inc - kappa^2 * conv(Phi, (1-n) E) + grad conv(Phi, (1/n) grad(n).E)

with Phi the outgoing Helmholtz kernel.  The convolutions are discretized
by periodizing the kernel, truncated at radius 2*pi, on the enclosing cube
of half-side 2*pi; the truncated kernel's Fourier symbol is known in closed
form, so one application costs a few FFTs on the (2N)^3 padded grid,
pruned to skip all-zero lines.  Truncation at 2*pi is exact for source and
observation points in B(pi).

Near- and far-field data operators assemble the 3x3 matrix responses to
dipole and plane-wave excitations on measurement spheres.  Both, and the
inversion, measure fields through one :class:`ReceiverMap` and lay out data
columns through one :class:`DataColumns`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.sparse.linalg import LinearOperator, gmres

from .fourier import CubeGrid, RefractiveIndex, inverse_fourier


class SolveError(RuntimeError):
    """Krylov iteration failed to reach the requested residual.

    ``residuals`` is the residual history; ``context`` is the (column, slot)
    label of the failed solve's source in a data set, if it has one."""

    def __init__(self, message, residuals=None, context=None):
        super().__init__(message)
        self.residuals = residuals if residuals is not None else []
        self.context = context


def helmholtz_kernel(x, kappa):
    """Outgoing fundamental solution exp(i*kappa*|x|)/(4*pi*|x|)."""
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(x * x, axis=-1)) if x.shape[-1] == 3 else np.abs(x)
    if np.any(r == 0):
        raise ValueError("Helmholtz kernel evaluated at the origin")
    return np.exp(1j * kappa * r) / (4.0 * np.pi * r)


def background_green(x, y, kappa):
    """Free-space electric Green's tensor w1(x, y).

    ``w1(x, y) a`` is the dipole field -(1/(i*kappa)) curl curl (a * Phi),
    in closed form (i/kappa) * (kappa^2 Phi I + Hess Phi).
    """
    z = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.linalg.norm(z, axis=-1)
    if np.any(r == 0):
        raise ValueError("coincident source and evaluation points")
    rhat = z / r[..., None]
    phi = np.exp(1j * kappa * r) / (4.0 * np.pi * r)
    dp = (1j * kappa - 1.0 / r) * phi
    ddp = ((1j * kappa - 1.0 / r) ** 2 + 1.0 / r**2) * phi
    eye = np.eye(3)
    outer = rhat[..., :, None] * rhat[..., None, :]
    hess = (ddp - dp / r)[..., None, None] * outer + (dp / r)[..., None, None] * eye
    return (1j / kappa) * (kappa**2 * phi[..., None, None] * eye + hess)


def grad_kernel(x, y, kappa):
    """Gradient in x of Phi(x - y)."""
    z = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.linalg.norm(z, axis=-1)
    phi = np.exp(1j * kappa * r) / (4.0 * np.pi * r)
    return ((1j * kappa - 1.0 / r) * phi)[..., None] * (z / r[..., None])


class DipoleSource:
    """Electric dipole with moment ``a`` at ``y``; fields solve the
    background Maxwell system away from the source point."""

    def __init__(self, y, a, kappa):
        self.y = np.asarray(y, dtype=float)
        self.a = np.asarray(a, dtype=complex)
        self.kappa = float(kappa)

    def electric(self, points):
        return background_green(points, self.y, self.kappa) @ self.a

    def magnetic(self, points):
        # H = curl(a Phi) = grad(Phi) x a
        g = grad_kernel(points, self.y, self.kappa)
        return np.cross(g, self.a)


class PlaneWave:
    """Plane wave in direction ``d`` with polarization ``p`` (projected
    transverse to ``d``)."""

    def __init__(self, d, p, kappa):
        d = np.asarray(d, dtype=float)
        if abs(np.linalg.norm(d) - 1.0) > 1e-10:
            raise ValueError("direction must be a unit vector")
        self.d = d
        p = np.asarray(p, dtype=complex)
        self.q = np.cross(d, np.cross(p, d))  # d x (p x d)
        self.kappa = float(kappa)

    def electric(self, points):
        phase = np.exp(1j * self.kappa * np.asarray(points) @ self.d)
        return phase[..., None] * self.q

    def magnetic(self, points):
        phase = np.exp(1j * self.kappa * np.asarray(points) @ self.d)
        return phase[..., None] * np.cross(self.d, self.q)


def truncated_kernel_symbol(xi_norm, kappa, radius):
    """Fourier transform of Phi restricted to |x| <= radius, at |xi|.

    Closed form -(g(kappa+xi) - g(kappa-xi)) / (2 xi) with
    g(u) = (exp(i*u*radius) - 1)/u; removable singularities handled by
    series.
    """
    xi = np.asarray(xi_norm, dtype=float)

    def g(u):
        u = np.asarray(u, dtype=float)
        out = np.empty(u.shape, dtype=complex)
        small = np.abs(u) < 1e-6
        us = u[~small]
        # stable e^{iur}-1 via real/imag parts
        out[~small] = (-2.0 * np.sin(0.5 * us * radius) ** 2
                       + 1j * np.sin(us * radius)) / us
        ut = u[small]
        out[small] = (1j * radius - 0.5 * radius**2 * ut
                      - 1j * radius**3 * ut**2 / 6.0)
        return out

    out = np.empty(xi.shape, dtype=complex)
    zero = xi < 1e-9
    xs = xi[~zero]
    out[~zero] = -(g(kappa + xs) - g(kappa - xs)) / (2.0 * xs)
    if np.any(zero):
        # limit -g'(kappa), g'(u) = (i*rho*u*exp(i*u*rho) - (exp(i*u*rho)-1))/u^2
        if abs(kappa) > 1e-4:
            eikr = np.exp(1j * kappa * radius)
            gp = (1j * radius * kappa * eikr - (eikr - 1.0)) / kappa**2
        else:
            gp = (-0.5 * radius**2 - 1j * radius**3 * kappa / 3.0
                  + radius**4 * kappa**2 / 8.0)
        out[zero] = -gp
    return out


@dataclass
class VectorFieldGrid:
    """Complex 3-vector samples on a cube grid."""

    grid: CubeGrid
    values: np.ndarray  # (N, N, N, 3)

    def __post_init__(self):
        if self.values.shape != (self.grid.n,) * 3 + (3,):
            raise ValueError("field shape does not match grid")

    def l2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.spacing**3))


class ScatteringSolver:
    """Matrix-free Lippmann-Schwinger solver for one medium at one kappa."""

    def __init__(self, n: RefractiveIndex, kappa: float, rtol: float = 1e-8,
                 restart: int = 50, maxiter: int = 2000):
        self.n = n
        self.kappa = float(kappa)
        self.rtol = rtol
        self.restart = restart
        self.maxiter = maxiter
        grid = n.grid
        if abs(grid.half_side - np.pi) > 1e-12:
            raise ValueError("medium must live on C(pi)")
        N = grid.n
        self.N = N
        self.M = 2 * N
        self.pts = grid.points()
        # contrast and spectral derivative of n (exact for the interpolant)
        self.q = 1.0 - n.values
        f1, f2, f3 = grid.frequencies()
        grad = np.empty((N, N, N, 3), dtype=complex)
        for c, f in enumerate((f1, f2, f3)):
            grad[..., c] = inverse_fourier(1j * f * n.coeffs, grid)
        self.p = grad / n.values[..., None]
        # quadrature nodes of the data maps: the contrast lives in B(pi), and
        # derivative pairings need every node a perturbation may reach
        self.ball = grid.radii() < np.pi
        self._map = None  # (geometry key, ReceiverMap) of the last call
        # symbol of the truncated kernel on the padded lattice; i*k along
        # axis c as a broadcast 1-D vector; the grid's block along axis c
        k = np.fft.fftfreq(self.M, d=1.0 / self.M) * (np.pi / (2 * np.pi))
        xi = np.sqrt(k[:, None, None]**2 + k[None, :, None]**2
                     + k[None, None, :]**2)
        self.symbol = truncated_kernel_symbol(xi, self.kappa, 2.0 * np.pi)
        self.ik = [1j * k.reshape(np.roll((-1, 1, 1), c)) for c in range(3)]
        self._block = [(slice(None),) * c + (slice(N // 2, N // 2 + N),)
                       for c in range(3)]

    def _padded_fft(self, x):
        """FFT of x zero-padded to M^3, padding each axis only when it is
        transformed: (N,N,N) -> (M,N,N) -> (M,M,N) -> (M,M,M)."""
        for ax in range(3):
            pad = np.zeros(x.shape[:ax] + (self.M,) + x.shape[ax + 1:],
                           dtype=complex)
            pad[self._block[ax]] = x
            x = scipy.fft.fftn(pad, axes=(ax,), overwrite_x=True)
        return x

    def _cropped_ifft(self, spec):
        """Inverse FFT of spec (overwritten), cropped to N^3 axis by axis."""
        for ax in (2, 1, 0):
            spec = np.ascontiguousarray(scipy.fft.ifftn(
                spec, axes=(ax,), overwrite_x=True)[self._block[ax]])
        return spec

    def potential(self, e, q=None, p=None):
        """-kappa^2 conv(Phi, q E) + grad conv(Phi, p.E) on the grid.

        (q, p) default to the medium's; a medium perturbation passes its
        own."""
        if q is None:
            q, p = self.q, self.p
        ghat = self._padded_fft(np.einsum("...c,...c->...", p, e))
        out = np.empty_like(e)
        for c in range(3):
            spec = self._padded_fft(-self.kappa**2 * q * e[..., c])
            spec += ghat * self.ik[c]
            spec *= self.symbol
            out[..., c] = self._cropped_ifft(spec)
        return out

    def potential_adjoint(self, lam):
        """Adjoint of the potential's volume map (q E, p.E) -> field.

        Returns the vector field paired with q E and the scalar field paired
        with p.E, so that the adjoint potential is
        conj(q) * vec + conj(p) * sca.  FFT(lam_c) serves both terms."""
        csym = np.conj(self.symbol)
        acc = np.zeros_like(csym)
        vec = np.empty_like(lam)
        for c in range(3):
            lhat = self._padded_fft(lam[..., c])
            acc -= lhat * self.ik[c]  # conj(i k) = -i k
            lhat *= csym
            vec[..., c] = self._cropped_ifft(lhat)
        acc *= csym
        return -self.kappa**2 * vec, self._cropped_ifft(acc)

    def _matvec(self, flat):
        e = flat.reshape((self.N,) * 3 + (3,))
        return (e - self.potential(e)).ravel()

    def _krylov(self, matvec, b, x0=None, context=None):
        """GMRES for matvec(x) = b at the solver's tolerance and iteration
        limits; checks the true residual and raises :class:`SolveError`
        with the residual history and ``context`` on failure."""
        op = LinearOperator((b.size, b.size), matvec=matvec, dtype=complex)
        residuals = []
        x, info = gmres(op, b, x0=x0, rtol=self.rtol, atol=0.0,
                        restart=self.restart,
                        maxiter=self.maxiter // self.restart,
                        callback=residuals.append, callback_type="pr_norm")
        if info != 0:
            raise SolveError(f"GMRES did not converge (info={info})",
                             residuals=residuals, context=context)
        bnorm = np.linalg.norm(b)
        resid = np.linalg.norm(matvec(x) - b)
        if resid > 10 * self.rtol * bnorm:
            raise SolveError(f"residual {resid / bnorm:.2e} above tolerance",
                             residuals=residuals, context=context)
        return x

    def solve(self, source, x0=None, context=None) -> VectorFieldGrid:
        """Total electric field for the given incident-field source."""
        b = source.electric(self.pts).ravel()
        x = self._krylov(self._matvec, b,
                         x0.ravel() if x0 is not None else b.copy(), context)
        return VectorFieldGrid(self.n.grid, x.reshape((self.N,) * 3 + (3,)))

    def born_field(self, source) -> VectorFieldGrid:
        """First Born approximation E_inc + potential(E_inc)."""
        e_inc = source.electric(self.pts)
        return VectorFieldGrid(self.n.grid, e_inc + self.potential(e_inc))

    def densities(self, e, q=None, p=None):
        """Volume densities (q E, p.E) on the nodes of B(pi); (q, p) as in
        :meth:`potential`."""
        if q is None:
            q, p = self.q, self.p
        eb = e[self.ball]
        return q[self.ball][:, None] * eb, np.sum(p[self.ball] * eb, axis=-1)

    def receiver_map(self, kind: str, points) -> "ReceiverMap":
        """Near (receiver points) or far (unit directions) data map of this
        grid, rebuilt only when the geometry changes."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        key = (kind, points.tobytes())
        cached = self._map
        if cached is None or cached[0] != key:
            build = ReceiverMap.near if kind == "near" else ReceiverMap.far
            cached = self._map = (key, build(self.n.grid, self.kappa, points))
        return cached[1]

    def scattered_at(self, e_total: VectorFieldGrid, points) -> np.ndarray:
        """Scattered field at exterior points by direct quadrature.

        Valid for |x| > pi where the kernel is smooth across the support.
        """
        return self.receiver_map("near", points).apply(
            *self.densities(e_total.values))

    def far_pattern(self, e_total: VectorFieldGrid, xhats) -> np.ndarray:
        """Far-field amplitude E_inf(xhat) from the volume representation."""
        return self.receiver_map("far", xhats).apply(
            *self.densities(e_total.values))

    def residual(self, e_total: VectorFieldGrid, source) -> float:
        """Relative Lippmann-Schwinger residual inside B(pi)."""
        e_inc = source.electric(self.pts)
        r = e_total.values - self.potential(e_total.values) - e_inc
        return float(np.linalg.norm(r[self.ball])
                     / np.linalg.norm(e_inc[self.ball]))


@dataclass
class ReceiverMap:
    """Linear map from the densities (q E, p.E) on the nodes of B(pi) to
    (n_rec, 3) data rows, with its adjoint.

    rows = scale * (-kappa^2 K (q E) + G (p.E)).  For receiver points x,
    K = Phi(x - y), G its gradient in x and scale = h^3.  For far directions
    xhat, K = exp(-i kappa xhat.y), G = i kappa xhat K (applied, not stored)
    and scale = h^3 / (4 pi).
    """

    scale: float
    kappa: float
    kernel: np.ndarray  # (n_rec, n_ball)
    grad: np.ndarray | None = None  # (n_rec, n_ball, 3); near maps only
    dirs: np.ndarray | None = None  # (n_rec, 3); far maps only

    @classmethod
    def near(cls, grid: CubeGrid, kappa: float, points) -> "ReceiverMap":
        if np.any(np.linalg.norm(points, axis=-1) <= np.pi):
            raise ValueError("evaluation points must lie outside B(pi)")
        ys = grid.points()[grid.radii() < np.pi]
        x = points[:, None, :]
        return cls(grid.spacing**3, kappa, helmholtz_kernel(x - ys, kappa),
                   grad=grad_kernel(x, ys, kappa))

    @classmethod
    def far(cls, grid: CubeGrid, kappa: float, xhats) -> "ReceiverMap":
        ys = grid.points()[grid.radii() < np.pi]
        phase = -1j * kappa * (xhats @ ys.T)
        return cls(grid.spacing**3 / (4 * np.pi), kappa,
                   np.exp(phase, out=phase), dirs=xhats)

    def apply(self, qe, pe):
        """Rows (n_rec, 3) of the densities qe (n_ball, 3), pe (n_ball,)."""
        if self.grad is None:
            gpe = 1j * self.kappa * (self.kernel @ pe)[:, None] * self.dirs
        else:
            gpe = np.einsum("xyc,y->xc", self.grad, pe)
        return self.scale * (-self.kappa**2 * (self.kernel @ qe) + gpe)

    def adjoint(self, rows):
        """Densities (mu, nu) on the ball nodes paired with (q E, p.E)."""
        def kernel_h(v):
            return np.conj(self.kernel.T @ np.conj(v))

        mu = -self.scale * self.kappa**2 * kernel_h(rows)
        if self.grad is None:
            nu = kernel_h(-1j * self.kappa * np.sum(rows * self.dirs, axis=1))
        else:
            nu = np.conj(np.einsum("xyc,xc->y", self.grad, np.conj(rows)))
        return mu, self.scale * nu


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature on a sphere of given radius: Gauss-Legendre in cos(theta)
    times uniform trapezoid in phi.  Exact for spherical harmonics up to
    ``degree`` = min(2*n_theta - 1, n_phi - 1)."""

    radius: float
    nodes: np.ndarray  # (K, 3) unit vectors
    weights: np.ndarray  # (K,), sum to 4*pi

    @staticmethod
    def build(radius: float, n_theta: int, n_phi: int) -> "SphereGrid":
        mu, w = np.polynomial.legendre.leggauss(n_theta)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        st = np.sqrt(1.0 - mu**2)
        nodes = np.empty((n_theta * n_phi, 3))
        weights = np.empty(n_theta * n_phi)
        k = 0
        for i in range(n_theta):
            for j in range(n_phi):
                nodes[k] = (st[i] * np.cos(phi[j]), st[i] * np.sin(phi[j]), mu[i])
                weights[k] = w[i] * 2.0 * np.pi / n_phi
                k += 1
        return SphereGrid(radius=radius, nodes=nodes, weights=weights)

    @property
    def degree(self) -> int:
        n_theta = len(np.unique(np.round(self.nodes[:, 2], 12)))
        n_phi = self.nodes.shape[0] // n_theta
        return min(2 * n_theta - 1, n_phi - 1)

    def points(self) -> np.ndarray:
        return self.radius * self.nodes


@dataclass
class NearFieldData:
    """3x3 responses w(x, y) on receiver x sphere of source y sphere."""

    receivers: SphereGrid
    sources: SphereGrid
    matrices: np.ndarray  # (n_rec, n_src, 3, 3)
    part: str = "scattered"

    def norm(self) -> float:
        """L2 norm over R S^2 x R S^2 with surface measure (R^4 factor)."""
        w = (self.receivers.weights[:, None] * self.sources.weights[None, :]
             * self.receivers.radius**2 * self.sources.radius**2)
        return float(np.sqrt(np.sum(w * np.sum(np.abs(self.matrices) ** 2,
                                               axis=(2, 3)))))


@dataclass
class FarFieldData:
    """3x3 far-field patterns e_inf(xhat, d) on direction quadratures."""

    receivers: SphereGrid  # xhat grid (radius 1)
    incidences: SphereGrid  # d grid (radius 1)
    matrices: np.ndarray  # (n_x, n_d, 3, 3)

    def norm(self) -> float:
        w = self.receivers.weights[:, None] * self.incidences.weights[None, :]
        return float(np.sqrt(np.sum(w * np.sum(np.abs(self.matrices) ** 2,
                                               axis=(2, 3)))))


def tangent_frame(d):
    """Unit tangents (t1, t2) with (t1, t2, d) a right-handed frame."""
    ref = np.eye(3)[np.argmin(np.abs(d))]
    t1 = np.cross(d, ref)
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(d, t1)


class DataColumns:
    """Incident sources of a data set, one solve each, in column order.

    ``pols`` (n_columns, n_slots, 3) holds their polarizations: source k has
    the label (column, slot) = divmod(k, n_slots), and data column c is
    sum_slot rows (x) pols[c, slot].  The adjoint contracts each column with
    the polarizations.
    """

    def __init__(self, sources, pols):
        self.sources = sources
        self.pols = pols
        self.labels = list(np.ndindex(pols.shape[:2]))

    @classmethod
    def dipoles(cls, sphere: SphereGrid, kappa: float) -> "DataColumns":
        """Unit dipoles e_j at each node, in slot j of the node's column."""
        eye = np.eye(3)
        return cls([DipoleSource(y, a, kappa) for y in sphere.points()
                    for a in eye],
                    np.broadcast_to(eye, (sphere.nodes.shape[0], 3, 3)))

    @classmethod
    def plane_waves(cls, sphere: SphereGrid, kappa: float) -> "DataColumns":
        """Two tangential polarizations per incidence; Cartesian columns
        follow by linearity since longitudinal polarizations radiate
        nothing."""
        pols = np.array([tangent_frame(d) for d in sphere.nodes])
        return cls([PlaneWave(d, t, kappa) for d, ts in zip(sphere.nodes, pols)
                    for t in ts], pols)

    def assemble(self, rows):
        """Data matrices (n_rec, n_columns, 3, 3) from per-source rows."""
        rows = np.reshape(rows, self.pols.shape[:2] + np.shape(rows[0]))
        return np.einsum("csxi,csj->xcij", rows, self.pols)

    def split(self, mats):
        """Adjoint of :meth:`assemble`: per-source (n_rec, 3) rows."""
        return np.einsum("xcij,csj->csxi", mats, self.pols).reshape(
            (-1, mats.shape[0], 3))


def _solve_columns(solver, columns: DataColumns, measure):
    """Solve for every incident source of ``columns`` and assemble the
    measured rows; a failed solve carries its label as context."""
    return columns.assemble([measure(solver.solve(s, context=lab)) for s, lab
                             in zip(columns.sources, columns.labels)])


def near_field_operator(n: RefractiveIndex, kappa: float, sources: SphereGrid,
                        receivers: SphereGrid | None = None,
                        rtol: float = 1e-8) -> NearFieldData:
    """Scattered part of the Green's tensor data, column j the response to a
    unit dipole moment along axis j."""
    if sources.radius <= np.pi:
        raise ValueError("measurement sphere must have radius > pi")
    if receivers is None:
        receivers = sources
    solver = ScatteringSolver(n, kappa, rtol=rtol)
    rec_pts = receivers.points()
    mats = _solve_columns(solver, DataColumns.dipoles(sources, kappa),
                          lambda e: solver.scattered_at(e, rec_pts))
    return NearFieldData(receivers=receivers, sources=sources, matrices=mats)


def far_field_operator(n: RefractiveIndex, kappa: float, receivers: SphereGrid,
                       incidences: SphereGrid,
                       rtol: float = 1e-8) -> FarFieldData:
    """Matrix far-field patterns from two tangential plane-wave solves per
    incidence."""
    solver = ScatteringSolver(n, kappa, rtol=rtol)
    mats = _solve_columns(solver, DataColumns.plane_waves(incidences, kappa),
                          lambda e: solver.far_pattern(e, receivers.nodes))
    return FarFieldData(receivers=receivers, incidences=incidences, matrices=mats)
