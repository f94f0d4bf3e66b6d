"""Forward electromagnetic scattering by the volume integral equation.

The total field solves

    E = E_inc - kappa^2 * conv(Phi, (1-n) E) + grad conv(Phi, (1/n) grad(n).E)

with Phi the outgoing Helmholtz kernel.  The convolutions are discretized
by periodizing the kernel, truncated at radius 2*pi, on the enclosing cube
of half-side 2*pi; the truncated kernel's Fourier symbol is known in closed
form on that (2N)^3 lattice.  Truncation at 2*pi is exact for source and
observation points in B(pi).

Each :class:`ScatteringSolver` works on a grid-aligned box of the grid
(:func:`support_box`): for a medium with a closed-form bump profile, the
nodes where n != 1 plus a margin; for any other medium, the whole grid.  On
the whole grid it convolves on the (2N)^3 lattice.  On a smaller box it
takes the real-space samples of that lattice's kernel and of its spectral
gradient at the offsets within the box, once, and convolves on a lattice
of about twice the box, so that its potential is the whole grid's with the
contrast and grad(n)/n zeroed outside the box.  That routine has no
adjoint: the adjoint potential, and the field off the box
(:meth:`ScatteringSolver.grid_field`), run on the whole grid's (2N)^3
lattice.  Fields, GMRES vectors and densities live on the box nodes, with
the medium's own (q, p).  The transforms run in place on work buffers each
solver allocates once, so a solver serves one caller at a time.  On a box,
the four densities q E_c and p.E of a potential are transformed together,
one scipy.fft call per axis each way (axes 1 and 2 once per block of
axis-0 slabs).  With K > 1 ``scipy.fft`` workers and more than one block,
the blocks are shared out over K threads of the call, each in its own
share of the block buffers on one worker.  The box kernels are built from
the symbol one (2N)^2 slab per distinct j_2^2 at a time, so the (2N)^3
symbol is formed only for the whole grid.

Every solve, forward or adjoint, runs the module's own restarted GMRES,
step for step scipy's, at the module constants ``GMRES_RTOL``,
``GMRES_RESTART`` and ``GMRES_MAXITER``: each restart cycle ends with a
matvec at its iterate, and the solve succeeds once that true residual is at
most ``GMRES_RTOL`` times ||b||.  So the module needs neither scipy.sparse
nor scipy.linalg.  Its transforms are ``scipy.fft``'s, which runs them on
the caller's ``scipy.fft.set_workers`` threads; the module loads it on
first use, so that importing it (as ``emiscat.cli`` does for every
pipeline, the CGO one too) loads no scipy.

Near- and far-field data operators assemble the 3x3 matrix responses to
dipole and plane-wave excitations on measurement spheres.  Both, and the
inversion, measure fields through one :class:`ReceiverMap` and lay out data
columns through one :class:`DataColumns`.  The far data are linear in the
incident field, so their harmonic coefficients (:func:`far_field_coeffs`)
take one solve per harmonic of the incidence side and Cartesian axis, each
for a Herglotz field, the incidence quadrature's sum of the plane waves
weighted by conj(Y_b(d)): 3 (L+1)^2 solves instead of two per incidence
direction.
"""

from __future__ import annotations

import mmap
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .fourier import BumpProfile, CubeGrid, RefractiveIndex, inverse_fourier

if TYPE_CHECKING:  # annotations only: spherical loads on first use
    from .spherical import FarCoeffs


class SolveError(RuntimeError):
    """Krylov iteration failed to reach the requested residual.

    The message names the matvecs made and the relative true residual
    reached.  ``residuals`` holds the Arnoldi estimates of the relative
    residual, one per GMRES step; ``context`` labels the failed solve, if
    it has a label: the (column, slot) of its source in a data set for
    forward and linearized solves, the (receiver, component) row for the
    adjoint solves of the inversion's Jacobian."""

    def __init__(self, message, residuals=None, context=None):
        super().__init__(message)
        self.residuals = residuals if residuals is not None else []
        self.context = context


def _radial_derivatives(x, y, kappa):
    """Unit vector rhat from y to x, and the outgoing kernel
    Phi = exp(i*kappa*r)/(4*pi*r) with Phi' and Phi'' at r = |x - y|."""
    z = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.linalg.norm(z, axis=-1)
    if np.any(r == 0):
        raise ValueError("coincident source and evaluation points")
    rhat = z / r[..., None]
    phi = np.exp(1j * kappa * r) / (4.0 * np.pi * r)
    dp = (1j * kappa - 1.0 / r) * phi
    ddp = ((1j * kappa - 1.0 / r) ** 2 + 1.0 / r**2) * phi
    return r, rhat, phi, dp, ddp


def background_green(x, y, kappa):
    """Free-space electric Green's tensor w1(x, y).

    ``w1(x, y) a`` is the dipole field -(1/(i*kappa)) curl curl (a * Phi),
    in closed form (i/kappa) * (kappa^2 Phi I + Hess Phi).
    """
    r, rhat, phi, dp, ddp = _radial_derivatives(x, y, kappa)
    eye = np.eye(3)
    outer = rhat[..., :, None] * rhat[..., None, :]
    hess = (ddp - dp / r)[..., None, None] * outer + (dp / r)[..., None, None] * eye
    return (1j / kappa) * (kappa**2 * phi[..., None, None] * eye + hess)


class DipoleSource:
    """Electric dipole with moment ``a`` at ``y``; fields solve the
    background Maxwell system away from the source point."""

    def __init__(self, y, a, kappa):
        self.y = np.asarray(y, dtype=float)
        self.a = np.asarray(a, dtype=complex)
        self.kappa = float(kappa)

    def electric(self, points):
        """w1(x, y) a without the tensor: (i/kappa) ((kappa^2 Phi + Phi'/r) a
        + (Phi'' - Phi'/r) (rhat.a) rhat)."""
        r, rhat, phi, dp, ddp = _radial_derivatives(points, self.y,
                                                    self.kappa)
        along = (ddp - dp / r) * (rhat @ self.a)
        out = (self.kappa**2 * phi + dp / r)[..., None] * self.a
        out += along[..., None] * rhat
        return (1j / self.kappa) * out


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


class HerglotzWave:
    """Superposition sum_d g_d d x (p x d) exp(i kappa d.x) of plane waves
    in the unit directions ``dirs`` (n_d, 3), with complex weights
    ``density`` (n_d,) and polarization ``p`` projected transverse to each
    direction."""

    def __init__(self, dirs, density, p, kappa):
        self.dirs = np.asarray(dirs, dtype=float)
        self.density = np.asarray(density, dtype=complex)
        self.p = np.asarray(p, dtype=complex)
        self.kappa = float(kappa)

    def electric(self, points):
        """The field on a tensor grid of points (S0, S1, S2, 3), as a box of
        a :class:`CubeGrid` is, from the per-axis factors
        exp(i kappa d_a x_a): no (n_d, S0 S1 S2) phase is formed, only
        (n_d, S0 S1)."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 4:
            raise ValueError("points must be a tensor grid (S0, S1, S2, 3)")
        d = self.dirs
        amps = self.density[:, None] * (self.p - d * (d @ self.p)[:, None])
        axes = (points[:, 0, 0, 0], points[0, :, 0, 1], points[0, 0, :, 2])
        f0, f1, f2 = (np.exp(1j * self.kappa * np.outer(d[:, a], x))
                      for a, x in enumerate(axes))
        plane = (f0[:, :, None] * f1[:, None, :]).reshape(len(d), -1)
        line = (f2[:, :, None] * amps[:, None, :]).reshape(len(d), -1)
        return (plane.T @ line).reshape(points.shape)


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


# nodes kept on each side of a bump medium's support in its solver's box
BOX_MARGIN = 3
# GMRES relative residual, restart length and Arnoldi-step limit of every
# solve: at most GMRES_MAXITER // GMRES_RESTART restart cycles
GMRES_RTOL, GMRES_RESTART, GMRES_MAXITER = 1e-8, 50, 2000
# rows the GMRES basis starts with and grows by
_BASIS_ROWS = 8
# bytes from which numpy advises huge pages on an array (4 MiB)
_HUGE = 1 << 22
# lattice points per field of a block of the box potential (1 MiB complex)
_BLOCK = 1 << 16


def _givens(f, g):
    """Rotation (c real, s) and r with c f + s g = r, -conj(s) f + c g = 0,
    by LAPACK's zlartg formulas for entries whose squares neither overflow
    nor underflow (|f|, |g| within 1e-154..1e154), which the Hessenberg
    entries of an operator of moderate norm are."""
    if g == 0:
        return 1.0, 0.0, f
    if f == 0:
        return 0.0, np.conj(g) / abs(g), abs(g)
    f2 = f.real**2 + f.imag**2
    h2 = f2 + g.real**2 + g.imag**2
    c = np.sqrt(f2 / h2)
    d = np.sqrt(f2 * h2)
    # complex over real part by part, as Fortran divides
    return (c, np.conj(g) * complex(f.real / d, f.imag / d),
            complex(f.real / c, f.imag / c))


def _basis_rows(rows, n, v=None):
    """``rows`` uninitialized rows of n complex values for a GMRES basis,
    after the rows of ``v`` when given, which the result replaces.

    numpy advises transparent huge pages on the arrays it allocates of
    _HUGE bytes and more; where the kernel grants them, a partly written
    array is resident up to its next 2 MiB, so a basis, whose rows are
    written one per step, would take more or less memory by the machine's
    free huge pages.  A basis that large is mapped from private anonymous
    memory of its own, resident only as far as it is written, and grows by
    a copy.  A smaller one is a numpy array, grown in place, whose memory
    the allocator reuses from solve to solve without new page faults."""
    if rows * n * 16 < _HUGE:
        if v is None:
            return np.empty((rows, n), dtype=complex)
        v.resize((rows, n), refcheck=False)  # no view of v is alive
        return v
    buf = mmap.mmap(-1, rows * n * 16, flags=mmap.MAP_PRIVATE)
    grown = np.frombuffer(buf, dtype=complex).reshape(rows, n)
    if v is not None:
        grown[:len(v)] = v
    return grown


def _gmres(matvec, b, x0=None, context=None):
    """Restarted GMRES (Saad & Schultz 1986) for matvec(x) = b, step for
    step as scipy.sparse.linalg.gmres without a preconditioner: MGS Arnoldi
    and Givens rotations, at most GMRES_MAXITER // GMRES_RESTART cycles of
    GMRES_RESTART steps.  A cycle stops once its Arnoldi estimate of the
    residual is at ptol, which starts at GMRES_RTOL ||b|| and is retuned
    from each cycle's outcome, and ends with a matvec at its iterate.  The
    true residual of that matvec decides success: ||b - matvec(x)|| <=
    GMRES_RTOL ||b||.  So the last call to ``matvec`` is at the returned x,
    also for b = 0, whose one matvec is at x = 0.

    ``matvec`` returns a new array, which the Arnoldi step orthogonalizes
    in place.  The basis is the rows of one array from
    :func:`_basis_rows`, started at _BASIS_ROWS rows and grown by as many
    once they are all taken, and the update x += y V multiplies a view of
    it, so a cycle holds its basis once.

    On failure raises :class:`SolveError` naming the matvecs made and the
    relative true residual reached, with the Arnoldi estimates relative to
    ||b||, one per step, and ``context``."""
    bnorm = np.linalg.norm(b)
    atol = GMRES_RTOL * bnorm
    x = np.zeros(b.size, dtype=complex)
    if x0 is not None and bnorm:
        x[:] = x0
    residuals, matvecs = [], 0
    if x.any() or not bnorm:
        r = b - matvec(x)
        rnorm, matvecs = np.linalg.norm(r), 1
    else:
        r, rnorm = b.copy(), bnorm
    eps = np.finfo(float).eps
    restart = min(GMRES_RESTART, b.size)
    h = np.zeros((restart + 1, restart), dtype=complex)
    ptol, ptol_factor = atol, 1.0
    cycles = GMRES_MAXITER // GMRES_RESTART
    while rnorm > atol and cycles:
        cycles -= 1
        v = _basis_rows(min(_BASIS_ROWS, restart + 1), b.size)
        np.multiply(r, 1 / rnorm, out=v[0])
        del r
        s = np.zeros(restart + 1, dtype=complex)
        s[0] = rnorm
        rotations, breakdown = [], False
        for col in range(restart):
            w = matvec(v[col])
            matvecs += 1
            h0 = np.linalg.norm(w)
            for k in range(col + 1):
                h[k, col] = np.vdot(v[k], w)
                w -= h[k, col] * v[k]
            h1 = np.linalg.norm(w)
            h[col + 1, col] = h1
            if h1 <= eps * h0:  # the Krylov space holds the solution
                h[col + 1, col] = 0
                breakdown = True
            else:
                w *= 1 / h1
            for k, (c, sk) in enumerate(rotations):
                top, low = h[k, col], h[k + 1, col]
                h[k:k + 2, col] = (c * top + sk * low,
                                   -np.conj(sk) * top + c * low)
            c, sk, h[col, col] = _givens(h[col, col], h[col + 1, col])
            rotations.append((c, sk))
            h[col + 1, col] = 0
            s[col:col + 2] = c * s[col], -np.conj(sk) * s[col]
            presid = abs(s[col + 1])
            residuals.append(presid / bnorm)
            if presid <= ptol or breakdown:
                break
            if col + 1 == len(v):
                v = _basis_rows(min(len(v) + _BASIS_ROWS, restart + 1),
                                b.size, v)
            v[col + 1] = w
        # back substitution on the triangle; a zero last pivot drops its row
        if h[col, col] == 0:
            s[col] = 0
        y = s[:col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[:k, k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += y @ v[:col + 1]
        del v, w  # not held through the true-residual matvec
        r = b - matvec(x)
        rnorm = np.linalg.norm(r)
        matvecs += 1
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:  # Arnoldi converged, the true residual did not
            ptol_factor = max(eps, 0.25 * ptol_factor)
        else:
            ptol_factor = min(1.0, 1.5 * ptol_factor)
        ptol = presid * min(ptol_factor, atol / rnorm)
    if rnorm <= atol:
        return x
    raise SolveError(f"GMRES did not converge in {matvecs} matvecs (residual"
                     f" {rnorm / bnorm:.1e} above tolerance)",
                     residuals=residuals, context=context)


def support_box(n) -> tuple:
    """Slices (one per axis) of the grid-aligned box a solver for ``n``
    works on.

    For a medium with a closed-form :class:`BumpProfile` the box holds every
    node where n != 1 and ``BOX_MARGIN`` more on each side, each length
    rounded up to ``scipy.fft.next_fast_len`` and capped at the grid.  Any
    other medium, and one without contrast, gets the whole grid: a medium
    known only by its samples has a spectral grad(n)/n whose tail outside
    the support is part of its model."""
    import scipy.fft

    N = n.grid.n
    whole = (slice(0, N),) * 3
    if not isinstance(getattr(n, "profile", None), BumpProfile):
        return whole
    nodes = np.nonzero(n.values != 1.0)
    if nodes[0].size == 0:
        return whole
    box = []
    for idx in nodes:
        lo, hi = idx.min() - BOX_MARGIN, idx.max() + 1 + BOX_MARGIN
        size = min(scipy.fft.next_fast_len(int(hi - lo)), N)
        lo = min(max(lo - (size - (hi - lo)) // 2, 0), N - size)
        box.append(slice(int(lo), int(lo) + size))
    return tuple(box)


def _in_place(transform, view, ax):
    """scipy.fft.fftn or ifftn of ``view`` along ``ax``, left in ``view``;
    copied back should the transform not have overwritten its input."""
    out = transform(view, axes=(ax,), overwrite_x=True)
    if not np.may_share_memory(out, view):
        view[...] = out


def _corner(buf, ext, full=()):
    """View of ``buf`` spanning its leading (batch) axes and, of its last
    three, the axes in ``full``, and the first ``ext[ax]`` points along the
    others."""
    return buf[(...,) + tuple(slice(None) if ax in full else slice(0, ext[ax])
                              for ax in range(3))]


def _fft_passes(buf, ext, axes, full=()):
    """Padded FFT in place along ``axes`` (of the last three) of the data in
    ``buf``'s corner of extent ``ext``, each pass over the lines that reach
    it (``full`` and the axes done so far span the lattice), its pad zeroed
    just before; one call per axis for every field of the leading axes."""
    import scipy.fft

    for ax in axes:
        full += (ax,)
        view = _corner(buf, ext, full)
        pad = (slice(None),) * ax + (slice(ext[ax], None),)
        view[(...,) + pad + (slice(None),) * (2 - ax)] = 0
        _in_place(scipy.fft.fftn, view, ax - 3)


def _ifft_passes(buf, ext, axes, full=(0, 1, 2)):
    """Inverse FFT along ``axes`` (of the last three) of ``buf``'s view
    spanning ``full``, in place over the lines the crop to ``ext`` keeps,
    one call per axis for every field of the leading axes; returns the view
    so cropped."""
    import scipy.fft

    for ax in axes:
        _in_place(scipy.fft.ifftn, _corner(buf, ext, full), ax - 3)
        full = tuple(a for a in full if a != ax)
    return _corner(buf, ext, full)


_OTHERS = ((1, 2), (0, 2), (0, 1))  # the two axes other than c = 0, 1, 2


class _GridConvolution:
    """Volume potential on the whole grid, on the (2N)^3 lattice of its
    kernel symbol, with the data in the lattice's corner.

    Component c is transformed along axis c first: there i k_c FFT_c(p.E)
    joins it on a slab 2N long along axis c and N along the others, since
    i k_c varies along axis c only.  So no gradient spectrum is formed, and
    a potential costs 45 N^2 line transforms; the adjoint mirrors it."""

    def __init__(self, symbol, kappa):
        M = symbol.shape[0]
        self.symbol, self.kappa, self.ext = symbol, kappa, (M // 2,) * 3
        k = 0.5 * np.r_[:M // 2, -(M // 2):0]  # FFT layout, k = j/2
        self.ik = [1j * k.reshape(np.roll((-1, 1, 1), c)) for c in range(3)]
        self._cube = np.empty((M,) * 3, dtype=complex)
        slab = np.empty(M * (M // 2) ** 2, dtype=complex)
        self._slabs = [slab.reshape(np.roll((M,) + self.ext[1:], c))
                       for c in range(3)]

    def potential(self, e, q, p):
        """-kappa^2 K * (q E) + grad K * (p.E) on the grid."""
        cube, ext = self._cube, self.ext
        mq = -self.kappa**2 * q
        pe = np.einsum("...c,...c->...", p, e)
        out = np.empty_like(e)
        for c, others in enumerate(_OTHERS):
            np.multiply(mq, e[..., c], out=_corner(cube, ext))
            _fft_passes(cube, ext, (c,))
            slab = self._slabs[c]
            _corner(slab, ext)[...] = pe
            _fft_passes(slab, ext, (c,))
            slab *= self.ik[c]
            spec = _corner(cube, ext, (c,))
            spec += slab
            _fft_passes(cube, ext, others, full=(c,))
            cube *= self.symbol
            out[..., c] = _ifft_passes(cube, ext, others[::-1] + (c,))
        return out

    def adjoint(self, lam):
        """(vec, sca) paired with (q E, p.E) by lam: once conj(symbol)
        FFT(lam_c) is inverted along the two other axes, vec_c and the
        -i k_c term of sca share that slab."""
        cube, ext = self._cube, self.ext
        vec = np.empty_like(lam)
        sca = np.zeros(lam.shape[:-1], dtype=complex)
        for c, others in enumerate(_OTHERS):
            _corner(cube, ext)[...] = lam[..., c]
            _fft_passes(cube, ext, (c,) + others)
            # cube *= conj(symbol) without a temporary
            np.conjugate(cube, out=cube)
            cube *= self.symbol
            np.conjugate(cube, out=cube)
            slab = self._slabs[c]
            np.multiply(_ifft_passes(cube, ext, others[::-1]), self.ik[c],
                        out=slab)
            # conj(i k) = -i k, hence the subtraction
            sca -= _ifft_passes(slab, ext, (c,), full=(c,))
            np.multiply(_ifft_passes(cube, ext, (c,), full=(c,)),
                        -self.kappa**2, out=vec[..., c])
        return vec, sca


class _Convolution:
    """Volume potential on the nodes of ``box``, a box of a grid smaller
    than the grid, by the whole grid's discrete kernels; forward only.

    The kernels are the samples K = IFFT(symbol) and G_c = IFFT(i k_c
    symbol) on the (2N)^3 lattice of the whole grid, taken by pruned
    inverse passes at the offsets x - y within the box only.  The symbol is
    gathered one (2N)^2 slab across axes 0 and 1 at a time from
    ``values``, its values at |k|^2 = s/4 for s = 0..3N^2, by s = |j|^2,
    with ``j2`` the squares of the lattice indices along an axis (as
    :attr:`ScatteringSolver.symbol` gathers the whole cube); each slab is
    inverted and cut to the offsets along those two axes, so the (2N)^3
    symbol is never formed.  Slabs j_2 and -j_2 are equal, so N + 1 of the
    2N are gathered and inverted and the rest copied.  The samples are laid
    out circularly on a lattice of L_a = next_fast_len(2 S_a - 1) points
    per axis (S_a box nodes), where no two kept offsets meet, and one FFT
    turns each into the spectrum the potential multiplies.

    Data enter at the lattice's corner and leave from it, so the result is
    the whole grid's potential with the sources zeroed outside the box,
    read on the box.  A potential transforms its four densities q E_c and
    p.E as one batch: one forward pass per axis over the lines that reach
    the data, then one inverse pass per axis over the three components,
    over the lines the crop keeps (axis 2, of contiguous lines, over the
    full lattice).  Axis 0 runs on a (4, L_0, S_1, S_2) batch.  Axes 1 and
    2, which stay within an axis-0 slab, run on blocks of slabs of at most
    _BLOCK points per field (one slab at least) in a (4, rows, L_1, L_2)
    buffer, where the spectra multiply; so the solver holds the four
    spectra and not four more lattice volumes, and its memory grows less
    with the box.  A lattice of at most _BLOCK points is one block, of which
    the batch is a view: 6 scipy.fft calls per potential, 2 + 4 per block
    otherwise.

    With K = scipy.fft.get_workers() > 1 and more than one block, the
    per-block stage (copy in, passes on axes 1 and 2, the multiply, passes
    back, copy out) runs on min(K, rows) threads, the caller one of them,
    each on one scipy.fft worker and in its own share of the block and work
    buffers: blocks of rows // K slabs, so no more block memory than with
    one worker.  The axis-0 passes stay on the caller with its K workers.
    Every block does the arithmetic of one worker, so the potential has
    the same bits at any K."""

    def __init__(self, values, j2, kappa, box):
        import scipy.fft

        M = j2.size
        self.ext = tuple(s.stop - s.start for s in box)
        shape = tuple(scipy.fft.next_fast_len(2 * a - 1) for a in self.ext)
        # offsets x - y along each axis run over -(S - 1)..S - 1; the
        # samples are taken over the longest such range
        top = max(self.ext)
        span = np.arange(1 - top, top) % M

        def ifft_at(x, ax):
            return np.take(scipy.fft.ifftn(x, axes=(ax,)), span, axis=ax)

        # s = |j|^2 across axes 0 and 1; slab j_2 adds j_2^2
        plane = j2[:, None] + j2[None, :]
        half = np.empty((span.size, span.size, M), dtype=complex)
        for k in range(M // 2 + 1):
            half[..., k] = ifft_at(ifft_at(values[plane + j2[k]], 0), 1)
        # slab M - k has slab k's j_2^2
        half[..., M // 2 + 1:] = half[..., M // 2 - 1:0:-1]
        # the symbol depends on |k| alone, so G_0 and G_1 are G_2 with its
        # axis 2 swapped for axis 0 or 1; k = j/2 on the lattice
        g2 = ifft_at(0.5j * np.r_[:M // 2, -(M // 2):0] * half, 2)
        samples = (ifft_at(half, 2), g2.transpose(2, 1, 0),
                   g2.transpose(0, 2, 1), g2)
        del half
        keep = tuple(slice(top - a, top + a - 1) for a in self.ext)
        # the padded FFT puts the lowest offset at slot 0: shift by S - 1
        phase = np.ones(shape, dtype=complex)
        for ax, (n, size) in enumerate(zip(shape, self.ext)):
            turns = (size - 1) * np.arange(n) % n / n
            phase *= np.exp(2j * np.pi * turns).reshape(np.roll((-1, 1, 1),
                                                                ax))
        self.spectra = [scipy.fft.fftn(k[keep], s=shape) * phase
                        for k in samples]
        self.spectra[0] *= -kappa**2  # K carries the -kappa^2 of q E
        rows = max(1, min(shape[0], _BLOCK // (shape[1] * shape[2])))
        self._block = np.empty((4, rows) + shape[1:], dtype=complex)
        self._work = np.empty((rows,) + shape[1:], dtype=complex)
        self._batch = (_corner(self._block, self.ext, (0,))
                       if rows == shape[0] else
                       np.empty((4, shape[0]) + self.ext[1:], dtype=complex))

    def potential(self, e, q, p):
        """-kappa^2 K * (q E) + grad K * (p.E) on the box."""
        batch, ext = self._batch, self.ext
        data = _corner(batch, ext)
        for c in range(3):
            np.multiply(q, e[..., c], out=data[c])
        data[3] = np.einsum("...c,...c->...", p, e)
        _fft_passes(batch, ext, (0,))
        rows, threads = len(self._work), 1
        if batch.base is not self._block:  # more than one block
            import scipy.fft

            threads = min(scipy.fft.get_workers(), rows)
        if threads == 1:
            self._blocks(batch, self._block, self._work,
                         range(0, len(batch[0]), rows))
        else:
            self._threaded_blocks(batch, threads)
        out = np.empty(ext + (3,), dtype=complex)
        for c, field in enumerate(_ifft_passes(batch[:3], ext, (0,),
                                               full=(0,))):
            out[..., c] = field
        return out

    def _blocks(self, batch, buf, work, starts):
        """Axes 1 and 2 of the blocks of ``len(work)`` axis-0 slabs that
        begin at ``starts``, in ``buf`` and ``work``: forward passes, the
        spectral multiply, inverse passes.  Blocks are copied in from the
        batch and out to it, unless the batch is a view of ``buf``."""
        ext, mk, rows = self.ext, self.spectra[0], len(work)
        split = batch.base is not buf
        for lo in starts:
            slabs = slice(lo, lo + rows)
            block = buf[:, :len(mk[slabs])]
            if split:
                _corner(block, ext, (0,))[...] = batch[:, slabs]
            _fft_passes(block, ext, (1, 2), full=(0,))
            tmp, spec = work[:len(block[3])], block[3]
            for c in range(3):
                np.multiply(self.spectra[c + 1][slabs], spec, out=tmp)
                block[c] *= mk[slabs]
                block[c] += tmp
            crop = _ifft_passes(block[:3], ext, (2, 1))
            if split:
                batch[:3, slabs] = crop

    def _threaded_blocks(self, batch, threads):
        """:meth:`_blocks` on ``threads`` threads, each on one scipy.fft
        worker, in its own share of the solver's block and work buffers
        (blocks of rows // threads slabs), thread t taking every
        ``threads``-th block from block t.  The caller runs share 0 and
        returns once every thread it started has ended; then it raises the
        first error of any share."""
        import scipy.fft

        rows = len(self._work) // threads
        size = self._block[:, :rows].size
        flat = self._block.reshape(-1)
        shares = [(flat[t * size:(t + 1) * size].reshape(
                       (4, rows) + self._work.shape[1:]),
                   self._work[t * rows:(t + 1) * rows],
                   range(t * rows, len(batch[0]), threads * rows))
                  for t in range(threads)]
        errors = []

        def run(*share):
            try:
                self._blocks(batch, *share)
            except BaseException as err:  # raised again by the caller
                errors.append(err)

        started = []
        try:
            for share in shares[1:]:
                started.append(threading.Thread(target=run, args=share))
                started[-1].start()
            with scipy.fft.set_workers(1):
                run(*shares[0])
        finally:
            for thread in started:
                if thread.is_alive():
                    thread.join()
        if errors:
            raise errors[0]


class ScatteringSolver:
    """Matrix-free Lippmann-Schwinger solver for one medium at one kappa.

    It works on the nodes of ``box`` (:func:`support_box`), whose points
    are ``pts``: fields, incident fields and densities live there, and the
    potential is the whole grid's with (q, p) zeroed outside the box."""

    def __init__(self, n: RefractiveIndex, kappa: float):
        self.n = n
        self.kappa = float(kappa)
        grid = n.grid
        if abs(grid.half_side - np.pi) > 1e-12:
            raise ValueError("medium must live on C(pi)")
        N = grid.n
        self.N = N
        self.box = support_box(n)
        self.shape = tuple(s.stop - s.start for s in self.box)
        # built from the box's axes: a slice of grid.points() would keep the
        # whole (N, N, N, 3) grid alive
        x = grid.axis()
        self.pts = np.stack(np.meshgrid(*(x[s] for s in self.box),
                                        indexing="ij"), axis=-1)
        # contrast and spectral derivative of n (exact for the interpolant)
        self.q = 1.0 - n.values[self.box]
        # p = grad(n)/n, one whole-grid component of grad(n) at a time
        self.p = np.empty(self.shape + (3,), dtype=complex)
        for c, f in enumerate(grid.frequencies()):
            np.divide(inverse_fourier(1j * f * n.coeffs, grid)[self.box],
                      n.values[self.box], out=self.p[..., c])
        self._scatters = bool(np.any(self.q) or np.any(self.p))
        # quadrature nodes of the data maps: the contrast lives in B(pi), and
        # derivative pairings need every node a perturbation may reach
        self.ball = grid.radii()[self.box] < np.pi
        self._map = None  # (geometry key, ReceiverMap) of the last call
        self._conv = (_GridConvolution(self.symbol, self.kappa)
                      if self.shape == (N,) * 3 else
                      _Convolution(*self._radial_symbol(), self.kappa,
                                   self.box))

    def _radial_symbol(self):
        """The symbol's values at |k|^2 = s/4 for s = 0..3N^2, and the
        squares j^2 of the lattice indices along an axis, FFT layout."""
        N = self.N
        return (truncated_kernel_symbol(np.sqrt(np.arange(3 * N * N + 1) / 4.0),
                                        self.kappa, 2.0 * np.pi),
                np.r_[:N, -N:0] ** 2)

    @property
    def symbol(self):
        """Symbol of the truncated kernel on the (2N)^3 lattice of the whole
        grid, FFT layout: k = j/2 with integer j, so |k|^2 = s/4 for the
        integer s = |j|^2 <= 3N^2, and the symbol is evaluated once per s
        and gathered."""
        values, j2 = self._radial_symbol()
        return values[j2[:, None, None] + j2[None, :, None] + j2[None, None, :]]

    def potential(self, e):
        """-kappa^2 conv(Phi, q E) + grad conv(Phi, p.E) on the box, with
        the medium's (q, p).  Without contrast (q = p = 0) it is zero, with
        no transform."""
        if not self._scatters:
            return np.zeros(e.shape, dtype=complex)
        return self._conv.potential(e, self.q, self.p)

    def potential_adjoint(self, lam):
        """Adjoint of the potential's volume map (q E, p.E) -> field.

        Returns the vector field paired with q E and the scalar field paired
        with p.E, so that the adjoint potential is
        conj(q) * vec + conj(p) * sca.  Both are zero, with no transform,
        for lam = 0.  It serves the data Jacobian, whose pairings need
        fields on every node a perturbation may reach: a solver on a box
        smaller than the grid raises ValueError."""
        if self.shape != (self.N,) * 3:
            box = ", ".join(f"{s.start}:{s.stop}" for s in self.box)
            raise ValueError("the adjoint potential pairs fields on the whole"
                             f" grid, but the solver works on the box [{box}]")
        if not np.any(lam):
            return np.zeros_like(lam), np.zeros(lam.shape[:-1], dtype=complex)
        return self._conv.adjoint(lam)

    def _matvec(self, flat):
        e = flat.reshape(self.shape + (3,))
        out = self.potential(e)
        return np.subtract(e, out, out=out).ravel()

    def solve(self, source, context=None) -> np.ndarray:
        """Total electric field on the box nodes, (S1, S2, S3, 3), for the
        given incident-field source."""
        b = source.electric(self.pts).ravel()
        return _gmres(self._matvec, b, b, context).reshape(self.shape + (3,))

    def grid_field(self, e, source) -> np.ndarray:
        """The total field on every grid node, (N, N, N, 3), from its box
        field ``e``: ``e`` on the box, E_inc + potential(e) elsewhere, the
        whole grid's potential of ``e``, q and p zeroed outside the box."""
        N = self.N
        if self.shape == (N,) * 3:
            return e

        def embed(x):
            out = np.zeros((N,) * 3 + x.shape[3:], dtype=complex)
            out[self.box] = x
            return out

        out = source.electric(self.n.grid.points())
        out += _GridConvolution(self.symbol, self.kappa).potential(
            embed(e), embed(self.q), embed(self.p))
        out[self.box] = e
        return out

    def born_field(self, source) -> np.ndarray:
        """First Born approximation E_inc + potential(E_inc) on the box."""
        e_inc = source.electric(self.pts)
        return e_inc + self.potential(e_inc)

    def densities(self, e):
        """Volume densities (q E, p.E) on the box nodes in B(pi), with the
        medium's (q, p)."""
        eb = e[self.ball]
        return (self.q[self.ball][:, None] * eb,
                np.sum(self.p[self.ball] * eb, axis=-1))

    def receiver_map(self, kind: str, points) -> "ReceiverMap":
        """Near (receiver points) or far (unit directions) data map of this
        grid, rebuilt only when the geometry changes."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        key = (kind, points.tobytes())
        cached = self._map
        if cached is None or cached[0] != key:
            build = ReceiverMap.near if kind == "near" else ReceiverMap.far
            cached = self._map = (key, build(self.n.grid, self.kappa, points,
                                             self.pts[self.ball]))
        return cached[1]

    def scattered_at(self, e_total, points) -> np.ndarray:
        """Scattered field at exterior points by direct quadrature.

        Valid for |x| > pi where the kernel is smooth across the support.
        """
        return self.receiver_map("near", points).apply(
            *self.densities(e_total))

    def far_pattern(self, e_total, xhats) -> np.ndarray:
        """Far-field amplitude E_inf(xhat) from the volume representation."""
        return self.receiver_map("far", xhats).apply(*self.densities(e_total))

    def residual(self, e_total, source) -> float:
        """Relative Lippmann-Schwinger residual on the box nodes in
        B(pi)."""
        e_inc = source.electric(self.pts)
        r = e_total - self.potential(e_total) - e_inc
        return float(np.linalg.norm(r[self.ball])
                     / np.linalg.norm(e_inc[self.ball]))


@dataclass
class ReceiverMap:
    """Linear map from the densities (q E, p.E) on quadrature nodes y of a
    grid (a solver's nodes in B(pi)) to (n_rec, 3) data rows, with its
    adjoint.

    rows = scale * (-kappa^2 K (q E) + G (p.E)).  For receiver points x,
    K = Phi(x - y), G its gradient in x and scale = h^3.  For far directions
    xhat, K = exp(-i kappa xhat.y), G = i kappa xhat K (applied, not stored)
    and scale = h^3 / (4 pi).
    """

    scale: float
    kappa: float
    kernel: np.ndarray  # (n_rec, n_nodes)
    grad: np.ndarray | None = None  # (n_rec, n_nodes, 3); near maps only
    dirs: np.ndarray | None = None  # (n_rec, 3); far maps only

    @classmethod
    def near(cls, grid: CubeGrid, kappa: float, points,
             nodes) -> "ReceiverMap":
        if np.any(np.linalg.norm(points, axis=-1) <= np.pi):
            raise ValueError("evaluation points must lie outside B(pi)")
        _, rhat, phi, dp, _ = _radial_derivatives(points[:, None, :], nodes,
                                                  kappa)
        return cls(grid.spacing**3, kappa, phi, grad=dp[..., None] * rhat)

    @classmethod
    def far(cls, grid: CubeGrid, kappa: float, xhats,
            nodes) -> "ReceiverMap":
        phase = -1j * kappa * (xhats @ nodes.T)
        return cls(grid.spacing**3 / (4 * np.pi), kappa,
                   np.exp(phase, out=phase), dirs=xhats)

    def apply(self, qe, pe):
        """Rows (n_rec, 3) of the densities qe (n_ball, 3), pe (n_ball,)."""
        if self.grad is None:  # one pass over K for (K qe, K pe)
            kq = self.kernel @ np.column_stack([qe, pe])
            gpe = 1j * self.kappa * kq[:, 3:] * self.dirs
            kq = kq[:, :3]
        else:
            gpe = np.einsum("xyc,y->xc", self.grad, pe)
            kq = self.kernel @ qe
        return self.scale * (-self.kappa**2 * kq + gpe)

    def adjoint(self, rows):
        """Densities (mu, nu) on the nodes paired with (q E, p.E)."""
        def kernel_h(v):
            return np.conj(self.kernel.T @ np.conj(v))

        if self.grad is None:  # one pass over K for both densities
            kh = kernel_h(np.column_stack(
                [rows, -1j * self.kappa * np.sum(rows * self.dirs, axis=1)]))
            kh_rows, nu = kh[:, :3], kh[:, 3]
        else:
            kh_rows = kernel_h(rows)
            nu = np.conj(np.einsum("xyc,xc->y", self.grad, np.conj(rows)))
        return -self.scale * self.kappa**2 * kh_rows, self.scale * nu


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
        if n_theta < 1 or n_phi < 1:
            raise ValueError(f"n_theta = {n_theta} and n_phi = {n_phi} "
                             "must be at least 1")
        mu, w = np.polynomial.legendre.leggauss(n_theta)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        st = np.sqrt(1.0 - mu**2)
        # theta-major order: node k = i * n_phi + j
        nodes = np.stack([np.outer(st, np.cos(phi)).ravel(),
                          np.outer(st, np.sin(phi)).ravel(),
                          np.repeat(mu, n_phi)], axis=-1)
        weights = np.repeat(w * 2.0 * np.pi / n_phi, n_phi)
        return SphereGrid(radius=radius, nodes=nodes, weights=weights)

    @property
    def degree(self) -> int:
        n_theta = len(np.unique(np.round(self.nodes[:, 2], 12)))
        n_phi = self.nodes.shape[0] // n_theta
        return min(2 * n_theta - 1, n_phi - 1)

    def points(self) -> np.ndarray:
        return self.radius * self.nodes


def _data_norm(data) -> float:
    """L2 norm of sphere data under its ``weights()``: the surface measure
    of R S^2 x R S^2 (R^4 factor) for near data, S^2 x S^2 for far data."""
    return float(np.sqrt(np.sum(data.weights()
                                * np.sum(np.abs(data.matrices) ** 2,
                                         axis=(2, 3)))))


@dataclass
class NearFieldData:
    """3x3 responses w(x, y) on receiver x sphere of source y sphere."""

    receivers: SphereGrid
    sources: SphereGrid
    matrices: np.ndarray  # (n_rec, n_src, 3, 3)
    part: str = "scattered"

    def weights(self) -> np.ndarray:
        """Surface-measure weights (n_rec, n_src) on R S^2 x R S^2."""
        return (self.receivers.weights[:, None] * self.sources.weights[None, :]
                * self.receivers.radius**2 * self.sources.radius**2)

    norm = _data_norm


@dataclass
class FarFieldData:
    """3x3 far-field patterns e_inf(xhat, d) on direction quadratures."""

    receivers: SphereGrid  # xhat grid (radius 1)
    incidences: SphereGrid  # d grid (radius 1)
    matrices: np.ndarray  # (n_x, n_d, 3, 3)

    def weights(self) -> np.ndarray:
        """Quadrature weights (n_x, n_d) on S^2 x S^2."""
        return self.receivers.weights[:, None] * self.incidences.weights[None, :]

    norm = _data_norm


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
    sum_slot rows (x) pols[c, slot].
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

    @classmethod
    def herglotz(cls, incidences: SphereGrid, kappa: float,
                 L: int) -> "DataColumns":
        """One Herglotz wave per harmonic b = l^2 + l + k (l <= L) and axis
        j, in slot j of column b: the incidence quadrature's sum
        sum_d w_d conj(Y_b(d)) (I - d d^T) e_j exp(i kappa d.x).  By
        linearity its far pattern is the d-projection onto Y_b of column j
        of the plane-wave data on ``incidences``."""
        from .spherical import harmonic_table

        d, eye = incidences.nodes, np.eye(3)
        coef = np.conj(harmonic_table(L, d)) * incidences.weights
        return cls([HerglotzWave(d, c, e, kappa) for c in coef for e in eye],
                   np.broadcast_to(eye, (len(coef), 3, 3)))

    def assemble(self, rows):
        """Data matrices (n_rec, n_columns, 3, 3, ...) from per-source rows
        (n_rec, 3, ...); trailing axes are carried along."""
        rows = np.reshape(rows, self.pols.shape[:2] + np.shape(rows[0]))
        return np.einsum("csxi...,csj->xcij...", rows, self.pols)


def _solve_columns(solver, columns: DataColumns, measure):
    """Solve for every incident source of ``columns`` and assemble the
    measured rows; a failed solve carries its label as context."""
    return columns.assemble([measure(solver.solve(s, context=lab)) for s, lab
                             in zip(columns.sources, columns.labels)])


def near_field_operator(n: RefractiveIndex, kappa: float, sources: SphereGrid,
                        receivers: SphereGrid | None = None) -> NearFieldData:
    """Scattered part of the Green's tensor data, column j the response to a
    unit dipole moment along axis j."""
    if sources.radius <= np.pi:
        raise ValueError("measurement sphere must have radius > pi")
    if receivers is None:
        receivers = sources
    solver = ScatteringSolver(n, kappa)
    rec_pts = receivers.points()
    mats = _solve_columns(solver, DataColumns.dipoles(sources, kappa),
                          lambda e: solver.scattered_at(e, rec_pts))
    return NearFieldData(receivers=receivers, sources=sources, matrices=mats)


def far_field_operator(n: RefractiveIndex, kappa: float, receivers: SphereGrid,
                       incidences: SphereGrid) -> FarFieldData:
    """Matrix far-field patterns from two tangential plane-wave solves per
    incidence."""
    solver = ScatteringSolver(n, kappa)
    mats = _solve_columns(solver, DataColumns.plane_waves(incidences, kappa),
                          lambda e: solver.far_pattern(e, receivers.nodes))
    return FarFieldData(receivers=receivers, incidences=incidences, matrices=mats)


def far_field_coeffs(n: RefractiveIndex, kappa: float, receivers: SphereGrid,
                     incidences: SphereGrid, L: int) -> FarCoeffs:
    """Harmonic coefficients of the matrix far field in both directions, as
    far_coeffs(far_field_operator(n, kappa, receivers, incidences), L) up
    to GMRES tolerance, from 3 (L+1)^2 Herglotz solves
    (:meth:`DataColumns.herglotz`) instead of 2 n_d plane-wave solves.
    Each far pattern on ``receivers`` is projected onto conj(Y_a(xhat))
    w_x as it is measured."""
    from .spherical import FarCoeffs, check_degree, harmonic_table

    check_degree(L, receivers, incidences)
    solver = ScatteringSolver(n, kappa)
    proj = np.conj(harmonic_table(L, receivers.nodes)) * receivers.weights
    rows = _solve_columns(
        solver, DataColumns.herglotz(incidences, kappa, L),
        lambda e: proj @ solver.far_pattern(e, receivers.nodes))
    # rows are indexed [i_xhat, i_d]; FarCoeffs stores [i_d, i_xhat]
    return FarCoeffs(L=L, alpha=np.swapaxes(rows, 0, 1))
