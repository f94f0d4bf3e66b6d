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
lattice.  Fields, GMRES vectors and densities live on the box nodes.  The
transforms run in place on work buffers each solver allocates once, so a
solver serves one caller at a time.

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

from .fourier import BumpProfile, CubeGrid, RefractiveIndex, inverse_fourier


class SolveError(RuntimeError):
    """Krylov iteration failed to reach the requested residual.

    ``residuals`` is the residual history; ``context`` labels the failed
    solve, if it has a label: the (column, slot) of its source in a data
    set for forward and linearized solves, the (receiver, component) row
    for the adjoint solves of the inversion's Jacobian."""

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

    def magnetic(self, points):
        # H = curl(a Phi) = grad(Phi) x a, grad(Phi) = Phi' rhat
        _, rhat, _, dp, _ = _radial_derivatives(points, self.y, self.kappa)
        return np.cross(dp[..., None] * rhat, self.a)


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


# nodes kept on each side of a bump medium's support in its solver's box
BOX_MARGIN = 3


def support_box(n) -> tuple:
    """Slices (one per axis) of the grid-aligned box a solver for ``n``
    works on.

    For a medium with a closed-form :class:`BumpProfile` the box holds every
    node where n != 1 and ``BOX_MARGIN`` more on each side, each length
    rounded up to ``scipy.fft.next_fast_len`` and capped at the grid.  Any
    other medium, and one without contrast, gets the whole grid: a medium
    known only by its samples has a spectral grad(n)/n whose tail outside
    the support is part of its model."""
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
    """View of ``buf`` spanning the axes in ``full`` and the first
    ``ext[ax]`` points along the others."""
    return buf[tuple(slice(None) if ax in full else slice(0, ext[ax])
                     for ax in range(3))]


def _fft_passes(buf, ext, axes, full=()):
    """Padded FFT in place along ``axes`` of the data in ``buf``'s corner of
    extent ``ext``, each pass over the lines that reach it (``full`` and the
    axes done so far span the lattice), its pad zeroed just before."""
    for ax in axes:
        full += (ax,)
        view = _corner(buf, ext, full)
        view[(slice(None),) * ax + (slice(ext[ax], None),)] = 0
        _in_place(scipy.fft.fftn, view, ax)


def _ifft_passes(buf, ext, axes, full=(0, 1, 2)):
    """Inverse FFT along ``axes`` of ``buf``'s view spanning ``full``, in
    place over the lines the crop to ``ext`` keeps; returns it so cropped."""
    for ax in axes:
        _in_place(scipy.fft.ifftn, _corner(buf, ext, full), ax)
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
    inverse passes at the offsets x - y within the box only.  They are laid
    out circularly on a lattice of L_a = next_fast_len(2 S_a - 1) points
    per axis (S_a box nodes), where no two kept offsets meet, and one FFT
    turns each into the spectrum the potential multiplies.  Data enter at
    the lattice's corner and leave from it, so the result is the whole
    grid's potential with the sources zeroed outside the box, read on the
    box.  Forward transforms run one axis at a time over the lines that
    reach the data, inverse ones over the lines the crop keeps (axis 2, of
    contiguous lines, over the full lattice), in place in work buffers
    allocated once."""

    def __init__(self, symbol, kappa, box):
        M = symbol.shape[0]
        self.ext = tuple(s.stop - s.start for s in box)
        shape = tuple(scipy.fft.next_fast_len(2 * a - 1) for a in self.ext)
        # offsets x - y along each axis run over -(S - 1)..S - 1; the
        # samples are taken over the longest such range
        top = max(self.ext)
        span = np.arange(1 - top, top) % M

        def ifft_at(x, ax):
            return np.take(scipy.fft.ifftn(x, axes=(ax,)), span, axis=ax)

        # the symbol depends on |k| alone, so G_0 and G_1 are G_2 with its
        # axis 2 swapped for axis 0 or 1; k = j/2 on the lattice
        half = ifft_at(ifft_at(symbol, 0), 1)
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
        self._cube, self._spec, self._work = (
            np.empty(shape, dtype=complex) for _ in range(3))

    def potential(self, e, q, p):
        """-kappa^2 K * (q E) + grad K * (p.E) on the box."""
        cube, spec, work, ext = self._cube, self._spec, self._work, self.ext
        mk = self.spectra[0]
        _corner(spec, ext)[...] = np.einsum("...c,...c->...", p, e)
        _fft_passes(spec, ext, (0, 1, 2))
        out = np.empty(ext + (3,), dtype=complex)
        for c in range(3):
            np.multiply(q, e[..., c], out=_corner(cube, ext))
            _fft_passes(cube, ext, (0, 1, 2))
            cube *= mk
            np.multiply(self.spectra[c + 1], spec, out=work)
            cube += work
            out[..., c] = _ifft_passes(cube, ext, (2, 1, 0))
        return out


class ScatteringSolver:
    """Matrix-free Lippmann-Schwinger solver for one medium at one kappa.

    It works on the nodes of ``box`` (:func:`support_box`), whose points
    are ``pts``: fields, incident fields and densities live there, and the
    potential is the whole grid's with (q, p) zeroed outside the box."""

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
        self.box = support_box(n)
        self.shape = tuple(s.stop - s.start for s in self.box)
        self.pts = grid.points()[self.box]
        # contrast and spectral derivative of n (exact for the interpolant)
        self.q = 1.0 - n.values[self.box]
        f1, f2, f3 = grid.frequencies()
        grad = np.empty((N, N, N, 3), dtype=complex)
        for c, f in enumerate((f1, f2, f3)):
            grad[..., c] = inverse_fourier(1j * f * n.coeffs, grid)
        self.p = grad[self.box] / n.values[self.box][..., None]
        # quadrature nodes of the data maps: the contrast lives in B(pi), and
        # derivative pairings need every node a perturbation may reach
        self.ball = grid.radii()[self.box] < np.pi
        self._map = None  # (geometry key, ReceiverMap) of the last call
        self._conv = (_GridConvolution(self.symbol, self.kappa)
                      if self.shape == (N,) * 3 else
                      _Convolution(self.symbol, self.kappa, self.box))

    @property
    def symbol(self):
        """Symbol of the truncated kernel on the (2N)^3 lattice of the whole
        grid, FFT layout: k = j/2 with integer j, so |k|^2 = s/4 for the
        integer s = |j|^2 <= 3N^2, and the symbol is evaluated once per s
        and gathered."""
        N = self.N
        j2 = np.r_[:N, -N:0] ** 2
        s = j2[:, None, None] + j2[None, :, None] + j2[None, None, :]
        return truncated_kernel_symbol(np.sqrt(np.arange(3 * N * N + 1) / 4.0),
                                       self.kappa, 2.0 * np.pi)[s]

    def potential(self, e, q=None, p=None):
        """-kappa^2 conv(Phi, q E) + grad conv(Phi, p.E) on the box.

        (q, p) default to the medium's; a medium perturbation passes its
        own.  Without contrast (q = p = 0) it is zero, with no transform."""
        if q is None:
            q, p = self.q, self.p
        if not (np.any(q) or np.any(p)):
            return np.zeros(e.shape, dtype=complex)
        return self._conv.potential(e, q, p)

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
        return (e - self.potential(e)).ravel()

    def _krylov(self, matvec, b, x0=None, context=None):
        """GMRES for matvec(x) = b at the solver's tolerance and iteration
        limits; checks the true residual and raises :class:`SolveError`
        with the residual history and ``context`` on failure.

        GMRES ends every restart cycle with a matvec at its iterate, so the
        true residual of the returned x comes from that call, and only a
        return without one (b = 0) costs an explicit matvec.  Either way
        the last call to ``matvec`` is at the returned x."""
        last = None  # (input, ||matvec(input) - b||) of the latest call

        def recorded(v):
            nonlocal last
            last = None  # hold no copy while the potential runs
            av = matvec(v)
            # the norm, not av: GMRES's Arnoldi step overwrites av
            last = v.copy(), np.linalg.norm(av - b)
            return av

        op = LinearOperator((b.size, b.size), matvec=recorded, dtype=complex)
        residuals = []
        x, info = gmres(op, b, x0=x0, rtol=self.rtol, atol=0.0,
                        restart=self.restart,
                        maxiter=self.maxiter // self.restart,
                        callback=residuals.append, callback_type="pr_norm")
        if info != 0:
            raise SolveError(f"GMRES did not converge (info={info})",
                             residuals=residuals, context=context)
        bnorm = np.linalg.norm(b)
        if last is not None and np.array_equal(last[0], x):
            resid = last[1]
        else:
            resid = np.linalg.norm(matvec(x) - b)
        if resid > 10 * self.rtol * bnorm:
            raise SolveError(f"residual {resid / bnorm:.2e} above tolerance",
                             residuals=residuals, context=context)
        return x

    def solve(self, source, context=None) -> np.ndarray:
        """Total electric field on the box nodes, (S1, S2, S3, 3), for the
        given incident-field source."""
        b = source.electric(self.pts).ravel()
        x = self._krylov(self._matvec, b, b.copy(), context)
        return x.reshape(self.shape + (3,))

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

    def densities(self, e, q=None, p=None):
        """Volume densities (q E, p.E) on the box nodes in B(pi); (q, p) as
        in :meth:`potential`."""
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
