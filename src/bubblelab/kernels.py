"""Shared numerical layer: the Helmholtz pair kernel, far-field sums, dense
solves, the lattice convolution and a short-recurrence Krylov solve.

Every solver in the package evaluates the kernel through ``helmholtz``,
builds its dense matrix with ``pair_kernel``, sums its far field with
``far_field_sum`` (or ``grid_far_field_sum`` on a voxel grid) and solves
its dense systems, all complex symmetric, through ``DirectSystem``: one
block per Fourier mode when P rotational sectors (a cap's panel mesh, or a
K = 0 cap cluster's quarter turns) make the matrix block circulant, the
whole matrix by LDL^T when P = 1.  On a masked regular lattice the same
kernel matrix is applied without being formed:
``LatticeConvolution`` is its matvec by zero-padded FFTs that skip the
lines of the padding, and ``LatticeSystem``, the one lattice solve of the
point-interaction and volume systems, adds a diagonal given as data and
solves by ``cocg``, which needs that matvec alone.

The direct solve's BLAS and LAPACK routines (``zsytrf``, ``zsytrs``,
``zsycon``, ``zsymm``, ``zgetrf``, ``zgetrs``, ``zgecon``) come from the
OpenBLAS that ``numpy.linalg`` links, called through ``ctypes`` and
resolved once, on the first factorization in a process, from a handle on
numpy's ``_umath_linalg`` extension, whose ``dlsym`` also searches the
libraries it depends on.  So no library is
mapped or initialized beyond the one numpy loaded at import, a process
holds one OpenBLAS (``OPENBLAS_NUM_THREADS`` sets its threads), and no
dense solve loads a SciPy module.  ``cocg`` and ``LatticeConvolution`` use
numpy alone.

Memory model: the memory-bound kernels of the dense path walk
cache-resident blocks of at most CACHE_BLOCK entries (256 KiB of float64),
so the dozen or so elementwise passes over a block run out of a 2 MiB
per-core L2 cache instead of streaming through memory (cache blocking: Lam,
Rothberg & Wolf, ASPLOS 1991).  ``pair_kernel`` fills its (M, M) output in
such row blocks through two reused scratch buffers, the pair minima
(``min_pairwise_distance``, ``min_cos_kappa_distance``) walk the same blocks
in the same buffers, ``far_field_sum`` takes column blocks of that size
and the 1-norms of ``DirectSystem`` row blocks.  Every entry of the kernel
matrix and every pair distance is computed as it would be in one block, so
these results do not depend on the block size.
``grid_far_field_sum`` keeps its (nx ny, D) partial sums to the same
CACHE_BLOCK entries.  The chunk of ``LatticeConvolution`` holds
BLOCK_ENTRIES // 4 complex entries (1 MiB): at 36^3 a 2 MiB chunk makes
``apply`` at most 3 % faster and a 0.5 MiB one 7-10 % slower.  The
quadrature of ``meshes.boundary_shape_factor`` walks CACHE_BLOCK blocks
too, whose GEMM blocks fix the bits of its pinned values.
``DirectSystem`` factors the matrix in place, so a dense solve peaks at about
the matrix alone (16 M^2 bytes) and never at an (M, M, 3) difference array or
a second (M, M) copy; with P sectors it factors the (N, N/P) sector-0
columns in place, transformed into their mode blocks, and holds no other
array of that size: 16 N^2 / P bytes.  ``pair_kernel``, which builds the
point, surface and Dirichlet systems, refuses a matrix over DENSE_MAX_BYTES (1 GiB: M <= 8192)
before allocating it, or one the OS refuses, with AllocationError; the same
budget bounds the (N, N/P) sector-0 columns of P sectors.
``LatticeConvolution`` refuses a box over MAX_CELLS (64^3) with
ConfigError, so the point and the volume solves share that cap.  It never
forms its zero-padded box: it holds a quarter of it, the (nx, ny, 2nz)
buffer of the z transform, one chunk of at most
BLOCK_ENTRIES // 4 complex entries in which the other passes run a block of
kz planes at a time, the octant spectrum and the flat index of each site;
its ``apply`` transforms in place in those buffers, writes into a vector
the caller passes (or one it allocates) and is not re-entrant.
``cocg`` keeps four vectors of the system's size and no Krylov basis: it
takes the right-hand side over as its residual and allocates the other
three, and its ``matvec``, ``precondition`` and axpy updates write into one
of them, so its loop allocates no vector; nor does ``LatticeSystem``'s
matvec, whose diagonal term goes through the convolution's z buffer.
"""

from __future__ import annotations

import ctypes
import itertools
import math

import numpy as np
from numpy.fft import fft, ifft, rfft

from .errors import AllocationError, ConfigError, GeometryError, SolverError

BLOCK_ENTRIES = 1 << 18  # entries per temporary: 2 MiB of float64
CACHE_BLOCK = BLOCK_ENTRIES // 8  # entries per cache-resident block: 256 KiB of float64
DENSE_MAX_BYTES = 1 << 30  # largest dense (M, M) complex matrix: 1 GiB, M <= 8192
MAX_CELLS = 64**3  # sites of the largest (nx, ny, nz) box a LatticeConvolution accepts
MAX_MATVECS = 2000  # matvec cap of one COCG run of a LatticeSystem

# the symbol forms of the dense solve's routines, tried in turn: (prefix,
# suffix, LAPACK index type).  NumPy's PyPI wheels (>= 2.0) link
# scipy_openblas64_; other builds link an ILP64 or an LP64 LAPACK.
_SYMBOL_FORMS = (("scipy_", "_64_", np.int64), ("", "_64_", np.int64), ("", "_", np.int32))
_DENSE_ROUTINES = ("zsytrf", "zsycon", "zsytrs", "zsymm", "zgetrf", "zgecon", "zgetrs")
_lapack = None  # ({routine: ctypes function}, index dtype), set on the first factorization


def helmholtz(r, kappa0: float):
    """Free-space kernel e^{i kappa0 r} / (4 pi r), elementwise in r."""
    return np.exp(1j * kappa0 * r) / (4.0 * np.pi * r)


def _distance_blocks(points, stride: int = 1):
    """(i0, i1, c0, r, s) for row blocks i0:i1 of ``points`` against columns
    c0: of points 0, stride, 2 stride, ... (n = M // stride of them), c0 = i0
    (the upper triangle) for stride 1 and 0 otherwise: r the (i1 - i0, n - c0)
    distances and s a scratch array of the same shape, both views of two
    buffers reused by every block of at most CACHE_BLOCK entries (one row if
    a row is longer)."""
    m = len(points)
    n = m // stride
    cols = points[:n * stride:stride]
    r_buf = np.empty(min(max(CACHE_BLOCK, n), m * n))
    s_buf = np.empty_like(r_buf)
    i0 = 0
    while i0 < m:
        c0 = i0 if stride == 1 else 0
        i1 = min(m, i0 + max(1, CACHE_BLOCK // (n - c0)))
        r = r_buf[:(i1 - i0) * (n - c0)].reshape(i1 - i0, n - c0)
        s = s_buf[:r.size].reshape(r.shape)
        _block_distances(points[i0:i1], cols[c0:], r, s)
        yield i0, i1, c0, r, s
        i0 = i1


def _block_distances(rows, cols, out, scratch):
    """|x_i - y_j| for rows x_i and columns y_j into ``out``, summed over the
    points' columns in the order ``np.linalg.norm(..., axis=-1)`` uses, so
    r_ij == r_ji bitwise."""
    for axis in range(rows.shape[1]):
        dst = out if axis == 0 else scratch
        np.subtract.outer(rows[:, axis], cols[:, axis], out=dst)
        np.multiply(dst, dst, out=dst)
        if axis:
            out += scratch
    np.sqrt(out, out=out)


def pair_kernel(points, kappa0: float, diagonal, stride: int = 1) -> np.ndarray:
    """Square matrix e^{i kappa0 r_ij} / (4 pi r_ij) off the diagonal,
    ``diagonal`` (scalar or per point) on it; with ``stride`` p > 1 only its
    columns 0, p, 2p, ..., an (M, M // p) array whose diagonal is (i p, i)
    (a last point past the M // p sectors, a cap's pole, is a row only).

    Entries are bitwise equal to ``helmholtz(r, kappa0)`` with r from
    ``np.linalg.norm(x_i - x_j)``: complex division by a real multiplies by
    its reciprocal, and exp of a pure imaginary is (cos, sin).  The kernel is
    evaluated in row blocks, on the upper triangle and mirrored if p = 1.
    Raises GeometryError if two distinct points coincide, and
    AllocationError (its 16 M^2 / p bytes) for a matrix over DENSE_MAX_BYTES
    or one not allocated.
    """
    z = np.asarray(points, dtype=float)
    if z.ndim != 2 or z.shape[1] != 3:
        raise GeometryError("points must be an (M, 3) array")
    m = len(z)
    n = m // stride
    nbytes = 16 * m * n
    need = f"the ({m}, {n}) kernel matrix needs {nbytes / 2**30:.3g} GiB"
    if nbytes > DENSE_MAX_BYTES:
        raise AllocationError(f"{need}, over the dense budget", nbytes=nbytes)
    try:
        out = np.empty((m, n), dtype=complex)
    except MemoryError:
        raise AllocationError(f"{need}, which could not be allocated", nbytes=nbytes) from None
    four_pi = 4.0 * np.pi
    with np.errstate(divide="ignore", invalid="ignore"):
        for i0, i1, c0, r, s in _distance_blocks(z, stride):
            zi, zj = np.nonzero(r == 0.0)
            if np.any(i0 + zi != (c0 + zj) * stride):
                raise GeometryError("coincident points make the interaction kernel singular")
            blk = out[i0:i1, c0:]
            np.multiply(four_pi, r, out=s)
            np.divide(1.0, s, out=s)  # 1/(4 pi r); inf on the diagonal, overwritten below
            np.multiply(kappa0, r, out=r)
            np.cos(r, out=blk.real)
            blk.real *= s
            np.sin(r, out=blk.imag)
            blk.imag *= s
            if stride == 1:
                out[i1:, i0:i1] = out[i0:i1, i1:].T
    out.flat[:: stride * n + 1] = diagonal  # (i p, i) is flat index i (p n + 1)
    return out


def _pair_minimum(points, transform=None) -> float:
    """min over pairs i != j of transform(|x_i - x_j|), inf without pairs, in
    the bounded row blocks of ``pair_kernel``; ``transform`` works in place."""
    best = np.inf
    for i0, i1, _, r, _ in _distance_blocks(np.asarray(points, dtype=float)):
        if transform is not None:
            transform(r)
        r[np.arange(i1 - i0), np.arange(i1 - i0)] = np.inf  # skip i == j
        best = min(best, float(r.min()))
    return best


def min_pairwise_distance(points) -> float:
    """Smallest distance between distinct points (rows of any width), inf without pairs."""
    return _pair_minimum(points)


def min_cos_kappa_distance(points, kappa0: float) -> float:
    """min over pairs i != j of cos(kappa0 |x_i - x_j|), 1 without pairs.

    Positivity backs one of the point-interaction invertibility cases; the
    value is reported as a diagnostic only.
    """
    def cos_kappa(r):
        np.multiply(kappa0, r, out=r)
        np.cos(r, out=r)

    return min(1.0, _pair_minimum(points, cos_kappa))


def far_field_sum(directions, points, weights, kappa0: float) -> np.ndarray:
    """sum_j e^{-i kappa0 d . z_j} w_j for every direction d, in column blocks
    of at most CACHE_BLOCK phases.

    Weights of shape (M,) give a (D,) result; weights of shape (M, k) give
    a (D, k) result, whose k columns share one evaluation of the phases.
    """
    d = np.asarray(directions, dtype=float)
    z = np.asarray(points, dtype=float)
    w = np.asarray(weights)
    out = np.zeros((len(d),) + w.shape[1:], dtype=complex)
    step = max(1, CACHE_BLOCK // max(len(d), 1))
    for j0 in range(0, len(z), step):
        phase = -1j * kappa0 * (d @ z[j0:j0 + step].T)
        out += np.exp(phase, out=phase) @ w[j0:j0 + step]
        del phase  # freed before the next block's phases are allocated
    return out


def grid_far_field_sum(directions, axes, weights, kappa0: float) -> np.ndarray:
    """far_field_sum over the nodes of a tensor grid, weights of shape (nx, ny, nz).

    On a grid e^{-i kappa0 d . z} factors into one phase per axis, so three
    (D, n_axis) tables and two contractions replace the (D, nx ny nz) matrix.
    The directions run in blocks whose (nx ny, D_block) partial sum holds at
    most CACHE_BLOCK entries (one direction if a plane is larger).
    """
    d = np.asarray(directions, dtype=float)
    w = np.asarray(weights, dtype=complex)
    nx, ny, nz = w.shape
    px, py, pz = (np.exp(-1j * kappa0 * np.multiply.outer(d[:, a], np.asarray(axes[a])))
                  for a in range(3))
    out = np.empty(len(d), dtype=complex)
    step = max(1, CACHE_BLOCK // (nx * ny))
    for d0 in range(0, len(d), step):
        blk = slice(d0, d0 + step)
        t = (w.reshape(nx * ny, nz) @ pz[blk].T).reshape(nx, ny, -1)
        u = np.einsum("ijd,dj->di", t, py[blk])
        out[blk] = np.einsum("di,di->d", u, px[blk])
        del t  # freed before the next block's partial sum is allocated
    return out


def _dct1(x) -> np.ndarray:
    """Type-1 DCT of a real 3-D array over axes 0, 1 and 2, bitwise equal to
    ``scipy.fft.dctn(x, type=1)``.

    On each axis the DCT-I of (x_0 .. x_n) is the real part of the real DFT
    of its even extension (x_0 .. x_n, x_{n-1} .. x_1) (Martucci, IEEE Trans.
    Signal Process. 42(5), 1994), which is how pocketfft computes it too.
    """
    for axis in range(3):
        y = np.moveaxis(x, axis, 0)
        y = rfft(np.concatenate((y, y[-2:0:-1])), axis=0).real
        x = np.moveaxis(y, 0, axis)
    return x


class LatticeConvolution:
    """Kernel matvec on the masked sites of a regular lattice by FFT.

    ``apply(v, out)`` gives, on the sites where ``mask`` is set, diagonal v_i +
    sum_{j != i} helmholtz(|z_i - z_j|) v_j: the ``pair_kernel`` matrix of
    the sites, applied as a linear convolution on the zero-padded box of
    twice the mask's shape.  The padded kernel is even in each axis, so it
    is evaluated on the octant of offsets 0..n per axis only (the aliased
    offset n is never reached by padded data and is set to zero), and its
    spectrum is the type-1 DCT of that octant (``_dct1``).  The forward
    transform of the data skips the zero-padded lines: z on the nx ny lines
    of the unpadded box, then y on nx 2nz lines, then x.  The inverse runs
    x, y, z and keeps the first n entries of each axis, 7/12 of the work of
    two full transforms.

    The padded box is never formed.  After the z pass the y and x passes,
    the product with the spectrum and the inverse x and y passes run one
    block of kz planes at a time in a (2nx, 2ny, b) chunk.  A block lies in
    one half of the z spectrum, kz = 0..nz or the mirrored nz+1..2nz-1, so
    its octant z index is one slice and the product needs only the four
    mirrored (x, y) corners.  Every line is transformed and every entry
    multiplied as in one padded box, so the result does not depend on b.

    Memory: the operator holds one (nx, ny, 2nz) complex buffer for the z
    transform, one chunk of at most BLOCK_ENTRIES // 4 complex entries
    (1 MiB; one plane if a plane is larger), the (nx+1, ny+1, nz+1) octant
    spectrum and the flat z-buffer index of each masked site (intp): 3.5 MiB
    on a full 36^3 box and 15.2 MiB on a full 64^3 box, against 5.7 and 32
    MiB for one padded box.  Every transform runs in place in these
    buffers, and the sites are scattered into and gathered from the z buffer
    by their indices, so ``apply`` writes into the caller's ``out`` and
    allocates no vector of its own.  What it does allocate are NumPy's ufunc buffers for the
    product on the mirrored corners, whose strides match no single loop:
    0.37 MiB at 36^3.  It is not re-entrant, and one instance serves one
    caller at a time.  A box of more than MAX_CELLS sites is refused
    (ConfigError) before anything is allocated: the buffers scale with the
    box, not with the masked sites.
    """

    def __init__(self, mask, spacing: float, kappa0: float, diagonal):
        self.mask = np.asarray(mask, dtype=bool)
        self.dims = nx, ny, nz = self.mask.shape
        box = math.prod(self.dims)
        if box > MAX_CELLS:
            raise ConfigError(f"lattice box {self.dims} of {box} sites exceeds the cap "
                              f"{MAX_CELLS}")
        ox, oy, oz = np.ix_(*(np.arange(n + 1) * spacing for n in self.dims))
        with np.errstate(divide="ignore", invalid="ignore"):
            octant = helmholtz(np.sqrt(ox**2 + oy**2 + oz**2), kappa0)
        octant[0, 0, 0] = diagonal
        octant[-1] = octant[:, -1] = octant[:, :, -1] = 0.0
        self._khat = np.empty(octant.shape, dtype=complex)
        self._khat.real = _dct1(octant.real)
        self._khat.imag = _dct1(octant.imag)
        # the transform of an even sequence is even: padded frequency k is
        # octant frequency k for k <= n and 2n - k above, so each of the four
        # (low, high) corners of a padded (x, y) plane is an octant slice
        halves = [((slice(0, n + 1), slice(0, n + 1)), (slice(n + 1, 2 * n), slice(n - 1, 0, -1)))
                  for n in (nx, ny)]
        self._corners = [tuple(zip(*pairs)) for pairs in itertools.product(*halves)]
        # kz blocks (k0, k1, octant z slice), none straddling the two halves
        planes = max(1, min(nz + 1, BLOCK_ENTRIES // 4 // (4 * nx * ny)))
        self._blocks = []
        for lo, hi in ((0, nz + 1), (nz + 1, 2 * nz)):
            for k0 in range(lo, hi, planes):
                k1 = min(k0 + planes, hi)
                oz = slice(k0, k1) if lo == 0 else slice(2 * nz - k0, 2 * nz - k1, -1)
                self._blocks.append((k0, k1, oz))
        # site (i, j, k), C-order index f = (i ny + j) nz + k in the mask,
        # sits at (i ny + j) 2nz + k = f + (f // nz) nz in the z buffer
        self._sites = np.flatnonzero(self.mask)
        self._sites += self._sites // nz * nz
        self._zwork = np.empty((nx, ny, 2 * nz), dtype=complex)
        self._chunk = np.empty(4 * nx * ny * planes, dtype=complex)

    def apply(self, values, out=None) -> np.ndarray:
        """The kernel sum at every masked site, ``values`` given there.

        Written into ``out`` (a new complex vector if None), which may be
        ``values`` itself: the values are copied into the z buffer first.
        """
        nx, ny, nz = self.dims
        z = self._zwork
        flat = z.reshape(-1)
        # each pass first zeroes the padding it reads; ``out=`` the view it
        # reads writes the transform back into that view, with no copy
        z[...] = 0.0
        flat[self._sites] = values
        fft(z, axis=2, out=z)
        for k0, k1, oz in self._blocks:
            c = self._chunk[:4 * nx * ny * (k1 - k0)].reshape(2 * nx, 2 * ny, k1 - k0)
            cx = c[:nx]
            cx[:, :ny] = z[:, :, k0:k1]
            cx[:, ny:] = 0.0
            fft(cx, axis=1, out=cx)
            c[nx:] = 0.0
            fft(c, axis=0, out=c)
            for (px, py), (ox, oy) in self._corners:
                c[px, py] *= self._khat[ox, oy, oz]
            ifft(c, axis=0, out=c)
            ifft(cx, axis=1, out=cx)
            z[:, :, k0:k1] = cx[:, :ny]
        ifft(z, axis=2, out=z)
        if out is None:
            out = np.empty(len(self._sites), dtype=complex)
        # mode="clip" gathers straight into ``out``; "raise" fills a copy first
        return np.take(flat, self._sites, out=out, mode="clip")


def cocg(matvec, rhs, precondition, rtol: float, max_iter: int) -> tuple:
    """(x, iterations) with A x = rhs, A complex symmetric (A = A^T), by
    preconditioned conjugate orthogonal conjugate gradients (van der Vorst &
    Melissen, IEEE Trans. Magn. 26(2), 1990).

    CG with the unconjugated bilinear form u^T v in place of the inner
    product: one ``matvec`` per iteration and four vectors instead of a
    Krylov basis, x, r, p and a work vector w, all updated in place by
    numpy alone: r -= alpha A p scales A p in w first, and x += alpha p
    then forms alpha p in w.
    ``rhs`` becomes r: a writable C-contiguous complex vector is taken over
    and overwritten with the residual, anything else is copied, so a caller
    passes a temporary and no second copy of it lives through the solve.
    ``matvec(p, out)`` writes A p into ``out`` (w); once r is updated,
    ``precondition(r, out)`` writes the preconditioned residual z = M^{-1} r
    into w, which only forms r^T z and the next p.  A Jacobi preconditioner
    divides by the diagonal of A or an approximation of it.  Stops once
    ||rhs - A x||_2 <= rtol ||rhs||_2; a zero right-hand side returns zero
    at once.  A breakdown (p^T A p or r^T z zero or not finite before
    convergence) or ``max_iter`` matvecs without convergence raise
    SolverError carrying the matvec count as ``iterations``.
    """
    r = np.require(rhs, dtype=complex, requirements="CW")
    del rhs
    x = np.zeros_like(r)
    stop = rtol * np.linalg.norm(r)
    if stop == 0.0:
        return x, 0
    w = np.empty_like(r)
    precondition(r, w)
    p = w.copy()
    rho = r @ w
    for it in range(max_iter):
        if rho == 0.0 or not np.isfinite(rho):
            raise SolverError(f"COCG broke down (r^T z = {rho}) after {it} matvecs",
                              iterations=it)
        matvec(p, w)
        mu = p @ w
        if mu == 0.0 or not np.isfinite(mu):
            raise SolverError(f"COCG broke down (p^T A p = {mu}) after {it + 1} matvecs",
                              iterations=it + 1)
        alpha = rho / mu
        w *= -alpha
        r += w
        np.multiply(p, alpha, out=w)
        x += w
        if np.linalg.norm(r) <= stop:
            return x, it + 1
        precondition(r, w)
        rho, rho_old = r @ w, rho
        p *= rho / rho_old
        p += w
    raise SolverError(f"COCG did not converge in {max_iter} matvecs", iterations=max_iter)


class LatticeSystem:
    """Complex-symmetric system G + self_weight I + diag(1/coefficient) on
    the masked sites of a regular lattice, in C order, never formed: one
    ``LatticeConvolution`` applies the kernel matrix G of the sites with
    ``self_weight`` on its diagonal, and 1/coefficient (a scalar or one value
    per site) is added after its gather, through its z buffer as scratch.
    Point scatterers C have self weight 0 and coefficient C, the cells of a
    voxel potential w_self / g^3 and V0 g^3 (Foldy, Phys. Rev. 67(3-4),
    1945; Lax, Phys. Rev. 85(4), 1952).  ``solve`` runs Jacobi ``cocg`` to
    relative residual ``rtol`` within MAX_MATVECS matvecs under the contract
    max|A x - b| <= residual_tol (1 + max|x unknown_scale|), with one
    refinement run if that misses (COCG stops on the 2-norm); SolverError
    carries the matvecs of both runs as ``iterations``, as does the system
    after a solve.  The box cap of ``LatticeConvolution`` applies.
    """

    cond_estimate = None  # no matrix is formed

    def __init__(self, mask, spacing: float, kappa0: float, self_weight, coefficient,
                 rtol: float, residual_tol: float, name: str, unknown_scale=1.0):
        self.convolution = LatticeConvolution(mask, spacing, kappa0, self_weight)
        self._inverse = 1.0 / coefficient
        self._diagonal = self_weight + self._inverse
        self._scratch = self.convolution._zwork.reshape(-1)[:len(self.convolution._sites)]
        self.rtol = rtol
        self.residual_tol = residual_tol
        self.name = name
        self.unknown_scale = unknown_scale
        self.iterations = None

    def __len__(self):
        return len(self._scratch)

    def _matvec(self, p, out):
        """out = A p, ``out`` other than p."""
        self.convolution.apply(p, out=out)
        out += np.multiply(p, self._inverse, out=self._scratch)

    def _precondition(self, r, out):
        np.divide(r, self._diagonal, out=out)

    def _residual(self, x, b) -> tuple:
        """(A x - b, written into b, and whether it misses the contract).  A
        NaN residual or bound misses it."""
        bound = self.residual_tol * (1.0 + np.abs(x * self.unknown_scale).max())
        ax = np.empty_like(x)
        self._matvec(x, ax)
        resid = np.subtract(ax, b, out=b)
        return resid, not np.abs(resid).max() <= bound

    def solve(self, rhs) -> tuple:
        """(x, residual) for one right-hand side, residual = max|A x - b|.

        ``rhs`` is b, or a function forming b as a new vector on each call:
        COCG takes that vector over, so no copy of b lives through it.
        """
        make = rhs if callable(rhs) else np.asarray(rhs, dtype=complex).copy
        x, self.iterations = cocg(self._matvec, make(), self._precondition, self.rtol,
                                  MAX_MATVECS)
        resid, missed = self._residual(x, make())
        if missed:
            try:
                dx, more = cocg(self._matvec, np.negative(resid, out=resid), self._precondition,
                                self.rtol, MAX_MATVECS)
            except SolverError as exc:
                exc.iterations += self.iterations  # the first run's matvecs count too
                raise
            x += dx
            self.iterations += more
            resid, missed = self._residual(x, make())
        residual = float(np.abs(resid).max())
        if missed:
            raise SolverError(f"{self.name} residual {residual:.3e} above contract tolerance",
                              iterations=self.iterations)
        return x, residual


def _norm1(a):
    """The max row sum of |a| over contiguous row blocks of at most
    CACHE_BLOCK entries: the 1-norm of a^T, and of a symmetric a; of an
    (R, P, R) array, the P max row sums of its blocks a[:, q, :]."""
    step = max(1, CACHE_BLOCK // max(a[0].size, 1))
    return np.max([np.abs(a[i:i + step]).sum(axis=-1).max(axis=0)
                   for i in range(0, len(a), step)], axis=0)


def _dense_routines() -> tuple:
    """({routine: ctypes function}, index dtype) of the dense solve's LAPACK
    and BLAS routines in the library that ``numpy.linalg`` links, resolved
    on the first call.

    ``dlsym`` on a handle of numpy's ``_umath_linalg`` extension also
    searches the libraries it depends on, so this maps no new library.  The
    first of ``_SYMBOL_FORMS`` that names all of ``_DENSE_ROUTINES`` is
    taken; SolverError names the routine each form lacks and numpy's BLAS if
    none does.
    """
    global _lapack
    if _lapack is None:
        library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        lacking = []
        for prefix, suffix, index in _SYMBOL_FORMS:
            names = [f"{prefix}{routine}{suffix}" for routine in _DENSE_ROUTINES]
            absent = [name for name in names if not hasattr(library, name)]
            if absent:
                lacking.append(absent[0])
                continue
            routines = {routine: getattr(library, name)
                        for routine, name in zip(_DENSE_ROUTINES, names)}
            for function in routines.values():
                function.restype = None
            _lapack = routines, np.dtype(index)
            break
        else:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            raise SolverError(f"numpy's BLAS ({blas.get('name')} {blas.get('version')}) "
                              f"exports none of {', '.join(lacking)}")
    return _lapack


def _lapack_refs(routine: str, *args) -> tuple:
    """(function, arguments) of a ``_DENSE_ROUTINES`` call by the Fortran
    convention: arrays by address (kept alive by the caller), None as a
    null pointer, ints (the LAPACK index type) and floats by reference,
    characters as one-byte strings, their lengths appended.  Plain ctypes
    objects: numpy's ``ctypes`` casts take some 3 us an argument."""
    functions, index = _dense_routines()
    integer = ctypes.c_int64 if index.itemsize == 8 else ctypes.c_int32
    refs = [ctypes.c_void_p(arg.ctypes.data) if type(arg) is np.ndarray else
            ctypes.byref(integer(arg)) if type(arg) is int else
            arg if type(arg) is bytes or arg is None else
            ctypes.byref((ctypes.c_double * 2)(arg.real, arg.imag)) if type(arg) is complex else
            ctypes.byref(ctypes.c_double(arg)) for arg in args]
    return functions[routine], refs + [ctypes.c_size_t(1)] * sum(type(a) is bytes for a in args)


def _lapack_call(routine: str, *args):
    """Call a ``_DENSE_ROUTINES`` routine on ``args`` (see ``_lapack_refs``)."""
    function, refs = _lapack_refs(routine, *args)
    function(*refs)


class DirectSystem:
    """Complex-symmetric system A = A^T of P-fold rotational symmetry, given
    by its sector-0 columns and factored in place once, one block per mode.

    Unknown r P + k is unknown r P turned by k sectors, so A[rP + k, sP + l]
    = c[r, (k - l) mod P, s] for the (N, R) columns c, 0, P, 2P, ..., as
    (R, P, R); P = 1 is the whole matrix.  A last unknown fixed by the turn
    (a cap's pole) has its couplings in the columns' last row and ``pole``
    on the diagonal.  The first solve FFTs the columns in place over the
    sector index into the mode blocks B_q (Mautz & Harrington, Appl. Sci.
    Res. 20, 1969), B_{P-q} = B_q^T.  Modes 0 and P/2 get Bunch-Kaufman
    LDL^T (``zsytrf``), whose unwritten triangle and saved diagonal still
    give B_q x (``zsymm``); of each pair q, P - q, ``zgetrf`` overwrites
    B_q, ``zgetrs`` with or without transpose solves both, and B_{P-q}
    gives both products.  The pole borders the system as one Schur pivot.
    P = 1 is the in-place LDL^T of the whole matrix, with no FFT or copy.
    The blocks are the only 16 N R-byte array held; columns over
    DENSE_MAX_BYTES raise AllocationError before any allocation.

    ``cond_estimate`` is a 1-norm estimate, max_q ||B_q||_1 max_q
    ||B_q^{-1}||_1 from ``zsycon``/``zgecon`` (the pivot a 1 x 1 block),
    not A's exact condition number; a singular block or pivot, or a
    reciprocal below ``rcond_min``, raises SolverError carrying it.  Each
    solve refines once if max|A x - b| misses residual_tol (1 + max|u|),
    u = x * unknown_scale, and raises if it still does; residuals come from
    A, not from the factors.  The C-order block is LAPACK's B_q^T (leading
    dimension P R), so its upper triangle is LAPACK's lower one ("L").
    """

    iterations = None  # a direct solve runs no Krylov iteration

    def __init__(self, columns, residual_tol: float, rcond_min: float = 0.0,
                 name: str = "dense system", unknown_scale=1.0, sectors: int = 1, pole=None):
        n, r = np.shape(columns)
        if 16 * n * r > DENSE_MAX_BYTES:
            raise AllocationError(f"the ({n}, {r}) columns need {16 * n * r / 2**30:.3g} GiB, "
                                  "over the dense budget", nbytes=16 * n * r)
        self.matrix = np.ascontiguousarray(columns, dtype=complex)
        self.residual_tol = residual_tol
        self.rcond_min = rcond_min
        self.name = name
        self.unknown_scale = unknown_scale
        self.sectors = sectors
        self.pole = pole
        self.cond_estimate = None  # set by the factorization

    def __len__(self):
        return len(self.matrix)

    def factor(self):
        """The factorization (computed once), then the condition guard.

        The first factorization in a process resolves the routines in the
        LAPACK that numpy links (``_dense_routines``), and raises SolverError
        if it exports none of the forms tried.
        """
        if self.cond_estimate is None:
            rcond = self._factor()
            self.cond_estimate = float(1.0 / max(rcond, 1e-300))
            self._singular = rcond == 0.0 or rcond < self.rcond_min
        if self._singular:
            raise SolverError(f"{self.name} is numerically singular "
                              f"(condition estimate {self.cond_estimate:.3e})",
                              cond_estimate=self.cond_estimate)

    def _factor(self) -> float:
        """Every mode block factored in place, then the Schur pivot; the
        reciprocal condition estimate, 0 if singular."""
        _, index = _dense_routines()
        p, r = self.sectors, self.matrix.shape[1]
        self._blocks = blocks = self.matrix[:r * p].reshape(r, p, r)
        if p > 1:
            fft(blocks, axis=1, out=blocks)
        norms = _norm1(blocks)  # ||B_q^T||_1, B_q^T being LAPACK's view of block q
        info = self._info = np.zeros(1, dtype=index)  # the prepared solves' too
        work = np.empty(2 * r, dtype=complex)
        rcond = np.zeros(1)
        self._ipiv, self._diagonals, self._solvers = {}, {}, [None] * p
        estimates = []  # (||B_q||_1, its reciprocal condition estimate) of each mode
        for q in range(p // 2 + 1):
            b = blocks[:, q, :]
            ipiv = self._ipiv[q] = np.empty(r, dtype=index)
            if 2 * q % p == 0:  # self-paired: complex symmetric
                self._diagonals[q] = b.diagonal().copy()
                size = np.empty(1, dtype=complex)
                _lapack_call("zsytrf", b"L", r, b, r * p, ipiv, size, -1, info)  # workspace query
                lwork = np.empty(max(1, int(size[0].real)), dtype=complex)
                _lapack_call("zsytrf", b"L", r, b, r * p, ipiv, lwork, len(lwork), info)
                del lwork
                factored = info[0] == 0
                _lapack_call("zsycon", b"L", r, b, r * p, ipiv, norms[q], rcond, work, info)
                estimates.append((norms[q], float(rcond[0]) if factored else 0.0))
                solves = [(q, "zsytrs", b"L")]
            else:
                # LAPACK's B_q^T = B_{P-q}: its 1-norm is ||B_{P-q}||_1, its
                # infinity-norm ||B_q||_1, so the two estimates are those modes'
                _lapack_call("zgetrf", r, r, b, r * p, ipiv, info)
                factored = info[0] == 0
                for kind, anorm in ((b"1", norms[q]), (b"I", norms[p - q])):
                    _lapack_call("zgecon", kind, r, b, r * p, anorm, rcond, work,
                                 np.empty(2 * r), info)
                    estimates.append((anorm, float(rcond[0]) if factored else 0.0))
                solves = [(q, "zgetrs", b"T"), (p - q, "zgetrs", b"N")]
            for mode, routine, kind in solves:  # each with its right-hand side to fill in
                self._solvers[mode] = _lapack_refs(routine, kind, r, 1, b, r * p, ipiv, None, r,
                                                   info)
        if len(estimates) == 1 and self.pole is None:  # P = 1: zsycon's own, bit for bit
            return estimates[0][1]
        if min(rc for _, rc in estimates) == 0.0:
            return 0.0
        if self.pole is not None:
            # Schur pivot s = pole - a^T A_0^{-1} a of the fixed unknown, whose
            # couplings a are the same in every sector: mode 0 alone, P a_0
            couplings = self.matrix[r * p]
            inverse = self._solve_modes(couplings.copy()[None])[0]
            self._border = couplings, inverse, self.pole - p * (couplings @ inverse)
            pivot = abs(self._border[2])
            if not 0.0 < pivot < math.inf:
                return 0.0
            estimates.append((pivot, 1.0))
        # 1 / (max_q ||B_q||_1 max_q ||B_q^{-1}||_1), ||B^{-1}||_1 = 1 / (rcond ||B||_1)
        return min(anorm * rc for anorm, rc in estimates) / max(anorm for anorm, _ in estimates)

    def _solve_modes(self, y) -> np.ndarray:
        """B_q^{-1} y[q] for rows q = 0, 1, ... of the C-order array y, in
        place, by the calls ``_factor`` prepared: ``zsytrs``, or ``zgetrs`` on
        the LU factors of B_q^T (of B_{P-q}^T for q > P/2), transposed for
        q < P/2."""
        address = y.ctypes.data
        for q, (function, refs) in enumerate(self._solvers[:len(y)]):
            refs[6] = ctypes.c_void_p(address + q * y.strides[0])
            function(*refs)
        return y

    def _spectrum(self, v) -> tuple:
        """(the (P, R) mode spectrum of v's turned unknowns, a new array, and
        v's fixed unknown or None); for P = 1, v's unknowns as one row."""
        p, r = self.sectors, self.matrix.shape[1]
        v = np.asarray(v, dtype=complex)
        spectrum = (np.array(v[:r])[None] if p == 1 else
                    np.ascontiguousarray(fft(v[:r * p].reshape(r, p), axis=1).T))
        return spectrum, (v[r * p] if self.pole is not None else None)

    def _synthesis(self, spectrum, fixed) -> np.ndarray:
        """The unknowns of a (P, R) mode spectrum and a fixed unknown."""
        x = spectrum[0] if self.sectors == 1 else ifft(spectrum.T, axis=1).reshape(-1)
        return x if fixed is None else np.append(x, fixed)

    def _substitute(self, b) -> np.ndarray:
        """A^{-1} b from the factors, as a new vector."""
        y, fixed = self._spectrum(b)
        self._solve_modes(y)
        if fixed is not None:  # the border: x = y - A_0^{-1} a xi
            couplings, inverse, pivot = self._border
            fixed = (fixed - couplings @ y[0]) / pivot
            y[0] -= self.sectors * fixed * inverse
        return self._synthesis(y, fixed)

    def _matvec(self, x) -> np.ndarray:
        """A x from the blocks that hold A: the unwritten triangles and saved
        diagonals of the self-paired modes (``zsymm``), and for the pairs
        q < P/2 < P - q the untouched B_{P-q}, which gives B_{P-q} x and
        B_q x = B_{P-q}^T x, all pairs in two batched products."""
        p, r = self.sectors, self.matrix.shape[1]
        spectrum, fixed = self._spectrum(x)
        ax = np.zeros_like(spectrum)
        for q, diagonal in self._diagonals.items():
            b = self._blocks[:, q, :]
            _lapack_call("zsymm", b"L", b"U", r, 1, 1.0 + 0j, b, r * p, spectrum[q], r, 0j,
                         ax[q], r)
            ax[q] += (diagonal - b.diagonal()) * spectrum[q]
        high = p // 2 + 1  # the modes P - q of the pairs, then their q in the same order
        if high < p:
            kept = self._blocks[:, high:, :].transpose(1, 0, 2)
            ax[high:] = np.matmul(kept, spectrum[high:, :, None])[..., 0]
            low = slice(p - high, 0, -1)
            ax[low] = np.matmul(kept.transpose(0, 2, 1), spectrum[low, :, None])[..., 0]
        if fixed is not None:
            couplings = self._border[0]
            ax[0] += p * fixed * couplings
            fixed = couplings @ spectrum[0] + self.pole * fixed
        return self._synthesis(ax, fixed)

    def _residual(self, x, b) -> tuple:
        """(A x - b, whether it misses the contract).  A NaN residual or
        bound misses it."""
        resid = self._matvec(x) - b
        bound = self.residual_tol * (1.0 + np.abs(x * self.unknown_scale).max())
        return resid, not np.abs(resid).max() <= bound

    def solve(self, rhs) -> tuple:
        """(x, residual) for one right-hand side, residual = max|A x - b|."""
        self.factor()
        b = np.asarray(rhs, dtype=complex)
        x = self._substitute(b)
        resid, missed = self._residual(x, b)
        if missed:
            x = x - self._substitute(resid)
            resid, missed = self._residual(x, b)
        residual = float(np.abs(resid).max())
        if missed:
            raise SolverError(f"{self.name} residual {residual:.3e} exceeds contract tolerance",
                              cond_estimate=self.cond_estimate)
        return x, residual
