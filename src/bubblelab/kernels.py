"""Shared numerical layer: the Helmholtz pair kernel, far-field sums, dense
solves, the lattice convolution and a short-recurrence Krylov solve.

Every solver in the package evaluates the kernel through ``helmholtz``,
builds its dense matrix with ``pair_kernel``, sums its far field with
``far_field_sum`` (or ``grid_far_field_sum`` on a voxel grid) and solves
its dense systems, all complex symmetric, through ``DenseSystem``, or
through ``CyclicSystem`` one block per Fourier mode when a panel mesh of P
rotational sectors makes the matrix block circulant.  On a masked regular
lattice the same kernel matrix is applied without being formed:
``LatticeConvolution`` is its matvec by zero-padded FFTs that skip the
lines of the padding, and ``cocg`` solves a complex-symmetric system from
such a matvec alone; ``cocg_refined`` adds the residual contract and one
refinement step that the lattice point solve and the volume solve share.

The dense solve's BLAS and LAPACK routines (``zsytrf``, ``zsytrs``,
``zsycon``, ``zsymm``) come from the OpenBLAS that ``numpy.linalg`` links,
called through ``ctypes`` and resolved once, on the first factorization in
a process, from a handle on numpy's ``_umath_linalg`` extension, whose
``dlsym`` also searches the libraries it depends on.  So no library is
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
and the 1-norm of ``DenseSystem`` row blocks.  Every entry of the kernel
matrix and every pair distance is computed as it would be in one block, so
these results do not depend on the block size.
``grid_far_field_sum`` keeps its (nx ny, D) partial sums to the same
CACHE_BLOCK entries.  The chunk of ``LatticeConvolution`` holds
BLOCK_ENTRIES // 4 complex entries (1 MiB): at 36^3 a 2 MiB chunk makes
``apply`` at most 3 % faster and a 0.5 MiB one 7-10 % slower.  The
quadrature of ``meshes.boundary_shape_factor`` keeps blocks of
BLOCK_ENTRIES (2 MiB of float64), whose GEMM blocks fix the bits of its
pinned values.
``DenseSystem`` factors the matrix in place, so a dense solve peaks at about
the matrix alone (16 M^2 bytes) and never at an (M, M, 3) difference array or
a second (M, M) copy.  ``pair_kernel``, which builds the point, surface and
Dirichlet systems, refuses a matrix over DENSE_MAX_BYTES (1 GiB: M <= 8192)
before allocating it, or one the OS refuses, with AllocationError; the same
budget bounds the (N, N/P) sector-0 columns of P sectors, and a
``CyclicSystem`` holds three such arrays: 48 N^2 / P bytes, not 16 N^2.
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
of them, so its loop allocates no vector.
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

# the symbol forms of the dense solve's routines, tried in turn: (prefix,
# suffix, LAPACK index type).  NumPy's PyPI wheels (>= 2.0) link
# scipy_openblas64_; other builds link an ILP64 or an LP64 LAPACK.
_SYMBOL_FORMS = (("scipy_", "_64_", np.int64), ("", "_64_", np.int64), ("", "_", np.int32))
_DENSE_ROUTINES = ("zsytrf", "zsycon", "zsytrs", "zsymm")
_lapack = None  # ({routine: ctypes function}, index dtype), set on the first factorization


def helmholtz(r, kappa0: float):
    """Free-space kernel e^{i kappa0 r} / (4 pi r), elementwise in r."""
    return np.exp(1j * kappa0 * r) / (4.0 * np.pi * r)


def _distance_blocks(points, stride: int = 1):
    """(i0, i1, c0, r, s) for row blocks i0:i1 of ``points`` against columns
    c0: of points[::stride] (n of them), c0 = i0 (the upper triangle) for
    stride 1 and 0 otherwise: r the (i1 - i0, n - c0) distances and s a
    scratch array of the same shape, both views of two buffers reused by
    every block of at most CACHE_BLOCK entries (one row if a row is longer)."""
    m, cols = len(points), points[::stride]
    n = len(cols)
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
    columns 0, p, 2p, ..., an (M, M/p) array whose diagonal is (i p, i).

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
    out.flat[:: m + 1] = diagonal  # (i p, i) is flat index i (m + 1)
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


def cocg_refined(matvec, rhs, precondition, rtol: float, max_iter: int, recover,
                 name: str) -> tuple:
    """(result, residual, iterations): ``cocg`` on A x = rhs(), then the
    caller's residual contract with one refinement step.

    ``rhs()`` forms the right-hand side as a new vector on each call, which
    COCG takes over; ``matvec``, ``precondition``, ``rtol`` and ``max_iter``
    are COCG's.  ``recover(x)`` returns what the caller keeps of x, its
    residual under the caller's contract and whether that misses the
    contract.  If it misses (COCG stops on the relative 2-norm of A x - b,
    which can leave the caller's residual above its bound), that result is
    freed, a second COCG run under the same cap solves A dx = rhs() - A x,
    x += dx, and the check is repeated.  Raises SolverError carrying the
    matvecs of both runs as ``iterations`` on breakdown, non-convergence or
    a missed contract.
    """
    x, iterations = cocg(matvec, rhs(), precondition, rtol, max_iter)
    result, residual, missed = recover(x)
    if missed:
        del result
        r = np.empty_like(x)
        matvec(x, r)
        try:
            dx, more = cocg(matvec, np.subtract(rhs(), r, out=r), precondition, rtol, max_iter)
        except SolverError as exc:
            exc.iterations += iterations  # the first run's matvecs count too
            raise
        x += dx
        iterations += more
        result, residual, missed = recover(x)
    if missed:
        raise SolverError(f"{name} residual {residual:.3e} above contract tolerance",
                          iterations=iterations)
    return result, residual, iterations


def _norm1(a) -> float:
    """The 1-norm of a symmetric a, max column sum of |a|, taken as its max
    row sum over contiguous row blocks of at most CACHE_BLOCK entries."""
    step = max(1, CACHE_BLOCK // max(a.shape[1], 1))
    return max(float(np.abs(a[i:i + step]).sum(axis=1).max()) for i in range(0, len(a), step))


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


def _lapack_call(routine: str, *args):
    """Call a ``_DENSE_ROUTINES`` routine by the Fortran convention: arrays by
    their data, ints (as the LAPACK index type) and other scalars by
    reference, characters as one-byte strings, their lengths appended."""
    functions, index = _dense_routines()
    refs = [arg if isinstance(arg, bytes) else
            np.asarray(arg, dtype=index if isinstance(arg, int) else None).ctypes
            for arg in args]
    functions[routine](*refs, *[ctypes.c_size_t(1)] * sum(isinstance(arg, bytes) for arg in args))


class DenseSystem:
    """Complex-symmetric dense system (A = A^T), factored in place once.

    The first solve factors the array it was given by Bunch-Kaufman LDL^T
    (``zsytrf``; Bunch & Kaufman, Math. Comp. 31, 1977), which overwrites the
    triangle on and above the diagonal and needs no second (M, M) array.  The
    triangle below the diagonal is never written, so with a copy of the
    diagonal taken before factoring it still holds A: residuals A x - b come
    from it (``zsymm``), not from the factors.  The factorization is guarded
    by a LAPACK 1-norm condition estimate (``zsycon``): an exactly singular
    factor, or a reciprocal condition below ``rcond_min``, raises SolverError
    carrying ``cond_estimate``.  Each solve applies one step of iterative
    refinement when the residual misses the contract max|A x - b| <=
    residual_tol (1 + max|u|), and raises if it still misses it.  The
    contract is measured in the caller's unknown u = x * unknown_scale.
    The C-order matrix is the Fortran-order A^T = A, so its upper triangle
    is the lower one (uplo "L") for LAPACK.
    """

    def __init__(self, matrix, residual_tol: float, rcond_min: float = 0.0,
                 name: str = "dense system", unknown_scale=1.0):
        self.matrix = np.ascontiguousarray(matrix, dtype=complex)
        self.residual_tol = residual_tol
        self.rcond_min = rcond_min
        self.name = name
        self.unknown_scale = unknown_scale
        self.cond_estimate = None  # set by the factorization

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
        """The in-place LDL^T; its reciprocal condition estimate, 0 if singular."""
        _, index = _dense_routines()
        a, m = self.matrix, len(self.matrix)
        anorm = _norm1(a)
        self._diagonal = a.diagonal().copy()
        ipiv = np.empty(m, dtype=index)
        info = np.zeros(1, dtype=index)
        size = np.empty(1, dtype=complex)
        _lapack_call("zsytrf", b"L", m, a, m, ipiv, size, -1, info)  # workspace query
        work = np.empty(max(1, int(size[0].real)), dtype=complex)
        _lapack_call("zsytrf", b"L", m, a, m, ipiv, work, len(work), info)
        del work
        factored = info[0] == 0
        rcond = np.zeros(1)
        _lapack_call("zsycon", b"L", m, a, m, ipiv, anorm, rcond,
                     np.empty(2 * m, dtype=complex), info)
        self._ipiv = ipiv
        return float(rcond[0]) if factored else 0.0

    def _substitute(self, b) -> np.ndarray:
        """A^{-1} b from the factors (``zsytrs``), as a new vector."""
        x = np.array(b, dtype=complex)
        m = len(x)
        _lapack_call("zsytrs", b"L", m, 1, self.matrix, m, self._ipiv, x, m,
                     np.zeros(1, dtype=self._ipiv.dtype))
        return x

    def _matvec(self, x) -> np.ndarray:
        """A x from the unwritten triangle (``zsymm``) and the saved diagonal."""
        m = len(x)
        ax = np.zeros(m, dtype=complex)
        _lapack_call("zsymm", b"L", b"U", m, 1, 1.0 + 0j, self.matrix, m, x, m, 0j, ax, m)
        return ax + (self._diagonal - self.matrix.diagonal()) * x

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


class CyclicSystem(DenseSystem):
    """Complex-symmetric block-circulant system of N = R P unknowns, given
    by its (N, R) columns 0, P, 2P, ... and factored once, one block a mode.

    On a mesh of P sectors, panel r P + k being panel r P turned by
    2 pi k / P, A[rP + k, sP + l] = c[r, (k - l) mod P, s] with c the columns
    as (R, P, R).  One FFT over the sector index turns A into P R x R
    blocks, one per azimuthal Fourier mode (the body-of-revolution method:
    Mautz & Harrington, Appl. Sci. Res. 20, 1969), which the first solve
    inverts by batched LU.  A's singular values are the blocks', so
    ``cond_estimate`` is A's exact 2-norm condition number.  A x and
    A^{-1} b are block products between two FFTs, so residuals come from A
    itself; the guard, the contract and its refinement step are
    ``DenseSystem``'s.  The columns, the blocks and their inverses hold
    16 N R bytes each; columns over DENSE_MAX_BYTES are refused
    (AllocationError) before anything is allocated.
    """

    def __init__(self, columns, residual_tol: float, rcond_min: float = 0.0,
                 name: str = "block-circulant system", unknown_scale=1.0):
        n, r = np.shape(columns)
        if 16 * n * r > DENSE_MAX_BYTES:
            raise AllocationError(f"the ({n}, {r}) columns need {16 * n * r / 2**30:.3g} GiB, "
                                  "over the dense budget", nbytes=16 * n * r)
        super().__init__(columns, residual_tol, rcond_min, name, unknown_scale)

    def _factor(self) -> float:
        """The blocks and their inverses; A's reciprocal 2-norm condition number."""
        n, r = self.matrix.shape
        self._blocks = fft(self.matrix.reshape(r, n // r, r), axis=1).transpose(1, 0, 2)
        try:
            sv = np.linalg.svd(self._blocks, compute_uv=False)
            self._inverse = np.linalg.inv(self._blocks)
        except np.linalg.LinAlgError:  # not finite, or singular
            return 0.0
        return float(sv.min() / sv.max())

    def _modes(self, blocks, v) -> np.ndarray:
        """The block circulant of mode blocks ``blocks`` applied to v."""
        spectrum = fft(np.reshape(v, (-1, len(blocks))), axis=1)
        return ifft(np.einsum("qrs,sq->rq", blocks, spectrum), axis=1).reshape(-1)

    def _substitute(self, b) -> np.ndarray:
        return self._modes(self._inverse, b)

    def _matvec(self, x) -> np.ndarray:
        return self._modes(self._blocks, x)
