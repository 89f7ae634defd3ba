"""Shared numerical layer: the Helmholtz pair kernel, far-field sums, dense solves.

Every solver in the package evaluates the kernel through ``helmholtz``,
builds its dense matrix with ``pair_kernel``, sums its far field with
``far_field_sum`` (or ``grid_far_field_sum`` on a voxel grid) and factors
dense systems through ``DenseSystem``.

Memory model: ``pair_kernel`` fills its (M, M) output in row blocks whose
temporaries hold at most BLOCK_ENTRIES entries each, and the far-field sums
bound their phase matrices the same way, so a dense solve peaks at about the
matrix plus its LU copy (2 x 16 M^2 bytes) and never at an (M, M, 3)
difference array.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zgecon

from .errors import GeometryError, SolverError

BLOCK_ENTRIES = 1 << 18  # entries per temporary: 2 MiB of float64


def helmholtz(r, kappa0: float):
    """Free-space kernel e^{i kappa0 r} / (4 pi r), elementwise in r."""
    return np.exp(1j * kappa0 * r) / (4.0 * np.pi * r)


def _upper_blocks(m: int):
    """Row blocks (i0, i1) of an (m, m) upper triangle, each covering columns
    i0:m in at most BLOCK_ENTRIES entries."""
    i0 = 0
    while i0 < m:
        i1 = min(m, i0 + max(1, BLOCK_ENTRIES // (m - i0)))
        yield i0, i1
        i0 = i1


def _block_distances(points, i0, i1, out, scratch):
    """|x_i - x_j| for rows i0:i1 and columns j >= i0 into ``out``, summed in
    the order ``np.linalg.norm(..., axis=-1)`` uses, so r_ij == r_ji bitwise."""
    for axis in range(3):
        dst = out if axis == 0 else scratch
        np.subtract.outer(points[i0:i1, axis], points[i0:, axis], out=dst)
        np.multiply(dst, dst, out=dst)
        if axis:
            out += scratch
    np.sqrt(out, out=out)


def pair_kernel(points, kappa0: float, diagonal, col_weights=None) -> np.ndarray:
    """Square matrix e^{i kappa0 r_ij} / (4 pi r_ij) (times col_weights[j]) off the
    diagonal, ``diagonal`` (scalar or per point) on it.

    Entries are bitwise equal to ``helmholtz(r, kappa0) * w_j`` with r from
    ``np.linalg.norm(x_i - x_j)``: complex division by a real multiplies by
    its reciprocal, and exp of a pure imaginary is (cos, sin).  The kernel is
    evaluated on the upper triangle, in row blocks, and mirrored.  Raises
    GeometryError if two distinct points coincide.
    """
    z = np.asarray(points, dtype=float)
    if z.ndim != 2 or z.shape[1] != 3:
        raise GeometryError("points must be an (M, 3) array")
    m = len(z)
    out = np.empty((m, m), dtype=complex)
    r_buf = np.empty(min(max(BLOCK_ENTRIES, m), m * m))
    s_buf = np.empty_like(r_buf)
    four_pi = 4.0 * np.pi
    with np.errstate(divide="ignore", invalid="ignore"):
        for i0, i1 in _upper_blocks(m):
            shape = (i1 - i0, m - i0)
            r = r_buf[: shape[0] * shape[1]].reshape(shape)
            s = s_buf[: shape[0] * shape[1]].reshape(shape)
            _block_distances(z, i0, i1, r, s)
            zi, zj = np.nonzero(r == 0.0)
            if np.any(zi != zj):
                raise GeometryError("coincident points make the interaction kernel singular")
            blk = out[i0:i1, i0:]
            np.multiply(four_pi, r, out=s)
            np.divide(1.0, s, out=s)  # 1/(4 pi r); inf on the diagonal, overwritten below
            np.multiply(kappa0, r, out=r)
            np.cos(r, out=blk.real)
            blk.real *= s
            np.sin(r, out=blk.imag)
            blk.imag *= s
            out[i1:, i0:i1] = out[i0:i1, i1:].T
    if col_weights is not None:
        out.real *= col_weights
        out.imag *= col_weights
    out.flat[:: m + 1] = diagonal
    return out


def min_cos_kappa_distance(points, kappa0: float) -> float:
    """min over pairs i != j of cos(kappa0 |x_i - x_j|), in bounded row blocks.

    Positivity backs one of the point-interaction invertibility cases; the
    value is reported as a diagnostic only.
    """
    z = np.asarray(points, dtype=float)
    m = len(z)
    best = 1.0
    for i0, i1 in _upper_blocks(m):
        r = np.empty((i1 - i0, m - i0))
        _block_distances(z, i0, i1, r, np.empty_like(r))
        np.multiply(kappa0, r, out=r)
        np.cos(r, out=r)
        r[np.arange(i1 - i0), np.arange(i1 - i0)] = np.inf  # skip i == j
        best = min(best, float(r.min()))
    return best


def far_field_sum(directions, points, weights, kappa0: float) -> np.ndarray:
    """sum_j e^{-i kappa0 d . z_j} w_j for every direction d, in column blocks."""
    d = np.asarray(directions, dtype=float)
    z = np.asarray(points, dtype=float)
    w = np.asarray(weights)
    out = np.zeros(len(d), dtype=complex)
    step = max(1, BLOCK_ENTRIES // max(len(d), 1))
    for j0 in range(0, len(z), step):
        out += np.exp(-1j * kappa0 * (d @ z[j0:j0 + step].T)) @ w[j0:j0 + step]
    return out


def grid_far_field_sum(directions, axes, weights, kappa0: float) -> np.ndarray:
    """far_field_sum over the nodes of a tensor grid, weights of shape (nx, ny, nz).

    On a grid e^{-i kappa0 d . z} factors into one phase per axis, so three
    (D, n_axis) tables and two contractions replace the (D, nx ny nz) matrix.
    """
    d = np.asarray(directions, dtype=float)
    w = np.asarray(weights, dtype=complex)
    nx, ny, nz = w.shape
    px, py, pz = (np.exp(-1j * kappa0 * np.multiply.outer(d[:, a], np.asarray(axes[a])))
                  for a in range(3))
    t = (w.reshape(nx * ny, nz) @ pz.T).reshape(nx, ny, len(d))
    u = np.einsum("ijd,dj->di", t, py)
    return np.einsum("di,di->d", u, px)


def _norm1(a) -> float:
    """Max column sum of |a| (the 1-norm), in column blocks of bounded size."""
    step = max(1, BLOCK_ENTRIES // max(len(a), 1))
    return max(float(np.abs(a[:, j:j + step]).sum(axis=0).max())
               for j in range(0, a.shape[1], step))


class DenseSystem:
    """Dense LU of one square matrix, factored on the first solve and reused.

    The factorization is guarded by a LAPACK 1-norm condition estimate
    (``zgecon``): an exactly singular factor, or a reciprocal condition below
    ``rcond_min``, raises SolverError carrying ``cond_estimate``.  Each solve
    applies one step of iterative refinement when the residual misses the
    contract max|A x - b| <= residual_tol (1 + max|x|), and raises if it still
    misses it.  Holds the matrix and its LU copy until dropped.
    """

    def __init__(self, matrix, residual_tol: float, rcond_min: float = 0.0,
                 name: str = "dense system"):
        self.matrix = np.asarray(matrix, dtype=complex)
        self.residual_tol = residual_tol
        self.rcond_min = rcond_min
        self.name = name
        self.cond_estimate = None
        self._lu = None

    def factor(self):
        """LU factors (computed once) after the condition-estimate guard."""
        if self._lu is None:
            lu, piv = lu_factor(self.matrix)
            rcond, info = zgecon(lu, _norm1(self.matrix))
            cond = float(1.0 / max(rcond, 1e-300))
            if info != 0 or rcond == 0.0 or rcond < self.rcond_min:
                raise SolverError(f"{self.name} is numerically singular "
                                  f"(condition estimate {cond:.3e})", cond_estimate=cond)
            self._lu = (lu, piv)
            self.cond_estimate = cond
        return self._lu

    def solve(self, rhs) -> tuple:
        """(x, residual) with residual = max|A x - b| under the contract."""
        lu = self.factor()
        b = np.asarray(rhs, dtype=complex)
        x = lu_solve(lu, b)
        resid = self.matrix @ x - b
        if np.abs(resid).max() > self.residual_tol * (1.0 + np.abs(x).max()):
            x = x - lu_solve(lu, resid)
            resid = self.matrix @ x - b
        residual = float(np.abs(resid).max())
        if residual > self.residual_tol * (1.0 + np.abs(x).max()):
            raise SolverError(f"{self.name} residual {residual:.3e} exceeds contract tolerance",
                              cond_estimate=self.cond_estimate)
        return x, residual
