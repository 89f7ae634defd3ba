"""Lippmann-Schwinger volume solver for the equivalent volumetric medium.

Collocation at voxel centers of

    Y(z) + h_star * Int_Omega Phi(z, y) V0(y) Y(y) dy = u^I(z),

with off-diagonal weights Phi(z_i, z_j) g^3 and an equal-volume-ball closed
form on the diagonal.  Direct dense solve (``kernels.pair_kernel`` weights,
``kernels.DenseSystem`` LU) for small cell counts, otherwise GMRES with an
FFT-convolution matvec on the regular grid.  The far field sums over the grid
separably (``kernels.grid_far_field_sum``), one phase table per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import fftn, ifftn
from scipy.sparse.linalg import LinearOperator, lgmres

from .errors import ConfigError, SolverError
from .fields import FarField
from .kernels import DenseSystem, grid_far_field_sum, helmholtz, pair_kernel

LS_RESIDUAL_TOL = 1e-8
DIRECT_MAX = 4096


@dataclass(frozen=True)
class VoxelGrid:
    """Regular cubic-cell grid with an inside mask realizing chi_Omega."""

    origin: np.ndarray  # corner of the voxel box
    g: float  # cell side
    dims: tuple
    mask: np.ndarray  # boolean (nx, ny, nz)

    def __post_init__(self):
        if self.g <= 0:
            raise ConfigError("cell side must be positive")
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=bool))
        if self.mask.shape != tuple(self.dims):
            raise ConfigError("mask shape must match dims")

    @staticmethod
    def cover(domain, n: int) -> "VoxelGrid":
        """Cubic cells covering the domain bounding box, masked by the center rule."""
        lo, hi = domain.bounding_box()
        size = np.asarray(hi, float) - np.asarray(lo, float)
        g = float(size.max()) / n
        dims = tuple(max(1, int(round(size[d] / g))) for d in range(3))
        center = (np.asarray(lo, float) + np.asarray(hi, float)) / 2.0
        origin = center - np.array(dims) * g / 2.0
        grid = VoxelGrid(origin, g, dims, np.ones(dims, dtype=bool))
        mask = domain.contains(grid.all_centers()).reshape(dims)
        return VoxelGrid(origin, g, dims, mask)

    def axes(self) -> list:
        """Cell-center coordinates along x, y and z."""
        return [self.origin[d] + self.g * (np.arange(self.dims[d]) + 0.5) for d in range(3)]

    def all_centers(self) -> np.ndarray:
        xx, yy, zz = np.meshgrid(*self.axes(), indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])

    def centers(self) -> np.ndarray:
        return self.all_centers()[self.mask.ravel()]

    @property
    def n_cells(self) -> int:
        return int(self.mask.sum())

    def coverage_report(self, domain=None) -> dict:
        """Masked volume vs domain volume (symmetric-difference diagnostic)."""
        masked = self.n_cells * self.g**3
        out = {"masked_volume": masked, "cell_side": self.g}
        if domain is not None and hasattr(domain, "volume"):
            out["domain_volume"] = domain.volume()
            out["volume_difference"] = abs(masked - domain.volume())
        return out


@dataclass(frozen=True)
class VolumePotential:
    """Per-cell real potential V0 = reduced-coefficient * (K+1), with h_star.

    h_star is the strength multiplier of the integral term; in blow-up sweeps
    it plays the role of the inverse-square semiclassical scale, i.e.
    h = h_star**-0.5 (h_star = a^(s*-s) in the regime runs, 1 in the medium
    regime where s = s*).
    """

    values: np.ndarray  # (n_cells,) on the masked cells
    h_star: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ConfigError("potential values must be finite and real")
        if self.h_star <= 0:
            raise ConfigError("h_star must be positive")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_density(grid: VoxelGrid, density, coefficient: float, h_star: float = 1.0):
        kvals = density(grid.centers())
        return VolumePotential(values=coefficient * (kvals + 1.0), h_star=h_star)


@dataclass(frozen=True)
class LSSolution:
    y: np.ndarray  # (n_cells,) complex
    residual: float
    h_star: float
    method: str


def self_cell_weight(g: float, kappa0: float) -> complex:
    """Integral of the kernel over one cell about its center.

    Equal-volume-ball closed form r_eq^2/2 for the 1/(4 pi r) part plus a
    midpoint correction i kappa0 g^3/(4 pi) for the bounded remainder
    (e^{i kappa0 r} - 1)/(4 pi r); about 2% accurate vs subdivision.
    """
    if g <= 0:
        raise ConfigError("cell side must be positive")
    r_eq = (3.0 * g**3 / (4.0 * math.pi)) ** (1.0 / 3.0)
    return r_eq**2 / 2.0 + 1j * kappa0 * g**3 / (4.0 * math.pi)


class _GridConvolution:
    """FFT circulant convolution with the kernel weights on the full grid."""

    def __init__(self, grid: VoxelGrid, kappa0: float):
        self.grid = grid
        dims = grid.dims
        g = grid.g
        shape = tuple(2 * d for d in dims)
        offs = []
        for d in range(3):
            o = np.arange(shape[d])
            o = np.where(o < dims[d], o, o - shape[d])  # 0..n-1, then negative wrap
            offs.append(o * g)
        ox, oy, oz = np.meshgrid(*offs, indexing="ij")
        r = np.sqrt(ox**2 + oy**2 + oz**2)
        kern = np.zeros(shape, dtype=complex)
        nz = r > 0
        kern[nz] = helmholtz(r[nz], kappa0) * g**3
        kern[0, 0, 0] = self_cell_weight(g, kappa0)
        # the aliased +/- n offsets are never reached by zero-padded fields
        for d, n in enumerate(dims):
            index = [slice(None)] * 3
            index[d] = n
            kern[tuple(index)] = 0.0
        self._khat = fftn(kern)
        self._shape = shape

    def apply(self, cell_values: np.ndarray) -> np.ndarray:
        """Sum_j w_ij v_j on masked cells, v given on masked cells."""
        dims = self.grid.dims
        full = np.zeros(dims, dtype=complex)
        full[self.grid.mask] = cell_values
        pad = np.zeros(self._shape, dtype=complex)
        pad[: dims[0], : dims[1], : dims[2]] = full
        conv = ifftn(fftn(pad) * self._khat)[: dims[0], : dims[1], : dims[2]]
        return conv[self.grid.mask]


def _dense_weights(grid: VoxelGrid, kappa0: float) -> np.ndarray:
    return pair_kernel(grid.centers(), kappa0, diagonal=self_cell_weight(grid.g, kappa0),
                       col_weights=grid.g**3)


def assemble_and_solve(grid: VoxelGrid, potential: VolumePotential, incident,
                       direct_max: int = DIRECT_MAX, max_cells: int = 64**3) -> LSSolution:
    """Solve the collocation system (I + h_star W diag(V0)) Y = u^I.

    Dense LU (with one refinement step) up to ``direct_max`` cells, then
    GMRES with the FFT matvec and diagonal preconditioning (relative residual
    1e-8 or failure).
    """
    n = grid.n_cells
    if n == 0:
        raise ConfigError("voxel mask is empty")
    if n != len(potential.values):
        raise ConfigError("potential and grid cell counts differ")
    if n > max_cells:
        raise ConfigError(f"cell count {n} exceeds the configured cap {max_cells}")
    z = grid.centers()
    rhs = incident.at(z)
    hv = potential.h_star * potential.values

    if n <= direct_max:
        a = _dense_weights(grid, incident.kappa0)
        a *= hv[None, :]
        a.flat[:: n + 1] += 1.0
        y, resid = DenseSystem(a, LS_RESIDUAL_TOL, name="volume system").solve(rhs)
        method = "dense-lu"
    else:
        conv = _GridConvolution(grid, incident.kappa0)

        def matvec(v):
            return v + conv.apply(hv * v)

        diag = 1.0 + hv * self_cell_weight(grid.g, incident.kappa0)
        op = LinearOperator((n, n), matvec=matvec, dtype=complex)
        pre = LinearOperator((n, n), matvec=lambda v: v / diag, dtype=complex)
        y, info = lgmres(op, rhs, M=pre, rtol=LS_RESIDUAL_TOL / 10, atol=0.0, maxiter=400)
        if info != 0:
            raise SolverError(f"volume solve did not converge (info={info})", iterations=info)
        resid = np.abs(matvec(y) - rhs).max()
        method = "fft-lgmres"

    if resid > LS_RESIDUAL_TOL * (1.0 + np.abs(y).max()):
        raise SolverError(f"volume solve residual {resid:.3e} above contract tolerance")
    return LSSolution(y=y, residual=float(resid), h_star=potential.h_star, method=method)


def far_field_volume(solution: LSSolution, potential: VolumePotential, grid: VoxelGrid,
                     kappa0: float, directions) -> FarField:
    """Pattern -h_star sum_j e^{-ik x_hat . z_j} V0_j Y_j g^3.

    Summed separably over the voxel grid: three (D, n_axis) phase tables
    instead of a (D, n_cells) matrix.
    """
    d = np.asarray(directions, dtype=float)
    weights = np.zeros(grid.dims, dtype=complex)
    weights[grid.mask] = potential.h_star * potential.values * solution.y * grid.g**3
    return FarField(d, -grid_far_field_sum(d, grid.axes(), weights, kappa0))


def total_field_eval(solution: LSSolution, potential: VolumePotential, grid: VoxelGrid,
                     incident, points) -> np.ndarray:
    """Representation u(x) = u^I(x) - h_star sum_j w(x, z_j) V0_j Y_j.

    Uses the same quadrature as the solver: kernel times g^3 away from cells,
    the self-cell closed form when x falls inside a cell.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    z = grid.centers()
    out = np.asarray(incident.at(pts), dtype=complex).copy()
    strengths = potential.h_star * potential.values * solution.y
    w_self = self_cell_weight(grid.g, incident.kappa0)
    for i, x in enumerate(pts):
        r = np.linalg.norm(z - x[None, :], axis=1)
        inside = np.all(np.abs(z - x[None, :]) <= grid.g / 2.0 + 1e-12, axis=1)
        w = np.empty(len(z), dtype=complex)
        far = ~inside
        w[far] = helmholtz(r[far], incident.kappa0) * grid.g**3
        w[inside] = w_self
        out[i] -= strengths @ w
    return out if len(out) > 1 else out[0]
