"""Lippmann-Schwinger volume solver for the equivalent volumetric medium.

Collocation at voxel centers of

    Y(z) + Int_Omega Phi(z, y) V0(y) Y(y) dy = u^I(z),

with off-diagonal weights Phi(z_i, z_j) g^3 and an equal-volume-ball closed
form on the diagonal.  With X = V0 g^3 Y this is the point-interaction
system of the cell centres, of coefficient V0 g^3 (Foldy, Phys. Rev.
67(3-4), 1945), so the volume solve is the ``kernels.LatticeSystem`` that
the lattice point solve uses.  While COCG runs the solve holds 4 cell
vectors (COCG's), the operator's quarter-box z buffer, 1 MiB chunk, octant
spectrum and site indices, and no Krylov basis.  A constant density's
potential V0 is one number, so the coefficient and the Jacobi diagonal are
scalars; a grid density's are one value per cell, by broadcasting alone.
u^I is written one x slab at a time, from that slab's centres, into the
vector COCG takes over, and again for each residual check.  The far field
sums over the grid separably (``kernels.grid_far_field_sum``), one phase
table per axis, from a weight array filled in place over the same slab
walk (``VoxelGrid.slabs``).  A grid keeps its mask; its masked cell
centres are built on each use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
from .fields import FarField
from .kernels import LatticeSystem, grid_far_field_sum

LS_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class VoxelGrid:
    """Regular cubic-cell grid with an inside mask realizing chi_Omega."""

    origin: np.ndarray  # corner of the voxel box
    g: float  # cell side
    dims: tuple
    mask: np.ndarray  # boolean (nx, ny, nz)

    @staticmethod
    def cover(domain, n: int) -> "VoxelGrid":
        """Cubic cells covering the domain bounding box, masked by the center rule."""
        lo, hi = domain.bounding_box()
        size = np.asarray(hi, float) - np.asarray(lo, float)
        g = float(size.max()) / n
        dims = tuple(max(1, int(round(size[d] / g))) for d in range(3))
        center = (np.asarray(lo, float) + np.asarray(hi, float)) / 2.0
        origin = center - np.array(dims) * g / 2.0
        box = VoxelGrid(origin, g, dims, np.ones(dims, dtype=bool))
        return VoxelGrid(origin, g, dims, domain.contains(box.centers).reshape(dims))

    def axes(self) -> list:
        """Cell-center coordinates along x, y and z."""
        return [self.origin[d] + self.g * (np.arange(self.dims[d]) + 0.5) for d in range(3)]

    @property
    def centers(self) -> np.ndarray:
        """(n_cells, 3) masked cell centres in C order, built on each access
        (24 bytes a cell): a caller uses them and lets them go."""
        return self._centers(self.mask, 0)

    def _centers(self, mask, x0: int) -> np.ndarray:
        """Centres of the cells of ``mask``, a block of x slabs from slab x0."""
        # scaled in place: temporaries lift peak RSS
        centers = np.argwhere(mask) + (x0 + 0.5, 0.5, 0.5)
        return np.add(np.multiply(centers, self.g, out=centers), self.origin, out=centers)

    def slabs(self):
        """(x, mask, first cell, end cell) of each x slab, the masked cells in C order."""
        counts = self.mask.sum(axis=(1, 2))
        ends = np.cumsum(counts)
        return zip(range(self.dims[0]), self.mask, ends - counts, ends)

    @property
    def n_cells(self) -> int:
        return int(self.mask.sum())


@dataclass(frozen=True)
class VolumePotential:
    """Real potential V0 = reduced-coefficient * (K+1): one 0-d value for a
    constant density, else one per masked cell."""

    values: np.ndarray  # () or (n_cells,); either broadcasts over the masked cells

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ConfigError("potential values must be finite and real")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_density(grid: VoxelGrid, density, coefficient: float):
        """coefficient * (K + 1): one value for a constant density, else one
        per masked cell from the cell centres."""
        if density.kind == "constant":
            return VolumePotential(values=coefficient * (density.value + 1.0))
        return VolumePotential(values=coefficient * (density(grid.centers) + 1.0))


@dataclass(frozen=True)
class LSSolution:
    y: np.ndarray  # (n_cells,) complex
    residual: float
    iterations: int  # COCG matvecs of the solve


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


def incident_on_cells(grid: VoxelGrid, incident) -> np.ndarray:
    """u^I at the masked cell centres, a new vector formed one x slab at a
    time from that slab's centres."""
    u = np.empty(grid.n_cells, dtype=complex)
    for x, inside, j0, j1 in grid.slabs():
        u[j0:j1] = incident.at(grid._centers(inside[None], x))
    return u


def assemble_and_solve(grid: VoxelGrid, potential: VolumePotential, incident) -> LSSolution:
    """Solve the collocation system (I + K V) Y = u^I, V = diag(V0 g^3).

    K is the kernel G off the diagonal and w_self / g^3 on it, so X = V Y
    solves the complex-symmetric (G + w_self / g^3 + V^{-1}) X = u^I, a
    ``kernels.LatticeSystem`` on ``grid.mask`` of coefficient V0 g^3 (one
    value or one per cell): COCG to relative residual LS_RESIDUAL_TOL / 10
    under the contract max|A X - u^I| <= LS_RESIDUAL_TOL (1 + max|Y|).  Y =
    X / (V0 g^3) is checked against its own contract, max|(I + K V) Y - u^I|
    <= LS_RESIDUAL_TOL (1 + max|Y|), whose residual is returned; a zero
    potential returns Y = u^I without a solve.  Raises SolverError, carrying
    the matvec count as ``iterations``, on breakdown, non-convergence or a
    missed contract, and ConfigError for a box over ``kernels.MAX_CELLS``.
    """
    n = grid.n_cells
    if n == 0:
        raise ConfigError("voxel mask is empty")
    if potential.values.shape not in ((), (n,)):
        raise ConfigError("potential and grid cell counts differ")
    if not np.any(potential.values):
        return LSSolution(y=incident_on_cells(grid, incident), residual=0.0, iterations=0)
    weight = potential.values * grid.g**3
    system = LatticeSystem(grid.mask, grid.g, incident.kappa0,
                           self_cell_weight(grid.g, incident.kappa0) / grid.g**3, weight,
                           LS_RESIDUAL_TOL / 10, LS_RESIDUAL_TOL, "volume solve", 1.0 / weight)
    y, _ = system.solve(lambda: incident_on_cells(grid, incident))
    np.divide(y, weight, out=y)
    u = incident_on_cells(grid, incident)
    t = weight * y
    np.add(y, system.convolution.apply(t, out=t), out=t)
    resid = float(np.abs(np.subtract(t, u, out=t)).max())
    if not resid <= LS_RESIDUAL_TOL * (1.0 + np.abs(y).max()):
        raise SolverError(f"volume solve residual {resid:.3e} above contract tolerance",
                          iterations=system.iterations)
    return LSSolution(y=y, residual=resid, iterations=system.iterations)


def far_field_volume(solution: LSSolution, potential: VolumePotential, grid: VoxelGrid,
                     kappa0: float, directions) -> FarField:
    """Pattern -sum_j e^{-ik x_hat . z_j} V0_j Y_j g^3.

    Summed separably over the voxel grid: three (D, n_axis) phase tables
    instead of a (D, n_cells) matrix.  V0 Y is written into the weight array
    one x slab at a time, so no second cell vector is formed.
    """
    d = np.asarray(directions, dtype=float)
    weights = np.zeros(grid.dims, dtype=complex)
    v0 = np.broadcast_to(potential.values, solution.y.shape)
    for x, inside, j0, j1 in grid.slabs():
        weights[x][inside] = v0[j0:j1] * solution.y[j0:j1]
    weights *= grid.g**3
    return FarField(d, -grid_far_field_sum(d, grid.axes(), weights, kappa0))

