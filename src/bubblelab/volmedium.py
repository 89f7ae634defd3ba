"""Lippmann-Schwinger volume solver for the equivalent volumetric medium.

Collocation at voxel centers of

    Y(z) + Int_Omega Phi(z, y) V0(y) Y(y) dy = u^I(z),

with off-diagonal weights Phi(z_i, z_j) g^3 and an equal-volume-ball closed
form on the diagonal.  The weight matrix is symmetric and the potential
real, so scaling by the square root of the potential (imaginary where V0 < 0)
makes the system complex symmetric for either sign of V0.  It is solved by
the short-recurrence ``kernels.cocg`` with the pruned FFT-convolution matvec
``kernels.LatticeConvolution`` on the regular grid, under the residual
contract and refinement step of ``kernels.cocg_refined``, which the lattice
point-interaction solve shares.  While COCG runs the
solve holds 4 cell vectors (COCG's), the operator's quarter-box z buffer,
1 MiB chunk, octant spectrum and site indices, and no Krylov basis.  A
constant density's potential V0 is one number, so its square root S and the
Jacobi diagonal 1 + V0 w_self are scalars; a grid density's V0 and S are
one value per cell, by broadcasting alone.  The right-hand side S u^I
becomes COCG's residual, and the symmetric matvec runs in place in COCG's
work vector through the FFT matvec's ``out``.  u^I is written one x slab at
a time, from that slab's centres, into the vector COCG takes over, and again
into a new vector to recover Y.  The far field sums over the grid separably
(``kernels.grid_far_field_sum``), one phase table per axis, from a weight
array filled in place over the same slab walk (``VoxelGrid.slabs``).
A grid keeps its mask; its masked cell centres are built on each use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import FarField
from .kernels import LatticeConvolution, cocg_refined, grid_far_field_sum

LS_RESIDUAL_TOL = 1e-8
LS_MAX_MATVECS = 2000  # matvec cap of one COCG run (one matvec per iteration)


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

    K is symmetric, so with S = sqrt(V) (imaginary where V0 < 0) the system
    is equivalent to the complex-symmetric (I + S K S) Z = S u^I, Z = S Y.
    That is solved by ``kernels.cocg`` with the FFT matvec and the Jacobi
    diagonal 1 + V0 w_self, to relative residual LS_RESIDUAL_TOL / 10 within
    LS_MAX_MATVECS matvecs, and Y is recovered as u^I - K (S Z), not as
    Z / S, so V0 = 0 gives Y = u^I exactly.  V0 is one value or one per
    cell, and S and that diagonal take its shape by broadcasting.  The residual of Y itself is
    checked against the contract max|(I + K V) Y - u^I| <= LS_RESIDUAL_TOL
    (1 + max|Y|); if it misses, one refinement step solves for the
    correction to Z (a second COCG run under the same cap) and the check is
    repeated (``kernels.cocg_refined``).  Raises SolverError, carrying the
    matvec count as ``iterations``, on breakdown, non-convergence or a missed
    contract, and ConfigError for a box over ``kernels.MAX_CELLS``.
    """
    n = grid.n_cells
    if n == 0:
        raise ConfigError("voxel mask is empty")
    if potential.values.shape not in ((), (n,)):
        raise ConfigError("potential and grid cell counts differ")
    v0 = potential.values
    w_self = self_cell_weight(grid.g, incident.kappa0)
    # the cell volume g^3 rides in the potential, so the kernel's off-diagonal
    # weight is Phi itself and its diagonal is w_self / g^3
    conv = LatticeConvolution(grid.mask, grid.g, incident.kappa0, w_self / grid.g**3)
    sqrt_v = np.sqrt((v0 * grid.g**3).astype(complex))

    def s_incident():
        """S u^I, a new vector."""
        u = incident_on_cells(grid, incident)
        return np.multiply(sqrt_v, u, out=u)

    def symmetric_matvec(z, out):
        """out = z + S K (S z), in place in out."""
        np.multiply(sqrt_v, z, out=out)
        conv.apply(out, out=out)
        np.multiply(sqrt_v, out, out=out)
        np.add(z, out, out=out)

    def jacobi(r, out):
        """out = r / (1 + V0 w_self)."""
        np.divide(r, 1.0 + v0 * w_self, out=out)

    def recover(z) -> tuple:
        """Y = u^I - K (S Z), max|(I + K V) Y - u^I| and whether that misses the contract."""
        u = incident_on_cells(grid, incident)
        y = sqrt_v * z
        np.subtract(u, conv.apply(y, out=y), out=y)
        t = v0 * grid.g**3 * y
        np.add(y, conv.apply(t, out=t), out=t)
        np.subtract(t, u, out=t)
        resid = float(np.abs(t).max())
        return y, resid, not resid <= LS_RESIDUAL_TOL * (1.0 + np.abs(y).max())

    # S u^I is COCG's residual from the start, so no copy of it stays here
    y, resid, iterations = cocg_refined(symmetric_matvec, s_incident, jacobi,
                                        LS_RESIDUAL_TOL / 10, LS_MAX_MATVECS, recover,
                                        "volume solve")
    return LSSolution(y=y, residual=resid, iterations=iterations)


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

