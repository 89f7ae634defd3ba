"""Point-interaction multiple scattering: charges and far fields.

The cluster of M bubbles is modeled by point sources at the centers z_m whose
amplitudes solve

    (1/C) Q_m + sum_{l != m} Phi(z_l, z_m) Q_l = -u^I(z_m),

with Phi the free-space Helmholtz kernel e^{ikr}/(4 pi r).  The matrix is
complex symmetric.  ``assemble`` picks how it is solved: a cluster with one
centre on each of its lattice sites gets a ``LatticeSystem``, which applies
the matrix by FFT (``kernels.LatticeConvolution``) and solves it by COCG;
any other cluster gets a ``ClusterSystem``, a ``kernels.DirectSystem``
factored once, in place: a 4-fold symmetric cap cluster's (M, M/4) columns
from ``kernels.pair_kernel`` in orbit order, one block per Fourier mode,
and any other cluster's dense matrix by LDL^T.  Each system solves any
number of incidence directions.  The far field is the
shared ``kernels.far_field_sum``, one pass over the phases for all
directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import Cluster
from .errors import ConfigError
from .fields import FarField
from .kernels import DirectSystem, LatticeConvolution, cocg_refined, far_field_sum, pair_kernel

RESIDUAL_TOL = 1e-10
LATTICE_RTOL = 1e-12  # relative 2-norm residual at which the lattice solve's COCG stops
MAX_MATVECS = 2000  # matvec cap of one COCG run of the lattice solve


@dataclass(frozen=True)
class IncidentWave:
    """Plane wave e^{i kappa0 x . theta} with unit direction theta."""

    kappa0: float
    theta: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        if th.shape != (3,) or abs(np.linalg.norm(th) - 1.0) > 1e-12:
            raise ConfigError("incident direction must be a unit 3-vector")
        if self.kappa0 <= 0:
            raise ConfigError("kappa0 must be positive")
        object.__setattr__(self, "theta", th)

    def at(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.exp(1j * self.kappa0 * (pts @ self.theta))


@dataclass(frozen=True)
class ChargeSolution:
    charges: np.ndarray
    residual: float
    cond_estimate: float  # None on the lattice path, which forms no matrix
    iterations: int  # COCG matvecs on the lattice path, None for a dense solve


class ClusterSystem(DirectSystem):
    """Point-interaction matrix of one cluster, or the sector-0 columns of
    its centres in ``order`` (a ``Cluster``'s ``orbits``), factored in place
    on the first solve, so all incidence directions share one factorization.
    ``solve`` takes and returns the cluster's own order.
    """

    iterations = None  # a direct solve runs no Krylov iteration

    def __init__(self, matrix, sectors: int = 1, order=None, pole=None):
        super().__init__(matrix, RESIDUAL_TOL, name="point-interaction system",
                         sectors=sectors, pole=pole)
        self._order = order

    def __len__(self):
        return len(self.matrix)

    def solve(self, rhs) -> tuple:
        if self._order is None:
            return super().solve(rhs)
        x, residual = super().solve(np.asarray(rhs, dtype=complex)[self._order])
        q = np.empty_like(x)
        q[self._order] = x
        return q, residual


class LatticeSystem:
    """Point-interaction system of a cluster with one centre on each of its
    lattice sites, applied by FFT and never formed.

    ``sites`` are the centres' integer lattice indices, in the cluster's
    (shell) order.  The matrix, kernel off the diagonal and 1/C on it, is a
    ``kernels.LatticeConvolution`` on the sites' bounding box, which orders
    them as its mask does (C order); ``solve`` permutes into that order and
    back.  It is solved by Jacobi-preconditioned COCG (the diagonal is 1/C)
    to relative residual LATTICE_RTOL within MAX_MATVECS matvecs, under the
    dense path's contract max|A Q - b| <= RESIDUAL_TOL (1 + max|Q|) with one
    refinement step (``kernels.cocg_refined``).  ``iterations`` holds the
    matvecs of the latest solve; there is no condition estimate.  The box
    cap of ``LatticeConvolution`` applies.
    """

    cond_estimate = None

    def __init__(self, sites, pitch: float, c_coeff: complex, kappa0: float):
        sites = np.asarray(sites) - np.min(sites, axis=0)
        dims = tuple(int(n) + 1 for n in sites.max(axis=0))
        flat = np.ravel_multi_index(sites.T, dims)
        mask = np.zeros(dims, dtype=bool)
        mask.flat[flat] = True
        self._order = np.argsort(flat)  # the centre on each masked site, in C order
        self._diagonal = 1.0 / c_coeff
        self._conv = LatticeConvolution(mask, pitch, kappa0, self._diagonal)
        self.iterations = None

    def __len__(self):
        return len(self._order)

    def solve(self, rhs) -> tuple:
        """(x, residual) for one right-hand side, residual = max|A x - b|."""
        conv, diagonal = self._conv, self._diagonal
        b = np.asarray(rhs, dtype=complex)[self._order]

        def recover(x) -> tuple:
            resid = conv.apply(x)
            resid -= b
            residual = float(np.abs(resid).max())
            return x, residual, not residual <= RESIDUAL_TOL * (1.0 + np.abs(x).max())

        x, residual, self.iterations = cocg_refined(
            lambda p, out: conv.apply(p, out=out), b.copy,
            lambda r, out: np.divide(r, diagonal, out=out),
            LATTICE_RTOL, MAX_MATVECS, recover, "point-interaction system")
        q = np.empty_like(x)
        q[self._order] = x
        return q, residual


def assemble(cluster, c_coeff: complex, kappa0: float):
    """The point-interaction system of ``cluster``: a Cluster, or an (M, 3)
    array of centres.

    A cluster that records lattice sites (one centre per kept volume cell)
    gets a ``LatticeSystem``; any other cluster, and an array of centres, a
    ``ClusterSystem`` whose matrix ``kernels.pair_kernel`` builds in bounded
    row blocks: for a cluster of ``sectors`` P > 1 only its (M, M/P) columns,
    in orbit order.  The matrix or columns are refused (AllocationError)
    over the dense budget.  Every system has ``len`` M.
    """
    if c_coeff == 0:
        raise ConfigError("scattering coefficient must be non-zero")
    if isinstance(cluster, Cluster):
        if cluster.sites is not None:
            return LatticeSystem(cluster.sites, cluster.pitch, c_coeff, kappa0)
        if cluster.sectors > 1:
            p, order, diagonal = cluster.sectors, cluster.orbits, 1.0 / c_coeff
            return ClusterSystem(pair_kernel(cluster.centers[order], kappa0, diagonal, p), p,
                                 order, diagonal if cluster.m % p else None)
        cluster = cluster.centers
    return ClusterSystem(pair_kernel(cluster, kappa0, diagonal=1.0 / c_coeff))


def solve_charges(system, incident: IncidentWave, centers) -> ChargeSolution:
    """Solve ``assemble``'s system for the charges with rhs -u^I(z_m).

    A direct system is factored on its first call and the factorization
    reused on later ones; either system refines once if the
    residual misses the contract residual <= RESIDUAL_TOL (1 + max|Q|).
    """
    b = -incident.at(centers)
    if len(system) != len(b):
        raise ConfigError("system/centers size mismatch")
    q, residual = system.solve(b)
    return ChargeSolution(charges=q, residual=residual, cond_estimate=system.cond_estimate,
                          iterations=system.iterations)


def far_field(solutions, centers, kappa0: float, directions):
    """Patterns sum_m e^{-ik x_hat . z_m} Q_m on the given direction grid.

    ``solutions`` is a list of ChargeSolutions on the same centres; their
    FarFields, in that order, come from one pass over the phases
    e^{-ik x_hat . z_m}.
    """
    d = np.asarray(directions, dtype=float)
    charges = np.column_stack([sol.charges for sol in solutions])
    values = far_field_sum(d, centers, charges, kappa0)
    return [FarField(d, v) for v in np.ascontiguousarray(values.T)]
