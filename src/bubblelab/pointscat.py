"""Point-interaction multiple scattering: charges and far fields.

The cluster of M bubbles is modeled by point sources at the centers z_m whose
amplitudes solve

    (1/C) Q_m + sum_{l != m} Phi(z_l, z_m) Q_l = -u^I(z_m),

with Phi the free-space Helmholtz kernel e^{ikr}/(4 pi r).  The matrix is
complex symmetric, and ``assemble`` returns it as a ``kernels`` system: a
cluster with one centre on each of its lattice sites gets a
``LatticeSystem``, the matrix applied by FFT with 1/C as its diagonal and
solved by Jacobi COCG; any other cluster a ``DirectSystem`` factored once,
in place: a 4-fold symmetric cap cluster's (M, M/4) columns from
``kernels.pair_kernel`` in orbit order, one block per Fourier mode, and any
other cluster's dense matrix by LDL^T.  The lattice's C order and the
orbit order are one permutation, which ``solve_charges`` applies.  Each
system solves any number of incidence directions.  The far field is the
shared ``kernels.far_field_sum``, one pass over the phases for all
directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import Cluster
from .errors import ConfigError
from .fields import FarField
from .kernels import DirectSystem, LatticeSystem, far_field_sum, pair_kernel

RESIDUAL_TOL = 1e-10
LATTICE_RTOL = 1e-12  # relative 2-norm residual at which the lattice solve's COCG stops
SYSTEM_NAME = "point-interaction system"


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


def assemble(cluster, c_coeff: complex, kappa0: float):
    """The point-interaction system of ``cluster``: a Cluster, or an (M, 3)
    array of centres.

    A cluster that records lattice sites (one centre per kept volume cell)
    gets a ``kernels.LatticeSystem`` on the sites' bounding box (relative
    residual LATTICE_RTOL); any other cluster, and an array of centres, a
    ``kernels.DirectSystem`` whose matrix ``kernels.pair_kernel`` builds in
    bounded row blocks: for a cluster of ``sectors`` P > 1 only its (M, M/P)
    columns, in orbit order.  The matrix or columns are refused
    (AllocationError) over the dense budget.  Either system meets the
    contract max|A Q - b| <= RESIDUAL_TOL (1 + max|Q|) and has ``len`` M; a
    system whose unknowns are not in the cluster's own order records the
    centre of each as ``order``.
    """
    if c_coeff == 0:
        raise ConfigError("scattering coefficient must be non-zero")
    if isinstance(cluster, Cluster):
        if cluster.sites is not None:
            sites = cluster.sites - np.min(cluster.sites, axis=0)
            dims = tuple(int(n) + 1 for n in sites.max(axis=0))
            flat = np.ravel_multi_index(sites.T, dims)
            mask = np.zeros(dims, dtype=bool)
            mask.flat[flat] = True
            system = LatticeSystem(mask, cluster.pitch, kappa0, 0.0, c_coeff, LATTICE_RTOL,
                                   RESIDUAL_TOL, SYSTEM_NAME)
            system.order = np.argsort(flat)  # the centre on each masked site, in C order
            return system
        if cluster.sectors > 1:
            p, order, diagonal = cluster.sectors, cluster.orbits, 1.0 / c_coeff
            system = DirectSystem(pair_kernel(cluster.centers[order], kappa0, diagonal, p),
                                  RESIDUAL_TOL, name=SYSTEM_NAME, sectors=p,
                                  pole=diagonal if cluster.m % p else None)
            system.order = order
            return system
        cluster = cluster.centers
    return DirectSystem(pair_kernel(cluster, kappa0, diagonal=1.0 / c_coeff), RESIDUAL_TOL,
                        name=SYSTEM_NAME)


def solve_charges(system, incident: IncidentWave, centers) -> ChargeSolution:
    """Solve ``assemble``'s system for the charges with rhs -u^I(z_m).

    A direct system is factored on its first call and the factorization
    reused on later ones; either system refines once if the residual
    misses its contract.  The right-hand side is permuted into the system's
    ``order``, if it has one, and the charges back.
    """
    b = -incident.at(centers)
    if len(system) != len(b):
        raise ConfigError("system/centers size mismatch")
    order = getattr(system, "order", slice(None))
    x, residual = system.solve(b[order])
    q = np.empty_like(x)
    q[order] = x
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
