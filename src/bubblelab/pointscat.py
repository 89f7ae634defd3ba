"""Point-interaction multiple scattering: charges and far fields.

The cluster of M bubbles is modeled by point sources at the centers z_m whose
amplitudes solve

    (1/C) Q_m + sum_{l != m} Phi(z_l, z_m) Q_l = -u^I(z_m),

with Phi the free-space Helmholtz kernel e^{ikr}/(4 pi r).  The matrix comes
from ``kernels.pair_kernel`` and is complex symmetric; a ``ClusterSystem``
factors it once, in place (LDL^T), and solves any number of incidence
directions against that factorization.  The far field is the shared
``kernels.far_field_sum``, one pass over the phases for all directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import FarField
from .kernels import DenseSystem, far_field_sum, pair_kernel

RESIDUAL_TOL = 1e-10


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
    cond_estimate: float


def assemble(centers, c_coeff: complex, kappa0: float) -> np.ndarray:
    """Dense symmetric system matrix: 1/C on the diagonal, kernel off it.

    Built by ``kernels.pair_kernel`` in bounded row blocks: the only (M, M)
    allocation is the matrix, refused (AllocationError) over the dense budget.
    """
    if c_coeff == 0:
        raise ConfigError("scattering coefficient must be non-zero")
    return pair_kernel(centers, kappa0, diagonal=1.0 / c_coeff)


class ClusterSystem(DenseSystem):
    """Point-interaction matrix of one cluster, LDL^T-factored on its first solve.

    The system owns the matrix it is given and overwrites one triangle of it
    with the factors.  ``solve_charges`` takes the system, so several
    incidence directions are solved against one factorization.
    """

    def __init__(self, matrix):
        super().__init__(matrix, RESIDUAL_TOL, name="point-interaction system")


def solve_charges(system: ClusterSystem, incident: IncidentWave, centers) -> ChargeSolution:
    """Solve for the charges with rhs -u^I(z_m); record residual and conditioning.

    The system is factored (LDL^T) on its first call and the factorization
    reused on later ones; ``DenseSystem.solve`` refines once if the residual
    misses the contract residual <= RESIDUAL_TOL (1 + max|Q|).
    """
    b = -incident.at(centers)
    if system.matrix.shape != (len(b), len(b)):
        raise ConfigError("matrix/centers size mismatch")
    q, residual = system.solve(b)
    return ChargeSolution(charges=q, residual=residual, cond_estimate=system.cond_estimate)


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
