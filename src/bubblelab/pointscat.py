"""Point-interaction multiple scattering: charges, near and far fields.

The cluster of M bubbles is modeled by point sources at the centers z_m whose
amplitudes solve

    (1/C) Q_m + sum_{l != m} Phi(z_l, z_m) Q_l = -u^I(z_m),

with Phi the free-space Helmholtz kernel e^{ikr}/(4 pi r).  The matrix comes
from ``kernels.pair_kernel``; a ``ClusterSystem`` factors it once and solves
any number of incidence directions against that LU.  The far field is the
shared ``kernels.far_field_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ConfigError, GeometryError, RegimeError, SolverError
from .fields import FarField
from .kernels import (DenseSystem, far_field_sum, helmholtz, min_cos_kappa_distance,
                      pair_kernel)
from .materials import ContrastParams, RegimeReport

RESIDUAL_TOL = 1e-10
DENSE_MAX = 8192


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
    min_cos_kappa_d: float  # invertibility diagnostic, reported not enforced
    invertibility: Optional[tuple] = None  # ledger entries from the classifier


def helmholtz_kernel(x, y, kappa0):
    """e^{ik|x-y|} / (4 pi |x-y|), broadcasting over leading axes."""
    return helmholtz(np.linalg.norm(np.asarray(x, float) - np.asarray(y, float), axis=-1),
                     kappa0)


def assemble(centers, c_coeff: complex, kappa0: float) -> np.ndarray:
    """Dense symmetric system matrix: 1/C on the diagonal, kernel off it.

    Built by ``kernels.pair_kernel`` in bounded row blocks, so the only
    (M, M) allocation is the matrix itself.
    """
    if c_coeff == 0:
        raise ConfigError("scattering coefficient must be non-zero")
    z = np.asarray(centers, dtype=float)
    if z.ndim != 2 or z.shape[1] != 3:
        raise GeometryError("centers must be an (M, 3) array")
    return pair_kernel(z, kappa0, diagonal=1.0 / c_coeff)


class ClusterSystem(DenseSystem):
    """Point-interaction matrix of one cluster, LU-factored on its first solve.

    Pass it to ``solve_charges`` in place of the matrix to solve several
    incidence directions against one factorization; ``min_cos_kappa_d`` is
    likewise computed once, on the first solve.
    """

    def __init__(self, matrix):
        super().__init__(matrix, RESIDUAL_TOL, name="point-interaction system")
        self.min_cos_kappa_d = None


def solve_charges(
    matrix,
    incident: IncidentWave,
    centers,
    contrast: Optional[ContrastParams] = None,
    dense_max: int = DENSE_MAX,
) -> ChargeSolution:
    """Solve for the charges with rhs -u^I(z_m); record residual and conditioning.

    ``matrix`` is the assembled array or a ``ClusterSystem`` wrapping it,
    whose LU is then reused across calls.  Dense LU with partial pivoting up
    to ``dense_max`` unknowns, then GMRES with diagonal preconditioning
    (relative residual 1e-10 or failure).  One step of iterative refinement is
    applied if the direct residual misses the contract
    residual <= 1e-10 (1 + max|Q|).
    """
    system = matrix if isinstance(matrix, ClusterSystem) else ClusterSystem(matrix)
    z = np.asarray(centers, dtype=float)
    b = -incident.at(z)
    m = len(b)
    a = system.matrix
    if a.shape != (m, m):
        raise ConfigError("matrix/centers size mismatch")

    if m <= dense_max:
        q, residual = system.solve(b)
        cond = system.cond_estimate
    else:
        dinv = 1.0 / np.diag(a)
        op = LinearOperator(a.shape, matvec=lambda v: a @ v, dtype=complex)
        pre = LinearOperator(a.shape, matvec=lambda v: dinv * v, dtype=complex)
        q, info = gmres(op, b, rtol=RESIDUAL_TOL, atol=0.0, M=pre, maxiter=2000)
        if info != 0:
            raise SolverError(f"iterative solve did not converge (info={info})", iterations=info)
        cond = float("nan")
        residual = float(np.abs(a @ q - b).max())
        if residual > RESIDUAL_TOL * (1.0 + np.abs(q).max()):
            raise SolverError(f"residual {residual:.3e} exceeds contract tolerance")
    if system.min_cos_kappa_d is None:
        system.min_cos_kappa_d = min_cos_kappa_distance(z, incident.kappa0)
    ledger = None
    if contrast is not None:
        from .materials import classify_regime

        try:
            ledger = tuple(
                (name, ok)
                for name, ok in classify_regime(contrast).satisfied
                if name.startswith("fl-invert")
            )
        except RegimeError:
            ledger = None
    return ChargeSolution(
        charges=q,
        residual=residual,
        cond_estimate=cond,
        min_cos_kappa_d=system.min_cos_kappa_d,
        invertibility=ledger,
    )


def far_field(solution: ChargeSolution, centers, kappa0: float, directions) -> FarField:
    """Pattern sum_m e^{-ik x_hat . z_m} Q_m on the given direction grid."""
    d = np.asarray(directions, dtype=float)
    return FarField(d, far_field_sum(d, centers, solution.charges, kappa0))


def near_field(solution: ChargeSolution, centers, kappa0: float, x) -> complex:
    """Scattered field sum_m Phi(x, z_m) Q_m at a point away from all centers.

    For |x| -> infinity, 4 pi |x| e^{-ik|x|} times this value tends to the
    far-field pattern at x_hat (kernel convention).
    """
    z = np.asarray(centers, dtype=float)
    pt = np.asarray(x, dtype=float)
    r = np.linalg.norm(z - pt[None, :], axis=1)
    if np.any(r == 0.0):
        raise GeometryError("near-field evaluation at a bubble center")
    return complex(helmholtz(r, kappa0) @ solution.charges)


def predicted_remainder(regime: RegimeReport, params: ContrastParams, a: float):
    """Power-of-a scale of the point-approximation remainder for the active branch.

    Away branch exponents {2-s, 3-gamma-2t-s}; near branch
    {2-s-2h1, 3-2t-2s-2h1}.  Returns (a**min_exponent, exponents); only the
    a-power is meaningful, never a bound constant.
    """
    if regime.regime not in ("Low", "MediumVolumetricA", "MediumVolumetricB",
                             "MediumNearResonance", "High"):
        raise RegimeError(f"invalid regime {regime.regime!r}")
    s, t, g = params.s, params.t, params.gamma
    if params.near_resonance:
        h1 = params.h1
        exponents = (2.0 - s - 2.0 * h1, 3.0 - 2.0 * t - 2.0 * s - 2.0 * h1)
    else:
        exponents = (2.0 - s, 3.0 - g - 2.0 * t - s)
    return float(a ** min(exponents)), exponents
