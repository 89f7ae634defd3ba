"""Single-layer BEM for the high-regime Dirichlet limits, plus the Mie oracle.

Exterior Dirichlet problem on closed surfaces and the Dirichlet crack problem
on open ones, both by collocation with the surface-module panel weights:
S phi = -u^I on the surface, scattered field S phi, far field in the shared
kernel convention.  The collocation matrix W = K diag(area), K the
surface-module panel kernel, is solved in the complex-symmetric form
K psi = -u^I with psi = area phi, by the solver ``surfmedium.panel_system``
picks: one block per Fourier mode on a rotationally symmetric mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import FarField
from .kernels import far_field_sum
from .meshes import SurfaceMesh
from .surfmedium import panel_system, panel_weight_matrix

BEM_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class LayerDensity:
    """Single-layer density per panel; edge-singular on open surfaces."""

    values: np.ndarray
    residual: float  # max|W phi + u^I| of the collocation solve

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if not np.all(np.isfinite(vals.view(float))):
            raise ConfigError("layer density must be finite")
        object.__setattr__(self, "values", vals)


def solve_dirichlet(mesh: SurfaceMesh, incident, directions):
    """Collocation solve of S phi = -u^I; returns the density and far field.

    Works unchanged for closed surfaces (exterior Dirichlet) and open ones
    (crack problem; use rim-graded meshes since the true density blows up at
    the edge).  Near an interior Dirichlet resonance of the enclosed domain
    the system degenerates; a condition-estimate guard reports it.  The solve
    holds the residual contract max|W phi + u^I| <= 1e-8 (1 + max|phi|); the
    symmetric solve has the same residual vector, K psi - b = W phi - b.
    """
    system = panel_system(mesh, panel_weight_matrix(mesh, incident.kappa0), BEM_RESIDUAL_TOL,
                          1e-12, "single-layer system (near an interior Dirichlet resonance?)")
    psi, residual = system.solve(-incident.at(mesh.centroids))
    d = np.asarray(directions, dtype=float)
    values = far_field_sum(d, mesh.centroids, psi, incident.kappa0)
    return LayerDensity(values=psi / mesh.areas, residual=residual), FarField(d, values)


def mie_soft_sphere(kappa0: float, radius: float, directions, theta):
    """Analytic sound-soft sphere far field in the shared kernel convention.

    Pattern (4 pi i / kappa0) sum_n (2n+1) j_n(ka)/h_n(ka) P_n(x_hat . theta),
    truncated at 4 ceil(ka) + 20 terms.  In this convention the long-wave
    limit is the isotropic monopole -4 pi radius (the e^{ikr}/r amplitude
    times 4 pi).
    """
    # imported here, not at start-up: only the tests and scripts/bem_vs_mie.py
    # call the oracle, and no converge run needs scipy.special
    from scipy.special import eval_legendre, spherical_jn, spherical_yn

    if kappa0 <= 0 or radius <= 0:
        raise ConfigError("kappa0 and radius must be positive")
    ka = kappa0 * radius
    if ka > 50:
        raise ConfigError("series validated for kappa0 * radius <= 50")
    d = np.asarray(directions, dtype=float)
    cosang = d @ np.asarray(theta, dtype=float)
    n_max = int(4 * np.ceil(ka) + 20)
    values = np.zeros(len(d), dtype=complex)
    for n in range(n_max + 1):
        hn = spherical_jn(n, ka) + 1j * spherical_yn(n, ka)
        values += (2 * n + 1) * spherical_jn(n, ka) / hn * eval_legendre(n, cosang)
    values *= 4.0 * np.pi * 1j / kappa0
    return FarField(d, values)
