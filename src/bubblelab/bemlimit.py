"""Single-layer BEM for the high-regime Dirichlet limits, plus the Mie oracle.

Exterior Dirichlet problem on closed surfaces and the Dirichlet crack problem
on open ones, both by collocation with the surface-module panel weights:
S phi = -u^I on the surface, scattered field S phi, far field in the shared
kernel convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import eval_legendre, spherical_jn, spherical_yn

from .errors import ConfigError, SolverError
from .fields import FarField
from .kernels import DenseSystem, far_field_sum
from .meshes import SurfaceMesh
from .surfmedium import panel_weight_matrix, single_layer_eval

BEM_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class LayerDensity:
    """Single-layer density per panel; edge-singular on open surfaces."""

    values: np.ndarray

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
    holds the residual contract max|W phi + u^I| <= 1e-8 (1 + max|phi|).
    """
    system = DenseSystem(panel_weight_matrix(mesh, incident.kappa0), BEM_RESIDUAL_TOL,
                         rcond_min=1e-12,
                         name="single-layer system (near an interior Dirichlet resonance?)")
    phi, _ = system.solve(-incident.at(mesh.centroids))
    d = np.asarray(directions, dtype=float)
    values = far_field_sum(d, mesh.centroids, phi * mesh.areas, incident.kappa0)
    return LayerDensity(values=phi), FarField(d, values)


def scattered_field(density: LayerDensity, mesh: SurfaceMesh, kappa0: float, points):
    """u_D^s = S phi with near-accurate panel quadrature."""
    return single_layer_eval(mesh, density.values, kappa0, points)


def boundary_condition_defect(density: LayerDensity, mesh: SurfaceMesh, incident,
                              probes) -> float:
    """max |u^I + S phi| / max |u^I| at the given surface probe points."""
    total = incident.at(probes) + scattered_field(density, mesh, incident.kappa0, probes)
    return float(np.abs(total).max() / np.abs(incident.at(probes)).max())


def edge_growth_report(density: LayerDensity, mesh: SurfaceMesh, n_rings: int = 4) -> dict:
    """Mean |phi| bucketed by distance to the open boundary (diagnostic).

    On rim-graded open meshes the density should grow toward the edge:
    the report flags monotone growth across the last rings.
    """
    if mesh.is_closed:
        raise ConfigError("edge growth is defined for open meshes only")
    edge_pts = []
    for (i, j) in mesh.boundary_edges:
        edge_pts.append(0.5 * (mesh.vertices[i] + mesh.vertices[j]))
    edge_pts = np.array(edge_pts)
    d = np.min(np.linalg.norm(mesh.centroids[:, None, :] - edge_pts[None, :, :], axis=2), axis=1)
    order = np.argsort(d)
    buckets = np.array_split(order, n_rings)
    means = [float(np.abs(density.values[b]).mean()) for b in buckets]
    return {
        "ring_means": means,  # nearest-to-edge first
        "monotone_toward_edge": bool(means[0] > means[1] > means[2]),
    }


def sphere_dirichlet_wavenumbers(radius: float, k_max: float):
    """Interior Dirichlet resonances of a ball: zeros of j_n(k R) below k_max."""
    from scipy.optimize import brentq

    zeros = []
    n = 0
    while True:
        xs = np.linspace(1e-6, k_max * radius, max(64, int(20 * k_max * radius)))
        vals = spherical_jn(n, xs)
        found = []
        for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
            if fa * fb < 0:
                found.append(brentq(lambda x: spherical_jn(n, x), a, b) / radius)
        if not found:
            break
        zeros.extend(found)
        n += 1
    return np.array(sorted(zeros))


def check_away_from_sphere_resonance(kappa0: float, radius: float, rel_tol: float = 1e-3):
    """Caller-side guard: reject kappa0 within rel_tol of a ball resonance."""
    zeros = sphere_dirichlet_wavenumbers(radius, kappa0 * 1.5 + 1.0)
    if len(zeros) and np.min(np.abs(zeros - kappa0)) < rel_tol * kappa0:
        nearest = zeros[np.argmin(np.abs(zeros - kappa0))]
        raise SolverError(
            f"kappa0={kappa0!r} sits at an interior Dirichlet resonance "
            f"(nearest {nearest!r}); perturb kappa0"
        )


def mie_soft_sphere(kappa0: float, radius: float, directions, theta,
                    return_terms: bool = False):
    """Analytic sound-soft sphere far field in the shared kernel convention.

    Pattern (4 pi i / kappa0) sum_n (2n+1) j_n(ka)/h_n(ka) P_n(x_hat . theta),
    truncated at 4 ceil(ka) + 20 terms.  In this convention the long-wave
    limit is the isotropic monopole -4 pi radius (the e^{ikr}/r amplitude
    times 4 pi).
    """
    if kappa0 <= 0 or radius <= 0:
        raise ConfigError("kappa0 and radius must be positive")
    ka = kappa0 * radius
    if ka > 50:
        raise ConfigError("series validated for kappa0 * radius <= 50")
    d = np.asarray(directions, dtype=float)
    cosang = d @ np.asarray(theta, dtype=float)
    n_max = int(4 * np.ceil(ka) + 20)
    values = np.zeros(len(d), dtype=complex)
    term_mags = np.zeros(n_max + 1)
    for n in range(n_max + 1):
        hn = spherical_jn(n, ka) + 1j * spherical_yn(n, ka)
        coeff = (2 * n + 1) * spherical_jn(n, ka) / hn
        term_mags[n] = abs(coeff)
        values += coeff * eval_legendre(n, cosang)
    values *= 4.0 * np.pi * 1j / kappa0
    ff = FarField(d, values)
    if return_terms:
        return ff, term_mags
    return ff
