"""Surface (metasurface) integral equation with density sigma on Sigma.

Collocation at panel centroids of

    Y(z) + sigma * Int_Sigma Phi(z, y) Y(y) ds(y) = u^I(z),

with centroid-rule off-diagonal weights and, on the diagonal, the exact
integral of 1/(4 pi r) over the panel's flat fan triangles (the edge-wise
closed form of Wilton et al., IEEE TAP 32(3), 1984) plus a midpoint term for
the bounded remainder.  The represented total field satisfies [u] = 0 and
[du/dn] = sigma * u across Sigma (jump bracket: outside minus inside along
the panel normal).  ``panel_weight_matrix`` is the complex-symmetric kernel
matrix, or on a mesh of P > 1 rotational sectors (a sphere cap) its sector-0
columns, that this solve and the Dirichlet solve of ``bemlimit`` both solve
through ``panel_system``, one ``kernels.DirectSystem``: one Fourier mode at
a time on a cap, by dense LDL^T on any other mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import FarField
from .kernels import BLOCK_ENTRIES, DirectSystem, far_field_sum, helmholtz, pair_kernel
from .meshes import SurfaceMesh, subdivide_triangles, triangle_areas

SIE_RESIDUAL_TOL = 1e-8
_NEAR_FACTOR = 6.0  # single_layer_eval: panels within this many radii get near quadrature


@dataclass(frozen=True)
class SurfaceSolution:
    y: np.ndarray  # (n_panels,) trace values at centroids
    sigma_h: float  # the surface density sigma, the same on every panel
    residual: float


def _triangle_potential(tris, points) -> np.ndarray:
    """Int_T 1/(4 pi |x - y|) dS(y) for pairs of flat triangles T (n, 3, 3)
    and points x (n, 3).

    Exact edge-wise closed form (Wilton et al., IEEE TAP 32(3), 1984): with
    p the signed in-plane distance from x to an edge's line (positive on the
    triangle's side), l1 < l2 the edge ends along it, h the height of x over
    the plane, rho0^2 = p^2 + h^2 and R = sqrt(rho0^2 + l^2), each edge adds

        |p| (asinh(l2/rho0) - asinh(l1/rho0))
          - |h| (atan2(|p| l2, rho0^2 + |h| R2) - atan2(|p| l1, rho0^2 + |h| R1))

    with the sign of p.  asinh stays accurate for l < 0, where ln(R + l)
    cancels.  Edges whose line passes through the projection of x (p ~ 0)
    add nothing and are dropped, which covers points on edges and vertices.
    """
    edges = np.roll(tris, -1, axis=1) - tris
    normals = np.cross(edges[:, 0], -edges[:, 2])
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    lengths = np.linalg.norm(edges, axis=-1)
    along = edges / lengths[..., None]
    inward = np.cross(normals[:, None, :], along)
    rel = points[:, None, :] - tris
    p = np.einsum("nei,nei->ne", rel, inward)
    h = np.abs(np.einsum("ni,ni->n", rel[:, 0], normals))[:, None]
    l1 = -np.einsum("nei,nei->ne", rel, along)
    l2 = l1 + lengths
    keep = np.abs(p) > 1e-14 * lengths
    pa = np.where(keep, np.abs(p), lengths)  # dropped edges: any nonzero stand-in
    rho2 = pa * pa + h * h
    rho = np.sqrt(rho2)
    r1 = np.sqrt(rho2 + l1 * l1)
    r2 = np.sqrt(rho2 + l2 * l2)
    term = pa * (np.arcsinh(l2 / rho) - np.arcsinh(l1 / rho)) - h * (
        np.arctan2(pa * l2, rho2 + h * r2) - np.arctan2(pa * l1, rho2 + h * r1))
    return np.where(keep, np.sign(p) * term, 0.0).sum(axis=1) / (4.0 * math.pi)


def self_panel_weights(mesh: SurfaceMesh, kappa0: float, stride: int = 1) -> np.ndarray:
    """Integral of the kernel over each panel about its centroid, (n_panels,),
    or over panels 0, stride, 2 stride, ... only, each bitwise as in the
    full array.

    The 1/(4 pi r) part is exact on the panel's flat fan triangles; the
    bounded remainder (e^{ik r} - 1)/(4 pi r) gets the midpoint value
    i kappa0 area/(4 pi).
    """
    tris, owner = mesh.triangulated()
    if stride > 1:
        mine = owner % stride == 0
        tris, owner = tris[mine], owner[mine]
    static = np.bincount(owner // stride, _triangle_potential(tris, mesh.centroids[owner]),
                         minlength=mesh.n_panels // stride)
    return static + 1j * kappa0 * mesh.areas[::stride] / (4.0 * math.pi)


def panel_weight_matrix(mesh: SurfaceMesh, kappa0: float) -> np.ndarray:
    """Complex-symmetric panel kernel K: Phi(c_i, c_j) off the diagonal and
    the self-panel integral over the area, closed form, on it.

    The collocation weights are W = K diag(area).  A mesh of P > 1 sectors
    gets the columns of sector 0 only, (N, N/P), which fix K; in both cases
    entry (i P, i) is on K's diagonal.
    """
    p = mesh.sectors
    return pair_kernel(mesh.centroids, kappa0,
                       diagonal=self_panel_weights(mesh, kappa0, p) / mesh.areas[::p], stride=p)


def panel_system(mesh: SurfaceMesh, matrix, residual_tol: float, rcond_min: float, name: str):
    """The ``kernels.DirectSystem`` of ``panel_weight_matrix``'s result, or
    of a matrix of that form, in the mesh's P sectors (P = 1: dense).  Its
    unknowns are area times the per-panel values."""
    return DirectSystem(matrix, residual_tol, rcond_min=rcond_min, name=name,
                        unknown_scale=1.0 / mesh.areas, sectors=mesh.sectors)


def surface_system(mesh: SurfaceMesh, sigma: float, kappa0: float):
    """The ``panel_system`` of diag(1/area) + sigma K, sigma a real scalar
    and K the panel kernel at kappa0, factored on its first solve."""
    if np.iscomplexobj(np.asarray(sigma)) or np.ndim(sigma) != 0:
        raise ConfigError("surface density sigma must be a real scalar")
    a = panel_weight_matrix(mesh, kappa0)
    a *= float(sigma)
    a.flat[:: mesh.n_panels + 1] += 1.0 / mesh.areas[:: mesh.sectors]
    return panel_system(mesh, a, SIE_RESIDUAL_TOL, 1e-14, "surface system")


def assemble_and_solve_surface(mesh: SurfaceMesh, sigma: float, incident,
                               system=None) -> SurfaceSolution:
    """Direct collocation solve of (I + sigma W) Y = u^I, sigma a real scalar.

    W = K diag(area) with K the panel kernel; the system is solved in the
    complex-symmetric form (diag(1/area) + sigma K) Z = u^I with Z = area Y,
    which has the same residual vector.  The contract is
    max|(I + sigma W) Y - u^I| <= 1e-8 (1 + max|Y|).  ``system``, the
    ``surface_system`` of this mesh, sigma and kappa0, is built if not given;
    given, its factors serve another incident wave.
    """
    if system is None:
        system = surface_system(mesh, sigma, incident.kappa0)
    z, resid = system.solve(incident.at(mesh.centroids))
    return SurfaceSolution(y=z / mesh.areas, sigma_h=float(sigma), residual=resid)


def far_field_surface(solution: SurfaceSolution, mesh: SurfaceMesh, kappa0: float,
                      directions) -> FarField:
    """Pattern -sum_j e^{-ik x_hat . c_j} sigma Y_j area_j."""
    d = np.asarray(directions, dtype=float)
    weights = solution.sigma_h * solution.y * mesh.areas
    return FarField(d, -far_field_sum(d, mesh.centroids, weights, kappa0))


def single_layer_eval(mesh: SurfaceMesh, densities, kappa0: float, points) -> np.ndarray:
    """Single-layer potential of per-panel densities at arbitrary points.

    Far panels use the centroid rule.  Panels closer than ``_NEAR_FACTOR``
    radii get the exact integral of 1/(4 pi r) over their fan triangles plus
    a centroid rule on the four children of each triangle for the bounded
    remainder (e^{ikr} - 1)/(4 pi r), so near-surface probes stay accurate.
    Points go in row blocks whose temporaries hold at most BLOCK_ENTRIES
    entries.
    """
    phi = np.asarray(densities, dtype=complex)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tris, owner = mesh.triangulated()
    children = subdivide_triangles(tris)
    child_centroids = children.mean(axis=2)  # (n_tris, 4, 3)
    child_areas = triangle_areas(children)  # (n_tris, 4)
    reach = _NEAR_FACTOR * mesh.panel_radii
    out = np.zeros(len(pts), dtype=complex)
    rows = max(1, BLOCK_ENTRIES // (12 * len(tris)))  # (pairs, 4, 3) child offsets
    for i0 in range(0, len(pts), rows):
        x = pts[i0:i0 + rows]
        r = np.linalg.norm(x[:, None, :] - mesh.centroids, axis=-1)
        near = r <= reach
        far_kernel = np.where(near, 0.0, helmholtz(np.where(near, 1.0, r), kappa0) * mesh.areas)
        # near (point, triangle) pairs: the triangles of every near panel
        pi, ti = np.nonzero(near[:, owner])
        static = _triangle_potential(tris[ti], x[pi])
        rq = np.linalg.norm(x[pi, None, :] - child_centroids[ti], axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            smooth = np.where(rq > 1e-14, (np.exp(1j * kappa0 * rq) - 1.0) / (4.0 * np.pi * rq),
                              1j * kappa0 / (4.0 * np.pi))  # the r -> 0 limit
        vals = (static + (smooth * child_areas[ti]).sum(axis=1)) * phi[owner[ti]]
        near_sum = (np.bincount(pi, vals.real, minlength=len(x))
                    + 1j * np.bincount(pi, vals.imag, minlength=len(x)))
        out[i0:i0 + rows] = far_kernel @ phi + near_sum
    return out


def jump_check(solution: SurfaceSolution, mesh: SurfaceMesh, incident) -> dict:
    """Finite-difference transmission-jump diagnostics at sample centroids.

    Probes the represented field u = u^I - S[sigma Y] (near-accurate
    quadrature) at +/- eps offsets along the normals of about 24 evenly
    spaced panels (eps = half the local panel diameter), forms one-sided
    normal derivatives and reports the value jump and the defect of
    [du/dn] = sigma * u under both jump-bracket orientations.
    Agreement degrades as eps approaches the panel size.
    """
    probe_indices = np.arange(0, mesh.n_panels, max(1, mesh.n_panels // 24))
    eps = mesh.panel_radii[probe_indices]
    c = mesh.centroids[probe_indices]
    n = mesh.normals[probe_indices]

    # probes at 0, 1/2, 1 and 3/2 eps outside and at 1/2, 1 and 3/2 eps inside
    offsets = np.array([0.0, 0.5, 1.0, 1.5, -0.5, -1.0, -1.5])
    probes = (c + offsets[:, None, None] * eps[:, None] * n).reshape(-1, 3)
    layer = single_layer_eval(mesh, solution.sigma_h * solution.y, incident.kappa0, probes)
    u0, out1, out2, out3, in1, in2, in3 = (incident.at(probes) - layer).reshape(len(offsets), -1)

    # second-order one-sided stencils anchored at the surface trace; plain
    # two-point differences at +/- eps are biased by eps * u'' near the kink
    du_plus = (-3.0 * u0 + 4.0 * out1 - out2) / eps
    du_minus = (3.0 * u0 - 4.0 * in1 + in2) / eps
    deriv_jump = du_plus - du_minus  # orientation-invariant
    # side traces by linear extrapolation from each side
    value_jump = (1.5 * out1 - 0.5 * out3) - (1.5 * in1 - 0.5 * in3)
    target = solution.sigma_h * solution.y[probe_indices]

    scale_u = max(np.abs(solution.y).max(), 1e-300)
    # derivative-jump defects measured against the natural derivative scale,
    # which stays finite when sigma vanishes
    scale_t = max(np.abs(target).max(), incident.kappa0 * scale_u)
    return {
        "value_jump_rel": float(np.abs(value_jump).max() / scale_u),
        "deriv_defect_rel": float(np.abs(deriv_jump - target).max() / scale_t),
        "deriv_defect_rel_flipped": float(np.abs(deriv_jump + target).max() / scale_t),
    }
