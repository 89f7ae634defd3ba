"""Surface (metasurface) integral equation with density h_star * sigma on Sigma.

Collocation at panel centroids of

    Y(z) + h_star * Int_Sigma Phi(z, y) sigma(y) Y(y) ds(y) = u^I(z),

with centroid-rule off-diagonal weights and a tangent-plane polar closed form
on the diagonal.  The represented total field satisfies [u] = 0 and
[du/dn] = h_star * sigma * u across Sigma (jump bracket: outside minus inside
along the panel normal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError
from .fields import FarField
from .kernels import DenseSystem, far_field_sum, helmholtz, pair_kernel
from .meshes import SurfaceMesh

SIE_RESIDUAL_TOL = 1e-8

_GAUSS8 = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class SurfaceSolution:
    y: np.ndarray  # (n_panels,) trace values at centroids
    sigma_h: np.ndarray  # (n_panels,) = h_star * sigma per panel
    residual: float
    h_star: float


def _panel_plane_frame(mesh: SurfaceMesh, k: int):
    """Orthonormal in-plane axes and 2D vertex coordinates of panel k."""
    verts = mesh.vertices[list(mesh.faces[k])] - mesh.centroids[k]
    n = mesh.normals[k]
    e1 = verts[0] - verts[0] @ n * n
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return np.column_stack([verts @ e1, verts @ e2])


def _polar_offset_integral(verts2d, origin2d, z_off):
    """Integral of 1/(4 pi sqrt(|y - o|^2 + z^2)) over a planar polygon.

    Signed edge-wise polar form about the in-plane origin; exact radial
    integral, 8-point Gauss in the angle.  Handles origins inside or outside
    the polygon, and z_off = 0 (the weakly singular on-surface case).
    """
    pts = np.asarray(verts2d, dtype=float) - np.asarray(origin2d, dtype=float)
    zabs = abs(z_off)
    total = 0.0
    xg, wg = _GAUSS8
    m = len(pts)
    for i in range(m):
        a, b = pts[i], pts[(i + 1) % m]
        edge = b - a
        elen = np.linalg.norm(edge)
        if elen == 0.0:
            continue
        that = edge / elen
        nhat = np.array([that[1], -that[0]])
        p = a @ nhat
        if abs(p) < 1e-14:
            continue
        phi1 = math.atan2(a @ that, abs(p))
        phi2 = math.atan2(b @ that, abs(p))
        # sec(phi) varies sharply over wide ranges; keep panels of <= 0.5 rad
        n_sub = max(1, int(math.ceil(abs(phi2 - phi1) / 0.5)))
        edges = np.linspace(phi1, phi2, n_sub + 1)
        acc = 0.0
        for s0, s1 in zip(edges[:-1], edges[1:]):
            phis = 0.5 * (s1 - s0) * xg + 0.5 * (s0 + s1)
            rr = abs(p) / np.cos(phis)
            vals = np.sqrt(rr * rr + z_off * z_off) - zabs
            acc += 0.5 * (s1 - s0) * (wg @ vals)
        total += math.copysign(1.0, p) * acc
    return total / (4.0 * math.pi)


def self_panel_weight(mesh: SurfaceMesh, k: int, kappa0: float) -> complex:
    """Integral of the kernel over panel k about its centroid.

    Polar closed form for 1/(4 pi r) on the tangent-plane projection plus the
    midpoint correction i kappa0 area/(4 pi) for the bounded remainder
    (e^{ik r} - 1)/(4 pi r); curvature is ignored (planar-enough panels).
    """
    if mesh.areas[k] <= 0:
        raise GeometryError(f"degenerate panel {k}")
    verts2d = _panel_plane_frame(mesh, k)
    static = _polar_offset_integral(verts2d, np.zeros(2), 0.0)
    return static + 1j * kappa0 * mesh.areas[k] / (4.0 * math.pi)


def panel_weight_matrix(mesh: SurfaceMesh, kappa0: float) -> np.ndarray:
    """Collocation weights w_ij = Phi(c_i, c_j) area_j, polar self terms."""
    self_weights = [self_panel_weight(mesh, k, kappa0) for k in range(mesh.n_panels)]
    return pair_kernel(mesh.centroids, kappa0, diagonal=self_weights, col_weights=mesh.areas)


def assemble_and_solve_surface(mesh: SurfaceMesh, sigma, h_star: float,
                               incident) -> SurfaceSolution:
    """Direct collocation solve of (I + h_star W diag(sigma)) Y = u^I."""
    if np.iscomplexobj(np.asarray(sigma)):
        raise ConfigError("surface density sigma must be real-valued")
    if h_star <= 0:
        raise ConfigError("h_star must be positive")
    n = mesh.n_panels
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), (n,)).copy()
    a = panel_weight_matrix(mesh, incident.kappa0)
    a *= h_star
    a *= sig[None, :]
    a.flat[:: n + 1] += 1.0
    system = DenseSystem(a, SIE_RESIDUAL_TOL, rcond_min=1e-14, name="surface system")
    y, resid = system.solve(incident.at(mesh.centroids))
    return SurfaceSolution(y=y, sigma_h=h_star * sig, residual=resid, h_star=h_star)


def far_field_surface(solution: SurfaceSolution, mesh: SurfaceMesh, kappa0: float,
                      directions) -> FarField:
    """Pattern -sum_j e^{-ik x_hat . c_j} sigma_h_j Y_j area_j."""
    d = np.asarray(directions, dtype=float)
    weights = solution.sigma_h * solution.y * mesh.areas
    return FarField(d, -far_field_sum(d, mesh.centroids, weights, kappa0))


def single_layer_eval(mesh: SurfaceMesh, densities, kappa0: float, points,
                      near_factor: float = 6.0) -> np.ndarray:
    """Single-layer potential of per-panel densities at arbitrary points.

    Far panels use the centroid rule; panels closer than ``near_factor``
    radii get the polar closed form for the 1/(4 pi r) part (offset by the
    point height over the panel plane) plus a 3-point correction for the
    bounded remainder, so near-surface probes stay accurate.
    """
    phi = np.asarray(densities, dtype=complex)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    c = mesh.centroids
    out = np.zeros(len(pts), dtype=complex)
    frames = {}
    for i, x in enumerate(pts):
        d = x[None, :] - c
        r = np.linalg.norm(d, axis=1)
        near = r <= near_factor * mesh.panel_radii
        far = ~near
        vals = np.zeros(len(c), dtype=complex)
        safe = np.where(r > 0, r, 1.0)
        vals[far] = helmholtz(safe[far], kappa0) * mesh.areas[far]
        for k in np.nonzero(near)[0]:
            if k not in frames:
                frames[k] = _panel_plane_frame(mesh, k)
            verts2d = frames[k]
            n = mesh.normals[k]
            rel = x - mesh.centroids[k]
            z_off = rel @ n
            e1 = mesh.vertices[mesh.faces[k][0]] - mesh.centroids[k]
            e1 = e1 - (e1 @ n) * n
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(n, e1)
            origin2d = np.array([rel @ e1, rel @ e2])
            static = _polar_offset_integral(verts2d, origin2d, z_off)
            # bounded remainder (e^{ikr}-1)/(4 pi r): small sub-grid quadrature
            tris, owner = _panel_tris(mesh, k)
            smooth = 0.0
            for tri in tris:
                for sub in _split4(tri):
                    q = sub.mean(axis=0)
                    area = 0.5 * np.linalg.norm(np.cross(sub[1] - sub[0], sub[2] - sub[0]))
                    rq = np.linalg.norm(x - q)
                    if rq > 1e-14:
                        smooth += (np.exp(1j * kappa0 * rq) - 1.0) / (4.0 * np.pi * rq) * area
                    else:
                        smooth += 1j * kappa0 / (4.0 * np.pi) * area
            vals[k] = static + smooth
        out[i] = vals @ phi
    return out


def _panel_tris(mesh: SurfaceMesh, k: int):
    pts = mesh.vertices[list(mesh.faces[k])]
    tris = [np.array([pts[0], pts[j], pts[j + 1]]) for j in range(1, len(pts) - 1)]
    return tris, k


def _split4(tri):
    m01, m12, m20 = 0.5 * (tri[0] + tri[1]), 0.5 * (tri[1] + tri[2]), 0.5 * (tri[2] + tri[0])
    return (
        np.array([tri[0], m01, m20]),
        np.array([tri[1], m12, m01]),
        np.array([tri[2], m20, m12]),
        np.array([m01, m12, m20]),
    )


def total_field_surface(solution: SurfaceSolution, mesh: SurfaceMesh, incident,
                        points) -> np.ndarray:
    """u(x) = u^I(x) - S[sigma_h Y](x) with near-accurate quadrature."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    layer = single_layer_eval(mesh, solution.sigma_h * solution.y * 1.0, incident.kappa0, pts)
    return np.asarray(incident.at(pts), dtype=complex) - layer


def jump_check(solution: SurfaceSolution, mesh: SurfaceMesh, incident,
               probe_indices=None, epsilon_factor: float = 0.5) -> dict:
    """Finite-difference transmission-jump diagnostics at sample centroids.

    Probes the represented field at +/- eps offsets along the panel normals
    (eps = epsilon_factor * local panel diameter), forms one-sided normal
    derivatives and reports the value jump and the defect of
    [du/dn] = sigma_h * u under both jump-bracket orientations.  Agreement
    degrades as eps approaches the panel size.
    """
    if probe_indices is None:
        step = max(1, mesh.n_panels // 24)
        probe_indices = np.arange(0, mesh.n_panels, step)
    probe_indices = np.asarray(probe_indices, dtype=int)
    eps = epsilon_factor * 2.0 * mesh.panel_radii[probe_indices]
    c = mesh.centroids[probe_indices]
    n = mesh.normals[probe_indices]

    offsets = [0.0, 0.5, 1.0, 1.5, -0.5, -1.0, -1.5]
    fields = {}
    for o in offsets:
        fields[o] = total_field_surface(solution, mesh, incident, c + o * eps[:, None] * n)

    # second-order one-sided stencils anchored at the surface trace; plain
    # two-point differences at +/- eps are biased by eps * u'' near the kink
    du_plus = (-3.0 * fields[0.0] + 4.0 * fields[0.5] - fields[1.0]) / eps
    du_minus = (3.0 * fields[0.0] - 4.0 * fields[-0.5] + fields[-1.0]) / eps
    deriv_jump = du_plus - du_minus  # orientation-invariant
    # side traces by linear extrapolation from each side
    value_jump = (1.5 * fields[0.5] - 0.5 * fields[1.5]) - (
        1.5 * fields[-0.5] - 0.5 * fields[-1.5]
    )
    surface_u = solution.y[probe_indices]
    target = solution.sigma_h[probe_indices] * surface_u

    scale_u = max(np.abs(solution.y).max(), 1e-300)
    # derivative-jump defects measured against the natural derivative scale,
    # which stays finite when sigma vanishes
    scale_t = max(np.abs(target).max(), incident.kappa0 * scale_u)
    return {
        "probe_indices": probe_indices,
        "epsilon": eps,
        "value_jump_rel": float(np.abs(value_jump).max() / scale_u),
        "deriv_defect_rel": float(np.abs(deriv_jump - target).max() / scale_t),
        "deriv_defect_rel_flipped": float(np.abs(deriv_jump + target).max() / scale_t),
        "ratio_signs": np.sign((deriv_jump / np.where(np.abs(surface_u) > 0, surface_u, 1.0)).real),
    }
