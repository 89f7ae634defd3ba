"""Panel meshes: geometry, ASCII loading, generators, and the boundary shape factor.

Meshes are flat-panel surfaces made of triangles and planar quads.  The ASCII
format has one vertex per line ``v x y z`` and one panel per line ``f i j k``
(triangle) or ``q i j k l`` (quad), all 0-indexed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError, GeometryError
from .kernels import BLOCK_ENTRIES

# Symmetric Gauss rules on the reference triangle, barycentric coordinates:
# order 1 is the degree-1 centroid rule, order 2 the degree-2 3-point rule
# (weights sum to 1, area folded in separately).
_TRI_RULES = {
    1: (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])),
    2: (
        np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]]),
        np.array([1 / 3, 1 / 3, 1 / 3]),
    ),
}


def _lengths(vectors):
    """Euclidean length of each row of an (n, 3) array, bitwise equal to
    ``np.linalg.norm`` of the row alone (a BLAS dot, not an axis sum)."""
    return np.sqrt((vectors[:, None, :] @ vectors[:, :, None]).ravel())


class SurfaceMesh:
    """Flat-panel surface mesh with centroids, areas and unit normals.

    ``faces`` is a list of 3- or 4-index tuples; quads must be (near) planar.
    Normals follow the face winding (right-hand rule); for closed meshes the
    winding is expected to point outward.
    """

    def __init__(self, vertices, faces):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise GeometryError("vertices must be an (n, 3) array")
        self.faces = [tuple(int(i) for i in f) for f in faces]
        nv = len(self.vertices)
        for f in self.faces:
            if len(f) not in (3, 4):
                raise GeometryError(f"panel with {len(f)} vertices not supported")
            if any(i < 0 or i >= nv for i in f):
                raise GeometryError("face index out of range")
        self._compute_panel_data()

    def _compute_panel_data(self):
        # fan-split each panel about its vertex 0 (triangles and planar convex
        # quads alike), once; owner[t] is the panel of triangle t, in panel order
        n = len(self.faces)
        sizes = np.array([len(f) for f in self.faces])
        fan = [(f[0], f[j], f[j + 1]) for f in self.faces for j in range(1, len(f) - 1)]
        tris = self._tris = self.vertices[np.array(fan, dtype=int).reshape(-1, 3)]
        owner = self._owner = np.repeat(np.arange(n), sizes - 2)
        cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        tri_areas = 0.5 * _lengths(cross)
        self.areas = np.bincount(owner, tri_areas, minlength=n)
        degenerate = np.nonzero(self.areas <= 0.0)[0]
        if len(degenerate):
            raise GeometryError(f"degenerate panel {degenerate[0]}")
        tri_moments = tri_areas[:, None] * tris.sum(axis=1) / 3.0
        self.centroids = np.column_stack(
            [np.bincount(owner, tri_moments[:, i], minlength=n) for i in range(3)]
        ) / self.areas[:, None]
        vecn = np.column_stack([np.bincount(owner, 0.5 * cross[:, i], minlength=n)
                                for i in range(3)])
        self.normals = vecn / _lengths(vecn)[:, None]
        self.total_area = float(self.areas.sum())
        # radius of the smallest centroid-centred ball containing the panel
        reach = np.linalg.norm(tris - self.centroids[owner][:, None, :], axis=-1).max(axis=1)
        first_tri = np.cumsum(sizes - 2) - (sizes - 2)
        self.panel_radii = np.maximum.reduceat(reach, first_tri)
        self.boundary_edges = self._boundary_edges()
        self.is_closed = len(self.boundary_edges) == 0

    def _boundary_edges(self):
        seen = {}
        for f in self.faces:
            m = len(f)
            for j in range(m):
                e = (f[j], f[(j + 1) % m])
                key = (min(e), max(e))
                seen[key] = seen.get(key, 0) + 1
        return sorted(k for k, cnt in seen.items() if cnt == 1)

    @property
    def n_panels(self) -> int:
        return len(self.faces)

    def closure_defect(self) -> float:
        """|sum of area-weighted normals| relative to the total area (~0 when closed)."""
        return float(np.linalg.norm((self.normals * self.areas[:, None]).sum(axis=0)) / self.total_area)

    def require_closed(self):
        if not self.is_closed:
            raise GeometryError("mesh has boundary edges; a closed surface is required")
        if self.closure_defect() > 1e-8:
            raise GeometryError(
                f"closure defect {self.closure_defect():.3e} exceeds 1.0e-08; check orientation"
            )

    def enclosed_volume(self) -> float:
        """Signed volume by the divergence theorem; positive for outward normals."""
        return float((self.centroids * self.normals).sum(axis=1) @ self.areas) / 3.0

    def triangulated(self):
        """Fan triangles of all panels, (m, 3, 3) vertices, and the panel of each
        (m,), in panel order.  Shared arrays: callers must not modify them."""
        return self._tris, self._owner


def load_mesh(path) -> SurfaceMesh:
    # record tag -> (field count, field type, what the record needs)
    records = {"v": (3, float, "vertex needs 3 coordinates"),
               "f": (3, int, "triangle needs 3 indices"), "q": (4, int, "quad needs 4 indices")}
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read mesh file {str(path)!r}: {exc}") from exc
    vertices, faces = [], []
    for ln, line in enumerate(lines, 1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        tag, rest = parts[0], parts[1:]
        if tag not in records:
            raise GeometryError(f"{path}:{ln}: unknown record '{tag}'")
        size, kind, needs = records[tag]
        try:
            values = [kind(x) for x in rest]
            if len(values) != size:
                raise ValueError(rest)
        except ValueError:
            raise GeometryError(f"{path}:{ln}: {needs}, got {' '.join(rest)!r}") from None
        (vertices if tag == "v" else faces).append(tuple(values))
    if not faces:
        raise GeometryError(f"{path}: no panels found")
    return SurfaceMesh(np.array(vertices), faces)


# ---------------------------------------------------------------------------
# generators


def icosphere(subdivisions: int = 3, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> SurfaceMesh:
    """Geodesic sphere: icosahedron subdivided and projected, 20*4^n triangles."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = list(verts)
    for _ in range(subdivisions):
        midpoint = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint:
                p = verts[i] + verts[j]
                verts.append(p / np.linalg.norm(p))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for (i, j, k) in faces:
            a, b, c = mid(i, j), mid(j, k), mid(k, i)
            new_faces += [(i, a, c), (j, b, a), (k, c, b), (a, b, c)]
        faces = new_faces
    out = np.array(verts) * radius + np.asarray(center, dtype=float)
    return SurfaceMesh(out, faces)


def cube_mesh(n: int = 8, side=1.0, center=(0.0, 0.0, 0.0)) -> SurfaceMesh:
    """Closed triangulated box surface, 12*n^2 triangles, outward normals.

    ``side`` is one edge length (a cube) or three, one per axis.
    """
    h = np.broadcast_to(np.asarray(side, dtype=float) / 2.0, (3,))
    grids = [np.linspace(-h[d], h[d], n + 1) for d in range(3)]
    vid = {}
    verts = []

    def vertex(p):
        key = tuple(np.round(p, 12))
        if key not in vid:
            vid[key] = len(verts)
            verts.append(p)
        return vid[key]

    faces = []
    # each entry: (fixed axis, fixed value, flip winding)
    for axis in range(3):
        gu, gv = grids[(axis + 1) % 3], grids[(axis + 2) % 3]
        for sgn in (-1.0, 1.0):
            for i in range(n):
                for j in range(n):
                    u0, u1 = gu[i], gu[i + 1]
                    v0, v1 = gv[j], gv[j + 1]
                    quad2d = [(u0, v0), (u1, v0), (u1, v1), (u0, v1)]
                    quad = []
                    for (u, v) in quad2d:
                        p = np.zeros(3)
                        p[axis] = sgn * h[axis]
                        p[(axis + 1) % 3] = u
                        p[(axis + 2) % 3] = v
                        quad.append(vertex(p))
                    if sgn < 0:
                        quad = quad[::-1]
                    faces.append((quad[0], quad[1], quad[2]))
                    faces.append((quad[0], quad[2], quad[3]))
    out = np.array(verts) + np.asarray(center, dtype=float)
    return SurfaceMesh(out, faces)


def _ring_radii(r_max: float, n: int):
    """n+1 radial breakpoints on [0, r_max]; the last 3 intervals shrink
    geometrically by 0.7 toward r_max (edge-singular densities)."""
    levels = min(3, max(n - 1, 0))
    if levels == 0:
        return np.linspace(0.0, r_max, n + 1)
    w = np.ones(n)
    for k in range(levels):
        w[n - levels + k :] *= 0.7
    w = np.concatenate([[0.0], np.cumsum(w)])
    return r_max * w / w[-1]


def sphere_cap_mesh(
    radius: float = 1.0,
    theta_max: float = np.pi / 2,
    n_rings: int = 12,
    n_phi: int = 36,
) -> SurfaceMesh:
    """Open spherical cap about +z: pole fan plus quad rings, graded at the rim.

    Normals point away from the sphere center (outward for the parent sphere).
    """
    thetas = _ring_radii(theta_max, n_rings)
    verts = [np.array([0.0, 0.0, radius])]
    rows = []
    for th in thetas[1:]:
        row = []
        for k in range(n_phi):
            ph = 2 * np.pi * k / n_phi
            row.append(len(verts))
            verts.append(
                radius * np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
            )
        rows.append(row)
    faces = []
    for k in range(n_phi):
        faces.append((0, rows[0][k], rows[0][(k + 1) % n_phi]))
    for r in range(len(rows) - 1):
        lo, hi = rows[r], rows[r + 1]
        for k in range(n_phi):
            k2 = (k + 1) % n_phi
            faces.append((lo[k], hi[k], hi[k2], lo[k2]))
    return SurfaceMesh(np.array(verts), faces)


def _graded_axis(length: float, n: int):
    """n+1 breakpoints on [-length/2, length/2]; the outermost (up to 3)
    intervals at each end shrink geometrically by 0.7."""
    levels = min(3, max(n // 2 - 1, 0))
    w = np.ones(n)
    for i in range(n):
        d = min(i, n - 1 - i)
        if d < levels:
            w[i] = 0.7 ** (levels - d)
    pts = np.concatenate([[0.0], np.cumsum(w)])
    return length * (pts / pts[-1] - 0.5)


def rect_mesh(lx: float, ly: float, nx: int, ny: int) -> SurfaceMesh:
    """Open flat rectangle in the z=0 plane, normals +z, graded at the rim
    (edge-singular limits)."""
    xs = _graded_axis(lx, nx)
    ys = _graded_axis(ly, ny)
    verts = np.array([[x, y, 0.0] for x in xs for y in ys])
    faces = []
    for i in range(nx):
        for j in range(ny):
            v00 = i * (ny + 1) + j
            v10 = (i + 1) * (ny + 1) + j
            faces.append((v00, v10, v10 + 1, v00 + 1))
    return SurfaceMesh(verts, faces)


# ---------------------------------------------------------------------------
# boundary shape factor

# vertex-sharing triangle pairs closer than this many summed radii are refined
_NEAR_FACTOR = 2.0


def _pair_kernel(x, y, ny):
    """((x-y)/|x-y|) . n(y), broadcast over leading axes; 0 at coincidence."""
    u = x - y
    r = np.linalg.norm(u, axis=-1)
    safe = np.where(r > 0, r, 1.0)
    val = np.einsum("...i,...i->...", u, ny) / safe
    return np.where(r > 0, val, 0.0)


def subdivide_triangles(tris):
    """Split each triangle of an (n, 3, 3) stack into 4 congruent children -> (n, 4, 3, 3)."""
    v0, v1, v2 = tris[:, 0], tris[:, 1], tris[:, 2]
    m01, m12, m20 = 0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v2 + v0)
    return np.stack(
        [
            np.stack([v0, m01, m20], axis=1),
            np.stack([v1, m12, m01], axis=1),
            np.stack([v2, m20, m12], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ],
        axis=1,
    )


def triangle_areas(tris):
    """Areas of an (..., 3, 3) stack of triangles."""
    return 0.5 * np.linalg.norm(
        np.cross(tris[..., 1, :] - tris[..., 0, :], tris[..., 2, :] - tris[..., 0, :]), axis=-1
    )


def _pair_batch_subdivided(tri_x, n_y, tri_y):
    """Vectorised double integrals of the direction kernel over triangle pairs.

    Each pair's triangles are split into 4 congruent children, and all 16
    child pairs are integrated with 3-point rules in x and in y.  Callers pass
    no coplanar pairs: the kernel vanishes on them, coincident children included.
    """
    bary, w = _TRI_RULES[2]
    cx = subdivide_triangles(tri_x)
    cy = subdivide_triangles(tri_y)
    ax = triangle_areas(cx)
    ay = triangle_areas(cy)
    px = np.einsum("qb,ncbi->ncqi", bary, cx)
    py = np.einsum("qb,ncbi->ncqi", bary, cy)
    total = np.zeros(len(tri_x))
    for i in range(4):
        for j in range(4):
            vals = _pair_kernel(px[:, i, :, None, :], py[:, j, None, :, :], n_y[:, None, None, :])
            total += ax[:, i] * ay[:, j] * np.einsum("q,nqr,r->n", w, vals, w)
    return total


def boundary_shape_factor(mesh: SurfaceMesh, quad_order: int = 2) -> float:
    """Area-averaged double boundary integral of the chord-direction flux.

    Returns (1/|S|) Int_S Int_S ((x-y)/|x-y|) . n(y) ds(y) ds(x) by panel-pair
    quadrature: centroid rule in x, Gauss rule of ``quad_order`` in y.
    Triangle pairs whose panels share a vertex (same-panel pairs included)
    and whose centroids lie within ``_NEAR_FACTOR`` summed radii are
    re-integrated with 4-fold subdivision (the integrand is bounded by 1, so
    no true singularity; subdivision controls the near-diagonal error).
    Coplanar pairs are skipped: on a flat T_b the numerator (x-y).n(y) is the
    height of x above T_b's plane, so both rules give them exactly zero.
    Negative for convex closed surfaces; -8*pi/3 for the unit sphere.
    """
    if quad_order not in _TRI_RULES:
        raise GeometryError("quad_order must be 1 or 2")
    mesh.require_closed()
    tris, owner = mesh.triangulated()
    bary, w = _TRI_RULES[quad_order]
    nq = len(w)
    ntri = len(tris)
    crosses = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    tri_areas = 0.5 * np.linalg.norm(crosses, axis=1)
    tri_normals = crosses / np.linalg.norm(crosses, axis=1)[:, None]
    centers = tris.mean(axis=1)

    ypts = np.einsum("qb,tbi->tqi", bary, tris).reshape(-1, 3)
    ywts = (tri_areas[:, None] * w[None, :]).reshape(-1)
    ynrm = np.repeat(tri_normals, nq, axis=0)

    # (x-y).n(y)/|x-y| via two GEMMs: x.n(y) - y.n(y) over sqrt(|x|^2-2x.y+|y|^2),
    # in row blocks of at most BLOCK_ENTRIES entries; one dot product with the
    # areas sums the rows, in the same order for any block size
    y_dot_n = np.einsum("mi,mi->m", ypts, ynrm)
    y_sq = np.einsum("mi,mi->m", ypts, ypts)
    x_sq = np.einsum("ti,ti->t", centers, centers)
    row_sums = np.empty(ntri)
    chunk = max(1, BLOCK_ENTRIES // max(len(ypts), 1))
    col_offsets = np.arange(nq)
    for start in range(0, ntri, chunk):
        stop = min(start + chunk, ntri)
        num = centers[start:stop] @ ynrm.T
        num -= y_dot_n[None, :]
        r2 = centers[start:stop] @ ypts.T
        r2 *= -2.0
        r2 += x_sq[start:stop, None]
        r2 += y_sq[None, :]
        np.maximum(r2, 1e-300, out=r2)
        np.sqrt(r2, out=r2)
        num /= r2
        # self-triangle terms are zero on flat panels, but at quad_order 1 the
        # point pair coincides and the numerator's rounding is divided by 1e-150
        rows = np.arange(stop - start)
        num[rows[:, None], (np.arange(start, stop) * nq)[:, None] + col_offsets[None, :]] = 0.0
        row_sums[start:stop] = num @ ywts
    total = float(tri_areas @ row_sums)

    radii = np.linalg.norm(tris - centers[:, None, :], axis=2).max(axis=1)
    # near pairs: ordered triangle pairs whose panels share a vertex (the
    # triangles of one panel share its vertex 0), closer than _NEAR_FACTOR
    # summed radii
    incident = {}
    for ti, p in enumerate(owner):
        for v in mesh.faces[p]:
            incident.setdefault(v, []).append(ti)
    pairs = np.array(sorted({(ti, tj) for group in incident.values()
                             for ti in group for tj in group}), dtype=int)
    a, b = pairs[:, 0], pairs[:, 1]
    keep = np.linalg.norm(centers[a] - centers[b], axis=1) <= _NEAR_FACTOR * (radii[a] + radii[b])
    # (x-y).n(y) is the height of x above the plane of T_b for every y on T_b,
    # so a T_a lying in that plane (self pairs, a flat face) adds exactly zero
    height = np.einsum("nvi,ni->nv", tris[a] - tris[b][:, :1], tri_normals[b])
    keep &= np.abs(height).max(axis=1) > 1e-12 * radii[b]
    a, b = a[keep], b[keep]
    # replace the plain-rule contribution (centroid x Gauss) of those pairs
    yp = np.einsum("qb,tbi->tqi", bary, tris[b])
    plain = tri_areas[a] * tri_areas[b] * np.einsum(
        "nq,q->n", _pair_kernel(centers[a][:, None, :], yp, tri_normals[b][:, None, :]), w
    )
    refined = _pair_batch_subdivided(tris[a], tri_normals[b], tris[b])
    total += float((refined - plain).sum())

    if not np.isfinite(total):
        raise GeometryError("shape-factor quadrature produced a non-finite value")
    return total / mesh.total_area
