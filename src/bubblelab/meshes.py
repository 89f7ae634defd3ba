"""Panel meshes: geometry, ASCII loading, generators, and the boundary shape factor.

Meshes are flat-panel surfaces made of triangles and planar quads.  The ASCII
format has one vertex per line ``v x y z`` and one panel per line ``f i j k``
(triangle) or ``q i j k l`` (quad), all 0-indexed.

The generators build whole vertex and panel arrays.  A vertex that several
panels share merges by an integer key, not by comparing coordinates: an edge
midpoint by its edge's two end indices, a box corner by its grid indices.
Vertices are numbered in the order the panels first visit them.  The open
meshes follow one grading rule toward their rim (``_graded``): the outermost
intervals, up to 3 at each graded end, shrink by 0.7 per step.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError, GeometryError
from .kernels import CACHE_BLOCK

# the symmetric degree-2 3-point Gauss rule on the reference triangle:
# barycentric points, weights summing to 1 (area folded in separately)
_BARY = np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]])
_WEIGHTS = np.array([1 / 3, 1 / 3, 1 / 3])


def _lengths(vectors):
    """Euclidean length of each row of an (n, 3) array, bitwise equal to
    ``np.linalg.norm`` of the row alone (a BLAS dot, not an axis sum)."""
    return np.sqrt((vectors[:, None, :] @ vectors[:, :, None]).ravel())


class SurfaceMesh:
    """Flat-panel surface mesh with centroids, areas and unit normals.

    ``panels`` is one integer array, (n, 3) or (n, 4); in an (n, 4) array a
    triangle repeats its vertex 0.  Quads must be (near) planar.  Normals follow
    the panel winding (right-hand rule), expected outward on a closed mesh.
    ``boundary_edges``, the rim, is a (k, 2) array of (lower, higher) indices.
    ``sectors`` is the mesh's rotational order P about z, as its generator
    records it: panel r P + k is panel r P turned by 2 pi k / P (1 if none).
    """

    def __init__(self, vertices, panels, sectors: int = 1):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise GeometryError("vertices must be an (n, 3) array")
        self.panels = np.asarray(panels, dtype=int)
        if self.panels.ndim != 2:
            raise GeometryError("panels must be an (n, 3) or (n, 4) array")
        if self.panels.shape[1] not in (3, 4):
            raise GeometryError(f"panel with {self.panels.shape[1]} vertices not supported")
        if self.panels.size and (self.panels.min() < 0 or self.panels.max() >= len(self.vertices)):
            raise GeometryError("face index out of range")
        if len(self.panels) % sectors:
            raise GeometryError(f"{len(self.panels)} panels do not make {sectors} sectors")
        self.sectors = sectors
        # each panel as 4 indices, a triangle closing on its vertex 0
        panels = self.panels[:, [0, 1, 2, 3 % self.panels.shape[1]]]
        sizes = 3 + (panels[:, 3] != panels[:, 0])
        # fan-split each panel about its vertex 0 (triangles and planar convex
        # quads alike), once; owner[t] is the panel of triangle t, in panel order
        n = len(panels)
        split = np.column_stack([np.ones(n, dtype=bool), sizes == 4])
        fan = np.stack([panels[:, :3], panels[:, [0, 2, 3]]], axis=1)[split]
        tris = self._tris = self.vertices[fan]
        owner = self._owner = np.nonzero(split)[0]
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
        # the rim: edges of one panel only (a triangle's closing (i, i) pair left out)
        edges = np.stack([panels, np.roll(panels, -1, axis=1)], axis=-1)[
            np.arange(4) < sizes[:, None]]
        keys, counts = np.unique(_edge_keys(edges, len(self.vertices)), return_counts=True)
        self.boundary_edges = np.column_stack(np.divmod(keys[counts == 1], len(self.vertices)))
        self.is_closed = len(self.boundary_edges) == 0

    @property
    def n_panels(self) -> int:
        return len(self.panels)

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
    # record tag -> (field count, field type, leading fields repeated after
    # them, what the record needs); a triangle repeats its vertex 0
    records = {"v": (3, float, 0, "vertex needs 3 coordinates"),
               "f": (3, int, 1, "triangle needs 3 indices"),
               "q": (4, int, 0, "quad needs 4 indices")}
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read mesh file {str(path)!r}: {exc}") from exc
    vertices, panels = [], []
    for ln, line in enumerate(lines, 1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        tag, rest = parts[0], parts[1:]
        if tag not in records:
            raise GeometryError(f"{path}:{ln}: unknown record '{tag}'")
        size, kind, repeat, needs = records[tag]
        try:
            values = [kind(x) for x in rest]
            if len(values) != size:
                raise ValueError(rest)
        except ValueError:
            raise GeometryError(f"{path}:{ln}: {needs}, got {' '.join(rest)!r}") from None
        (vertices if tag == "v" else panels).append(values + values[:repeat])
    if not panels:
        raise GeometryError(f"{path}: no panels found")
    return SurfaceMesh(np.array(vertices), panels)


# ---------------------------------------------------------------------------
# generators


def _edge_keys(edges, n):
    """One integer per undirected edge of an (m, 2) array of indices below n: lo*n + hi."""
    return edges.min(axis=1) * n + edges.max(axis=1)


def _first_visits(keys):
    """Where each distinct key of a 1-D integer array first occurs, in that
    order, and for every key the number of its distinct key in that order."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    is_first = np.zeros(len(keys), dtype=bool)
    is_first[first] = True
    return np.flatnonzero(is_first), (np.cumsum(is_first) - 1)[first][inverse]


def _sorted_unique(keys):
    """The distinct integer keys, sorted, as ``np.unique(keys)`` returns them,
    by one sort and an adjacent-difference mask: with no return flags,
    ``np.unique`` on NumPy >= 2.3 imports ``numpy.ma`` (about 1.2 MiB)."""
    keys = np.sort(keys, axis=None)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def icosphere(subdivisions: int = 3, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> SurfaceMesh:
    """Geodesic sphere: icosahedron subdivided and projected, 20*4^n triangles.

    Each level puts a projected midpoint on every edge, numbered in the order
    the faces first visit the edges, and splits each face (i, j, k) with the
    midpoints a, b, c of ij, jk, ki into (i, a, c), (j, b, a), (k, c, b), (a, b, c).
    """
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
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ])
    for _ in range(subdivisions):
        keys = _edge_keys(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), len(verts))
        first, number = _first_visits(keys)
        lo, hi = np.divmod(keys[first], len(verts))
        mid = verts[lo] + verts[hi]
        (i, j, k), (a, b, c) = faces.T, (len(verts) + number).reshape(-1, 3).T
        verts = np.concatenate([verts, mid / _lengths(mid)[:, None]])
        faces = np.stack([i, a, c, j, b, a, k, c, b, a, b, c], axis=1).reshape(-1, 3)
    return SurfaceMesh(verts * radius + np.asarray(center, dtype=float), faces)


def cube_mesh(n: int = 8, side=1.0, center=(0.0, 0.0, 0.0)) -> SurfaceMesh:
    """Closed triangulated box surface, 12*n^2 triangles, outward normals.

    ``side`` is one edge length (a cube) or three, one per axis.  Each face is
    an (n+1)^2 grid of corners, and the faces meet on grid end points.  A
    corner merges by its three grid indices (0 on the face at -h, n on the
    face at +h) and is looked up in the ``linspace`` grid of each axis.
    """
    h = np.broadcast_to(np.asarray(side, dtype=float) / 2.0, (3,))
    # the grid indices of the corners of quad (i, j) of a face, in visiting order
    i, j = np.indices((n, n)).reshape(2, -1, 1) + np.array([[[0, 1, 1, 0]], [[0, 0, 1, 1]]])
    corners = np.empty((3, 2, n * n, 4, 3), dtype=int)
    for axis in range(3):
        u, v = (axis + 1) % 3, (axis + 2) % 3
        corners[axis, 0, ..., axis], corners[axis, 1, ..., axis] = 0, n
        corners[axis, ..., u], corners[axis, ..., v] = i, j
    corners = corners.reshape(-1, 3)
    first, number = _first_visits(corners @ [(n + 1) ** 2, n + 1, 1])
    verts = np.linspace(-h, h, n + 1)[corners[first], [0, 1, 2]]
    # two triangles per quad; the faces at -h reverse the quad's winding
    winding = np.array([[3, 2, 1, 3, 1, 0], [0, 1, 2, 0, 2, 3]] * 3)[:, None, :]
    panels = np.take_along_axis(number.reshape(6, n * n, 4), winding, axis=2)
    return SurfaceMesh(verts + np.asarray(center, dtype=float), panels.reshape(-1, 3))


def _graded(n: int, both_ends: bool = False):
    """n+1 breakpoints from 0 of n unit intervals graded toward the last end
    (and the first, with ``both_ends``): the outermost intervals shrink by 0.7
    per step toward the end, up to 3 and fewer than the n (or n//2) it owns."""
    levels = min(3, max((n // 2 if both_ends else n) - 1, 0))
    depth = n - 1 - np.arange(n)
    if both_ends:
        depth = np.minimum(depth, depth[::-1])
    return np.concatenate([[0.0], np.cumsum(0.7 ** np.maximum(levels - depth, 0))])


def sphere_cap_mesh(
    radius: float = 1.0,
    theta_max: float = np.pi / 2,
    n_rings: int = 12,
    n_phi: int = 36,
) -> SurfaceMesh:
    """Open spherical cap about +z: pole fan plus quad rings, graded at the rim.

    Normals point away from the sphere center (outward for the parent sphere).
    Vertex 0 is the pole and vertex k of ring r is 1 + r*n_phi + k.  The pole
    fan comes first and then ring after ring, so the mesh has n_phi sectors.
    """
    w = _graded(n_rings)
    theta = (theta_max * w / w[-1])[1:, None]
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    rings = radius * np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                               np.broadcast_to(np.cos(theta), (n_rings, n_phi))], axis=-1)
    verts = np.concatenate([[[0.0, 0.0, radius]], rings.reshape(-1, 3)])
    k, k2 = np.arange(n_phi), (np.arange(n_phi) + 1) % n_phi
    lo = 1 + n_phi * np.arange(n_rings - 1)[:, None]
    fan = np.stack([0 * k, 1 + k, 1 + k2, 0 * k], axis=1)  # triangles repeat vertex 0
    quads = np.stack([lo + k, lo + n_phi + k, lo + n_phi + k2, lo + k2], axis=-1)
    return SurfaceMesh(verts, np.concatenate([fan, quads.reshape(-1, 4)]), sectors=n_phi)


def rect_mesh(lx: float, ly: float, nx: int, ny: int) -> SurfaceMesh:
    """Open flat rectangle in the z=0 plane, normals +z, graded at the rim
    (edge-singular limits)."""
    wx, wy = _graded(nx, both_ends=True), _graded(ny, both_ends=True)
    x, y = np.meshgrid(lx * (wx / wx[-1] - 0.5), ly * (wy / wy[-1] - 0.5), indexing="ij")
    verts = np.stack([x, y, np.zeros_like(x)], axis=-1).reshape(-1, 3)
    first = ((ny + 1) * np.arange(nx)[:, None] + np.arange(ny)).reshape(-1, 1)
    return SurfaceMesh(verts, first + [0, ny + 1, ny + 2, 1])


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
    bary, w = _BARY, _WEIGHTS
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


def boundary_shape_factor(mesh: SurfaceMesh) -> float:
    """Area-averaged double boundary integral of the chord-direction flux.

    Returns (1/|S|) Int_S Int_S ((x-y)/|x-y|) . n(y) ds(y) ds(x) by panel-pair
    quadrature: centroid rule in x, 3-point Gauss rule in y.
    Triangle pairs whose panels share a vertex (same-panel pairs included)
    and whose centroids lie within ``_NEAR_FACTOR`` summed radii are
    re-integrated with 4-fold subdivision (the integrand is bounded by 1, so
    no true singularity; subdivision controls the near-diagonal error).
    Coplanar pairs are skipped: on a flat T_b the numerator (x-y).n(y) is the
    height of x above T_b's plane, so the plain and the refined rule both give 0.
    Negative for convex closed surfaces; -8*pi/3 for the unit sphere.
    """
    mesh.require_closed()
    tris, owner = mesh.triangulated()
    bary, w = _BARY, _WEIGHTS
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
    # in row blocks of at most CACHE_BLOCK entries; one dot product with the
    # areas sums the rows, in the same order for any block size
    y_dot_n = np.einsum("mi,mi->m", ypts, ynrm)
    y_sq = np.einsum("mi,mi->m", ypts, ypts)
    x_sq = np.einsum("ti,ti->t", centers, centers)
    row_sums = np.empty(ntri)
    chunk = max(1, CACHE_BLOCK // max(len(ypts), 1))
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
        row_sums[start:stop] = num @ ywts
    total = float(tri_areas @ row_sums)

    radii = np.linalg.norm(tris - centers[:, None, :], axis=2).max(axis=1)
    # near pairs: ordered triangle pairs whose panels share a vertex (the
    # triangles of one panel share its vertex 0), closer than _NEAR_FACTOR
    # summed radii; each (vertex, triangle) incidence, sorted by vertex, pairs
    # with every incidence of its vertex, and the pairs come out sorted
    vertex, tri = np.divmod(_sorted_unique(mesh.panels[owner] * ntri + np.arange(ntri)[:, None]), ntri)
    group = np.searchsorted(vertex, vertex)
    count = np.searchsorted(vertex, vertex, side="right") - group
    partner = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - group, count)
    a, b = np.divmod(_sorted_unique(np.repeat(tri, count) * ntri + tri[partner]), ntri)
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
