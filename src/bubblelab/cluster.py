"""Rubik-style bubble distributions in volumes and on surface charts.

Cells are laid out on a uniform lattice (pitch a^(s/3) in volumes, a^(s/2) in
chart parameter planes), ordered in concentric shells from the domain center
outward.  Each kept cell gets floor(K)+1 centers: the cell center plus extras
on a seeded, jittered sub-grid.  Construction is deterministic for a fixed
seed and single-threaded; resulting clusters are immutable.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
import numpy as np

from .errors import ConfigError, PlacementError
from .kernels import _block_distances, _upper_blocks

_PLACEMENT_ATTEMPTS = 100


# ---------------------------------------------------------------------------
# density fields


class DensityField:
    """Non-negative bounded density K; constant, or trilinear on a 3d sample grid."""

    def __init__(self, kind, value=None, origin=None, spacing=None, samples=None,
                 k_max=None):
        self.kind = kind
        if kind == "constant":
            if value is None or value < 0:
                raise ConfigError("constant density needs a non-negative value")
            self.value = float(value)
            self._interp = None
            observed_max = self.value
        elif kind == "grid":
            samples = np.asarray(samples, dtype=float)
            if samples.ndim != 3:
                raise ConfigError("grid density needs 3d samples (surface runs take a "
                                  "constant density)")
            if np.any(samples < 0):
                raise ConfigError("density samples must be non-negative")
            if not np.all(np.isfinite(samples)):
                raise ConfigError("density samples must be finite")
            origin = np.asarray(origin, dtype=float)
            spacing = np.asarray(spacing, dtype=float)
            if origin.shape != (3,) or spacing.shape != (3,):
                raise ConfigError("grid density needs a 3d origin and spacing")
            axes = [origin[d] + spacing[d] * np.arange(samples.shape[d]) for d in range(3)]
            self._axes = axes
            # imported here, not at start-up: scipy.interpolate also loads
            # scipy.optimize and scipy.spatial, and only a grid density needs it
            from scipy.interpolate import RegularGridInterpolator
            self._interp = RegularGridInterpolator(axes, samples, method="linear")
            observed_max = float(samples.max())
        else:
            raise ConfigError(f"unknown density kind {kind!r}")
        self.k_max = float(k_max) if k_max is not None else observed_max
        if observed_max > self.k_max:
            raise ConfigError("density exceeds the configured bound k_max")

    @staticmethod
    def constant(value, k_max=None):
        return DensityField("constant", value=value, k_max=k_max)

    @staticmethod
    def grid(origin, spacing, samples, k_max=None):
        return DensityField("grid", origin=origin, spacing=spacing, samples=samples,
                            k_max=k_max)

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "constant":
            return np.full(len(pts), self.value)
        # clamp to the grid so boundary cells sample the nearest data
        clipped = np.column_stack(
            [np.clip(pts[:, d], self._axes[d][0], self._axes[d][-1]) for d in range(3)]
        )
        return self._interp(clipped)


# ---------------------------------------------------------------------------
# volumetric domains


@dataclass(frozen=True)
class BoxDomain:
    center: tuple = (0.0, 0.0, 0.0)
    size: tuple = (1.0, 1.0, 1.0)

    def bounding_box(self):
        c, s = np.asarray(self.center), np.asarray(self.size)
        return c - s / 2, c + s / 2

    def contains(self, points):
        lo, hi = self.bounding_box()
        pts = np.atleast_2d(points)
        return np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12), axis=1)

    def intersects_cube(self, centers, half):
        """Whether each axis-aligned cube (centers (n, 3), half side) meets the box."""
        lo, hi = self.bounding_box()
        c = np.atleast_2d(centers)
        return np.all((c + half >= lo - 1e-12) & (c - half <= hi + 1e-12), axis=1)

    def volume(self):
        return float(np.prod(self.size))


@dataclass(frozen=True)
class BallDomain:
    center: tuple = (0.0, 0.0, 0.0)
    radius: float = 0.5

    def bounding_box(self):
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    def contains(self, points):
        pts = np.atleast_2d(points)
        return np.linalg.norm(pts - np.asarray(self.center), axis=1) <= self.radius + 1e-12

    def intersects_cube(self, centers, half):
        """Whether each axis-aligned cube (centers (n, 3), half side) meets the ball."""
        c = np.atleast_2d(centers)
        gap = np.maximum(np.abs(c - np.asarray(self.center)) - half, 0.0)
        return np.linalg.norm(gap, axis=1) <= self.radius + 1e-12

    def volume(self):
        return 4.0 * math.pi * self.radius**3 / 3.0


# ---------------------------------------------------------------------------
# surface charts


@dataclass(frozen=True)
class PlaneChart:
    """Flat rectangle in the z = center_z plane, parameterized by itself."""

    lx: float = 1.0
    ly: float = 1.0
    center: tuple = (0.0, 0.0, 0.0)

    def param_bbox(self):
        return np.array([-self.lx / 2, -self.ly / 2]), np.array([self.lx / 2, self.ly / 2])

    def contains_param(self, uv):
        lo, hi = self.param_bbox()
        pts = np.atleast_2d(uv)
        return np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12), axis=1)

    def to_xyz(self, uv):
        pts = np.atleast_2d(uv)
        out = np.column_stack([pts[:, 0], pts[:, 1], np.zeros(len(pts))])
        return out + np.asarray(self.center)


@dataclass(frozen=True)
class SphereCapChart:
    """Spherical cap about +z through the Lambert equal-area projection.

    The parameter domain is the disk of radius 2 R sin(theta_max/2); the
    pullback area element is exactly the Euclidean one (metric = 1), so
    parameter-plane areas equal surface areas.
    """

    radius: float = 1.0
    theta_max: float = math.pi / 2
    center: tuple = (0.0, 0.0, 0.0)

    @property
    def rho_max(self):
        return 2.0 * self.radius * math.sin(self.theta_max / 2.0)

    def param_bbox(self):
        r = self.rho_max
        return np.array([-r, -r]), np.array([r, r])

    def contains_param(self, uv):
        pts = np.atleast_2d(uv)
        return np.linalg.norm(pts, axis=1) <= self.rho_max + 1e-12

    def to_xyz(self, uv):
        pts = np.atleast_2d(uv)
        rho = np.linalg.norm(pts, axis=1)
        theta = 2.0 * np.arcsin(np.clip(rho / (2.0 * self.radius), 0.0, 1.0))
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        out = self.radius * np.column_stack(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        return out + np.asarray(self.center)


# ---------------------------------------------------------------------------
# clusters


@dataclass(frozen=True)
class VolumetricCluster:
    a: float
    s: float
    t: float
    d_min: float
    seed: int
    cell_centers: np.ndarray  # (n_cells, 3)
    cell_sides: np.ndarray  # (n_cells,)
    counts: np.ndarray  # (n_cells,) = floor(K)+1
    centers: np.ndarray  # (M, 3)
    cell_of: np.ndarray  # (M,) cell index per center
    dropped_volume: float
    domain: object = field(repr=False, default=None)
    density: object = field(repr=False, default=None)

    @property
    def m(self):
        return len(self.centers)

    def to_json(self):
        cells = [[*map(float, c), float(s)] for c, s in zip(self.cell_centers, self.cell_sides)]
        return {
            "kind": "volumetric",
            "a": self.a, "s": self.s, "t": self.t, "d_min": self.d_min, "seed": self.seed,
            "centers": [[float(x) for x in z] for z in self.centers],
            "cells": cells,
            "counts": [int(c) for c in self.counts],
            "cell_of": [int(i) for i in self.cell_of],
            "dropped_volume": self.dropped_volume,
        }


@dataclass(frozen=True)
class SurfaceCluster:
    a: float
    s: float
    t: float
    d_min: float
    seed: int
    square_params: np.ndarray  # (n_cells, 2) parameter-plane centers
    square_sides: np.ndarray  # (n_cells,) parameter-plane side lengths
    square_areas: np.ndarray  # (n_cells,) target surface areas
    counts: np.ndarray
    centers: np.ndarray  # (M, 3) ambient positions
    param_centers: np.ndarray  # (M, 2)
    cell_of: np.ndarray
    dropped_area: float
    chart: object = field(repr=False, default=None)
    density: object = field(repr=False, default=None)

    @property
    def m(self):
        return len(self.centers)

    def to_json(self):
        cells = [[float(p[0]), float(p[1]), float(s)]
                 for p, s in zip(self.square_params, self.square_sides)]
        return {
            "kind": "surface",
            "a": self.a, "s": self.s, "t": self.t, "d_min": self.d_min, "seed": self.seed,
            "centers": [[float(x) for x in z] for z in self.centers],
            "cells": cells,
            "counts": [int(c) for c in self.counts],
            "cell_of": [int(i) for i in self.cell_of],
            "dropped_area": self.dropped_area,
        }


def save_cluster(cluster, path):
    with open(path, "w") as fh:
        json.dump(cluster.to_json(), fh, indent=1)


def _lattice_axes(lo, hi, pitch):
    """Centered lattice over [lo, hi] per axis with ~length/pitch sites.

    Rounding (not ceiling) keeps the cell-count budget at |domain| * a^-s even
    when the pitch is coarse; exact divisions snap to the exact count.
    """
    length = hi - lo
    n = np.maximum(1, np.round(length / pitch + 1e-9).astype(int))
    starts = lo + (length - n * pitch) / 2.0 + pitch / 2.0
    return n, starts


def _shell_order(idx, dims):
    """Sort key realizing the center-out shell layout (Chebyshev rings)."""
    center = (np.asarray(dims) - 1) / 2.0
    cheb = np.max(np.abs(idx - center), axis=1)
    order = np.lexsort([*idx.T[::-1], np.round(cheb * 2).astype(int)])
    return order


@functools.lru_cache
def _extra_subgrid(dim, side, count, d_req, wall_margin):
    """Sub-grid nodes and jitter amplitude for count-1 extras in one cell.

    Extras come from a corner-spanning n^dim sub-grid kept ``wall_margin``
    (plus jitter room) away from the walls so neighbouring cells stay
    separated.  The jitter amplitude is budgeted against the sub-grid slack
    (the closest node pair, the mandatory cell center included), so a
    feasible layout passes the explicit distance checks.
    """
    n = max(2, math.ceil(count ** (1.0 / dim)))
    wall_pad = 0.05 * side
    margin = wall_margin + wall_pad
    span = side - 2.0 * margin
    if span <= 0:
        raise PlacementError(
            f"cell of side {side!r} cannot hold extra centers at spacing {d_req!r}"
        )
    axes = [np.linspace(-span / 2.0, span / 2.0, n) for _ in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.column_stack([m.ravel() for m in mesh])
    base = np.vstack([np.zeros((1, dim)), nodes])
    dist = np.linalg.norm(base[:, None, :] - base[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    slack = float(dist.min()) - d_req
    amp = min(wall_pad, 0.45 * slack) / (2.0 * math.sqrt(dim)) if slack > 0 else 0.0
    return nodes, amp


def _place_extras(rng, dim, side, count, d_req, wall_margin):
    """count-1 extra local offsets on a jittered sub-grid, spacing-checked.

    The cell center (offset 0) is always occupied.  The sub-grid depends only
    on the cell's shape and is built once per distinct shape; infeasible
    densities fail after the attempt cap.
    """
    if count <= 1:
        return np.zeros((0, dim))
    nodes, amp = _extra_subgrid(dim, side, count, d_req, wall_margin)
    for _ in range(_PLACEMENT_ATTEMPTS):
        jitter = rng.uniform(-amp, amp, size=nodes.shape) if amp > 0 else 0.0
        pts = nodes + jitter
        pick = rng.permutation(len(pts))[: count - 1]
        chosen = pts[pick]
        cand = np.vstack([np.zeros((1, dim)), chosen])
        diffs = cand[:, None, :] - cand[None, :, :]
        pair = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(pair, np.inf)
        wall = side / 2.0 - np.abs(chosen).max() if len(chosen) else side
        if pair.min() >= d_req and wall >= wall_margin:
            return chosen
    raise PlacementError(
        f"could not place {count} centers at spacing {d_req!r} in a cell of side {side!r}"
    )


def build_volumetric(domain, density: DensityField, a: float, s: float, t: float,
                     seed: int = 0, d_min: float = 0.5) -> VolumetricCluster:
    """Shell-ordered cube cells over the domain; floor(K)+1 centers per cell.

    Cells are cubes of volume a^s (floor(K)+1)/(K+1) centered at lattice sites
    of pitch a^(s/3); sites whose center leaves the domain are dropped and the
    trimmed volume (sites still touching the domain) is reported.
    """
    if a <= 0 or a >= 1:
        raise ConfigError("radius scale a must lie in (0, 1)")
    if t < s / 3.0 - 1e-12:
        raise PlacementError(f"spacing exponent t={t!r} below s/3: cells cannot hold "
                             "their centers at the requested distance")
    pitch = a ** (s / 3.0)
    lo, hi = domain.bounding_box()
    if pitch > float(np.min(hi - lo)):
        raise PlacementError("radius scale too large: lattice pitch exceeds the domain")
    d_req = d_min * a**t
    n, starts = _lattice_axes(lo, hi, pitch)
    grids = np.meshgrid(*[np.arange(k) for k in n], indexing="ij")
    idx = np.column_stack([g.ravel() for g in grids])
    order = _shell_order(idx, n)
    idx = idx[order]
    sites = starts[None, :] + idx * pitch

    inside = domain.contains(sites)
    rng = np.random.default_rng(seed)
    dropped = np.count_nonzero(domain.intersects_cube(sites[~inside], pitch / 2.0))

    kept = sites[inside]
    kvals = density(kept)
    counts = np.floor(kvals).astype(int) + 1
    fracs = counts / (kvals + 1.0)
    sides = (a**s * fracs) ** (1.0 / 3.0)

    centers, cell_of = [], []
    for j, (site, side, cnt) in enumerate(zip(kept, sides, counts)):
        centers.append(site.copy())
        cell_of.append(j)
        # cells smaller than the pitch have a built-in gap to their neighbours
        wall_margin = max(0.0, (side - pitch + d_req) / 2.0)
        for off in _place_extras(rng, 3, side, int(cnt), d_req, wall_margin):
            centers.append(site + off)
            cell_of.append(j)
    return VolumetricCluster(
        a=a, s=s, t=t, d_min=d_min, seed=seed,
        cell_centers=kept, cell_sides=sides, counts=counts,
        centers=np.array(centers), cell_of=np.array(cell_of, dtype=int),
        dropped_volume=float(dropped * a**s), domain=domain, density=density,
    )


def build_surface(chart, density: DensityField, a: float, s: float, t: float,
                  seed: int = 0, d_min: float = 0.5) -> SurfaceCluster:
    """Shell-ordered parameter-plane squares on an area-preserving chart.

    Both charts map parameter areas to equal surface areas, so squares of
    side sqrt(a^s (floor(K)+1)/(K+1)) have that surface area; sites crossing
    the chart boundary are dropped and their area is reported.  Ambient
    positions come from the chart map; minimum distances are measured in
    ambient space.
    """
    if a <= 0 or a >= 1:
        raise ConfigError("radius scale a must lie in (0, 1)")
    pitch = a ** (s / 2.0)
    lo, hi = chart.param_bbox()
    if pitch > float(np.min(hi - lo)):
        raise PlacementError("radius scale too large: lattice pitch exceeds the chart")
    d_req = d_min * a**t
    n, starts = _lattice_axes(lo, hi, pitch)
    grids = np.meshgrid(*[np.arange(k) for k in n], indexing="ij")
    idx = np.column_stack([g.ravel() for g in grids])
    order = _shell_order(idx, n)
    idx = idx[order]
    sites = starts[None, :] + idx * pitch

    # a site is kept only if its pitch-square lies fully inside the chart
    half = pitch / 2.0
    corners = np.array([[-half, -half], [half, -half], [-half, half], [half, half]])
    fully = np.ones(len(sites), dtype=bool)
    touching = np.zeros(len(sites), dtype=bool)
    for corner in corners:
        ok = chart.contains_param(sites + corner)
        fully &= ok
        touching |= ok
    touching |= chart.contains_param(sites)
    dropped_area = float(np.sum(touching & ~fully)) * a**s

    kept = sites[fully]
    xyz_sites = chart.to_xyz(kept)
    kvals = density(kept)
    counts = np.floor(kvals).astype(int) + 1
    fracs = counts / (kvals + 1.0)
    target_areas = a**s * fracs
    sides = np.sqrt(target_areas)

    rng = np.random.default_rng(seed)
    centers, param_centers, cell_of = [], [], []
    for j, (site, side, cnt) in enumerate(zip(kept, sides, counts)):
        local = [np.zeros(2)]
        wall_margin = max(0.0, (side - pitch + d_req) / 2.0)
        local.extend(_place_extras(rng, 2, side, int(cnt), d_req, wall_margin))
        for off in local:
            uv = site + off
            param_centers.append(uv)
            cell_of.append(j)
    param_centers = np.array(param_centers)
    centers = chart.to_xyz(param_centers)

    cluster = SurfaceCluster(
        a=a, s=s, t=t, d_min=d_min, seed=seed,
        square_params=kept, square_sides=sides, square_areas=target_areas,
        counts=counts, centers=centers, param_centers=param_centers,
        cell_of=np.array(cell_of, dtype=int),
        dropped_area=dropped_area, chart=chart, density=density,
    )
    # ambient spacing may be tighter than the parameter-plane one; verify
    report = validate(cluster)
    if not report["min_distance"][0]:
        raise PlacementError(f"ambient spacing violated: {report['min_distance'][1]}")
    return cluster


def _min_pairwise_distance(points):
    """Smallest distance between two distinct points, in bounded row blocks."""
    pts = np.asarray(points, dtype=float)
    best = math.inf
    for i0, i1 in _upper_blocks(len(pts)):
        d = np.empty((i1 - i0, len(pts) - i0))
        _block_distances(pts, i0, i1, d, np.empty_like(d))
        d[np.arange(i1 - i0), np.arange(i1 - i0)] = np.inf  # skip i == j
        best = min(best, float(d.min()))
    return best


def validate(cluster) -> dict:
    """Recompute the distribution invariants; {check: (passed, detail)}."""
    checks = {}
    a, s, t = cluster.a, cluster.s, cluster.t
    d_req = cluster.d_min * a**t
    mind = _min_pairwise_distance(cluster.centers)
    checks["min_distance"] = (mind >= d_req * (1 - 1e-12),
                              f"min {mind!r} vs required {d_req!r}")
    m = len(cluster.centers)
    checks["count_consistency"] = (int(cluster.counts.sum()) == m,
                                   f"sum(counts)={int(cluster.counts.sum())} M={m}")
    kmax_plus = int(cluster.counts.max()) if len(cluster.counts) else 1
    bound = kmax_plus * max(math.ceil(a**-s), len(cluster.counts))
    checks["total_count_bound"] = (m <= bound, f"M={m} bound={bound}")

    if isinstance(cluster, VolumetricCluster):
        kv = cluster.density(cluster.cell_centers) if cluster.density is not None else None
        if kv is not None:
            target = a**s * (np.floor(kv) + 1.0) / (kv + 1.0)
            vol_ok = np.allclose(cluster.cell_sides**3, target, rtol=1e-12, atol=0.0)
            checks["cell_volumes"] = (bool(vol_ok), "a^s (floor(K)+1)/(K+1) per cell")
            checks["counts_match_density"] = (
                bool(np.array_equal(cluster.counts, np.floor(kv).astype(int) + 1)),
                "floor(K)+1 per cell")
        inside = np.ones(m, dtype=bool)
        half = cluster.cell_sides[cluster.cell_of] / 2.0
        rel = np.abs(cluster.centers - cluster.cell_centers[cluster.cell_of])
        checks["centers_in_cells"] = (bool(np.all(rel <= half[:, None] + 1e-12)),
                                      "every center inside its cell")
        if cluster.domain is not None:
            checks["cells_inside_domain"] = (
                bool(np.all(cluster.domain.contains(cluster.cell_centers))),
                "every kept cell center lies in the domain")
    else:
        kv = cluster.density(cluster.square_params) if cluster.density is not None else None
        if kv is not None:
            target = a**s * (np.floor(kv) + 1.0) / (kv + 1.0)
            area_ok = np.allclose(cluster.square_areas, target, rtol=1e-12, atol=0.0)
            checks["cell_areas"] = (bool(area_ok), "a^s (floor(K)+1)/(K+1) per square")
            checks["counts_match_density"] = (
                bool(np.array_equal(cluster.counts, np.floor(kv).astype(int) + 1)),
                "floor(K)+1 per square")
        half = cluster.square_sides[cluster.cell_of] / 2.0
        rel = np.abs(cluster.param_centers - cluster.square_params[cluster.cell_of])
        checks["centers_in_cells"] = (bool(np.all(rel <= half[:, None] + 1e-12)),
                                      "every parameter center inside its square")
        if cluster.chart is not None:
            checks["cells_inside_chart"] = (
                bool(np.all(cluster.chart.contains_param(cluster.square_params))),
                "every kept square center lies in the chart")
    return checks
