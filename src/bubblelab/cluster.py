"""Rubik-style bubble distributions in volumes and on surface charts.

One builder lays cells out on a uniform lattice (pitch a^(s/3) in volumes,
a^(s/2) in chart parameter planes), ordered in concentric shells from the
domain center outward; volumes and surfaces differ only in which boundary
cells they keep.  Each kept cell gets floor(K)+1 centers: the cell center
plus extras from one seeded draw on a jittered sub-grid.  The generator is
created only when some cell has extras, so a K < 1 cluster never loads
``numpy.random``.  A cap with one center a cell is its first quadrant and
that quadrant's exact quarter turns about z.  Construction is
deterministic for a fixed seed and single-threaded; clusters are immutable.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
import numpy as np

from .errors import ConfigError, PlacementError
from .kernels import min_pairwise_distance


# ---------------------------------------------------------------------------
# density fields


class DensityField:
    """Non-negative bounded density K; constant, or trilinear on a 3d sample grid."""

    def __init__(self, kind, value=0.0, origin=None, spacing=None, samples=None,
                 k_max=None):
        self.kind = kind
        if kind == "constant":
            if value < 0:
                raise ConfigError("constant density needs a non-negative value")
            self.value = float(value)
            observed_max = self.value
        elif kind == "grid":
            samples = np.asarray(samples, dtype=float)
            if np.any(samples < 0):
                raise ConfigError("density samples must be non-negative")
            if not np.all(np.isfinite(samples)):
                raise ConfigError("density samples must be finite")
            origin = np.asarray(origin, dtype=float)
            spacing = np.asarray(spacing, dtype=float)
            axes = [origin[d] + spacing[d] * np.arange(samples.shape[d]) for d in range(3)]
            self._axes = axes
            # imported here, not at start-up: scipy.interpolate also loads
            # scipy.optimize and scipy.spatial, and only a grid density needs it
            from scipy.interpolate import RegularGridInterpolator
            self._interp = RegularGridInterpolator(axes, samples, method="linear")
            observed_max = float(samples.max())
        else:
            raise ConfigError(f"unknown density kind {kind!r}")
        if k_max is not None and observed_max > k_max:
            raise ConfigError("density exceeds the configured bound k_max")

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "constant":
            return np.full(len(pts), self.value)
        # clamp to the grid so boundary cells sample the nearest data
        return self._interp(np.clip(pts, [ax[0] for ax in self._axes],
                                    [ax[-1] for ax in self._axes]))


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


@dataclass(frozen=True)
class BallDomain:
    center: tuple = (0.0, 0.0, 0.0)
    radius: float = 0.620350490899  # unit volume

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


# ---------------------------------------------------------------------------
# surface charts


@dataclass(frozen=True)
class PlaneChart:
    """Flat rectangle about the origin in the z = 0 plane, parameterized by itself."""

    lx: float = 1.0
    ly: float = 1.0

    def bounding_box(self):
        return np.array([-self.lx / 2, -self.ly / 2]), np.array([self.lx / 2, self.ly / 2])

    def contains(self, uv):
        lo, hi = self.bounding_box()
        pts = np.atleast_2d(uv)
        return np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12), axis=1)

    def to_xyz(self, uv):
        pts = np.atleast_2d(uv)
        return np.column_stack([pts[:, 0], pts[:, 1], np.zeros(len(pts))])


@dataclass(frozen=True)
class SphereCapChart:
    """Spherical cap about +z through the Lambert equal-area projection.

    The parameter domain is the disk of radius 2 R sin(theta_max/2); the
    pullback area element is exactly the Euclidean one (metric = 1), so
    parameter-plane areas equal surface areas.
    """

    radius: float = 1.0
    theta_max: float = math.pi / 2

    @property
    def rho_max(self):
        return 2.0 * self.radius * math.sin(self.theta_max / 2.0)

    def bounding_box(self):
        r = self.rho_max
        return np.array([-r, -r]), np.array([r, r])

    def contains(self, uv):
        pts = np.atleast_2d(uv)
        return np.linalg.norm(pts, axis=1) <= self.rho_max + 1e-12

    def to_xyz(self, uv):
        pts = np.atleast_2d(uv)
        rho = np.linalg.norm(pts, axis=1)
        theta = 2.0 * np.arcsin(np.clip(rho / (2.0 * self.radius), 0.0, 1.0))
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        return self.radius * np.column_stack(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )


# ---------------------------------------------------------------------------
# clusters


@dataclass(frozen=True)
class Cluster:
    """Kept lattice cells and the centers they hold, in a volume or on a chart.

    Cells live in the geometry's own coordinates: ambient points of a domain
    (dim 3) or parameter points of a surface chart (dim 2).  ``params`` holds
    the centers in those coordinates and ``centers`` their ambient positions,
    the same array on a domain.  ``dropped`` is the trimmed volume or area.
    ``sites`` holds the integer lattice index of each center when every
    kept volume cell holds its center alone (K < 1), and is None otherwise:
    the point-interaction solve then runs on the lattice, by FFT.  A cap
    whose kept cells, more than the pole's, each hold their center alone is
    exactly 4-fold symmetric about z: ``sectors`` is then 4 (else 1) and ``orbits`` lists
    the center indices in orbit order, in which center 4 r + k is center
    4 r turned by k quarter turns and the pole, if any, comes last; the
    point-interaction solve then runs one block per Fourier mode.
    """

    a: float
    s: float
    t: float
    d_min: float
    seed: int
    cells: np.ndarray  # (n_cells, dim) cell centers
    sides: np.ndarray  # (n_cells,) cell side lengths
    counts: np.ndarray  # (n_cells,) = floor(K)+1
    params: np.ndarray  # (M, dim)
    centers: np.ndarray  # (M, 3)
    cell_of: np.ndarray  # (M,) cell index per center
    dropped: float
    geometry: object = field(repr=False)
    density: object = field(repr=False)
    sites: np.ndarray = field(default=None, repr=False)  # (M, 3) int, or None
    sectors: int = 1
    orbits: np.ndarray = field(default=None, repr=False)  # (M,) center indices, or None

    @property
    def m(self):
        return len(self.centers)

    @property
    def pitch(self):
        """Lattice pitch a^(s/dim) of the cells."""
        return self.a ** (self.s / self.cells.shape[1])

    @property
    def is_surface(self):
        return self.cells.shape[1] == 2

    def to_json(self):
        return {
            "kind": "surface" if self.is_surface else "volumetric",
            "a": self.a, "s": self.s, "t": self.t, "d_min": self.d_min, "seed": self.seed,
            "centers": [[float(x) for x in z] for z in self.centers],
            "cells": [[*map(float, c), float(s)] for c, s in zip(self.cells, self.sides)],
            "counts": [int(c) for c in self.counts],
            "cell_of": [int(i) for i in self.cell_of],
            "dropped_area" if self.is_surface else "dropped_volume": self.dropped,
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
    return np.lexsort([*idx.T[::-1], np.round(cheb * 2).astype(int)])


@functools.lru_cache
def _extra_subgrid(dim, side, count, d_req, wall_margin):
    """Sub-grid nodes and jitter amplitude for count-1 extras in one cell.

    Extras come from a corner-spanning n^dim sub-grid kept ``wall_margin``
    (plus jitter room) away from the walls so neighbouring cells stay
    separated, less the nodes closer than ``d_req`` to the cell center (for
    odd n, the middle node).  The jitter amplitude is budgeted against the
    slack of the closest pair, the cell center included, so every draw keeps
    the spacing; a cell with too few nodes or no slack fails before any draw.
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
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    nodes = nodes[np.linalg.norm(nodes, axis=1) >= d_req]
    slack = min_pairwise_distance(np.vstack([np.zeros((1, dim)), nodes])) - d_req
    if len(nodes) < count - 1 or not slack > 0:
        raise PlacementError(f"could not place {count} centers at spacing {d_req!r} "
                             f"in a cell of side {side!r}")
    return nodes, min(wall_pad, 0.45 * slack) / (2.0 * math.sqrt(dim))


def _place_extras(rng, dim, sides, counts, drawing, pitch, d_req):
    """The count-1 extra local offsets of every cell in ``drawing``, stacked
    in cell order, each from one jittered sub-grid draw, checked.

    The cell center (offset 0) is always occupied.  The sub-grid depends only
    on the cell's shape and is built once per distinct shape; its jitter
    budget makes every draw pass the spacing and wall checks.  Cells smaller
    than the pitch have a built-in gap to their neighbours, so their wall
    margin shrinks by it.  Each cell draws its jitter and then its
    permutation, in cell order; the checks then run once per count over all
    cells of that count, and the first failing cell raises PlacementError.
    """
    walls = np.maximum(0.0, (sides - pitch + d_req) / 2.0)
    chosen = []
    for c in drawing:
        nodes, amp = _extra_subgrid(dim, sides[c], int(counts[c]), d_req, walls[c])
        jitter = rng.uniform(-amp, amp, size=nodes.shape)
        chosen.append((nodes + jitter)[rng.permutation(len(nodes))[: counts[c] - 1]])
    failed = []
    for k in set(counts[drawing].tolist()):
        where = np.flatnonzero(counts[drawing] == k)
        cells = drawing[where]
        cand = np.zeros((len(cells), k, dim))
        cand[:, 1:] = [chosen[i] for i in where]
        pair = np.linalg.norm(cand[:, :, None, :] - cand[:, None, :, :], axis=-1)
        pair[:, np.arange(k), np.arange(k)] = np.inf
        wall = sides[cells] / 2.0 - np.abs(cand[:, 1:]).max(axis=(1, 2))
        ok = (pair.min(axis=(1, 2)) >= d_req) & (wall >= walls[cells])
        failed += cells[~ok].tolist()
    if failed:
        raise PlacementError(f"extras broke spacing {d_req!r} in a cell of side "
                             f"{sides[min(failed)]!r}")
    return np.concatenate(chosen)


def _turn(points, k):
    """Points turned exactly by k[i] quarter turns (x, y) -> (-y, x) about z."""
    x, y = points[:, 0], points[:, 1]
    out = points.copy()
    out[:, 0] = np.choose(k, [x, -y, -x, y])
    out[:, 1] = np.choose(k, [y, x, -y, -x])
    return out


def _quarter_turns(idx, n):
    """(home, k) of the sites ``idx`` of an n x n lattice: each site is the
    k-th quarter turn of the site in row home of idx, which lies in sector 0
    (a > 0, b >= 0 in the centred (a, b) = 2 idx - (n - 1)) or is the centre."""
    a, b = (2 * idx - (n - 1)).T
    k = np.select([(a <= 0) & (b > 0), (a < 0) & (b <= 0), (a >= 0) & (b < 0)], [1, 2, 3], 0)
    home_a, home_b = np.choose(k, [a, b, -a, -b]), np.choose(k, [b, -a, -b, a])
    row = np.empty(n * n, dtype=int)
    row[idx[:, 0] * n + idx[:, 1]] = np.arange(len(idx))
    return row[(home_a + n - 1) // 2 * n + (home_b + n - 1) // 2], k


def _build(geometry, density, a, s, t, seed, d_min, keep_rule) -> Cluster:
    """Shell-ordered lattice cells over a domain or chart; floor(K)+1 centers per cell.

    Cells of measure a^s (floor(K)+1)/(K+1) sit at the sites of a lattice of
    pitch a^(s/dim) over the geometry's bounding box.  ``keep_rule(geometry,
    sites, pitch)`` returns the kept-site mask and the number of dropped cells.
    A volume whose kept cells each hold one center records their lattice
    indices as ``sites``.  On a cap the kept sites are those of sector 0 and
    their quarter turns (the chart, the centred lattice and the keep rule
    all commute with the turn); if no cell draws extras, only sector 0 goes
    through the chart, the other sectors are its exact turns, and the
    cluster records its orbits.
    """
    if a <= 0 or a >= 1:
        raise ConfigError("radius scale a must lie in (0, 1)")
    lo, hi = geometry.bounding_box()
    dim = len(lo)
    pitch = a ** (s / dim)
    if pitch > float(np.min(hi - lo)):
        raise PlacementError("radius scale too large: lattice pitch exceeds the "
                             + ("chart" if dim == 2 else "domain"))
    d_req = d_min * a**t
    n, starts = _lattice_axes(lo, hi, pitch)
    idx = np.indices(n).reshape(dim, -1).T
    idx = idx[_shell_order(idx, n)]
    sites = starts + idx * pitch

    keep, n_dropped = keep_rule(geometry, sites, pitch)
    cap = isinstance(geometry, SphereCapChart)
    if cap:
        home, turns = _quarter_turns(idx, int(n[0]))
        keep = keep[home]
    kept = sites[keep]
    kvals = density(kept)
    counts = np.floor(kvals).astype(int) + 1
    sides = (a**s * (counts / (kvals + 1.0))) ** (1.0 / dim)

    # each cell's centre first, then its extras; only a cell with extras
    # draws, so K < 1 clusters never load numpy.random
    cell_of = np.repeat(np.arange(len(kept)), counts)
    params = kept[cell_of]
    drawing = np.flatnonzero(counts > 1)
    if len(drawing):
        extra = np.ones(len(params), dtype=bool)
        extra[np.cumsum(counts) - counts] = False
        params[extra] += _place_extras(np.random.default_rng(seed), dim, sides, counts,
                                       drawing, pitch, d_req)
    sectors, orbits = 1, None
    if cap and not len(drawing) and len(params) > 1:  # one center a cell, and an orbit
        sectors = 4
        params, centers, orbits = _turned_sectors(geometry, params, idx[keep], int(n[0]),
                                                  (np.cumsum(keep) - 1)[home[keep]], turns[keep])
        kept = params
    else:
        centers = geometry.to_xyz(params) if dim == 2 else params
    return Cluster(
        a=a, s=s, t=t, d_min=d_min, seed=seed, cells=kept, sides=sides, counts=counts,
        params=params, centers=centers, cell_of=cell_of, dropped=float(n_dropped) * a**s,
        geometry=geometry, density=density,
        sites=idx[keep] if dim == 3 and 0 < len(kept) == len(params) else None,
        sectors=sectors, orbits=orbits,
    )


def _turned_sectors(chart, params, idx, n, home, k):
    """(params, centers, orbits) of a cap cluster with one center a cell at
    sites ``idx`` of the n x n lattice: sector 0 and the pole through the
    chart, every other center row ``home``'s turned k times; ``orbits``
    puts each sector-0 center before its three turns and the pole last."""
    pole = np.all(2 * idx == n - 1, axis=1)
    params[pole] = 0.0  # the chart's origin, fixed by the turn
    own = np.flatnonzero(k == 0)
    centers = np.empty((len(params), 3))
    centers[own] = chart.to_xyz(params[own])
    orbit = np.cumsum(k == 0)
    orbit[pole] = len(params)  # the pole after every orbit
    return (_turn(params[home], k), _turn(centers[home], k),
            np.lexsort([k, orbit[home]]))


def _center_inside(domain, sites, pitch):
    """Keep the sites inside the domain; drop the cut cubes still touching it."""
    inside = domain.contains(sites)
    return inside, np.count_nonzero(domain.intersects_cube(sites[~inside], pitch / 2.0))


def _square_inside(chart, sites, pitch):
    """Keep the sites whose square lies in the chart; drop the others touching it."""
    half = pitch / 2.0
    fully = np.ones(len(sites), dtype=bool)
    touching = chart.contains(sites)
    for corner in itertools.product((-half, half), repeat=2):
        ok = chart.contains(sites + corner)
        fully &= ok
        touching |= ok
    return fully, np.count_nonzero(touching & ~fully)


def build_volumetric(domain, density: DensityField, a: float, s: float, t: float,
                     seed: int = 0, *, d_min: float) -> Cluster:
    """Cube cells of volume a^s (floor(K)+1)/(K+1) at lattice sites of pitch a^(s/3).

    Sites whose center leaves the domain are dropped; ``dropped`` is the
    volume of the cut cubes that still touch the domain.
    """
    if t < s / 3.0 - 1e-12:
        raise PlacementError(f"spacing exponent t={t!r} below s/3: cells cannot hold "
                             "their centers at the requested distance")
    return _build(domain, density, a, s, t, seed, d_min, _center_inside)


def build_surface(chart, density: DensityField, a: float, s: float, t: float,
                  seed: int = 0, *, d_min: float) -> Cluster:
    """Parameter-plane squares of area a^s (floor(K)+1)/(K+1) on an area-preserving chart.

    Both charts map parameter areas to equal surface areas.  Sites whose
    pitch-square crosses the chart boundary are dropped and their area is
    reported.  Ambient positions come from the chart map, and the minimum
    distance is checked in ambient space.
    """
    cluster = _build(chart, density, a, s, t, seed, d_min, _square_inside)
    # ambient spacing may be tighter than the parameter-plane one; verify
    d_req, mind = d_min * a**t, min_pairwise_distance(cluster.centers)
    if not mind >= d_req * (1 - 1e-12):
        raise PlacementError(f"ambient spacing violated: min {mind!r} vs required {d_req!r}")
    return cluster


def validate(cluster: Cluster) -> dict:
    """Recompute the distribution invariants; {check: (passed, detail)}."""
    a, s, m, counts = cluster.a, cluster.s, cluster.m, cluster.counts
    d_req, mind = cluster.d_min * a**cluster.t, min_pairwise_distance(cluster.centers)
    checks = {"min_distance": (mind >= d_req * (1 - 1e-12),
                               f"min {mind!r} vs required {d_req!r}")}
    checks["count_consistency"] = (int(counts.sum()) == m,
                                   f"sum(counts)={int(counts.sum())} M={m}")
    kmax_plus = int(counts.max()) if len(counts) else 1
    bound = kmax_plus * max(math.ceil(a**-s), len(counts))
    checks["total_count_bound"] = (m <= bound, f"M={m} bound={bound}")

    surface = cluster.is_surface
    cell, where = ("square", "chart") if surface else ("cell", "domain")
    kv = cluster.density(cluster.cells)
    target = a**s * (np.floor(kv) + 1.0) / (kv + 1.0)
    checks["cell_areas" if surface else "cell_volumes"] = (
        bool(np.allclose(cluster.sides ** cluster.cells.shape[1], target, rtol=1e-12,
                         atol=0.0)),
        f"a^s (floor(K)+1)/(K+1) per {cell}")
    checks["counts_match_density"] = (
        bool(np.array_equal(counts, np.floor(kv).astype(int) + 1)), f"floor(K)+1 per {cell}")
    half = cluster.sides[cluster.cell_of] / 2.0
    rel = np.abs(cluster.params - cluster.cells[cluster.cell_of])
    checks["centers_in_cells"] = (
        bool(np.all(rel <= half[:, None] + 1e-12)),
        f"every {'parameter ' if surface else ''}center inside its {cell}")
    checks[f"cells_inside_{where}"] = (bool(np.all(cluster.geometry.contains(cluster.cells))),
                                       f"every kept {cell} center lies in the {where}")
    return checks
