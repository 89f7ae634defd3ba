import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from bubblelab.cluster import (
    BallDomain,
    BoxDomain,
    DensityField,
    PlaneChart,
    SphereCapChart,
    build_surface,
    _lattice_axes,
    _place_extras,
    build_volumetric,
    save_cluster,
    validate,
)
from bubblelab import cluster
from bubblelab.errors import ConfigError, PlacementError

from oracles import cube_meets_domain, dropped_volume_by_loop


def chart_square_area(chart, center, side, n=24):
    """Surface area of a parameter square by finite-difference Jacobians."""
    h = side / n
    us = center[0] - side / 2 + h * (np.arange(n) + 0.5)
    vs = center[1] - side / 2 + h * (np.arange(n) + 0.5)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    pts = np.column_stack([uu.ravel(), vv.ravel()])
    eps = 1e-6
    xu = (chart.to_xyz(pts + [eps, 0]) - chart.to_xyz(pts - [eps, 0])) / (2 * eps)
    xv = (chart.to_xyz(pts + [0, eps]) - chart.to_xyz(pts - [0, eps])) / (2 * eps)
    jac = np.linalg.norm(np.cross(xu, xv), axis=1)
    return float(jac.sum() * h * h)


def test_periodic_unit_cube():
    # K = 0, s = 1, a = 1e-3: 1000 cells of side 0.1, one center each
    cl = build_volumetric(BoxDomain(size=(1, 1, 1)), DensityField("constant", 0.0),
                          a=1e-3, s=1.0, t=0.4, seed=0, d_min=0.5)
    assert len(cl.cells) == 1000
    assert cl.m == 1000
    assert np.allclose(cl.sides, 0.1, rtol=1e-12)
    assert np.array_equal(cl.centers, cl.cells)
    d = np.linalg.norm(cl.centers[:, None, :] - cl.centers[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert abs(d.min() - 0.1) < 1e-12
    assert cl.dropped == 0.0
    checks = validate(cl)
    assert all(ok for ok, _ in checks.values())


@pytest.mark.parametrize("domain", [BoxDomain(size=(1, 1, 1)), BallDomain()],
                         ids=["box", "ball"])
def test_one_centre_cells_record_their_lattice_sites(domain):
    # K < 1: every kept cell holds its centre alone, at starts + site * pitch
    cl = build_volumetric(domain, DensityField("constant", 0.5), a=2e-4, s=0.7, t=0.3,
                          seed=0, d_min=0.5)
    assert cl.sites.shape == (cl.m, 3) and cl.sites.dtype.kind == "i"
    lo, hi = domain.bounding_box()
    _, starts = _lattice_axes(lo, hi, cl.pitch)
    assert np.array_equal(cl.centers, starts + cl.sites * cl.pitch)
    assert len(np.unique(np.ravel_multi_index(cl.sites.T, cl.sites.max(axis=0) + 1))) == cl.m
    # extras in a cell, or a surface chart, leave the cluster off the lattice
    assert build_volumetric(domain, DensityField("constant", 1.0), a=2e-3, s=0.7, t=0.3,
                            seed=0, d_min=0.5).sites is None
    assert build_surface(PlaneChart(), DensityField("constant", 0.0), a=1e-2, s=1.0, t=0.5,
                         seed=0, d_min=0.5).sites is None


def test_constant_density_one_and_a_half():
    # floor(1.5)+1 = 2 centers per cell, cell volume a^s * 2/2.5
    cl = build_volumetric(BoxDomain(size=(1, 1, 1)), DensityField("constant", 1.5),
                          a=5e-3, s=1.0, t=0.4, seed=3, d_min=0.5)
    assert np.all(cl.counts == 2)
    assert np.allclose(cl.sides**3, cl.a * 2 / 2.5, rtol=1e-12)
    assert cl.m == 2 * len(cl.cells)
    checks = validate(cl)
    assert all(ok for ok, _ in checks.values()), checks


def test_integer_density_exact_volumes():
    for k in (0.0, 2.0):
        cl = build_volumetric(BoxDomain(size=(1, 1, 1)), DensityField("constant", k),
                              a=1e-2, s=1.0, t=0.4, seed=1, d_min=0.5)
        assert np.allclose(cl.sides**3, cl.a, rtol=1e-12)


def test_dropped_volume_slope_one_third():
    vols = []
    avals = [1e-2, 1e-3]
    for a in avals:
        cl = build_volumetric(BallDomain(radius=1.0), DensityField("constant", 0.0),
                              a=a, s=1.0, t=0.4, seed=0, d_min=0.5)
        vols.append(cl.dropped)
    slope = math.log(vols[1] / vols[0]) / math.log(avals[1] / avals[0])
    assert 0.33 - 0.15 <= slope <= 0.33 + 0.15


@pytest.mark.parametrize("domain", [
    BoxDomain(center=(0.1, -0.2, 0.3), size=(1.0, 0.7, 0.4)),
    BallDomain(radius=0.5),
    BallDomain(center=(0.37, -0.21, 0.05), radius=0.45),
], ids=["box", "ball", "offcentre_ball"])
def test_dropped_volume_matches_per_site_loop(domain):
    a, s = 1e-4, 1.0
    half = a ** (s / 3.0) / 2.0
    lo, hi = domain.bounding_box()
    # cubes inside, cut by and clear of the domain, some centred within half
    # a side of its mid-planes
    sites = np.random.default_rng(3).uniform(lo - 4 * half, hi + 4 * half, (20000, 3))
    meets = domain.intersects_cube(sites, half)
    assert 0 < np.count_nonzero(meets) < len(sites)
    assert np.array_equal(meets, [cube_meets_domain(domain, c, half) for c in sites])
    # build_volumetric's own lattice (its box sites never leave a box domain)
    n, starts = _lattice_axes(lo, hi, 2 * half)
    sites = starts + np.indices(n).reshape(3, -1).T * 2 * half
    expected = dropped_volume_by_loop(domain, sites, half, a**s)
    cl = build_volumetric(domain, DensityField("constant", 0.0), a, s, 0.4, d_min=0.5)
    assert cl.dropped == pytest.approx(expected, rel=1e-12)
    assert (expected > 0.0) == isinstance(domain, BallDomain)


def test_total_count_scaling():
    # M(a) a^s bounded above by K_sup+1 and below by a positive constant
    dens = DensityField("constant", 0.3)
    for a in (1e-1, 1e-2, 1e-3):
        cl = build_volumetric(BoxDomain(size=(1, 1, 1)), dens, a=a, s=1.0, t=0.4, seed=0,
                              d_min=0.5)
        scaled = cl.m * a**cl.s
        assert 0.4 <= scaled <= 1.3 + 1e-9


def test_infeasible_spacing_exponent():
    with pytest.raises(PlacementError):
        build_volumetric(BoxDomain(), DensityField("constant", 0.0), a=1e-2, s=1.2, t=0.3,
                         d_min=0.5)


def test_placement_error_when_density_too_high():
    with pytest.raises(PlacementError):
        build_volumetric(BoxDomain(size=(1, 1, 1)), DensityField("constant", 60.0),
                         a=1e-2, s=0.9, t=0.3, seed=0, d_min=0.5)


def test_dense_cells_place_on_one_draw():
    # the middle node of a 3^3 sub-grid would sit on the always occupied cell
    # center, so K = 26 fills the 26 outer nodes, every cell on its one draw
    cl = build_volumetric(BoxDomain(), DensityField("constant", 26.0), a=4e-3, s=1.0, t=0.4,
                          seed=1, d_min=0.1)
    assert cl.m == 5832
    assert all(ok for ok, _ in validate(cl).values())
    # the extras of an odd sub-grid are jittered, not just 3 coordinate values
    # per axis (-h, 0, h)
    cl = build_surface(PlaneChart(), DensityField("constant", 4.0), a=4e-3, s=1.0, t=0.4,
                       seed=1, d_min=0.1)
    offsets = (cl.params - cl.cells[cl.cell_of])[np.arange(cl.m) % 5 != 0]
    assert len(np.unique(np.round(offsets, 12))) > 3


def test_single_draw_keeps_the_generator_stream():
    # K = 1: the even 2^3 sub-grid keeps all 8 nodes, so each cell draws 8
    # jitters and one permutation of 8; the digest pins that stream
    cl = build_volumetric(BoxDomain(), DensityField("constant", 1.0), a=4e-3, s=1.0, t=0.4,
                          seed=1, d_min=0.5)
    assert cl.m == 432
    digest = hashlib.sha256(cl.centers.tobytes()).hexdigest()
    assert digest.startswith("24aaba3ada8689b1")


def test_extras_check_names_the_first_failing_cell(monkeypatch):
    # a sub-grid whose nodes sit 0.3 from the centre, unjittered: a cell of
    # side 1 keeps them 0.2 from its walls, cells of side 0.5 and 0.55 do not.
    # Cells 1 and 2 fail, checked in different count groups; cell 1 is named
    def subgrid(dim, side, count, d_req, wall_margin):
        return np.array([[0.3, 0.0, 0.0], [-0.3, 0.0, 0.0]])[:count - 1], 0.0

    monkeypatch.setattr(cluster, "_extra_subgrid", subgrid)
    sides, counts = np.array([1.0, 0.5, 0.55]), np.array([2, 3, 2])
    with pytest.raises(PlacementError, match=r"side \S*0\.5\)?$"):
        _place_extras(np.random.default_rng(0), 3, sides, counts, np.arange(3), 1.0, 0.1)
    extras = _place_extras(np.random.default_rng(0), 3, sides[:1], counts[:1],
                           np.arange(1), 1.0, 0.1)
    assert np.array_equal(extras, [[0.3, 0.0, 0.0]])


@pytest.mark.parametrize("build, chart, k, t, seed, m, expected", [
    (build_volumetric, BoxDomain(), 1.0, 0.4, 3, 432,
     "e26f6a3b75de2a16d2ee4c237e64a53b71977813e3154bee89f856ccbb6a2fe2"),
    (build_surface, PlaneChart(), 4.0, 0.5, 5, 980,
     "5b4003dfeedd65fb1c87988de3d4b8b5ece8b23adad4c37e59f2044d308464bd"),
], ids=["box_k1_seed3", "plane_k4_seed5"])
def test_centers_with_extras_bitwise_pinned(build, chart, k, t, seed, m, expected):
    # SHA-256 of the parameter-space centres of a per-cell placement loop
    # (PCG64 draws and arithmetic only, so the digest holds on any host)
    cl = build(chart, DensityField("constant", k), a=4e-3, s=1.0, t=t, seed=seed, d_min=0.1)
    assert cl.m == m
    assert hashlib.sha256(np.ascontiguousarray(cl.params, "<f8").tobytes()).hexdigest() == expected


def test_density_field_validation():
    with pytest.raises(ConfigError):
        DensityField("constant", -0.5)
    with pytest.raises(ConfigError):
        DensityField("grid", origin=(0, 0, 0), spacing=(1, 1, 1),
                     samples=-np.ones((2, 2, 2)))
    grid = DensityField("grid", origin=(0, 0, 0), spacing=(1, 1, 1),
                        samples=np.arange(8, dtype=float).reshape(2, 2, 2))
    # trilinear interpolation midpoint = mean of corners
    assert grid([[0.5, 0.5, 0.5]])[0] == pytest.approx(3.5)
    # clamped outside the sample box
    assert grid([[-5.0, 0.0, 0.0]])[0] == pytest.approx(grid([[0.0, 0.0, 0.0]])[0])


def test_variable_density_counts():
    samples = np.zeros((2, 2, 2))
    samples[1] = 3.0  # K grows along x
    dens = DensityField("grid", origin=(-0.5, -0.5, -0.5), spacing=(1, 1, 1), samples=samples)
    cl = build_volumetric(BoxDomain(size=(1, 1, 1)), dens, a=2e-2, s=1.0, t=0.4, seed=5,
                          d_min=0.5)
    assert set(np.unique(cl.counts)) >= {1}
    assert cl.counts.max() > 1  # denser side holds more bubbles
    checks = validate(cl)
    assert all(ok for ok, _ in checks.values()), checks


def test_determinism_byte_for_byte():
    dens = DensityField("constant", 1.2)
    kw = dict(a=4e-3, s=1.0, t=0.4, seed=42, d_min=0.5)
    c1 = build_volumetric(BoxDomain(size=(1, 1, 1)), dens, **kw)
    c2 = build_volumetric(BoxDomain(size=(1, 1, 1)), dens, **kw)
    assert json.dumps(c1.to_json()) == json.dumps(c2.to_json())
    # multi-center squares need spacing ~ a^(s/2): use t = s/2 and a looser d_min
    kw2 = dict(a=4e-3, s=1.0, t=0.5, seed=42, d_min=0.25)
    s1 = build_surface(PlaneChart(1.0, 1.0), dens, **kw2)
    s2 = build_surface(PlaneChart(1.0, 1.0), dens, **kw2)
    assert json.dumps(s1.to_json()) == json.dumps(s2.to_json())


def test_flat_square_exact_tiling():
    cl = build_surface(PlaneChart(1.0, 1.0), DensityField("constant", 0.0),
                       a=1e-2, s=1.0, t=0.45, seed=0, d_min=0.5)
    assert len(cl.cells) == 100
    assert np.allclose(cl.sides, 0.1, rtol=1e-12)
    assert cl.dropped == 0.0
    checks = validate(cl)
    assert all(ok for ok, _ in checks.values()), checks


def test_sphere_chart_square_areas_within_two_percent():
    chart = SphereCapChart(radius=1.0, theta_max=np.pi / 2)
    cl = build_surface(chart, DensityField("constant", 0.0), a=1e-2, s=1.0, t=0.45,
                       seed=0, d_min=0.3)
    target = cl.a**cl.s
    for center, side in list(zip(cl.cells, cl.sides))[::7]:
        area = chart_square_area(chart, center, side)
        assert abs(area - target) <= 0.02 * target


def test_surface_dropped_area_slope_one_half():
    chart = SphereCapChart(radius=1.0, theta_max=np.pi / 2)
    drops = []
    avals = [1e-2, 1e-3]
    for a in avals:
        cl = build_surface(chart, DensityField("constant", 0.0), a=a, s=1.0, t=0.45,
                           seed=0, d_min=0.2)
        drops.append(cl.dropped)
    slope = math.log(drops[1] / drops[0]) / math.log(avals[1] / avals[0])
    assert 0.5 - 0.15 <= slope <= 0.5 + 0.15


def test_validate_flags_coincident_centers():
    volume = build_volumetric(BoxDomain(size=(1, 1, 1)), DensityField("constant", 0.0),
                              a=2e-2, s=1.0, t=0.4, seed=0, d_min=0.5)
    cap = build_surface(SphereCapChart(), DensityField("constant", 0.7), a=2e-2, s=1.0,
                        t=0.45, seed=9, d_min=0.3)
    for base in (volume, cap):
        broken = dataclasses.replace(
            base,
            params=np.vstack([base.params[:1], base.params]),
            centers=np.vstack([base.centers[:1], base.centers]),
            cell_of=np.concatenate([[0], base.cell_of]),
        )
        checks = validate(broken)
        assert not checks["min_distance"][0]


VALIDATE_GEOMETRIES = {
    "box": (build_volumetric, BoxDomain(center=(0.1, -0.2, 0.3), size=(1.0, 0.7, 0.4)),
            dict(a=5e-3, t=0.4, d_min=0.5)),
    "ball": (build_volumetric, BallDomain(radius=0.5), dict(a=5e-3, t=0.4, d_min=0.5)),
    "plane": (build_surface, PlaneChart(1.0, 0.8), dict(a=4e-3, t=0.5, d_min=0.25)),
    "cap": (build_surface, SphereCapChart(radius=1.0, theta_max=1.2),
            dict(a=4e-3, t=0.5, d_min=0.25)),
}


@pytest.mark.parametrize("k", [0.0, 0.7, 1.5])
@pytest.mark.parametrize("name", list(VALIDATE_GEOMETRIES))
def test_validate_passes_on_every_geometry(name, k):
    builder, geometry, kw = VALIDATE_GEOMETRIES[name]
    cl = builder(geometry, DensityField("constant", k), s=1.0, seed=1, **kw)
    surface = builder is build_surface
    assert np.all(cl.counts == math.floor(k) + 1)
    checks = validate(cl)
    assert all(ok for ok, _ in checks.values()), checks
    measure, inside = (("cell_areas", "cells_inside_chart") if surface
                       else ("cell_volumes", "cells_inside_domain"))
    assert {measure, inside, "min_distance", "counts_match_density"} <= set(checks)
    doc = cl.to_json()
    assert doc["kind"] == ("surface" if surface else "volumetric")
    dropped = "dropped_area" if surface else "dropped_volume"
    assert doc[dropped] == cl.dropped
    assert ({"dropped_area", "dropped_volume"} - {dropped}).isdisjoint(doc)
    assert cl.centers.shape == (cl.m, 3)
    assert cl.params.shape == (cl.m, 2 if surface else 3)
    assert (cl.params is cl.centers) != surface


def test_cluster_json_roundtrip(tmp_path):
    cl = build_surface(SphereCapChart(), DensityField("constant", 0.7), a=2e-2, s=1.0,
                       t=0.45, seed=9, d_min=0.3)
    path = tmp_path / "cluster.json"
    save_cluster(cl, path)
    doc = json.loads(path.read_text())
    assert np.allclose(doc["centers"], cl.centers)
    assert doc["kind"] == "surface"
    assert doc["a"] == cl.a and doc["counts"] == [int(c) for c in cl.counts]
