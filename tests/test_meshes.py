import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab.errors import ConfigError, GeometryError
from bubblelab.meshes import (
    SurfaceMesh,
    boundary_shape_factor,
    cube_mesh,
    icosphere,
    load_mesh,
    rect_mesh,
    sphere_cap_mesh,
)

from oracles import sphere_cap_by_loops, sphere_inner_integral


def test_icosphere_basic_geometry():
    m = icosphere(3)
    assert m.n_panels == 1280
    assert m.is_closed
    assert m.closure_defect() < 1e-12
    # inscribed polyhedron: slightly below the sphere values
    assert 0.97 * 4 * np.pi < m.total_area < 4 * np.pi
    assert 0.97 * 4 * np.pi / 3 < m.enclosed_volume() < 4 * np.pi / 3
    assert np.allclose(np.linalg.norm(m.vertices, axis=1), 1.0, atol=1e-12)


def test_cube_mesh_closed_exact():
    m = cube_mesh(4, side=2.0)
    assert m.is_closed
    assert abs(m.total_area - 24.0) < 1e-12
    assert abs(m.enclosed_volume() - 8.0) < 1e-12


def test_open_meshes_have_boundary():
    for m in (rect_mesh(1, 1, 4, 4), sphere_cap_mesh(1.0, np.pi / 3, 6, 16)):
        assert not m.is_closed
        assert len(m.boundary_edges) > 0
        with pytest.raises(GeometryError):
            m.require_closed()


def test_sphere_cap_area_and_normals():
    cap = sphere_cap_mesh(1.0, np.pi / 2, 16, 48)
    # hemisphere area 2 pi, faceting below
    assert 0.98 * 2 * np.pi < cap.total_area < 2 * np.pi
    # normals point away from the center
    assert np.all(np.einsum("ij,ij->i", cap.normals, cap.centroids) > 0)


def test_mesh_io_roundtrip(tmp_path):
    # the cap mixes pole-fan triangles and quad rings
    m = sphere_cap_mesh(1.0, np.pi / 2, 4, 8)
    path = tmp_path / "cap.msh"
    lines = ["# comment line", ""] + [f"v {x!r} {y!r} {z!r}" for x, y, z in m.vertices.tolist()]
    lines += [("f " + " ".join(map(str, p[:3])) if p[3] == p[0] else "q " + " ".join(map(str, p)))
              for p in m.panels.tolist()]
    path.write_text("\n".join(lines) + "\n")
    m2 = load_mesh(path)
    assert np.array_equal(m.vertices, m2.vertices)
    assert m.panels.dtype == m2.panels.dtype and np.array_equal(m.panels, m2.panels)


def test_load_mesh_rejects_bad_records(tmp_path):
    path = tmp_path / "bad.msh"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nt 0 1 2\n")
    with pytest.raises(GeometryError):
        load_mesh(path)


@pytest.mark.parametrize("record", ["v 0 0 x", "f 0 1 two", "q 0 1 2 3.5"])
def test_load_mesh_reports_non_numeric_fields_by_line(tmp_path, record):
    path = tmp_path / "bad.msh"
    path.write_text(f"v 0 0 0\nv 1 0 0\n{record}\nv 0 1 0\nf 0 1 2\n")
    with pytest.raises(GeometryError, match=re.escape(f"{path}:3: ") + f".*, got '{record[2:]}'$"):
        load_mesh(path)


def test_load_mesh_unreadable_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="missing.msh"):
        load_mesh(tmp_path / "missing.msh")
    (tmp_path / "binary.msh").write_bytes(b"v 0 0 \xff\n")
    with pytest.raises(ConfigError, match="binary.msh"):
        load_mesh(tmp_path / "binary.msh")


def test_degenerate_panel_rejected():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    with pytest.raises(GeometryError):
        SurfaceMesh(verts, np.array([[0, 1, 2]]))


SQUARE = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0], [0.5, 1.5, 0]])


@pytest.mark.parametrize("panels, message", [
    ([(0, 1, 2, 4, 3), (0, 1, 2, 3, 0)], "panel with 5 vertices not supported"),
    ([(0, 1, 2, 3), (0, 2, -1, 0)], "face index out of range"),
    ([(0, 1, 2, 3), (2, 4, 5, 2)], "face index out of range"),
    # a zero-area quad; one whose last index is its first reads as a padded triangle
    ([(0, 1, 2, 3), (0, 1, 2, 0), (2, 3, 2, 3)], "degenerate panel 2"),
    ([0, 1, 2], r"panels must be an \(n, 3\) or \(n, 4\) array"),
], ids=["five_vertices", "index_minus_1", "index_past_end", "degenerate_quad", "flat_row"])
def test_surface_mesh_rejects_bad_panels(panels, message):
    with pytest.raises(GeometryError, match=f"^{message}$"):
        SurfaceMesh(SQUARE, np.array(panels))


def _digest(mesh):
    return hashlib.sha256(np.ascontiguousarray(mesh.vertices, "<f8").tobytes()
                          + mesh.panels.astype("<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("make, expected", [
    (lambda: icosphere(0), "62a389080cafe9289068accf6b5ca4118593146762b89d348ff57731cbf87cab"),
    (lambda: icosphere(3), "27b1ccc225fece1f459f0a3bb61295e3d07d6f6fcade4a2b1da60634a05acefd"),
    (lambda: icosphere(2, radius=0.7, center=(0.3, -0.2, 0.1)),
     "97fda6fb3ec718ee748e2bb56a7155943f1e02325d53a89e5e156bd191d48e9c"),
    (lambda: cube_mesh(1), "2f8b9f050ca4b11781af6ce3267d0c2b5181bafb7bd393d0955aca5e3c15551a"),
    (lambda: cube_mesh(6), "115b0eba24d0d63cc6f0541a54c0446c530cee9557867b977617091be7022baa"),
    (lambda: cube_mesh(5, side=(0.3, 1.7, 2.2), center=(1.0, -2.0, 0.25)),
     "fe342a185b1fe45a27ea46c195719111aa3340c391f4841bd65d7e793d6e9036"),
    (lambda: rect_mesh(1.0, 1.0, 1, 1),
     "8789ceeda8becfa2c4f5d7f85b9b925fe65f98125012ffc1321f6fee277a1297"),
    (lambda: rect_mesh(0.7, 3.1, 10, 13),
     "2f89038ca09237befb6df64d014ca14dce34e0bce95689e450739de13f9a35ee"),
    (lambda: rect_mesh(1.0, 1.0, 16, 16),
     "090d70b5ad7e0469825419a608539f1f916b17525ee3a415634ef7d6d4f0e4ab"),
    (lambda: sphere_cap_mesh(1.0, 1.2, 6, 16),
     "773371391d8652783a77f82c989bdd74dfcd3f7bd9a502374dbc14c84260534d"),
], ids=["icosphere0", "icosphere3", "icosphere2_offcentre", "cube1", "cube6", "box5_offcentre",
        "rect1x1", "rect10x13", "rect16x16", "cap6x16"])
def test_generators_bitwise_pinned(make, expected):
    # SHA-256 of the vertices and panels that the generators built one vertex
    # and one panel at a time; these use exact arithmetic and sqrt only, except
    # the cap's sin and cos.  The cap's pole-fan triangles repeat their vertex 0.
    assert _digest(make()) == expected


@pytest.mark.parametrize("radius, theta_max, n_rings, n_phi", [
    (1.0, np.pi / 2, 16, 48), (1.0, np.pi / 2, 14, 42), (0.8, 1.2, 14, 42),
    (1.0, np.pi / 3, 6, 16), (2.0, np.pi, 3, 9), (1.0, np.pi / 2, 1, 5),
])
def test_sphere_cap_matches_loop_construction(radius, theta_max, n_rings, n_phi):
    verts, panels = sphere_cap_by_loops(radius, theta_max, n_rings, n_phi)
    cap = sphere_cap_mesh(radius, theta_max, n_rings, n_phi)
    assert np.array_equal(cap.panels, panels)
    assert np.abs(cap.vertices - verts).max() <= 1e-15


@pytest.mark.parametrize("n_rings, n_phi", [(3, 8), (8, 24), (16, 48)])
def test_cap_panels_are_sector_0_panels_turned(n_rings, n_phi):
    # the precondition of the block-circulant panel solve: panel r P + k is
    # panel r P turned about z by 2 pi k / P, P = n_phi
    cap = sphere_cap_mesh(1.0, np.pi / 4, n_rings, n_phi)
    assert cap.sectors == n_phi
    angle = 2 * np.pi * np.arange(n_phi) / n_phi
    turn = np.zeros((n_phi, 3, 3))
    turn[:, 0, 0] = turn[:, 1, 1] = np.cos(angle)
    turn[:, 1, 0] = np.sin(angle)
    turn[:, 0, 1] = -turn[:, 1, 0]
    turn[:, 2, 2] = 1.0
    for vectors in (cap.centroids, cap.normals):
        by_sector = vectors.reshape(n_rings, n_phi, 3)
        turned = np.einsum("kij,rj->rki", turn, by_sector[:, 0])
        assert np.abs(by_sector - turned).max() <= 1e-14
    areas = cap.areas.reshape(n_rings, n_phi)
    assert np.abs(areas - areas[:, :1]).max() <= 1e-14 * areas.max()


def test_other_meshes_have_one_sector(tmp_path):
    path = tmp_path / "tri.msh"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
    for mesh in (icosphere(1), cube_mesh(2), rect_mesh(1.0, 1.0, 3, 2), load_mesh(path)):
        assert mesh.sectors == 1
    with pytest.raises(GeometryError, match="^5 panels do not make 2 sectors$"):
        SurfaceMesh(np.array([[0.0, 0, 1], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]),
                    [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (1, 2, 3)], sectors=2)


def test_shape_factor_sphere_against_closed_form():
    # [DERIVED] inner integral -8 pi/3, independent of x (quadrature oracle)
    exact = sphere_inner_integral()
    assert abs(exact + 8 * np.pi / 3) < 1e-10
    val = boundary_shape_factor(icosphere(3))
    assert abs(val - exact) / abs(exact) < 6e-3  # faceting-limited at 1280 panels
    assert val < 0


def test_shape_factor_open_mesh_rejected():
    with pytest.raises(GeometryError):
        boundary_shape_factor(rect_mesh(1, 1, 2, 2))


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.1, max_value=5.0))
def test_shape_factor_pure_scaling(delta):
    # scaling the mesh by delta scales the double surface integral / area by delta^2
    base = icosphere(1)
    scaled = SurfaceMesh(base.vertices * delta, base.panels)
    v0 = boundary_shape_factor(base)
    v1 = boundary_shape_factor(scaled)
    assert abs(v1 - delta**2 * v0) <= 1e-10 * abs(v0) * max(1.0, delta**2)


def test_shape_factor_cube_stable_under_refinement():
    # [DERIVED] the cube is an exact polyhedron: panel refinement only probes
    # the quadrature, so two levels must agree tightly
    v8 = boundary_shape_factor(cube_mesh(8))
    v16 = boundary_shape_factor(cube_mesh(16))
    assert v8 < 0 and v16 < 0
    assert abs(v16 - v8) / abs(v16) < 1e-3


def test_quad_panels_supported():
    m = rect_mesh(2.0, 1.0, 3, 2)
    assert m.panels.shape == (6, 4) and np.all(m.panels[:, 3] != m.panels[:, 0])
    assert abs(m.total_area - 2.0) < 1e-12
    assert np.allclose(m.normals, [0, 0, 1.0])
