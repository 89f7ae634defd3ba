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

from oracles import sphere_inner_integral


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
    lines += [("f " if len(f) == 3 else "q ") + " ".join(map(str, f)) for f in m.faces]
    path.write_text("\n".join(lines) + "\n")
    m2 = load_mesh(path)
    assert np.array_equal(m.vertices, m2.vertices)
    assert m.faces == m2.faces


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
        SurfaceMesh(verts, [(0, 1, 2)])


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
    with pytest.raises(GeometryError):
        boundary_shape_factor(icosphere(1), quad_order=3)  # rules of order 1 and 2 only


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.1, max_value=5.0))
def test_shape_factor_pure_scaling(delta):
    # scaling the mesh by delta scales the double surface integral / area by delta^2
    base = icosphere(1)
    scaled = SurfaceMesh(base.vertices * delta, base.faces)
    v0 = boundary_shape_factor(base, quad_order=1)
    v1 = boundary_shape_factor(scaled, quad_order=1)
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
    assert all(len(f) == 4 for f in m.faces)
    assert abs(m.total_area - 2.0) < 1e-12
    assert np.allclose(m.normals, [0, 0, 1.0])
