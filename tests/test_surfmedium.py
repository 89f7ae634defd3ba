import numpy as np
import pytest

from bubblelab import surfmedium
from bubblelab.errors import ConfigError
from bubblelab.fields import fibonacci_directions
from bubblelab.meshes import icosphere, rect_mesh, sphere_cap_mesh
from bubblelab.pointscat import IncidentWave
from bubblelab.surfmedium import (
    SIE_RESIDUAL_TOL,
    assemble_and_solve_surface,
    far_field_surface,
    _triangle_potential,
    jump_check,
    self_panel_weights,
    single_layer_eval,
)

from oracles import (
    broadcast_weights,
    metasurface_sphere_far_field,
    metasurface_sphere_surface_values,
    panel_corners,
    panel_helmholtz_weight,
    polygon_potential,
    single_layer_by_loops,
)

INC = IncidentWave(2.0, np.array([0.0, 0.0, 1.0]))


@pytest.fixture(scope="module")
def sphere_mesh():
    return icosphere(3)  # 1280 panels


@pytest.fixture(scope="module")
def sphere_solution(sphere_mesh):
    return assemble_and_solve_surface(sphere_mesh, 3.0, INC)


def test_self_panel_weight_square_value():
    # static self-integral of a square of side g about its centre: four edges
    # at distance g/2 give 4 ln(1 + sqrt 2) g / (4 pi) ~ 0.2806 g
    g = 0.2
    w = self_panel_weights(rect_mesh(g, g, 1, 1), 0.0)[0]
    assert w.imag == 0.0
    assert w.real == pytest.approx(4.0 * np.log(1.0 + np.sqrt(2.0)) * g / (4.0 * np.pi),
                                   rel=1e-14)
    # linear scaling in g
    w2 = self_panel_weights(rect_mesh(g / 2, g / 2, 1, 1), 0.0)[0]
    assert abs(w.real / w2.real - 2.0) < 1e-12 * 2.0


def test_self_panel_weight_against_subdivision_oracle():
    mesh = icosphere(2)
    weights = self_panel_weights(mesh, 2.0)
    for k in (0, 57, 200):
        oracle = panel_helmholtz_weight(panel_corners(mesh, k), mesh.centroids[k], 2.0,
                                        depth=8)
        assert abs(weights[k] - oracle) <= 0.02 * abs(oracle)
    # low-frequency imaginary part ~ kappa0 * area / (4 pi)
    k0 = 0.05
    w = self_panel_weights(mesh, k0)[0]
    assert w.imag == pytest.approx(k0 * mesh.areas[0] / (4 * np.pi))


def _random_polygon(rng, quad):
    """A flat triangle, or a convex quad on a circle, in a random plane."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 4 if quad else 3))
    flat = np.column_stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)])
    flat[:, :2] *= rng.uniform(0.3, 2.0)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return flat @ rot.T + rng.standard_normal(3)


@pytest.mark.parametrize("quad", [False, True], ids=["triangle", "quad"])
def test_triangle_potential_matches_adaptive_quadrature(quad):
    # the closed form against scipy's adaptive quadrature of the edge-wise
    # polar integrand: points on and off the plane, inside and outside
    rng = np.random.default_rng(11 + quad)
    for case in range(40):
        poly = _random_polygon(rng, quad)
        normal = np.cross(poly[1] - poly[0], poly[2] - poly[0])
        normal /= np.linalg.norm(normal)
        inside = poly.mean(axis=0) + 0.3 * (poly[case % len(poly)] - poly.mean(axis=0))
        outside = poly.mean(axis=0) + 1.7 * (poly[case % len(poly)] - poly.mean(axis=0))
        fans = np.array([[poly[0], poly[j], poly[j + 1]] for j in range(1, len(poly) - 1)])
        for base in (inside, outside):
            for height in (0.0, 0.05, -0.7):
                x = base + height * normal
                got = _triangle_potential(fans, np.repeat(x[None], len(fans), axis=0)).sum()
                assert got == pytest.approx(polygon_potential(poly, x), rel=1e-11)


def test_triangle_potential_point_on_an_edge_line():
    # the edge through the projection of x subtends no angle and is dropped
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.2, 0.8, 0.0]])
    for x in ([0.5, 0.0, 0.0], [1.6, 0.0, 0.0], [0.5, 0.0, 0.3], [0.0, 0.0, 0.0]):
        got = _triangle_potential(tri[None], np.array([x]))[0]
        assert np.isfinite(got)
        assert got == pytest.approx(polygon_potential(tri, x), rel=1e-11)


def test_self_panel_weights_exact_on_pole_fan():
    # thin pole-fan triangles, where an 8-point Gauss rule in the angle was
    # off by ~4e-6 relative
    mesh = sphere_cap_mesh(1.0, np.pi / 4, 16, 48)
    weights = self_panel_weights(mesh, 0.0)
    for k in range(48):
        oracle = polygon_potential(panel_corners(mesh, k), mesh.centroids[k])
        assert weights[k].real == pytest.approx(oracle, rel=1e-11)


@pytest.mark.parametrize("stride", [1, 2, 48])
def test_sector_self_panel_weights_are_bitwise_every_pth_weight(stride):
    # the sector-0 panels' triangles alone give the same sums, in the same order
    mesh = sphere_cap_mesh(1.0, np.pi / 4, 16, 48)
    full = self_panel_weights(mesh, 2.3)
    assert np.array_equal(self_panel_weights(mesh, 2.3, stride), full[::stride])


def test_zero_sigma_reproduces_incident(sphere_mesh):
    sol = assemble_and_solve_surface(sphere_mesh, 0.0, INC)
    assert np.abs(sol.y - INC.at(sphere_mesh.centroids)).max() < 1e-12
    ff = far_field_surface(sol, sphere_mesh, INC.kappa0, fibonacci_directions(16))
    assert ff.sup_norm() == 0.0


def test_sphere_trace_matches_series(sphere_mesh, sphere_solution):
    oracle = metasurface_sphere_surface_values(INC.kappa0, 3.0, 1.0, INC.theta,
                                               sphere_mesh.centroids)
    rel = np.abs(sphere_solution.y - oracle).max() / np.abs(oracle).max()
    assert rel <= 0.02
    assert sphere_solution.residual <= SIE_RESIDUAL_TOL * (1 + np.abs(sphere_solution.y).max())


def test_sphere_far_field_matches_series(sphere_mesh, sphere_solution):
    dirs = fibonacci_directions(100)
    ff = far_field_surface(sphere_solution, sphere_mesh, INC.kappa0, dirs)
    oracle = metasurface_sphere_far_field(INC.kappa0, 3.0, 1.0, dirs, INC.theta)
    assert np.abs(ff.values - oracle).max() <= 0.02 * np.abs(oracle).max()


def test_far_field_linearity(sphere_mesh, sphere_solution):
    # doubling the incident amplitude doubles the trace and the pattern
    doubled = assemble_and_solve_surface(sphere_mesh, 3.0, INC)
    dirs = fibonacci_directions(20)
    ff = far_field_surface(sphere_solution, sphere_mesh, INC.kappa0, dirs)
    from bubblelab.surfmedium import SurfaceSolution

    scaled = SurfaceSolution(y=2 * doubled.y, sigma_h=doubled.sigma_h,
                             residual=doubled.residual)
    ff2 = far_field_surface(scaled, sphere_mesh, INC.kappa0, dirs)
    assert np.allclose(ff2.values, 2 * ff.values)


def test_jump_check_transmission_conditions(sphere_mesh, sphere_solution):
    rep = jump_check(sphere_solution, sphere_mesh, INC)
    assert rep["value_jump_rel"] <= 0.05
    assert rep["deriv_defect_rel"] <= 0.05
    # the flipped bracket orientation is the wrong reading for this field
    assert rep["deriv_defect_rel_flipped"] > 10 * rep["deriv_defect_rel"]


def test_jump_check_zero_sigma(sphere_mesh):
    # both jumps vanish up to the finite-difference extrapolation error O(eps^2)
    sol = assemble_and_solve_surface(sphere_mesh, 0.0, INC)
    rep = jump_check(sol, sphere_mesh, INC)
    assert rep["value_jump_rel"] <= 1e-2
    assert rep["deriv_defect_rel"] <= 1e-2


def test_reciprocity_closed_mesh(sphere_mesh):
    kappa0 = INC.kappa0

    def pattern(theta, xhat):
        inc = IncidentWave(kappa0, theta)
        sol = assemble_and_solve_surface(sphere_mesh, 2.0, inc)
        return far_field_surface(sol, sphere_mesh, kappa0, np.array([xhat])).values[0]

    theta = np.array([0.0, 0.0, 1.0])
    xhat = np.array([0.0, 0.6, 0.8])
    a = pattern(theta, xhat)
    b = pattern(-xhat, -theta)
    assert abs(a - b) <= 1e-8 * abs(a)


def test_mesh_refinement_halves_error():
    dirs = fibonacci_directions(60)
    errs = []
    for lvl in (2, 3):
        mesh = icosphere(lvl)
        sol = assemble_and_solve_surface(mesh, 3.0, INC)
        ff = far_field_surface(sol, mesh, INC.kappa0, dirs)
        oracle = metasurface_sphere_far_field(INC.kappa0, 3.0, 1.0, dirs, INC.theta)
        errs.append(np.abs(ff.values - oracle).max())
    assert errs[1] / errs[0] <= 0.6


def test_sigma_sweep_no_singular_solves(sphere_mesh):
    for sigma_h in (-1000.0, -10.0, -1.0, 1.0, 10.0, 1000.0):
        sol = assemble_and_solve_surface(sphere_mesh, sigma_h, INC)
        assert np.all(np.isfinite(sol.y.view(float)))


def test_damping_trend_monotone_and_bounded(sphere_mesh):
    # with density sigma * h_star, ||Y||_{L2(Sigma)} decreases monotonically
    # with h_star and stays under the half-order damping bound C h_star^(-1/2)
    # (plane-wave data decays faster, ~h_star^-1, deep in the damped regime)
    h_values = 10.0 ** np.arange(0.0, 2.5, 0.5)
    norms = []
    for h_star in h_values:
        sol = assemble_and_solve_surface(sphere_mesh, 5.0 * float(h_star), INC)
        norms.append(np.sqrt(np.sum(np.abs(sol.y) ** 2 * sphere_mesh.areas)))
    assert all(b < a for a, b in zip(norms, norms[1:]))
    bound = norms[0] * (h_values / h_values[0]) ** -0.5
    assert np.all(np.asarray(norms) <= bound * (1 + 1e-9))


def test_complex_sigma_rejected(sphere_mesh):
    with pytest.raises(ConfigError):
        assemble_and_solve_surface(sphere_mesh, 1.0 + 1.0j, INC)


def test_open_disk_solves():
    mesh = sphere_cap_mesh(1.0, np.pi / 4, 8, 24)
    sol = assemble_and_solve_surface(mesh, 2.0, INC)
    assert np.all(np.isfinite(sol.y.view(float)))
    ff = far_field_surface(sol, mesh, INC.kappa0, fibonacci_directions(16))
    assert ff.sup_norm() > 0


def test_single_layer_eval_against_sphere_closed_form(sphere_mesh):
    kappa0, radius = 2.0, 1.0
    dens = np.ones(sphere_mesh.n_panels)
    for r in (0.5, 0.97, 1.04, 2.0):
        x = np.array([[0.0, 0.0, r]])
        val = single_layer_eval(sphere_mesh, dens, kappa0, x)[0]
        if r >= radius:
            exact = radius * np.sin(kappa0 * radius) * np.exp(1j * kappa0 * r) / (kappa0 * r)
        else:
            exact = radius * np.sin(kappa0 * r) * np.exp(1j * kappa0 * radius) / (kappa0 * r)
        assert abs(val - exact) <= 0.01 * abs(exact)


def test_single_layer_eval_matches_panel_loop(monkeypatch):
    # vectorised near/far split, pair expansion and row blocks against a
    # panel-by-panel loop; a small block budget forces several row blocks
    mesh = sphere_cap_mesh(1.0, np.pi / 4, 3, 8)  # pole-fan triangles and quads
    tris, _ = mesh.triangulated()
    monkeypatch.setattr(surfmedium, "BLOCK_ENTRIES", 12 * len(tris) * 3)
    rng = np.random.default_rng(4)
    dens = rng.standard_normal(mesh.n_panels) + 1j * rng.standard_normal(mesh.n_panels)
    points = np.concatenate([mesh.centroids[::5] + 0.02 * mesh.normals[::5],
                             mesh.vertices[::4], rng.uniform(-1.5, 1.5, (4, 3))])
    got = single_layer_eval(mesh, dens, 2.0, points)
    expected = np.array([single_layer_by_loops(mesh, dens, 2.0, x) for x in points])
    assert np.abs(got - expected).max() <= 1e-11 * np.abs(expected).max()


@pytest.mark.parametrize("sigma", [0.0, 3.0])
@pytest.mark.parametrize("mesh", [sphere_cap_mesh(1.0, np.pi / 4, 16, 48), icosphere(2)],
                         ids=["cap_768", "icosphere_2"])
def test_symmetric_solve_matches_collocation_system(mesh, sigma):
    # the unscaled collocation system (I + sigma W) Y = u^I, W = K diag(area),
    # solved directly
    inc = IncidentWave(1.0, np.array([0.0, 0.6, 0.8]))
    u = inc.at(mesh.centroids)
    # the dense kernel from the broadcast formula: a cap's own is its sector-0 columns
    w = broadcast_weights(mesh.centroids, inc.kappa0, 1.0,
                          self_panel_weights(mesh, inc.kappa0) / mesh.areas) * mesh.areas
    a = np.eye(mesh.n_panels) + sigma * w
    ref = np.linalg.solve(a, u)
    sol = assemble_and_solve_surface(mesh, sigma, inc)
    assert np.abs(sol.y - ref).max() <= 1e-10 * np.abs(ref).max()
    recomputed = np.abs(a @ sol.y - u).max()
    assert abs(sol.residual - recomputed) <= 1e-13 * (1.0 + np.abs(sol.y).max())


def test_array_sigma_rejected(sphere_mesh):
    with pytest.raises(ConfigError):
        assemble_and_solve_surface(sphere_mesh, np.full(sphere_mesh.n_panels, 2.0), INC)
