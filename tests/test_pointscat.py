import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab.cluster import (
    BallDomain,
    BoxDomain,
    DensityField,
    SphereCapChart,
    build_surface,
    build_volumetric,
)
from bubblelab.errors import AllocationError, ConfigError, GeometryError
from bubblelab.fields import CSV_HEADER, FarField, fibonacci_directions
from bubblelab.kernels import DirectSystem, LatticeSystem
from bubblelab.materials import ContrastParams, classify_regime
from bubblelab.pointscat import (
    RESIDUAL_TOL,
    IncidentWave,
    assemble,
    far_field,
    solve_charges,
)

from oracles import helmholtz_kernel, near_field, two_bubble_charges


def random_cluster(m, seed, scale=1.0, min_sep=0.05):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < m:
        cand = rng.uniform(-scale, scale, 3)
        if all(np.linalg.norm(cand - p) > min_sep for p in pts):
            pts.append(cand)
    return np.array(pts)


def test_fibonacci_directions_unit_and_spread():
    d = fibonacci_directions(200)
    assert d.shape == (200, 3)
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
    # quasi-uniform: mean direction near zero
    assert np.linalg.norm(d.mean(axis=0)) < 0.02


def test_assemble_single_and_pair():
    a1 = assemble([[0.0, 0.0, 0.0]], 2.0, 1.0).matrix
    assert a1.shape == (1, 1) and a1[0, 0] == 0.5

    r = 0.7
    a2 = assemble([[0, 0, 0], [0, 0, r]], -1.5, 2.0).matrix
    expected = np.exp(1j * 2.0 * r) / (4 * np.pi * r)
    assert abs(a2[0, 1] - expected) < 1e-15
    assert a2[0, 1] == a2[1, 0]


def test_assemble_collinear_triple():
    d = 0.3
    a = assemble([[0, 0, 0], [0, 0, d], [0, 0, 2 * d]], 1.0, 1.5).matrix
    assert abs(a[0, 2] - np.exp(1j * 1.5 * 2 * d) / (8 * np.pi * d)) < 1e-15


def test_assemble_rejects_coincident_centers():
    with pytest.raises(GeometryError):
        assemble([[0, 0, 0], [0, 0, 0]], 1.0, 1.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_assemble_symmetric_exactly(m, seed):
    centers = random_cluster(m, seed)
    a = assemble(centers, 0.5 + 0.1j, 1.3).matrix
    assert np.array_equal(a, a.T)


def test_single_bubble_charge_is_minus_c():
    c = -0.37
    inc = IncidentWave(1.2, np.array([0.0, 0.0, 1.0]))
    sol = solve_charges(assemble([[0, 0, 0]], c, inc.kappa0), inc, [[0, 0, 0]])
    assert abs(sol.charges[0] - (-c)) < 1e-14


def test_two_bubble_closed_form():
    c = -0.2
    kappa0 = 1.7
    z = np.array([[0.4, 0, 0], [-0.4, 0, 0]])
    theta = np.array([0.0, 0.0, 1.0])  # perpendicular to the pair axis
    inc = IncidentWave(kappa0, theta)
    sol = solve_charges(assemble(z, c, kappa0), inc, z)
    q1, q2 = two_bubble_charges(c, kappa0, z[0], z[1], theta)
    assert abs(sol.charges[0] - q1) < 1e-12
    assert abs(sol.charges[1] - q2) < 1e-12
    # symmetric pair: equal charges, matching -C u^I / (1 + C Phi12)
    phi12 = helmholtz_kernel(z[0], z[1], kappa0)
    expected = -c * inc.at(z[0])[0] / (1 + c * phi12)
    assert abs(sol.charges[0] - expected) < 1e-12
    assert abs(sol.charges[0] - sol.charges[1]) < 1e-13


def test_random_cluster_residual():
    centers = random_cluster(20, seed=7)
    inc = IncidentWave(2.0, np.array([0.0, 1.0, 0.0]))
    sol = solve_charges(assemble(centers, -0.05, inc.kappa0), inc, centers)
    assert sol.residual <= 1e-10 * (1 + np.abs(sol.charges).max())
    assert sol.cond_estimate >= 1.0


def test_solve_charges_rejects_size_mismatch():
    centers = random_cluster(5, seed=2)
    inc = IncidentWave(1.0, np.array([0.0, 0.0, 1.0]))
    system = assemble(centers, -0.05, inc.kappa0)
    with pytest.raises(ConfigError, match="size mismatch"):
        solve_charges(system, inc, centers[:4])


@pytest.mark.parametrize("domain, density, a, c, kappa0", [
    (BoxDomain(size=(1, 1, 1)), 0.0, 1e-3, -0.002, 1.4),  # 10^3 sites
    (BoxDomain(size=(2, 1, 1)), 0.0, 1e-3, 0.05 + 0.01j, 3.0),  # 20 x 10 x 10
    (BallDomain(), 0.5, 1e-3, -0.004, 2.0),  # 968 sites of a 12^3 box, K = 0.5
], ids=["box", "slab", "ball"])
def test_lattice_system_matches_dense_solve(domain, density, a, c, kappa0):
    cl = build_volumetric(domain, DensityField("constant", density), a=a, s=1.0, t=0.4,
                          seed=0, d_min=0.5)
    lattice, dense = assemble(cl, c, kappa0), assemble(cl.centers, c, kappa0)
    assert isinstance(lattice, LatticeSystem) and isinstance(dense, DirectSystem)
    assert len(lattice) == len(dense) == cl.m
    dirs = fibonacci_directions(64)
    for theta in fibonacci_directions(2):
        inc = IncidentWave(kappa0, theta)
        fft_sol = solve_charges(lattice, inc, cl.centers)
        ref = solve_charges(dense, inc, cl.centers)
        assert fft_sol.cond_estimate is None and ref.iterations is None
        assert 0 < fft_sol.iterations < 100
        assert fft_sol.residual <= RESIDUAL_TOL * (1 + np.abs(fft_sol.charges).max())
        assert np.abs(fft_sol.charges - ref.charges).max() <= 1e-10 * np.abs(ref.charges).max()
        ff, ff_ref = far_field([fft_sol, ref], cl.centers, kappa0, dirs)
        assert ff.sup_diff(ff_ref) <= 1e-10 * ff_ref.sup_norm()


def test_k1_cluster_is_solved_densely():
    cl = build_volumetric(BoxDomain(size=(1, 1, 1)), DensityField("constant", 1.0), a=1e-3,
                          s=1.0, t=0.4, seed=0, d_min=0.5)
    system = assemble(cl, -0.002, 1.4)
    assert isinstance(system, DirectSystem) and len(system) == cl.m == 2000


@pytest.mark.parametrize("a, m", [(0.02, 52), (0.008, 149)], ids=["no_pole", "pole"])
def test_symmetric_cap_cluster_matches_dense_solve(a, m):
    # a K = 0 cap cluster is solved on its (M, M/4) sector-0 columns in orbit
    # order, one block per Fourier mode; its charges come back in the
    # cluster's own (shell) order
    cl = build_surface(SphereCapChart(1.0, np.pi / 4), DensityField("constant", 0.0), a=a,
                       s=0.95, t=0.33, seed=1, d_min=0.1)
    c, kappa0 = -0.02 + 0.001j, 2.3
    system, dense = assemble(cl, c, kappa0), assemble(cl.centers, c, kappa0)
    assert cl.sectors == 4 and system.sectors == 4 and dense.sectors == 1
    assert len(system) == len(dense) == cl.m == m
    assert system.matrix.shape == (m, m // 4)
    assert (system.pole is None) == (m % 4 == 0)
    dirs = fibonacci_directions(64)
    for theta in fibonacci_directions(2):
        inc = IncidentWave(kappa0, theta)
        sol, ref = solve_charges(system, inc, cl.centers), solve_charges(dense, inc, cl.centers)
        assert sol.residual <= RESIDUAL_TOL * (1 + np.abs(sol.charges).max())
        assert np.abs(sol.charges - ref.charges).max() <= 1e-13 * np.abs(ref.charges).max()
        ff, ff_ref = far_field([sol, ref], cl.centers, kappa0, dirs)
        assert ff.sup_diff(ff_ref) <= 1e-13 * ff_ref.sup_norm()


def test_lone_pole_cap_cluster_is_solved_densely():
    # a cap whose one kept cell is the pole has no sector to turn
    cl = build_surface(SphereCapChart(0.3, np.pi / 2), DensityField("constant", 0.0), a=0.35,
                       s=1.0, t=0.5, seed=1, d_min=0.1)
    system = assemble(cl, -0.05, 2.0)
    assert cl.m == 1 and cl.sectors == 1 and system.sectors == 1
    sol = solve_charges(system, IncidentWave(2.0, np.array([0.0, 0.0, 1.0])), cl.centers)
    assert sol.charges[0] == pytest.approx(-np.exp(2.0j * cl.centers[0, 2]) * -0.05, rel=1e-14)


def test_over_budget_symmetric_cluster_columns_raise_before_allocating(monkeypatch):
    # the budget compares the 16 M (M // 4) bytes of the columns, not 16 M^2
    from bubblelab import kernels

    cl = build_surface(SphereCapChart(1.0, np.pi / 4), DensityField("constant", 0.0), a=0.004,
                       s=0.95, t=0.33, seed=1, d_min=0.1)
    m = cl.m
    nbytes = 16 * m * (m // 4)
    monkeypatch.setattr(kernels, "DENSE_MAX_BYTES", nbytes - 1)
    tracemalloc.start()
    try:
        with pytest.raises(AllocationError) as err:
            assemble(cl, -0.02, 2.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.nbytes == nbytes
    assert peak < nbytes // 4  # the columns were never allocated
    monkeypatch.setattr(kernels, "DENSE_MAX_BYTES", nbytes)
    assemble(cl, -0.02, 2.3)  # exactly at the budget, a quarter of the dense matrix's
    with pytest.raises(AllocationError):
        assemble(cl.centers, -0.02, 2.3)


def test_invertibility_ledger_reported():
    # the fl-invert ledger entries come from the classifier (regime-check and
    # regime_report.json); solve-fl writes the min cos(kappa0 d) diagnostic
    # (tests/test_cli.py::test_cluster_and_solve_fl)
    p = ContrastParams(gamma=1.0, s=1.0, t=0.4)
    names = [n for n, _ in classify_regime(p).satisfied]
    assert any("fl-invert-1a" in n for n in names)


def test_far_field_single_bubble_constant():
    c = 2.0
    inc = IncidentWave(1.0, np.array([0.0, 0.0, 1.0]))
    centers = [[0.0, 0.0, 0.0]]
    sol = solve_charges(assemble(centers, c, 1.0), inc, centers)
    ff = far_field([sol], centers, 1.0, fibonacci_directions(50))[0]
    assert np.allclose(ff.values, -2.0, atol=1e-14)


def test_far_field_reciprocity():
    centers = random_cluster(10, seed=11)
    kappa0 = 1.4
    c = -0.08

    def pattern(theta, xhat):
        inc = IncidentWave(kappa0, theta)
        sol = solve_charges(assemble(centers, c, kappa0), inc, centers)
        ff = far_field([sol], centers, kappa0, np.array([xhat]))[0]
        return ff.values[0]

    theta = np.array([0.0, 0.0, 1.0])
    xhat = np.array([1.0, 0.0, 0.0])
    assert abs(pattern(theta, xhat) - pattern(-xhat, -theta)) < 1e-10


def test_far_field_translation_phase():
    centers = random_cluster(8, seed=5)
    kappa0 = 1.1
    c = -0.06
    v = np.array([0.3, -0.2, 0.5])
    theta = np.array([0.0, 1.0, 0.0])
    dirs = fibonacci_directions(40)
    inc = IncidentWave(kappa0, theta)
    sol0 = solve_charges(assemble(centers, c, kappa0), inc, centers)
    ff0 = far_field([sol0], centers, kappa0, dirs)[0]
    moved = centers + v
    sol1 = solve_charges(assemble(moved, c, kappa0), inc, moved)
    ff1 = far_field([sol1], moved, kappa0, dirs)[0]
    phase = np.exp(1j * kappa0 * (dirs @ (-v) + theta @ v))
    assert np.abs(ff1.values - ff0.values * phase).max() < 1e-10


def test_far_field_of_several_solutions_matches_one_call_each():
    centers = random_cluster(40, seed=6)
    kappa0 = 2.1
    system = assemble(centers, -0.05, kappa0)
    sols = [solve_charges(system, IncidentWave(kappa0, theta), centers)
            for theta in fibonacci_directions(3)]
    dirs = fibonacci_directions(50)
    swept = far_field(sols, centers, kappa0, dirs)
    assert len(swept) == 3
    for ff, sol in zip(swept, sols):
        [one] = far_field([sol], centers, kappa0, dirs)
        assert np.array_equal(ff.directions, one.directions)
        assert np.abs(ff.values - one.values).max() <= 1e-14 * np.abs(one.values).max()


def test_far_field_scales_with_coefficient():
    inc = IncidentWave(1.0, np.array([0.0, 0.0, 1.0]))
    centers = [[0.0, 0.0, 0.0]]
    dirs = fibonacci_directions(10)
    vals = []
    for c in (0.5, 1.5):
        sol = solve_charges(assemble(centers, c, 1.0), inc, centers)
        vals.append(far_field([sol], centers, 1.0, dirs)[0].values)
    assert np.allclose(vals[1], 3.0 * vals[0], atol=1e-14)


def test_near_field_single_bubble_and_limit():
    c = 0.8
    kappa0 = 1.3
    centers = [[0.0, 0.0, 0.0]]
    inc = IncidentWave(kappa0, np.array([0.0, 0.0, 1.0]))
    sol = solve_charges(assemble(centers, c, kappa0), inc, centers)
    x = np.array([0.5, 0.2, -0.1])
    val = near_field(sol, centers, kappa0, x)
    assert abs(val - (-c) * helmholtz_kernel(x, np.zeros(3), kappa0)) < 1e-14
    # radial far limit: 4 pi R e^{-ikR} u^s -> pattern
    xfar = 1e4 * np.array([0.0, 0.6, 0.8])
    ff = far_field([sol], centers, kappa0, np.array([[0.0, 0.6, 0.8]]))[0]
    approached = 4 * np.pi * 1e4 * np.exp(-1j * kappa0 * 1e4) * near_field(sol, centers, kappa0, xfar)
    assert abs(approached - ff.values[0]) < 1e-3 * abs(ff.values[0])
    with pytest.raises(GeometryError):
        near_field(sol, centers, kappa0, np.zeros(3))


def test_near_field_zero_charges():
    sol = solve_charges(
        assemble([[0, 0, 0]], 1.0, 1.0),
        IncidentWave(1.0, np.array([0.0, 0.0, 1.0])),
        [[0, 0, 0]],
    )
    zeroed = type(sol)(charges=np.zeros(1, complex), residual=0.0, cond_estimate=1.0,
                       iterations=None)
    assert near_field(zeroed, [[0, 0, 0]], 1.0, np.array([1.0, 0, 0])) == 0.0


def test_far_field_csv_roundtrip(tmp_path):
    dirs = fibonacci_directions(16)
    ff = FarField(dirs, np.exp(1j * dirs[:, 0]))
    path = tmp_path / "ff.csv"
    ff.save_csv(path)
    assert path.read_text().splitlines()[0] == ",".join(CSV_HEADER)
    arr = np.loadtxt(path, delimiter=",", skiprows=1)
    back = FarField(arr[:, :3], arr[:, 3] + 1j * arr[:, 4])
    assert np.array_equal(back.directions, ff.directions)
    assert np.array_equal(back.values, ff.values)


def test_far_field_validates_input():
    with pytest.raises(ConfigError):
        FarField(np.array([[1.0, 1.0, 0.0]]), np.array([1.0 + 0j]))
    with pytest.raises(ConfigError):
        FarField(np.array([[1.0, 0.0, 0.0]]), np.array([np.nan + 0j]))
