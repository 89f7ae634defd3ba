import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dctn
from scipy.linalg.lapack import zsytrf_lwork

from bubblelab.cluster import BallDomain, BoxDomain, DensityField, build_volumetric
from bubblelab.bemlimit import solve_dirichlet
from bubblelab.errors import AllocationError, GeometryError, SolverError
from bubblelab.fields import fibonacci_directions
from bubblelab.kernels import (
    BLOCK_ENTRIES,
    CACHE_BLOCK,
    DirectSystem,
    LatticeConvolution,
    MixedPrecisionSystem,
    _dct1,
    _norm1,
    cocg,
    far_field_sum,
    grid_far_field_sum,
    min_cos_kappa_distance,
    min_pairwise_distance,
    pair_kernel,
)
from bubblelab.meshes import (
    SurfaceMesh,
    boundary_shape_factor,
    cube_mesh,
    icosphere,
    rect_mesh,
    sphere_cap_mesh,
)
from bubblelab.pointscat import RESIDUAL_TOL, IncidentWave, assemble, solve_charges
from bubblelab.surfmedium import panel_weight_matrix, self_panel_weights
from bubblelab import kernels, volmedium
from bubblelab.volmedium import (
    LSSolution,
    VolumePotential,
    VoxelGrid,
    assemble_and_solve,
    far_field_volume,
    self_cell_weight,
)

from oracles import (
    _broadcast_distances,
    broadcast_assemble,
    broadcast_weights,
    cocg_five_vectors,
    direct_far_field,
    lattice_convolution_unblocked,
)

MIB = 2**20


def cluster(m, seed, scale=1.0):
    return np.random.default_rng(seed).uniform(-scale, scale, (m, 3))


# ---------------------------------------------------------------------------
# bitwise equality with the broadcast formulas


@pytest.mark.parametrize("m", [1, 2, 37, 600])
def test_assemble_bitwise_equal_to_broadcast(m):
    centers = cluster(m, seed=m)
    assert np.array_equal(pair_kernel(centers, 7.3, 1.0 / (-0.3 + 0.02j)),
                          broadcast_assemble(centers, -0.3 + 0.02j, 7.3))


def test_panel_weights_bitwise_equal_to_broadcast():
    kappa0 = 2.3
    # the kernel itself, with the self-panel integrals over the areas on the
    # diagonal: a cap of P = 18 sectors gets its sector-0 columns, a P = 1
    # mesh the whole matrix
    for mesh in (sphere_cap_mesh(radius=1.0, theta_max=0.8, n_rings=6, n_phi=18),
                 rect_mesh(1.0, 0.7, 9, 12)):
        expected = broadcast_weights(mesh.centroids, kappa0, 1.0,
                                     self_panel_weights(mesh, kappa0) / mesh.areas)
        k = panel_weight_matrix(mesh, kappa0)
        assert np.array_equal(k, expected[:, ::mesh.sectors])
    assert mesh.sectors == 1 and np.array_equal(k, k.T)


def test_min_pairwise_distance_blocked():
    # equal to the minimum of the broadcast (M, M) distance matrix, without
    # building the (M, M, 3) difference array: the memory bound is two blocks
    # of CACHE_BLOCK distances (one row each at M = 3000)
    rng = np.random.default_rng(7)
    for m, width in ((2, 3), (3, 3), (600, 3), (600, 2)):
        pts = rng.uniform(-1.0, 1.0, (m, width))
        r = _broadcast_distances(pts)
        np.fill_diagonal(r, np.inf)
        assert min_pairwise_distance(pts) == r.min()
        # the min-cos diagnostic walks the same blocks
        off = ~np.eye(m, dtype=bool)
        assert min_cos_kappa_distance(pts, 2.7) == np.cos(2.7 * r[off]).min()
    assert min_pairwise_distance(np.zeros((1, 3))) == math.inf
    assert min_cos_kappa_distance(np.zeros((1, 3)), 2.7) == 1.0
    pts = rng.uniform(-1.0, 1.0, (3000, 3))
    tracemalloc.start()
    try:
        min_pairwise_distance(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_coincident_points_raise_geometry_error():
    centers = cluster(600, seed=4)
    assert CACHE_BLOCK // 600 < 500  # the pair below sits in different row blocks
    centers[500] = centers[10]
    with pytest.raises(GeometryError):
        assemble(centers, 1.0, 1.0)
    with pytest.raises(GeometryError):
        pair_kernel(centers[:3][[0, 1, 1]], 1.0, diagonal=0.0)


def _quad_cube(n):
    """cube_mesh(n) with each pair of triangles joined into one square panel."""
    m = cube_mesh(n)
    return SurfaceMesh(m.vertices, np.column_stack([m.panels[::2], m.panels[1::2, 2]]))


@pytest.mark.parametrize("make, expected", [
    (lambda: cube_mesh(8), -3.1413864187561535),
    (lambda: cube_mesh(4, side=(1.0, 2.0, 0.5)), -2.915521874167203),
    (lambda: _quad_cube(6), -3.1441065910195283),
    (lambda: icosphere(2), -8.21205350648342),
    (lambda: icosphere(2, radius=0.7, center=(0.3, -0.2, 0.1)), -4.023906218176874),
], ids=["cube8", "box4", "quad_cube6", "icosphere2", "icosphere2_offcentre"])
def test_shape_factor_bitwise_pinned(make, expected):
    # coplanar near pairs add exactly zero on flat panels, so skipping them
    # must leave every bit of these values as it was with them
    assert boundary_shape_factor(make()) == expected


def test_cache_blocked_shape_factor_matches_its_former_blocks():
    # the far-pair GEMM ran in BLOCK_ENTRIES row blocks before it ran in
    # CACHE_BLOCK ones: cube8's rows then split otherwise, and its value moves
    # by one ulp
    former = -3.1413864187561527
    assert abs(boundary_shape_factor(cube_mesh(8)) - former) <= 1e-15 * abs(former)


# ---------------------------------------------------------------------------
# far-field sums


def test_far_field_sum_matches_direct_across_blocks():
    dirs = fibonacci_directions(300)
    pts = cluster(2000, seed=9)  # 300 x 2000 phases span three column blocks
    w = np.random.default_rng(1).standard_normal(2000) + 0.5j
    ref = direct_far_field(dirs, pts, w, 3.1)
    got = far_field_sum(dirs, pts, w, 3.1)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_far_field_sum_of_several_weight_columns_matches_one_call_each():
    dirs = fibonacci_directions(200)
    pts = cluster(1458, seed=3)
    w = np.random.default_rng(4).standard_normal((1458, 3)) + 1j
    got = far_field_sum(dirs, pts, w, 2.2)
    assert got.shape == (200, 3)
    for k in range(3):
        one = far_field_sum(dirs, pts, w[:, k], 2.2)
        assert np.abs(got[:, k] - one).max() <= 1e-14 * np.abs(one).max()


@pytest.mark.parametrize("grid", [
    VoxelGrid.cover(BallDomain(radius=0.8), 14),
    VoxelGrid.cover(BoxDomain(center=(0.3, -0.7, 1.1), size=(1.0, 0.6, 0.35)), 20),
], ids=["ball", "offcentre_box_20x12x7"])
def test_separable_volume_far_field_matches_direct_sum(grid):
    rng = np.random.default_rng(2)
    n = grid.n_cells
    pot = VolumePotential(values=rng.uniform(-2.0, 1.0, n))
    sol = LSSolution(y=rng.standard_normal(n) + 1j * rng.standard_normal(n), residual=0.0,
                     iterations=0)
    dirs = fibonacci_directions(64)
    kappa0 = 2.5
    ff = far_field_volume(sol, pot, grid, kappa0, dirs)
    ref = -direct_far_field(dirs, grid.centers, pot.values * sol.y * grid.g**3, kappa0)
    assert np.abs(ff.values - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# lattice convolution


def _ball_mask(dims):
    # a ball clipped by the unequal box, its corners masked out
    idx = np.indices(dims).reshape(3, -1).T
    r = np.linalg.norm(idx - (np.array(dims) - 1) / 2.0, axis=1)
    return (r <= 0.45 * max(dims)).reshape(dims)


@pytest.mark.parametrize("dims, mask", [
    ((11, 8, 6), _ball_mask((11, 8, 6))),
    ((7, 6, 5), np.ones((7, 6, 5), dtype=bool)),
    ((12, 9, 1), np.ones((12, 9, 1), dtype=bool)),
], ids=["ball_11x8x6", "full_box_7x6x5", "plane_12x9x1"])
def test_lattice_convolution_matches_dense_weights(dims, mask):
    g, kappa0 = 0.07, 4.1
    grid = VoxelGrid(origin=(-0.3, 0.2, 0.5), g=g, dims=dims, mask=mask)
    # the operator as the volume solve builds it: g^3 scaled into the values
    diagonal = self_cell_weight(g, kappa0)
    op = LatticeConvolution(mask, g, kappa0, diagonal / g**3)
    rng = np.random.default_rng(sum(dims))
    v = rng.standard_normal(grid.n_cells) + 1j * rng.standard_normal(grid.n_cells)
    ref = broadcast_weights(grid.centers, kappa0, g**3, diagonal) @ v
    assert np.abs(op.apply(g**3 * v) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dims, mask", [
    ((11, 8, 6), _ball_mask((11, 8, 6))),
    ((12, 9, 1), np.ones((12, 9, 1), dtype=bool)),
    ((1, 1, 1), np.ones((1, 1, 1), dtype=bool)),
], ids=["ball_11x8x6", "plane_12x9x1", "single_1x1x1"])
def test_lattice_convolution_reuses_its_buffer_without_stale_data(dims, mask):
    # the work buffer keeps the last transform; a second apply must not see it
    rng = np.random.default_rng(7)
    v1, v2 = (rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
              for _ in range(2))
    op = LatticeConvolution(mask, 0.07, 4.1, 2.0 - 0.5j)
    first = op.apply(v1)
    second = op.apply(v2)
    assert np.array_equal(second, LatticeConvolution(mask, 0.07, 4.1, 2.0 - 0.5j).apply(v2))
    assert not np.shares_memory(first, second)


@pytest.mark.parametrize("mask", [
    _ball_mask((11, 8, 6)),
    np.ones((12, 9, 1), dtype=bool),
    np.ones((1, 1, 1), dtype=bool),
    np.ones((2, 3, 2), dtype=bool),
    np.random.default_rng(5).random((5, 17, 3)) < 0.5,
    np.ones((36, 36, 36), dtype=bool),
    np.ones((40, 40, 40), dtype=bool),
], ids=["ball_11x8x6", "plane_12x9x1", "single_1x1x1", "box_2x3x2", "random_5x17x3",
        "full_36", "full_40"])
def test_lattice_convolution_bitwise_equal_to_unblocked_oracle(mask):
    # at 40^3 a chunk holds BLOCK_ENTRIES // 4 // (80 * 80) = 10 kz planes, so
    # each half of the z spectrum (41 and 39 planes) splits into several blocks
    rng = np.random.default_rng(mask.size)
    v = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    op = LatticeConvolution(mask, 0.07, 4.1, 2.0 - 0.5j)
    ref = lattice_convolution_unblocked(mask, 0.07, 4.1, 2.0 - 0.5j, v)
    assert np.array_equal(op.apply(v), ref)
    # into the caller's vector, which may hold the values themselves
    assert op.apply(v, out=v) is v and np.array_equal(v, ref)


@pytest.mark.parametrize("shape", [(13, 10, 2), (12, 9, 7), (2, 2, 2), (37, 37, 37)],
                         ids=["plane_12x9x1_octant", "ball_11x8x6_octant", "smallest_2x2x2",
                              "grid_36_octant"])
def test_dct1_bitwise_equal_to_scipy_dctn(shape):
    # the octant spectrum, and with it every volume solve, stays what
    # scipy.fft.dctn(type=1) gave before numpy.fft replaced it
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    assert np.array_equal(_dct1(x), dctn(x, type=1))


# ---------------------------------------------------------------------------
# dense solves


def test_factor_once_charges_equal_per_direction_solves():
    centers = cluster(80, seed=3)
    kappa0 = 1.9
    matrix = pair_kernel(centers, kappa0, 1.0 / -0.05)
    system = DirectSystem(matrix.copy(), RESIDUAL_TOL)  # it factors its array in place
    for theta in fibonacci_directions(4):
        inc = IncidentWave(kappa0, theta)
        shared = solve_charges(system, inc, centers)
        fresh = solve_charges(DirectSystem(matrix.copy(), RESIDUAL_TOL), inc, centers)
        assert np.array_equal(shared.charges, fresh.charges)
        assert shared.cond_estimate == fresh.cond_estimate


def test_dense_system_singular_raises_with_condition_estimate():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SolverError) as err:
        DirectSystem(singular, 1e-10).solve(np.ones(2))
    assert err.value.cond_estimate is not None and err.value.cond_estimate >= 1e16


def test_dense_system_nan_right_hand_side_raises():
    # a NaN residual misses the contract: no NaN unknowns come back
    with pytest.raises(SolverError) as err:
        DirectSystem(np.eye(3) + 0.1, 1e-10).solve(np.array([np.nan, 0.0, 0.0]))
    assert err.value.cond_estimate is not None and np.isfinite(err.value.cond_estimate)


def test_dense_system_rcond_threshold():
    nearly = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]], dtype=complex)
    x, _ = DirectSystem(nearly.copy(), 1e-2).solve(np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0, 0.0])
    with pytest.raises(SolverError) as err:
        DirectSystem(nearly, 1e-2, rcond_min=1e-12).solve(np.ones(2))
    assert err.value.cond_estimate > 1e12


@pytest.mark.parametrize("m", [1, 7, 181, 1458])
def test_norm1_is_the_max_column_sum_of_a_symmetric_matrix(m):
    # taken by contiguous row blocks (22 rows at M = 1458), whose sums round
    # in another order than the column sums
    a = pair_kernel(cluster(m, seed=12), 3.0, 1.0 / -0.01)
    ref = np.abs(a).sum(axis=0).max()
    assert abs(_norm1(a) - ref) <= 1e-15 * ref


def test_dense_system_factors_in_place_and_checks_the_unwritten_triangle():
    m = 300
    rng = np.random.default_rng(11)
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    # complex symmetric; the shift keeps the condition number near 10, so two
    # stable solvers agree
    a0 = g + g.T + 4.0 * np.sqrt(m) * np.eye(m)
    b = rng.standard_normal(m) + 1j
    a = a0.copy()
    system = DirectSystem(a, 1e-10)
    system.factor()
    assert np.shares_memory(system.matrix, a)
    below = np.tril_indices(m, -1)
    assert np.array_equal(a[below], a0[below])  # bitwise: the factors sit above it
    assert not np.array_equal(a, a0)
    x, residual = system.solve(b)
    ref = np.linalg.solve(a0, b)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    assert abs(residual - np.abs(a0 @ x - b).max()) <= 1e-13
    assert system.cond_estimate == pytest.approx(np.linalg.cond(a0, 1), rel=0.5)


def test_sectored_direct_system_agrees_with_one_sector():
    # a cap's full (N, N) panel kernel, from the broadcast formula
    mesh = sphere_cap_mesh(1.0, np.pi / 4, 8, 24)
    full = broadcast_weights(mesh.centroids, 1.3, 1.0, self_panel_weights(mesh, 1.3) / mesh.areas)
    b = IncidentWave(1.3, np.array([0.0, 0.6, 0.8])).at(mesh.centroids)
    cyclic = DirectSystem(full[:, ::mesh.sectors], 1e-10, sectors=mesh.sectors)
    x, residual = cyclic.solve(b)
    x_dense, residual_dense = DirectSystem(full.copy(), 1e-10).solve(b)
    assert np.abs(x - x_dense).max() <= 1e-12 * np.abs(x_dense).max()
    # the residual is the full system's, max|A x - b|
    assert abs(residual - residual_dense) <= 1e-12
    assert abs(residual - np.abs(full @ x - b).max()) <= 1e-13
    # a 1-norm estimate from the mode blocks, max_q ||B_q||_1 max_q ||B_q^-1||_1:
    # not A's exact condition number, but within the blocks' 1-norm/2-norm
    # factor of R = N / P of it
    r = mesh.n_panels // mesh.sectors
    blocks = np.fft.fft(full[:, ::mesh.sectors].reshape(r, mesh.sectors, r), axis=1)
    exact = (max(np.linalg.norm(blocks[:, q], 1) for q in range(mesh.sectors))
             * max(np.linalg.norm(np.linalg.inv(blocks[:, q]), 1) for q in range(mesh.sectors)))
    assert exact / 10 <= cyclic.cond_estimate <= exact
    assert np.linalg.cond(full, 2) / r <= cyclic.cond_estimate <= r * np.linalg.cond(full, 2)


def test_sectored_direct_system_near_singular_block_raises_with_condition_estimate():
    # identity blocks but in modes 1 and P - 1 (paired, so each column block
    # stays symmetric), whose last entry is 1e-14
    r, p = 4, 6
    spectrum = np.broadcast_to(np.eye(r, dtype=complex)[:, None, :], (r, p, r)).copy()
    spectrum[r - 1, [1, p - 1], r - 1] = 1e-14
    columns = np.fft.ifft(spectrum, axis=1).reshape(r * p, r)
    b = np.ones(r * p)
    x, _ = DirectSystem(columns.copy(), 1e-2, sectors=p).solve(b)
    assert np.all(np.isfinite(x))
    with pytest.raises(SolverError) as err:
        DirectSystem(columns, 1e-2, rcond_min=1e-12, sectors=p).solve(b)
    # the FFT round trip moves the 1e-14 by rounding of order 1e-16
    assert err.value.cond_estimate == pytest.approx(1e14, rel=0.05)
    # an exactly singular system is refused under any threshold
    with pytest.raises(SolverError) as err:
        DirectSystem(np.zeros((r * p, r)), 1e-2, sectors=p).solve(b)
    assert err.value.cond_estimate >= 1e16


def _turned_points(r, p, pole, seed):
    """r random points and their turns by 2 pi k / p about z, point r p + k
    the k-th turn of point r p, then the pole (0, 0, 0.5) if asked."""
    base = np.random.default_rng(seed).uniform(0.2, 1.0, (r, 3)) * [1.0, 1.0, 0.3]
    phi = np.arctan2(base[:, 1], base[:, 0])[:, None] + 2 * np.pi * np.arange(p) / p
    rho = np.hypot(base[:, 0], base[:, 1])[:, None]
    z = np.stack([rho * np.cos(phi), rho * np.sin(phi),
                  np.broadcast_to(base[:, 2:], phi.shape)], axis=-1).reshape(-1, 3)
    return np.vstack([z, [[0.0, 0.0, 0.5]]]) if pole else z


@pytest.mark.parametrize("p, pole", [(1, False), (4, False), (4, True), ("n_phi", False)],
                         ids=["P1", "P4", "P4_pole", "cap_n_phi"])
def test_direct_system_matches_dense_ldlt(p, pole):
    # the mode blocks (and the pole's bordering pivot) solve what one dense
    # LDL^T of the whole pair_kernel matrix solves
    kappa0, diagonal = 2.1, 1.8 - 0.3j
    if p == "n_phi":
        mesh = sphere_cap_mesh(1.0, np.pi / 4, 4, 24)
        z, p = mesh.centroids, mesh.sectors
    else:
        z = _turned_points(9, p, pole, seed=p)
    full = pair_kernel(z, kappa0, diagonal)
    b = IncidentWave(kappa0, np.array([0.6, 0.0, 0.8])).at(z)
    x_dense, _ = DirectSystem(full.copy(), 1e-10).solve(b)
    system = DirectSystem(pair_kernel(z, kappa0, diagonal, stride=p), 1e-10, sectors=p,
                          pole=diagonal if pole else None)
    x, residual = system.solve(b)
    assert np.abs(x - x_dense).max() <= 1e-13 * np.abs(x_dense).max()
    assert abs(residual - np.abs(full @ x - b).max()) <= 1e-13
    x2, _ = system.solve(1j * b)  # the factors serve a second right-hand side
    assert np.abs(x2 - 1j * x).max() <= 1e-13 * np.abs(x).max()


def test_one_sector_direct_system_is_the_in_place_ldlt_bitwise():
    # P = 1 makes the dense path's calls, call for call: zsytrf in place on
    # the whole matrix, zsycon on its 1-norm, zsytrs per right-hand side
    m = 200
    a0 = pair_kernel(cluster(m, seed=5), 2.5, 1.0 / -0.02)
    b = IncidentWave(2.5, np.array([0.0, 0.0, 1.0])).at(cluster(m, seed=5))
    system = DirectSystem(a0.copy(), 1e-10)
    x, _ = system.solve(b)
    a, index = a0.copy(), kernels._dense_routines()[1]
    ipiv, info, size = np.empty(m, dtype=index), np.zeros(1, dtype=index), np.empty(1, complex)
    kernels._lapack_call("zsytrf", b"L", m, a, m, ipiv, size, -1, info)
    work = np.empty(int(size[0].real), dtype=complex)
    kernels._lapack_call("zsytrf", b"L", m, a, m, ipiv, work, len(work), info)
    rcond = np.zeros(1)
    kernels._lapack_call("zsycon", b"L", m, a, m, ipiv, _norm1(a0), rcond,
                         np.empty(2 * m, dtype=complex), info)
    ref = np.array(b, dtype=complex)
    kernels._lapack_call("zsytrs", b"L", m, 1, a, m, ipiv, ref, m, np.zeros(1, dtype=index))
    assert np.array_equal(system.matrix, a)
    assert np.array_equal(system._ipiv[0], ipiv)
    assert np.array_equal(x, ref)
    assert system.cond_estimate == 1.0 / rcond[0]


def test_near_zero_schur_pivot_raises_with_condition_estimate():
    # the pole's diagonal entry at which its Schur pivot vanishes, from the
    # dense matrix: the four sectors' modes stay well conditioned
    z = _turned_points(6, 4, True, seed=3)
    diagonal = 1.5 + 0.2j
    full = pair_kernel(z, 2.0, diagonal)
    couplings = full[-1, :-1]
    vanishing = couplings @ np.linalg.solve(full[:-1, :-1], couplings)
    columns = pair_kernel(z, 2.0, diagonal, stride=4)
    b = np.ones(len(z))
    x, _ = DirectSystem(columns.copy(), 1e-8, sectors=4, pole=diagonal).solve(b)
    assert np.all(np.isfinite(x))
    with pytest.raises(SolverError) as err:
        DirectSystem(columns, 1e-8, rcond_min=1e-12, sectors=4, pole=vanishing).solve(b)
    assert err.value.cond_estimate > 1e12


def test_over_budget_sector_columns_raise_before_allocating(monkeypatch):
    mesh = sphere_cap_mesh(1.0, np.pi / 4, 8, 24)
    n, r = mesh.n_panels, mesh.n_panels // mesh.sectors
    columns = np.ones((n, r), dtype=complex)
    build = (lambda: pair_kernel(mesh.centroids, 3.0, 1.0, stride=mesh.sectors),
             lambda: DirectSystem(columns, 1e-8, sectors=mesh.sectors))
    monkeypatch.setattr(kernels, "DENSE_MAX_BYTES", 16 * n * r - 1)
    for make in build:
        tracemalloc.start()
        try:
            with pytest.raises(AllocationError) as err:
                make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.nbytes == 16 * n * r
        assert peak < 16 * n * r // 4  # nothing of that size was allocated
    with pytest.raises(AllocationError):
        solve_dirichlet(mesh, IncidentWave(3.0, np.array([0.0, 0.0, 1.0])),
                        fibonacci_directions(10))
    monkeypatch.setattr(kernels, "DENSE_MAX_BYTES", 16 * n * r)
    for make in build:
        make()  # exactly at the budget


def _head_plus_tail(system) -> np.ndarray:
    """hi + lo of a MixedPrecisionSystem's upper triangle in double, lo read
    from its row blocks; the diagonal from the double copy it keeps."""
    m = len(system)
    full = np.triu(system._hi.astype(complex), 1)
    for i0, i1, offset in system._blocks:
        tail = system._tail[offset:offset + (i1 - i0) * (m - i0)].reshape(i1 - i0, m - i0)
        full[i0:i1, i0:] += np.triu(tail, 0)
    full[np.diag_indices(m)] = system._diagonal
    return full


@pytest.mark.parametrize("m, diagonal", [(1, 2.0 - 1j), (37, -20.0), (600, "per point")],
                         ids=["one_point", "scalar", "per_point"])
def test_mixed_precision_head_and_tail(m, diagonal):
    # hi is the double kernel matrix rounded once, in both triangles; hi + lo
    # is it to 2^-46 relative, entry by entry, and the diagonal stays double
    z = cluster(m, seed=m)
    if diagonal == "per point":
        diagonal = np.linspace(-30.0, -10.0, m) + 2j
    a = pair_kernel(z, 3.0, diagonal)
    system = MixedPrecisionSystem(z, 3.0, diagonal, RESIDUAL_TOL)
    assert system._hi.dtype == np.complex64
    assert np.array_equal(system._hi, a.astype(np.complex64))
    upper = np.triu_indices(m)
    split = _head_plus_tail(system)[upper]
    assert np.all(np.abs(split - a[upper]) <= 2.0**-46 * np.abs(a[upper]))
    assert np.array_equal(system._diagonal, np.diagonal(a))
    # the tail holds the upper triangle's row blocks, whose diagonal blocks
    # have at most isqrt(CACHE_BLOCK) rows, not a second matrix
    triangle = m * (m + 1) // 2
    assert triangle <= system._tail.size <= triangle + m * math.isqrt(CACHE_BLOCK)


def test_shared_mixed_precision_system_factors_once(monkeypatch):
    centers = cluster(300, seed=3)
    kappa0 = 1.9
    calls = []
    call = kernels._lapack_call
    monkeypatch.setattr(kernels, "_lapack_call",
                        lambda routine, *args: calls.append(routine) or call(routine, *args))
    system = MixedPrecisionSystem(centers, kappa0, 1.0 / -0.05, RESIDUAL_TOL)
    for theta in fibonacci_directions(3):
        inc = IncidentWave(kappa0, theta)
        shared = solve_charges(system, inc, centers)
        fresh = solve_charges(MixedPrecisionSystem(centers, kappa0, 1.0 / -0.05, RESIDUAL_TOL),
                              inc, centers)
        assert np.array_equal(shared.charges, fresh.charges)
        assert shared.cond_estimate == fresh.cond_estimate
        assert shared.residual <= RESIDUAL_TOL * (1 + np.abs(shared.charges).max())
    # a workspace query and a factorization each: the shared system's one and three fresh ones
    assert calls.count("csytrf") == 2 * 4 and calls.count("csycon") == 4
    assert system._fallback is None


# ---------------------------------------------------------------------------
# short-recurrence solve


def _complex_symmetric(n, seed):
    """(A, its diagonal, b): complex symmetric with a non-constant diagonal,
    which the Jacobi preconditioner sees."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    diagonal = rng.uniform(1.0, 6.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
    a = 0.5 * (g + g.T) / np.sqrt(n) + np.diag(diagonal)
    return a, diagonal, rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _jacobi(diagonal):
    """The ``precondition(r, out)`` of COCG dividing by ``diagonal``."""
    return lambda r, out: np.divide(r, diagonal, out=out)


def test_cocg_matches_dense_solve():
    n = 120
    a, diagonal, b = _complex_symmetric(n, 12)

    def matvec(v, out):
        np.matmul(a, v, out=out)

    x, iterations = cocg(matvec, b.copy(), _jacobi(diagonal), 1e-13, 500)
    ref = np.linalg.solve(a, b)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
    assert 0 < iterations < n


def test_cocg_matches_the_five_vector_loop_bitwise():
    # sharing one work vector between A p and z = r / D changes no operation
    a, diagonal, b = _complex_symmetric(60, 31)

    def matvec(v, out):
        out[...] = a @ v

    ref, ref_iterations = cocg_five_vectors(lambda v: a @ v, b, diagonal, 1e-13, 500)
    x, iterations = cocg(matvec, b, _jacobi(diagonal), 1e-13, 500)
    assert iterations == ref_iterations > 10
    assert x.tobytes() == ref.tobytes()


def test_cocg_zero_rhs_and_breakdown():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    calls = []

    def matvec(v, out):
        calls.append(1)
        np.matmul(a, v, out=out)

    x, iterations = cocg(matvec, np.zeros(2), _jacobi(np.ones(2)), 1e-10, 10)
    assert iterations == 0 and not calls and np.array_equal(x, np.zeros(2))
    # p^T A p = 0 on the first step: a SolverError, never a NaN
    with pytest.raises(SolverError) as err:
        cocg(matvec, np.array([1.0, 0.0]), _jacobi(np.ones(2)), 1e-10, 10)
    assert err.value.iterations == 1


def test_volume_solve_cap_raises_with_matvec_count(monkeypatch):
    grid = VoxelGrid.cover(BallDomain(radius=1.0), 14)
    pot = VolumePotential.from_density(grid, DensityField("constant", 0.0), -1.5)
    inc = IncidentWave(2.0, np.array([0.0, 0.0, 1.0]))
    assert assemble_and_solve(grid, pot, inc).iterations > 3
    monkeypatch.setattr(kernels, "MAX_MATVECS", 3)
    with pytest.raises(SolverError) as err:
        assemble_and_solve(grid, pot, inc)
    assert err.value.iterations == 3


# ---------------------------------------------------------------------------
# memory bounds


def _traced_peak(fn, *args):
    """Peak bytes traced by tracemalloc while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assemble_peak_memory_is_matrix_plus_blocks():
    m = 2000
    centers = cluster(m, seed=5)
    peak = _traced_peak(assemble, centers, -0.01, 3.0)
    assert peak <= 16 * m**2 + 8 * MIB


def test_pair_kernel_peak_memory_is_its_output_plus_cache_blocks():
    m = 1458
    peak = _traced_peak(pair_kernel, cluster(m, seed=8), 3.0, 1.0)
    # two scratch blocks of CACHE_BLOCK float64 (0.5 MiB); two of BLOCK_ENTRIES
    # would be 4 MiB
    assert peak <= 16 * m**2 + MIB


@pytest.mark.parametrize("system", ["point", "surface", "dirichlet"])
def test_over_budget_dense_system_raises_before_allocating(monkeypatch, system):
    # every dense system is refused one byte over the budget: the panel
    # systems' pair_kernel matrix (16 N^2 bytes), the point system's single
    # precision head and tail (12 M^2 bytes)
    mesh = cube_mesh(6)
    n = mesh.n_panels
    centers = cluster(n, seed=4)
    incident = IncidentWave(3.0, np.array([0.0, 0.0, 1.0]))
    build = {"point": lambda: assemble(centers, -0.01, 3.0),
             "surface": lambda: panel_weight_matrix(mesh, 3.0),
             "dirichlet": lambda: solve_dirichlet(mesh, incident, fibonacci_directions(10))}
    nbytes = (12 if system == "point" else 16) * n * n
    monkeypatch.setattr(kernels, "DENSE_MAX_BYTES", nbytes - 1)
    tracemalloc.start()
    try:
        with pytest.raises(AllocationError) as err:
            build[system]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.nbytes == nbytes
    assert peak < nbytes // 4  # the matrix was never allocated
    monkeypatch.setattr(kernels, "DENSE_MAX_BYTES", nbytes)
    build[system]()  # exactly at the budget


def test_far_field_sum_peak_memory_is_one_cache_block_of_phases():
    z = cluster(1458, seed=9)
    w = np.ones(1458, dtype=complex)
    peak = _traced_peak(far_field_sum, fibonacci_directions(200), z, w, 3.0)
    # one block's real products and complex phases, 0.75 MiB; a block of
    # BLOCK_ENTRIES phases would be 2 MiB of products alone
    assert peak <= MIB


def test_dense_factor_peak_memory_is_the_workspace():
    m = 1458
    matrix = pair_kernel(cluster(m, seed=10), 3.0, 1.0 / -0.01)  # 16 M^2 bytes, before tracing
    lwork, _ = zsytrf_lwork(m, lower=1)
    peak = _traced_peak(DirectSystem(matrix, 1e-8).factor)
    # zsytrf's workspace plus the 1-norm's row block of CACHE_BLOCK
    # magnitudes (0.25 MiB); a block of BLOCK_ENTRIES would be 2 MiB
    assert peak <= 16 * int(lwork.real) + MIB // 2


def test_dense_solve_peak_memory_is_the_matrix_alone():
    m = 1500
    matrix = pair_kernel(cluster(m, seed=6), 3.0, 1.0 / -0.01)  # 16 M^2 bytes, before tracing
    b = np.ones(m, dtype=complex)

    def factor_and_two_solves():
        system = DirectSystem(matrix, 1e-8)
        system.solve(b)
        system.solve(1j * b)

    peak = _traced_peak(factor_and_two_solves)
    # matrix plus what the solve allocates; an LU copy alone would add 16 M^2
    assert 16 * m**2 + peak <= 1.15 * 16 * m**2


def test_lattice_convolution_apply_allocates_only_its_output():
    mask = np.ones((36, 36, 36), dtype=bool)
    op = LatticeConvolution(mask, 1.0 / 36, 2.0, 1.0)
    v = np.ones(mask.sum(), dtype=complex)
    out = np.empty_like(v)
    # into the caller's vector: only NumPy's ufunc buffers for the mirrored
    # corner product, 0.37 MiB measured; the boolean-mask gather alone made
    # a 0.7 MiB copy, and np.take in mode "raise" makes another
    assert _traced_peak(op.apply, v, out) <= 0.4 * MIB
    # a new output is 16 n_cells bytes; one padded box alone would be 8 times that
    assert _traced_peak(op.apply, v) <= 16 * mask.sum() + 0.4 * MIB


def test_lattice_convolution_holds_a_quarter_box_and_one_chunk():
    n = 36
    mask = np.ones((n, n, n), dtype=bool)
    v = np.ones(mask.sum(), dtype=complex)
    peak = _traced_peak(lambda: LatticeConvolution(mask, 1.0 / n, 2.0, 1.0).apply(v))
    # construction and one apply: the (n, n, 2n) z buffer, one 1 MiB chunk, the
    # octant spectrum, the site indices and the output, 4.3 MiB; a
    # (2n, 2n, 2n) padded box alone would be 5.7 MiB
    assert peak <= 16 * (2 * n**3 + (n + 1)**3 + n**3) + 8 * n**3 + MIB + MIB // 4


def test_cocg_holds_four_vectors():
    # x, r, p and the work vector; r is the caller's right-hand side, taken
    # over, so COCG allocates three.  The matvec and the preconditioner write
    # into the work vector, so the loop allocates nothing (a matvec returning
    # a new A p would make 6)
    n = 1 << 16
    spectrum = np.repeat(np.arange(1.0, 9.0), n // 8)  # 8 distinct eigenvalues
    rhs = np.ones(n, dtype=complex)
    jacobi = np.ones(n)

    def matvec(v, out):
        np.multiply(spectrum, v, out=out)

    tracemalloc.start()
    try:
        x, iterations = cocg(matvec, rhs, _jacobi(jacobi), 1e-12, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iterations == 8
    assert np.abs(spectrum * x - 1.0).max() <= 1e-10
    assert np.linalg.norm(rhs) <= 1e-12 * math.sqrt(n)  # now the final residual
    # plus NumPy's ufunc buffer for the real-to-complex cast (128 KiB)
    assert peak <= 3 * 16 * n + MIB // 4


def _operator_bytes(grid):
    """Bytes ``LatticeConvolution`` holds on ``grid``: the z buffer, the
    chunk of at most BLOCK_ENTRIES // 4 complex entries, the octant
    spectrum and the site indices."""
    nx, ny, nz = grid.dims
    planes = max(1, min(nz + 1, BLOCK_ENTRIES // 4 // (4 * nx * ny)))
    return (16 * (2 * nx * ny * nz + 4 * nx * ny * planes + (nx + 1) * (ny + 1) * (nz + 1))
            + 8 * grid.n_cells)


@pytest.mark.parametrize("n, bound", [(24, MIB // 2), (36, 3 * MIB // 4)], ids=["box_24", "box_36"])
def test_volume_solve_peak_memory_is_the_operator_and_five_vectors(n, bound):
    grid = VoxelGrid.cover(BoxDomain(size=(1, 1, 1)), n)
    pot = VolumePotential.from_density(grid, DensityField("constant", 0.0), -1.5)
    inc = IncidentWave(2.0, np.array([0.0, 0.0, 1.0]))
    peak = _traced_peak(volmedium.assemble_and_solve, grid, pot, inc)
    # COCG's four vectors and room for a grid density's per-cell
    # coefficient V0 g^3 (a constant density's is a scalar: test_volmedium
    # bounds that solve by four); the rest is apply's ufunc buffers.  A held
    # u^I, Jacobi diagonal, second scaled u^I and apply output made 8 (11.4
    # MiB at 36^3)
    assert peak <= _operator_bytes(grid) + 5 * 16 * grid.n_cells + bound


def test_lattice_point_solve_peak_memory():
    # the M = 36^3 K = 0 box forms no (M, M) matrix (32 GiB): the operator
    # on its box and seven vectors' worth, the caller's right-hand side, its
    # permuted copy, COCG's four vectors and the permutation with the flat
    # site indices (8 bytes a site each); 8.56 MiB measured
    cl = build_volumetric(BoxDomain(size=(1, 1, 1)), DensityField("constant", 0.0),
                          a=36.0**-3, s=1.0, t=0.4, d_min=0.5)
    inc = IncidentWave(1.4, np.array([0.0, 0.0, 1.0]))
    peak = _traced_peak(lambda: solve_charges(assemble(cl, -0.002, 1.4), inc, cl.centers))
    box = VoxelGrid.cover(BoxDomain(size=(1, 1, 1)), 36)
    assert cl.m == box.n_cells
    assert peak <= _operator_bytes(box) + 7 * 16 * cl.m + MIB // 2


def test_shape_factor_quadrature_peak_memory():
    # the cube bubble of screen_bem: 864 triangles against 2592 Gauss points;
    # the far-pair rows run in CACHE_BLOCK blocks, and the near-pair batch
    # holds only the 1,056 of 5,580 near pairs that are not coplanar, so the
    # peak is about 2.7 MiB (6.1 MiB in BLOCK_ENTRIES blocks), not two
    # 864 x 2592 arrays (35.8 MB)
    mesh = cube_mesh(6)
    peak = _traced_peak(boundary_shape_factor, mesh)
    assert peak <= 8 * MIB
    assert boundary_shape_factor(mesh) == -3.1442777103937125


def _volume_far_field_peak(n):
    """(cells, traced peak) of a 200-direction volume far field on an n^3 box."""
    grid = VoxelGrid.cover(BoxDomain(size=(1, 1, 1)), n)
    pot = VolumePotential.from_density(grid, DensityField("constant", 0.0), -1.5)
    sol = LSSolution(y=np.ones(grid.n_cells, dtype=complex), residual=0.0, iterations=0)
    dirs = fibonacci_directions(200)
    return grid.n_cells, _traced_peak(far_field_volume, sol, pot, grid, 2.0, dirs)


def test_volume_far_field_peak_memory():
    # the weight array (0.7 MiB), filled in place one x slab at a time, the
    # three (D, n) phase tables (0.3 MiB) and one (nx ny, D) partial sum of
    # CACHE_BLOCK complex entries (0.5 MiB): 1.57 MiB measured; one sum for
    # all 200 directions would be 4.0 MiB
    cells, peak = _volume_far_field_peak(36)
    assert cells == 36**3
    assert peak <= 7 * MIB // 4


def test_volume_far_field_peak_memory_at_64():
    # the weight array, 4 MiB, and no V0 Y product beside it (8.1 MiB peak
    # when the product filled it); the phase tables take 0.6 MiB and one
    # partial sum of CACHE_BLOCK complex entries 0.5 MiB, one for all 200
    # directions 12.5 MiB: 5.11 MiB measured
    cells, peak = _volume_far_field_peak(64)
    assert cells == 64**3
    assert peak <= 16 * (cells + CACHE_BLOCK) + 3 * MIB // 4


# ---------------------------------------------------------------------------
# properties on random clusters


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=0.1, max_value=20.0))
def test_pair_kernel_symmetric(m, seed, kappa0):
    z = cluster(m, seed)
    w = pair_kernel(z, kappa0, diagonal=0.5)
    assert np.array_equal(w, w.T)


_vectors = st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6),
       _vectors, st.floats(min_value=0.1, max_value=10.0))
def test_far_field_translation_covariance(m, seed, shift, kappa0):
    t = np.array(shift)
    z = cluster(m, seed)
    w = np.random.default_rng(seed).standard_normal(m) + 1j
    dirs = fibonacci_directions(30)
    base = far_field_sum(dirs, z, w, kappa0)
    moved = far_field_sum(dirs, z + t, w, kappa0)
    phase = np.exp(-1j * kappa0 * (dirs @ t))
    assert np.abs(moved - base * phase).max() <= 1e-11 * (1.0 + np.abs(w).sum())


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.integers(min_value=1, max_value=6)] * 3),
       st.integers(min_value=0, max_value=10**6), _vectors,
       st.floats(min_value=0.1, max_value=10.0))
def test_grid_far_field_translation_covariance(dims, seed, shift, kappa0):
    rng = np.random.default_rng(seed)
    t = np.array(shift)
    axes = [np.sort(rng.uniform(-1.0, 1.0, n)) for n in dims]
    w = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    dirs = fibonacci_directions(30)
    base = grid_far_field_sum(dirs, axes, w, kappa0)
    moved = grid_far_field_sum(dirs, [ax + s for ax, s in zip(axes, t)], w, kappa0)
    phase = np.exp(-1j * kappa0 * (dirs @ t))
    assert np.abs(moved - base * phase).max() <= 1e-11 * (1.0 + np.abs(w).sum())
    xx, yy, zz = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    assert np.abs(base - direct_far_field(dirs, pts, w.ravel(), kappa0)).max() <= \
        1e-12 * (1.0 + np.abs(w).sum())
