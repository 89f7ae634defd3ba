import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab.cluster import BallDomain, BoxDomain, DensityField
from bubblelab.errors import GeometryError, SolverError
from bubblelab.fields import fibonacci_directions
from bubblelab.kernels import (
    BLOCK_ENTRIES,
    DenseSystem,
    far_field_sum,
    grid_far_field_sum,
    pair_kernel,
)
from bubblelab.meshes import sphere_cap_mesh
from bubblelab.pointscat import ClusterSystem, IncidentWave, assemble, solve_charges
from bubblelab.surfmedium import panel_weight_matrix, self_panel_weight
from bubblelab.volmedium import (
    LSSolution,
    VolumePotential,
    VoxelGrid,
    _dense_weights,
    far_field_volume,
    self_cell_weight,
)

from oracles import broadcast_assemble, broadcast_weights, direct_far_field

MIB = 2**20


def cluster(m, seed, scale=1.0):
    return np.random.default_rng(seed).uniform(-scale, scale, (m, 3))


# ---------------------------------------------------------------------------
# bitwise equality with the broadcast formulas


@pytest.mark.parametrize("m", [1, 2, 37, 600])
def test_assemble_bitwise_equal_to_broadcast(m):
    centers = cluster(m, seed=m)
    assert np.array_equal(assemble(centers, -0.3 + 0.02j, 7.3),
                          broadcast_assemble(centers, -0.3 + 0.02j, 7.3))


def test_panel_weights_bitwise_equal_to_broadcast():
    mesh = sphere_cap_mesh(radius=1.0, theta_max=0.8, n_rings=6, n_phi=18)
    kappa0 = 2.3
    self_w = [self_panel_weight(mesh, k, kappa0) for k in range(mesh.n_panels)]
    expected = broadcast_weights(mesh.centroids, kappa0, mesh.areas[None, :], self_w)
    assert np.array_equal(panel_weight_matrix(mesh, kappa0), expected)


def test_dense_voxel_weights_bitwise_equal_to_broadcast():
    grid = VoxelGrid.cover(BallDomain(radius=1.0), 9)
    kappa0 = 1.7
    expected = broadcast_weights(grid.centers(), kappa0, grid.g**3,
                                 self_cell_weight(grid.g, kappa0))
    assert np.array_equal(_dense_weights(grid, kappa0), expected)


def test_coincident_points_raise_geometry_error():
    centers = cluster(600, seed=4)
    assert BLOCK_ENTRIES // 600 < 500  # the pair below sits in different row blocks
    centers[500] = centers[10]
    with pytest.raises(GeometryError):
        assemble(centers, 1.0, 1.0)
    with pytest.raises(GeometryError):
        pair_kernel(centers[:3][[0, 1, 1]], 1.0, diagonal=0.0)


# ---------------------------------------------------------------------------
# far-field sums


def test_far_field_sum_matches_direct_across_blocks():
    dirs = fibonacci_directions(300)
    pts = cluster(2000, seed=9)  # 300 x 2000 phases span three column blocks
    w = np.random.default_rng(1).standard_normal(2000) + 0.5j
    ref = direct_far_field(dirs, pts, w, 3.1)
    got = far_field_sum(dirs, pts, w, 3.1)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("grid", [
    VoxelGrid.cover(BallDomain(radius=0.8), 14),
    VoxelGrid.cover(BoxDomain(center=(0.3, -0.7, 1.1), size=(1.0, 0.6, 0.35)), 20),
], ids=["ball", "offcentre_box_20x12x7"])
def test_separable_volume_far_field_matches_direct_sum(grid):
    rng = np.random.default_rng(2)
    n = grid.n_cells
    pot = VolumePotential(values=rng.uniform(-2.0, 1.0, n), h_star=0.7)
    sol = LSSolution(y=rng.standard_normal(n) + 1j * rng.standard_normal(n), residual=0.0,
                     h_star=0.7, method="dense-lu")
    dirs = fibonacci_directions(64)
    kappa0 = 2.5
    ff = far_field_volume(sol, pot, grid, kappa0, dirs)
    ref = -direct_far_field(dirs, grid.centers(), pot.h_star * pot.values * sol.y * grid.g**3,
                            kappa0)
    assert np.abs(ff.values - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# dense solves


def test_factor_once_charges_equal_per_direction_solves():
    centers = cluster(80, seed=3)
    kappa0 = 1.9
    matrix = assemble(centers, -0.05, kappa0)
    system = ClusterSystem(matrix)
    for theta in fibonacci_directions(4):
        inc = IncidentWave(kappa0, theta)
        shared = solve_charges(system, inc, centers)
        fresh = solve_charges(matrix, inc, centers)
        assert np.array_equal(shared.charges, fresh.charges)
        assert shared.min_cos_kappa_d == fresh.min_cos_kappa_d
        assert shared.cond_estimate == fresh.cond_estimate


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_dense_system_singular_raises_with_condition_estimate():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SolverError) as err:
        DenseSystem(singular, 1e-10).solve(np.ones(2))
    assert err.value.cond_estimate is not None and err.value.cond_estimate >= 1e16


def test_dense_system_rcond_threshold():
    nearly = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]], dtype=complex)
    x, _ = DenseSystem(nearly, 1e-2).solve(np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0, 0.0])
    with pytest.raises(SolverError) as err:
        DenseSystem(nearly, 1e-2, rcond_min=1e-12).solve(np.ones(2))
    assert err.value.cond_estimate > 1e12


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


def test_volume_far_field_peak_memory():
    grid = VoxelGrid.cover(BoxDomain(size=(1, 1, 1)), 36)
    pot = VolumePotential.from_density(grid, DensityField.constant(0.0), -1.5, 1.0)
    sol = LSSolution(y=np.ones(grid.n_cells, dtype=complex), residual=0.0, h_star=1.0,
                     method="fft-lgmres")
    dirs = fibonacci_directions(200)
    peak = _traced_peak(far_field_volume, sol, pot, grid, 2.0, dirs)
    assert grid.n_cells == 36**3
    assert peak <= 16 * MIB


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
