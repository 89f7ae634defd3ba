import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bubblelab.cluster import BallDomain, BoxDomain, DensityField
from bubblelab.errors import ConfigError
from bubblelab.fields import fibonacci_directions
from bubblelab.kernels import MAX_MATVECS, LatticeConvolution, pair_kernel
from bubblelab.pointscat import IncidentWave, assemble, solve_charges
from bubblelab import kernels
from bubblelab.volmedium import (
    LS_RESIDUAL_TOL,
    LSSolution,
    VolumePotential,
    VoxelGrid,
    assemble_and_solve,
    far_field_volume,
    incident_on_cells,
    self_cell_weight,
)

from test_kernels import MIB, _operator_bytes, _traced_peak
from oracles import (
    born_far_field_ball,
    broadcast_weights,
    cell_helmholtz_weight,
    penetrable_ball_far_field,
    voxel_scattered_field,
)

INC = IncidentWave(2.0, np.array([0.0, 0.0, 1.0]))


@pytest.fixture(scope="module")
def ball_grid():
    return VoxelGrid.cover(BallDomain(radius=1.0), 14)


def test_self_cell_weight_against_subdivision_oracle():
    # [DERIVED] adaptive 8^k-subdivision quadrature; <= 2% agreement
    for kappa0 in (0.0, 1.0, 2.0):
        w = self_cell_weight(0.1, kappa0)
        oracle = cell_helmholtz_weight(0.1, kappa0)
        assert abs(w - oracle) <= 0.02 * abs(oracle)
    w0 = self_cell_weight(0.1, 0.0)
    r_eq = (3 * 0.1**3 / (4 * np.pi)) ** (1 / 3)
    assert abs(r_eq - 0.06204) < 5e-5
    assert w0 == pytest.approx(r_eq**2 / 2) and abs(w0 - 1.92e-3) < 1e-5


def test_self_cell_weight_scaling_and_imaginary_part():
    # static part scales as g^2; low-frequency imaginary part ~ kappa0 g^3/(4 pi)
    w1 = self_cell_weight(0.1, 0.0)
    w2 = self_cell_weight(0.05, 0.0)
    assert abs(w1.real / w2.real - 4.0) < 0.02 * 4.0
    kappa0, g = 0.3, 0.02
    assert self_cell_weight(g, kappa0).imag == pytest.approx(kappa0 * g**3 / (4 * np.pi))
    with pytest.raises(ConfigError):
        self_cell_weight(-1.0, 0.0)


def test_grid_cover_and_mask(ball_grid):
    masked_volume = ball_grid.n_cells * ball_grid.g**3
    assert abs(masked_volume - 4 * np.pi / 3) < 0.1 * 4 * np.pi / 3
    centers = ball_grid.centers
    assert centers.shape == (ball_grid.n_cells, 3)
    assert np.all(np.linalg.norm(centers, axis=1) <= 1.0 + 1e-12)
    # built on each access and kept by no grid: a caller owns its copy
    again = ball_grid.centers
    assert again is not centers and np.array_equal(again, centers)
    assert not np.shares_memory(again, centers)


def test_constant_density_potential_builds_no_centres(ball_grid, monkeypatch):
    # a constant density's potential is one 0-d value, bit for bit the value
    # of the density evaluated at every centre
    expected = -1.5 * (DensityField("constant", 0.5)(ball_grid.centers) + 1.0)
    monkeypatch.setattr(VoxelGrid, "centers",
                        property(lambda grid: pytest.fail("cell centres were built")))
    pot = VolumePotential.from_density(ball_grid, DensityField("constant", 0.5), -1.5)
    assert pot.values.shape == ()
    assert np.broadcast_to(pot.values, expected.shape).tobytes() == expected.tobytes()


# Iteration counts and sampled Y entries (first, middle and last cell) of four
# volume solves, pinned bit for bit with one BLAS thread: a change to the
# arithmetic of the solve, or to the order of its operations, changes them
PINNED_SOLVES = {
    ("ball_14", -1.5): (7, [0.8969570874906974 - 0.005295882584071581j,
                            0.7247130280341205 - 0.5703459553533078j,
                            0.8578065179452231 + 0.304003460718546j]),
    ("ball_14", -4 * np.pi): (16, [0.9541222044049393 + 1.3043397218885364j,
                                   0.6721601322118576 + 0.5339046548112174j,
                                   0.9125101844174472 + 1.4323615635212315j]),
    ("box_24", -1.5): (6, [0.5652349225388649 - 0.7360659729499397j,
                           0.5972566830609296 - 0.7214231985330772j,
                           0.531382955518247 + 0.9549853576850919j]),
    ("box_24", -4 * np.pi): (9, [0.43299080790355027 - 1.1678773091435626j,
                                 0.43813470531782317 - 1.196449717952824j,
                                 -0.48532147897212835 + 1.1148774005097535j]),
}

# The same solves pinned before the volume solve became a point-interaction
# lattice system (it solved the sqrt(V)-scaled system for sqrt(V) Y): the
# same Krylov iterates up to a diagonal scaling, so equal matvec counts and
# samples within 1e-8 relative
PRE_REFACTOR_SOLVES = {
    ("ball_14", -1.5): (7, [0.8969570878866173 - 0.005295882525247403j,
                            0.7247130286218945 - 0.5703459552819169j,
                            0.8578065179816003 + 0.3040034608331784j]),
    ("ball_14", -4 * np.pi): (16, [0.9541222044245943 + 1.304339722102213j,
                                   0.6721601322972711 + 0.5339046552429065j,
                                   0.9125101845074628 + 1.4323615636784717j]),
    ("box_24", -1.5): (6, [0.5652349226355281 - 0.7360659729615481j,
                           0.5972566830888391 - 0.7214231985464528j,
                           0.5313829554821067 + 0.9549853577052962j]),
    ("box_24", -4 * np.pi): (9, [0.43299080981392946 - 1.1678773133969815j,
                                 0.4381347059309435 - 1.196449719339471j,
                                 -0.48532147900198075 + 1.114877402548343j]),
}


OBLIQUE = IncidentWave(2.0, np.array([1.0, -2.0, 2.0]) / 3.0)


def _grid(name):
    """The unit ball on a 14^3 grid or the unit box on a 24^3 one."""
    return VoxelGrid.cover(*((BallDomain(radius=1.0), 14) if name == "ball_14"
                             else (BoxDomain(size=(1, 1, 1)), 24)))


def pinned_solve(grid_name, v0):
    """(iterations, [Y at the first, middle and last cell]) of one pinned solve."""
    grid = _grid(grid_name)
    pot = VolumePotential.from_density(grid, DensityField("constant", 0.0), v0)
    sol = assemble_and_solve(grid, pot, INC)
    n = grid.n_cells
    return sol.iterations, [[sol.y[i].real, sol.y[i].imag] for i in (0, n // 2, n - 1)]


@pytest.fixture(scope="module")
def pinned_results():
    """PINNED_SOLVES recomputed in one child process with one BLAS thread.

    COCG's dot products and norms run through BLAS, whose threaded sums
    round in another order, so on the 24^3 box the bits of Y depend on the
    thread count; the thread count is fixed when OpenBLAS loads.
    """
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    code = ("import json, test_volmedium as t\n"
            "print(json.dumps([t.pinned_solve(*case) for case in sorted(t.PINNED_SOLVES)]))")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    return dict(zip(sorted(PINNED_SOLVES), json.loads(res.stdout)))


@pytest.mark.parametrize("grid_name, v0", sorted(PINNED_SOLVES),
                         ids=[f"{g}_v0={v0:.4g}" for g, v0 in sorted(PINNED_SOLVES)])
def test_volume_solve_reproduces_pinned_values(pinned_results, grid_name, v0):
    iterations, samples = pinned_results[grid_name, v0]
    assert iterations == PINNED_SOLVES[grid_name, v0][0]
    assert [complex(re, im) for re, im in samples] == PINNED_SOLVES[grid_name, v0][1]


@pytest.mark.parametrize("grid_name, v0", sorted(PRE_REFACTOR_SOLVES),
                         ids=[f"{g}_v0={v0:.4g}" for g, v0 in sorted(PRE_REFACTOR_SOLVES)])
def test_volume_solve_reproduces_pre_refactor_values(pinned_results, grid_name, v0):
    iterations, samples = pinned_results[grid_name, v0]
    reference_iterations, reference = PRE_REFACTOR_SOLVES[grid_name, v0]
    assert iterations == reference_iterations
    for (re, im), ref in zip(samples, reference):
        assert abs(complex(re, im) - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("grid_name, v0", sorted(PINNED_SOLVES),
                         ids=[f"{g}_v0={v0:.4g}" for g, v0 in sorted(PINNED_SOLVES)])
def test_constant_potential_solves_as_its_per_cell_copy(grid_name, v0):
    # one 0-d V0 broadcasts through the coefficient V0 g^3, its inverse, the
    # Jacobi diagonal, the recovery Y = X / (V0 g^3) and the far field to the
    # very bits of the same value given on every cell
    grid = _grid(grid_name)
    dirs = fibonacci_directions(32)
    results = []
    for values in (np.float64(v0), np.full(grid.n_cells, v0)):
        pot = VolumePotential(values=values)
        sol = assemble_and_solve(grid, pot, OBLIQUE)
        ff = far_field_volume(sol, pot, grid, OBLIQUE.kappa0, dirs)
        results.append((sol.y.tobytes(), sol.residual, sol.iterations, ff.values.tobytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("grid_name", ["ball_14", "box_24"])
def test_slabwise_incident_matches_the_centres(grid_name):
    # u^I formed one x slab at a time from that slab's centres is, bit for
    # bit, u^I at all the centres at once
    grid = _grid(grid_name)
    for theta in ([0.0, 0.0, 1.0], [1.0, -2.0, 2.0], [-0.3, 0.5, -0.2], [2.0, 1.0, 0.0]):
        inc = IncidentWave(2.0, np.array(theta) / np.linalg.norm(theta))
        u = incident_on_cells(grid, inc)
        assert u.tobytes() == inc.at(grid.centers).tobytes()


def test_constant_density_solve_peak_memory_is_the_operator_and_four_vectors():
    # COCG's x, r, p and work vector; the coefficient V0 g^3, its inverse,
    # the Jacobi diagonal and the potential are scalars, and u^I is formed
    # one slab at a time into the vector COCG takes over.  6.73 MiB
    # measured; an earlier solve that held a per-cell scaling and formed u^I
    # from all the centres at once took 7.55 MiB
    grid = VoxelGrid.cover(BoxDomain(size=(1, 1, 1)), 36)
    pot = VolumePotential.from_density(grid, DensityField("constant", 0.0), -1.5)
    peak = _traced_peak(assemble_and_solve, grid, pot, INC)
    assert peak <= _operator_bytes(grid) + 4 * 16 * grid.n_cells + MIB // 2


def test_zero_potential_reproduces_incident(ball_grid):
    pot = VolumePotential.from_density(ball_grid, DensityField("constant", 0.0), 0.0)
    sol = assemble_and_solve(ball_grid, pot, INC)
    assert np.abs(sol.y - INC.at(ball_grid.centers)).max() < 1e-12
    ff = far_field_volume(sol, pot, ball_grid, INC.kappa0, fibonacci_directions(32))
    assert ff.sup_norm() == 0.0
    scattered = voxel_scattered_field([[3.0, 0.0, 0.0]], ball_grid.centers, ball_grid.g,
                                      pot.values * sol.y, INC.kappa0, 0.0)
    assert np.abs(scattered).max() == 0.0


def dense_weights(grid, kappa0):
    """The collocation weights as a dense matrix, from the broadcast oracle."""
    return broadcast_weights(grid.centers, kappa0, grid.g**3,
                             self_cell_weight(grid.g, kappa0))


def _graded_density():
    """A grid density rising from 0 to 3.25 across the unit ball's bounding box."""
    x = np.linspace(-1.0, 1.0, 5)
    samples = np.add.outer(np.add.outer(x, 0.5 * x), 0.25 * x ** 2) + 1.5
    return DensityField("grid", origin=(-1.0, -1.0, -1.0), spacing=(0.5, 0.5, 0.5),
                        samples=samples)


def test_dense_and_fft_paths_agree(ball_grid):
    # the FFT matvec + COCG solve against dense solves of the same system:
    # both signs of V0 and a non-constant V0
    dirs = fibonacci_directions(64)
    centers = ball_grid.centers
    u_inc = INC.at(centers)
    w_self = self_cell_weight(ball_grid.g, INC.kappa0)
    for density, coefficient in [(DensityField("constant", 0.0), -1.5),
                                 (DensityField("constant", 0.0), 1.5),
                                 (_graded_density(), -1.5)]:
        pot = VolumePotential.from_density(ball_grid, density, coefficient)
        fft = assemble_and_solve(ball_grid, pot, INC)
        v0 = np.broadcast_to(pot.values, ball_grid.n_cells)  # one value or one per cell
        a = dense_weights(ball_grid, INC.kappa0) * v0[None, :]
        a += np.eye(ball_grid.n_cells)
        dense = np.linalg.solve(a, u_inc)
        assert np.abs(dense - fft.y).max() < 1e-7
        # the same system as point interactions on the cell centres (Foldy):
        # charges Q = -V0 g^3 Y and 1/C_eff = (1 + V0 w_self) / (V0 g^3)
        volume = pot.values * ball_grid.g**3
        if pot.values.shape == ():
            system = assemble(centers, volume / (1.0 + pot.values * w_self), INC.kappa0)
            charges = solve_charges(system, INC, centers).charges
        else:
            matrix = pair_kernel(centers, INC.kappa0, (1.0 + pot.values * w_self) / volume)
            charges = np.linalg.solve(matrix, -u_inc)
        assert np.abs(-charges / volume - fft.y).max() < 1e-7
        assert fft.residual <= LS_RESIDUAL_TOL * (1 + np.abs(fft.y).max())
        assert 0 < fft.iterations <= MAX_MATVECS
        ff = far_field_volume(fft, pot, ball_grid, INC.kappa0, dirs).values
        ref = far_field_volume(LSSolution(y=dense, residual=0.0, iterations=0), pot,
                               ball_grid, INC.kappa0, dirs).values
        assert np.abs(ff - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("n, v0", [(20, -200.0), (14, 2000.0)],
                         ids=["below_resonance_20", "above_resonance_14"])
def test_strong_potential_ball_meets_contract(n, v0):
    # kappa0 = 2, V0 = -200 on a 20^3 ball: LGMRES(30) with the same Jacobi
    # preconditioner gives up here after 12,400 matvecs; COCG stays in its cap.
    # V0 = +2000 on a 14^3 ball: COCG on X = V0 g^3 Y meets its contract in
    # its first run (45 matvecs), and Y = X / (V0 g^3) meets the collocation
    # contract checked here
    grid = VoxelGrid.cover(BallDomain(radius=1.0), n)
    pot = VolumePotential.from_density(grid, DensityField("constant", 0.0), v0)
    sol = assemble_and_solve(grid, pot, INC)
    assert sol.iterations <= MAX_MATVECS
    assert np.all(np.isfinite(sol.y))
    # the contract, recomputed with an operator of its own
    w_self = self_cell_weight(grid.g, INC.kappa0)
    conv = LatticeConvolution(grid.mask, grid.g, INC.kappa0, w_self / grid.g**3)
    resid = np.abs(sol.y + conv.apply(pot.values * grid.g**3 * sol.y)
                   - INC.at(grid.centers)).max()
    assert resid == pytest.approx(sol.residual, rel=1e-6, abs=1e-15)
    assert resid <= LS_RESIDUAL_TOL * (1 + np.abs(sol.y).max())


def test_born_regime_solution(ball_grid):
    # weak potential: one Born iteration matches the solve to O((h |V0|)^2)
    pot = VolumePotential.from_density(ball_grid, DensityField("constant", 0.0), -1e-2)
    sol = assemble_and_solve(ball_grid, pot, INC)
    w = dense_weights(ball_grid, INC.kappa0)
    u_inc = INC.at(ball_grid.centers)
    born = u_inc - w @ (pot.values * u_inc)
    rel = np.abs(sol.y - born).max() / np.abs(sol.y).max()
    assert rel <= 1e-3


def test_born_far_field_matches_ball_transform():
    # voxelization error dominates; 24^3 puts it safely under the 1% target
    grid = VoxelGrid.cover(BallDomain(radius=1.0), 24)
    v0 = -1e-2
    pot = VolumePotential.from_density(grid, DensityField("constant", 0.0), v0)
    sol = assemble_and_solve(grid, pot, INC)
    dirs = fibonacci_directions(64)
    ff = far_field_volume(sol, pot, grid, INC.kappa0, dirs)
    born = born_far_field_ball(INC.kappa0, v0, 1.0, dirs, INC.theta)
    assert np.abs(ff.values - born).max() <= 0.01 * np.abs(born).max()


def test_far_field_linearity(ball_grid):
    pot = VolumePotential.from_density(ball_grid, DensityField("constant", 0.0), -1.0)
    dirs = fibonacci_directions(16)
    sol = assemble_and_solve(ball_grid, pot, INC)
    ff = far_field_volume(sol, pot, ball_grid, INC.kappa0, dirs)
    # doubling the incident amplitude doubles Y and the far field (linearity)
    doubled = LSSolution(y=2.0 * sol.y, residual=sol.residual, iterations=sol.iterations)
    ff2 = far_field_volume(doubled, pot, ball_grid, INC.kappa0, dirs)
    assert np.allclose(ff2.values, 2.0 * ff.values)


def test_ball_benchmark_against_series():
    # constant-potential ball: collocation matches the radial series at 32^3
    dom = BallDomain(radius=1.0)
    grid = VoxelGrid.cover(dom, 32)
    q = -1.5
    pot = VolumePotential.from_density(grid, DensityField("constant", 0.0), q)
    sol = assemble_and_solve(grid, pot, INC)
    dirs = fibonacci_directions(100)
    ff = far_field_volume(sol, pot, grid, INC.kappa0, dirs)
    oracle = penetrable_ball_far_field(INC.kappa0, q, 1.0, dirs, INC.theta)
    rel = np.abs(ff.values - oracle).max() / np.abs(oracle).max()
    assert rel <= 0.02


def test_total_field_consistency(ball_grid):
    # the representation formula u = u^I - sum_j w(x, z_j) V0_j Y_j, evaluated
    # by the oracle, reproduces Y at the cell centres and the far field far out
    pot = VolumePotential.from_density(ball_grid, DensityField("constant", 0.0), -1.5)
    sol = assemble_and_solve(ball_grid, pot, INC)
    centers = ball_grid.centers
    w_self = self_cell_weight(ball_grid.g, INC.kappa0)

    def scattered(points):
        return voxel_scattered_field(points, centers, ball_grid.g, pot.values * sol.y,
                                     INC.kappa0, w_self)

    probe = centers[::50]
    vals = INC.at(probe) + scattered(probe)
    rel = np.abs(vals - sol.y[::50]).max() / np.abs(sol.y).max()
    assert rel <= 0.02
    # radial far limit matches the far-field pattern
    xhat = np.array([0.0, 0.6, 0.8])
    big = 1e4
    ff = far_field_volume(sol, pot, ball_grid, INC.kappa0, np.array([xhat]))
    approached = 4 * np.pi * big * np.exp(-1j * INC.kappa0 * big) * scattered([big * xhat])[0]
    assert abs(approached - ff.values[0]) <= 2e-3 * abs(ff.values[0])


def test_cube_reflection_symmetry():
    # theta along z: Y invariant under the two reflections fixing the axis
    dom = BoxDomain(size=(1.0, 1.0, 1.0))
    grid = VoxelGrid.cover(dom, 10)
    pot = VolumePotential.from_density(grid, DensityField("constant", 0.0), -2.0)
    sol = assemble_and_solve(grid, pot, INC)
    y = sol.y.reshape(grid.dims)
    assert np.abs(y - y[::-1, :, :]).max() <= 1e-9 * np.abs(y).max()
    assert np.abs(y - y[:, ::-1, :]).max() <= 1e-9 * np.abs(y).max()


def test_damping_trend_with_h_star(ball_grid):
    # discrete L2 norm of Y decreases as the strength multiplier h_star of the
    # potential grows (O(h) damping analogue)
    norms = []
    for h_star in 10.0 ** np.arange(0, 3):
        pot = VolumePotential.from_density(ball_grid, DensityField("constant", 0.0), 5.0 * h_star)
        sol = assemble_and_solve(ball_grid, pot, INC)
        norms.append(np.sqrt(np.sum(np.abs(sol.y) ** 2) * ball_grid.g**3))
    assert norms[1] < norms[0] and norms[2] < norms[1]


def test_cell_count_cap(monkeypatch):
    grid = VoxelGrid.cover(BallDomain(radius=1.0), 14)
    pot = VolumePotential.from_density(grid, DensityField("constant", 0.0), -1.0)
    monkeypatch.setattr(kernels, "MAX_CELLS", 100)
    with pytest.raises(ConfigError):
        assemble_and_solve(grid, pot, INC)


def test_cell_cap_bounds_the_box(monkeypatch):
    # the operator's buffers scale with the (nx, ny, nz) box, not the masked
    # cells: 1,472 cells of a ball in a 14^3 box of 2,744 exceed a cap of 2,000
    grid = VoxelGrid.cover(BallDomain(radius=1.0), 14)
    assert grid.n_cells == 1472 and grid.dims == (14, 14, 14)
    pot = VolumePotential.from_density(grid, DensityField("constant", 0.0), -1.0)
    monkeypatch.setattr(kernels, "MAX_CELLS", 2000)
    with pytest.raises(ConfigError, match="box"):
        assemble_and_solve(grid, pot, INC)


def test_grid_refinement_improves_ball_benchmark():
    # error vs the series oracle drops by at least 0.6x per grid halving
    errs = []
    for n in (16, 32):
        grid = VoxelGrid.cover(BallDomain(radius=1.0), n)
        pot = VolumePotential.from_density(grid, DensityField("constant", 0.0), -1.5)
        sol = assemble_and_solve(grid, pot, INC)
        dirs = fibonacci_directions(64)
        ff = far_field_volume(sol, pot, grid, INC.kappa0, dirs)
        oracle = penetrable_ball_far_field(INC.kappa0, -1.5, 1.0, dirs, INC.theta)
        errs.append(np.abs(ff.values - oracle).max())
    assert errs[1] / errs[0] <= 0.6
