"""Acceptance suite: one numbered test per criterion, each printing a
PASS/FAIL line with the measured values (run with -s or -v to see them)."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from bubblelab import bemlimit, surfmedium, volmedium
from bubblelab.cluster import BallDomain, DensityField
from bubblelab.fields import fibonacci_directions
from bubblelab.harness import ExperimentConfig, fit_rate, run_convergence, write_outputs
from bubblelab.materials import (
    BubbleSpec,
    ContrastParams,
    classify_regime,
    minnaert_frequencies,
    scattering_coefficient,
)
from bubblelab.meshes import boundary_shape_factor, icosphere
from bubblelab.pointscat import IncidentWave, assemble, far_field, solve_charges

from oracles import metasurface_sphere_far_field, two_bubble_charges


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def sphere():
    return BubbleSpec.sphere()


def worked_params(**kw):
    base = dict(rho0=1.0, k0=2.0, c_rho=0.5, gamma=1.0, tau=1.0, omega=1.0, s=1.0, t=0.4)
    base.update(kw)
    return ContrastParams(**base)


def test_c01_shape_factor_icosphere():
    # >= 5120 panels, -8 pi/3 within 1e-3 relative, <= 60 s
    mesh = icosphere(5)  # 20480 panels
    t0 = time.perf_counter()
    val = boundary_shape_factor(mesh)
    wall = time.perf_counter() - t0
    exact = -8.0 * math.pi / 3.0
    rel = abs(val - exact) / abs(exact)
    report(1, rel <= 1e-3 and wall <= 60.0,
           f"{mesh.n_panels} panels, value {val:.6f} vs {exact:.6f}, "
           f"rel {rel:.2e} (tol 1e-3), {wall:.1f}s (cap 60s)")


def test_c02_minnaert_identities(sphere):
    p = worked_params()
    w2, _ = minnaert_frequencies(sphere, p, 1.0)
    exact_ok = abs(w2 - 6.0) <= 1e-10
    avals = np.array([1e-1, 1e-2, 1e-3])
    gaps = [abs(np.subtract(*minnaert_frequencies(sphere, p, a))) for a in avals]
    slope = np.polyfit(np.log(avals), np.log(gaps), 1)[0]
    report(2, exact_ok and 1.8 <= slope <= 2.2,
           f"omega_M^2 = {w2!r} (want 6 to 1e-10), limit-gap slope {slope:.3f} (want 2 +/- 0.2)")


def test_c03_sign_flip_bisection(sphere):
    a = 0.3
    p = worked_params(l0=1e-12)
    w2, _ = minnaert_frequencies(sphere, p, a)
    target = math.sqrt(w2)

    def positive(omega):
        return scattering_coefficient(sphere, replace(p, omega=omega), a).real > 0

    lo, hi = 0.5 * target, 1.7 * target
    while hi - lo > 1e-9 * target:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if positive(mid) else (mid, hi)
    found = 0.5 * (lo + hi)
    rel = abs(found - target) / target
    report(3, rel <= 1e-8, f"flip at {found!r} vs omega_M {target!r}, rel {rel:.2e} (tol 1e-8)")


def test_c04_point_interaction_exactness(sphere):
    kappa0 = 1.4
    theta = np.array([0.0, 0.0, 1.0])
    inc = IncidentWave(kappa0, theta)
    # M = 1 at a non-trivial location: Q = -C u^I(z) to machine precision
    z1 = np.array([[0.3, -0.2, 0.5]])
    c = -0.37
    sol1 = solve_charges(assemble(z1, c, kappa0), inc, z1)
    e1 = abs(sol1.charges[0] - (-c) * inc.at(z1)[0])

    z2 = np.array([[0.4, 0.0, 0.0], [-0.4, 0.1, 0.2]])
    sol2 = solve_charges(assemble(z2, c, kappa0), inc, z2)
    q1, q2 = two_bubble_charges(c, kappa0, z2[0], z2[1], theta)
    e2 = max(abs(sol2.charges[0] - q1), abs(sol2.charges[1] - q2))

    # residual at M = 4096 (16^3 lattice cluster, solved on its lattice by
    # FFT and COCG, as a convergence run solves it)
    from bubblelab.cluster import BoxDomain, build_volumetric

    cl = build_volumetric(BoxDomain(size=(1, 1, 1)), DensityField("constant", 0.0),
                          a=4096.0**-1.0, s=1.0, t=0.4, seed=0, d_min=0.5)
    sol4096 = solve_charges(assemble(cl, -0.002, kappa0), inc, cl.centers)
    res_ok = sol4096.residual <= 1e-10 * (1 + np.abs(sol4096.charges).max())

    # reciprocity and translation covariance at 1e-10
    rng = np.random.default_rng(11)
    zr = rng.uniform(-0.5, 0.5, (10, 3))
    xhat = np.array([1.0, 0.0, 0.0])

    def pattern(centers, th, d):
        s = solve_charges(assemble(centers, c, kappa0), IncidentWave(kappa0, th),
                          centers)
        return far_field([s], centers, kappa0, np.atleast_2d(d))[0].values

    rec = abs(pattern(zr, theta, xhat)[0] - pattern(zr, -xhat, -theta)[0])
    v = np.array([0.2, -0.3, 0.4])
    dirs = fibonacci_directions(50)
    base = pattern(zr, theta, dirs)
    moved = pattern(zr + v, theta, dirs)
    phase = np.exp(1j * kappa0 * (theta @ v - dirs @ v))
    tra = np.abs(moved - base * phase).max()

    ok = e1 <= 1e-13 and e2 <= 1e-12 and res_ok and rec <= 1e-10 and tra <= 1e-10
    report(4, ok,
           f"M=1 err {e1:.1e} (machine), M=2 err {e2:.1e} (tol 1e-12), "
           f"M={cl.m} residual {sol4096.residual:.1e} (tol 1e-10*(1+|Q|)), "
           f"reciprocity {rec:.1e}, translation {tra:.1e} (tol 1e-10)")


def test_c05_bem_oracle():
    inc = IncidentWave(1.0, np.array([0.0, 0.0, 1.0]))
    dirs = fibonacci_directions(200)
    mesh = icosphere(4)  # 5120 >= 2000 panels
    t0 = time.perf_counter()
    density, ff = bemlimit.solve_dirichlet(mesh, inc, dirs)
    wall = time.perf_counter() - t0
    mie = bemlimit.mie_soft_sphere(inc.kappa0, 1.0, dirs, inc.theta)
    rel = np.abs(ff.values - mie.values).max() / np.abs(mie.values).max()
    report(5, rel <= 0.01 and wall <= 120.0,
           f"{mesh.n_panels} panels, far-field rel sup err {rel:.2e} (tol 1e-2), "
           f"{wall:.1f}s (cap 120s)")


def test_c06_volume_solver_oracle():
    from oracles import broadcast_weights, penetrable_ball_far_field

    dom = BallDomain(radius=1.0)
    inc = IncidentWave(2.0, np.array([0.0, 0.0, 1.0]))
    grid = volmedium.VoxelGrid.cover(dom, 48)
    q = -1.5
    pot = volmedium.VolumePotential.from_density(grid, DensityField("constant", 0.0), q)
    sol = volmedium.assemble_and_solve(grid, pot, inc)
    dirs = fibonacci_directions(100)
    ff = volmedium.far_field_volume(sol, pot, grid, inc.kappa0, dirs)
    oracle = penetrable_ball_far_field(inc.kappa0, q, 1.0, dirs, inc.theta)
    rel = np.abs(ff.values - oracle).max() / np.abs(oracle).max()

    # Born regime: one Born iterate matches the solve to 1e-3 relative
    grid_b = volmedium.VoxelGrid.cover(dom, 14)
    pot_b = volmedium.VolumePotential.from_density(grid_b, DensityField("constant", 0.0), -1e-2)
    sol_b = volmedium.assemble_and_solve(grid_b, pot_b, inc)
    w = broadcast_weights(grid_b.centers, inc.kappa0, grid_b.g**3,
                          volmedium.self_cell_weight(grid_b.g, inc.kappa0))
    u_inc = inc.at(grid_b.centers)
    born = u_inc - w @ (pot_b.values * u_inc)
    born_rel = np.abs(sol_b.y - born).max() / np.abs(sol_b.y).max()

    report(6, rel <= 0.02 and born_rel <= 1e-3,
           f"48^3 ball far field rel {rel:.2e} (tol 2e-2), Born check {born_rel:.2e} (tol 1e-3)")


def test_c07_surface_solver_oracle():
    inc = IncidentWave(2.0, np.array([0.0, 0.0, 1.0]))
    mesh = icosphere(4)  # 5120 panels
    sigma_h = 3.0
    sol = surfmedium.assemble_and_solve_surface(mesh, sigma_h, inc)
    dirs = fibonacci_directions(100)
    ff = surfmedium.far_field_surface(sol, mesh, inc.kappa0, dirs)
    oracle = metasurface_sphere_far_field(inc.kappa0, sigma_h, 1.0, dirs, inc.theta)
    rel = np.abs(ff.values - oracle).max() / np.abs(oracle).max()
    jump = surfmedium.jump_check(sol, mesh, inc)
    defect = max(jump["value_jump_rel"], jump["deriv_defect_rel"])
    report(7, rel <= 0.02 and defect <= 0.05,
           f"far field rel {rel:.2e} (tol 2e-2), jump defect {defect:.2e} (tol 5e-2)")


def test_c08_damping_trend_slope():
    # two-decade sweep centered where the local slope of ||Y|| vs h_star
    # crosses -1/2 (the onset of the half-order damping bound)
    inc = IncidentWave(2.0, np.array([0.0, 0.0, 1.0]))
    mesh = icosphere(3)
    sigma = 5.0

    def norm_at(h_star):
        sol = surfmedium.assemble_and_solve_surface(mesh, sigma * float(h_star), inc)
        return float(np.sqrt(np.sum(np.abs(sol.y) ** 2 * mesh.areas)))

    coarse = 10.0 ** np.arange(-2.0, 4.01, 0.5)
    norms = np.array([norm_at(h) for h in coarse])
    logs = np.log10(norms)
    local = (logs[2:] - logs[:-2]) / (np.log10(coarse[2:]) - np.log10(coarse[:-2]))
    centers = np.log10(coarse[1:-1])
    idx = int(np.argmin(np.abs(local - (-0.5))))
    # linear interpolation of the crossing point in log10 h
    if idx + 1 < len(local) and (local[idx] + 0.5) * (local[idx + 1] + 0.5) < 0:
        frac = (-0.5 - local[idx]) / (local[idx + 1] - local[idx])
        center = centers[idx] + frac * (centers[idx + 1] - centers[idx])
    else:
        center = centers[idx]
    window = np.logspace(center - 1.0, center + 1.0, 9)
    vals = np.array([norm_at(h) for h in window])
    slope = np.polyfit(np.log(window), np.log(vals), 1)[0]
    report(8, -0.6 <= slope <= -0.4,
           f"two decades centered at h_star={10**center:.3g}: slope {slope:.3f} "
           f"(want -0.5 +/- 0.1)")


def _run(doc):
    cfg = ExperimentConfig.from_json(doc)
    table = run_convergence(cfg)
    return table, fit_rate(table)


def test_c09_low_regime_decay():
    doc = {
        "geometry": {"kind": "box", "size": [2, 2, 2],
                     "density": {"kind": "constant", "value": 0.0}},
        "bubble": {"shape": "sphere"},
        "contrast": {"gamma": 1.0, "s": 0.5, "t": 0.2, "omega_ratio": 0.8},
        "regime": "Low",
        "a_sequence": [0.002, 0.001, 0.0005, 0.00025],
        "directions": 200,
        "seed": 1,
    }
    table, _ = _run(doc)
    scales = [r.field_scale for r in table.rows]
    factors = [x / y for x, y in zip(scales, scales[1:])]
    report(9, len(table.rows) == 4 and all(f >= 1.1 for f in factors),
           f"sup|u_FL| {['%.3f' % s for s in scales]}, per-halving factors "
           f"{['%.3f' % f for f in factors]} (want all >= 1.1)")


def test_c10_medium_volumetric():
    doc = {
        "geometry": {"kind": "box", "size": [1, 1, 1],
                     "density": {"kind": "constant", "value": 0.0}},
        "bubble": {"shape": "sphere"},
        "contrast": {"gamma": 1.0, "s": 1.0, "t": 0.4, "omega_ratio": 0.8},
        "regime": "MediumVolumetricB",
        "a_sequence": [0.004, 0.002, 0.001],
        "directions": 200,
        "tolerances": {"grid_n": 24},
        "seed": 1,
    }
    table, fit = _run(doc)
    errs = [r.sup_err for r in table.rows]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    m_ok = all(r.m <= 4096 for r in table.rows)
    ledger = ", ".join(f"{t}={e:.3g}" for t, e, _ in fit.exponent_ledger)
    report(10, decreasing and m_ok and len(errs) == 3,
           f"sup_err {['%.3f' % e for e in errs]} strictly decreasing, M<=4096; "
           f"slope {fit.slope:.3f} vs exponents [{ledger}] (informational)")


def test_c11_medium_surface():
    doc = {
        "geometry": {"kind": "sphere_cap", "radius": 1.0,
                     "theta_max": math.pi / 2,
                     "density": {"kind": "constant", "value": 0.0}},
        "bubble": {"shape": "sphere"},
        "contrast": {"gamma": 1.0, "s": 1.0, "t": 0.45, "omega_ratio": 0.6},
        "regime": "MediumVolumetricB",
        "a_sequence": [0.008, 0.004, 0.002],
        "directions": 200,
        "tolerances": {"d_min": 0.3, "mesh_rings": 14, "mesh_nphi": 42},
        "seed": 1,
    }
    table, fit = _run(doc)
    errs = [r.sup_err for r in table.rows]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ledger = ", ".join(f"{t}={e:.3g}" for t, e, _ in fit.exponent_ledger)
    report(11, decreasing and len(errs) == 3,
           f"sup_err {['%.3f' % e for e in errs]} strictly decreasing; "
           f"slope {fit.slope:.3f} vs exponents [{ledger}] (informational)")


def test_c12_high_regime_both_variants():
    contrast = {"gamma": 1.0, "s": 0.95, "t": 0.33, "h1": 0.1, "l_m": 0.01,
                "lambda_k": 0.9}
    vol = {
        "geometry": {"kind": "ball", "radius": 0.6203504908994001,
                     "density": {"kind": "constant", "value": 0.0}},
        "bubble": {"shape": "sphere"},
        "contrast": contrast,
        "regime": "High",
        "a_sequence": [0.002, 0.001, 0.0005, 0.00025],
        "directions": 200,
        "tolerances": {"mesh_level": 3},
        "seed": 1,
    }
    sur = {
        "geometry": {"kind": "sphere_cap", "radius": 1.0, "theta_max": math.pi / 4,
                     "density": {"kind": "constant", "value": 0.0}},
        "bubble": {"shape": "sphere"},
        "contrast": contrast,
        "regime": "High",
        "a_sequence": [0.004, 0.002, 0.001, 0.0005],
        "directions": 200,
        "tolerances": {"d_min": 0.1, "mesh_rings": 12, "mesh_nphi": 36},
        "seed": 1,
    }
    tv, _ = _run(vol)
    ev = [r.sup_err for r in tv.rows]
    ts, _ = _run(sur)
    es = [r.sup_err for r in ts.rows]
    vol_ok = len(ev) == 4 and all(b < a for a, b in zip(ev, ev[1:]))
    sur_ok = len(es) == 4 and all(b < a for a, b in zip(es, es[1:]))
    report(12, vol_ok and sur_ok,
           f"closed-domain sup_err {['%.3f' % e for e in ev]}, "
           f"open-surface sup_err {['%.3f' % e for e in es]} "
           f"(both strictly decreasing over 3 halvings)")


def test_c13_regime_classifier():
    r1 = classify_regime(ContrastParams(gamma=0.7, s=1.3, t=0.45))
    r2 = classify_regime(ContrastParams(gamma=1.0, s=0.5, t=0.2))
    r3 = classify_regime(ContrastParams(gamma=1.0, s=0.95, t=0.33, h1=0.1, l_m=1.0,
                                        lambda_k=0.9))
    named = r1.regime == "MediumVolumetricA" and r2.regime == "Low" and r3.regime == "High"
    led = dict(r3.satisfied)
    s, t, h1, lam = 0.95, 0.33, 0.1, 0.9
    hand = {
        "high: l_m > 0": True,
        "high: h1 < 1/6": h1 < 1 / 6,
        "high: 0 < 1 - h1 < s": 0 < 1 - h1 < s,
        "high: s <= 3t": s <= 3 * t,
        "high: 3t < 3/2 - t - h1": 3 * t < 1.5 - t - h1,
        "high-vol: 3t < (1 + 2*lambda/15)(1 - h1)": 3 * t < (1 + 2 * lam / 15) * (1 - h1),
        "high-sur: 3t < (1 + lambda/7)(1 - h1)": 3 * t < (1 + lam / 7) * (1 - h1),
    }
    ledger_ok = all(led[k] == v for k, v in hand.items())
    report(13, named and ledger_ok,
           f"worked regimes ({r1.regime}, {r2.regime}, {r3.regime}); high-chain ledger "
           f"matches hand arithmetic incl. (1+2*lambda/15) and (1+lambda/7) caps")


def test_c14_determinism(tmp_path):
    doc = {
        "geometry": {"kind": "box", "size": [1, 1, 1],
                     "density": {"kind": "constant", "value": 0.0}},
        "bubble": {"shape": "sphere"},
        "contrast": {"gamma": 1.0, "s": 0.5, "t": 0.2, "omega_ratio": 0.8},
        "regime": "Low",
        "a_sequence": [0.01, 0.005, 0.0025],
        "directions": 50,
        "seed": 42,
    }
    blobs = []
    for sub in ("one", "two"):
        cfg = ExperimentConfig.from_json(doc)
        table = run_convergence(cfg)
        write_outputs(table, fit_rate(table), tmp_path / sub)
        blobs.append((tmp_path / sub / "error_table.csv").read_bytes())
    report(14, blobs[0] == blobs[1],
           f"two runs, same seed: error_table.csv byte-identical ({len(blobs[0])} bytes)")
