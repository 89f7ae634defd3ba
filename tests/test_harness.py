import importlib.util
import json
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from bubblelab import kernels, volmedium
from bubblelab.errors import ConfigError, SolverError
from bubblelab.harness import (
    ErrorRow,
    ErrorTable,
    ExperimentConfig,
    build_contrast,
    comparator_mesh,
    fit_rate,
    prepare,
    run_convergence,
    write_outputs,
)
from bubblelab.materials import ContrastParams, classify_regime, scattering_coefficient
from bubblelab.fields import fibonacci_directions
from bubblelab.pointscat import IncidentWave

from oracles import strict_json


def low_config(**over):
    doc = {
        "geometry": {"kind": "box", "size": [1, 1, 1],
                     "density": {"kind": "constant", "value": 0.0}},
        "bubble": {"shape": "sphere"},
        "contrast": {"gamma": 1.0, "s": 0.5, "t": 0.2, "omega_ratio": 0.8},
        "regime": "Low",
        "a_sequence": [0.02, 0.01, 0.005],
        "directions": 40,
        "seed": 3,
    }
    doc.update(over)
    return ExperimentConfig.from_json(doc)


def test_config_validation():
    with pytest.raises(ConfigError):
        low_config(a_sequence=[0.01, 0.02, 0.04])  # increasing
    with pytest.raises(ConfigError):
        low_config(a_sequence=[0.02, 0.01])  # too short
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"geometry": {"kind": "box"}})  # missing keys
    with pytest.raises(ConfigError):
        low_config(extra_key=1)
    with pytest.raises(ConfigError):
        low_config(geometry={"kind": "torus"})


@pytest.mark.parametrize("kind, mesh_n", [("box", 10), ("plane_rect", 16)])
def test_absent_tolerances_take_their_defaults(kind, mesh_n):
    cfg = low_config(geometry={"kind": kind})
    assert cfg.tolerances == {"d_min": 0.5, "grid_n": 24, "mesh_level": 3, "mesh_n": mesh_n,
                              "mesh_rings": 14, "mesh_nphi": 42}
    # a key the config sets replaces its default only
    given = low_config(geometry={"kind": kind}, tolerances={"mesh_n": 4, "d_min": 0.25})
    assert given.tolerances == {**cfg.tolerances, "mesh_n": 4, "d_min": 0.25}


def _count_discretisation_builds(monkeypatch):
    """Lists that record each ``VoxelGrid.cover`` call and a weak reference to
    each centres array built."""
    grid_type = volmedium.VoxelGrid
    covers, centred = [], []
    cover, build = grid_type.cover, grid_type.centers.fget

    def counted_cover(domain, n):
        covers.append(n)
        return cover(domain, n)

    def counted_centers(grid):
        centers = build(grid)
        centred.append(weakref.ref(centers))
        return centers

    monkeypatch.setattr(grid_type, "cover", staticmethod(counted_cover))
    monkeypatch.setattr(grid_type, "centers", property(counted_centers))
    return covers, centred


NEAR_RESONANCE = {
    "contrast": {"gamma": 1.0, "s": 0.7, "t": 0.3, "h1": 0.3, "l_m": -1.0, "lambda_k": 0.9},
    "regime": "MediumNearResonance", "a_sequence": [0.002, 0.001, 0.0005]}


@pytest.mark.parametrize("over", [
    {"contrast": {"gamma": 1.0, "s": 1.0, "t": 0.4, "omega_ratio": 0.8},
     "regime": "MediumVolumetricB", "a_sequence": [0.05, 0.03, 0.02],
     "directions": {"n": 30, "theta_sweep": 2}},
    NEAR_RESONANCE,
], ids=["theta_sweep", "near_resonance"])
def test_voxel_grid_is_built_once_per_run(monkeypatch, over):
    # neither the incidence direction nor a (which moves kappa0 near the
    # resonance) changes the grid, so every row and direction reuses it
    covers, centred = _count_discretisation_builds(monkeypatch)
    solve = volmedium.assemble_and_solve
    solves = []

    def checked_solve(*args):
        # the cell centres are built where a coordinate is needed and die
        # there: none is alive when a solve starts or after it returns, and
        # converge takes its point count from the solution, not from them
        assert all(ref() is None for ref in centred)
        solves.append(solve(*args))
        assert all(ref() is None for ref in centred)
        return solves[-1]

    monkeypatch.setattr(volmedium, "assemble_and_solve", checked_solve)
    table = run_convergence(low_config(**over, tolerances={"grid_n": 8}))
    assert len(table.rows) == 3 and not table.aborted
    assert covers == [8]
    assert solves and centred and all(ref() is None for ref in centred)
    assert all(row.n_model == len(sol.y) for row, sol in zip(table.rows, solves))


def _traced_peak(fn, *args):
    """Peak bytes traced by tracemalloc while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_convergence_rows_peak_at_one_row_solve():
    # a row holds nothing of an earlier row's comparator solve and no grid
    # centres, so three rows on one 24^3 box peak where one row's comparator
    # solve (potential, COCG solve and far field) does
    cfg = low_config(**NEAR_RESONANCE, directions=200, tolerances={"grid_n": 24})
    run_peak = _traced_peak(run_convergence, cfg)
    run = prepare(cfg)
    run.grid  # built once per run, before its first row
    row_peaks = []
    for a in cfg.a_sequence:
        row = run.row_params(a)
        incident = IncidentWave(row.kappa0, run.theta)
        row_peaks.append(_traced_peak(run.model_far_fields, run.comparator, row, a, [incident]))
    # the run adds its grid, its finished rows and small arrays (0.14 MiB); a
    # kept earlier Y and run-long masked centres would add 0.5 MiB more
    assert run_peak <= max(row_peaks) + (1 << 20) // 4


def test_comparator_mesh_is_built_once_per_run(monkeypatch):
    from bubblelab import harness

    meshes = []
    build = harness.comparator_mesh
    monkeypatch.setattr(harness, "comparator_mesh", lambda cfg: meshes.append(1) or build(cfg))
    table = run_convergence(low_config(
        geometry={"kind": "sphere_cap", "radius": 1.0, "theta_max": math.pi / 4},
        contrast={"gamma": 1.0, "s": 0.95, "t": 0.33, "h1": 0.1, "l_m": 0.01, "lambda_k": 0.9},
        regime="High", directions={"n": 30, "theta_sweep": 2},
        tolerances={"d_min": 0.1, "mesh_rings": 4, "mesh_nphi": 12}))
    assert len(table.rows) == 3 and not table.aborted
    assert meshes == [1]


@pytest.mark.parametrize("name", ["high_surface", "medium_surface"])
def test_cap_theta_sweep_factors_one_panel_system_per_row(monkeypatch, name):
    # high_surface compares with the Dirichlet screen, medium_surface with the
    # surface model; both directions of a row solve against one panel system
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / f"{name}.json").read_text())
    doc.update(a_sequence=doc["a_sequence"][:3], directions={"n": 30, "theta_sweep": 2})
    doc["tolerances"].update(mesh_rings=4, mesh_nphi=12)
    cfg = ExperimentConfig.from_json(doc)
    factored = []
    factor = kernels.DirectSystem._factor
    monkeypatch.setattr(kernels.DirectSystem, "_factor",
                        lambda self: factored.append(self.name) or factor(self))
    table = run_convergence(cfg)
    run = prepare(cfg)
    assert len(table.rows) == 3 and not table.aborted
    panel = [n for n in factored if n != "point-interaction system"]
    # kappa0 moves with a near the resonance: one panel system per row, else per run
    assert len(panel) == (3 if run.params.near_resonance else 1)
    assert len(factored) - len(panel) == 3  # one point system a row
    for (a, _, ff_model), row in zip(table.far_fields, table.rows):
        params = run.row_params(a)
        incidents = [IncidentWave(params.kappa0, th) for th in fibonacci_directions(2)]
        shared = run.model_far_fields(run.comparator, params, a, incidents)
        # each direction byte for byte as a system factored for it alone
        for incident, (ff, n) in zip(incidents, shared):
            [(fresh, n_fresh)] = run.model_far_fields(run.comparator, params, a, [incident])
            assert np.array_equal(ff.values, fresh.values) and n == n_fresh == row.n_model
        assert any(np.array_equal(ff_model.values, ff.values) for ff, _ in shared)


def test_box_comparator_mesh_has_per_axis_sides():
    geometry = {"kind": "box", "size": [2, 1, 1]}
    mesh = comparator_mesh(low_config(geometry=geometry, tolerances={"mesh_n": 4}))
    assert np.array_equal(mesh.vertices.min(axis=0), [-1.0, -0.5, -0.5])
    assert np.array_equal(mesh.vertices.max(axis=0), [1.0, 0.5, 0.5])
    assert mesh.total_area == pytest.approx(10.0, rel=1e-12)
    assert mesh.enclosed_volume() == pytest.approx(2.0, rel=1e-12)
    mesh.require_closed()


def test_shipped_configs_and_benchmark_workloads_load(monkeypatch):
    root = Path(__file__).resolve().parent.parent
    docs = [json.loads(p.read_text()) for p in sorted((root / "configs").glob("*.json"))]
    assert len(docs) == 6
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    docs += [w.config(1, size) for w in workloads.WORKLOADS.values() for size in workloads.SIZES]
    for doc in docs:
        # from_json rejects a key its section does not list
        prepare(ExperimentConfig.from_json(doc))


@pytest.mark.parametrize("name, a", [("high_volumetric", 1e-5),
                                     ("medium_near_resonance", 5e-6)])
def test_small_radius_rows_clear_the_resonance_guard(name, a):
    # the denominator shrinks like a^(1+gamma) with its first term; both rows
    # stay percent-level away from resonance (gaps 3.2e-3 and -2.6e-2)
    root = Path(__file__).resolve().parent.parent
    run = prepare(ExperimentConfig.from_json(json.loads((root / "configs" / f"{name}.json")
                                                        .read_text())))
    coeff = scattering_coefficient(run.bubble, run.row_params(a), a)
    assert math.isfinite(coeff.real) and coeff != 0.0


def test_contrast_frequency_modes():
    params, mode = build_contrast({"gamma": 1.0, "s": 1.0, "t": 0.4, "omega": 2.0})
    assert mode == ("fixed", 2.0) and params.omega == 2.0
    _, mode = build_contrast({"gamma": 1.0, "s": 1.0, "t": 0.4, "omega_ratio": 0.8})
    assert mode == ("ratio", 0.8)
    _, mode = build_contrast({"gamma": 1.0, "s": 0.8, "t": 0.3, "h1": 0.2, "l_m": 1.0})
    assert mode[0] == "gap"
    with pytest.raises(ConfigError):
        build_contrast({"gamma": 1.0, "s": 0.8, "t": 0.3, "h1": 0.2, "l_m": 1.0,
                        "omega": 1.0})
    with pytest.raises(ConfigError):
        build_contrast({"gamma": 1.0, "s": 1.0, "t": 0.4})  # no frequency at all


def test_low_regime_run_and_outputs(tmp_path):
    cfg = low_config()
    table = run_convergence(cfg)
    assert len(table.rows) == 3 and not table.aborted
    # Low comparator is the zero field: sup_err equals the field scale
    for row in table.rows:
        assert row.sup_err == row.field_scale
        assert row.n_model == 0
    fit = fit_rate(table)
    write_outputs(table, fit, tmp_path)
    header = (tmp_path / "error_table.csv").read_text().splitlines()[0]
    assert header == "a,M,N,sup_err,field_scale"
    report = json.loads((tmp_path / "regime_report.json").read_text())
    assert report["regime"] == "Low"
    assert any(name.startswith("low") for name, _ in report["ledger"])
    assert (tmp_path / "farfield_fl_row0.csv").exists()
    assert (tmp_path / "farfield_model_row2.csv").exists()


def test_error_table_csv_roundtrip(tmp_path):
    rows = [ErrorRow(a=0.1 / 3, m=27, n_model=512, sup_err=math.pi * 1e-7,
                     field_scale=2.0 ** 0.5)]
    table = ErrorTable(rows=rows, regime_report=None, aborted=[], geometry_kind="box",
                       params=None)
    table.write_csv(tmp_path / "error_table.csv")
    assert ErrorTable.read_rows(tmp_path / "error_table.csv") == rows


def test_read_rows_skips_columns_of_older_tables(tmp_path):
    # tables that still carry the wall_time_s column read by column name
    path = tmp_path / "error_table.csv"
    path.write_text("a,M,N,sup_err,field_scale,wall_time_s\n0.02,8,512,0.5,2.0,0.0\n")
    assert ErrorTable.read_rows(path) == [ErrorRow(a=0.02, m=8, n_model=512, sup_err=0.5,
                                                   field_scale=2.0)]


def test_convergence_determinism_byte_identical(tmp_path):
    cfg = low_config()
    for sub in ("one", "two"):
        table = run_convergence(cfg)
        write_outputs(table, fit_rate(table), tmp_path / sub)
    a = (tmp_path / "one" / "error_table.csv").read_bytes()
    b = (tmp_path / "two" / "error_table.csv").read_bytes()
    assert a == b


def test_k1_theta_sweep_run_byte_identical(tmp_path):
    # K = 1 draws one seeded extra centre per cell, and the sweep's far fields
    # come from one phase pass for both incidence directions
    cfg = low_config(
        geometry={"kind": "box", "size": [1, 1, 1], "density": {"kind": "constant", "value": 1.0}},
        contrast={"gamma": 1.0, "s": 1.0, "t": 0.4, "omega_ratio": 0.8},
        regime="MediumVolumetricB", a_sequence=[0.05, 0.03, 0.02],
        directions={"n": 30, "theta_sweep": 2}, tolerances={"grid_n": 8})
    tables = []
    for sub in ("one", "two"):
        table = run_convergence(cfg)
        assert len(table.rows) == 3 and not table.aborted
        write_outputs(table, fit_rate(table), tmp_path / sub)
        tables.append((tmp_path / sub / "error_table.csv").read_bytes())
    assert tables[0] == tables[1]


def test_regime_mismatch_rejected():
    cfg = low_config(regime="High")
    with pytest.raises(ConfigError):
        run_convergence(cfg)


def test_medium_volumetric_run():
    cfg = low_config(
        contrast={"gamma": 1.0, "s": 1.0, "t": 0.4, "omega_ratio": 0.8},
        regime="MediumVolumetricB",
        a_sequence=[0.05, 0.03, 0.02],
        tolerances={"grid_n": 10},
    )
    table = run_convergence(cfg)
    assert len(table.rows) == 3
    assert all(r.n_model > 0 for r in table.rows)
    assert all(np.isfinite(r.sup_err) and r.sup_err > 0 for r in table.rows)


def test_row_abort_on_cluster_cap(monkeypatch):
    # a K = 1 box (two centres per cell) holds M = 16, 54 and 250 centres; a
    # dense budget of 300 x 300 double entries refuses only the last row's
    # system, 12 M^2 bytes in single precision
    monkeypatch.setattr(kernels, "DENSE_MAX_BYTES", 16 * 300**2)
    cfg = low_config(geometry={"kind": "box", "size": [1, 1, 1],
                               "density": {"kind": "constant", "value": 1.0}},
                     a_sequence=[0.02, 0.001, 1e-4, 1e-5], tolerances={"d_min": 0.1})
    table = run_convergence(cfg)
    assert [row.m for row in table.rows] == [16, 54, 250]
    [(a, reason, diagnostics)] = table.aborted
    assert a == 1e-5 and reason.startswith("AllocationError: ")
    assert diagnostics == {"type": "AllocationError", "cond_estimate": None,
                           "iterations": None, "bytes": 12 * 686**2}


def test_solver_error_row_keeps_diagnostics(tmp_path, monkeypatch):
    from bubblelab import pointscat

    # a negative contract tolerance fails every point-interaction residual
    # check; a K = 1 box (two centres a cell) is solved by DenseSystem
    monkeypatch.setattr(pointscat, "RESIDUAL_TOL", -1.0)
    cfg = low_config(geometry={"kind": "box", "size": [1, 1, 1],
                               "density": {"kind": "constant", "value": 1.0}},
                     tolerances={"d_min": 0.1})
    table = run_convergence(cfg)
    assert not table.rows and len(table.aborted) == 3
    write_outputs(table, fit_rate(table), tmp_path)
    fit = strict_json((tmp_path / "rate_fit.json").read_text())
    assert fit["slope"] is None and "skipped" in fit["note"]
    report = json.loads((tmp_path / "regime_report.json").read_text())
    a, reason, diagnostics = report["aborted_rows"][0]
    assert a == cfg.a_sequence[0] and reason.startswith("SolverError: ")
    assert diagnostics["type"] == "SolverError" and diagnostics["iterations"] is None
    assert diagnostics["cond_estimate"] >= 1.0


def test_lattice_row_abort_on_box_cap(monkeypatch):
    # K = 0 boxes of M = 8, 125 and 1000 centres solve on their lattice; a box
    # cap of 200 sites refuses only the last row's operator
    monkeypatch.setattr(kernels, "MAX_CELLS", 200)
    table = run_convergence(low_config(a_sequence=[0.02, 1e-4, 1e-6]))
    assert [row.m for row in table.rows] == [8, 125]
    [(a, reason, diagnostics)] = table.aborted
    assert a == 1e-6 and reason.startswith("ConfigError: lattice box (10, 10, 10)")
    assert diagnostics == {"type": "ConfigError", "cond_estimate": None, "iterations": None}


def test_lattice_solver_error_row_keeps_diagnostics(tmp_path, monkeypatch):
    from bubblelab import pointscat

    # a negative contract tolerance fails every residual check; K = 0 boxes
    # are solved on their lattice, so each aborted row keeps the matvecs of
    # both COCG runs and has no condition estimate
    monkeypatch.setattr(pointscat, "RESIDUAL_TOL", -1.0)
    table = run_convergence(low_config(a_sequence=[0.02, 1e-4, 1e-6]))
    assert not table.rows and len(table.aborted) == 3
    write_outputs(table, fit_rate(table), tmp_path)
    report = json.loads((tmp_path / "regime_report.json").read_text())
    for _, reason, diagnostics in report["aborted_rows"]:
        assert reason.startswith("SolverError: point-interaction system residual")
        assert diagnostics["type"] == "SolverError" and diagnostics["cond_estimate"] is None
        assert isinstance(diagnostics["iterations"], int) and diagnostics["iterations"] > 0


def test_volume_cap_abort_records_matvecs(monkeypatch):
    monkeypatch.setattr(kernels, "MAX_MATVECS", 2)
    cfg = low_config(
        contrast={"gamma": 1.0, "s": 1.0, "t": 0.4, "omega_ratio": 0.8},
        regime="MediumVolumetricB",
        a_sequence=[0.05, 0.03, 0.02],
        tolerances={"grid_n": 8},
    )
    table = run_convergence(cfg)
    assert not table.rows and len(table.aborted) == 3
    assert all(diagnostics == {"type": "SolverError", "cond_estimate": None, "iterations": 2}
               for _, _, diagnostics in table.aborted)


def test_volume_refinement_abort_counts_both_runs(monkeypatch):
    # the first COCG run stops loosely (Z = 0 misses Y's residual contract),
    # so the refinement run starts, and it fails: the row's iteration count
    # is the matvecs of both runs
    calls = []

    def fake_cocg(matvec, rhs, precondition, rtol, max_iter):
        calls.append(len(calls))
        if len(calls) % 2:
            return np.zeros_like(rhs), 5
        raise SolverError("COCG did not converge", iterations=7)

    monkeypatch.setattr(kernels, "cocg", fake_cocg)
    cfg = low_config(
        contrast={"gamma": 1.0, "s": 1.0, "t": 0.4, "omega_ratio": 0.8},
        regime="MediumVolumetricB",
        a_sequence=[0.05, 0.03, 0.02],
        tolerances={"grid_n": 8},
    )
    table = run_convergence(cfg)
    assert not table.rows and len(calls) == 6
    assert [diagnostics for _, _, diagnostics in table.aborted] == [
        {"type": "SolverError", "cond_estimate": None, "iterations": 12}] * 3


def test_write_outputs_removes_far_fields_past_the_last_row(tmp_path):
    # a rerun with fewer finished rows leaves no far field of an earlier row
    # that its error table does not have; other files are left alone
    cfg = low_config()
    table = run_convergence(cfg)
    write_outputs(table, fit_rate(table), tmp_path)
    others = ["farfield_fl.csv", "farfield_model_row.csv", "farfield_fl_row1.csv.bak",
              "farfield_sie_row2.csv"]
    for name in others:
        (tmp_path / name).write_text("kept\n")
    table.rows, table.far_fields = table.rows[:1], table.far_fields[:1]
    write_outputs(table, fit_rate(table), tmp_path)
    assert sorted(p.name for p in tmp_path.glob("farfield_*")) == sorted(
        ["farfield_fl_row0.csv", "farfield_model_row0.csv", *others])
    assert all((tmp_path / name).read_text() == "kept\n" for name in others)


def test_fit_rate_exact_power_law():
    params = ContrastParams(gamma=1.0, s=1.0, t=0.4)
    report = classify_regime(params)
    rows = [ErrorRow(a=a, m=1, n_model=1, sup_err=a**0.4, field_scale=1.0)
            for a in (1e-1, 1e-2, 1e-3, 1e-4)]
    table = ErrorTable(rows=rows, regime_report=report, aborted=[], geometry_kind="box",
                       params=params)
    fit = fit_rate(table)
    assert abs(fit.slope - 0.4) < 1e-12
    assert fit.r_squared > 1 - 1e-12


def test_fit_rate_slope_stderr_matches_polyfit_covariance(tmp_path):
    params = ContrastParams(gamma=1.0, s=1.0, t=0.4)
    a = np.array([1e-1, 5e-2, 2e-2, 1e-2, 4e-3])
    noise = np.array([0.03, -0.05, 0.04, 0.01, -0.02])
    rows = [ErrorRow(a=float(x), m=1, n_model=1, sup_err=float(x**0.6 * math.exp(e)),
                     field_scale=1.0) for x, e in zip(a, noise)]
    table = ErrorTable(rows=rows, regime_report=classify_regime(params), aborted=[],
                       geometry_kind="box", params=params)
    fit = fit_rate(table)
    (slope, _), cov = np.polyfit(np.log(a), np.log([r.sup_err for r in rows]), 1, cov=True)
    assert fit.slope == pytest.approx(slope, rel=1e-12)
    assert fit.slope_stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-10)
    assert fit.slope_stderr > 0.0
    write_outputs(table, fit, tmp_path)
    doc = json.loads((tmp_path / "rate_fit.json").read_text())
    assert doc["slope_stderr"] == fit.slope_stderr


def test_fit_rate_near_resonance_ledger():
    # (h1, lambda, t) = (0.5, 0.9, 0.2): exponents {0.5, 0.15, 0.5, 0.6, 0.3}
    params = ContrastParams(gamma=1.0, s=0.5, t=0.2, h1=0.5, l_m=-1.0, lambda_k=0.9)
    report = classify_regime(params)
    assert report.regime == "MediumNearResonance"
    rows = [ErrorRow(a=a, m=1, n_model=1, sup_err=a**0.2, field_scale=1.0)
            for a in (1e-1, 1e-2, 1e-3)]
    table = ErrorTable(rows=rows, regime_report=report, aborted=[], geometry_kind="box",
                       params=params)
    fit = fit_rate(table)
    exps = sorted(e for (_, e, _) in fit.exponent_ledger)
    assert exps == [pytest.approx(v) for v in (0.15, 0.3, 0.5, 0.5, 0.6)]
    assert fit.predicted_exponent == pytest.approx(0.15)


def test_fit_rate_surface_high_log_terms():
    params = ContrastParams(gamma=1.0, s=0.95, t=0.33, h1=0.1, l_m=1.0, lambda_k=0.9)
    report = classify_regime(params)
    rows = [ErrorRow(a=a, m=1, n_model=1, sup_err=a**0.1, field_scale=1.0)
            for a in (1e-1, 1e-2, 1e-3)]
    table = ErrorTable(rows=rows, regime_report=report, aborted=[],
                       geometry_kind="sphere_cap", params=params)
    fit = fit_rate(table)
    logs = [t for (t, _, note) in fit.exponent_ledger if "log" in note]
    assert len(logs) == 2  # the two log-carrying terms of the surface blow-up bound
    term_names = [t for (t, _, _) in fit.exponent_ledger]
    assert "(7/2)(1-s-h1)+s/2" in term_names
    assert "(s+h1-1)/2" in term_names


def test_fit_rate_skips_degenerate_tables(tmp_path):
    params = ContrastParams(gamma=1.0, s=1.0, t=0.4)
    report = classify_regime(params)
    rows = [ErrorRow(a=a, m=1, n_model=1, sup_err=0.0, field_scale=1.0)
            for a in (1e-1, 1e-2, 1e-3)]
    table = ErrorTable(rows=rows, regime_report=report, aborted=[], geometry_kind="box",
                       params=params)
    fit = fit_rate(table)
    assert math.isnan(fit.slope) and math.isnan(fit.slope_stderr)
    assert "skipped" in fit.note
    # JSON has no NaN: the skipped fit's numbers are null in rate_fit.json
    write_outputs(table, fit, tmp_path)
    doc = strict_json((tmp_path / "rate_fit.json").read_text())
    assert [doc[key] for key in ("slope", "slope_stderr", "intercept", "r_squared")] == [None] * 4
    assert doc["predicted_exponent"] == fit.predicted_exponent


def test_rotation_invariance_of_sup_err():
    # rotating geometry, incidence and grid together leaves sup_err unchanged
    from scipy.spatial.transform import Rotation

    from bubblelab import pointscat
    from bubblelab.fields import fibonacci_directions
    from bubblelab.pointscat import IncidentWave

    rng = np.random.default_rng(5)
    centers = rng.uniform(-0.4, 0.4, (25, 3))
    dirs = fibonacci_directions(64)
    theta = np.array([0.0, 0.0, 1.0])
    kappa0 = 1.3
    c = -0.05
    rot = Rotation.from_rotvec([0.3, -0.5, 1.1]).as_matrix()

    def pattern(z, th, d):
        inc = IncidentWave(kappa0, th)
        system = pointscat.assemble(z, c, kappa0)
        sol = pointscat.solve_charges(system, inc, z)
        return pointscat.far_field([sol], z, kappa0, d)[0].values

    base = pattern(centers, theta, dirs)
    turned = pattern(centers @ rot.T, rot @ theta, dirs @ rot.T)
    assert np.abs(base - turned).max() <= 1e-8 * np.abs(base).max()


def test_theta_sweep_mode():
    # sup over a grid of incidence directions dominates any single-theta run
    base = {
        "geometry": {"kind": "box", "size": [1, 1, 1],
                     "density": {"kind": "constant", "value": 0.0}},
        "bubble": {"shape": "sphere"},
        "contrast": {"gamma": 1.0, "s": 0.5, "t": 0.2, "omega_ratio": 0.8},
        "regime": "Low",
        "a_sequence": [0.02, 0.01, 0.005],
        "directions": {"n": 30, "theta_sweep": 4},
        "seed": 3,
    }
    cfg = ExperimentConfig.from_json(base)
    assert cfg.theta_sweep == 4
    swept = run_convergence(cfg)
    # compare against a single run at one member of the sweep grid: the
    # swept sup dominates it by construction
    from bubblelab.fields import fibonacci_directions

    theta0 = [float(x) for x in fibonacci_directions(4)[0]]
    single = run_convergence(ExperimentConfig.from_json(
        {**base, "directions": {"n": 30, "theta": theta0}}))
    for r_sweep, r_one in zip(swept.rows, single.rows):
        assert r_sweep.sup_err >= r_one.sup_err - 1e-12
