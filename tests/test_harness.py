import json
import math

import numpy as np
import pytest

from bubblelab.errors import ConfigError
from bubblelab.harness import (
    ErrorRow,
    ErrorTable,
    ExperimentConfig,
    build_contrast,
    fit_rate,
    run_convergence,
    write_outputs,
)
from bubblelab.materials import ContrastParams, classify_regime


def low_config(**over):
    doc = {
        "geometry": {"kind": "box", "size": [1, 1, 1],
                     "density": {"kind": "constant", "value": 0.0}},
        "bubble": {"shape": "sphere", "subdivisions": 1},
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
    params, _ = build_contrast(cfg.contrast)
    fit = fit_rate(table, params)
    write_outputs(cfg, table, fit, tmp_path)
    header = (tmp_path / "error_table.csv").read_text().splitlines()[0]
    assert header == "a,M,N,sup_err,field_scale,wall_time_s"
    report = json.loads((tmp_path / "regime_report.json").read_text())
    assert report["regime"] == "Low"
    assert any(name.startswith("low") for name, _ in report["ledger"])
    assert (tmp_path / "farfield_fl_row0.csv").exists()
    assert (tmp_path / "farfield_model_row2.csv").exists()


def test_convergence_determinism_byte_identical(tmp_path):
    cfg = low_config()
    for sub in ("one", "two"):
        table = run_convergence(cfg)
        params, _ = build_contrast(cfg.contrast)
        write_outputs(cfg, table, fit_rate(table, params), tmp_path / sub)
    a = (tmp_path / "one" / "error_table.csv").read_bytes()
    b = (tmp_path / "two" / "error_table.csv").read_bytes()
    assert a == b


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


def test_row_abort_on_cluster_cap():
    cfg = low_config(a_sequence=[0.02, 0.01, 0.005, 1e-5],
                     tolerances={"m_max": 300})
    table = run_convergence(cfg)
    assert len(table.rows) == 3
    assert len(table.aborted) == 1 and "exceeds cap" in table.aborted[0][1]
    assert table.aborted[0][2] == {"type": "ConfigError", "cond_estimate": None,
                                   "iterations": None}


def test_solver_error_row_keeps_diagnostics(tmp_path, monkeypatch):
    from bubblelab import pointscat

    # a negative contract tolerance fails every point-interaction residual check
    monkeypatch.setattr(pointscat, "RESIDUAL_TOL", -1.0)
    cfg = low_config()
    table = run_convergence(cfg)
    assert not table.rows and len(table.aborted) == 3
    params, _ = build_contrast(cfg.contrast)
    write_outputs(cfg, table, fit_rate(table, params), tmp_path)
    report = json.loads((tmp_path / "regime_report.json").read_text())
    a, reason, diagnostics = report["aborted_rows"][0]
    assert a == cfg.a_sequence[0] and reason.startswith("SolverError: ")
    assert diagnostics["type"] == "SolverError" and diagnostics["iterations"] is None
    assert diagnostics["cond_estimate"] >= 1.0


def test_fit_rate_exact_power_law():
    params = ContrastParams(gamma=1.0, s=1.0, t=0.4)
    report = classify_regime(params)
    rows = [ErrorRow(a=a, m=1, n_model=1, sup_err=a**0.4, field_scale=1.0,
                     wall_time_s=0.0) for a in (1e-1, 1e-2, 1e-3, 1e-4)]
    table = ErrorTable(rows=rows, regime_report=report, aborted=[], geometry_kind="box")
    fit = fit_rate(table, params)
    assert abs(fit.slope - 0.4) < 1e-12
    assert fit.r_squared > 1 - 1e-12


def test_fit_rate_near_resonance_ledger():
    # (h1, lambda, t) = (0.5, 0.9, 0.2): exponents {0.5, 0.15, 0.5, 0.6, 0.3}
    params = ContrastParams(gamma=1.0, s=0.5, t=0.2, h1=0.5, l_m=-1.0, lambda_k=0.9)
    report = classify_regime(params)
    assert report.regime == "MediumNearResonance"
    rows = [ErrorRow(a=a, m=1, n_model=1, sup_err=a**0.2, field_scale=1.0,
                     wall_time_s=0.0) for a in (1e-1, 1e-2, 1e-3)]
    table = ErrorTable(rows=rows, regime_report=report, aborted=[], geometry_kind="box")
    fit = fit_rate(table, params)
    exps = sorted(e for (_, e, _) in fit.exponent_ledger)
    assert exps == [pytest.approx(v) for v in (0.15, 0.3, 0.5, 0.5, 0.6)]
    assert fit.predicted_exponent == pytest.approx(0.15)


def test_fit_rate_surface_high_log_terms():
    params = ContrastParams(gamma=1.0, s=0.95, t=0.33, h1=0.1, l_m=1.0, lambda_k=0.9)
    report = classify_regime(params)
    rows = [ErrorRow(a=a, m=1, n_model=1, sup_err=a**0.1, field_scale=1.0,
                     wall_time_s=0.0) for a in (1e-1, 1e-2, 1e-3)]
    table = ErrorTable(rows=rows, regime_report=report, aborted=[],
                       geometry_kind="sphere_cap")
    fit = fit_rate(table, params)
    logs = [t for (t, _, note) in fit.exponent_ledger if "log" in note]
    assert len(logs) == 2  # the two log-carrying terms of the surface blow-up bound
    term_names = [t for (t, _, _) in fit.exponent_ledger]
    assert "(7/2)(1-s-h1)+s/2" in term_names
    assert "(s+h1-1)/2" in term_names


def test_fit_rate_skips_degenerate_tables():
    params = ContrastParams(gamma=1.0, s=1.0, t=0.4)
    report = classify_regime(params)
    rows = [ErrorRow(a=a, m=1, n_model=1, sup_err=0.0, field_scale=1.0,
                     wall_time_s=0.0) for a in (1e-1, 1e-2, 1e-3)]
    table = ErrorTable(rows=rows, regime_report=report, aborted=[], geometry_kind="box")
    fit = fit_rate(table, params)
    assert math.isnan(fit.slope)
    assert "skipped" in fit.note


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
        sol = pointscat.solve_charges(pointscat.assemble(z, c, kappa0), inc, z)
        return pointscat.far_field(sol, z, kappa0, d).values

    base = pattern(centers, theta, dirs)
    turned = pattern(centers @ rot.T, rot @ theta, dirs @ rot.T)
    assert np.abs(base - turned).max() <= 1e-8 * np.abs(base).max()


def test_theta_sweep_mode():
    # sup over a grid of incidence directions dominates any single-theta run
    base = {
        "geometry": {"kind": "box", "size": [1, 1, 1],
                     "density": {"kind": "constant", "value": 0.0}},
        "bubble": {"shape": "sphere", "subdivisions": 1},
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
