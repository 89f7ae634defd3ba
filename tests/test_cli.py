import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from bubblelab import kernels
from bubblelab.cli import _load_config, cli
from bubblelab.harness import ExperimentConfig, RunSetup, build_bubble, prepare
from bubblelab.kernels import min_cos_kappa_distance

from oracles import strict_json

BASE = {
    "geometry": {"kind": "box", "size": [1, 1, 1],
                 "density": {"kind": "constant", "value": 0.0}},
    "bubble": {"shape": "sphere"},
    "contrast": {"gamma": 1.0, "s": 0.5, "t": 0.2, "omega_ratio": 0.8},
    "regime": "Low",
    "a_sequence": [0.02, 0.01, 0.005],
    "directions": 30,
    "seed": 1,
}


def load_values(path, index_name, rows):
    """The (index, x, y, z, re, im) table a solve command writes, checked."""
    assert path.read_text().splitlines()[0] == f"{index_name},x,y,z,re,im"
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert table.shape == (rows, 6)
    assert np.array_equal(table[:, 0], np.arange(rows))
    assert np.all(np.isfinite(table))
    return table


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    return path


def test_missing_config_exits_2(tmp_path, capsys):
    assert cli(["regime-check"]) == 2
    assert cli(["converge", "--config", "/nonexistent/file.json"]) == 2
    assert cli(["converge", "--config", str(tmp_path)]) == 2  # a directory
    assert "Traceback" not in capsys.readouterr().err


def test_unknown_flag_exits_64():
    with pytest.raises(SystemExit) as exc:
        cli(["converge", "--config", "x.json", "--bogus"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        cli(["no-such-command"])
    assert exc.value.code == 64


def test_regime_check_prints_ledger(config_path, capsys):
    assert cli(["regime-check", "--config", str(config_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "Low"
    assert any(name.startswith("base") for name, _ in doc["ledger"])


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ("{not json", "null", "[1]"):
        bad.write_text(text)
        assert cli(["regime-check", "--config", str(bad)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_converge_writes_outputs(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli(["converge", "--config", str(config_path), "--out", str(out)]) == 0
    table = (out / "error_table.csv").read_text().splitlines()
    assert table[0] == "a,M,N,sup_err,field_scale"
    assert len(table) == 4
    assert (out / "rate_fit.json").exists()
    assert (out / "regime_report.json").exists()


def test_converge_deterministic_via_subprocess(config_path, tmp_path):
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        res = subprocess.run(
            [sys.executable, "-m", "bubblelab.cli", "converge",
             "--config", str(config_path), "--out", str(out), "--seed", "7"],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs.append((out / "error_table.csv").read_bytes())
    assert outs[0] == outs[1]


def _limit_address_space():
    import resource

    limit = 16 * 2**30  # far below the last row's 43 GiB matrix, far above the run's needs
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


# runs the CLI with the dense budget raised past any matrix, so the OS is what refuses it
_UNBUDGETED_CLI = ("from bubblelab import kernels; kernels.DENSE_MAX_BYTES = 1 << 62; "
                   "from bubblelab.cli import main; main()")


def test_refused_dense_allocation_aborts_its_row(tmp_path):
    # the last row's K = 1 cluster (two centres a cell, so solved densely)
    # has M = 2 * 30^3 = 54,000 centres (pitch a^(1/6)), whose kernel matrix
    # would need 16 M^2 bytes (43 GiB): with the budget raised, under an
    # address-space limit numpy cannot allocate it, so the row aborts with
    # the estimate and the run writes the two rows it finished
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE, **K1_LOW, "a_sequence": [0.02, 0.01, 1.4e-9]}))
    out = tmp_path / "run"
    res = subprocess.run(
        [sys.executable, "-c", _UNBUDGETED_CLI, "converge", "--config", str(path),
         "--out", str(out)],
        capture_output=True, text=True, preexec_fn=_limit_address_space)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert len((out / "error_table.csv").read_text().splitlines()) == 3
    report = json.loads((out / "regime_report.json").read_text())
    [[a, reason, diagnostics]] = report["aborted_rows"]
    assert a == 1.4e-9 and reason.startswith("AllocationError: ")
    assert diagnostics == {"type": "AllocationError", "cond_estimate": None,
                           "iterations": None, "bytes": 16 * 54000**2}
    assert "could not be allocated" in reason


def test_cluster_and_solve_fl(config_path, tmp_path, capsys):
    out = tmp_path / "c"
    assert cli(["cluster", "--config", str(config_path), "--out", str(out)]) == 0
    doc = json.loads((out / "cluster.json").read_text())
    assert doc["kind"] == "volumetric" and len(doc["centers"]) > 0
    assert cli(["solve-fl", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "farfield_fl.csv").exists()
    meta = json.loads((out / "solve_fl.json").read_text())
    assert meta["residual"] <= 1e-10 * 10
    # a K = 0 box is solved on its lattice: COCG matvecs, no condition estimate
    assert meta["cond_estimate"] is None and meta["iterations"] > 0
    # the invertibility diagnostic of the cluster written above, at its kappa0
    kappa0 = prepare(_load_config(str(config_path))).row_params(meta["a"]).kappa0
    assert -1.0 <= meta["min_cos_kappa_d"] <= 1.0
    assert meta["min_cos_kappa_d"] == min_cos_kappa_distance(doc["centers"], kappa0)


def test_solve_ls_and_fit(config_path, tmp_path, capsys):
    cfg = dict(BASE)
    cfg["contrast"] = {"gamma": 1.0, "s": 1.0, "t": 0.4, "omega_ratio": 0.8}
    cfg["regime"] = "MediumVolumetricB"
    cfg["a_sequence"] = [0.05, 0.03, 0.02]
    cfg["tolerances"] = {"grid_n": 8}
    path = tmp_path / "med.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "med"
    assert cli(["solve-ls", "--config", str(path), "--out", str(out)]) == 0
    assert re.search(r"volume solve: N=512 iterations=[1-9]\d* residual=",
                     capsys.readouterr().out)
    assert (out / "farfield_ls.csv").exists()
    table = load_values(out / "ls_solution.csv", "index", 8**3)
    assert np.abs(table[:, 1:4]).max() < 0.5  # cell centres inside the unit box
    assert cli(["converge", "--config", str(path), "--out", str(out)]) == 0
    assert cli(["fit", "--config", str(path), "--out", str(out)]) == 0
    fit = json.loads((out / "rate_fit.json").read_text())
    assert "exponent_ledger" in fit and fit["r_squared"] >= 0.0
    # two rows are too few to fit: the skipped fit is still JSON, with nulls
    table = out / "error_table.csv"
    table.write_text("".join(table.read_text().splitlines(keepends=True)[:3]))
    assert cli(["fit", "--config", str(path), "--out", str(out)]) == 0
    fit = strict_json((out / "rate_fit.json").read_text())
    assert fit["slope"] is None and fit["r_squared"] is None and "skipped" in fit["note"]


def test_solve_sie_and_bem(tmp_path):
    cfg = dict(BASE)
    cfg["geometry"] = {"kind": "sphere_cap", "radius": 1.0, "theta_max": 0.7853981633974483,
                       "density": {"kind": "constant", "value": 0.0}}
    cfg["contrast"] = {"gamma": 1.0, "s": 1.0, "t": 0.45, "omega_ratio": 0.6}
    cfg["regime"] = "MediumVolumetricB"
    cfg["a_sequence"] = [0.05, 0.03, 0.02]
    cfg["tolerances"] = {"d_min": 0.3, "mesh_rings": 6, "mesh_nphi": 16}
    path = tmp_path / "sur.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "sur"
    assert cli(["solve-sie", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "farfield_sie.csv").exists()
    assert set(json.loads((out / "jump_check.json").read_text())) == {
        "value_jump_rel", "deriv_defect_rel", "deriv_defect_rel_flipped"}
    panels = 16 * 6  # pole fan plus five quad rings
    sie = load_values(out / "sie_solution.csv", "panel", panels)
    assert cli(["solve-bem", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "farfield_bem.csv").exists()
    bem = load_values(out / "bem_density.csv", "panel", panels)
    assert np.array_equal(sie[:, 1:4], bem[:, 1:4])  # both at the panel centroids


@pytest.mark.parametrize("command", ["cluster", "converge"])
def test_two_dimensional_grid_density_exits_2(tmp_path, capsys, command):
    density = {"kind": "grid", "origin": [0, 0], "spacing": [1, 1],
               "samples": [[0.0, 1.0], [1.0, 2.0]]}
    path = _write_config(tmp_path, "grid2d", geometry={**BASE["geometry"], "density": density})
    assert cli([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "3d samples" in capsys.readouterr().err


def test_solve_ls_rejects_surface_geometry(tmp_path):
    cfg = dict(BASE)
    cfg["geometry"] = {"kind": "plane_rect", "lx": 1.0, "ly": 1.0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert cli(["solve-ls", "--config", str(path)]) == 2


def _write_config(tmp_path, name, **over):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**BASE, **over}))
    return path


MEDIUM_BOX = {
    "contrast": {"gamma": 1.0, "s": 1.0, "t": 0.4, "omega_ratio": 0.8},
    "regime": "MediumVolumetricB",
    "a_sequence": [0.05, 0.03, 0.02],
    "tolerances": {"grid_n": 8},
}


CAP = {"geometry": {"kind": "sphere_cap", "radius": 1.0, "theta_max": 0.7853981633974483},
       "a_sequence": [0.05, 0.03, 0.02]}
MEDIUM_CAP = {**CAP, "contrast": {"gamma": 1.0, "s": 1.0, "t": 0.45, "omega_ratio": 0.6},
              "regime": "MediumVolumetricB",
              "tolerances": {"d_min": 0.3, "mesh_rings": 6, "mesh_nphi": 16}}
HIGH_CAP = {**CAP, "contrast": {"gamma": 1.0, "s": 0.95, "t": 0.33, "h1": 0.1, "l_m": 0.01,
                                "lambda_k": 0.9},
            "regime": "High", "tolerances": {"d_min": 0.1, "mesh_rings": 6, "mesh_nphi": 16}}
# panel meshes of one sector, whose panel systems go dense: a 64-panel
# rectangle screen and a 320-panel icosphere
MEDIUM_RECT = {**MEDIUM_CAP, "geometry": {"kind": "plane_rect", "lx": 1.0, "ly": 1.0},
               "tolerances": {"d_min": 0.3, "mesh_n": 8}}
HIGH_BALL = {**HIGH_CAP, "geometry": {"kind": "ball", "radius": 0.5},
             "tolerances": {"mesh_level": 2}}


def test_solve_commands_match_converge_first_row(tmp_path):
    # each solve runs the same set-up and solve as converge's first row
    for name, over, tags in [("med", MEDIUM_BOX, ("fl", "ls")), ("cap", MEDIUM_CAP, ("sie",)),
                             ("high", HIGH_CAP, ("bem",))]:
        path = _write_config(tmp_path, name, **over)
        conv, single = tmp_path / f"{name}_conv", tmp_path / name
        assert cli(["converge", "--config", str(path), "--out", str(conv)]) == 0
        for tag in tags:
            assert cli([f"solve-{tag}", "--config", str(path), "--out", str(single)]) == 0
            row0 = "farfield_fl_row0.csv" if tag == "fl" else "farfield_model_row0.csv"
            assert ((single / f"farfield_{tag}.csv").read_bytes()
                    == (conv / row0).read_bytes()), tag


# a K = 1 Low box: its rows hold M = 16, 54 and 250 centres, two per cell
K1_LOW = {"geometry": {"kind": "box", "size": [1, 1, 1],
                       "density": {"kind": "constant", "value": 1.0}},
          "a_sequence": [0.02, 0.001, 1e-4], "tolerances": {"d_min": 0.1}}


def _dense_sizes(path):
    """The cluster size M of each row and the panel count N of the comparator
    (None without panels) of the config at ``path``."""
    run = prepare(_load_config(path))
    n = run.mesh.n_panels if run.comparator in ("surface", "dirichlet") else None
    return [run.cluster(a).m for a in run.config.a_sequence], n


@pytest.mark.parametrize("name, over", [("point", K1_LOW), ("surface", MEDIUM_RECT),
                                        ("dirichlet", HIGH_BALL)])
def test_over_budget_dense_system_aborts_its_rows(tmp_path, monkeypatch, name, over):
    # the point case's budget is exactly its second system, so only its last
    # row aborts; the panel cases' budget admits every point system but not
    # the run's one panel system (N panels), so each of their rows aborts
    path = _write_config(tmp_path, name, **over)
    ms, n = _dense_sizes(path)
    a_seq = over["a_sequence"]
    if n is None:
        budget, refused = 16 * ms[1] ** 2, {a_seq[2]: ms[2]}
    else:
        budget, refused = 16 * max(ms) ** 2, dict.fromkeys(a_seq, n)
    monkeypatch.setattr(kernels, "DENSE_MAX_BYTES", budget)
    # a row solves its comparator first: a refused panel system stops the
    # row before its cluster is built
    built, cluster = [], RunSetup.cluster
    monkeypatch.setattr(RunSetup, "cluster", lambda run, a: built.append(a) or cluster(run, a))
    out = tmp_path / "run"
    assert cli(["converge", "--config", str(path), "--out", str(out)]) == 0
    assert built == (a_seq if n is None else [])
    rows = (out / "error_table.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[1]) for row in rows] == [
        m for a, m in zip(a_seq, ms) if a not in refused]
    aborted = json.loads((out / "regime_report.json").read_text())["aborted_rows"]
    assert [(a, diagnostics) for a, _, diagnostics in aborted] == [
        (a, {"type": "AllocationError", "cond_estimate": None, "iterations": None,
             "bytes": 16 * size**2}) for a, size in refused.items()]
    assert all("over the dense budget" in reason for _, reason, _ in aborted)


def test_solve_fl_enforces_cluster_cap(tmp_path, monkeypatch):
    # the first row's M = 16 system needs 4096 bytes, one over the budget
    path = _write_config(tmp_path, "capped", **K1_LOW)
    monkeypatch.setattr(kernels, "DENSE_MAX_BYTES", 16 * 16**2 - 1)
    out = tmp_path / "capped"
    assert cli(["solve-fl", "--config", str(path), "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("command, over", [("solve-sie", MEDIUM_RECT), ("solve-bem", HIGH_BALL)])
def test_over_budget_panel_solve_exits_3(tmp_path, monkeypatch, capsys, command, over):
    path = _write_config(tmp_path, "capped", **over)
    _, n = _dense_sizes(path)
    monkeypatch.setattr(kernels, "DENSE_MAX_BYTES", 16 * n * n - 1)
    out = tmp_path / "capped"
    assert cli([command, "--config", str(path), "--out", str(out)]) == 3
    assert "over the dense budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, over", [("surface", MEDIUM_CAP), ("dirichlet", HIGH_CAP)])
def test_cap_converge_solves_under_a_budget_below_its_dense_matrix(tmp_path, monkeypatch,
                                                                    name, over):
    # a cap's panel system is its (N, N/P) sector-0 columns, never the (N, N)
    # matrix, so a budget one byte short of that matrix admits every row
    path = _write_config(tmp_path, name, **over)
    ms, n = _dense_sizes(path)
    assert max(ms) < n  # the point systems fit too
    monkeypatch.setattr(kernels, "DENSE_MAX_BYTES", 16 * n * n - 1)
    out = tmp_path / "run"
    assert cli(["converge", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "regime_report.json").read_text())["aborted_rows"] == []
    assert len((out / "error_table.csv").read_text().splitlines()) == 1 + len(ms)


@pytest.mark.parametrize("command", ["cluster", "solve-fl", "solve-ls", "solve-sie", "solve-bem",
                                     "converge", "fit"])
def test_config_errors_leave_no_output_directory(tmp_path, command):
    # every command checks its inputs before it creates --out; fit only reads
    path = _write_config(tmp_path, "bad", bubble={"shape": "cube", "n": 0})
    out = tmp_path / "out"
    assert cli([command, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


# m_max is no key: the dense budget is the constant kernels.DENSE_MAX_BYTES
@pytest.mark.parametrize("tolerances", [{"grid_N": 8}, {"h_star": 2.0}, {"direct_max": 1},
                                        {"record_wall_time": 1}, {"m_max": 4096}])
def test_unknown_tolerance_keys_exit_2(tmp_path, capsys, tolerances):
    path = _write_config(tmp_path, "typo", tolerances=tolerances)
    assert cli(["converge", "--config", str(path), "--out", str(tmp_path / "typo")]) == 2
    assert next(iter(tolerances)) in capsys.readouterr().err


def test_unknown_directions_key_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, "typo", directions={"n": 50, "theta_sweeep": 3})
    assert cli(["converge", "--config", str(path), "--out", str(tmp_path / "typo")]) == 2
    assert "theta_sweeep" in capsys.readouterr().err
    assert not (tmp_path / "typo" / "error_table.csv").exists()


@pytest.mark.parametrize("theta", [[0, 0, 0], [float("inf"), 0, 1], [0, 1], "up"],
                         ids=["zero", "infinite", "two_entries", "text"])
def test_bad_theta_exits_2(tmp_path, capsys, theta):
    path = _write_config(tmp_path, "theta", directions={"n": 50, "theta": theta})
    assert cli(["converge", "--config", str(path), "--out", str(tmp_path / "theta")]) == 2
    assert "'theta' must be a finite non-zero 3-vector" in capsys.readouterr().err
    assert not (tmp_path / "theta" / "error_table.csv").exists()


def _density(**over):
    return {"geometry": {"kind": "box", "density": over}}


GRID = {"kind": "grid", "origin": [0, 0, 0], "spacing": [1, 1, 1], "samples": [[[0.0]]]}
# (id, config override, what the error must name): one malformed value per key
MALFORMED = [
    ("directions", {"directions": "abc"}, "directions"),
    ("theta_sweep", {"directions": {"n": 50, "theta_sweep": "many"}}, "theta_sweep"),
    ("seed", {"seed": "x"}, "seed"),
    ("a_entry", {"a_sequence": [0.02, "half", 0.005]}, "a_sequence"),
    ("a_scalar", {"a_sequence": 0.02}, "a_sequence"),
    ("d_min", {"tolerances": {"d_min": "x"}}, "tolerance 'd_min'"),
    ("grid_n", {"tolerances": {"grid_n": [8]}}, "tolerance 'grid_n'"),
    ("mesh_level", {"tolerances": {"mesh_level": "x"}}, "tolerance 'mesh_level'"),
    ("mesh_n", {"tolerances": {"mesh_n": "x"}}, "tolerance 'mesh_n'"),
    ("mesh_rings", {"tolerances": {"mesh_rings": "x"}}, "tolerance 'mesh_rings'"),
    ("mesh_nphi", {"tolerances": {"mesh_nphi": "x"}}, "tolerance 'mesh_nphi'"),
    ("tolerances", {"tolerances": [8]}, "tolerance must be an object"),
    ("directions_n", {"directions": {"n": "many"}}, "directions 'n'"),
    ("theta", {"directions": {"theta": "up"}}, "directions 'theta'"),
    ("regime", {"regime": "Lo"}, "config 'regime'"),
    ("geometry", {"geometry": [1]}, "geometry must be an object"),
    ("box_size", {"geometry": {"kind": "box", "size": "abc"}}, "box geometry 'size'"),
    ("box_size_2d", {"geometry": {"kind": "box", "size": [1, 1]}}, "box geometry 'size'"),
    ("box_center", {"geometry": {"kind": "box", "center": [0, "x", 0]}},
     "box geometry 'center'"),
    ("ball_radius", {"geometry": {"kind": "ball", "radius": "wide"}}, "ball geometry 'radius'"),
    ("ball_center", {"geometry": {"kind": "ball", "center": 0}}, "ball geometry 'center'"),
    ("cap_radius", {"geometry": {"kind": "sphere_cap", "radius": "x"}},
     "sphere_cap geometry 'radius'"),
    ("cap_theta_max", {"geometry": {"kind": "sphere_cap", "theta_max": "x"}},
     "sphere_cap geometry 'theta_max'"),
    ("plane_lx", {"geometry": {"kind": "plane_rect", "lx": "x"}}, "plane_rect geometry 'lx'"),
    ("plane_ly", {"geometry": {"kind": "plane_rect", "ly": None}}, "plane_rect geometry 'ly'"),
    ("density", {"geometry": {"kind": "box", "density": 0.5}}, "density must be an object"),
    ("density_value", _density(value="x"), "constant density 'value'"),
    ("density_k_max", _density(value=1, k_max="x"), "constant density 'k_max'"),
    ("grid_no_origin", _density(**{**GRID, "origin": None}), "grid density 'origin'"),
    ("grid_missing_origin", _density(kind="grid", spacing=[1, 1, 1], samples=[[[0.0]]]),
     "missing grid density key 'origin'"),
    ("grid_spacing", _density(**{**GRID, "spacing": [1, 1]}), "grid density 'spacing'"),
    ("grid_samples", _density(**{**GRID, "samples": [[0], [0, 1]]}), "grid density 'samples'"),
    ("grid_k_max", _density(**GRID, k_max="x"), "grid density 'k_max'"),
    ("sphere_radius", {"bubble": {"radius": "x"}}, "sphere bubble 'radius'"),
    ("cube_n", {"bubble": {"shape": "cube", "n": "x"}}, "cube bubble 'n'"),
    ("cube_side", {"bubble": {"shape": "cube", "side": "x"}}, "cube bubble 'side'"),
    ("mesh_no_path", {"bubble": {"shape": "mesh"}}, "missing mesh bubble key 'path'"),
    ("mesh_path", {"bubble": {"shape": "mesh", "path": 5}}, "mesh bubble 'path'"),
    ("mesh_missing_file", {"bubble": {"shape": "mesh", "path": "no/such/bubble.msh"}},
     "no/such/bubble.msh"),
    ("contrast", {"contrast": "fast"}, "contrast must be an object"),
    *[(f"contrast_{key}", {"contrast": {**BASE["contrast"], key: "x"}}, f"contrast {key!r}")
      for key in ("rho0", "k0", "c_rho", "gamma", "tau", "s", "t", "h1", "l_m", "lambda_k",
                  "l0", "omega", "omega_ratio")],
    # JSON reads NaN and Infinity as floats
    ("nan_omega_ratio", {"contrast": {**BASE["contrast"], "omega_ratio": math.nan}},
     "contrast 'omega_ratio'"),
    ("infinite_rho0", {"contrast": {**BASE["contrast"], "rho0": math.inf}}, "contrast 'rho0'"),
    ("nan_d_min", {"tolerances": {"d_min": math.nan}}, "tolerance 'd_min'"),
    ("nan_a_entry", {"a_sequence": [0.004, math.nan, 0.001]}, "a_sequence"),
    ("infinite_box_size", {"geometry": {"kind": "box", "size": [math.inf, 1, 1]}},
     "box geometry 'size'"),
]


@pytest.mark.parametrize("over, name", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
@pytest.mark.parametrize("command", ["regime-check", "cluster", "converge"])
def test_non_numeric_config_values_exit_2(tmp_path, capsys, over, name, command):
    path = _write_config(tmp_path, "nan", **over)
    assert cli([command, "--config", str(path), "--out", str(tmp_path / "nan")]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "nan").exists()


# (id, config override, what the error must name): one length or angle out of range per key
OUT_OF_RANGE = [
    ("zero_d_min", {"tolerances": {"d_min": 0}}, "tolerance 'd_min'"),
    ("negative_d_min", {"tolerances": {"d_min": -1}}, "tolerance 'd_min'"),
    ("zero_box_size", {"geometry": {"kind": "box", "size": [1, 0, 1]}}, "box geometry 'size'"),
    ("negative_box_size", {"geometry": {"kind": "box", "size": [1, 1, -2]}},
     "box geometry 'size'"),
    ("ball_radius", {"geometry": {"kind": "ball", "radius": -0.5}}, "ball geometry 'radius'"),
    ("cap_radius", {"geometry": {"kind": "sphere_cap", "radius": 0}},
     "sphere_cap geometry 'radius'"),
    ("plane_lx", {"geometry": {"kind": "plane_rect", "lx": 0}}, "plane_rect geometry 'lx'"),
    ("plane_ly", {"geometry": {"kind": "plane_rect", "ly": -1}}, "plane_rect geometry 'ly'"),
    ("sphere_radius", {"bubble": {"radius": 0}}, "sphere bubble 'radius'"),
    ("cube_side", {"bubble": {"shape": "cube", "side": -1}}, "cube bubble 'side'"),
    ("cap_theta_max_large", {"geometry": {"kind": "sphere_cap", "theta_max": 4.0}},
     "sphere_cap geometry 'theta_max'"),
    ("cap_theta_max_zero", {"geometry": {"kind": "sphere_cap", "theta_max": 0}},
     "sphere_cap geometry 'theta_max'"),
]


@pytest.mark.parametrize("over, name", [case[1:] for case in OUT_OF_RANGE],
                         ids=[case[0] for case in OUT_OF_RANGE])
@pytest.mark.parametrize("command", ["regime-check", "cluster", "converge"])
def test_out_of_range_lengths_and_angles_exit_2(tmp_path, capsys, over, name, command):
    path = _write_config(tmp_path, "range", **over)
    assert cli([command, "--config", str(path), "--out", str(tmp_path / "range")]) == 2
    err = capsys.readouterr().err
    assert name in err and "must be" in err and "Traceback" not in err
    assert not (tmp_path / "range").exists()


def test_theta_max_of_a_hemisphere_and_a_full_sphere_load():
    for theta_max in (math.pi / 2, math.pi):
        doc = {**BASE, "geometry": {"kind": "sphere_cap", "theta_max": theta_max}}
        assert ExperimentConfig.from_json(doc).geometry["theta_max"] == theta_max


@pytest.mark.parametrize("over, name", [
    ({"tolerances": {"grid_n": 8.7}}, "tolerance 'grid_n'"),
    ({"tolerances": {"mesh_level": 2.5}}, "tolerance 'mesh_level'"),
    ({"directions": {"n": 20.5}}, "directions"),
    ({"directions": {"n": 50, "theta_sweep": 2.5}}, "theta_sweep"),
    ({"seed": 1.5}, "seed"),
    ({"bubble": {"shape": "cube", "n": 6.5}}, "bubble 'n'"),
    ({"directions": {"n": 50, "theta_sweep": -3}}, "theta_sweep"),
    ({"directions": 0}, "directions"),
    ({"seed": -1}, "seed"),
    ({"tolerances": {"grid_n": 0}}, "tolerance 'grid_n'"),
    ({"tolerances": {"mesh_n": 0}}, "tolerance 'mesh_n'"),
    ({"tolerances": {"mesh_rings": 0}}, "tolerance 'mesh_rings'"),
    ({"tolerances": {"mesh_nphi": -2}}, "tolerance 'mesh_nphi'"),
    # a cap of 2 sectors has coincident panel centroids, and one of 1 degenerate panels
    ({"tolerances": {"mesh_nphi": 2}}, "tolerance 'mesh_nphi'"),
    ({"tolerances": {"mesh_level": -1}}, "tolerance 'mesh_level'"),
    ({"bubble": {"shape": "cube", "n": 0}}, "bubble 'n'"),
], ids=["grid_n", "mesh_level", "directions", "theta_sweep", "seed", "cube_n",
        "negative_theta_sweep", "zero_directions", "negative_seed",
        "zero_grid_n", "zero_mesh_n", "zero_mesh_rings", "negative_mesh_nphi",
        "two_mesh_nphi", "negative_mesh_level", "zero_cube_n"])
@pytest.mark.parametrize("command", ["regime-check", "converge"])
def test_non_integral_or_out_of_range_integers_exit_2(tmp_path, capsys, over, name, command):
    # int() would truncate 8.7 to 8 and a negative sweep would mean none
    path = _write_config(tmp_path, "int", **over)
    assert cli([command, "--config", str(path), "--out", str(tmp_path / "int")]) == 2
    err = capsys.readouterr().err
    assert name in err and "must be an integer >=" in err
    assert not (tmp_path / "int").exists()


def test_seed_flag_and_out_key_are_checked(config_path, tmp_path, capsys):
    # --seed and --out replace the config's keys and are converted like them
    out = tmp_path / "seed"
    assert cli(["cluster", "--config", str(config_path), "--out", str(out), "--seed", "-1"]) == 2
    assert "'seed' must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()
    assert cli(["cluster", "--config", str(_write_config(tmp_path, "out", out=5))]) == 2
    assert "config 'out' must be a path" in capsys.readouterr().err


def test_whole_number_floats_load_as_integers(tmp_path):
    path = _write_config(tmp_path, "whole", directions={"n": 30.0, "theta_sweep": 2.0},
                         seed=1.0, tolerances={"grid_n": 24.0, "mesh_n": 6.0,
                                               "mesh_level": 0.0},
                         bubble={"shape": "cube", "n": 2.0})
    cfg = _load_config(path)
    assert (cfg.directions, cfg.theta_sweep, cfg.seed) == (30, 2, 1)
    tolerances = {key: cfg.tolerances[key] for key in ("grid_n", "mesh_n", "mesh_level")}
    assert tolerances == {"grid_n": 24, "mesh_n": 6, "mesh_level": 0}
    assert cfg.bubble == {"shape": "cube", "n": 2}
    assert all(type(v) is int for v in (cfg.directions, cfg.theta_sweep, cfg.seed,
                                        *tolerances.values(), cfg.bubble["n"]))
    cube = build_bubble(cfg.bubble)
    assert cube.volume == build_bubble({"shape": "cube", "n": 2}).volume


@pytest.mark.parametrize("section, doc, bad_key", [
    ("geometry", {"kind": "ball", "radus": 2.0}, "radus"),
    ("geometry", {"kind": "box", "size": [1, 1, 1], "centre": [0, 0, 0]}, "centre"),
    ("geometry", {"kind": "box", "density": {"kind": "constant", "valeu": 3.0}}, "valeu"),
    ("geometry", {"kind": "box", "density": {"kind": "constant", "value": 0.0,
                                             "lambda_k": 0.9}}, "lambda_k"),
    ("bubble", {"shape": "sphere", "radus": 5}, "radus"),
    ("bubble", {"shape": "cube", "sides": 2.0}, "sides"),
    ("bubble", {"shape": "sphere", "subdivisions": 2}, "subdivisions"),
], ids=["ball", "box", "density", "density_lambda_k", "sphere_bubble", "cube_bubble",
        "sphere_subdivisions"])
def test_unknown_geometry_and_bubble_keys_exit_2(tmp_path, capsys, section, doc, bad_key):
    path = _write_config(tmp_path, "typo", **{section: doc})
    assert cli(["converge", "--config", str(path), "--out", str(tmp_path / "typo")]) == 2
    assert bad_key in capsys.readouterr().err
    assert cli(["regime-check", "--config", str(path)]) == 2
    assert bad_key in capsys.readouterr().err


def test_solve_ls_checks_config_regime(tmp_path):
    path = _write_config(tmp_path, "wrong", **{**MEDIUM_BOX, "regime": "Low"})
    out = tmp_path / "wrong"
    assert cli(["solve-ls", "--config", str(path), "--out", str(out)]) == 2
    assert not (out / "farfield_ls.csv").exists()


def test_solve_ls_rejects_low_config(tmp_path, capsys):
    # a Low run compares against the zero field, which converge writes
    out = tmp_path / "low"
    path = _write_config(tmp_path, "low")
    assert cli(["solve-ls", "--config", str(path), "--out", str(out)]) == 2
    assert "'zero'" in capsys.readouterr().err
    assert not (out / "farfield_ls.csv").exists()


def test_solve_sie_rejects_high_config(tmp_path, capsys):
    # a High run compares against the Dirichlet limit (solve-bem), not the surface density
    geometry = {"kind": "sphere_cap", "radius": 1.0, "theta_max": 0.7853981633974483}
    contrast = {"gamma": 1.0, "s": 0.95, "t": 0.33, "h1": 0.1, "l_m": 0.01, "lambda_k": 0.9}
    path = _write_config(tmp_path, "high", geometry=geometry, contrast=contrast, regime="High",
                         tolerances={"mesh_rings": 4, "mesh_nphi": 12})
    out = tmp_path / "high"
    assert cli(["solve-sie", "--config", str(path), "--out", str(out)]) == 2
    assert "'dirichlet'" in capsys.readouterr().err
    assert not (out / "farfield_sie.csv").exists()
