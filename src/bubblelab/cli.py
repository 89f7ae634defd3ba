"""Command-line interface: regime checks, single solves, convergence runs.

Every subcommand reads a JSON experiment config (--config PATH) and writes
CSV/JSON artifacts to --out DIR.  Exit codes: 0 success, 2 config error,
3 solver error, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bemlimit, pointscat, surfmedium, volmedium
from .cluster import build_surface, build_volumetric, save_cluster
from .errors import BubbleLabError, ConfigError
from .fields import fibonacci_directions
from .harness import (
    ExperimentConfig,
    build_bubble,
    build_contrast,
    build_density,
    build_geometry,
    comparator_mesh,
    fit_rate,
    run_convergence,
    write_outputs,
    _medium_coefficient,
    _resolve_row_params,
)
from .materials import classify_regime, omega_at_ratio
from .pointscat import IncidentWave

USAGE_EXIT = 64
CONFIG_EXIT = 2
SOLVER_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


def _load_config(path, seed_override=None, out_override=None) -> ExperimentConfig:
    if path is None:
        raise ConfigError("--config PATH is required")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path!r} not found")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path!r}: {exc}") from exc
    cfg = ExperimentConfig.from_json(doc)
    if seed_override is not None:
        cfg = replace(cfg, seed=int(seed_override))
    if out_override is not None:
        cfg = replace(cfg, out=str(out_override))
    return cfg


def _out_dir(cfg: ExperimentConfig) -> Path:
    if not cfg.out:
        raise ConfigError("an output directory is required (--out DIR or config 'out')")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _row_setup(cfg: ExperimentConfig, a: float):
    bubble = build_bubble(cfg.bubble)
    params, mode = build_contrast(cfg.contrast)
    if mode[0] == "ratio":
        params = omega_at_ratio(bubble, params, mode[1])
    row_params = _resolve_row_params(bubble, params, mode, a)
    theta = np.asarray(cfg.theta, dtype=float)
    incident = IncidentWave(row_params.kappa0, theta / np.linalg.norm(theta))
    return bubble, params, row_params, incident


def cmd_regime_check(cfg: ExperimentConfig) -> int:
    params, mode = build_contrast(cfg.contrast)
    if mode[0] == "ratio":
        params = omega_at_ratio(build_bubble(cfg.bubble), params, mode[1])
    report = classify_regime(params)
    print(json.dumps({
        "regime": report.regime,
        "s_star": report.s_star,
        "scale_of_c": report.scale_of_c,
        "ledger": [[name, ok] for name, ok in report.satisfied],
    }, indent=1))
    return 0


def cmd_cluster(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    a = cfg.a_sequence[0]
    geometry = build_geometry(cfg.geometry)
    density = build_density(cfg.geometry.get("density"))
    params, _ = build_contrast(cfg.contrast)
    d_min = float(cfg.tolerances.get("d_min", 0.5))
    if cfg.is_surface:
        cl = build_surface(geometry, density, a, params.s, params.t, seed=cfg.seed,
                           d_min=d_min)
    else:
        cl = build_volumetric(geometry, density, a, params.s, params.t, seed=cfg.seed,
                              d_min=d_min)
    save_cluster(cl, out / "cluster.json")
    from .cluster import validate

    checks = validate(cl)
    (out / "cluster_checks.json").write_text(json.dumps(
        {name: {"passed": ok, "detail": detail} for name, (ok, detail) in checks.items()},
        indent=1))
    status = "ok" if all(ok for ok, _ in checks.values()) else "CHECK FAILURES"
    print(f"cluster: M={cl.m} cells={len(cl.counts)} validation={status} "
          f"-> {out / 'cluster.json'}")
    return 0


def cmd_solve_fl(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    a = cfg.a_sequence[0]
    bubble, params, row_params, incident = _row_setup(cfg, a)
    geometry = build_geometry(cfg.geometry)
    density = build_density(cfg.geometry.get("density"))
    d_min = float(cfg.tolerances.get("d_min", 0.5))
    from .materials import scattering_coefficient

    coeff = scattering_coefficient(bubble, row_params, a)
    builder = build_surface if cfg.is_surface else build_volumetric
    cl = builder(geometry, density, a, params.s, params.t, seed=cfg.seed, d_min=d_min)
    matrix = pointscat.assemble(cl.centers, coeff.value, incident.kappa0)
    sol = pointscat.solve_charges(matrix, incident, cl.centers, contrast=row_params)
    ff = pointscat.far_field(sol, cl.centers, incident.kappa0, fibonacci_directions(cfg.directions))
    ff.save_csv(out / "farfield_fl.csv")
    meta = {"a": a, "M": cl.m, "residual": sol.residual, "cond_estimate": sol.cond_estimate,
            "min_cos_kappa_d": sol.min_cos_kappa_d,
            "coefficient": [coeff.value.real, coeff.value.imag]}
    (out / "solve_fl.json").write_text(json.dumps(meta, indent=1))
    print(f"point-interaction solve: M={cl.m} residual={sol.residual:.2e}")
    return 0


def cmd_solve_ls(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    a = cfg.a_sequence[0]
    bubble, params, row_params, incident = _row_setup(cfg, a)
    if cfg.is_surface:
        raise ConfigError("solve-ls needs a volumetric geometry")
    geometry = build_geometry(cfg.geometry)
    density = build_density(cfg.geometry.get("density"))
    report = classify_regime(params)
    grid = volmedium.VoxelGrid.cover(geometry, int(cfg.tolerances.get("grid_n", 24)))
    coeff0 = _medium_coefficient(bubble, row_params, report.regime, a)
    h_star = float(cfg.tolerances.get("h_star", 1.0))
    pot = volmedium.VolumePotential.from_density(grid, density, coeff0, h_star)
    sol = volmedium.assemble_and_solve(grid, pot, incident,
                                       direct_max=int(cfg.tolerances.get("direct_max", 4096)))
    ff = volmedium.far_field_volume(sol, pot, grid, incident.kappa0,
                                    fibonacci_directions(cfg.directions))
    ff.save_csv(out / "farfield_ls.csv")
    centers = grid.centers()
    with open(out / "ls_solution.csv", "w") as fh:
        fh.write("index,x,y,z,re,im\n")
        for i, (c, y) in enumerate(zip(centers, sol.y)):
            fh.write(f"{i},{c[0]!r},{c[1]!r},{c[2]!r},{y.real!r},{y.imag!r}\n")
    print(f"volume solve: N={grid.n_cells} residual={sol.residual:.2e} ({sol.method})")
    return 0


def cmd_solve_sie(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    a = cfg.a_sequence[0]
    bubble, params, row_params, incident = _row_setup(cfg, a)
    if not cfg.is_surface:
        raise ConfigError("solve-sie needs a surface geometry")
    density = build_density(cfg.geometry.get("density"))
    if density.kind != "constant":
        raise ConfigError("surface solves support constant density fields only")
    report = classify_regime(params)
    mesh = comparator_mesh(cfg)
    sigma = _medium_coefficient(bubble, row_params, report.regime, a) * (density.value + 1.0)
    h_star = float(cfg.tolerances.get("h_star", 1.0))
    sol = surfmedium.assemble_and_solve_surface(mesh, sigma, h_star, incident)
    ff = surfmedium.far_field_surface(sol, mesh, incident.kappa0,
                                      fibonacci_directions(cfg.directions))
    ff.save_csv(out / "farfield_sie.csv")
    with open(out / "sie_solution.csv", "w") as fh:
        fh.write("panel,x,y,z,re,im\n")
        for i, (c, y) in enumerate(zip(mesh.centroids, sol.y)):
            fh.write(f"{i},{c[0]!r},{c[1]!r},{c[2]!r},{y.real!r},{y.imag!r}\n")
    jump = surfmedium.jump_check(sol, mesh, incident)
    (out / "jump_check.json").write_text(json.dumps(
        {k: v for k, v in jump.items() if isinstance(v, float)}, indent=1))
    print(f"surface solve: panels={mesh.n_panels} residual={sol.residual:.2e}")
    return 0


def cmd_solve_bem(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    a = cfg.a_sequence[0]
    _, _, _, incident = _row_setup(cfg, a)
    mesh = comparator_mesh(cfg)
    density, ff = bemlimit.solve_dirichlet(mesh, incident, fibonacci_directions(cfg.directions))
    ff.save_csv(out / "farfield_bem.csv")
    with open(out / "bem_density.csv", "w") as fh:
        fh.write("panel,x,y,z,re,im\n")
        for i, (c, p) in enumerate(zip(mesh.centroids, density.values)):
            fh.write(f"{i},{c[0]!r},{c[1]!r},{c[2]!r},{p.real!r},{p.imag!r}\n")
    print(f"dirichlet solve: panels={mesh.n_panels}")
    return 0


def cmd_converge(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    table = run_convergence(cfg)
    params, mode = build_contrast(cfg.contrast)
    if mode[0] == "ratio":
        params = omega_at_ratio(build_bubble(cfg.bubble), params, mode[1])
    fit = fit_rate(table, params)
    write_outputs(cfg, table, fit, out)
    for row in table.rows:
        print(f"a={row.a:.6g} M={row.m} sup_err={row.sup_err:.4e} "
              f"scale={row.field_scale:.4e}")
    for a, reason, _ in table.aborted:
        print(f"a={a:.6g} aborted: {reason}")
    print(f"fit: slope={fit.slope:.3f} predicted={fit.predicted_exponent:.3f} "
          f"-> {out / 'error_table.csv'}")
    return 0


def cmd_fit(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    table_path = out / "error_table.csv"
    if not table_path.exists():
        raise ConfigError(f"{table_path} not found; run converge first")
    import csv as _csv

    from .harness import ErrorRow, ErrorTable

    params, mode = build_contrast(cfg.contrast)
    if mode[0] == "ratio":
        params = omega_at_ratio(build_bubble(cfg.bubble), params, mode[1])
    report = classify_regime(params)
    rows = []
    with open(table_path, newline="") as fh:
        reader = _csv.DictReader(fh)
        for rec in reader:
            rows.append(ErrorRow(a=float(rec["a"]), m=int(rec["M"]), n_model=int(rec["N"]),
                                 sup_err=float(rec["sup_err"]),
                                 field_scale=float(rec["field_scale"]),
                                 wall_time_s=float(rec["wall_time_s"])))
    table = ErrorTable(rows=rows, regime_report=report, aborted=[],
                       geometry_kind=cfg.geometry["kind"])
    fit = fit_rate(table, params)
    (out / "rate_fit.json").write_text(json.dumps(fit.to_json(), indent=1))
    print(json.dumps(fit.to_json(), indent=1))
    return 0


_COMMANDS = {
    "regime-check": cmd_regime_check,
    "cluster": cmd_cluster,
    "solve-fl": cmd_solve_fl,
    "solve-ls": cmd_solve_ls,
    "solve-sie": cmd_solve_sie,
    "solve-bem": cmd_solve_bem,
    "converge": cmd_converge,
    "fit": cmd_fit,
}


def cli(argv=None) -> int:
    parser = _Parser(prog="bubblelab",
                     description="bubble-cluster scattering laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=False, default=None)
        p.add_argument("--out", required=False, default=None)
        p.add_argument("--seed", required=False, default=None, type=int)
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config, seed_override=args.seed, out_override=args.out)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except BubbleLabError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return SOLVER_EXIT


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
