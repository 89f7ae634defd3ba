"""Command-line interface: regime checks, single solves, convergence runs.

Every subcommand reads a JSON experiment config (--config PATH) and writes
CSV/JSON artifacts to --out DIR.  Exit codes: 0 success, 2 config error,
3 solver error, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pointscat, surfmedium
from .cluster import save_cluster, validate
from .errors import BubbleLabError, ConfigError
from .harness import (
    ErrorTable,
    ExperimentConfig,
    build_bubble,
    fit_rate,
    prepare,
    regime_summary,
    resolve_contrast,
    run_convergence,
    write_outputs,
)
from .kernels import min_cos_kappa_distance
from .materials import classify_regime
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
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed JSON in {path!r}: {exc}") from exc
    if isinstance(doc, dict):  # the flags override the config's keys and convert like them
        overrides = {"seed": seed_override, "out": out_override}
        doc.update((key, value) for key, value in overrides.items() if value is not None)
    return ExperimentConfig.from_json(doc)


def _out_dir(cfg: ExperimentConfig) -> Path:
    """The output directory the config names.  It is not created here: a
    command makes it just before its first write, so a run that fails on its
    inputs or its solve leaves nothing behind."""
    if not cfg.out:
        raise ConfigError("an output directory is required (--out DIR or config 'out')")
    return Path(cfg.out)


def _first_row(cfg: ExperimentConfig, model=None):
    """Run set-up, first radius scale, its parameters and the incident wave.

    Raises ConfigError when ``model`` is named but is neither the config's
    comparator nor the Dirichlet limit (which every geometry has), so a single
    solve never writes a medium model that ``converge`` does not run.
    """
    run = prepare(cfg)
    if model not in (None, "dirichlet", run.comparator):
        raise ConfigError(f"this {run.report.regime} config compares against the "
                          f"{run.comparator!r} model, not {model!r}")
    a = cfg.a_sequence[0]
    row_params = run.row_params(a)
    return run, a, row_params, IncidentWave(row_params.kappa0, run.theta)


def _write_values(path, index_name, points, values):
    """One CSV row (index, x, y, z, re, im) per point and complex value."""
    with open(path, "w") as fh:
        fh.write(f"{index_name},x,y,z,re,im\n")
        for i, (c, v) in enumerate(zip(points, values)):
            cells = (c[0], c[1], c[2], v.real, v.imag)  # NumPy scalars repr as np.float64(..)
            fh.write(f"{i}," + ",".join(repr(float(x)) for x in cells) + "\n")


def cmd_regime_check(cfg: ExperimentConfig) -> int:
    params = resolve_contrast(cfg, build_bubble(cfg.bubble))
    print(json.dumps(regime_summary(classify_regime(params)), indent=1))
    return 0


def cmd_cluster(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    cl = prepare(cfg).cluster(cfg.a_sequence[0])
    out.mkdir(parents=True, exist_ok=True)
    save_cluster(cl, out / "cluster.json")
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
    run, a, row_params, incident = _first_row(cfg)
    cl, coeff, [sol] = run.solve_points(a, row_params, [incident])
    [ff] = pointscat.far_field([sol], cl.centers, incident.kappa0, run.directions)
    out.mkdir(parents=True, exist_ok=True)
    ff.save_csv(out / "farfield_fl.csv")
    meta = {"a": a, "M": cl.m, "residual": sol.residual, "cond_estimate": sol.cond_estimate,
            "iterations": sol.iterations,
            "min_cos_kappa_d": min_cos_kappa_distance(cl.centers, incident.kappa0),
            "coefficient": [coeff.real, coeff.imag]}
    (out / "solve_fl.json").write_text(json.dumps(meta, indent=1))
    print(f"point-interaction solve: M={cl.m} residual={sol.residual:.2e}")
    return 0


def _solve_model(cfg: ExperimentConfig, model: str, tag: str, values_file: str) -> int:
    """Solve the first row's ``model`` as ``converge`` does; write its far field,
    the values at its points and, for the surface model, the jump check."""
    out = _out_dir(cfg)
    run, a, row_params, incident = _first_row(cfg, model)
    [(ff, values, record)] = run.solve_model(model, row_params, a, [incident])
    points = run.model_points(model)
    out.mkdir(parents=True, exist_ok=True)
    ff.save_csv(out / f"farfield_{tag}.csv")
    _write_values(out / values_file, "index" if model == "volume" else "panel", points, values)
    if model == "surface":
        jump = surfmedium.jump_check(record, run.mesh, incident)
        (out / "jump_check.json").write_text(json.dumps(jump, indent=1))
    steps = f" iterations={record.iterations}" if hasattr(record, "iterations") else ""
    print(f"{model} solve: N={len(points)}{steps} residual={record.residual:.2e}")
    return 0


def cmd_converge(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    table = run_convergence(cfg)
    fit = fit_rate(table)
    write_outputs(table, fit, out)
    for row in table.rows:
        print(f"a={row.a:.6g} M={row.m} sup_err={row.sup_err:.4e} "
              f"scale={row.field_scale:.4e}")
    for a, reason, _ in table.aborted:
        print(f"a={a:.6g} aborted: {reason}")
    print(f"fit: slope={fit.slope:.3f} (s.e. {fit.slope_stderr:.3f}) "
          f"predicted={fit.predicted_exponent:.3f} "
          f"-> {out / 'error_table.csv'}")
    return 0


def cmd_fit(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    table_path = out / "error_table.csv"
    if not table_path.exists():
        raise ConfigError(f"{table_path} not found; run converge first")
    run = prepare(cfg)
    table = ErrorTable(rows=ErrorTable.read_rows(table_path), regime_report=run.report,
                       aborted=[], geometry_kind=cfg.geometry["kind"], params=run.params)
    text = json.dumps(fit_rate(table).to_json(), indent=1, allow_nan=False)
    (out / "rate_fit.json").write_text(text)
    print(text)
    return 0


_COMMANDS = {
    "regime-check": cmd_regime_check,
    "cluster": cmd_cluster,
    "solve-fl": cmd_solve_fl,
    "solve-ls": lambda cfg: _solve_model(cfg, "volume", "ls", "ls_solution.csv"),
    "solve-sie": lambda cfg: _solve_model(cfg, "surface", "sie", "sie_solution.csv"),
    "solve-bem": lambda cfg: _solve_model(cfg, "dirichlet", "bem", "bem_density.csv"),
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
