"""Experiment orchestration: clusters vs equivalent-medium far fields.

A convergence run walks a decreasing radius-scale sequence, solves the
point-interaction model on each cluster, solves the regime's equivalent model
(zero field, volume potential, surface density or Dirichlet limit) on a fixed
direction grid, and tabulates the sup-norm far-field discrepancy.  Rate fits
compare the measured slope against the documented error-exponent ledgers.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import bemlimit, pointscat, surfmedium, volmedium
from .cluster import (
    BallDomain,
    BoxDomain,
    DensityField,
    PlaneChart,
    SphereCapChart,
    build_surface,
    build_volumetric,
)
from .errors import BubbleLabError, ConfigError
from .fields import FarField, fibonacci_directions
from .materials import (
    BubbleSpec,
    ContrastParams,
    classify_regime,
    leading_coefficient,
    omega_at_gap,
    omega_at_ratio,
    scattering_coefficient,
)
from .meshes import cube_mesh, icosphere, load_mesh, rect_mesh, sphere_cap_mesh
from .pointscat import IncidentWave

VOLUMETRIC_KINDS = ("box", "ball")
SURFACE_KINDS = ("sphere_cap", "plane_rect")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema)."""

    geometry: dict
    bubble: dict
    contrast: dict
    regime: str
    a_sequence: tuple
    directions: int = 200
    theta: tuple = (0.0, 0.0, 1.0)
    theta_sweep: int = 0  # >0: sup over a grid of incidence directions too
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    out: Optional[str] = None

    def __post_init__(self):
        seq = tuple(float(a) for a in self.a_sequence)
        if len(seq) < 3:
            raise ConfigError("a_sequence needs at least 3 entries")
        if any(b >= a for a, b in zip(seq, seq[1:])):
            raise ConfigError("a_sequence must be strictly decreasing")
        object.__setattr__(self, "a_sequence", seq)
        if self.geometry.get("kind") not in VOLUMETRIC_KINDS + SURFACE_KINDS:
            raise ConfigError(f"unknown geometry kind {self.geometry.get('kind')!r}")
        if self.directions < 1:
            raise ConfigError("direction grid size must be positive")

    @property
    def is_surface(self) -> bool:
        return self.geometry["kind"] in SURFACE_KINDS

    @staticmethod
    def from_json(doc: dict) -> "ExperimentConfig":
        unknown = set(doc) - {"geometry", "bubble", "contrast", "regime", "a_sequence",
                              "directions", "tolerances", "seed", "out"}
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        for key in ("geometry", "bubble", "contrast", "regime", "a_sequence"):
            if key not in doc:
                raise ConfigError(f"missing config key {key!r}")
        directions = doc.get("directions", 200)
        theta = (0.0, 0.0, 1.0)
        theta_sweep = 0
        if isinstance(directions, dict):
            theta = tuple(directions.get("theta", theta))
            theta_sweep = int(directions.get("theta_sweep", 0))
            directions = directions.get("n", 200)
        return ExperimentConfig(
            geometry=doc["geometry"],
            bubble=doc["bubble"],
            contrast=doc["contrast"],
            regime=doc["regime"],
            a_sequence=doc["a_sequence"],
            directions=int(directions),
            theta=theta,
            theta_sweep=theta_sweep,
            tolerances=doc.get("tolerances", {}),
            seed=int(doc.get("seed", 0)),
            out=doc.get("out"),
        )


@dataclass(frozen=True)
class ErrorRow:
    a: float
    m: int
    n_model: int
    sup_err: float
    field_scale: float
    wall_time_s: float


@dataclass
class ErrorTable:
    rows: list
    regime_report: object
    aborted: list  # (a, reason, {"type", "cond_estimate", "iterations"})
    geometry_kind: str
    far_fields: list = field(default_factory=list)  # (a, fl FarField, model FarField)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "M", "N", "sup_err", "field_scale", "wall_time_s"])
            for r in self.rows:
                writer.writerow([repr(r.a), r.m, r.n_model, repr(r.sup_err),
                                 repr(r.field_scale), repr(r.wall_time_s)])


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    predicted_exponent: float
    exponent_ledger: tuple  # ((expression, exponent, note), ...)
    note: str = ""

    def to_json(self):
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "predicted_exponent": self.predicted_exponent,
            "exponent_ledger": [
                {"term": t, "exponent": e, "note": n} for (t, e, n) in self.exponent_ledger
            ],
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# config materialization


def build_bubble(doc: dict) -> BubbleSpec:
    shape = doc.get("shape", "sphere")
    if shape == "sphere":
        return BubbleSpec.sphere(subdivisions=int(doc.get("subdivisions", 2)),
                                 radius=float(doc.get("radius", 1.0)))
    if shape == "cube":
        return BubbleSpec.cube(n=int(doc.get("n", 6)), side=float(doc.get("side", 1.0)))
    if shape == "mesh":
        return BubbleSpec.from_mesh(load_mesh(doc["path"]))
    raise ConfigError(f"unknown bubble shape {shape!r}")


def build_contrast(doc: dict) -> tuple:
    """ContrastParams plus the frequency mode ('fixed'|'ratio'|'gap')."""
    doc = dict(doc)
    ratio = doc.pop("omega_ratio", None)
    omega = doc.pop("omega", None)
    known = {"rho0", "k0", "c_rho", "gamma", "tau", "s", "t", "h1", "l_m",
             "lambda_k", "l0"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown contrast keys {sorted(unknown)}")
    params = ContrastParams(omega=omega if omega is not None else 1.0, **doc)
    if params.near_resonance:
        if omega is not None or ratio is not None:
            raise ConfigError("near-resonance runs derive omega from (h1, l_m); "
                              "do not set omega or omega_ratio")
        return params, ("gap", None)
    if ratio is not None:
        if omega is not None:
            raise ConfigError("set either omega or omega_ratio, not both")
        return params, ("ratio", float(ratio))
    if omega is None:
        raise ConfigError("away-from-resonance runs need omega or omega_ratio")
    return params, ("fixed", float(omega))


def build_density(doc: Optional[dict]) -> DensityField:
    doc = doc or {"kind": "constant", "value": 0.0}
    if doc.get("kind", "constant") == "constant":
        return DensityField.constant(doc.get("value", 0.0),
                                     lambda_k=doc.get("lambda_k", 1.0),
                                     k_max=doc.get("k_max"))
    if doc["kind"] == "grid":
        return DensityField.grid(doc["origin"], doc["spacing"], np.asarray(doc["samples"]),
                                 lambda_k=doc.get("lambda_k", 1.0), k_max=doc.get("k_max"))
    raise ConfigError(f"unknown density kind {doc['kind']!r}")


def build_geometry(doc: dict):
    kind = doc["kind"]
    if kind == "box":
        return BoxDomain(center=tuple(doc.get("center", (0, 0, 0))),
                         size=tuple(doc.get("size", (1, 1, 1))))
    if kind == "ball":
        return BallDomain(center=tuple(doc.get("center", (0, 0, 0))),
                          radius=float(doc.get("radius", 0.620350490899)))
    if kind == "sphere_cap":
        return SphereCapChart(radius=float(doc.get("radius", 1.0)),
                              theta_max=float(doc.get("theta_max", math.pi / 2)))
    if kind == "plane_rect":
        return PlaneChart(lx=float(doc.get("lx", 1.0)), ly=float(doc.get("ly", 1.0)))
    raise ConfigError(f"unknown geometry kind {kind!r}")


def comparator_mesh(config: ExperimentConfig):
    """Panel mesh of Sigma (surface runs) or of the domain boundary (high runs)."""
    doc = config.geometry
    tol = config.tolerances
    kind = doc["kind"]
    if kind == "sphere_cap":
        return sphere_cap_mesh(
            radius=float(doc.get("radius", 1.0)),
            theta_max=float(doc.get("theta_max", math.pi / 2)),
            n_rings=int(tol.get("mesh_rings", 14)),
            n_phi=int(tol.get("mesh_nphi", 42)),
        )
    if kind == "plane_rect":
        n = int(tol.get("mesh_n", 16))
        # open comparator meshes are rim-graded (edge-singular limits)
        return rect_mesh(float(doc.get("lx", 1.0)), float(doc.get("ly", 1.0)), n, n,
                         grading=0.7, grading_levels=3)
    if kind == "ball":
        return icosphere(int(tol.get("mesh_level", 3)),
                         radius=float(doc.get("radius", 0.620350490899)),
                         center=tuple(doc.get("center", (0, 0, 0))))
    if kind == "box":
        return cube_mesh(int(tol.get("mesh_n", 10)), side=float(doc.get("size", (1, 1, 1))[0]),
                         center=tuple(doc.get("center", (0, 0, 0))))
    raise ConfigError(f"no comparator mesh for geometry {kind!r}")


# ---------------------------------------------------------------------------
# comparators


def _medium_coefficient(bubble, row_params, regime_name, a):
    """a-independent potential amplitude: leading coefficient away from the
    resonance, the reduced near-resonance coefficient otherwise.  Expects
    row-resolved parameters (omega already pinned for radius scale a)."""
    if regime_name == "MediumNearResonance":
        return scattering_coefficient(bubble, row_params, a).reduced
    lead, _ = leading_coefficient(bubble, row_params, a)
    return lead


def _resolve_row_params(bubble, params, mode, a):
    if mode[0] == "gap":
        return omega_at_gap(bubble, params, a)
    return params


def run_convergence(config: ExperimentConfig) -> ErrorTable:
    """Point-interaction vs equivalent-model far fields along the a-sequence."""
    bubble = build_bubble(config.bubble)
    params, mode = build_contrast(config.contrast)
    if mode[0] == "ratio":
        params = omega_at_ratio(bubble, params, mode[1])
    report = classify_regime(params)
    if report.regime != config.regime:
        raise ConfigError(
            f"config regime {config.regime!r} but parameters classify as {report.regime!r}"
        )
    geometry = build_geometry(config.geometry)
    density = build_density(config.geometry.get("density"))
    tol = config.tolerances
    m_max = int(tol.get("m_max", 4096))
    d_min = float(tol.get("d_min", 0.5))
    record_wall = bool(tol.get("record_wall_time", False))
    directions = fibonacci_directions(config.directions)
    theta = np.asarray(config.theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    surface = config.is_surface

    if surface and density.kind != "constant":
        raise ConfigError("surface comparators support constant density fields only")

    regime_name = report.regime
    mesh = None
    if regime_name != "Low":
        if surface or regime_name == "High":
            mesh = comparator_mesh(config)

    # incidence directions: one fixed theta, or a sweep taking the sup over a grid
    thetas = [theta]
    if config.theta_sweep > 0:
        thetas = list(fibonacci_directions(config.theta_sweep))

    # away-branch comparators do not depend on a: solve once per theta and reuse
    model_cache = {}
    rows, aborted, far_fields = [], [], []
    for a in config.a_sequence:
        t0 = time.perf_counter()
        try:
            row_params = _resolve_row_params(bubble, params, mode, a)
            coeff = scattering_coefficient(bubble, row_params, a)
            kappa0 = row_params.kappa0
            if mode[0] == "gap":
                model_cache.clear()  # kappa0 moves with a near the resonance

            if surface:
                cl = build_surface(geometry, density, a, params.s, params.t,
                                   seed=config.seed, d_min=d_min)
            else:
                cl = build_volumetric(geometry, density, a, params.s, params.t,
                                      seed=config.seed, d_min=d_min)
            if cl.m > m_max:
                raise ConfigError(f"cluster size M={cl.m} exceeds cap {m_max}")
            incidents = [IncidentWave(kappa0, np.asarray(th, dtype=float)) for th in thetas]
            fl_fields = _point_far_fields(cl, coeff.value, incidents, directions)

            sup_err = field_scale = 0.0
            keep = None
            for ti, (incident, ff_fl) in enumerate(zip(incidents, fl_fields)):
                if ti not in model_cache:
                    model_cache[ti] = _solve_comparator(
                        regime_name, surface, mesh, geometry, density, bubble,
                        row_params, a, incident, directions, tol)
                ff_model, n_model = model_cache[ti]
                err = ff_fl.sup_diff(ff_model)
                if keep is None or err > sup_err:
                    keep = (ff_fl, ff_model)
                sup_err = max(sup_err, err)
                field_scale = max(field_scale, ff_fl.sup_norm())
            wall = time.perf_counter() - t0 if record_wall else 0.0
            rows.append(ErrorRow(a=a, m=cl.m, n_model=n_model, sup_err=sup_err,
                                 field_scale=field_scale, wall_time_s=wall))
            far_fields.append((a, keep[0], keep[1]))
        except BubbleLabError as exc:
            aborted.append((a, f"{type(exc).__name__}: {exc}", _abort_diagnostics(exc)))
    return ErrorTable(rows=rows, regime_report=report, aborted=aborted,
                      geometry_kind=config.geometry["kind"], far_fields=far_fields)


def _point_far_fields(cl, c_coeff, incidents, directions) -> list:
    """Point-interaction far field of one cluster for each incident wave.

    The cluster matrix is factored once for all directions, and it and its LU
    are freed on return, before any comparator allocates.
    """
    system = pointscat.ClusterSystem(pointscat.assemble(cl.centers, c_coeff,
                                                        incidents[0].kappa0))
    return [pointscat.far_field(pointscat.solve_charges(system, inc, cl.centers),
                                cl.centers, inc.kappa0, directions)
            for inc in incidents]


def _abort_diagnostics(exc: BubbleLabError) -> dict:
    """Type, condition estimate and iteration count of an aborted row's error."""
    cond = getattr(exc, "cond_estimate", None)
    return {
        "type": type(exc).__name__,
        "cond_estimate": float(cond) if cond is not None and math.isfinite(cond) else None,
        "iterations": getattr(exc, "iterations", None),
    }


def _solve_comparator(regime_name, surface, mesh, geometry, density, bubble,
                      row_params, a, incident, directions, tol):
    """Equivalent-model far field for one incidence direction."""
    kappa0 = incident.kappa0
    if regime_name == "Low":
        return FarField(directions, np.zeros(len(directions), dtype=complex)), 0
    if regime_name == "High":
        _, ff = bemlimit.solve_dirichlet(mesh, incident, directions)
        return ff, mesh.n_panels
    if surface:
        sigma0 = _medium_coefficient(bubble, row_params, regime_name, a)
        sigma = sigma0 * (density.value + 1.0)
        sol = surfmedium.assemble_and_solve_surface(mesh, sigma, 1.0, incident)
        return surfmedium.far_field_surface(sol, mesh, kappa0, directions), mesh.n_panels
    grid = volmedium.VoxelGrid.cover(geometry, int(tol.get("grid_n", 24)))
    coeff0 = _medium_coefficient(bubble, row_params, regime_name, a)
    pot = volmedium.VolumePotential.from_density(grid, density, coeff0, 1.0)
    sol = volmedium.assemble_and_solve(grid, pot, incident,
                                       direct_max=int(tol.get("direct_max", 4096)))
    return volmedium.far_field_volume(sol, pot, grid, kappa0, directions), grid.n_cells


# ---------------------------------------------------------------------------
# rate fitting


def _exponent_terms(regime_name: str, surface: bool, params: ContrastParams):
    s, t, g, lam = params.s, params.t, params.gamma, params.lambda_k
    h1 = params.h1 if params.near_resonance else None
    eta_note = "eta evaluated at its supremum 1 (proof-only Holder exponent)"
    if regime_name == "Low":
        scale = 1.0 - h1 if h1 is not None else 2.0 - g
        return [("scale_of_C - s", scale - s, "bare cluster amplitude M*|C|")]
    if not surface:
        if regime_name == "MediumVolumetricA":
            return [("1-gamma", 1 - g, ""), ("s*lambda/3", s * lam / 3, ""),
                    ("2-s", 2 - s, ""), ("3-gamma-2t-s", 3 - g - 2 * t - s, ""),
                    ("s-t", s - t, "")]
        if regime_name == "MediumVolumetricB":
            return [("s*lambda/3", s * lam / 3, ""), ("2-s", 2 - s, ""),
                    ("3-gamma-2t-s", 3 - g - 2 * t - s, ""), ("s-t", s - t, "")]
        if regime_name == "MediumNearResonance":
            return [("h1", h1, ""), ("(1-h1)*lambda/3", (1 - h1) * lam / 3, ""),
                    ("1-h1", 1 - h1, ""), ("1-2t", 1 - 2 * t, ""),
                    ("1-h1-t", 1 - h1 - t, "")]
        if regime_name == "High":
            return [
                ("(s+h1-1)/4", (s + h1 - 1) / 4, ""),
                ("2-s-2h1", 2 - s - 2 * h1, ""),
                ("3-2t-2s-2h1", 3 - 2 * t - 2 * s - 2 * h1, ""),
                ("(5/2)(1-s-h1)+s*lambda/3", 2.5 * (1 - s - h1) + s * lam / 3, ""),
                ("(11/4)(1-s-h1)+s/3", 2.75 * (1 - s - h1) + s / 3, ""),
                ("2-2h1-s-t", 2 - 2 * h1 - s - t, ""),
            ]
    else:
        if regime_name == "MediumVolumetricA":
            return [("1-gamma", 1 - g, ""), ("s*eta/2", s / 2, eta_note),
                    ("s*lambda/2", s * lam / 2, ""), ("2-s", 2 - s, ""),
                    ("3-gamma-2t-s", 3 - g - 2 * t - s, ""), ("s-t", s - t, ""),
                    ("s/2", s / 2, "log factor (ignored by the fit)")]
        if regime_name == "MediumVolumetricB":
            return [("s*eta/2", s / 2, eta_note), ("s*lambda/2", s * lam / 2, ""),
                    ("2-s", 2 - s, ""), ("3-gamma-2t-s", 3 - g - 2 * t - s, ""),
                    ("s-t", s - t, ""), ("s/2", s / 2, "log factor (ignored by the fit)")]
        if regime_name == "MediumNearResonance":
            return [("h1", h1, ""), ("(1-h1)*eta/2", (1 - h1) / 2, eta_note),
                    ("(1-h1)*lambda/2", (1 - h1) * lam / 2, ""), ("1-h1", 1 - h1, ""),
                    ("1-2t", 1 - 2 * t, ""), ("1-h1-t", 1 - h1 - t, ""),
                    ("(1-h1)/2", (1 - h1) / 2, "log factor (ignored by the fit)")]
        if regime_name == "High":
            return [
                ("(s+h1-1)/2", (s + h1 - 1) / 2, ""),
                ("2-s-2h1", 2 - s - 2 * h1, ""),
                ("3-2t-2s-2h1", 3 - 2 * t - 2 * s - 2 * h1, ""),
                ("2-2h1-s-t", 2 - 2 * h1 - s - t, ""),
                ("(7/2)(1-s-h1)+s/2", 3.5 * (1 - s - h1) + s / 2,
                 "log factor (ignored by the fit)"),
                ("s*lambda/2+(7/2)(1-s-h1)", s * lam / 2 + 3.5 * (1 - s - h1), ""),
                ("s/2+s*lambda/2+(7/2)(1-s-h1)", s / 2 + s * lam / 2 + 3.5 * (1 - s - h1),
                 "log factor (ignored by the fit)"),
            ]
    raise ConfigError(f"no exponent ledger for regime {regime_name!r}")


def fit_rate(table: ErrorTable, params: ContrastParams) -> RateFit:
    """Least-squares slope of log sup_err vs log a plus the exponent ledger."""
    rows = [r for r in table.rows if r.sup_err > 0]
    terms = _exponent_terms(table.regime_report.regime, table.geometry_kind in SURFACE_KINDS,
                            params)
    predicted = min(e for (_, e, _) in terms)
    if len(rows) < 3:
        return RateFit(slope=float("nan"), intercept=float("nan"), r_squared=float("nan"),
                       predicted_exponent=predicted, exponent_ledger=tuple(terms),
                       note="fit skipped: fewer than 3 rows with positive error")
    x = np.log(np.array([r.a for r in rows]))
    y = np.log(np.array([r.sup_err for r in rows]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=max(0.0, min(1.0, r_sq)),
                   predicted_exponent=predicted, exponent_ledger=tuple(terms))


def write_outputs(config: ExperimentConfig, table: ErrorTable, fit: Optional[RateFit],
                  out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table.write_csv(out / "error_table.csv")
    report = {
        "regime": table.regime_report.regime,
        "s_star": table.regime_report.s_star,
        "scale_of_c": table.regime_report.scale_of_c,
        "ledger": [[name, ok] for name, ok in table.regime_report.satisfied],
        "aborted_rows": [list(row) for row in table.aborted],
    }
    with open(out / "regime_report.json", "w") as fh:
        json.dump(report, fh, indent=1)
    if fit is not None:
        with open(out / "rate_fit.json", "w") as fh:
            json.dump(fit.to_json(), fh, indent=1)
    for i, (a, ff_fl, ff_model) in enumerate(table.far_fields):
        ff_fl.save_csv(out / f"farfield_fl_row{i}.csv")
        ff_model.save_csv(out / f"farfield_model_row{i}.csv")
