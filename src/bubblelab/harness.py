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
import os
import re
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
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
from .errors import AllocationError, BubbleLabError, ConfigError
from .fields import FarField, fibonacci_directions
from .materials import (
    REGIMES,
    BubbleSpec,
    ContrastParams,
    RegimeReport,
    classify_regime,
    medium_coefficient,
    omega_at_gap,
    omega_at_ratio,
    scattering_coefficient,
)
from .meshes import cube_mesh, icosphere, load_mesh, rect_mesh, sphere_cap_mesh
from .pointscat import IncidentWave

SURFACE_KINDS = ("sphere_cap", "plane_rect")
_GEOMETRIES = {"box": BoxDomain, "ball": BallDomain, "sphere_cap": SphereCapChart,
               "plane_rect": PlaneChart}


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment's sections, converted by ``SECTIONS`` (README: Config schema)."""

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

    @property
    def is_surface(self) -> bool:
        return self.geometry["kind"] in SURFACE_KINDS

    @staticmethod
    def from_json(doc) -> "ExperimentConfig":
        """The config a JSON document describes, tolerances defaulted; ConfigError if malformed."""
        doc = _section(doc, "config")
        directions = doc.pop("directions", {})
        if "n" in directions:
            directions["directions"] = directions.pop("n")
        table = f"{doc['geometry']['kind']} tolerance"
        doc["tolerances"] = _section(doc.get("tolerances", {}),
                                     table if table in SECTIONS else "tolerance")
        return ExperimentConfig(**doc, **directions)


@dataclass(frozen=True)
class ErrorRow:
    a: float
    m: int
    n_model: int
    sup_err: float
    field_scale: float


@dataclass
class ErrorTable:
    rows: list
    regime_report: object
    aborted: list  # (a, reason, {"type", "cond_estimate", "iterations"})
    geometry_kind: str
    params: ContrastParams  # the run's parameters, which the rate fit reads
    far_fields: list = field(default_factory=list)  # (a, fl FarField, model FarField)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "M", "N", "sup_err", "field_scale"])
            for r in self.rows:
                writer.writerow([repr(r.a), r.m, r.n_model, repr(r.sup_err),
                                 repr(r.field_scale)])

    @staticmethod
    def read_rows(path) -> list:
        """The rows of a table written by ``write_csv``, read by column name,
        so columns that older tables carry besides these are skipped."""
        with open(path, newline="") as fh:
            return [ErrorRow(a=float(r["a"]), m=int(r["M"]), n_model=int(r["N"]),
                             sup_err=float(r["sup_err"]), field_scale=float(r["field_scale"]))
                    for r in csv.DictReader(fh)]


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    predicted_exponent: float
    exponent_ledger: tuple  # ((expression, exponent, note), ...)
    note: str = ""
    slope_stderr: float = float("nan")

    def to_json(self):
        """The fit as a JSON object; a number that is not finite (a skipped fit's) is null."""
        numbers = {"slope": self.slope, "slope_stderr": self.slope_stderr,
                   "intercept": self.intercept, "r_squared": self.r_squared,
                   "predicted_exponent": self.predicted_exponent}
        return {
            **{key: x if math.isfinite(x) else None for key, x in numbers.items()},
            "exponent_ledger": [
                {"term": t, "exponent": e, "note": n} for (t, e, n) in self.exponent_ledger
            ],
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# config schema and materialization


# how one config key converts, what it must be (for errors), and its default (None: none)
_Value = namedtuple("_Value", "what convert required default", defaults=(False, None))


def _integer(minimum: int) -> _Value:
    """An int no less than ``minimum``.  A non-integral value such as 8.7 is
    rejected, not truncated; a whole-number float such as 24.0 passes."""
    def convert(value) -> int:
        number = value if isinstance(value, int) else float(value)
        if number != int(number) or number < minimum:
            raise ValueError(value)
        return int(number)
    return _Value(f"an integer >= {minimum}", convert)


def _finite(value, low=-math.inf, high=math.inf) -> float:
    """A finite number in (low, high]; JSON reads NaN and Infinity."""
    if not (math.isfinite(number := float(value)) and low < number <= high):
        raise ValueError(value)
    return number


def _vector(value, nonzero=False) -> tuple:
    vector = np.asarray(value, dtype=float)
    if vector.shape != (3,) or not np.isfinite(vector).all() or nonzero and not vector.any():
        raise ValueError(value)
    return tuple(vector.tolist())


def _samples(value) -> np.ndarray:
    samples = np.asarray(value, dtype=float)
    if samples.ndim != 3:
        raise ValueError(value)
    return samples


def _decreasing(value) -> tuple:
    seq = tuple(map(_finite, value))
    if len(seq) < 3 or any(b >= a for a, b in zip(seq, seq[1:])):
        raise ValueError(value)
    return seq


def _object(name: str, tag=None, default=None) -> _Value:
    """A nested section.  Its ``tag`` key, if any, picks the table (geometry kind
    "box" converts by ``SECTIONS["box geometry"]``); an absent tag reads as ``default``."""
    def convert(doc) -> dict:
        if tag is None or not isinstance(doc, dict):  # _section rejects a non-object first
            return _section(doc, name)
        doc = {tag: default, **doc}
        if f"{doc[tag]} {name}" not in SECTIONS:
            raise ConfigError(f"unknown {name} {tag} {doc[tag]!r}")
        return _section(doc, f"{doc[tag]} {name}")
    return _Value("an object", convert)


_NUMBER, _COUNT, _LEVEL = _Value("a finite number", _finite), _integer(1), _integer(0)
_TAG, _PATH, _VECTOR = _Value("a name", str), _Value("a path", os.fspath), \
    _Value("a finite 3-vector", _vector)
_DIRECTION = _Value("a finite non-zero 3-vector", lambda v: _vector(v, nonzero=True))
_LENGTH = _Value("a finite number > 0", lambda v: _finite(v, 0.0))
_ANGLE = _Value("a number in (0, pi]", lambda v: _finite(v, 0.0, math.pi))
_SIZE = _Value("a 3-vector of numbers > 0", lambda v: tuple(_finite(x, 0) for x in _vector(v)))
_DENSITY = _object("density", "kind", "constant")

# section -> {key: converter}: every key a config may hold, and its type
SECTIONS = {
    "config": {
        "geometry": _object("geometry", "kind")._replace(required=True),
        "bubble": _object("bubble", "shape", "sphere")._replace(required=True),
        "contrast": _object("contrast")._replace(required=True),
        "regime": _Value(f"one of {', '.join(REGIMES)}", lambda v: REGIMES[REGIMES.index(v)],
                         required=True),
        "a_sequence": _Value("a strictly decreasing list of at least 3 finite numbers",
                             _decreasing, required=True),
        # a bare count is the directions section's n
        "directions": _Value("an object", lambda value: _section(
            value if isinstance(value, dict) else {"n": value}, "directions")),
        "tolerances": _Value("an object", lambda doc: doc),  # converted in from_json
        "seed": _LEVEL,
        "out": _PATH,
    },
    "directions": {"n": _COUNT, "theta": _DIRECTION, "theta_sweep": _LEVEL},
    "tolerance": {"d_min": _LENGTH._replace(default=0.5), "grid_n": _COUNT._replace(default=24),
                  "mesh_level": _LEVEL._replace(default=3), "mesh_n": _COUNT._replace(default=10),
                  "mesh_rings": _COUNT._replace(default=14),
                  "mesh_nphi": _integer(3)._replace(default=42)},  # below 3 a cap degenerates
    "contrast": dict.fromkeys(("rho0", "k0", "c_rho", "gamma", "tau", "s", "t", "h1", "l_m",
                               "lambda_k", "l0", "omega", "omega_ratio"), _NUMBER),
    "box geometry": {"kind": _TAG, "density": _DENSITY, "size": _SIZE, "center": _VECTOR},
    "ball geometry": {"kind": _TAG, "density": _DENSITY, "radius": _LENGTH, "center": _VECTOR},
    "sphere_cap geometry": {"kind": _TAG, "density": _DENSITY, "radius": _LENGTH,
                            "theta_max": _ANGLE},
    "plane_rect geometry": {"kind": _TAG, "density": _DENSITY, "lx": _LENGTH, "ly": _LENGTH},
    "constant density": {"kind": _TAG, "value": _NUMBER, "k_max": _NUMBER},
    # samples first: 2d samples get the hint that surfaces take constant densities
    "grid density": {"kind": _TAG,
                     "samples": _Value("3d samples (a surface takes a constant density)",
                                       _samples, required=True),
                     "origin": _VECTOR._replace(required=True),
                     "spacing": _VECTOR._replace(required=True), "k_max": _NUMBER},
    "sphere bubble": {"shape": _TAG, "radius": _LENGTH},
    "cube bubble": {"shape": _TAG, "n": _COUNT, "side": _LENGTH},
    "mesh bubble": {"shape": _TAG, "path": _PATH._replace(required=True)},
}
# a plane_rect screen's rim-graded comparator mesh takes more panels a side than a box face
SECTIONS["plane_rect tolerance"] = {**SECTIONS["tolerance"], "mesh_n": _COUNT._replace(default=16)}


def _section(doc, name: str) -> dict:
    """``doc`` with each value converted by ``SECTIONS[name]``.  Raises ConfigError
    for a non-object, an unknown or missing key, or a value that does not convert."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be an object, got {doc!r}")
    table = SECTIONS[name]
    unknown = set(doc) - set(table)
    if unknown:
        raise ConfigError(f"unknown {name} keys {sorted(unknown)}")
    converted = {}
    for key, kind in table.items():  # in table order, so errors come in a fixed order
        if key in doc:
            try:
                converted[key] = kind.convert(doc[key])
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"{name} {key!r} must be {kind.what}, "
                                  f"got {doc[key]!r}") from None
        elif kind.required:
            raise ConfigError(f"missing {name} key {key!r}")
        elif kind.default is not None:
            converted[key] = kind.default
    return converted


def build_bubble(doc: dict) -> BubbleSpec:
    """The bubble of a converted ``bubble`` section; absent keys take its defaults."""
    if doc["shape"] == "mesh":
        return BubbleSpec.from_mesh(load_mesh(doc["path"]))
    make = BubbleSpec.sphere if doc["shape"] == "sphere" else BubbleSpec.cube
    return make(**{key: value for key, value in doc.items() if key != "shape"})


def build_contrast(doc: dict) -> tuple:
    """ContrastParams plus the frequency mode ('fixed'|'ratio'|'gap')."""
    doc = dict(doc)
    ratio = doc.pop("omega_ratio", None)
    omega = doc.get("omega")
    params = ContrastParams(**doc)
    if params.near_resonance:
        if omega is not None or ratio is not None:
            raise ConfigError("near-resonance runs derive omega from (h1, l_m); "
                              "do not set omega or omega_ratio")
        return params, ("gap", None)
    if ratio is not None:
        if omega is not None:
            raise ConfigError("set either omega or omega_ratio, not both")
        return params, ("ratio", ratio)
    if omega is None:
        raise ConfigError("away-from-resonance runs need omega or omega_ratio")
    return params, ("fixed", omega)


def build_density(doc: Optional[dict]) -> DensityField:
    """The density of a converted ``density`` section; None is the constant 0."""
    return DensityField(**(doc or {"kind": "constant"}))


def build_geometry(doc: dict):
    """The domain or chart of a converted ``geometry`` section; absent keys take its defaults."""
    return _GEOMETRIES[doc["kind"]](**{key: value for key, value in doc.items()
                                       if key not in ("kind", "density")})


def comparator_mesh(config: ExperimentConfig):
    """Panel mesh of Sigma (surface runs) or of the domain boundary (high runs)."""
    geometry = build_geometry(config.geometry)
    tol = config.tolerances
    if isinstance(geometry, SphereCapChart):
        return sphere_cap_mesh(radius=geometry.radius, theta_max=geometry.theta_max,
                               n_rings=tol["mesh_rings"], n_phi=tol["mesh_nphi"])
    if isinstance(geometry, PlaneChart):
        return rect_mesh(geometry.lx, geometry.ly, tol["mesh_n"], tol["mesh_n"])
    if isinstance(geometry, BallDomain):
        return icosphere(tol["mesh_level"], radius=geometry.radius, center=geometry.center)
    return cube_mesh(tol["mesh_n"], side=geometry.size, center=geometry.center)


def resolve_contrast(config: ExperimentConfig, bubble: BubbleSpec) -> ContrastParams:
    """Contrast parameters, with omega pinned in ratio mode.

    In gap mode (near-resonance parameters) omega moves with the radius
    scale; ``RunSetup.row_params`` pins it per row.
    """
    params, mode = build_contrast(config.contrast)
    if mode[0] == "ratio":
        params = omega_at_ratio(bubble, params, mode[1])
    return params


def regime_summary(report: RegimeReport) -> dict:
    return {
        "regime": report.regime,
        "s_star": report.scale_of_c,  # s* is the scale of C in every regime
        "scale_of_c": report.scale_of_c,
        "ledger": [[name, ok] for name, ok in report.satisfied],
    }


# ---------------------------------------------------------------------------
# run set-up and comparators


@dataclass(frozen=True)
class RunSetup:
    """What every command builds from its config, and the solves it shares."""

    config: ExperimentConfig
    bubble: BubbleSpec
    params: ContrastParams  # omega resolved, except near resonance (gap mode)
    report: RegimeReport
    geometry: object
    density: DensityField

    @property
    def directions(self) -> np.ndarray:
        return fibonacci_directions(self.config.directions)

    # the comparator's panels (surface, Dirichlet) and voxels (volume): built on
    # first use and kept for the run, as neither depends on a, kappa0 or theta
    @cached_property
    def mesh(self):
        return comparator_mesh(self.config)

    @cached_property
    def grid(self) -> volmedium.VoxelGrid:
        return volmedium.VoxelGrid.cover(self.geometry, self.config.tolerances["grid_n"])

    @property
    def theta(self) -> np.ndarray:
        theta = np.asarray(self.config.theta, dtype=float)
        return theta / np.linalg.norm(theta)

    @property
    def comparator(self) -> str:
        """The regime's equivalent model: "zero" (Low), "dirichlet" (High), or
        in the medium regimes "surface" or "volume" by the geometry."""
        if self.report.regime == "Low":
            return "zero"
        if self.report.regime == "High":
            return "dirichlet"
        return "surface" if self.config.is_surface else "volume"

    def row_params(self, a) -> ContrastParams:
        if self.params.near_resonance:
            return omega_at_gap(self.bubble, self.params, a)
        return self.params

    def cluster(self, a):
        builder = build_surface if self.config.is_surface else build_volumetric
        return builder(self.geometry, self.density, a, self.params.s, self.params.t,
                       seed=self.config.seed, d_min=self.config.tolerances["d_min"])

    def solve_points(self, a, row_params, incidents) -> tuple:
        """Cluster, coefficient and charges for each incident wave at radius scale a.

        One system (``pointscat.assemble``: the lattice FFT operator of a
        cluster with one centre per site, else a dense matrix factored once,
        in place) serves all incident waves and is freed on return.
        ``run_convergence`` solves a row's comparator first, so a refused
        comparator stops the row before its cluster is built.
        """
        coeff = scattering_coefficient(self.bubble, row_params, a)
        cl = self.cluster(a)
        system = pointscat.assemble(cl, coeff, row_params.kappa0)
        return cl, coeff, [pointscat.solve_charges(system, inc, cl.centers)
                           for inc in incidents]

    def solve_model(self, model, row_params, a, incident) -> tuple:
        """Solve ``model`` ("zero", "dirichlet", "surface" or "volume"; see
        ``comparator``) for one incident wave at radius scale a.

        The surface and Dirichlet models solve on ``mesh``, the volume model on
        ``grid``.  Returns the far field on the run's directions, the values of
        the unknowns at ``model_points`` and the solve record.
        """
        directions, kappa0 = self.directions, incident.kappa0
        if model == "zero":
            zero = np.zeros(len(directions), dtype=complex)
            return FarField(directions, zero), np.empty(0, complex), None
        if model == "dirichlet":
            density, ff = bemlimit.solve_dirichlet(self.mesh, incident, directions)
            return ff, density.values, density
        coeff0 = medium_coefficient(self.bubble, row_params, a)
        if model == "surface":
            sol = surfmedium.assemble_and_solve_surface(
                self.mesh, coeff0 * (self.density.value + 1.0), incident)
            ff = surfmedium.far_field_surface(sol, self.mesh, kappa0, directions)
            return ff, sol.y, sol
        pot = volmedium.VolumePotential.from_density(self.grid, self.density, coeff0)
        sol = volmedium.assemble_and_solve(self.grid, pot, incident)
        ff = volmedium.far_field_volume(sol, pot, self.grid, kappa0, directions)
        return ff, sol.y, sol

    def model_far_field(self, model, row_params, a, incident) -> tuple:
        """(far field, number of unknowns) of ``solve_model``; the solution is
        freed on return, so no row's solve holds an earlier one."""
        ff, values, _ = self.solve_model(model, row_params, a, incident)
        return ff, len(values)

    def model_points(self, model) -> np.ndarray:
        """The points that carry the unknowns of the surface, Dirichlet or
        volume model: panel centroids, or voxel centres built for this call."""
        return self.grid.centers if model == "volume" else self.mesh.centroids


def prepare(config: ExperimentConfig) -> RunSetup:
    """Build a run's bubble, contrast, geometry and density.

    Raises ConfigError when the parameters classify as another regime than
    the config names, or when a surface run asks for a non-constant density.
    """
    bubble = build_bubble(config.bubble)
    params = resolve_contrast(config, bubble)
    report = classify_regime(params)
    if report.regime != config.regime:
        raise ConfigError(f"config regime {config.regime!r} but parameters classify as "
                          f"{report.regime!r}")
    geometry = build_geometry(config.geometry)
    density = build_density(config.geometry.get("density"))
    if config.is_surface and density.kind != "constant":
        raise ConfigError("surface comparators support constant density fields only")
    return RunSetup(config=config, bubble=bubble, params=params, report=report,
                    geometry=geometry, density=density)


def run_convergence(config: ExperimentConfig) -> ErrorTable:
    """Point-interaction vs equivalent-model far fields along the a-sequence."""
    run = prepare(config)
    directions = run.directions

    # incidence directions: one fixed theta, or a sweep taking the sup over a grid
    thetas = list(fibonacci_directions(config.theta_sweep)) if config.theta_sweep else [run.theta]

    # away-branch comparators do not depend on a: solve once per theta and reuse
    model_cache = {}
    rows, aborted, far_fields = [], [], []
    for a in config.a_sequence:
        try:
            row_params = run.row_params(a)
            if run.params.near_resonance:
                model_cache.clear()  # kappa0 moves with a near the resonance

            incidents = [IncidentWave(row_params.kappa0, th) for th in thetas]
            for ti, incident in enumerate(incidents):
                if ti not in model_cache:
                    model_cache[ti] = run.model_far_field(run.comparator, row_params, a,
                                                          incident)
            cl, _, sols = run.solve_points(a, row_params, incidents)
            fl_fields = pointscat.far_field(sols, cl.centers, row_params.kappa0, directions)

            sup_err = field_scale = 0.0
            keep = None
            for ti, ff_fl in enumerate(fl_fields):
                ff_model, n_model = model_cache[ti]
                err = ff_fl.sup_diff(ff_model)
                if keep is None or err > sup_err:
                    keep, sup_err = (ff_fl, ff_model), err
                field_scale = max(field_scale, ff_fl.sup_norm())
            rows.append(ErrorRow(a=a, m=cl.m, n_model=n_model, sup_err=sup_err,
                                 field_scale=field_scale))
            far_fields.append((a, keep[0], keep[1]))
        except BubbleLabError as exc:
            aborted.append((a, f"{type(exc).__name__}: {exc}", _abort_diagnostics(exc)))
    return ErrorTable(rows=rows, regime_report=run.report, aborted=aborted,
                      geometry_kind=config.geometry["kind"], far_fields=far_fields,
                      params=run.params)


def _abort_diagnostics(exc: BubbleLabError) -> dict:
    """Type, condition estimate and iteration count of an aborted row's error,
    and the bytes of a refused allocation (AllocationError) if it was one."""
    cond = getattr(exc, "cond_estimate", None)
    diagnostics = {
        "type": type(exc).__name__,
        "cond_estimate": float(cond) if cond is not None and math.isfinite(cond) else None,
        "iterations": getattr(exc, "iterations", None),
    }
    if isinstance(exc, AllocationError):
        diagnostics["bytes"] = exc.nbytes
    return diagnostics


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


def fit_rate(table: ErrorTable) -> RateFit:
    """Least-squares slope of log sup_err vs log a, its standard error and the
    exponent ledger.

    The standard error is the ordinary least-squares one,
    sqrt(sum resid^2 / (n - 2) / sum (x - mean x)^2), which is what
    ``np.polyfit(..., cov=True)`` reports; with 3 rows it rests on one degree
    of freedom.
    """
    rows = [r for r in table.rows if r.sup_err > 0]
    terms = _exponent_terms(table.regime_report.regime, table.geometry_kind in SURFACE_KINDS,
                            table.params)
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
    ss_res = float(np.sum(resid**2))
    r_sq = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    stderr = math.sqrt(ss_res / (len(x) - 2) / float(np.sum((x - x.mean()) ** 2)))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=max(0.0, min(1.0, r_sq)), slope_stderr=stderr,
                   predicted_exponent=predicted, exponent_ledger=tuple(terms))


def write_outputs(table: ErrorTable, fit: RateFit, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table.write_csv(out / "error_table.csv")
    report = {**regime_summary(table.regime_report),
              "aborted_rows": [list(row) for row in table.aborted]}
    with open(out / "regime_report.json", "w") as fh:
        json.dump(report, fh, indent=1)
    with open(out / "rate_fit.json", "w") as fh:
        json.dump(fit.to_json(), fh, indent=1, allow_nan=False)
    for i, (a, ff_fl, ff_model) in enumerate(table.far_fields):
        ff_fl.save_csv(out / f"farfield_fl_row{i}.csv")
        ff_model.save_csv(out / f"farfield_model_row{i}.csv")
    for path in out.glob("farfield_*_row*.csv"):  # rows past the last, from an earlier run
        row = re.fullmatch(r"farfield_(?:fl|model)_row(\d+)\.csv", path.name)
        if row and int(row[1]) >= len(table.far_fields):
            path.unlink()
