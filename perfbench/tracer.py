"""In-memory spans around the public entry points of each bubblelab layer.

`install` wraps every entry point in TARGETS wherever a bubblelab module has
bound it, so a caller that imported the name (`harness.build_surface`,
`bemlimit.panel_weight_matrix`) sees the wrapper too.  Spans hold
[name, start, end, parent index, count]; they stay in memory until the traced
process writes them out.  `layer_metrics` turns a span list into the per-layer
self times and counts.  Importing this module does not import bubblelab.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


INTEGRITY_EXIT = 70  # exit code of a traced child whose entry points are missing


class TraceIntegrityError(RuntimeError):
    """A wrapped entry point is missing or was never called where it must be."""


def _n_panels(result):
    return result.n_panels


def _rows(result):
    return len(result)


# (module, attribute, span name, count taken from the result).  Only entry
# points the benchmark's `converge` runs reach: deleting a helper they do not
# use must not break the trace.
TARGETS = (
    ("meshes", "icosphere", "meshes.mesh", _n_panels),
    ("meshes", "cube_mesh", "meshes.mesh", _n_panels),
    ("meshes", "sphere_cap_mesh", "meshes.mesh", _n_panels),
    ("meshes", "rect_mesh", "meshes.mesh", _n_panels),
    ("meshes", "load_mesh", "meshes.mesh", _n_panels),
    ("meshes", "boundary_shape_factor", "meshes.shape_factor", None),
    ("materials", "scattering_coefficient", "materials.coeff", None),
    ("materials", "leading_coefficient", "materials.coeff", None),
    ("materials", "omega_at_gap", "materials.coeff", None),
    ("materials", "omega_at_ratio", "materials.coeff", None),
    ("materials", "classify_regime", "materials.coeff", None),
    ("cluster", "build_volumetric", "cluster.build", lambda r: r.m),
    ("cluster", "build_surface", "cluster.build", lambda r: r.m),
    ("pointscat", "assemble", "pointscat.assemble", _rows),
    ("pointscat", "solve_charges", "pointscat.solve", lambda r: len(r.charges)),
    ("pointscat", "far_field", "pointscat.far_field", None),
    ("volmedium", "VoxelGrid.cover", "volmedium.grid", lambda r: r.n_cells),
    ("volmedium", "VolumePotential.from_density", "volmedium.grid", None),
    ("volmedium", "assemble_and_solve", "volmedium.solve", lambda r: len(r.y)),
    ("volmedium", "far_field_volume", "volmedium.far_field", None),
    ("surfmedium", "panel_weight_matrix", "surfmedium.weights", _rows),
    ("bemlimit", "solve_dirichlet", "bemlimit.solve", None),
    ("harness", "run_convergence", "harness.run", None),
    ("harness", "fit_rate", "harness.fit", None),
    ("harness", "write_outputs", "harness.write", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = int(count(result))
            return result

        return wrapper

    def install(self):
        """Wrap every TARGETS entry point; raise if one no longer exists."""
        missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "bubblelab" or n.startswith("bubblelab.")]
        for mod_name, attr, name, count in TARGETS:
            module = sys.modules.get(f"bubblelab.{mod_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = inspect.getattr_static(owner, fn_name, None) if owner is not None else None
            if owner_name:
                if not isinstance(raw, staticmethod):
                    missing.append(f"{mod_name}.{attr}")
                    continue
                setattr(owner, fn_name, staticmethod(self.wrap(raw.__func__, name, count)))
                continue
            if not callable(raw):
                missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self.wrap(raw, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapper)
        if missing:
            raise TraceIntegrityError("wrapped entry points not found: " + ", ".join(missing))


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, output_bytes: int, traced_wall_s: float) -> dict:
    """Per-layer self times, counts and derived rates of one traced run."""
    own = self_times(spans)
    time_of, calls, counts, largest = {}, {}, {}, {}
    for (name, _, _, _, n), t in zip(spans, own):
        time_of[name] = time_of.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + n
        largest[name] = max(largest.get(name, 0), n)
    solve_s = time_of.get("pointscat.solve", 0.0)
    lu_flop = sum((8.0 / 3.0) * n**3 for name, _, _, _, n in spans if name == "pointscat.solve")
    covered = sum(own)

    def t(name):
        return time_of.get(name, 0.0)

    return {
        "meshes.mesh_s": (t("meshes.mesh"), "s"),
        "meshes.shape_factor_s": (t("meshes.shape_factor"), "s"),
        "meshes.panels": (counts.get("meshes.mesh", 0), "count"),
        "materials.coeff_s": (t("materials.coeff"), "s"),
        "cluster.build_s": (t("cluster.build"), "s"),
        "cluster.centers": (counts.get("cluster.build", 0), "count"),
        "cluster.m_max": (largest.get("cluster.build", 0), "count"),
        "pointscat.assemble_s": (t("pointscat.assemble"), "s"),
        "pointscat.solve_s": (solve_s, "s"),
        "pointscat.far_field_s": (t("pointscat.far_field"), "s"),
        "pointscat.assemble_calls": (calls.get("pointscat.assemble", 0), "count"),
        "pointscat.solve_calls": (calls.get("pointscat.solve", 0), "count"),
        "pointscat.matrix_mb_max": (16.0 * largest.get("pointscat.assemble", 0) ** 2 / 2**20,
                                    "MiB"),
        "pointscat.lu_gflop_s": (lu_flop / solve_s / 1e9 if solve_s > 0 else 0.0, "GFLOP/s"),
        "volmedium.grid_s": (t("volmedium.grid"), "s"),
        "volmedium.solve_s": (t("volmedium.solve"), "s"),
        "volmedium.far_field_s": (t("volmedium.far_field"), "s"),
        "volmedium.cells": (counts.get("volmedium.solve", 0), "count"),
        "volmedium.solve_calls": (calls.get("volmedium.solve", 0), "count"),
        "surfmedium.weights_s": (t("surfmedium.weights"), "s"),
        "bemlimit.solve_s": (t("bemlimit.solve"), "s"),
        "bemlimit.solve_calls": (calls.get("bemlimit.solve", 0), "count"),
        "harness.fit_s": (t("harness.fit"), "s"),
        "harness.write_s": (t("harness.write"), "s"),
        "harness.rest_s": (t("harness.run"), "s"),
        "harness.output_bytes": (output_bytes, "bytes"),
        "trace.covered_s": (covered, "s"),
        "trace.uncovered_s": (traced_wall_s - covered, "s"),
        "trace.coverage": (covered / traced_wall_s, "ratio"),
    }


def check_calls(spans, must_call) -> None:
    """Raise unless every span name in must_call was recorded at least once."""
    seen = {span[0] for span in spans}
    absent = [name for name in must_call if name not in seen]
    if absent:
        raise TraceIntegrityError("entry points recorded zero calls: " + ", ".join(absent))
