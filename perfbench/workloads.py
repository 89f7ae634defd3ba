"""Workload definitions: generated configs and required layers.

Each workload is one `bubblelab converge` run on a config that this module
generates from a size ("full" for measurement, "tiny" for the benchmark's own
tests) and the benchmark seed.  The seed is written into the config's `seed`
key.  Only `fl_sweep` depends on it: its constant density K = 1 puts one
seeded, jittered extra centre in every lattice cell.  The other two inputs
are a fixed mesh and a fixed voxel grid whose outputs do not change with the
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

REFERENCE_SEED = 1
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool  # outputs depend on the seed
    must_call: tuple  # span names the traced run has to record at least once

    def config(self, seed: int, size: str = "full") -> dict:
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}")
        doc = _CONFIGS[self.name](size == "tiny")
        doc["seed"] = int(seed)
        return doc


# entry points every `converge` run reaches
_CONVERGE = ("harness.run", "harness.fit", "harness.write", "materials.coeff",
             "meshes.mesh", "cluster.build", "pointscat.assemble", "pointscat.solve",
             "pointscat.far_field")


def _fl_sweep(tiny: bool) -> dict:
    return {
        "geometry": {"kind": "box", "size": [1, 1, 1],
                     "density": {"kind": "constant", "value": 1.0}},
        "bubble": {"shape": "sphere"},
        "contrast": {"gamma": 1.0, "s": 1.0, "t": 0.4, "omega_ratio": 0.8},
        "regime": "MediumVolumetricB",
        "a_sequence": [0.02, 0.01, 0.008] if tiny else [0.004, 0.002, 0.0014],
        "directions": {"n": 200, "theta_sweep": 2},
        "tolerances": {"grid_n": 12 if tiny else 20},
    }


def _screen_bem(tiny: bool) -> dict:
    return {
        "geometry": {"kind": "sphere_cap", "radius": 1.0, "theta_max": math.pi / 4,
                     "density": {"kind": "constant", "value": 0.0}},
        # a cube bubble has no closed-form shape factor: set-up runs the quadrature
        "bubble": {"shape": "cube", "n": 6},
        "contrast": {"gamma": 1.0, "s": 0.95, "t": 0.33, "h1": 0.1, "l_m": 0.01,
                     "lambda_k": 0.9},
        "regime": "High",
        "a_sequence": [0.008, 0.006, 0.004] if tiny else [0.004, 0.003, 0.002],
        "directions": 200,
        "tolerances": {"d_min": 0.1, "mesh_rings": 8 if tiny else 16,
                       "mesh_nphi": 24 if tiny else 48},
    }


def _ls_fft(tiny: bool) -> dict:
    return {
        "geometry": {"kind": "box", "size": [1, 1, 1],
                     "density": {"kind": "constant", "value": 0.0}},
        "bubble": {"shape": "sphere"},
        "contrast": {"gamma": 1.0, "s": 0.7, "t": 0.3, "h1": 0.3, "l_m": -1.0,
                     "lambda_k": 0.9},
        "regime": "MediumNearResonance",
        "a_sequence": [0.002, 0.001, 0.0005],
        "directions": 200,
        # above direct_max = 4096 cells, so the FFT + LGMRES path runs
        "tolerances": {"grid_n": 17 if tiny else 36},
    }


_CONFIGS = {
    "fl_sweep": _fl_sweep,
    "screen_bem": _screen_bem,
    "ls_fft": _ls_fft,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fl_sweep", True,
            _CONVERGE + ("volmedium.grid", "volmedium.solve", "volmedium.far_field"),
        ),
        Workload(
            "screen_bem", False,
            _CONVERGE + ("meshes.shape_factor", "surfmedium.weights", "bemlimit.solve"),
        ),
        Workload(
            "ls_fft", False,
            _CONVERGE + ("volmedium.grid", "volmedium.solve", "volmedium.far_field"),
        ),
    )
}
