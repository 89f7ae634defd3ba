"""Far-field containers, direction grids and the shared CSV schema.

All far fields in this package use the kernel convention: the far-field
amplitude of a unit point source at y is e^{-i k x_hat . y}, i.e. patterns are
4*pi times the e^{ikr}/r amplitude.  Near-to-far consistency checks apply the
4*pi factor explicitly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

CSV_HEADER = ["x_hat_x", "x_hat_y", "x_hat_z", "re", "im"]


def fibonacci_directions(n: int = 200) -> np.ndarray:
    """n quasi-uniform unit vectors on the sphere (golden-angle lattice)."""
    if n < 1:
        raise ConfigError("direction grid needs at least one point")
    i = np.arange(n)
    z = (2.0 * i + 1.0) / n - 1.0
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


@dataclass(frozen=True)
class FarField:
    """Complex pattern samples on a unit-direction grid."""

    directions: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if d.ndim != 2 or d.shape[1] != 3 or len(v) != len(d):
            raise ConfigError("directions must be (n, 3) with matching values")
        if np.any(np.abs(np.linalg.norm(d, axis=1) - 1.0) > 1e-12):
            raise ConfigError("directions must be unit vectors")
        if not np.all(np.isfinite(v.view(float))):
            raise ConfigError("far-field values must be finite")
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "values", v)

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def sup_diff(self, other: "FarField") -> float:
        if not np.array_equal(self.directions, other.directions):
            raise ConfigError("far fields sampled on different direction grids")
        return float(np.abs(self.values - other.values).max())

    def save_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for d, v in zip(self.directions, self.values):
                writer.writerow([repr(float(x)) for x in (*d, v.real, v.imag)])

