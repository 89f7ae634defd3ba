"""Numerical laboratory for acoustic scattering by dense micro-bubble clusters.

Point-interaction (multiple-scattering) solves on explicitly constructed
bubble distributions, their effective-medium comparators (volume potentials,
metasurface transmission jumps, Dirichlet limits) and a convergence harness
that tabulates far-field discrepancies across a radius-scale sweep.
"""

__version__ = "0.1.0"

from .errors import (
    AllocationError,
    BubbleLabError,
    ConfigError,
    ContrastError,
    GeometryError,
    PlacementError,
    RegimeError,
    ResonanceError,
    SolverError,
)
from .materials import BubbleSpec, ContrastParams, classify_regime

__all__ = [
    "AllocationError",
    "BubbleLabError",
    "BubbleSpec",
    "ConfigError",
    "ContrastError",
    "ContrastParams",
    "GeometryError",
    "PlacementError",
    "RegimeError",
    "ResonanceError",
    "SolverError",
    "classify_regime",
]
