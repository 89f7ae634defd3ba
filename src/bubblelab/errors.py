"""Exception types shared across the package."""


class BubbleLabError(Exception):
    """Base class for all package errors."""


class GeometryError(BubbleLabError):
    """Invalid mesh or geometric input (open mesh where closed is required, ...)."""


class ContrastError(BubbleLabError):
    """Contrast law violated, e.g. bubble density not below the background."""


class ResonanceError(BubbleLabError):
    """Scattering coefficient requested at (or too close to) the resonance."""


class RegimeError(BubbleLabError):
    """Parameters fall outside every analyzed regime, or wrong branch requested."""


class PlacementError(BubbleLabError):
    """Cluster construction could not satisfy the spacing constraints."""


class SolverError(BubbleLabError):
    """A linear solve failed or did not reach the required residual."""

    def __init__(self, message, cond_estimate=None, iterations=None):
        super().__init__(message)
        self.cond_estimate = cond_estimate
        self.iterations = iterations


class AllocationError(SolverError):
    """A dense matrix is over the dense budget or could not be allocated; ``nbytes`` is its size."""

    def __init__(self, message, nbytes):
        super().__init__(message)
        self.nbytes = nbytes


class ConfigError(BubbleLabError):
    """Malformed or inconsistent experiment configuration."""
