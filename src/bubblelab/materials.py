"""Physical parameters, scattering coefficient, Minnaert resonance, regimes.

Conventions used throughout the package:

* The bubble density obeys the contrast law rho_b(a) = C_rho * a**(1+gamma) * rho0
  with gamma in [0, 1]; the bubble modulus follows from the fixed speed ratio
  tau = kappa_b^2 / kappa0^2, i.e. k_b(a) = rho_b(a) * k0 / (rho0 * tau).
* "Reduced" bubble quantities are taken at unit radius scale:
  k_ref = k_b(a) / a**(1+gamma) = C_rho * k0 / tau.  All effective-medium
  coefficients are expressed with k_ref so that they have finite limits.
* The reference bubble shape B has O(1) diameter; the physical bubble is a*B,
  so its volume is a^3 |B| and its boundary shape factor scales as a^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .errors import ConfigError, ContrastError, GeometryError, RegimeError, ResonanceError
from .meshes import SurfaceMesh, boundary_shape_factor, cube_mesh, icosphere

# closed form of the chord-direction boundary integral for the unit sphere
SPHERE_SHAPE_FACTOR = -8.0 * math.pi / 3.0

_EQ_TOL = 1e-9  # tolerance for "exponent equals" checks like gamma + s = 2


@dataclass(frozen=True)
class BubbleSpec:
    """Reference bubble shape: boundary mesh, volume and boundary shape factor."""

    boundary_mesh: SurfaceMesh
    volume: float
    shape_factor: float

    def __post_init__(self):
        if self.volume <= 0:
            raise GeometryError("reference bubble volume must be positive")
        if not self.shape_factor < 0:
            raise GeometryError("boundary shape factor must be negative (convex-like shape)")

    @staticmethod
    def sphere(radius: float = 1.0) -> "BubbleSpec":
        """Spherical bubble: closed-form volume and shape factor, a level-2 icosphere."""
        return BubbleSpec(
            boundary_mesh=icosphere(2, radius=radius),
            volume=4.0 * math.pi * radius**3 / 3.0,
            shape_factor=SPHERE_SHAPE_FACTOR * radius**2,
        )

    @staticmethod
    def cube(n: int = 6, side: float = 1.0) -> "BubbleSpec":
        return BubbleSpec.from_mesh(cube_mesh(n, side=side))

    @staticmethod
    def from_mesh(mesh: SurfaceMesh) -> "BubbleSpec":
        mesh.require_closed()
        vol = mesh.enclosed_volume()
        if vol <= 0:
            raise GeometryError("mesh must be outward-oriented (positive enclosed volume)")
        return BubbleSpec(boundary_mesh=mesh, volume=vol, shape_factor=boundary_shape_factor(mesh))


@dataclass(frozen=True)
class ContrastParams:
    """Background medium, contrast law, frequency and distribution exponents.

    ``s`` is the density exponent (bubble count ~ a^-s), ``t`` the spacing
    exponent (min distance ~ a^t).  Near-resonance runs supply ``h1`` and
    ``l_m`` with 1 - omega_M^2/omega^2 = l_m * a^h1; away runs leave them None
    and are gated by the resonance floor ``l0``.  ``lambda_k`` is the Holder
    exponent of the density field K (enters error-rate ledgers only).
    """

    rho0: float = 1.0
    k0: float = 1.0
    c_rho: float = 1.0
    gamma: float = 1.0
    tau: float = 1.0
    omega: float = 1.0
    s: float = 1.0
    t: float = 0.4
    h1: Optional[float] = None
    l_m: Optional[float] = None
    lambda_k: float = 1.0
    l0: float = 0.1

    def __post_init__(self):
        for name in ("rho0", "k0", "c_rho", "tau", "omega"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must lie in [0, 1]")
        if self.s < 0 or self.t < 0:
            raise ConfigError("distribution exponents s, t must be non-negative")
        if (self.h1 is None) != (self.l_m is None):
            raise ConfigError("near-resonance parameters h1 and l_m come as a pair")
        if self.h1 is not None:
            if not 0.0 < self.h1 < 1.0:
                raise ConfigError("h1 must lie in (0, 1)")
            if self.l_m == 0:
                raise ConfigError("l_m must be non-zero")
            if abs(self.gamma - 1.0) > _EQ_TOL:
                raise ConfigError("near-resonance parameters require gamma = 1")
        if not 0.0 < self.lambda_k <= 1.0:
            raise ConfigError("lambda_k must lie in (0, 1]")
        if self.l0 <= 0:
            raise ConfigError("resonance floor l0 must be positive")

    # -- derived material laws -------------------------------------------

    @property
    def near_resonance(self) -> bool:
        return self.h1 is not None

    @property
    def a_max(self) -> float:
        """Largest radius scale with rho_b < rho0 under the contrast law."""
        return self.c_rho ** (-1.0 / (1.0 + self.gamma))

    def check_radius(self, a: float):
        if not 0 < a < self.a_max:
            raise ContrastError(
                f"radius scale a={a!r} violates rho_b < rho0 (needs 0 < a < {self.a_max!r})"
            )

    def rho_b(self, a: float) -> float:
        """Bubble density C_rho * a^(1+gamma) * rho0; rejects a >= threshold."""
        self.check_radius(a)
        return self.c_rho * a ** (1.0 + self.gamma) * self.rho0

    def k_b(self, a: float) -> float:
        """Bubble bulk modulus from the fixed relative speed ratio tau."""
        return self.rho_b(a) * self.k0 / (self.rho0 * self.tau)

    @property
    def k_ref(self) -> float:
        """Reduced bubble modulus k_b(a) / a^(1+gamma) (a-independent)."""
        return self.c_rho * self.k0 / self.tau

    @property
    def kappa0(self) -> float:
        return self.omega * math.sqrt(self.rho0 / self.k0)

    @property
    def kappa_b(self) -> float:
        """Interior wavenumber; equals sqrt(tau) * kappa0 for every a."""
        return math.sqrt(self.tau) * self.kappa0


def minnaert_frequencies(bubble: BubbleSpec, params: ContrastParams, a: float):
    """Squared Minnaert resonance of the bubble a*B and its small-a limit.

    Returns (omega_m_sq, omega_m_sq_limit) with
    omega_m_sq = 8 pi k_b / ((rho_b - rho0) * a^2 * shape_factor) and
    omega_m_sq_limit = -8 pi k_b / (rho0 * a^2 * shape_factor); the two agree
    up to O(a^2) for gamma = 1 (the limit is then a-independent).
    """
    rho_b = params.rho_b(a)  # raises on contrast violation
    k_b = params.k_b(a)
    scaled = a * a * bubble.shape_factor
    omega_m_sq = 8.0 * math.pi * k_b / ((rho_b - params.rho0) * scaled)
    omega_limit_sq = -8.0 * math.pi * k_b / (params.rho0 * scaled)
    return omega_m_sq, omega_limit_sq


def omega_at_gap(bubble: BubbleSpec, params: ContrastParams, a: float) -> ContrastParams:
    """Frequency pinned to the configured resonance gap at radius scale a.

    Solves 1 - omega_M^2/omega^2 = l_m * a^h1 for omega and returns updated
    parameters; requires l_m * a^h1 < 1.
    """
    if not params.near_resonance:
        raise RegimeError("omega_at_gap needs near-resonance parameters (h1, l_m)")
    gap = params.l_m * a**params.h1
    if gap >= 1.0:
        raise RegimeError(f"resonance gap l_m*a^h1 = {gap!r} must be < 1")
    omega_m_sq, _ = minnaert_frequencies(bubble, params, a)
    return replace(params, omega=math.sqrt(omega_m_sq / (1.0 - gap)))


def omega_at_ratio(bubble: BubbleSpec, params: ContrastParams, ratio: float) -> ContrastParams:
    """Frequency fixed as a multiple of the limiting Minnaert frequency."""
    if ratio <= 0:
        raise ConfigError("frequency ratio must be positive")
    a_probe = 0.5 * params.a_max
    _, limit_sq = minnaert_frequencies(bubble, params, a_probe)
    if abs(params.gamma - 1.0) > _EQ_TOL:
        raise RegimeError("omega_at_ratio is meaningful only for gamma = 1")
    return replace(params, omega=ratio * math.sqrt(limit_sq))


def _gate_away(params: ContrastParams, omega_m_sq: float):
    gap = 1.0 - omega_m_sq / params.omega**2
    if abs(gap) < params.l0:
        raise ResonanceError(
            f"|1 - omega_M^2/omega^2| = {abs(gap):.3e} below the away floor l0={params.l0}"
        )


def _gate_near(params: ContrastParams, omega_m_sq: float, a: float):
    implied = (1.0 - omega_m_sq / params.omega**2) / a**params.h1
    if not math.isfinite(implied) or abs(implied - params.l_m) > 0.1 * abs(params.l_m):
        raise RegimeError(
            f"near-resonance gate: implied l_m {implied!r} deviates from configured "
            f"{params.l_m!r} by more than 10%"
        )


def scattering_coefficient(bubble: BubbleSpec, params: ContrastParams, a: float) -> complex:
    """Monopole scattering coefficient C of one bubble at radius scale a.

    C = kappa_b^2 |D| / (rho_b/(rho_b - rho0) - kappa_b^2 A / (8 pi)) with
    |D| = a^3 |B| and A = a^2 * shape_factor.  The away/near branch is gated
    before construction so the resonance denominator stays bounded away from
    zero; the sign of C follows the frequency side of the resonance for
    gamma = 1.  C scales like a^(2-gamma) away from resonance and like
    a^(1-h1) near it.
    """
    rho_b = params.rho_b(a)
    omega_m_sq, _ = minnaert_frequencies(bubble, params, a)
    if params.near_resonance:
        _gate_near(params, omega_m_sq, a)
    elif abs(params.gamma - 1.0) <= _EQ_TOL:
        _gate_away(params, omega_m_sq)

    kb2 = params.kappa_b**2
    scaled_sf = a * a * bubble.shape_factor
    volume = a**3 * bubble.volume
    # the denominator shrinks like a^(1+gamma) with its first term, so the
    # zero test is relative to that term
    first = rho_b / (rho_b - params.rho0)
    denom = first - kb2 * scaled_sf / (8.0 * math.pi)
    if abs(denom) <= 1e-12 * abs(first):
        raise ResonanceError("scattering coefficient evaluated at the resonance denominator zero")
    return complex(kb2 * volume / denom)


def leading_coefficient(bubble: BubbleSpec, params: ContrastParams, a: float) -> float:
    """a-independent leading amplitude of C / a^(2-gamma).

    gamma < 1:  -omega^2 |B| rho0 / k_ref, relative remainder O(a^(1-gamma));
    gamma = 1 away: -omega^2 |B| (rho0/k_ref) / (1 - omega^2/omega_limit^2),
    relative remainder O(a^2).
    """
    if params.near_resonance:
        raise RegimeError("leading coefficient is an away-branch expansion; near parameters set")
    base = -params.omega**2 * bubble.volume * params.rho0 / params.k_ref
    if params.gamma < 1.0 - _EQ_TOL:
        return base
    omega_m_sq, omega_limit_sq = minnaert_frequencies(bubble, params, a)
    _gate_away(params, omega_m_sq)
    return base / (1.0 - params.omega**2 / omega_limit_sq)


def medium_coefficient(bubble: BubbleSpec, params: ContrastParams, a: float) -> float:
    """a-independent amplitude of the equivalent medium's potential or density.

    The leading coefficient away from the resonance; near it the reduced
    coefficient C / a^(1-h1) = omega_limit^2 |B| rho0 / (l_m k_ref), once C
    has passed its gate.  It is multiplied by (K + 1) per point.  Its sign
    flips across the limiting Minnaert resonance.  Expects row-resolved
    parameters (omega already pinned for radius scale a).
    """
    if not params.near_resonance:
        return leading_coefficient(bubble, params, a)
    scattering_coefficient(bubble, params, a)  # raises where the row's C does
    _, omega_limit_sq = minnaert_frequencies(bubble, params, a)
    return omega_limit_sq * bubble.volume * params.rho0 / (params.l_m * params.k_ref)


# ---------------------------------------------------------------------------
# regime classification


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    satisfied: tuple  # ((condition-name, bool), ...)
    scale_of_c: float


REGIMES = ("Low", "MediumVolumetricA", "MediumVolumetricB", "MediumNearResonance", "High")


def classify_regime(params: ContrastParams) -> RegimeReport:
    """Evaluate every analyzed-regime inequality and classify the parameters.

    The ledger carries the base validity window, the algebraic-system
    invertibility cases, the low/medium conditions and both high-regime
    inequality chains (volumetric and surface variants, which differ only in
    the density-exponent cap).  Pure function of its input.
    """
    g, s, t, lam = params.gamma, params.s, params.t, params.lambda_k
    near = params.near_resonance
    h1 = params.h1 if near else None
    l_m = params.l_m if near else None
    away = not near

    ledger = []

    def add(name, value):
        ledger.append((name, bool(value)))
        return bool(value)

    base_t = add("base: 0 <= t < 1/2", 0.0 <= t < 0.5)
    base_s = add("base: 0 <= s <= 3/2", 0.0 <= s <= 1.5)
    base_g = add("base: 0 <= gamma <= 1", 0.0 <= g <= 1.0)
    base_sum = add("base: s + gamma <= 2", s + g <= 2.0 + _EQ_TOL)

    add(
        "fl-invert-1a: away, s/3 <= t <= 1, gamma+s <= 2",
        away and s / 3.0 - _EQ_TOL <= t <= 1.0 and s + g <= 2.0 + _EQ_TOL,
    )
    add(
        "fl-invert-1b: l_m < 0, s/3 <= t <= 1, s + h1 <= 1",
        near and l_m < 0 and s / 3.0 - _EQ_TOL <= t <= 1.0 and s + h1 <= 1.0 + _EQ_TOL,
    )
    add(
        "fl-invert-2a: l_m > 0, t <= 1 - h1, s <= 1 (min cos(k0 d) > 0 reported at solve time)",
        near and l_m > 0 and t <= 1.0 - h1 + _EQ_TOL and s <= 1.0 + _EQ_TOL,
    )
    add(
        "fl-invert-2b: l_m > 0, s/3 <= t <= 1, s + h1 <= 1",
        near and l_m > 0 and s / 3.0 - _EQ_TOL <= t <= 1.0 and s + h1 <= 1.0 + _EQ_TOL,
    )

    low = add(
        "low: (gamma<1, gamma+s<2) or (away, s<1) or (near, s+h1<1)",
        (g < 1.0 - _EQ_TOL and away and g + s < 2.0 - _EQ_TOL)
        or (abs(g - 1.0) <= _EQ_TOL and away and s < 1.0 - _EQ_TOL)
        or (near and s + h1 < 1.0 - _EQ_TOL),
    )

    medium_t = add("medium: s/3 <= t < 1/2", s / 3.0 - _EQ_TOL <= t < 0.5)
    med_a = add(
        "medium-a: gamma < 1 and gamma + s = 2",
        away and g < 1.0 - _EQ_TOL and abs(g + s - 2.0) <= _EQ_TOL and medium_t,
    )
    med_b = add(
        "medium-b: gamma = 1, s = 1, away",
        away and abs(g - 1.0) <= _EQ_TOL and abs(s - 1.0) <= _EQ_TOL and medium_t,
    )
    med_near = add(
        "medium-near: s = 1 - h1 and s/3 <= t < min(1-h1, 1/2)",
        near
        and abs(s - (1.0 - h1)) <= _EQ_TOL
        and s / 3.0 - _EQ_TOL <= t < min(1.0 - h1, 0.5),
    )

    hi_common = []
    hi_common.append(add("high: l_m > 0", near and l_m > 0))
    hi_common.append(add("high: h1 < 1/6", near and h1 < 1.0 / 6.0 - _EQ_TOL))
    hi_common.append(add("high: 0 < 1 - h1 < s", near and 0.0 < 1.0 - h1 < s - _EQ_TOL))
    hi_common.append(add("high: s <= 3t", near and s <= 3.0 * t + _EQ_TOL))
    hi_common.append(
        add("high: 3t < 3/2 - t - h1", near and 3.0 * t < 1.5 - t - h1 - _EQ_TOL)
    )
    hi_vol_cap = add(
        "high-vol: 3t < (1 + 2*lambda/15)(1 - h1)",
        near and 3.0 * t < (1.0 + 2.0 * lam / 15.0) * (1.0 - h1) - _EQ_TOL,
    )
    hi_sur_cap = add(
        "high-sur: 3t < (1 + lambda/7)(1 - h1)",
        near and 3.0 * t < (1.0 + lam / 7.0) * (1.0 - h1) - _EQ_TOL,
    )
    high_vol = all(hi_common) and hi_vol_cap
    high_sur = all(hi_common) and hi_sur_cap
    add("high: volumetric chain", high_vol)
    add("high: surface chain", high_sur)

    if not (base_t and base_s and base_g):
        raise RegimeError(
            "parameters outside the analyzed window: "
            + ", ".join(name for name, ok in ledger if name.startswith("base") and not ok)
        )

    if near:
        if s + h1 > 1.0 + _EQ_TOL:
            if high_vol or high_sur:
                regime = "High"
            else:
                raise RegimeError("s + h1 > 1 but the high-regime inequality chain fails")
        elif med_near:
            regime = "MediumNearResonance"
        elif low:
            regime = "Low"
        else:
            raise RegimeError("near-resonance parameters fit no analyzed regime")
    else:
        if med_a or med_b:
            regime = "MediumVolumetricA" if med_a else "MediumVolumetricB"
        elif low:
            regime = "Low"
        else:
            raise RegimeError(
                "away-from-resonance parameters fit no analyzed regime "
                f"(gamma={g!r}, s={s!r}, t={t!r})"
            )

    scale = 1.0 - h1 if near else 2.0 - g
    add(f"regime:{regime}", True)
    for other in REGIMES:
        if other != regime:
            add(f"regime:{other}", False)
    return RegimeReport(regime=regime, satisfied=tuple(ledger), scale_of_c=scale)
