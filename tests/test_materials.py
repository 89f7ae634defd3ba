import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab.errors import ConfigError, ContrastError, RegimeError, ResonanceError
from bubblelab.materials import (
    SPHERE_SHAPE_FACTOR,
    BubbleSpec,
    ContrastParams,
    classify_regime,
    leading_coefficient,
    medium_coefficient,
    minnaert_frequencies,
    omega_at_gap,
    omega_at_ratio,
    scattering_coefficient,
)


@pytest.fixture(scope="module")
def sphere():
    return BubbleSpec.sphere()


def worked_params(**kw):
    """rho0 = 1, k_b(1) = 1, rho_b(1) = 0.5 at a = 1 (the worked sphere case)."""
    base = dict(rho0=1.0, k0=2.0, c_rho=0.5, gamma=1.0, tau=1.0, omega=1.0, s=1.0, t=0.4)
    base.update(kw)
    return ContrastParams(**base)


def test_minnaert_worked_sphere_value(sphere):
    # k_b = 1, rho_b = 0.5, shape factor -8 pi/3 at a = 1 -> omega_M^2 = 6
    p = worked_params()
    assert abs(p.rho_b(1.0) - 0.5) < 1e-15
    assert abs(p.k_b(1.0) - 1.0) < 1e-15
    w2, w2lim = minnaert_frequencies(sphere, p, 1.0)
    assert abs(w2 - 6.0) < 1e-10
    assert abs(w2lim - 3.0) < 1e-10


def test_minnaert_classical_law(sphere):
    # omega_M^2 * (1 - rho_b/rho0) equals the classical 3 k_b/(rho0 a^2) exactly
    # for the sphere (the rho_b -> 0 reduction of the resonance formula)
    p = worked_params(c_rho=1e-6)
    for a in (0.5, 0.1):
        w2, _ = minnaert_frequencies(sphere, p, a)
        classical = 3.0 * p.k_b(a) / (p.rho0 * a**2)
        assert abs(w2 * (1.0 - p.rho_b(a) / p.rho0) - classical) < 1e-10 * classical


def test_minnaert_contrast_violation(sphere):
    p = worked_params()
    with pytest.raises(ContrastError):
        minnaert_frequencies(sphere, p, p.a_max * 1.01)
    with pytest.raises(ContrastError):
        minnaert_frequencies(sphere, p, p.a_max)


def test_minnaert_limit_slope_two(sphere):
    # omega_M^2(a) - limit = O(a^2): fitted log-log slope in [1.8, 2.2]
    p = worked_params()
    avals = np.array([1e-1, 1e-2, 1e-3])
    gaps = []
    for a in avals:
        w2, w2lim = minnaert_frequencies(sphere, p, a)
        gaps.append(abs(w2 - w2lim))
    slope = np.polyfit(np.log(avals), np.log(gaps), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_scattering_sign_rule_away(sphere):
    a = 1e-2
    p = worked_params()
    w2, _ = minnaert_frequencies(sphere, p, a)
    below = scattering_coefficient(sphere, replace(p, omega=0.8 * math.sqrt(w2)), a)
    above = scattering_coefficient(sphere, replace(p, omega=1.25 * math.sqrt(w2)), a)
    assert below.real < 0 and above.real > 0
    assert below.imag == 0.0 and above.imag == 0.0


def test_scattering_gate_blocks_resonant_frequency(sphere):
    a = 1e-2
    p = worked_params()
    w2, _ = minnaert_frequencies(sphere, p, a)
    with pytest.raises(ResonanceError):
        scattering_coefficient(sphere, replace(p, omega=math.sqrt(w2) * 1.0001), a)


def test_scattering_exactly_zero_denominator_raises(sphere):
    # at a = 1: rho_b/(rho_b - rho0) = -1 and kappa_b^2 A/(8 pi) = -1, both exact;
    # gamma != 1 skips the away-resonance gate
    p = ContrastParams(rho0=1.0, k0=1.0, c_rho=0.5, gamma=0.5, tau=1.0, omega=1.0)
    with pytest.raises(ResonanceError):
        scattering_coefficient(replace(sphere, shape_factor=-8.0 * math.pi), p, 1.0)


def test_scattering_near_resonance_identity(sphere):
    # C = -8 pi |D| / (l_m a^h1 A) and C = reduced * a^(1-h1), both exactly;
    # the reduced amplitude is the near-resonance medium coefficient
    a = 1e-3
    p = worked_params(h1=0.25, l_m=2.0)
    p = omega_at_gap(sphere, p, a)
    coeff = scattering_coefficient(sphere, p, a)
    volume = a**3 * sphere.volume
    scaled_sf = a**2 * sphere.shape_factor
    direct = -8.0 * math.pi * volume / (p.l_m * a**p.h1 * scaled_sf)
    assert abs(coeff - direct) <= 1e-12 * abs(direct)
    reduced = medium_coefficient(sphere, p, a)
    assert abs(coeff - reduced * a ** (1 - p.h1)) <= 1e-12 * abs(coeff)


def test_scattering_near_gate_rejects_inconsistent_lm(sphere):
    a = 1e-3
    p = omega_at_gap(sphere, worked_params(h1=0.25, l_m=2.0), a)
    with pytest.raises(RegimeError):
        scattering_coefficient(sphere, replace(p, l_m=3.0), a)
    with pytest.raises(RegimeError):  # the medium coefficient passes the same gate
        medium_coefficient(sphere, replace(p, l_m=3.0), a)


def test_reduced_coefficient_worked_value(sphere):
    # unit constants, l_m = 1: reduced = limit^2 * (4 pi/3)
    a = 1e-3
    p = ContrastParams(rho0=1.0, k0=1.0, c_rho=1.0, tau=1.0, gamma=1.0, h1=0.5, l_m=1.0, s=0.5, t=0.2)
    assert p.k_ref == 1.0
    p = omega_at_gap(sphere, p, a)
    reduced = medium_coefficient(sphere, p, a)
    _, w2lim = minnaert_frequencies(sphere, p, a)
    assert abs(reduced - w2lim * (4 * math.pi / 3)) < 1e-12 * abs(reduced)


def test_leading_coefficient_small_gamma(sphere):
    # gamma = 0.5: C/a^1.5 -> -omega^2 |B| rho0/k_ref with O(a^0.5) remainder
    p = ContrastParams(rho0=1.0, k0=1.0, c_rho=1.0, tau=1.0, gamma=0.5, omega=1.0, s=1.5, t=0.5)
    lead = leading_coefficient(sphere, p, 1e-2)
    assert abs(lead + p.omega**2 * sphere.volume * p.rho0 / p.k_ref) < 1e-14
    order = 0.5  # 1 - gamma
    avals = [1e-2, 1e-3, 1e-4]
    errs = []
    for a in avals:
        c = scattering_coefficient(sphere, p, a)
        errs.append(abs(c / a**1.5 - lead))
    # decay consistent with a^0.5: each decade shrinks the error by ~sqrt(10)
    for e0, e1 in zip(errs, errs[1:]):
        assert e1 < e0 * 10 ** (-0.5) * 2.0
    slope = np.polyfit(np.log(avals), np.log(errs), 1)[0]
    assert abs(slope - order) < 0.2


def test_leading_coefficient_away_value_and_slope(sphere):
    # omega^2 = limit^2/2 -> leading = -2 omega^2 |B| rho0/k_ref; remainder O(a^2)
    p = worked_params()
    _, w2lim = minnaert_frequencies(sphere, p, 1e-2)
    p = replace(p, omega=math.sqrt(w2lim / 2.0))
    lead = leading_coefficient(sphere, p, 1e-2)
    expected = -2.0 * p.omega**2 * sphere.volume * p.rho0 / p.k_ref
    assert abs(lead - expected) < 1e-12 * abs(expected)
    avals = [1e-1, 1e-2, 1e-3]
    errs = [abs(scattering_coefficient(sphere, p, a) / a - lead) for a in avals]
    slope = np.polyfit(np.log(avals), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.2


def test_leading_coefficient_wrong_branch(sphere):
    p = worked_params(h1=0.2, l_m=1.0)
    with pytest.raises(RegimeError):
        leading_coefficient(sphere, p, 1e-2)


def test_sign_flip_bisection_at_resonance(sphere):
    # bisection on omega locates the sign flip of C at omega_M to 1e-8 relative;
    # the sign rule C >< 0 iff omega >< omega_M is exact at every radius scale
    a = 0.3
    p = worked_params(l0=1e-12)
    w2, _ = minnaert_frequencies(sphere, p, a)
    target = math.sqrt(w2)

    def sign_at(omega):
        return scattering_coefficient(sphere, replace(p, omega=omega), a).real > 0

    lo, hi = 0.5 * target, 1.7 * target
    assert not sign_at(lo) and sign_at(hi)
    while hi - lo > 1e-9 * target:
        mid = 0.5 * (lo + hi)
        if sign_at(mid):
            hi = mid
        else:
            lo = mid
    assert abs(0.5 * (lo + hi) - target) <= 1e-8 * target


def test_effective_index_cases(sphere):
    # The volume comparator's index: background omega^2 rho0/k0 minus the
    # potential (K+1) * medium_coefficient, here at K = 0.
    a = 1e-3

    def index(params, background_sq):
        return background_sq * params.rho0 / params.k0 - medium_coefficient(sphere, params, a)

    # case a with unit constants: n = 1 + 4 pi/3
    pa = ContrastParams(gamma=0.5, s=1.5, t=0.5, omega=1.0)
    assert abs(index(pa, pa.omega**2) - (1 + 4 * math.pi / 3)) < 1e-12
    # case b: the added term flips sign across the limiting resonance
    pb = ContrastParams(gamma=1.0, s=1.0, t=0.4)
    lim = -8 * math.pi * pb.k_ref / (pb.rho0 * sphere.shape_factor)
    below = replace(pb, omega=0.8 * math.sqrt(lim))
    above = replace(pb, omega=1.3 * math.sqrt(lim))
    back_b = below.omega**2 * pb.rho0 / pb.k0
    back_a = above.omega**2 * pb.rho0 / pb.k0
    assert index(below, below.omega**2) - back_b > 0
    assert index(above, above.omega**2) - back_a < 0  # more transmission above the resonance
    # near the resonance, on the limit background: n < limit^2 rho0/k0 for l_m > 0
    pn = omega_at_gap(sphere, ContrastParams(gamma=1.0, h1=0.2, l_m=1.0, s=0.8, t=0.3), a)
    assert index(pn, lim) < lim * pn.rho0 / pn.k0


def test_surface_sigma_cases(sphere):
    # The surface comparator's density at K = 0 is medium_coefficient itself.
    # case a (gamma < 1), unit constants: -omega^2 |B| rho0 / k_ref = -4 pi/3
    a = 1e-3
    pa = ContrastParams(gamma=0.5, s=1.5, t=0.5, omega=1.0)
    assert abs(medium_coefficient(sphere, pa, a) + 4 * math.pi / 3) < 1e-12
    # case b (gamma = 1 away): the sign flips across the limiting resonance
    pb = ContrastParams(gamma=1.0, s=1.0, t=0.4)
    lim = -8 * math.pi * pb.k_ref / (pb.rho0 * sphere.shape_factor)
    assert medium_coefficient(sphere, replace(pb, omega=0.8 * math.sqrt(lim)), a) < 0
    assert medium_coefficient(sphere, replace(pb, omega=1.3 * math.sqrt(lim)), a) > 0
    # near the resonance, l_m = 1: limit^2 |B| rho0 / (l_m k_ref) = limit^2 * 4 pi/3
    pn = omega_at_gap(sphere, ContrastParams(gamma=1.0, h1=0.2, l_m=1.0, s=0.8, t=0.3), a)
    assert abs(medium_coefficient(sphere, pn, a) - lim * 4 * math.pi / 3) < 1e-12


def test_classify_worked_examples():
    r1 = classify_regime(ContrastParams(gamma=0.7, s=1.3, t=0.45))
    assert r1.regime == "MediumVolumetricA"
    assert r1.scale_of_c == pytest.approx(1.3)

    r2 = classify_regime(ContrastParams(gamma=1.0, s=0.5, t=0.2))
    assert r2.regime == "Low"
    assert r2.scale_of_c == pytest.approx(1.0)

    r3 = classify_regime(
        ContrastParams(gamma=1.0, s=0.95, t=0.33, h1=0.1, l_m=1.0, lambda_k=0.9)
    )
    assert r3.regime == "High"
    ledger = dict(r3.satisfied)
    # every high-chain inequality, including both density-exponent caps
    assert ledger["high: l_m > 0"]
    assert ledger["high: h1 < 1/6"]
    assert ledger["high: 0 < 1 - h1 < s"]
    assert ledger["high: s <= 3t"]
    assert ledger["high: 3t < 3/2 - t - h1"]
    assert ledger["high-vol: 3t < (1 + 2*lambda/15)(1 - h1)"]
    assert ledger["high-sur: 3t < (1 + lambda/7)(1 - h1)"]
    assert r3.scale_of_c == pytest.approx(0.9)


def test_classify_high_ledger_matches_hand_arithmetic():
    # s=0.95, t=0.33, h1=0.1, lambda=0.9: 3t=0.99 < min(1.07, 1.008) and < 1.0157
    p = ContrastParams(gamma=1.0, s=0.95, t=0.33, h1=0.1, l_m=1.0, lambda_k=0.9)
    led = dict(classify_regime(p).satisfied)
    assert (3 * 0.33 < 1.5 - 0.33 - 0.1) == led["high: 3t < 3/2 - t - h1"]
    assert (3 * 0.33 < (1 + 2 * 0.9 / 15) * 0.9) == led["high-vol: 3t < (1 + 2*lambda/15)(1 - h1)"]
    assert (3 * 0.33 < (1 + 0.9 / 7) * 0.9) == led["high-sur: 3t < (1 + lambda/7)(1 - h1)"]


def test_classify_medium_near_and_errors():
    r = classify_regime(ContrastParams(gamma=1.0, s=0.7, t=0.3, h1=0.3, l_m=-1.0))
    assert r.regime == "MediumNearResonance"
    assert r.scale_of_c == pytest.approx(0.7)
    # near params with gamma < 1 are contradictory
    with pytest.raises(ConfigError):
        ContrastParams(gamma=0.5, h1=0.3, l_m=1.0)
    # away, s > 1 fits no analyzed regime
    with pytest.raises(RegimeError):
        classify_regime(ContrastParams(gamma=1.0, s=1.3, t=0.45))
    # s + h1 > 1 but broken high chain (h1 too large)
    with pytest.raises(RegimeError):
        classify_regime(ContrastParams(gamma=1.0, s=0.9, t=0.31, h1=0.3, l_m=1.0))


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.floats(min_value=0.0, max_value=1.0),
    s=st.floats(min_value=0.0, max_value=1.5),
    t=st.floats(min_value=0.0, max_value=0.49),
)
def test_classify_is_pure_and_consistent(gamma, s, t):
    p = ContrastParams(gamma=gamma, s=s, t=t)
    try:
        r1 = classify_regime(p)
    except RegimeError:
        return
    r2 = classify_regime(p)
    assert r1 == r2
    ledger = dict(r1.satisfied)
    assert ledger[f"regime:{r1.regime}"] is True
    assert sum(ledger[f"regime:{name}"] for name in
               ("Low", "MediumVolumetricA", "MediumVolumetricB", "MediumNearResonance", "High")) == 1


def test_omega_at_ratio_places_frequency(sphere):
    p = omega_at_ratio(sphere, worked_params(), 0.8)
    _, w2lim = minnaert_frequencies(sphere, p, 1e-3)
    assert abs(p.omega - 0.8 * math.sqrt(w2lim)) < 1e-12


def test_bubble_spec_invariants():
    with pytest.raises(ConfigError):
        ContrastParams(rho0=-1.0)
    cube = BubbleSpec.cube(n=4)
    assert cube.shape_factor < 0
    assert abs(cube.volume - 1.0) < 1e-12
    sph = BubbleSpec.sphere(radius=0.5)
    assert abs(sph.shape_factor - 0.25 * SPHERE_SHAPE_FACTOR) < 1e-14
