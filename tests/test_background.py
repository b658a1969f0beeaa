"""Horizon location, surface gravity, static residuals, and mass integrals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from kottler_imcf import (
    ExteriorError,
    HorizonError,
    KottlerBackground,
    ch_mass_integral,
    critical_mass,
    hk_constant,
    horizon_radius,
    make_background,
    make_base,
    mass_from_radius,
    mass_upper_bound,
    radius_bounds,
    richardson_mass,
    static_residual,
)

from perturbed_potential import PerturbedPotential


def test_horizon_radius_examples():
    assert horizon_radius(1, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert horizon_radius(0, 0.5) == pytest.approx(1.0, abs=1e-14)
    assert horizon_radius(-1, 0.0) == pytest.approx(1.0, abs=1e-14)
    # critical spherical case: kappa = sqrt(3) at rho = 1/sqrt(3)
    assert horizon_radius(1, 2.0 / (3.0 * np.sqrt(3.0))) == pytest.approx(
        1.0 / np.sqrt(3.0), abs=1e-12
    )


def _brentq_horizon_radius(k, mass):
    # The bracketed root finder the library used before it dropped scipy,
    # followed by the same Newton polish.
    def p(rho):
        return rho**3 + k * rho - 2.0 * mass

    lo = np.sqrt(1.0 / 3.0) if k == -1 else 0.0
    hi = max((2.0 * abs(mass)) ** (1.0 / 3.0), 1.0) + 1.0
    while p(hi) <= 0.0:
        hi *= 2.0
    rho = brentq(p, lo, hi, xtol=1e-14, rtol=8.9e-16)
    for _ in range(4):
        rho -= p(rho) / (3.0 * rho**2 + k)
    return rho


@pytest.mark.parametrize("k, mass", [(1, 1.0), (0, 0.5), (-1, 1.0), (0, 1.0), (1, 0.5)])
def test_horizon_radius_matches_brentq(k, mass):
    assert horizon_radius(k, mass) == _brentq_horizon_radius(k, mass)


@pytest.mark.parametrize("k", [1, 0, -1])
def test_horizon_radius_residual_sweep(k):
    offsets = np.concatenate((np.logspace(-14, 3, 60), np.linspace(1e-3, 10.0, 60)))
    for mass in critical_mass(k) + offsets:
        rho = horizon_radius(k, mass)
        assert abs(rho**3 + k * rho - 2.0 * mass) <= 1e-12 * max(1.0, abs(mass))
        assert 3.0 * rho**2 + k > 0.0


def test_critical_mass_values():
    assert critical_mass(1) == 0.0
    assert critical_mass(0) == 0.0
    assert critical_mass(-1) == pytest.approx(-1.0 / (3.0 * np.sqrt(3.0)))


def test_subcritical_mass_rejected():
    with pytest.raises(HorizonError):
        horizon_radius(1, 0.0)
    with pytest.raises(HorizonError):
        horizon_radius(-1, -0.5)


def test_mass_from_radius_degenerate_rejected():
    with pytest.raises(HorizonError):
        mass_from_radius(-1, 0.5)  # 3 rho^2 + k < 0
    with pytest.raises(HorizonError):
        mass_from_radius(1, -1.0)


@pytest.mark.parametrize("k", [1, 0, -1])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_mass_or_radius_rejected(k, value):
    with pytest.raises(HorizonError):
        horizon_radius(k, value)
    with pytest.raises(HorizonError):
        mass_from_radius(k, value)


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_huge_mass_or_radius_rejected(k):
    # Python-float powers raise OverflowError rather than return inf.
    for mass in (6e307, 1e300):
        with pytest.raises(HorizonError):
            horizon_radius(k, mass)
    for rho in (1e200, 1e101):
        with pytest.raises(HorizonError):
            mass_from_radius(k, rho)
    assert mass_from_radius(k, horizon_radius(k, 1e299)) == pytest.approx(1e299)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([-1, 0, 1]), st.floats(allow_nan=False, allow_infinity=False))
def test_horizon_data_returns_or_raises_horizon_error(k, value):
    for func in (horizon_radius, mass_from_radius):
        try:
            assert np.isfinite(func(k, value))
        except HorizonError:
            pass


@given(
    st.sampled_from([-1, 0, 1]),
    st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=200)
def test_mass_radius_round_trip(k, rho):
    if 3.0 * rho**2 + k <= 1e-6:
        return
    mass = mass_from_radius(k, rho)
    if mass <= critical_mass(k):
        return
    assert horizon_radius(k, mass) == pytest.approx(rho, rel=1e-10)


def test_surface_gravity_examples():
    b = make_background(1, 0, "point", mass=1.0)
    assert b.surface_gravity == pytest.approx(2.0, abs=1e-14)
    b = make_background(1, 0, "point", horizon_rho=1.0 / np.sqrt(3.0))
    assert b.surface_gravity == pytest.approx(np.sqrt(3.0), abs=1e-14)
    b = make_background(-1, 2, "point", mass=0.0)
    assert b.surface_gravity == pytest.approx(1.0, abs=1e-14)


def test_radius_bounds():
    lo, hi = radius_bounds(2.0)
    assert lo == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert hi == pytest.approx(1.0, abs=1e-14)
    lo, hi = radius_bounds(np.sqrt(3.0))
    assert lo == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)
    assert hi == pytest.approx(lo, abs=1e-12)
    with pytest.raises(HorizonError):
        radius_bounds(1.5)


@given(st.floats(min_value=np.sqrt(3.0) + 1e-6, max_value=100.0))
@settings(max_examples=100)
def test_radius_bounds_round_trip(kappa):
    for rho in radius_bounds(kappa):
        b = make_background(1, 0, "point", horizon_rho=rho)
        assert b.surface_gravity == pytest.approx(kappa, rel=1e-12)


def test_hk_constant_range():
    assert hk_constant(4.0 * np.pi, 2) == pytest.approx(0.25)
    assert hk_constant(1.0, 0) == pytest.approx(1.0 / 3.0)
    with pytest.raises(HorizonError):
        hk_constant(1.0, -10)


@pytest.mark.parametrize(
    "k,genus,mass",
    [(1, 0, 1.0), (1, 0, 2.0 / (3.0 * np.sqrt(3.0))), (0, 1, 0.5), (-1, 2, 0.0), (-1, 2, 1.0)],
)
def test_static_residual_vanishes(k, genus, mass):
    b = make_background(k, genus, "point", mass=mass)
    rho = b.horizon_rho * np.array([1.05, 1.5, 3.0, 10.0, 100.0])
    hess, lap = static_residual(b, rho)
    assert hess < 1e-9
    assert lap < 1e-9


def test_static_residual_detects_perturbation():
    b = make_background(1, 0, "point", mass=1.0)
    hess, lap = static_residual(PerturbedPotential.of(b, 1e-3), [1.5, 2.0, 5.0])
    assert max(hess, lap) > 1e-4


def test_static_residual_rejects_horizon_touch():
    b = make_background(1, 0, "point", mass=1.0)
    with pytest.raises(ExteriorError):
        static_residual(b, [1.0])


@pytest.mark.parametrize("rho_h", [1e-9, 1.0, 1e100])
def test_static_residual_guard_is_relative_to_the_horizon(rho_h):
    # The audit samples from 1.05 rho_h on, at every accepted horizon radius;
    # an absolute margin would reject all of them below rho_h = 2e-7.  The
    # values at 1e100 overflow, which is not what this test reads.
    b = make_background(1, 0, "point", horizon_rho=rho_h)
    with np.errstate(all="ignore"):
        static_residual(b, [1.05 * rho_h])
    with pytest.raises(ExteriorError, match="strictly outside the horizon"):
        static_residual(b, [rho_h * (1.0 + 1e-9)])


def test_ch_mass_monotone_convergence():
    b = make_background(1, 0, "point", mass=1.0)
    vals = [ch_mass_integral(b, r) for r in (10.0, 20.0, 40.0, 80.0)]
    errs = [abs(v - 1.0) for v in vals]
    assert errs == sorted(errs, reverse=True)
    # cubic decay: doubling rho shrinks the error by about 8
    assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.05)


@pytest.mark.parametrize("k,genus,mass", [(1, 0, 1.0), (0, 1, 0.5), (-1, 2, 1.0)])
def test_ch_mass_holds_far_out(k, genus, mass):
    # q_rhorho = 1/V^2 - 1/fbar^2 is 2m/rho^3 to leading order; formed by
    # subtraction it loses every digit by rho = 3e5, so the estimate read 0.
    b = make_background(k, genus, "point", mass=mass)
    for rho in np.logspace(5.0, 20.0, 16):
        assert abs(ch_mass_integral(b, rho) - mass) <= 1e-12, rho


def test_ch_mass_preasymptotic_guard():
    b = make_background(1, 0, "point", mass=1.0)
    with pytest.raises(ExteriorError):
        ch_mass_integral(b, 2.0)


@pytest.mark.parametrize("rho", [np.nan, np.inf])
def test_ch_mass_rejects_a_non_finite_radius(rho):
    # NaN passed the preasymptotic guard (every comparison is False) and inf
    # gave NaN with warnings; the extrapolation reads every radius.
    b = make_background(1, 0, "point", mass=1.0)
    with pytest.raises(ValueError, match="rho_eval must be finite"):
        ch_mass_integral(b, rho)
    with pytest.raises(ValueError, match="rho_eval must be finite"):
        richardson_mass(b, (10.0, 20.0, rho))


@pytest.mark.parametrize("rho_values, message", [
    ((), "at least one radius"),
    ((40.0, 40.0), "distinct"),
    ((10.0, 40.0, 20.0, 40.0), "distinct"),
])
def test_richardson_mass_rejects_no_radius_and_a_repeated_one(rho_values, message):
    # No radius was an IndexError, and two equal largest radii divide by
    # (r2/r1)^3 - 1 = 0: a NaN with a RuntimeWarning.
    b = make_background(1, 0, "point", mass=1.0)
    with pytest.raises(ValueError, match=message):
        richardson_mass(b, rho_values)


@pytest.mark.parametrize("k,genus,mass", [(1, 0, 1.0), (0, 1, 0.5), (-1, 2, 0.0)])
def test_richardson_mass(k, genus, mass):
    b = make_background(k, genus, "point", mass=mass)
    est = richardson_mass(b, (10.0, 20.0, 40.0, 80.0))
    assert abs(est - mass) <= 1e-3 * max(1.0, abs(mass))


@pytest.mark.parametrize(
    "k,genus,mass", [(1, 0, 1.0), (1, 0, 0.25), (0, 1, 0.5), (-1, 2, 0.0), (-1, 2, 3.0)]
)
def test_mass_upper_bound_equality_on_models(k, genus, mass):
    b = make_background(k, genus, "point", mass=mass)
    assert mass_upper_bound(b) == pytest.approx(mass, abs=1e-12)


def test_degenerate_horizon_rejected():
    # 3 rho^2 + k < 0 on the hyperbolic base makes 3|bdry| + 2 pi chi negative;
    # a negative radius on the sphere keeps it positive but not kappa.
    with pytest.raises(HorizonError, match="3\\|bdry\\|"):
        KottlerBackground(make_base(-1, 2, "point"), 0.0, 0.5)
    with pytest.raises(HorizonError, match="surface gravity"):
        KottlerBackground(make_base(1, 0, "point"), 1.0, -1.0)


def test_make_background_argument_check():
    with pytest.raises(ValueError):
        make_background(1, 0, "point", mass=1.0, horizon_rho=1.0)
    with pytest.raises(ValueError):
        make_background(1, 0, "point")
