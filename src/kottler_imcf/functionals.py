"""Geometric functionals, deficits, and mass bounds on graph surfaces.

Every quantity here is a pure function of a GraphSurface (or background)
and reduces to a closed form on constant-radius slices, which the test
suite uses as analytic oracles.  Deficits are written as left side minus
right side of the corresponding inequality, so nonnegativity is the
statement being audited and zero is the rigidity case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import integrate
from .errors import ExteriorError, FlowSingularError

__all__ = [
    "FunctionalReport",
    "bulk_integral",
    "total_mean_curvature",
    "compute_Q",
    "compute_P",
    "hawking_mass",
    "hk_gap",
    "minkowski_deficit",
    "areal_minkowski_deficit",
    "surface_gravity_bound_deficit",
    "reverse_penrose_deficit",
    "penrose_conjecture_deficit",
    "asymptotic_limit_targets",
    "evaluate_report",
]


# -- surface integrals (the area is GraphSurface.area) ----------------------
# Those of the geometry are kept in its memo (GraphSurface.integral); the bulk
# reads the radius field, which may change in place, so every call computes it.


def bulk_integral(surface):
    """Weighted volume between the horizon and the graph.

    The volume element of the ambient metric is rho^2 / V, so the
    V-weighted radial integrand is exactly rho^2 and the integral is a
    cubic closed form in the radius field.
    """
    r = surface.radius_field
    rho_m = surface.background.horizon_rho
    if r.item(r.argmin()) < rho_m:  # argmin finds the first NaN: False, as np.any(r < rho_m)
        raise ExteriorError("graph dips below the horizon radius")
    cube = r**3
    cube -= rho_m**3
    cube /= 3.0
    return integrate(surface.background.base, cube)


def total_mean_curvature(surface):
    """The potential-weighted total mean curvature."""
    return surface.integral(
        "int_VH", lambda g: g.potential * g.mean_curvature * g.area_density
    )


def _willmore(surface):
    return surface.integral(
        "willmore", lambda g: (g.mean_curvature**2 - 4.0) * g.area_density
    )


def _hk_lhs(surface):
    if surface.geometry.min_mean_curvature <= 0.0:
        raise FlowSingularError("Heintze-Karcher gap needs a mean-convex surface")
    return surface.integral(
        "int_V_over_H", lambda g: g.potential / g.mean_curvature * g.area_density
    )


# -- scalar formulas over the integrals, shared with evaluate_report --------


def _q(background, area, tmc, bulk):
    if area <= 0.0:
        raise ValueError("surface area must be positive")
    return (tmc - 6.0 * bulk + 4.0 * background.chi_horizon_term) / np.sqrt(area)


def _p(background, area, tmc):
    if area <= 0.0:
        raise ValueError("surface area must be positive")
    w2 = background.base.area
    return (
        tmc - 2.0 * area**1.5 / np.sqrt(w2) + 4.0 * background.areal_horizon_term
    ) / np.sqrt(area)


def _hawking_mass(background, area, willmore):
    genus = background.base.genus
    return np.sqrt(area / (16.0 * np.pi)) * (1.0 - genus - willmore / (16.0 * np.pi))


def _hk_gap(background, lhs, bulk):
    return lhs - 1.5 * bulk - background.hk_horizon_term


def _minkowski_deficit(background, area, tmc, bulk):
    w2 = background.base.area
    k = background.curvature_sign
    horizon_term = background.chi_horizon_term / w2
    return (
        0.5 * tmc / w2
        - 3.0 * bulk / w2
        + 2.0 * horizon_term
        - k * np.sqrt(area / w2)
    )


def _kottler_mass(k, a):
    """The Kottler mass (1/2)(k sqrt(a) + a^{3/2}) of normalized area a = |S| / w2."""
    return 0.5 * (k * np.sqrt(a) + a**1.5)


def _areal_minkowski_deficit(background, area, tmc):
    w2 = background.base.area
    horizon_term = background.areal_horizon_term / w2
    return (
        0.25 * tmc / w2
        - _kottler_mass(background.curvature_sign, area / w2)
        + horizon_term
    )


# -- public functionals -----------------------------------------------------


def compute_Q(surface):
    """Scale-normalized monotone flow functional.

    Non-increasing along inverse mean curvature flow and constant, equal
    to 2 * k * sqrt(w2), precisely on Kottler slices.
    """
    return _q(
        surface.background,
        surface.area(),
        total_mean_curvature(surface),
        bulk_integral(surface),
    )


def compute_P(surface):
    """Areal variant of the monotone functional.

    Replaces the bulk volume in Q by the area power |Sigma|^{3/2} and the
    Euler-characteristic horizon weight by 1 - 2c; tends to the same
    limit 2 * k * sqrt(w2) and equals it identically on Kottler slices.
    """
    return _p(surface.background, surface.area(), total_mean_curvature(surface))


def hawking_mass(surface):
    """Hawking mass adapted to the hyperbolic asymptotics.

    Equals the mass parameter exactly on spherical Kottler slices and is
    non-decreasing along inverse mean curvature flow in static vacuum.
    """
    return _hawking_mass(surface.background, surface.area(), _willmore(surface))


def hk_gap(surface):
    """Slack in the potential-weighted Heintze-Karcher inequality.

    gap = int V/H - (3/2) int_Omega V - c kappa |bdry|;
    nonnegative on mean-convex surfaces, zero exactly on slices.
    """
    return _hk_gap(surface.background, _hk_lhs(surface), bulk_integral(surface))


def minkowski_deficit(surface):
    """Left minus right side of the Minkowski-type inequality.

    Nonnegative for star-shaped mean-convex surfaces; vanishing forces
    the surface to be a Kottler slice.
    """
    return _minkowski_deficit(
        surface.background,
        surface.area(),
        total_mean_curvature(surface),
        bulk_integral(surface),
    )


def areal_minkowski_deficit(surface):
    """Left minus right side of the areal Minkowski inequality.

    Uses the area power in place of the bulk volume.
    """
    return _areal_minkowski_deficit(
        surface.background, surface.area(), total_mean_curvature(surface)
    )


def surface_gravity_bound_deficit(background):
    """Slack in the Euler-characteristic bound on horizon surface gravity.

    deficit = 2 pi chi kappa - (k/2)(3 w2 sqrt(a) + 2 pi chi / sqrt(a))
    with a = |bdry| / w2; vanishes on every Kottler model.
    """
    w2 = background.base.area
    k = background.curvature_sign
    chi = background.base.euler_char
    sqrt_a = np.sqrt(background.horizon_area / w2)
    lhs = 2.0 * np.pi * chi * background.surface_gravity
    rhs = 0.5 * k * (3.0 * w2 * sqrt_a + 2.0 * np.pi * chi / sqrt_a)
    return lhs - rhs


def reverse_penrose_deficit(background):
    """Slack in the upper mass bound by horizon area (hyperbolic base only).

    deficit = (1/2)(-sqrt(a) + a^{3/2}) - m with a = |bdry|/w2; zero on
    hyperbolic Kottler, positive means the bound holds strictly.
    """
    if background.curvature_sign != -1:
        raise ValueError("reverse Penrose bound applies to hyperbolic bases only")
    if background.mass < 0.0:
        raise ValueError("reverse Penrose bound requires nonnegative mass")
    return _kottler_mass(-1, background.horizon_area / background.base.area) - background.mass


def penrose_conjecture_deficit(background):
    """Mass minus the conjectured horizon-area lower bound.

    deficit = m - (1/2)(k sqrt(a) + a^{3/2}) with a = |bdry| / w2; zero on
    Kottler horizons.
    """
    a = background.horizon_area / background.base.area
    return background.mass - _kottler_mass(background.curvature_sign, a)


def asymptotic_limit_targets(base):
    """Large-time limits of (Q, P) on any flow: both 2 * k * sqrt(w2)."""
    target = 2.0 * base.curvature_sign * np.sqrt(base.area)
    return target, target


@dataclass(frozen=True)
class FunctionalReport:
    """All scalar functionals of one surface, evaluated together."""

    area: float
    total_mean_curvature: float
    bulk_integral: float
    horizon_term: float
    q_value: float
    p_value: float
    hawking_mass: float
    hk_gap: float
    minkowski_deficit: float
    areal_minkowski_deficit: float


def evaluate_report(surface):
    """Evaluate every functional on one surface.

    Each of the five surface integrals (area, total mean curvature, bulk,
    Willmore, Heintze-Karcher left side) is computed once and fed to the
    same scalar formulas as the standalone functionals, so every field
    equals its standalone functional bit for bit.
    """
    background = surface.background
    area = surface.area()
    tmc = total_mean_curvature(surface)
    bulk = bulk_integral(surface)
    return FunctionalReport(
        area=area,
        total_mean_curvature=tmc,
        bulk_integral=bulk,
        horizon_term=background.hk_horizon_term,
        q_value=_q(background, area, tmc, bulk),
        p_value=_p(background, area, tmc),
        hawking_mass=float(_hawking_mass(background, area, _willmore(surface))),
        hk_gap=_hk_gap(background, _hk_lhs(surface), bulk),
        minkowski_deficit=_minkowski_deficit(background, area, tmc, bulk),
        areal_minkowski_deficit=_areal_minkowski_deficit(background, area, tmc),
    )
