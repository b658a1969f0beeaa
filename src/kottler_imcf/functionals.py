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

from .background import _areal_horizon_sum, _chi_horizon_sum, _hk_horizon_sum
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


def _horizons(surface, horizons=None):
    if horizons is None:
        return (surface.background.horizon(),)
    return tuple(horizons)


def bulk_integral(surface):
    """Weighted volume between the horizon and the graph.

    The volume element of the ambient metric is rho^2 / V, so the
    V-weighted radial integrand is exactly rho^2 and the integral is a
    cubic closed form in the radius field.
    """
    r = surface.radius_field
    rho_m = surface.background.horizon_rho
    if np.any(r < rho_m):
        raise ExteriorError("graph dips below the horizon radius")
    return integrate(surface.background.base, (r**3 - rho_m**3) / 3.0)


def total_mean_curvature(surface):
    """The potential-weighted total mean curvature."""
    g = surface.geometry
    return integrate(
        surface.background.base, g.potential * g.mean_curvature * g.area_density
    )


def compute_Q(surface, enclosed_horizons=None):
    """Scale-normalized monotone flow functional.

    Non-increasing along inverse mean curvature flow and constant, equal
    to 2 * k * sqrt(w2), precisely on Kottler slices.
    """
    area = surface.area()
    if area <= 0.0:
        raise ValueError("surface area must be positive")
    return (
        total_mean_curvature(surface)
        - 6.0 * bulk_integral(surface)
        + 4.0 * _chi_horizon_sum(_horizons(surface, enclosed_horizons))
    ) / np.sqrt(area)


def compute_P(surface, enclosed_horizons=None):
    """Areal variant of the monotone functional.

    Replaces the bulk volume in Q by the area power |Sigma|^{3/2} and the
    Euler-characteristic horizon weight by 1 - 2c_j; tends to the same
    limit 2 * k * sqrt(w2) and equals it identically on Kottler slices.
    """
    area = surface.area()
    if area <= 0.0:
        raise ValueError("surface area must be positive")
    w2 = surface.background.base.area
    return (
        total_mean_curvature(surface)
        - 2.0 * area**1.5 / np.sqrt(w2)
        + 4.0 * _areal_horizon_sum(_horizons(surface, enclosed_horizons))
    ) / np.sqrt(area)


def hawking_mass(surface, genus=None):
    """Hawking mass adapted to the hyperbolic asymptotics.

    Equals the mass parameter exactly on spherical Kottler slices and is
    non-decreasing along inverse mean curvature flow in static vacuum.
    """
    if genus is None:
        genus = surface.background.base.genus
    g = surface.geometry
    area = surface.area()
    willmore = integrate(
        surface.background.base, (g.mean_curvature**2 - 4.0) * g.area_density
    )
    return np.sqrt(area / (16.0 * np.pi)) * (1.0 - genus - willmore / (16.0 * np.pi))


def hk_gap(surface, enclosed_horizons=None):
    """Slack in the potential-weighted Heintze-Karcher inequality.

    gap = int V/H - (3/2) int_Omega V - sum_j c_j kappa_j |bdry_j|;
    nonnegative on mean-convex surfaces, zero exactly on slices.
    """
    g = surface.geometry
    if np.min(g.mean_curvature) <= 0.0:
        raise FlowSingularError("Heintze-Karcher gap needs a mean-convex surface")
    lhs = integrate(
        surface.background.base, g.potential / g.mean_curvature * g.area_density
    )
    horizon_term = _hk_horizon_sum(_horizons(surface, enclosed_horizons))
    return lhs - 1.5 * bulk_integral(surface) - horizon_term


def minkowski_deficit(surface, enclosed_horizons=None):
    """Left minus right side of the Minkowski-type inequality.

    Nonnegative for star-shaped mean-convex surfaces; vanishing forces
    the surface to be a Kottler slice.
    """
    w2 = surface.background.base.area
    k = surface.background.curvature_sign
    area = surface.area()
    horizon_term = _chi_horizon_sum(_horizons(surface, enclosed_horizons)) / w2
    return (
        0.5 * total_mean_curvature(surface) / w2
        - 3.0 * bulk_integral(surface) / w2
        + 2.0 * horizon_term
        - k * np.sqrt(area / w2)
    )


def areal_minkowski_deficit(surface, enclosed_horizons=None):
    """Left minus right side of the areal Minkowski inequality.

    Uses the area power in place of the bulk volume; requires every
    background horizon to be enclosed.
    """
    w2 = surface.background.base.area
    k = surface.background.curvature_sign
    a = surface.area() / w2
    horizon_term = _areal_horizon_sum(_horizons(surface, enclosed_horizons)) / w2
    return (
        0.25 * total_mean_curvature(surface) / w2
        - 0.5 * (k * np.sqrt(a) + a**1.5)
        + horizon_term
    )


def surface_gravity_bound_deficit(horizon, base):
    """Slack in the Euler-characteristic bound on horizon surface gravity.

    deficit = 2 pi chi kappa - (k/2)(3 w2 sqrt(a) + 2 pi chi / sqrt(a))
    with a = area / w2; vanishes on every single-horizon Kottler model.
    """
    w2 = base.area
    k = base.curvature_sign
    sqrt_a = np.sqrt(horizon.area / w2)
    lhs = 2.0 * np.pi * horizon.euler_char * horizon.surface_gravity
    rhs = 0.5 * k * (3.0 * w2 * sqrt_a + 2.0 * np.pi * horizon.euler_char / sqrt_a)
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
    a = background.horizon_area / background.base.area
    return 0.5 * (-np.sqrt(a) + a**1.5) - background.mass


def penrose_conjecture_deficit(background, surface=None):
    """Mass minus the conjectured horizon-area lower bound.

    deficit = m - (1/2)(k sqrt(a) + a^{3/2}) with a the normalized area of
    the given surface (the horizon by default); zero on Kottler horizons.
    """
    w2 = background.base.area
    area = background.horizon_area if surface is None else surface.area()
    a = area / w2
    k = background.curvature_sign
    return background.mass - 0.5 * (k * np.sqrt(a) + a**1.5)


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


def evaluate_report(surface, enclosed_horizons=None):
    """Evaluate every functional on one surface."""
    horizons = _horizons(surface, enclosed_horizons)
    horizon_term = _hk_horizon_sum(horizons)
    return FunctionalReport(
        area=surface.area(),
        total_mean_curvature=total_mean_curvature(surface),
        bulk_integral=bulk_integral(surface),
        horizon_term=horizon_term,
        q_value=compute_Q(surface, horizons),
        p_value=compute_P(surface, horizons),
        hawking_mass=float(hawking_mass(surface)),
        hk_gap=hk_gap(surface, horizons),
        minkowski_deficit=minkowski_deficit(surface, horizons),
        areal_minkowski_deficit=areal_minkowski_deficit(surface, horizons),
    )
