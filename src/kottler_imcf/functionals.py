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

from .errors import FlowSingularError

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
    "asymptotic_limit",
    "evaluate_report",
]


# -- surface integrals, kept in the geometry's memo by GraphSurface.integral ----


def bulk_integral(surface):
    """Weighted volume between the horizon and the graph.

    The volume element of the ambient metric is rho^2 / V, so the
    V-weighted radial integrand is exactly rho^2 and the integral is a
    cubic closed form in the radius field, which is read-only
    (GraphSurface) and so stays the geometry's.
    """
    def integrand(g):
        r = surface.radius_field
        rho_m = surface.background.horizon_rho
        cube = r * r  # products, not pow: numpy picks pow's loop by the CPU's SIMD
        cube *= r
        cube -= rho_m * rho_m * rho_m
        cube /= 3.0
        return cube

    return surface.integral("bulk", integrand)


def total_mean_curvature(surface):
    """The potential-weighted total mean curvature."""
    return surface.integral("int_VH", lambda g: g.potential * g.mean_curvature * g.area_density)


# -- public functionals -----------------------------------------------------


def compute_Q(surface):
    """Scale-normalized monotone flow functional.

    Non-increasing along inverse mean curvature flow and constant, equal
    to 2 * k * sqrt(w2), precisely on Kottler slices.
    """
    return (total_mean_curvature(surface) - 6.0 * bulk_integral(surface)
            + 4.0 * surface.background.chi_horizon_term) / np.sqrt(surface.area())


def compute_P(surface):
    """Areal variant of the monotone functional.

    Replaces the bulk volume in Q by the area power |Sigma|^{3/2} and the
    Euler-characteristic horizon weight by 1 - 2c; tends to the same
    limit 2 * k * sqrt(w2) and equals it identically on Kottler slices.
    """
    background = surface.background
    area = surface.area()
    return (total_mean_curvature(surface) - 2.0 * area**1.5 / np.sqrt(background.base.area)
            + 4.0 * background.areal_horizon_term) / np.sqrt(area)


def hawking_mass(surface):
    """Hawking mass adapted to the hyperbolic asymptotics.

    Equals the mass parameter exactly on spherical Kottler slices and is
    non-decreasing along inverse mean curvature flow in static vacuum.
    """
    willmore = surface.integral("willmore",
                                lambda g: (g.mean_curvature**2 - 4.0) * g.area_density)
    genus = surface.background.base.genus
    return np.sqrt(surface.area() / (16.0 * np.pi)) * (1.0 - genus - willmore / (16.0 * np.pi))


def hk_gap(surface):
    """Slack in the potential-weighted Heintze-Karcher inequality.

    gap = int V/H - (3/2) int_Omega V - c kappa |bdry|;
    nonnegative on mean-convex surfaces, zero exactly on slices.
    """
    if surface.geometry.min_mean_curvature <= 0.0:
        raise FlowSingularError("Heintze-Karcher gap needs a mean-convex surface")
    lhs = surface.integral("int_V_over_H",
                           lambda g: g.potential / g.mean_curvature * g.area_density)
    return lhs - 1.5 * bulk_integral(surface) - surface.background.hk_horizon_term


def minkowski_deficit(surface):
    """Left minus right side of the Minkowski-type inequality.

    Nonnegative for star-shaped mean-convex surfaces; vanishing forces
    the surface to be a Kottler slice.
    """
    background = surface.background
    w2 = background.base.area
    return (
        0.5 * total_mean_curvature(surface) / w2
        - 3.0 * bulk_integral(surface) / w2
        + 2.0 * (background.chi_horizon_term / w2)
        - background.curvature_sign * np.sqrt(surface.area() / w2)
    )


def _kottler_mass(k, a):
    """The Kottler mass (1/2)(k sqrt(a) + a^{3/2}) of normalized area a = |S| / w2."""
    return 0.5 * (k * np.sqrt(a) + a**1.5)


def areal_minkowski_deficit(surface):
    """Left minus right side of the areal Minkowski inequality.

    Uses the area power in place of the bulk volume.
    """
    background = surface.background
    w2 = background.base.area
    return (
        0.25 * total_mean_curvature(surface) / w2
        - _kottler_mass(background.curvature_sign, surface.area() / w2)
        + background.areal_horizon_term / w2
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


def asymptotic_limit(base):
    """Large-time limit of Q, and of P, on any flow: 2 * k * sqrt(w2)."""
    return 2.0 * base.curvature_sign * np.sqrt(base.area)


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

    Each field is its standalone functional, so it has that functional's
    bits; the five surface integrals they read (area, total mean curvature,
    bulk, Willmore, Heintze-Karcher left side) are each computed once, in
    the geometry's memo.
    """
    return FunctionalReport(
        area=surface.area(),
        total_mean_curvature=total_mean_curvature(surface),
        bulk_integral=bulk_integral(surface),
        horizon_term=surface.background.hk_horizon_term,
        q_value=compute_Q(surface),
        p_value=compute_P(surface),
        hawking_mass=float(hawking_mass(surface)),
        hk_gap=hk_gap(surface),
        minkowski_deficit=minkowski_deficit(surface),
        areal_minkowski_deficit=areal_minkowski_deficit(surface),
    )
