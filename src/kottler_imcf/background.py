"""Exact Kottler backgrounds: potential, horizon data, and mass integrals.

The ambient metric is the warped product

    g = V(rho)^-2 drho^2 + rho^2 ghat,   V(rho)^2 = k + rho^2 - 2m/rho,

over a constant-curvature cross-section with curvature sign k.  The
horizon sits at the largest positive root rho_m of rho^3 + k rho - 2m,
and all derivatives used elsewhere in the package are closed forms in
rho, so residual checks test formula transcription rather than any
discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .base import BaseSurface, make_base
from .errors import ExteriorError, HorizonError

__all__ = [
    "KottlerBackground",
    "critical_mass",
    "horizon_radius",
    "mass_from_radius",
    "radius_bounds",
    "hk_constant",
    "static_residual",
    "ch_mass_integral",
    "mass_upper_bound",
    "make_background",
    "richardson_mass",
]


# Largest horizon radius accepted.  Its cube, about twice the mass, and the
# Newton iterates of horizon_radius stay far inside the float range.
_MAX_HORIZON_RHO = 1e100


def critical_mass(curvature_sign):
    """Smallest mass admitting a nondegenerate horizon."""
    return -1.0 / (3.0 * np.sqrt(3.0)) if curvature_sign == -1 else 0.0


def horizon_radius(curvature_sign, mass):
    """Largest positive root of rho^3 + k*rho - 2m = 0.

    p(rho) is convex for rho > 0, so Newton iteration started above the
    root falls monotonically onto it, also near the degenerate double
    root at k = -1, m -> m_crit; it stops once an iterate no longer
    decreases.
    """
    k = curvature_sign
    if not np.isfinite(mass):
        raise HorizonError(f"mass must be finite, got {mass}")
    if mass > 0.5 * _MAX_HORIZON_RHO**3:
        raise HorizonError(f"mass {mass} too large: horizon radius above {_MAX_HORIZON_RHO:g}")
    if mass <= critical_mass(k):
        raise HorizonError(
            f"mass {mass} <= critical mass {critical_mass(k)}: no nondegenerate horizon"
        )

    def p(rho):
        return rho**3 + k * rho - 2.0 * mass

    rho = max((2.0 * abs(mass)) ** (1.0 / 3.0), 1.0) + 1.0
    while p(rho) <= 0.0:
        rho *= 2.0
    while True:
        lower = rho - p(rho) / (3.0 * rho**2 + k)
        if not lower < rho:
            break
        rho = lower
    # Newton polish; the root is simple so one or two steps reach residual tolerance.
    for _ in range(4):
        dp = 3.0 * rho**2 + k
        if dp <= 0.0:
            break
        rho -= p(rho) / dp
    if not abs(p(rho)) <= 1e-12 * max(1.0, abs(mass)):  # NaN fails too
        raise HorizonError(f"root polish failed: residual {p(rho)}")
    return rho


def mass_from_radius(curvature_sign, horizon_rho):
    """Mass of the Kottler solution whose horizon sits at horizon_rho."""
    if not np.isfinite(horizon_rho):
        raise HorizonError(f"horizon radius must be finite, got {horizon_rho}")
    if horizon_rho <= 0.0:
        raise HorizonError("horizon radius must be positive")
    if horizon_rho > _MAX_HORIZON_RHO:
        raise HorizonError(f"horizon radius {horizon_rho} above {_MAX_HORIZON_RHO:g}")
    if 3.0 * horizon_rho**2 + curvature_sign <= 0.0:
        raise HorizonError("degenerate horizon: 3*rho^2 + k <= 0")
    return 0.5 * (curvature_sign * horizon_rho + horizon_rho**3)


def hk_constant(area, euler_char):
    """c = |bdry| / (3|bdry| + 2*pi*chi): 1/3 on the torus, below it on the
    sphere, above it on hyperbolic bases, and above 1 where |bdry| < -pi*chi."""
    denom = 3.0 * area + 2.0 * np.pi * euler_char
    if denom <= 0.0:
        raise HorizonError("3|bdry| + 2*pi*chi must be positive")
    return area / denom


@dataclass(frozen=True)
class KottlerBackground:
    """The static triple (M^3, g, V) for one Kottler solution."""

    base: BaseSurface
    mass: float
    horizon_rho: float

    def __post_init__(self):
        self.hk_constant  # raises HorizonError unless 3|bdry| + 2*pi*chi > 0
        if self.surface_gravity <= 0.0:
            raise HorizonError("degenerate horizon: surface gravity must be positive")

    @property
    def curvature_sign(self):
        return self.base.curvature_sign

    # -- potential and analytic derivatives ---------------------------------

    def v_squared(self, rho):
        rho = np.asarray(rho, dtype=float)
        return self.curvature_sign + rho**2 - 2.0 * self.mass / rho

    @cached_property
    def v_squared_terms(self):
        """k and 2m of V^2 = k + rho^2 - 2m/rho as 0-d float arrays, for the
        sphere kernel: numpy converts a Python scalar operand on every call."""
        return np.array(float(self.curvature_sign)), np.array(2.0 * self.mass)

    def potential(self, rho):
        return np.sqrt(self.v_squared(rho))

    def potential_d1(self, rho):
        rho = np.asarray(rho, dtype=float)
        return (rho + self.mass / rho**2) / self.potential(rho)

    def potential_d2(self, rho):
        rho = np.asarray(rho, dtype=float)
        v = self.potential(rho)
        v1 = self.potential_d1(rho)
        return (1.0 - 2.0 * self.mass / rho**3) / v - v1**2 / v

    # -- horizon data -------------------------------------------------------
    # Pure functions of the frozen fields, each computed once per background.
    # cached_property writes to the instance __dict__, which a frozen
    # dataclass allows; equality and hashing still compare the three fields.

    @cached_property
    def surface_gravity(self):
        return 0.5 * (3.0 * self.horizon_rho + self.curvature_sign / self.horizon_rho)

    @cached_property
    def horizon_area(self):
        return self.base.area * self.horizon_rho**2

    @cached_property
    def hk_constant(self):
        return hk_constant(self.horizon_area, self.base.euler_char)

    # The paper sums these terms over the horizon components; a Kottler
    # background has exactly one.

    @cached_property
    def chi_horizon_term(self):
        """2 pi chi / (3|bdry| + 2 pi chi) kappa |bdry|."""
        area, chi = self.horizon_area, self.base.euler_char
        return 2.0 * np.pi * chi / (3.0 * area + 2.0 * np.pi * chi) * self.surface_gravity * area

    @cached_property
    def areal_horizon_term(self):
        """(1 - 2c) kappa |bdry|."""
        return (1.0 - 2.0 * self.hk_constant) * self.surface_gravity * self.horizon_area

    @cached_property
    def hk_horizon_term(self):
        """c kappa |bdry|."""
        return self.hk_constant * self.surface_gravity * self.horizon_area


def radius_bounds(kappa):
    """The two ADS-Schwarzschild horizon radii sharing surface gravity kappa.

    Only the spherical family admits two solutions; requires kappa >= sqrt(3),
    and the window collapses to rho = 1/sqrt(3) at the critical value.
    """
    if kappa < np.sqrt(3.0):
        raise HorizonError(f"kappa {kappa} < sqrt(3): no spherical Kottler horizon")
    disc = np.sqrt(max(kappa**2 - 3.0, 0.0))
    return (kappa - disc) / 3.0, (kappa + disc) / 3.0


def static_residual(background, sample_rho, potential=None):
    """Max norms of the static vacuum equation residuals at the sample radii.

    Returns (hessian_residual, laplace_residual), where the first is the
    g-norm of Hess W - W Ric - 3 W g and the second is |Lap W - 3 W|,
    all assembled from closed-form Christoffel symbols and analytic
    derivatives of the potential W (the background's V by default).
    """
    rho = np.atleast_1d(np.asarray(sample_rho, dtype=float))
    if np.any(rho <= background.horizon_rho * (1.0 + 1e-8)):
        raise ExteriorError("sample points must lie strictly outside the horizon")

    k = background.curvature_sign
    m = background.mass
    f = background.v_squared(rho)  # V^2, the radial metric factor
    f1 = 2.0 * rho + 2.0 * m / rho**2

    if potential is None:
        w = background.potential(rho)
        w1 = background.potential_d1(rho)
        w2 = background.potential_d2(rho)
    else:
        w = potential.value(rho)
        w1 = potential.d1(rho)
        w2 = potential.d2(rho)

    # Closed-form Ricci of the warped metric: Ric_rr and the ghat-coefficient
    # of the angular block.
    rho_cube = rho * rho * rho
    ric_rr = -2.0 * (m + rho_cube) / (rho_cube * f)
    ric_ang = (m - 2.0 * rho_cube) / rho

    hess_rr = w2 + 0.5 * (f1 / f) * w1
    hess_ang = f * rho * w1  # coefficient of ghat_ij

    t_rr = hess_rr - w * ric_rr - 3.0 * w / f
    t_ang = hess_ang - w * ric_ang - 3.0 * w * rho**2

    hess_norm = np.sqrt((f * t_rr) ** 2 + 2.0 * (t_ang / rho**2) ** 2)
    lap = f * hess_rr + 2.0 * f * w1 / rho
    return float(np.max(hess_norm)), float(np.max(np.abs(lap - 3.0 * w)))


def ch_mass_integral(background, rho_eval):
    """Boundary mass integral at coordinate radius rho_eval.

    The deviation tensor q = g - gbar is diagonal with only a rho-rho
    component; the integrand is assembled term by term against the
    reference metric gbar and lapse f = sqrt(k + rho^2).  Converges to
    the mass parameter as rho_eval -> infinity.
    """
    rho = float(rho_eval)
    if not np.isfinite(rho):
        raise ValueError(f"rho_eval must be finite, got {rho}")
    if rho < 5.0 * background.horizon_rho:
        raise ExteriorError(f"rho_eval {rho} below 5.0 x horizon radius: preasymptotic")
    k = background.curvature_sign
    fbar_sq = k + rho**2
    fbar = np.sqrt(fbar_sq)
    fbar_d1 = rho / fbar

    # q_rhorho = 1/V^2 - 1/fbar^2, formed without the subtraction that cancels
    # every digit once 2m/rho^3 nears round-off.
    u = (2.0 * background.mass / rho) / (background.v_squared(rho) * fbar_sq)

    # One-form (div_gbar q - d Tr_gbar q) has radial component 2 fbar^2 u / rho;
    # the trace and lapse-gradient terms cancel for a purely radial q but are
    # kept explicit below.
    div_minus_dtr_r = 2.0 * fbar_sq * u / rho
    nu_r = fbar  # unit outward gbar-normal is fbar * d/drho
    term1 = fbar * div_minus_dtr_r * nu_r
    trace_q = fbar_sq * u
    term2 = trace_q * fbar_d1 * nu_r
    term3 = u * (fbar * rho) * nu_r  # q(grad fbar, nu)

    integrand = term1 + term2 - term3  # constant over the cross-section
    slice_area = background.base.area * rho**2
    return integrand * slice_area / (4.0 * background.base.area)


def richardson_mass(background, rho_values):
    """Extrapolate ch_mass_integral over a doubling radius sequence.

    The leading error is O(rho^-3); one Richardson step on the two largest
    radii removes it, and so needs the radii distinct.
    """
    rho_values = sorted(float(r) for r in rho_values)
    if not rho_values:
        raise ValueError("rho_eval needs at least one radius")
    if len(set(rho_values)) != len(rho_values):
        raise ValueError(f"rho_eval radii must be distinct, got {rho_values}")
    if len(rho_values) < 2:
        return ch_mass_integral(background, rho_values[-1])
    vals = [ch_mass_integral(background, r) for r in rho_values]
    r1, r2 = rho_values[-2], rho_values[-1]
    ratio = (r2 / r1) ** 3
    return (ratio * vals[-1] - vals[-2]) / (ratio - 1.0)


def mass_upper_bound(background):
    """(1/w2) (1 - 2c) kappa |bdry|, an upper bound on the mass.

    The paper sums the horizon term over the horizon components; on a
    Kottler background, with its one horizon, it equals the mass parameter.
    """
    return background.areal_horizon_term / background.base.area


def make_background(curvature_sign, genus, grid_resolution, mass=None, horizon_rho=None,
                    area=None):
    """Convenience constructor: base plus background in one call."""
    base = make_base(curvature_sign, genus, grid_resolution, area=area)
    if (mass is None) == (horizon_rho is None):
        raise ValueError("give exactly one of mass, horizon_rho")
    if mass is None:
        mass = mass_from_radius(curvature_sign, horizon_rho)
    else:
        horizon_rho = horizon_radius(curvature_sign, mass)
    return KottlerBackground(base, mass, horizon_rho)
