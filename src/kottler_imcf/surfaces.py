"""Star-shaped radial graphs and their extrinsic geometry.

A surface is the graph rho = r(theta) over the background's cross-section.
The induced metric, unit normal, second fundamental form, and mean
curvature come from the closed-form warped-product Christoffel symbols
combined with second-order centered differences of r.  For constant
radius fields every finite difference vanishes identically, so slices
reproduce the closed forms with no discretization error.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .base import AxisymmetricSphereGrid, FlatTorusGrid, integrate
from .background import KottlerBackground
from .errors import ExteriorError, FlowSingularError

__all__ = [
    "SurfaceGeometry",
    "GraphSurface",
    "compute_geometry",
    "star_shaped_check",
]


@dataclass(frozen=True)
class SurfaceGeometry:
    """Per-node geometric data of a radial graph.

    area_density is the area element per unit cross-section measure, so
    integrate(base, area_density) is the surface area.  graph_factor is
    the conversion between normal speed and radial coordinate speed
    (equal to |grad(rho - r)|_g evaluated on the surface).

    mean_curvature and graph_factor, all that a flow stage reads, are
    computed with the geometry.  The other four fields are read only at
    sample times and by audits, and are computed on first read from the
    kernel's intermediates, in two groups, each once.  ``measure`` gives
    (potential, area_density), all that the functionals read, and the
    shape group's closure, which gives (traceless_sq, alignment) from the
    same potential.  The shape closure is made only when the measure
    group runs, so a flow stage, which reads neither group, makes one
    closure per geometry.
    """

    mean_curvature: np.ndarray
    graph_factor: np.ndarray
    measure: Callable[[], tuple] = dataclass_field(repr=False, compare=False)

    @cached_property
    def _measure_fields(self):
        return self.measure()

    @cached_property
    def _shape_fields(self):
        return self._measure_fields[2]()

    @property
    def potential(self):
        return self._measure_fields[0]

    @property
    def area_density(self):
        return self._measure_fields[1]

    @property
    def traceless_sq(self):
        return self._shape_fields[0]

    @property
    def alignment(self):
        return self._shape_fields[1]


def _sphere_geometry(background, grid, r):
    # At 128 nodes this kernel is bound by per-call cost, not arithmetic, so
    # it makes as few numpy calls as it can.  Each expression keeps its
    # operand order, since goldens and tests pin these bits exactly
    # (c - a*b is -a*b + c, signed zeros included).
    h = grid.spacing
    f = background.v_squared(r)
    r_sq = r**2
    two_r = 2.0 * r
    f1 = two_r + 2.0 * background.mass / r_sq

    # Reflective (even) extension across both poles in one gather, so that
    # the Neumann condition r'(0) = r'(pi) = 0 holds: r_t at a pole is
    # r[1] - r[1] (or r[-2] - r[-2]), exactly 0 for a finite field.
    ext = r[grid.ext_index]
    r_t = (ext[2:] - ext[:-2]) / (2.0 * h)
    r_tt = (ext[2:] - two_r + ext[:-2]) / h**2
    grad_sq = r_t**2
    n_f = np.sqrt(f + grad_sq / r_sq)

    f_r = f * r
    gamma_tt = grad_sq / f + r_sq
    h_tt = (-r_tt + f_r + 2.0 * grad_sq / r + grad_sq * 0.5 * f1 / f) / n_f
    k1 = h_tt / gamma_tt

    # Azimuthal principal curvature on every node, then at the poles with the
    # cot(theta) term replaced by its L'Hopital limit cot(theta) r_t -> r_tt.
    # There r[pole] ** 2 stays a scalar power: numpy's scalar square can
    # differ from the array square in the last bit, and the goldens pin these
    # bits.
    k2 = (f_r - grid.cot_full * r_t) / (n_f * r_sq)
    for pole in (0, -1):
        k2[pole] = (f_r[pole] - r_tt[pole]) / (n_f[pole] * r[pole] ** 2)
        k1[pole] = k2[pole]

    def measure():
        v = np.sqrt(f)

        def shape():
            return 0.5 * (k1 - k2) ** 2, v / n_f

        # r^2 + grad_sq/f is gamma_tt with its two terms swapped (the same bits).
        return v, r * np.sqrt(gamma_tt), shape

    return SurfaceGeometry(mean_curvature=k1 + k2, graph_factor=n_f, measure=measure)


def _torus_geometry(background, grid, r):
    # At 64x64 this kernel is bound by memory, not arithmetic: each fresh
    # 32 KiB temporary is a heap allocation, and freeing it can let the heap
    # trim, so that a later call faults the same pages back in.  So each
    # expression makes one fresh array and finishes in place.  Two rules keep
    # every bit: write only into arrays this call made (never into r, f or
    # the views of e; the closures below read their arrays' final values),
    # and keep each expression's operand order, since goldens and tests pin
    # these bits exactly (f_r - r11 is -r11 + f_r, signed zeros included).
    h = grid.spacing
    f = background.v_squared(r)
    r_sq = r**2
    two_r = 2.0 * r
    f1 = 2.0 * background.mass / r_sq
    np.add(two_r, f1, out=f1)

    # Periodic extension by one node per side (e[1:-1, 1:-1] is r).
    e = np.concatenate((r[-1:], r, r[:1]), axis=0)
    e = np.concatenate((e[:, -1:], e, e[:, :1]), axis=1)
    r1 = e[2:, 1:-1] - e[:-2, 1:-1]
    r1 /= 2.0 * h
    r2 = e[1:-1, 2:] - e[1:-1, :-2]
    r2 /= 2.0 * h
    r11 = e[2:, 1:-1] - two_r
    r11 += e[:-2, 1:-1]
    r11 /= h**2
    r22 = e[1:-1, 2:] - two_r
    r22 += e[1:-1, :-2]
    r22 /= h**2
    r12 = e[2:, 2:] - e[2:, :-2]
    r12 -= e[:-2, 2:]
    r12 += e[:-2, :-2]
    r12 /= 4.0 * h**2

    # g11 and g22 start as r1^2 and r2^2, whose sum is |grad r|^2.
    g11 = r1 * r1
    g22 = r2 * r2
    n_f = g11 + g22
    n_f /= r_sq
    np.add(f, n_f, out=n_f)
    np.sqrt(n_f, out=n_f)

    g11 /= f
    g11 += r_sq
    g22 /= f
    g22 += r_sq
    g12 = r1 * r2
    g12 /= f
    det = g11 * g22
    det -= g12**2
    i11 = np.divide(g22, det, out=g22)
    i22 = np.divide(g11, det, out=g11)
    i12 = np.negative(g12, out=g12)
    i12 /= det

    fac = 2.0 / r
    np.multiply(0.5, f1, out=f1)
    f1 /= f
    fac += f1
    f_r = f * r
    fac_r1 = fac * r1
    h11 = np.subtract(f_r, r11, out=r11)
    h11 += np.multiply(fac_r1, r1, out=r1)
    h11 /= n_f
    h12 = np.multiply(fac_r1, r2, out=fac_r1)
    h12 -= r12
    h12 /= n_f
    h22 = np.subtract(f_r, r22, out=r22)
    fac *= r2
    fac *= r2
    h22 += fac
    h22 /= n_f

    # f_r is spent: it holds the second and then the third term of H.
    mean_curv = i11 * h11
    mean_curv += np.multiply(i22, h22, out=f_r)
    np.multiply(2.0, i12, out=f_r)
    f_r *= h12
    mean_curv += f_r

    def measure():
        v = np.sqrt(f)

        def shape():
            # |A|^2 = tr(S^2) with shape operator S = gamma^{-1} h (not
            # symmetric as a matrix, so the cross terms pair S12 with S21).
            s11 = i11 * h11 + i12 * h12
            s12 = i11 * h12 + i12 * h22
            s21 = i12 * h11 + i22 * h12
            s22 = i12 * h12 + i22 * h22
            a_sq = s11**2 + s22**2 + 2.0 * s12 * s21
            traceless_sq = np.maximum(a_sq - 0.5 * mean_curv**2, 0.0)
            return traceless_sq, v / n_f

        return v, np.sqrt(det), shape

    return SurfaceGeometry(mean_curvature=mean_curv, graph_factor=n_f, measure=measure)


def _slice_geometry(background, r):
    # On the horizon slice V^2 can round below 0; its potential is 0.
    v = np.sqrt(np.maximum(background.v_squared(r), 0.0))
    return SurfaceGeometry(
        mean_curvature=2.0 * v / r,
        graph_factor=v,
        measure=lambda: (v, r**2, lambda: (np.zeros_like(r), np.ones_like(r))),
    )


@dataclass
class GraphSurface:
    """A radial graph rho = r(theta) in a Kottler background."""

    background: KottlerBackground
    radius_field: np.ndarray
    is_constant: bool = dataclass_field(init=False, repr=False, compare=False)
    _geometry: SurfaceGeometry | None = dataclass_field(default=None, init=False, repr=False)

    def __post_init__(self):
        shape = self.background.base.grid.weights.shape
        r = np.asarray(self.radius_field, dtype=float)
        if r.size == 1:
            r = np.full(shape, float(r.ravel()[0]))
        elif r.shape != shape:
            raise ValueError(f"radius field shape {r.shape} does not match grid {shape}")
        # min and max give every check: both propagate NaN, and an infinite
        # node is the min or the max.
        lo, hi = r.min(), r.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise FlowSingularError("non-finite radius field")
        # r == horizon_rho is allowed: the horizon slice is valid initial
        # data for the exact slice flow (where V = 0 but the radial speed
        # rho/2 stays finite).
        if lo < self.background.horizon_rho:
            raise ExteriorError("surface must not dip below the horizon")
        self.radius_field = r
        self.is_constant = bool(hi - lo == 0.0)

    @property
    def geometry(self):
        if self._geometry is None:
            compute_geometry(self)
        return self._geometry

    def area(self):
        return integrate(self.background.base, self.geometry.area_density)


def compute_geometry(surface):
    """Fill the surface's geometry cache; returns the surface."""
    grid = surface.background.base.grid
    r = surface.radius_field
    if surface.is_constant:
        geom = _slice_geometry(surface.background, r)
    elif isinstance(grid, AxisymmetricSphereGrid):
        geom = _sphere_geometry(surface.background, grid, r)
    elif isinstance(grid, FlatTorusGrid):
        geom = _torus_geometry(surface.background, grid, r)
    else:
        raise TypeError(f"unsupported grid kind {type(grid).__name__}")
    if not np.isfinite(geom.mean_curvature).all():
        raise FlowSingularError("non-finite mean curvature")
    surface._geometry = geom
    return surface


def star_shaped_check(surface, floor):
    """True iff the radial alignment stays at or above the floor everywhere."""
    return bool(np.min(surface.geometry.alignment) >= floor)
