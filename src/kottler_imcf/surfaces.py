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
import threading
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
    computed with the geometry, and min_mean_curvature as it is made.  The
    other four fields are read only at sample times and by audits, and are
    computed on first read from the kernel's intermediates, in two groups,
    each once.  ``measure`` gives (potential, area_density), all that the
    functionals read, and the shape group's closure, which gives
    (traceless_sq, alignment) from the same potential.  The shape closure is
    made only when the measure group runs, so a flow stage, which reads
    neither group, makes one closure per geometry.  The surface integrals
    of a geometry and its surface's read-only field (GraphSurface.integral,
    the bulk among them) are kept by name in its memo ``derived``, each
    computed once; dataclasses.replace starts a new memo.

    On the torus, H and the graph factor come in closed form, without the
    metric's inverse (_torus_kernel): with f = V^2, formed without k, which
    is 0 on every torus, and D = f r^2 + |grad r|^2, the graph factor is
    sqrt(D)/r.  The kernel leaves f, D, sqrt(D) and the five centred
    differences of r in a per-thread workspace that the next evaluation
    reuses (_torus_workspace, _torus_geometry), and the deferred groups
    build their fields from these: the area density r sqrt(D)/V and
    |A0|^2 = H^2/2 - 2 f det(M)/D^2.  A read after a later evaluation, or
    from another thread, reruns the kernel into private slots, which gives
    the same bits.  Every field is a new array: none shares memory with the
    workspace.
    """

    mean_curvature: np.ndarray
    graph_factor: np.ndarray
    measure: Callable[[], tuple] = dataclass_field(repr=False, compare=False)
    min_mean_curvature: float = dataclass_field(init=False, compare=False)
    derived: dict = dataclass_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # argmin finds the first NaN, as the reduction propagates it, at about
        # a third of its cost.  On a -0/+0 tie argmin gives the first zero and
        # the reduction may not, so a zero min takes the reduction's bits.
        h = self.mean_curvature
        low = h.item(h.argmin())
        if low == 0.0:
            low = np.minimum.reduce(h, axis=None).item()
        object.__setattr__(self, "min_mean_curvature", low)

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


def _centred(up, down, two_r, scales, first=None, second=None):
    """The second-order centred (up - down)/2h and (up - 2r + down)/h^2 by the
    grid's stencil_scales, into first and second, or new arrays where None."""
    (by_2h, two_h), (by_h_sq, h_sq) = scales[:2]
    first = np.subtract(up, down, first)
    by_2h(first, two_h, first)
    second = np.subtract(up, two_r, second)
    second += down
    by_h_sq(second, h_sq, second)
    return first, second


def _sphere_stencils(grid, r, two_r):
    # Reflective (even) extension across both poles in one gather, so that
    # the Neumann condition r'(0) = r'(pi) = 0 holds: r_t at a pole is
    # r[1] - r[1] (or r[-2] - r[-2]), exactly 0 for a finite field.
    ext = r[grid.ext_index]
    return _centred(ext[2:], ext[:-2], two_r, grid.stencil_scales)


def _sphere_geometry(background, grid, r):
    # At 128 nodes this kernel is bound by per-call cost, not arithmetic, so it
    # makes few numpy calls, finishes each expression in place and takes its
    # scalars as 0-d arrays.  Each expression keeps its operand order, as goldens
    # and tests pin these bits (c - a*b is -a*b + c, 2r is r + r, exactly).
    k, two_m = background.v_squared_terms
    r_sq = r**2
    # V^2 = k + r^2 - 2m/r from r_sq, in KottlerBackground.v_squared's operand order.
    f = k + r_sq
    f -= two_m / r
    two_r = r + r
    f1 = two_r + two_m / r_sq

    r_t, r_tt = _sphere_stencils(grid, r, two_r)
    grad_sq = r_t**2
    n_f = grad_sq / r_sq
    n_f = np.sqrt(np.add(f, n_f, out=n_f), out=n_f)

    f_r = f * r
    gamma_tt = grad_sq / f
    gamma_tt += r_sq
    # h_tt = (-r_tt + f_r + 2 grad_sq / r + grad_sq 0.5 f1 / f) / n_f, then k1.
    k1 = f_r - r_tt
    k1 += (grad_sq + grad_sq) / r
    k1 += grad_sq * 0.5 * f1 / f
    k1 /= n_f
    k1 /= gamma_tt

    # Azimuthal principal curvature on every node, then at the poles with the
    # cot(theta) term replaced by its L'Hopital limit cot(theta) r_t -> r_tt, in
    # Python floats: r[pole] ** 2 stays a scalar pow (the array square can differ
    # in the last bit), and NaN stands in where Python raises and numpy gives inf.
    k2 = f_r - grid.cot_full * r_t
    k2 /= n_f * r_sq
    for pole in (0, -1):
        try:
            k_pole = (f_r.item(pole) - r_tt.item(pole)) / (n_f.item(pole) * r.item(pole) ** 2)
        except (OverflowError, ZeroDivisionError):
            k_pole = math.nan
        k1[pole] = k2[pole] = k_pole

    def measure():
        v = np.sqrt(f)

        def shape():
            return 0.5 * (k1 - k2) ** 2, v / n_f

        # r^2 + grad_sq/f is gamma_tt with its two terms swapped (the same bits).
        return v, r * np.sqrt(gamma_tt), shape

    return SurfaceGeometry(mean_curvature=k1 + k2, graph_factor=n_f, measure=measure)


# Each slot of the torus workspace starts on a page boundary plus k times the
# stagger (mod a page): 576 B is 9 cache lines and 9 is prime to the 64 lines
# of a page, so up to 64 slots sit at distinct offsets within their pages.
_PAGE = 4096
_STAGGER = 72 * 8


def _torus_workspace(n):
    """The torus kernel's 11 float64 slots, split from one page-aligned buffer."""
    shapes = [(n, n)] * 8 + [(n + 2, n)] * 3
    sizes = [8 * math.prod(shape) for shape in shapes]
    starts, end = [], 0  # end: the first page boundary after the last slot
    for k, size in enumerate(sizes):
        starts.append(end + k * _STAGGER % _PAGE)
        end = -(-(starts[-1] + size) // _PAGE) * _PAGE
    buffer = np.empty(end + _PAGE, dtype=np.uint8)
    skip = -buffer.ctypes.data % _PAGE
    return [buffer[skip + start:skip + start + size].view(np.float64).reshape(shape)
            for start, size, shape in zip(starts, sizes, shapes)]


class _ThreadWorkspaces(threading.local):
    def __init__(self):
        self.torus = {}  # n -> the torus kernel's slots on this thread
        self.owner = {}  # n -> the token of the evaluation those slots hold


_workspaces = _ThreadWorkspaces()


def _torus_stencils(grid, r, slots):
    # r1, r2, r11, r22 and r12 into their slots (_torus_kernel), with 2r in D's.
    # Periodic neighbours: c holds r with one more row on either side (row 0
    # is row n, row n+1 is row 1), and right and left hold c[:, j+1] and
    # c[:, j-1], so that every stencil term is one contiguous block.
    _, d, _, r1, r2, r11, r22, r12, c, right, left = slots
    scales = grid.stencil_scales
    c[1:-1] = r
    c[0], c[-1] = c[-2], c[1]
    right[:, :-1], right[:, -1] = c[:, 1:], c[:, 0]
    left[:, 1:], left[:, 0] = c[:, :-1], c[:, -1]
    two_r = np.add(r, r, d)
    _centred(c[2:], c[:-2], two_r, scales, r1, r11)
    _centred(right[1:-1], left[1:-1], two_r, scales, r2, r22)
    np.subtract(right[2:], left[2:], r12)
    r12 -= right[:-2]
    r12 += left[:-2]
    by_4h_sq, four_h_sq = scales[2]
    by_4h_sq(r12, four_h_sq, r12)


def _torus_kernel(background, grid, r, slots):
    # H and the graph factor in closed form, without the metric's inverse.
    # With f = V^2, the centred differences r_i, r_ij, G = |grad r|^2 and
    # D = f r^2 + G, the induced metric is gamma = r^2 I + grad r grad r^T / f,
    # so det(gamma) = r^2 D / f, gamma^{-1} = (I - grad r grad r^T / D) / r^2
    # (Sherman-Morrison), and the graph factor n_f = sqrt(f + G / r^2) is
    # sqrt(D) / r.  The second fundamental form is h = M / n_f, with
    # M = f r I - hess r + (2/r + f'/(2f)) grad r grad r^T, so that
    #   H = tr(gamma^{-1} h) = N / (r D sqrt(D)),
    #   N = f r (2 f r^2 + c G - r lap r) - (r2^2 r11 + r1^2 r22 - 2 r1 r2 r12),
    # with c = 3 + r f'/(2f) = 3 + (r^2 + m/r)/f.  As r^3 = f r + 2m, the term
    # f r c G is 4 f r G + 3 m G, and N = f r (2 (D + G) - r lap r) + 3 m G - X
    # holds no division.  Every step is a correctly rounded ufunc in a fixed
    # order, whose bits the byte pins hold (2x is x + x, exactly).
    #
    # At 64x64 the kernel is bound by memory and per-call cost, not
    # arithmetic.  A fresh 32 KiB array is a heap allocation whose release can
    # trim the heap, so every intermediate goes into the 11 page-staggered
    # slots of a workspace (_torus_workspace), and only H and the graph factor
    # are new arrays.  The first eight slots end holding f, D, sqrt(D), r1, r2,
    # r11, r22 and r12, which the deferred groups read (_torus_geometry); the
    # last three hold the periodic neighbours, then scratch.  V^2 is r^2 - 2m/r,
    # as k = 0 on every torus (BaseSurface).  Nothing is written into r.
    f, d, sqrt_d, r1, r2, r11, r22, r12, c, right, left = slots
    _torus_stencils(grid, r, slots)

    # The neighbours are spent; their first n rows are scratch from here on.
    a, b, g = c[:-2], right[:-2], left[:-2]
    r_sq = np.multiply(r, r, sqrt_d)
    np.subtract(r_sq, np.divide(background.v_squared_terms[1], r, a), f)
    np.add(np.multiply(r1, r1, a), np.multiply(r2, r2, b), g)
    np.add(np.multiply(f, r_sq, d), g, d)
    # X = r2^2 r11 + r1^2 r22 - 2 r1 r2 r12 in b; a and b start as r1^2 and r2^2.
    b *= r11
    b += np.multiply(a, r22, a)
    np.multiply(np.add(r1, r1, a), r2, a)
    b -= np.multiply(a, r12, a)
    # N into the new array H: f r (2 (D + G) - r lap r) + 3 m G - X.
    lap = np.add(r11, r22, a)
    lap *= r
    np.add(d, g, sqrt_d)
    sqrt_d += sqrt_d
    sqrt_d -= lap
    mean_curv = np.multiply(f, r)
    mean_curv *= sqrt_d
    g *= 3.0 * background.mass
    mean_curv += g
    mean_curv -= b
    # H = N / (D sqrt(D) r) and n_f = sqrt(D) / r.
    np.sqrt(d, sqrt_d)
    den = np.multiply(d, sqrt_d, a)
    den *= r
    mean_curv /= den
    return mean_curv, np.divide(sqrt_d, r)


def _torus_geometry(background, grid, r):
    # The kernel writes into this thread's workspace for n, which holds one
    # evaluation at a time, and a fresh token marks whose.  The deferred groups
    # read the slots while the calling thread's token for n is still theirs,
    # and otherwise rerun the kernel into private slots (SurfaceGeometry).
    n = grid.n
    slots = _workspaces.torus.get(n)
    if slots is None:
        slots = _workspaces.torus[n] = _torus_workspace(n)
    token = _workspaces.owner[n] = object()
    mean_curv, n_f = _torus_kernel(background, grid, r, slots)

    def held():
        if _workspaces.owner.get(n) is token:
            return slots
        private = _torus_workspace(n)
        _torus_kernel(background, grid, r, private)
        return private

    def measure():
        f, _, sqrt_d = held()[:3]
        v = np.sqrt(f)

        def shape():
            # |A|^2 = H^2 - 2 det(S) for the shape operator S = gamma^{-1} h, so
            # the traceless part is H^2/2 - 2 det(h)/det(gamma), and
            # det(h)/det(gamma) = f det(M) / D^2 (see _torus_kernel).
            f, d, _, r1, r2, r11, r22, r12 = held()[:8]
            f_r = f * r
            fac = (2.0 + (r * r + background.mass / r) / f) / r
            m11 = f_r - r11 + fac * r1 * r1
            m22 = f_r - r22 + fac * r2 * r2
            m12 = fac * r1 * r2 - r12
            det_m = m11 * m22 - m12 * m12
            traceless_sq = np.maximum(0.5 * mean_curv**2 - 2.0 * f * det_m / (d * d), 0.0)
            return traceless_sq, v / n_f

        return v, r * sqrt_d / v, shape

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
    """A radial graph rho = r(theta) in a Kottler background.

    The field is checked once, as the surface is made, and kept as a
    read-only view: a write through ``radius_field`` raises ValueError, and
    the caller's array stays writeable.  The geometry and its memo
    (``integral``, which holds the bulk too) are computed from that field,
    so writing into the caller's array or assigning another one to
    ``radius_field``, like replacing ``_geometry``, is outside the contract.
    """

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
        # min and max give every check: argmin and argmax find the first NaN, and
        # an infinite node is the min or the max (at a third of a ufunc reduce).
        lo, hi = r.item(r.argmin()), r.item(r.argmax())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise FlowSingularError("non-finite radius field")
        # r == horizon_rho is allowed for a constant field only: the horizon
        # slice is valid initial data for the exact slice flow (where V = 0
        # but the radial speed rho/2 stays finite), while the graph kernels
        # divide by V^2, which at a horizon node rounds to either side of 0.
        if lo <= self.background.horizon_rho:
            if lo < self.background.horizon_rho:
                raise ExteriorError("surface must not dip below the horizon")
            if hi > lo:
                raise ExteriorError("a non-constant surface must not touch the horizon")
        self.radius_field = r = r.view()
        r.setflags(write=False)
        self.is_constant = bool(hi - lo == 0.0)

    @property
    def geometry(self):
        if self._geometry is None:
            compute_geometry(self)
        return self._geometry

    def integral(self, name, integrand):
        """integrate(base, integrand(geometry)), once per geometry and name.

        Two threads that race on one name store the same bits."""
        g = self.geometry
        memo = g.derived
        if name not in memo:
            memo[name] = integrate(self.background.base, integrand(g))
        return memo[name]

    def area(self):
        return self.integral("area", lambda g: g.area_density)


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
    # As in GraphSurface: the geometry's min finds a NaN or -inf node, the max +inf.
    h = geom.mean_curvature
    lo, hi = geom.min_mean_curvature, h.item(h.argmax())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise FlowSingularError("non-finite mean curvature")
    surface._geometry = geom
    return surface


def star_shaped_check(surface, floor):
    """True iff the radial alignment stays at or above the floor everywhere."""
    return bool(np.min(surface.geometry.alignment) >= floor)
