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
    neither group, makes one closure per geometry.  The scalars computed
    from a geometry and its surface's read-only field, its surface integrals
    (GraphSurface.integral, the bulk among them) and its unscaled CFL bound
    (flow.cfl_limit), are kept by name in its memo ``derived``, each
    computed once; dataclasses.replace starts a new memo.

    On the torus the intermediates live in a per-thread workspace that the
    next evaluation reuses (_torus_workspace, _torus_geometry).  They hold
    V^2 formed without k, which is 0 on every torus, and -i12 in place of the
    inverse metric's i12.  A read after a later evaluation, or from another
    thread, reruns the kernel into private slots, which gives the same bits.
    Every field is a new array: none shares memory with the workspace.
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


def _sphere_geometry(background, grid, r):
    # At 128 nodes this kernel is bound by per-call cost, not arithmetic, so it
    # makes few numpy calls, finishes each expression in place and takes its
    # scalars as 0-d arrays.  Each expression keeps its operand order, as goldens
    # and tests pin these bits (c - a*b is -a*b + c, 2r is r + r, exactly).
    k, two_m = background.v_squared_terms
    two_h, h_sq = grid.stencil_divisors
    r_sq = r**2
    # V^2 = k + r^2 - 2m/r from r_sq, in KottlerBackground.v_squared's operand order.
    f = k + r_sq
    f -= two_m / r
    two_r = r + r
    f1 = two_r + two_m / r_sq

    # Reflective (even) extension across both poles in one gather, so that
    # the Neumann condition r'(0) = r'(pi) = 0 holds: r_t at a pole is
    # r[1] - r[1] (or r[-2] - r[-2]), exactly 0 for a finite field.
    ext = r[grid.ext_index]
    r_t = ext[2:] - ext[:-2]
    r_t /= two_h
    r_tt = ext[2:] - two_r
    r_tt += ext[:-2]
    r_tt /= h_sq
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
    """The torus kernel's 19 float64 slots, split from one page-aligned buffer."""
    shapes = [(n, n)] * 8 + [(n + 2, n)] * 3 + [(n, n)] * 8
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


_TWO, _HALF = np.array(2.0), np.array(0.5)  # 0-d: numpy converts a Python float per call


def _torus_kernel(background, grid, r, slots):
    # At 64x64 this kernel is bound by memory and per-call cost, not
    # arithmetic.  A fresh 32 KiB array is a heap allocation whose release can
    # trim the heap, so every intermediate goes into the 19 page-staggered
    # slots of a workspace (_torus_workspace), and only H and the graph
    # factor are new arrays.  The first eight slots end holding V^2,
    # det(gamma), gamma^{-1} (i11, i22 and -i12) and h (h11, h12, h22), which
    # the deferred groups read (_torus_geometry); the rest are scratch.  Each
    # expression has the bits of the reference kernel, which goldens and tests
    # pin: a + (-x) and -x + a are a - x, 2r is r + r, and k + r^2 is r^2, as
    # k = 0 on every torus (BaseSurface).  Nothing is written into r.
    (f, det, g22, g11, g12, r11, fac_r1, r22, c, right, left,
     r_sq, two_r, f1, r1, r2, r12, fac, f_r) = slots
    (by_2h, two_h), (by_h_sq, h_sq), (by_4h_sq, four_h_sq) = grid.stencil_scales
    two_m = background.v_squared_terms[1]
    # V^2 = r^2 - 2m/r and f1 = 2r + 2m/r^2.
    np.square(r, r_sq)
    np.subtract(r_sq, np.divide(two_m, r, f1), f)
    np.add(r, r, two_r)
    np.add(two_r, np.divide(two_m, r_sq, f1), f1)

    # Periodic neighbours: c holds r with one more row on either side (row 0
    # is row n, row n+1 is row 1), and right and left hold c[:, j+1] and
    # c[:, j-1], so that every stencil term is one contiguous block.
    c[1:-1] = r
    c[0], c[-1] = c[-2], c[1]
    right[:, :-1], right[:, -1] = c[:, 1:], c[:, 0]
    left[:, 1:], left[:, 0] = c[:, :-1], c[:, -1]
    by_2h(np.subtract(c[2:], c[:-2], r1), two_h, r1)
    by_2h(np.subtract(right[1:-1], left[1:-1], r2), two_h, r2)
    for d2, up, down in ((r11, c[2:], c[:-2]), (r22, right[1:-1], left[1:-1])):
        np.add(np.subtract(up, two_r, d2), down, d2)
        by_h_sq(d2, h_sq, d2)
    np.subtract(right[2:], left[2:], r12)
    r12 -= right[:-2]
    r12 += left[:-2]
    by_4h_sq(r12, four_h_sq, r12)

    # g11 and g22 start as r1^2 and r2^2, whose sum is |grad r|^2.
    np.multiply(r1, r1, g11)
    np.multiply(r2, r2, g22)
    n_f = g11 + g22
    n_f /= r_sq
    np.sqrt(np.add(f, n_f, n_f), n_f)
    for g in (g11, g22):
        g /= f
        g += r_sq
    np.divide(np.multiply(r1, r2, g12), f, g12)
    np.subtract(np.multiply(g11, g22, det), np.square(g12, fac), det)
    i11 = np.divide(g22, det, g22)
    i22 = np.divide(g11, det, g11)
    neg_i12 = np.divide(g12, det, g12)

    np.divide(_TWO, r, fac)
    np.multiply(_HALF, f1, f1)
    f1 /= f
    fac += f1
    np.multiply(f, r, f_r)
    np.multiply(fac, r1, fac_r1)
    h11 = np.subtract(f_r, r11, r11)
    h11 += np.multiply(fac_r1, r1, r1)
    h11 /= n_f
    h12 = np.multiply(fac_r1, r2, fac_r1)
    h12 -= r12
    h12 /= n_f
    h22 = np.subtract(f_r, r22, r22)
    fac *= r2
    fac *= r2
    h22 += fac
    h22 /= n_f

    # H = i11 h11 + i22 h22 + 2 i12 h12; f_r is spent and holds the last two terms.
    mean_curv = i11 * h11
    mean_curv += np.multiply(i22, h22, f_r)
    np.multiply(np.add(neg_i12, neg_i12, f_r), h12, f_r)
    mean_curv -= f_r
    return mean_curv, n_f


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
        f, det = held()[:2]
        v = np.sqrt(f)

        def shape():
            # |A|^2 = tr(S^2) with shape operator S = gamma^{-1} h (not
            # symmetric as a matrix, so the cross terms pair S12 with S21).
            # The slots hold -i12, so each i12 term is subtracted.
            i11, i22, neg_i12, h11, h12, h22 = held()[2:8]
            s11 = i11 * h11 - neg_i12 * h12
            s12 = i11 * h12 - neg_i12 * h22
            s21 = i22 * h12 - neg_i12 * h11
            s22 = i22 * h22 - neg_i12 * h12
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
