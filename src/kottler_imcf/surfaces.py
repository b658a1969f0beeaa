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
    computed with the geometry.  The other four fields are read only at
    sample times and by audits, and are computed on first read from the
    kernel's intermediates, in two groups, each once.  ``measure`` gives
    (potential, area_density), all that the functionals read, and the
    shape group's closure, which gives (traceless_sq, alignment) from the
    same potential.  The shape closure is made only when the measure
    group runs, so a flow stage, which reads neither group, makes one
    closure per geometry.

    On the torus the intermediates live in a workspace that the next
    evaluation reuses: one page-aligned buffer per thread and grid size n,
    split into 19 slots, each starting on its own 4 KiB page plus a
    stagger of 72 doubles per slot, so that no two slots share an offset
    within a page.  Each evaluation takes ownership with a fresh token.
    The two groups read the slots while the token is still theirs on the
    calling thread; after a later evaluation, or from another thread, they
    rerun the kernel into private slots, which gives the same bits.  Every
    field is a new array: none shares memory with the workspace.
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


def _torus_kernel(background, grid, r, slots):
    # At 64x64 this kernel is bound by memory, not arithmetic: a fresh 32 KiB
    # array is a heap allocation, and freeing it can let the heap trim, so
    # that a later call faults the same pages back in.  So every intermediate
    # goes into the 19 slots of a workspace (_torus_workspace: one buffer,
    # each slot on its own 4 KiB page plus a stagger of 72 doubles per slot),
    # and only the two returned arrays, H and the graph factor, are new; they
    # share no memory with the slots.  The first eight slots end holding V^2,
    # det(gamma), gamma^{-1} (i11, i22, i12) and h (h11, h12, h22), which the
    # deferred groups read while their evaluation still owns the workspace
    # (_torus_geometry); the rest are scratch.  Each expression keeps its
    # operand order, since goldens and tests pin these bits exactly (f_r -
    # r11 is -r11 + f_r, signed zeros included), and nothing is written into r.
    (f, det, g22, g11, g12, r11, fac_r1, r22, c, right, left,
     r_sq, two_r, f1, r1, r2, r12, fac, f_r) = slots
    h = grid.spacing
    # V^2 = k + r^2 - 2m/r: KottlerBackground.v_squared in its operand order
    # (the bitwise reference tests compare the potential with it).
    np.square(r, out=r_sq)
    np.add(background.curvature_sign, r_sq, out=f)
    f -= np.divide(2.0 * background.mass, r, out=f1)
    np.multiply(2.0, r, out=two_r)
    np.divide(2.0 * background.mass, r_sq, out=f1)
    np.add(two_r, f1, out=f1)

    # Periodic neighbours: c, right and left hold r, r[:, j+1] and r[:, j-1],
    # each with one more row on either side (row 0 is row n, row n+1 is row
    # 1), so that every stencil term is one contiguous block.
    c[1:-1] = r
    right[1:-1, :-1] = r[:, 1:]
    right[1:-1, -1] = r[:, 0]
    left[1:-1, 1:] = r[:, :-1]
    left[1:-1, 0] = r[:, -1]
    for ext in (c, right, left):
        ext[0] = ext[-2]
        ext[-1] = ext[1]
    np.subtract(c[2:], c[:-2], out=r1)
    r1 /= 2.0 * h
    np.subtract(right[1:-1], left[1:-1], out=r2)
    r2 /= 2.0 * h
    np.subtract(c[2:], two_r, out=r11)
    r11 += c[:-2]
    r11 /= h**2
    np.subtract(right[1:-1], two_r, out=r22)
    r22 += left[1:-1]
    r22 /= h**2
    np.subtract(right[2:], left[2:], out=r12)
    r12 -= right[:-2]
    r12 += left[:-2]
    r12 /= 4.0 * h**2

    # g11 and g22 start as r1^2 and r2^2, whose sum is |grad r|^2.
    np.multiply(r1, r1, out=g11)
    np.multiply(r2, r2, out=g22)
    n_f = g11 + g22
    n_f /= r_sq
    np.add(f, n_f, out=n_f)
    np.sqrt(n_f, out=n_f)

    g11 /= f
    g11 += r_sq
    g22 /= f
    g22 += r_sq
    np.multiply(r1, r2, out=g12)
    g12 /= f
    np.multiply(g11, g22, out=det)
    det -= np.square(g12, out=fac)
    i11 = np.divide(g22, det, out=g22)
    i22 = np.divide(g11, det, out=g11)
    i12 = np.negative(g12, out=g12)
    i12 /= det

    np.divide(2.0, r, out=fac)
    np.multiply(0.5, f1, out=f1)
    f1 /= f
    fac += f1
    np.multiply(f, r, out=f_r)
    np.multiply(fac, r1, out=fac_r1)
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
    return mean_curv, n_f


def _torus_geometry(background, grid, r):
    # Ownership: the kernel writes into this thread's workspace for n, which
    # holds one evaluation at a time, and a fresh token marks whose.  The
    # deferred groups read the slots while the calling thread's token for n
    # is still theirs.  Otherwise (a later evaluation on this thread, or a
    # read from another thread) they rerun the kernel into private slots,
    # which gives the same bits.  Every array they return is new.
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
            i11, i22, i12, h11, h12, h22 = held()[2:8]
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
        # r == horizon_rho is allowed for a constant field only: the horizon
        # slice is valid initial data for the exact slice flow (where V = 0
        # but the radial speed rho/2 stays finite), while the graph kernels
        # divide by V^2, which at a horizon node rounds to either side of 0.
        if lo <= self.background.horizon_rho:
            if lo < self.background.horizon_rho:
                raise ExteriorError("surface must not dip below the horizon")
            if hi > lo:
                raise ExteriorError("a non-constant surface must not touch the horizon")
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
