"""Closed constant-curvature cross-sections and their quadrature rules.

The cross-section carries a Gauss curvature sign in {-1, 0, +1}, a genus,
and a total area tied to the curvature by Gauss-Bonnet.  Three grid kinds
are supported: an axisymmetric colatitude grid on the round sphere, a
periodic square grid on the flat torus, and a single-point grid used for
constant graphs over hyperbolic bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidBaseError

__all__ = [
    "AxisymmetricSphereGrid",
    "FlatTorusGrid",
    "PointGrid",
    "BaseSurface",
    "make_base",
    "integrate",
]

MIN_RESOLUTION = 8
# The largest grid per curvature sign: far above any shipped one (sphere 128,
# torus 64), and low enough that an audit over it fits in memory: 200 MiB on
# the torus (its kernel's workspace is 11 fields of 8 MiB), 40 MiB on the sphere.
MAX_RESOLUTION = {1: 65_536, 0: 1_024}


@dataclass(frozen=True, eq=False)
class AxisymmetricSphereGrid:
    """Uniform colatitude nodes on [0, pi]; fields depend on colatitude only.

    Quadrature is composite Simpson against the sin(theta) area weight,
    rescaled so the constant 1 integrates to exactly 4*pi.
    """

    n_points: int
    theta: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    curvature_sign = 1
    area = 4.0 * np.pi
    mode_axes = 1

    def mode_field(self, mode=1):
        return np.cos(mode * self.theta)

    @property
    def spacing(self):
        return np.pi / (self.n_points - 1)

    @cached_property
    def cot_full(self):
        """cot(theta) on the nodes strictly between the poles, 0 at the two poles."""
        inner = self.theta[1:-1]
        return np.concatenate(([0.0], np.cos(inner) / np.sin(inner), [0.0]))

    # The SSPRK(4,3) stability limit near a slice, in units of the flow's
    # bound (flow.cfl_limit), measured from the spectrum of the linearized
    # speed: this stencil has one axis where the torus's has two.
    stable_step = 1.063

    @cached_property
    def stencil_scales(self):
        """2h and h^2, the divisors of the centered r_t and r_tt, as _division_by pairs."""
        h = self.spacing
        return tuple(_division_by(c) for c in (2.0 * h, h**2))

    @cached_property
    def ext_index(self):
        """Gather index of the reflective (even) extension across both poles:
        r[ext_index] is r with r[1] before it and r[-2] after it."""
        n = self.n_points
        return np.concatenate(([1], np.arange(n), [n - 2]))


@dataclass(frozen=True, eq=False)
class FlatTorusGrid:
    """n x n periodic grid on [0, L)^2 with uniform trapezoid weights."""

    n: int
    area: float
    theta1: np.ndarray = field(repr=False)
    theta2: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    curvature_sign = 0  # the torus kernel forms V^2 = rho^2 - 2m/rho, without k
    mode_axes = 2

    @cached_property
    def side(self):
        return np.sqrt(self.area)

    def mode_field(self, m1=1, m2=0):
        # On node (j, k): sin(2 pi (m1 j + m2 k) / n), 0 on every node iff n divides 2*m1
        # and 2*m2; decided on the integers, as sin(pi j) leaves round-off.
        if (2 * m1) % self.n == 0 and (2 * m2) % self.n == 0:
            raise ValueError(f"resolution {self.n} divides both 2*m1 and 2*m2")
        return np.sin(2.0 * np.pi * (m1 * self.theta1 + m2 * self.theta2) / self.side)

    @property
    def spacing(self):
        return self.side / self.n

    # The SSPRK(4,3) stability limit near a slice, in units of the flow's
    # bound: about 5.15/8, for the five-point stencil's two axes.
    stable_step = 0.645

    @cached_property
    def stencil_scales(self):
        """2h, h^2 and 4h^2, the divisors of the centered differences, as _division_by pairs."""
        h = self.spacing
        return tuple(_division_by(c) for c in (2.0 * h, h**2, 4.0 * h**2))


def _division_by(c):
    """(ufunc, 0-d operand) such that ufunc(x, operand, x) is x /= c, bit for bit.

    Where c is a power of two with a finite reciprocal, x * (1/c) and x / c
    round the same real number for every double x, and multiplying costs
    about half as much as dividing.
    """
    if math.frexp(c)[0] == 0.5 and math.isfinite(1.0 / c):
        return np.multiply, np.array(1.0 / c)
    return np.divide, np.array(c)


@dataclass(frozen=True)
class PointGrid:
    """A single representative point; only constant fields are meaningful."""

    area: float

    curvature_sign = None  # any
    mode_axes = 0

    @property
    def weights(self):
        return np.array([self.area])

    def mode_field(self):
        raise ValueError("a point grid carries constant graphs only")


@dataclass(frozen=True, eq=False)
class BaseSurface:
    """The cross-section (Sigma-hat, g-hat) with its grid and quadrature."""

    curvature_sign: int
    area: float
    genus: int
    grid: AxisymmetricSphereGrid | FlatTorusGrid | PointGrid

    @property
    def euler_char(self):
        return 2 - 2 * self.genus

    def __post_init__(self):
        if self.grid.curvature_sign not in (None, self.curvature_sign):
            raise InvalidBaseError(f"{type(self.grid).__name__} needs curvature_sign "
                                   f"{self.grid.curvature_sign}", "curvature_sign")
        if self.grid.area != self.area:
            raise InvalidBaseError(f"the grid's area is {self.grid.area}, not {self.area}", "area")
        # Gauss-Bonnet must hold exactly by construction: make_base's area follows the genus.
        if self.curvature_sign * self.area != 2.0 * np.pi * self.euler_char:
            raise InvalidBaseError(
                f"Gauss-Bonnet violated: k*area = {self.curvature_sign * self.area}, "
                f"2*pi*chi = {2.0 * np.pi * self.euler_char}", "genus"
            )


def _simpson_weights(x):
    """Composite Simpson weights on the nodes x, closed by Cartwright's
    correction on the last interval when the node count is even.

    Each coefficient repeats, in order, the floating-point operations of
    the reference rule in tests/test_base.py, so the weights, and the sphere
    goldens built on them, match it bit for bit; reordering moves them.
    The one exception is h1^3, a product here where the reference calls pow
    (whose loop depends on numpy's SIMD dispatch); the two cubes differ at
    some node counts, but the weights agree at every count from 8 to 1999.
    """
    h = np.diff(x)
    n = len(x)
    m = (n - 1) // 2 * 2  # intervals covered by whole Simpson panels
    h0, h1 = h[0:m:2], h[1:m:2]
    hsum = h0 + h1
    ratio = h0 / h1
    w = np.zeros(n)
    w[0:m:2] += hsum / 6.0 * (2.0 - 1.0 / ratio)
    w[1:m:2] += hsum / 6.0 * (hsum * (hsum / (h0 * h1)))
    w[2:m + 1:2] += hsum / 6.0 * (2.0 - ratio)
    if n % 2 == 0:
        h0, h1 = h[-2:-1], h[-1:]
        w[-1:] += (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        w[-2:-1] += (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        w[-3:-2] -= h1 * h1 * h1 / (6 * h0 * (h0 + h1))
    return w


def _sphere_grid(n_points):
    theta = np.linspace(0.0, np.pi, n_points)
    weights = 2.0 * np.pi * _simpson_weights(theta) * np.sin(theta)
    weights *= 4.0 * np.pi / weights.sum()
    return AxisymmetricSphereGrid(n_points=n_points, theta=theta, weights=weights)


def _torus_grid(n, area):
    side = np.sqrt(area)
    t1 = np.arange(n) * (side / n)
    theta1, theta2 = np.meshgrid(t1, t1, indexing="ij")
    weights = np.full((n, n), (side / n) ** 2)
    return FlatTorusGrid(n=n, area=area, theta1=theta1, theta2=theta2, weights=weights)


def make_base(curvature_sign, genus, grid_resolution, area=None):
    """Construct a cross-section.

    Parameters
    ----------
    curvature_sign : int in {-1, 0, +1}
    genus : int
        Must match the curvature sign: 0 for +1, 1 for 0, >= 2 for -1.
    grid_resolution : int or "point"
        Node count (colatitude nodes for the sphere, n for the n x n torus
        grid).  "point" requests the single-point grid.
    area : float, optional
        Overrides the flat-torus area (default 1).  Rejected for curved
        bases, whose area is forced by Gauss-Bonnet.
    """
    if curvature_sign not in (-1, 0, 1):
        raise InvalidBaseError(f"curvature_sign must be -1, 0, or +1, got {curvature_sign}",
                               "curvature_sign")
    expected = {1: genus == 0, 0: genus == 1, -1: genus >= 2}
    if not expected[curvature_sign]:
        raise InvalidBaseError(
            f"genus {genus} incompatible with curvature sign {curvature_sign}", "genus"
        )

    if curvature_sign == 1:
        w2 = 4.0 * np.pi
    elif curvature_sign == -1:
        w2 = 4.0 * np.pi * (genus - 1)  # exactly -2*pi*chi, as Gauss-Bonnet checks
    else:
        w2 = 1.0 if area is None else float(area)
        if w2 <= 0:
            raise InvalidBaseError("torus area must be positive", "area")
    if curvature_sign != 0 and area is not None:
        raise InvalidBaseError("area of a curved base is fixed by Gauss-Bonnet", "area")

    point = grid_resolution == "point"
    if not point:
        if isinstance(grid_resolution, (float, np.floating)) and not grid_resolution.is_integer():
            raise InvalidBaseError(f"resolution {grid_resolution!r} is not an integer",
                                   "grid_resolution")
        resolution = int(grid_resolution)
        if resolution < MIN_RESOLUTION:
            raise InvalidBaseError(f"resolution {resolution} < {MIN_RESOLUTION}",
                                   "grid_resolution")
        if resolution > MAX_RESOLUTION.get(curvature_sign, resolution):
            raise InvalidBaseError(f"resolution {resolution} > {MAX_RESOLUTION[curvature_sign]}",
                                   "grid_resolution")

    if point:
        grid = PointGrid(area=w2)
    elif curvature_sign == 1:
        grid = _sphere_grid(resolution)
    elif curvature_sign == 0:
        grid = _torus_grid(resolution, w2)
    else:
        raise InvalidBaseError(
            f"hyperbolic bases support only the point grid, not {resolution}", "grid_resolution"
        )
    return BaseSurface(curvature_sign=curvature_sign, area=w2, genus=genus, grid=grid)


def integrate(base, field):
    """Quadrature of a scalar field over the cross-section.

    ``field`` is an array of node samples matching the grid shape.
    """
    grid = base.grid
    field = np.asarray(field, dtype=float)
    if field.shape != grid.weights.shape:
        raise ValueError(
            f"field shape {field.shape} does not match grid shape {grid.weights.shape}"
        )
    return float(np.add.reduce(grid.weights * field, axis=None))
