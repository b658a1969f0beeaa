"""Graph surface geometry: slice exactness and convergence to exact values.

The curved-graph oracles below are mean curvatures computed from first
principles with a computer algebra system (ambient Christoffel symbols
of the warped metric, embedding derivatives, unit normal), evaluated at
grid-representable points to 25 digits and frozen here.
"""

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import kottler_imcf.surfaces
from kottler_imcf import (
    ExteriorError,
    FlowSingularError,
    GraphSurface,
    compute_geometry,
    integrate,
    make_background,
    star_shaped_check,
)
from kottler_imcf.base import _division_by
from kottler_imcf.surfaces import _sphere_geometry, _torus_geometry

# r = 2 + cos(theta)/5 over ADS-Schwarzschild mass 1, at theta = pi/4, pi/2, 3pi/4
SPHERE_H_ORACLE = {
    0.25: 2.043944733606924330890829,
    0.50: 2.002797317955478426537711,
    0.75: 1.935372296370642564194330,
}
# r = 3 + sin(2 pi t1)/10 over toroidal Kottler mass 1/2, at t1 = 1/8, 1/4, 5/8
TORUS_H_ORACLE = {
    0.125: 2.065311404643498909001953,
    0.250: 2.100945964553240691798536,
    0.625: 1.849835389642934509313853,
}


@pytest.mark.parametrize(
    "k,genus,mass,resolution",
    [(1, 0, 1.0, 65), (0, 1, 0.5, 16), (-1, 2, 1.0, "point")],
)
def test_slice_geometry_exact(k, genus, mass, resolution):
    b = make_background(k, genus, resolution, mass=mass)
    rho = 2.0 * b.horizon_rho
    s = GraphSurface(b, rho)
    g = s.geometry
    v = b.potential(rho)
    assert np.max(np.abs(g.mean_curvature - 2.0 * v / rho)) == 0.0
    assert np.max(np.abs(g.area_density - rho**2)) == 0.0
    assert np.max(np.abs(g.alignment - 1.0)) == 0.0
    assert np.max(np.abs(g.traceless_sq)) == 0.0
    assert s.area() == pytest.approx(b.base.area * rho**2, rel=1e-14)


def _sphere_surface(n, amplitude=0.2):
    b = make_background(1, 0, n, mass=1.0)
    th = b.base.grid.theta
    return GraphSurface(b, 2.0 + amplitude * np.cos(th)), th


def _torus_surface(n, amplitude=0.1):
    b = make_background(0, 1, n, mass=0.5)
    g = b.base.grid
    return GraphSurface(b, 3.0 + amplitude * np.sin(2.0 * np.pi * g.theta1 / g.side)), g


def _sphere_oracle_error(n):
    s, th = _sphere_surface(n)
    H = s.geometry.mean_curvature
    return max(
        abs(H[np.argmin(np.abs(th - frac * np.pi))] - exact)
        for frac, exact in SPHERE_H_ORACLE.items()
    )


def _torus_oracle_error(n):
    s, g = _torus_surface(n)
    H = s.geometry.mean_curvature
    t1 = g.theta1[:, 0]
    return max(
        abs(H[np.argmin(np.abs(t1 - pos)), 0] - exact)
        for pos, exact in TORUS_H_ORACLE.items()
    )


def test_sphere_mean_curvature_matches_oracle():
    assert _sphere_oracle_error(129) < 5e-6


def test_sphere_mean_curvature_second_order():
    ratio = _sphere_oracle_error(65) / _sphere_oracle_error(129)
    assert ratio == pytest.approx(4.0, rel=0.15)


def test_torus_mean_curvature_matches_oracle():
    assert _torus_oracle_error(64) < 2e-4


def test_torus_mean_curvature_second_order():
    ratio = _torus_oracle_error(32) / _torus_oracle_error(64)
    assert ratio == pytest.approx(4.0, rel=0.15)


# The hand-differentiated derivatives of the two oracle fields, in place of
# each kernel's stencil step (_sphere_stencils, _torus_stencils).


def _exact_oracle_sphere_stencils(grid, r, two_r):
    return -0.2 * np.sin(grid.theta), -0.2 * np.cos(grid.theta)


def _exact_oracle_torus_stencils(grid, r, slots):
    s = 2.0 * np.pi / grid.side
    r1, r2, r11, r22, r12 = slots[3:8]
    r1[...] = 0.1 * s * np.cos(s * grid.theta1)
    r11[...] = -0.1 * s * s * np.sin(s * grid.theta1)
    r2[...] = r22[...] = r12[...] = 0.0


@pytest.mark.parametrize("step, stencils, oracle_error, n", [
    ("_sphere_stencils", _exact_oracle_sphere_stencils, _sphere_oracle_error, 129),
    ("_torus_stencils", _exact_oracle_torus_stencils, _torus_oracle_error, 64),
], ids=["sphere", "torus"])
def test_mean_curvature_with_exact_derivatives_matches_oracle(monkeypatch, step, stencils,
                                                              oracle_error, n):
    # Without the stencils' O(h^2) error only round-off is left between the
    # kernel's algebra and the CAS values (measured 2.2e-16 on the sphere and
    # 4.4e-16 on the torus; 1e-6 relative faults in the sphere's f'/(2f) term
    # and the torus's 3 m G term read 2.8e-9 and 1.7e-10).
    monkeypatch.setattr(kottler_imcf.surfaces, step, stencils)
    assert oracle_error(n) <= 1e-13


def test_alignment_bounded_by_one():
    for surface in (_sphere_surface(65)[0], _torus_surface(32)[0]):
        align = surface.geometry.alignment
        assert np.all(align <= 1.0 + 1e-15)
        assert np.all(align > 0.0)


def test_traceless_sq_nonnegative_and_consistent():
    s, _ = _torus_surface(32)
    g = s.geometry
    assert np.all(g.traceless_sq >= 0.0)
    # perturbation is genuinely non-umbilic somewhere
    assert np.max(g.traceless_sq) > 1e-4


def test_sphere_pole_regularity():
    # pole values must match the interior limit smoothly; compare the two
    # principal curvatures, equal at the axis by symmetry
    s, th = _sphere_surface(257)
    H = s.geometry.mean_curvature
    # H is smooth through the pole: second difference stays bounded
    d2 = np.abs(H[0] - 2.0 * H[1] + H[2])
    assert d2 < 1e-3


def test_area_density_matches_area_growth_of_radius():
    s, g = _torus_surface(32)
    area = s.area()
    slice_area = GraphSurface(s.background, 3.0).area()
    assert area > slice_area  # perturbation increases area


def test_horizon_slice_allowed_but_interior_rejected():
    b = make_background(1, 0, 65, mass=1.0)
    GraphSurface(b, b.horizon_rho)  # boundary case is valid initial data
    with pytest.raises(ExteriorError):
        GraphSurface(b, 0.99 * b.horizon_rho)


def test_shape_mismatch_rejected():
    b = make_background(1, 0, 65, mass=1.0)
    with pytest.raises(ValueError):
        GraphSurface(b, np.ones(17))


def test_non_finite_radius_rejected():
    b = make_background(1, 0, 65, mass=1.0)
    r = np.full(65, 2.0)
    r[3] = np.nan
    with pytest.raises(FlowSingularError):
        GraphSurface(b, r)


def test_scalar_radius_broadcast():
    b = make_background(0, 1, 16, mass=0.5)
    s = GraphSurface(b, 2.0)
    assert s.radius_field.shape == (16, 16)
    assert s.is_constant


def test_star_shaped_check():
    s, _ = _sphere_surface(65)
    assert star_shaped_check(s, 0.1)
    assert not star_shaped_check(s, 1.0 + 1e-9)


def test_compute_geometry_idempotent_cache():
    s, _ = _sphere_surface(65)
    g1 = s.geometry
    compute_geometry(s)
    assert np.array_equal(s.geometry.mean_curvature, g1.mean_curvature)


def _roll_stencils(grid, r):
    # The torus kernel's centred differences, with one np.roll copy per
    # stencil neighbour: r1, r2, r11, r22 and r12.
    def d1(axis):
        return (np.roll(r, -1, axis=axis) - np.roll(r, 1, axis=axis)) / (2.0 * h)

    def d2(axis):
        return (np.roll(r, -1, axis=axis) - 2.0 * r + np.roll(r, 1, axis=axis)) / h**2

    h = grid.spacing
    r12 = (
        np.roll(np.roll(r, -1, 0), -1, 1)
        - np.roll(np.roll(r, -1, 0), 1, 1)
        - np.roll(np.roll(r, 1, 0), -1, 1)
        + np.roll(np.roll(r, 1, 0), 1, 1)
    ) / (4.0 * h**2)
    return d1(0), d1(1), d2(0), d2(1), r12


def _roll_torus_geometry(background, grid, r):
    # The torus kernel as first written: the induced metric, its inverse and
    # h_ij, term by term.  An oracle for the closed form, to round-off
    # (test_torus_closed_form_matches_the_metric_inverse).
    f = background.v_squared(r)
    v = np.sqrt(f)
    f1 = 2.0 * r + 2.0 * background.mass / r**2
    r1, r2, r11, r22, r12 = _roll_stencils(grid, r)

    grad_sq = r1**2 + r2**2
    n_f = np.sqrt(f + grad_sq / r**2)
    g11 = r1 * r1 / f + r**2
    g22 = r2 * r2 / f + r**2
    g12 = r1 * r2 / f
    det = g11 * g22 - g12**2
    i11 = g22 / det
    i22 = g11 / det
    i12 = -g12 / det

    fac = 2.0 / r + 0.5 * f1 / f
    h11 = (-r11 + f * r + fac * r1 * r1) / n_f
    h22 = (-r22 + f * r + fac * r2 * r2) / n_f
    h12 = (-r12 + fac * r1 * r2) / n_f

    mean_curv = i11 * h11 + i22 * h22 + 2.0 * i12 * h12
    s11 = i11 * h11 + i12 * h12
    s12 = i11 * h12 + i12 * h22
    s21 = i12 * h11 + i22 * h12
    s22 = i12 * h12 + i22 * h22
    a_sq = s11**2 + s22**2 + 2.0 * s12 * s21
    return {
        "potential": v,
        "area_density": np.sqrt(det),
        "mean_curvature": mean_curv,
        "traceless_sq": np.maximum(a_sq - 0.5 * mean_curv**2, 0.0),
        "alignment": v / n_f,
        "graph_factor": n_f,
    }


def _closed_form_torus_geometry(background, grid, r):
    # The torus kernel's closed form (derived in its comment), one numpy
    # expression per quantity over np.roll stencils: the reference the
    # kernel must match bit for bit.
    m = background.mass
    f = background.v_squared(r)
    v = np.sqrt(f)
    r1, r2, r11, r22, r12 = _roll_stencils(grid, r)

    grad_sq = r1 * r1 + r2 * r2
    d = f * r**2 + grad_sq
    cross = r2 * r2 * r11 + r1 * r1 * r22 - 2.0 * r1 * r2 * r12
    numerator = f * r * (2.0 * (d + grad_sq) - (r11 + r22) * r) + grad_sq * (3.0 * m) - cross
    sqrt_d = np.sqrt(d)
    mean_curv = numerator / (d * sqrt_d * r)
    n_f = sqrt_d / r

    fac = (2.0 + (r * r + m / r) / f) / r
    m11 = f * r - r11 + fac * r1 * r1
    m22 = f * r - r22 + fac * r2 * r2
    m12 = fac * r1 * r2 - r12
    det_m = m11 * m22 - m12 * m12
    return {
        "potential": v,
        "area_density": r * sqrt_d / v,
        "mean_curvature": mean_curv,
        "traceless_sq": np.maximum(0.5 * mean_curv**2 - 2.0 * f * det_m / (d * d), 0.0),
        "alignment": v / n_f,
        "graph_factor": n_f,
    }


def _torus_case(n, area, modes):
    b = make_background(0, 1, n, mass=0.5, area=area)
    g = b.base.grid
    if modes == "noise":
        return b, 3.0 + 1e-2 * np.random.default_rng(n).standard_normal((n, n))
    phase = 2.0 * np.pi * (modes[0] * g.theta1 + modes[1] * g.theta2) / g.side
    return b, 3.0 + 0.1 * np.sin(phase)


# On area 1 the stencil scales of n = 8 and 64 are powers of two, which the
# kernel multiplies by their reciprocals; at n = 33 and 48, and on area 2.5, it
# divides (test_torus_stencil_scales_divide_exactly).
@pytest.mark.parametrize("n", [8, 33, 48, 64])
@pytest.mark.parametrize("area", [1.0, 2.5])
@pytest.mark.parametrize("modes", [(1, 0), (0, 1), (1, 1), "noise"])
@pytest.mark.byte_pin
def test_torus_geometry_matches_roll_reference_bitwise(n, area, modes):
    b, r = _torus_case(n, area, modes)
    g = b.base.grid
    fast = _torus_geometry(b, g, r)
    for name, expected in _closed_form_torus_geometry(b, g, r).items():
        assert np.array_equal(getattr(fast, name), expected), name


# Measured over the cases below: at most 6.0e-16 of max |H| (H), 3.9e-16 of the
# field's max (the other fields), and 5.9e-16 of max H^2/2 (|A0|^2, which is
# H^2/2 less a term of the same size).
CLOSED_FORM_BOUND = 2e-15


@pytest.mark.parametrize("n", [8, 33, 48, 64])
@pytest.mark.parametrize("area", [1.0, 2.5])
@pytest.mark.parametrize("modes", [(1, 0), (0, 1), (1, 1), "noise"])
def test_torus_closed_form_matches_the_metric_inverse(n, area, modes):
    # The closed form against the metric, its inverse and h_ij formed term by
    # term: equal to round-off on every field, measured against each field's
    # scale, as H crosses 0 on the noise fields.
    b, r = _torus_case(n, area, modes)
    g = b.base.grid
    fast = _torus_geometry(b, g, r)
    reference = _roll_torus_geometry(b, g, r)
    scale = {name: np.max(np.abs(field)) for name, field in reference.items()}
    scale["traceless_sq"] = 0.5 * scale["mean_curvature"] ** 2
    for name, expected in reference.items():
        error = np.max(np.abs(getattr(fast, name) - expected))
        assert error <= CLOSED_FORM_BOUND * scale[name], (name, error / scale[name])


def _sphere_derivatives(r, spacing):
    # Reflective (even) extension across both poles: Neumann r'(0)=r'(pi)=0.
    ext = np.concatenate(([r[1]], r, [r[-2]]))
    d1 = (ext[2:] - ext[:-2]) / (2.0 * spacing)
    d2 = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) / spacing**2
    d1[0] = 0.0
    d1[-1] = 0.0
    return d1, d2


def _reference_sphere_geometry(background, grid, r):
    # The sphere kernel before its shared terms were computed once and its
    # cot(theta) cached on the grid, kept verbatim: the reference the kernel
    # must match bit for bit.
    theta = grid.theta
    f = background.v_squared(r)
    v = np.sqrt(f)
    f1 = 2.0 * r + 2.0 * background.mass / r**2

    r_t, r_tt = _sphere_derivatives(r, grid.spacing)
    grad_sq = r_t**2
    n_f = np.sqrt(f + grad_sq / r**2)

    gamma_tt = grad_sq / f + r**2
    h_tt = (-r_tt + f * r + 2.0 * grad_sq / r + grad_sq * 0.5 * f1 / f) / n_f
    k1 = h_tt / gamma_tt

    k2 = np.empty_like(r)
    interior = slice(1, -1)
    cot = np.cos(theta[interior]) / np.sin(theta[interior])
    k2[interior] = (-cot * r_t[interior] + f[interior] * r[interior]) / (
        n_f[interior] * r[interior] ** 2
    )
    for pole in (0, -1):
        k2[pole] = (-r_tt[pole] + f[pole] * r[pole]) / (n_f[pole] * r[pole] ** 2)
        k1[pole] = k2[pole]

    mean_curv = k1 + k2
    return {
        "potential": v,
        "area_density": r * np.sqrt(r**2 + grad_sq / f),
        "mean_curvature": mean_curv,
        "traceless_sq": 0.5 * (k1 - k2) ** 2,
        "alignment": v / n_f,
        "graph_factor": n_f,
    }


@pytest.mark.parametrize("n", [9, 33, 64, 65, 129])
@pytest.mark.parametrize("mode", [1, 2, 3, "noise", "two-mode"])
@pytest.mark.byte_pin
def test_sphere_geometry_matches_reference_bitwise(n, mode):
    b = make_background(1, 0, n, mass=1.0)
    g = b.base.grid
    if mode == "noise":
        r = 2.0 + 1e-2 * np.random.default_rng(n).standard_normal(n)
    elif mode == "two-mode":
        r = 2.0 + 0.2 * np.cos(g.theta) + 0.1 * np.cos(2.0 * g.theta)
    else:
        r = 2.0 + 0.2 * np.cos(mode * g.theta)
    fast = _sphere_geometry(b, g, r)
    for name, expected in _reference_sphere_geometry(b, g, r).items():
        assert np.array_equal(getattr(fast, name), expected), name


@pytest.mark.byte_pin
def test_sphere_pole_values_match_reference_bitwise():
    # numpy's scalar square of a pole radius differs from the array square in
    # the last bit for about one radius in a thousand, so the two pole nodes
    # need many fields to show a change of form there.
    b = make_background(1, 0, 9, mass=1.0)
    g = b.base.grid
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        r = 2.0 + rng.uniform(0.0, 1.0) * np.exp(rng.uniform(-2.0, 2.0, g.theta.shape))
        fast = _sphere_geometry(b, g, r)
        reference = _reference_sphere_geometry(b, g, r)
        for name in ("mean_curvature", "traceless_sq"):
            assert np.array_equal(getattr(fast, name), reference[name]), name


GEOMETRY_FIELDS = ("potential", "area_density", "mean_curvature", "traceless_sq",
                   "alignment", "graph_factor")


@pytest.mark.parametrize("kind", ["sphere", "torus", "sphere-slice", "point"])
def test_deferred_fields_match_fresh_geometry(kind):
    # The four sample-only fields are computed on first read; whichever is
    # read first, every field equals a fresh evaluation's and is computed once.
    if kind == "sphere":
        s = _sphere_surface(65)[0]
    elif kind == "torus":
        s = _torus_surface(32)[0]
    elif kind == "sphere-slice":
        s = GraphSurface(make_background(1, 0, 65, mass=1.0), 2.5)
    else:
        s = GraphSurface(make_background(-1, 2, "point", mass=1.0), 2.5)
    read = s.geometry
    first = read.area_density
    assert read.area_density is first
    fresh = compute_geometry(GraphSurface(s.background, s.radius_field)).geometry
    for name in reversed(GEOMETRY_FIELDS):
        assert np.array_equal(getattr(fresh, name), getattr(read, name)), name
    # The cached min of H is the min of H, bit for bit.
    assert _bits(read.min_mean_curvature) == _bits(read.mean_curvature.min())


@pytest.mark.parametrize("shape", [(2,), (33,), (16, 16)], ids=["pair", "sphere", "torus"])
@pytest.mark.parametrize("nodes", [
    {0: 0.0, 1: -0.0},
    {0: -0.0, 1: 0.0},
    {1: np.nan},
    {1: 0.5},
], ids=["zero-then-negative-zero", "negative-zero-then-zero", "nan", "positive"])
def test_min_mean_curvature_has_the_reductions_bits(shape, nodes):
    # The min is found by argmin; a -0/+0 tie and a NaN node keep the bits of
    # np.minimum.reduce, which the min was taken with before.
    h = np.linspace(1.0, 2.0, math.prod(shape)).reshape(shape)
    for node, value in nodes.items():
        h.flat[node] = value
    g = kottler_imcf.surfaces.SurfaceGeometry(mean_curvature=h, graph_factor=np.ones_like(h),
                                              measure=None)
    assert _bits(g.min_mean_curvature) == _bits(np.minimum.reduce(h, axis=None))


# -- independent identities off the slices ------------------------------------
#
# None of the identities below reuses a kernel formula.  Unlike the mean-curvature
# oracle above, the torus surface has nonzero r2 and r12, so the kernel's
# cross terms, traceless_sq and alignment are all tested off the slices.


def _gauss_bonnet_torus(n):
    b = make_background(0, 1, n, mass=0.5)
    g = b.base.grid
    x, y = (2.0 * np.pi * t / g.side for t in (g.theta1, g.theta2))
    return GraphSurface(b, 3.0 + 0.3 * np.sin(x + y) + 0.1 * np.cos(x - 2.0 * y))


def _gauss_bonnet_sphere(n):
    b = make_background(1, 0, n, mass=1.0)
    th = b.base.grid.theta
    return GraphSurface(b, 2.0 + 0.2 * np.cos(th) + 0.1 * np.cos(2.0 * th))


def _gauss_bonnet_error(surface):
    """|int K dA - 2 pi chi| / int |K| dA, with K from the Gauss equation.

    With Lambda = -3, Kottler has Ric = -2 - 2m/rho^3 radially and
    -2 + m/rho^3 tangentially, so a tangent plane whose unit normal has
    radial alignment a has ambient curvature -1 - (m/rho^3)(1 - 3a^2);
    the Gauss equation adds H^2/4 - |A0|^2/2.
    """
    g = surface.geometry
    b = surface.background
    ambient = -1.0 - b.mass / surface.radius_field**3 * (1.0 - 3.0 * g.alignment**2)
    gauss = ambient + 0.25 * g.mean_curvature**2 - 0.5 * g.traceless_sq
    total = integrate(b.base, gauss * g.area_density)
    return abs(total - 2.0 * np.pi * b.base.euler_char) / integrate(
        b.base, np.abs(gauss) * g.area_density)


@pytest.mark.parametrize("surface, sizes, bound", [
    (_gauss_bonnet_torus, (32, 64, 128), 4e-4),  # measured 5.1e-3, 1.3e-3, 3.2e-4
    (_gauss_bonnet_sphere, (65, 129, 257), 5e-6),  # measured 6.8e-5, 1.7e-5, 4.3e-6
], ids=["torus", "sphere"])
def test_gauss_bonnet_second_order(surface, sizes, bound):
    errors = np.array([_gauss_bonnet_error(surface(n)) for n in sizes])
    orders = np.log2(errors[:-1] / errors[1:])
    assert np.all((orders >= 1.8) & (orders <= 2.2)), (errors, orders)
    assert errors[-1] <= bound, errors


# The hand-differentiated derivatives of the two fields above, in place of each
# kernel's stencil step: with no O(h^2) stencil error left to hide behind, the
# Gauss-Bonnet error measures the kernel's algebra against the quadrature alone.


def _exact_torus_stencils(grid, r, slots):
    s = 2.0 * np.pi / grid.side
    x, y = (s * t for t in (grid.theta1, grid.theta2))
    r1, r2, r11, r22, r12 = slots[3:8]
    r1[...] = s * (0.3 * np.cos(x + y) - 0.1 * np.sin(x - 2.0 * y))
    r2[...] = s * (0.3 * np.cos(x + y) + 0.2 * np.sin(x - 2.0 * y))
    r11[...] = s * s * (-0.3 * np.sin(x + y) - 0.1 * np.cos(x - 2.0 * y))
    r22[...] = s * s * (-0.3 * np.sin(x + y) - 0.4 * np.cos(x - 2.0 * y))
    r12[...] = s * s * (-0.3 * np.sin(x + y) + 0.2 * np.cos(x - 2.0 * y))


def _exact_sphere_stencils(grid, r, two_r):
    th = grid.theta
    return (-0.2 * np.sin(th) - 0.2 * np.sin(2.0 * th),
            -0.2 * np.cos(th) - 0.4 * np.cos(2.0 * th))


def test_gauss_bonnet_torus_with_exact_derivatives(monkeypatch):
    # The periodic trapezoid rule is spectral, so only round-off is left
    # (measured 2.3e-17 and 1.0e-17; the stencils give 5.1e-3 and 1.3e-3).
    # H cancels from the torus's K, which is ambient + f det(M)/D^2, so this
    # checks the measure and shape algebra; the oracle above checks H.
    monkeypatch.setattr(kottler_imcf.surfaces, "_torus_stencils", _exact_torus_stencils)
    errors = [_gauss_bonnet_error(_gauss_bonnet_torus(n)) for n in (32, 64)]
    assert max(errors) <= 1e-14, errors


def test_gauss_bonnet_sphere_with_exact_derivatives(monkeypatch):
    # Simpson's rule is left, whose error falls as h^4: measured 1.1e-7, 6.9e-9
    # and 4.3e-10, falls of 16x.  A 1e-6 relative fault in the f'/(2f) term,
    # which the stencils' 1.7e-5 and 4.3e-6 hide, reads 1.2e-7, 2.0e-8 and
    # 1.4e-8 here: falls of 6.2x and 1.5x.
    monkeypatch.setattr(kottler_imcf.surfaces, "_sphere_stencils", _exact_sphere_stencils)
    errors = np.array([_gauss_bonnet_error(_gauss_bonnet_sphere(n)) for n in (65, 129, 257)])
    falls = errors[:-1] / errors[1:]
    assert np.all(falls >= 12.0), (errors, falls)
    assert errors[-1] <= 1e-9, errors


@pytest.mark.parametrize("surface, n", [(_gauss_bonnet_torus, 32), (_gauss_bonnet_sphere, 65)],
                         ids=["torus", "sphere"])
def test_weighted_area_density_is_radius_squared(surface, n):
    # V dA / graph_factor = rho^2 dA_base exactly in the algebra; it is what
    # makes bulk_integral a closed form.
    surface = surface(n)
    g = surface.geometry
    np.testing.assert_allclose(g.potential * g.area_density / g.graph_factor,
                               surface.radius_field**2, rtol=1e-14, atol=0.0)


def _first_variation_torus(n):
    b = make_background(0, 1, n, mass=0.5)
    g = b.base.grid
    x, y = (2.0 * np.pi * t / g.side for t in (g.theta1, g.theta2))
    r = 3.0 + 0.3 * np.sin(x + y)
    # r depends on x + y alone, so a variation must have a part in x + y to
    # move the area at all; r**2 is a variation that is not a single mode.
    return b, r, [np.ones_like(r), np.sin(x + y), np.cos(2.0 * (x + y)) + np.sin(x), r**2]


def _first_variation_sphere(n):
    b = make_background(1, 0, n, mass=1.0)
    th = b.base.grid.theta
    r = 2.0 + 0.2 * np.cos(th) + 0.1 * np.cos(2.0 * th)
    return b, r, [np.ones_like(r), np.cos(th), np.cos(2.0 * th), np.sin(th) ** 2]


def _first_variation_errors(case, n, eps=1e-5):
    """|d/de |Sigma(r + e phi)| - int H phi / graph_factor dA| / int |.| dA per phi.

    Moving the graph radially by e phi moves it along its normal by
    e phi / graph_factor, so the derivative of the area is the integral of
    H times that normal speed.  The derivative is a central difference in
    e, whose error (about 1e-10) is far below the spatial one.
    """
    b, r, variations = case(n)
    g = GraphSurface(b, r).geometry
    errors = []
    for phi in variations:
        speed = g.mean_curvature * phi / g.graph_factor * g.area_density
        derivative = (GraphSurface(b, r + eps * phi).area()
                      - GraphSurface(b, r - eps * phi).area()) / (2.0 * eps)
        errors.append(abs(derivative - integrate(b.base, speed))
                      / integrate(b.base, np.abs(speed)))
    return errors


@pytest.mark.parametrize("case, sizes, bound", [
    # measured, largest over phi: 3.6e-3, 9.1e-4, 2.3e-4
    (_first_variation_torus, (32, 64, 128), 4e-4),
    # measured, largest over phi: 5.2e-5, 1.3e-5, 3.2e-6
    (_first_variation_sphere, (65, 129, 257), 5e-6),
], ids=["torus", "sphere"])
def test_first_variation_of_area_second_order(case, sizes, bound):
    # Each variation converges on its own: errors is (n, phi).
    errors = np.array([_first_variation_errors(case, n) for n in sizes])
    orders = np.log2(errors[:-1] / errors[1:])
    assert np.all((orders >= 1.8) & (orders <= 2.2)), (errors, orders)
    assert np.all(errors[-1] <= bound), errors


# -- in-place kernels ----------------------------------------------------------


def _mode_torus(n, modes, amplitude=0.1):
    b = make_background(0, 1, n, mass=0.5)
    g = b.base.grid
    phase = 2.0 * np.pi * (modes[0] * g.theta1 + modes[1] * g.theta2) / g.side
    return GraphSurface(b, 3.0 + amplitude * np.sin(phase + 0.3))


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("modes", [(1, 0), (0, 1), (1, 1)])
@pytest.mark.byte_pin
def test_mode_torus_geometry_matches_roll_reference_bitwise(n, modes):
    s = _mode_torus(n, modes)
    reference = _closed_form_torus_geometry(s.background, s.background.base.grid,
                                            s.radius_field)
    for name, expected in reference.items():
        assert np.array_equal(getattr(s.geometry, name), expected), name


def _read_only(surface):
    r = surface.radius_field.copy()
    r.flags.writeable = False
    return GraphSurface(surface.background, r)


@pytest.mark.parametrize("kind", ["torus", "sphere"])
def test_geometry_writes_only_into_its_own_arrays(kind):
    # A read-only radius field makes any write into the input raise; a
    # second evaluation must leave the first surface's fields as they were,
    # whether those were read before it or after it.
    if kind == "torus":
        first, other = _mode_torus(64, (1, 1)), _mode_torus(64, (1, 0), amplitude=0.2)
    else:
        first, other = _sphere_surface(129)[0], _sphere_surface(129, amplitude=0.3)[0]
    read_first, read_later = _read_only(first), _read_only(first)
    assert not read_first.radius_field.flags.writeable
    before = {name: getattr(read_first.geometry, name).copy() for name in GEOMETRY_FIELDS}
    later = read_later.geometry
    second = _read_only(other).geometry
    for name in GEOMETRY_FIELDS:
        getattr(second, name)
    fresh = GraphSurface(first.background, first.radius_field.copy()).geometry
    for name in GEOMETRY_FIELDS:
        assert np.array_equal(getattr(read_first.geometry, name), before[name]), name
        assert np.array_equal(getattr(later, name), getattr(fresh, name)), name
    assert np.array_equal(read_first.radius_field, first.radius_field)


# -- the torus kernel's per-thread workspace --------------------------------------


def _noise_torus(n, seed):
    b = make_background(0, 1, n, mass=0.5)
    r = 3.0 + 1e-2 * np.random.default_rng(seed).standard_normal((n, n))
    return GraphSurface(b, r)


def _assert_roll_reference_bits(surface, geometry):
    reference = _closed_form_torus_geometry(surface.background, surface.background.base.grid,
                                            surface.radius_field)
    for name in GEOMETRY_FIELDS:
        assert np.array_equal(getattr(geometry, name), reference[name]), name


def test_torus_geometries_share_no_memory_with_each_other_or_the_workspace():
    first, second = _noise_torus(64, 1), _noise_torus(64, 2)
    geometries = (first.geometry, second.geometry)
    fields = [[getattr(g, name) for name in GEOMETRY_FIELDS] for g in geometries]
    workspace = kottler_imcf.surfaces._workspaces.torus[64]
    for a in fields[0]:
        for b in fields[1]:
            assert not np.shares_memory(a, b)
    for a in fields[0] + fields[1]:
        for slot in workspace:
            assert not np.shares_memory(a, slot)
    _assert_roll_reference_bits(first, geometries[0])
    _assert_roll_reference_bits(second, geometries[1])


def test_deferred_groups_read_after_later_evaluations_recompute_the_same_bits(monkeypatch):
    runs = []
    kernel = kottler_imcf.surfaces._torus_kernel

    def counted(*args):
        runs.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(kottler_imcf.surfaces, "_torus_kernel", counted)
    surface = _noise_torus(33, 7)
    geometry = surface.geometry
    for seed in (8, 9, 10):
        _noise_torus(33, seed).geometry
    assert len(runs) == 4
    _assert_roll_reference_bits(surface, geometry)
    # The reads reran the kernel on this surface's radius field.
    assert len(runs) > 4 and all(r is surface.radius_field for r in runs[4:])


def test_threads_evaluating_torus_fields_give_the_serial_bits():
    # Each thread evaluates into its own workspace.  A thread reads the
    # fields of its even-numbered geometries as it goes; the odd ones are
    # read afterwards on the main thread, which holds no token of theirs.
    def evaluate(first_seed):
        pairs = []
        for i in range(20):
            surface = _noise_torus(33, first_seed + i)
            geometry = surface.geometry
            if i % 2 == 0:
                for name in GEOMETRY_FIELDS:
                    getattr(geometry, name)
            pairs.append((surface, geometry))
        return pairs

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(evaluate, (100, 200), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for pairs in results:
        for surface, geometry in pairs:
            _assert_roll_reference_bits(surface, geometry)


# -- one-pass validation of a radius field ---------------------------------------


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_node_rejected(bad):
    # NaN is test_non_finite_radius_rejected; an infinite node is the max or the min.
    b = make_background(1, 0, 65, mass=1.0)
    r = np.full(65, 2.0)
    r[7] = bad
    with pytest.raises(FlowSingularError):
        GraphSurface(b, r)


def test_non_finite_check_comes_before_the_horizon_check():
    b = make_background(1, 0, 65, mass=1.0)
    r = np.full(65, 2.0)
    r[3] = np.nan
    r[40] = 0.5 * b.horizon_rho
    with pytest.raises(FlowSingularError):
        GraphSurface(b, r)


def test_minimum_below_or_touching_horizon_raises_exterior():
    # Only the constant horizon slice may touch the horizon
    # (test_horizon_slice_allowed_but_interior_rejected).
    b = make_background(0, 1, 16, mass=0.5)
    r = np.full((16, 16), 2.0 * b.horizon_rho)
    for node in (b.horizon_rho, np.nextafter(b.horizon_rho, 0.0)):
        r[5, 9] = node
        with pytest.raises(ExteriorError):
            GraphSurface(b, r)
    r[5, 9] = np.nextafter(b.horizon_rho, np.inf)
    assert not GraphSurface(b, r).is_constant


def test_radius_field_is_read_only_and_the_callers_array_stays_writeable():
    # The field is checked once, as the surface is made, and its geometry and
    # memo (the bulk too) are computed from it: a write through the surface,
    # which could lower a node below the horizon, raises.
    b = make_background(1, 0, 33, mass=1.0)
    r = 2.0 + 0.2 * np.cos(b.base.grid.theta)
    s = GraphSurface(b, r)
    with pytest.raises(ValueError, match="read-only"):
        s.radius_field[5] = np.nextafter(b.horizon_rho, 0.0)
    with pytest.raises(ValueError, match="read-only"):
        s.radius_field *= 0.5
    assert r.flags.writeable
    r[5] = 3.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k, genus, n", [(0, 1, 16), (1, 0, 33)])
def test_non_constant_graph_touching_the_horizon_raises_exterior_for_every_mass(k, genus, n):
    # V^2 at the horizon radius rounds to a few ulp either side of 0, so a
    # touching graph had a geometry for some masses and a NaN for others.
    for mass in np.linspace(0.01, 5.0, 200):
        b = make_background(k, genus, n, mass=mass)
        r = np.full(b.base.grid.weights.shape, 2.0 * b.horizon_rho)
        r.flat[3] = b.horizon_rho
        with pytest.raises(ExteriorError):
            GraphSurface(b, r)


def test_is_constant_one_ulp_apart():
    b = make_background(1, 0, 65, mass=1.0)
    assert GraphSurface(b, np.full(65, 2.5)).is_constant
    assert GraphSurface(b, np.array([2.5])).is_constant
    r = np.full(65, 2.5)
    r[64] = np.nextafter(2.5, 3.0)
    assert not GraphSurface(b, r).is_constant


def _full_pass_validation(r, horizon_rho):
    # The checks one full pass each.
    if not np.all(np.isfinite(r)):
        return FlowSingularError
    constant = bool(r.max() == r.min())
    if np.any(r < horizon_rho) or (not constant and np.any(r == horizon_rho)):
        return ExteriorError
    return constant


_SPHERE9 = make_background(1, 0, 9, mass=1.0)
_NODE = st.one_of(
    st.floats(),
    st.sampled_from([_SPHERE9.horizon_rho, np.nextafter(_SPHERE9.horizon_rho, 0.0), 2.0]),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=500, deadline=None)
@given(hnp.arrays(np.float64, 9, elements=_NODE))
@example(np.array([1.7e308, -1.7e308, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]))
def test_one_pass_validation_agrees_with_full_passes(r):
    expected = _full_pass_validation(r, _SPHERE9.horizon_rho)
    try:
        outcome = GraphSurface(_SPHERE9, r).is_constant
    except (FlowSingularError, ExteriorError) as err:
        outcome = type(err)
    assert outcome == expected


# -- exact stencil scales ---------------------------------------------------------


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _scale_down(x, c):
    ufunc, operand = _division_by(c)
    ufunc(x, operand, x)


_ANY_DOUBLE = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0,
                     np.inf, -np.inf, np.nan]),
)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, 16, elements=_ANY_DOUBLE), st.integers(-40, 40))
def test_scale_down_by_a_power_of_two_equals_the_division_bitwise(x, k):
    c = 2.0**k
    scaled = x.copy()
    with np.errstate(all="ignore"):  # overflow and underflow are part of the domain
        _scale_down(scaled, c)
        assert np.array_equal(_bits(scaled), _bits(x / c))


@pytest.mark.parametrize("c, x", [
    # The stencil scale 2h of a torus of area 2.5 at n = 33.
    (2.0 * np.sqrt(2.5) / 33, np.linspace(1.0, 2.0, 1001)),
    # A power of two whose reciprocal overflows.
    (2.0**-1074, np.array([0.0, 5e-324, 1e-310])),
], ids=["not-a-power-of-two", "subnormal-power-of-two"])
def test_scale_down_divides_where_the_reciprocal_is_not_exact(c, x):
    scaled = x.copy()
    with np.errstate(all="ignore"):
        _scale_down(scaled, c)
        assert np.array_equal(_bits(scaled), _bits(x / c))
        # Here a multiplication by 1/c would round differently.
        assert not np.array_equal(_bits(x * (1.0 / c)), _bits(x / c))


@pytest.mark.parametrize("n, area, power_of_two", [
    (8, 1.0, True), (64, 1.0, True), (64, 4.0, True),
    (33, 1.0, False), (48, 1.0, False), (64, 2.5, False),
    pytest.param(33, None, False, id="sphere-33"),
    pytest.param(129, None, False, id="sphere-129"),
])
def test_torus_stencil_scales_divide_exactly(n, area, power_of_two):
    # The cases take scales that are powers of two and scales that are not;
    # either way a cached scale has the bits of the division.  A sphere grid
    # (area None), whose spacing pi / (n - 1) is never a power of two, has
    # the first two scales, 2h and h^2.
    if area is None:
        grid = make_background(1, 0, n, mass=1.0).base.grid
    else:
        grid = make_background(0, 1, n, mass=0.5, area=area).base.grid
    h = grid.spacing
    x = np.linspace(1.0, 2.0, 1001)
    assert len(grid.stencil_scales) == (2 if area is None else 3)
    for (ufunc, operand), c in zip(grid.stencil_scales, (2.0 * h, h**2, 4.0 * h**2)):
        assert (math.frexp(c)[0] == 0.5) == power_of_two
        assert np.array_equal(_bits(ufunc(x, operand)), _bits(x / c))


# -- a non-finite mean curvature ---------------------------------------------------


_KERNELS = {
    "sphere": ("_sphere_geometry", lambda: _sphere_surface(33)[0]),
    "torus": ("_torus_geometry", lambda: _torus_surface(16)[0]),
    "slice": ("_slice_geometry", lambda: GraphSurface(make_background(1, 0, 33, mass=1.0), 2.5)),
}


@pytest.mark.parametrize("kind", sorted(_KERNELS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_one_non_finite_node_of_h_is_rejected(monkeypatch, kind, bad):
    name, make = _KERNELS[kind]
    kernel = getattr(kottler_imcf.surfaces, name)

    def spoiled(*args):
        # H is spoiled before the geometry takes its min, as a kernel's own NaN or inf is.
        geometry = kernel(*args)
        h = geometry.mean_curvature.copy()
        h.flat[3] = bad
        return dataclasses.replace(geometry, mean_curvature=h)

    monkeypatch.setattr(kottler_imcf.surfaces, name, spoiled)
    with pytest.raises(FlowSingularError, match="non-finite mean curvature"):
        compute_geometry(make())


@pytest.mark.parametrize("scale", [1e153, 1e155, 1e300])
def test_sphere_field_whose_square_overflows_is_a_non_finite_mean_curvature(scale):
    # The sphere kernel's pole values are Python floats, whose ** raises where
    # numpy's scalars overflow to inf (from 1e155 on here): such a field is
    # rejected as a non-finite H, as every other overflow is.
    b = make_background(1, 0, 33, mass=1.0)
    surface = GraphSurface(b, scale * (2.0 + 0.1 * np.cos(b.base.grid.theta)))
    with np.errstate(all="ignore"), pytest.raises(FlowSingularError, match="non-finite mean"):
        compute_geometry(surface)
