"""Cross-section grids, quadrature, and topology validation."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import simpson

from kottler_imcf import (
    BaseSurface,
    InvalidBaseError,
    integrate,
    make_base,
)
from kottler_imcf.base import MAX_RESOLUTION, FlatTorusGrid, _sphere_grid


def test_sphere_base_defaults():
    base = make_base(1, 0, 33)
    assert base.area == 4.0 * np.pi
    assert base.euler_char == 2
    assert base.grid.n_points == 33
    assert base.grid.theta[0] == 0.0
    assert base.grid.theta[-1] == pytest.approx(np.pi)


def test_torus_base_area_override():
    base = make_base(0, 1, 16, area=2.0)
    assert base.area == 2.0
    assert base.euler_char == 0
    assert base.grid.side == pytest.approx(np.sqrt(2.0))


def test_hyperbolic_base_point_grid():
    base = make_base(-1, 2, "point")
    assert base.area == 4.0 * np.pi
    assert base.euler_char == -2
    assert base.grid.weights.shape == (1,)


def test_hyperbolic_genus_three():
    base = make_base(-1, 3, "point")
    assert base.area == 8.0 * np.pi


@pytest.mark.parametrize("k,genus", [(1, 1), (0, 0), (0, 2), (-1, 0), (-1, 1)])
def test_incompatible_genus_rejected(k, genus):
    with pytest.raises(InvalidBaseError):
        make_base(k, genus, "point")


def test_bad_curvature_sign_rejected():
    with pytest.raises(InvalidBaseError):
        make_base(2, 0, 16)


def test_resolution_floor():
    with pytest.raises(InvalidBaseError):
        make_base(1, 0, 4)


def test_hyperbolic_node_grid_rejected():
    with pytest.raises(InvalidBaseError):
        make_base(-1, 2, 16)


def test_curved_area_override_rejected():
    with pytest.raises(InvalidBaseError):
        make_base(1, 0, 16, area=5.0)


@pytest.mark.parametrize("args, area, argument", [
    ((2, 0, 16), None, "curvature_sign"),
    ((0, 0, 16), None, "genus"),
    ((0, 1, 16), -1.0, "area"),
    ((1, 0, 16), 5.0, "area"),
    ((1, 0, 4), None, "grid_resolution"),
    ((0, 1, MAX_RESOLUTION[0] + 1), None, "grid_resolution"),
    ((-1, 2, 16), None, "grid_resolution"),
    ((1, 0, 33.7), None, "grid_resolution"),
], ids=["sign", "genus", "torus-area", "curved-area", "floor", "ceiling", "hyperbolic-grid",
        "fraction"])
def test_each_base_error_names_its_argument(args, area, argument):
    with pytest.raises(InvalidBaseError) as err:
        make_base(*args, area=area)
    assert err.value.argument == argument


@pytest.mark.parametrize("resolution", [33.7, np.inf, np.nan])
def test_non_integral_resolution_rejected(resolution):
    # int() would truncate 33.7 to a 33-node grid, and raise OverflowError or
    # ValueError on inf and nan; an integral float is taken.
    with pytest.raises(InvalidBaseError, match=f"^resolution {resolution!r} is not an integer$"):
        make_base(1, 0, resolution)
    with pytest.raises(InvalidBaseError, match="is not an integer$"):
        make_base(1, 0, np.float32(resolution))
    assert make_base(1, 0, 33.0).grid.n_points == 33


def test_resolution_past_float_range_meets_the_grid_bound():
    # An integer too large for a float is still an integer: the bounds judge it.
    huge = 10**400
    with pytest.raises(InvalidBaseError, match=f"^resolution {huge} > 65536$"):
        make_base(1, 0, huge)
    with pytest.raises(InvalidBaseError, match="only the point grid"):
        make_base(-1, 2, huge)


def test_gauss_bonnet_enforced():
    with pytest.raises(InvalidBaseError):
        BaseSurface(curvature_sign=1, area=1.0, genus=0, grid=make_base(1, 0, 16).grid)


def test_no_torus_base_has_curvature():
    # The torus kernel forms V^2 = rho^2 - 2m/rho: it relies on k = 0.
    torus = make_base(0, 1, 16).grid
    for k, genus in ((1, 0), (-1, 2)):
        with pytest.raises(InvalidBaseError, match="flat torus grid needs curvature_sign 0"):
            BaseSurface(curvature_sign=k, area=4.0 * np.pi, genus=genus, grid=torus)
    for k in (-1, 0, 1):
        for genus in range(4):
            for resolution in (8, 33, "point"):
                try:
                    base = make_base(k, genus, resolution)
                except InvalidBaseError:
                    continue
                assert isinstance(base.grid, FlatTorusGrid) == (k == 0 and resolution != "point")


@pytest.mark.parametrize("k, genus", [(1, 0), (0, 1)], ids=["sphere", "torus"])
def test_resolution_bound_per_grid_kind(k, genus):
    bound = MAX_RESOLUTION[k]
    with pytest.raises(InvalidBaseError, match=f"^resolution {bound + 1} > {bound}$"):
        make_base(k, genus, bound + 1)
    assert make_base(k, genus, bound).grid.weights.shape[0] == bound


def test_constant_integrates_exactly():
    for base in (make_base(1, 0, 41), make_base(0, 1, 16), make_base(-1, 2, "point")):
        ones = np.ones(base.grid.weights.shape)
        assert integrate(base, ones) == pytest.approx(base.area, rel=1e-15)


def test_sphere_quadrature_poles_weightless():
    base = make_base(1, 0, 33)
    # sin(theta) vanishes at the poles up to round-off (sin(pi) ~ 1e-16),
    # so the pole weights are negligible next to interior weights ~ h
    assert base.grid.weights[0] == 0.0
    assert abs(base.grid.weights[-1]) < 1e-15


def test_sphere_quadrature_convergence():
    # smooth axisymmetric field: exact integral known in closed form
    exact = 2.0 * np.pi * (np.e - 1.0 / np.e)  # integral of e^{cos} over the sphere
    errs = []
    for n in (17, 33, 65):
        base = make_base(1, 0, n)
        f = np.exp(np.cos(base.grid.theta))
        errs.append(abs(integrate(base, f) - exact))
    assert errs[1] < errs[0] / 8.0
    assert errs[2] < errs[1] / 8.0


def test_torus_quadrature_spectral_for_smooth_fields():
    # periodic smooth field integrates with rapidly vanishing error
    base = make_base(0, 1, 24)
    g = base.grid
    f = np.exp(np.sin(2.0 * np.pi * g.theta1 / g.side))
    from scipy.special import iv

    exact = iv(0, 1.0)  # mean of e^{sin} over one period
    assert abs(integrate(base, f) - exact) < 1e-12


@pytest.mark.byte_pin
def test_sphere_weights_match_scipy_simpson():
    # scipy's composite Simpson rule (>= 1.11) on the nodal basis is the
    # oracle; the library reproduces it bit for bit without importing scipy.
    for n in range(8, 258):
        theta = np.linspace(0.0, np.pi, n)
        expected = 2.0 * np.pi * simpson(np.eye(n), x=theta, axis=0) * np.sin(theta)
        expected *= 4.0 * np.pi / expected.sum()
        assert np.array_equal(_sphere_grid(n).weights, expected), n


def test_library_imports_without_scipy():
    code = (
        "import sys, kottler_imcf, kottler_imcf.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_integrate_shape_mismatch():
    base = make_base(1, 0, 33)
    with pytest.raises(ValueError):
        integrate(base, np.ones(17))


@given(st.floats(min_value=0.1, max_value=50.0))
def test_torus_area_scales_weights(area):
    base = make_base(0, 1, 8, area=area)
    assert float(np.sum(base.grid.weights)) == pytest.approx(area, rel=1e-12)
