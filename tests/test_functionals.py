"""Functional identities on slices and inequality audits off slices."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import kottler_imcf.surfaces
from kottler_imcf import (
    FlowState,
    GraphSurface,
    TRACE_COLUMNS,
    areal_minkowski_deficit,
    asymptotic_limit_targets,
    bulk_integral,
    compute_P,
    compute_Q,
    evaluate_report,
    hawking_mass,
    hk_gap,
    integrate,
    make_background,
    minkowski_deficit,
    penrose_conjecture_deficit,
    reverse_penrose_deficit,
    surface_gravity_bound_deficit,
    total_mean_curvature,
)
from kottler_imcf.flow import _sample_row

BACKGROUNDS = [
    (1, 0, 1.0),
    (1, 0, 2.0 / (3.0 * np.sqrt(3.0))),
    (0, 1, 0.5),
    (-1, 2, 0.0),
    (-1, 2, 1.0),
]


def _slice(k, genus, mass, factor, resolution="point"):
    b = make_background(k, genus, resolution, mass=mass)
    return GraphSurface(b, factor * b.horizon_rho)


@pytest.mark.parametrize("k,genus,mass", BACKGROUNDS)
@pytest.mark.parametrize("factor", [1.2, 2.0, 10.0])
def test_slice_identity_suite(k, genus, mass, factor):
    s = _slice(k, genus, mass, factor)
    w2 = s.background.base.area
    assert abs(minkowski_deficit(s)) <= 1e-10
    assert abs(hk_gap(s)) <= 1e-10
    assert abs(compute_Q(s) - 2.0 * k * np.sqrt(w2)) <= 1e-10
    assert abs(compute_P(s) - 2.0 * k * np.sqrt(w2)) <= 1e-10
    assert abs(areal_minkowski_deficit(s)) <= 1e-10


@pytest.mark.parametrize("factor", [2.0, 4.0, 8.0])
def test_hawking_mass_on_slices(factor):
    s = _slice(1, 0, 1.0, factor)
    assert abs(hawking_mass(s) - 1.0) <= 1e-10


@pytest.mark.parametrize("k,genus,mass,area,resolution", [
    (1, 0, 1.0, None, "point"),
    (1, 0, 0.3, None, 33),
    (0, 1, 0.5, None, "point"),
    (0, 1, 0.5, None, 16),
    (0, 1, 2.0, 2.5, "point"),
    (0, 1, 0.5, 2.5, 16),
    (-1, 2, 1.0, None, "point"),
    (-1, 2, -0.1, None, "point"),
    (-1, 3, 2.0, None, "point"),
    (-1, 3, -0.1, None, "point"),
])
@pytest.mark.parametrize("factor", [1.2, 2.0, 3.0])
def test_hawking_mass_on_every_kottler_slice(k, genus, mass, area, resolution, factor):
    # m_H = (w2/4pi)^(3/2) m on every slice, whatever k, genus and w2; the
    # genus enters through 1 - genus, which only a non-sphere slice tests.
    # The tolerance is relative to the value, which (w2/4pi)^(3/2) scales.
    b = make_background(k, genus, resolution, mass=mass, area=area)
    s = GraphSurface(b, factor * b.horizon_rho)
    expected = (b.base.area / (4.0 * np.pi)) ** 1.5 * mass
    assert abs(hawking_mass(s) - expected) <= 1e-14 * max(1.0, abs(expected))


@pytest.mark.parametrize("kind", ["sphere", "torus"])
def test_sample_row_extremes_are_node_wise(kind):
    # Each trace column equals its definition on the sampled surface, bit
    # for bit: min_H, max_H and min_align are the node-wise extremes of the
    # geometry (not, say, a mean), the alignment V/n_f never exceeds 1, and
    # the other columns are the state time, the integrals and the report's
    # functionals.  The columns all differ, so a swapped pair fails too.
    if kind == "sphere":
        b = make_background(1, 0, 65, mass=1.0)
        th = b.base.grid.theta
        s = GraphSurface(b, 2.0 + 0.2 * np.cos(th) + 0.1 * np.cos(2.0 * th))
    else:
        b = make_background(0, 1, 32, mass=0.5)
        g = b.base.grid
        s = GraphSurface(b, 3.0 + 0.1 * np.sin(2.0 * np.pi * (g.theta1 + g.theta2) / g.side))
    values = _sample_row(FlowState(0.375, s, 0))
    row = dict(zip(TRACE_COLUMNS, values))
    assert len(values) == len(set(values)) == len(TRACE_COLUMNS)
    g = s.geometry
    report = evaluate_report(s)
    assert row["t"] == 0.375
    assert row["area"] == integrate(b.base, g.area_density)
    assert row["int_A0sq"] == integrate(b.base, g.traceless_sq * g.area_density)
    assert row["int_VH"] == report.total_mean_curvature
    assert row["int_OmegaV"] == report.bulk_integral
    assert row["Q"] == report.q_value
    assert row["P"] == report.p_value
    assert row["hawking_mass"] == report.hawking_mass
    assert row["min_H"] == g.mean_curvature.min()
    assert row["max_H"] == g.mean_curvature.max()
    assert row["min_align"] == g.alignment.min()
    assert np.all(g.alignment <= 1.0)
    assert row["min_align"] < np.mean(g.alignment)


def test_hawking_mass_round_unit_sphere():
    # H = 2, area 4 pi, genus 0: the mass vanishes
    b = make_background(1, 0, "point", mass=1e-14)
    s = GraphSurface(b, 1.0)
    assert abs(hawking_mass(s)) < 1e-7


def test_bulk_integral_slices():
    for k, genus, mass in BACKGROUNDS:
        b = make_background(k, genus, "point", mass=mass)
        rho = 2.0 * b.horizon_rho
        s = GraphSurface(b, rho)
        expected = b.base.area * (rho**3 - b.horizon_rho**3) / 3.0
        assert bulk_integral(s) == pytest.approx(expected, rel=1e-14)
        assert bulk_integral(GraphSurface(b, b.horizon_rho)) == pytest.approx(0.0, abs=1e-12)


def test_bulk_integral_against_radial_quadrature():
    # independent oracle: per-node numeric radial integration of the
    # V-weighted volume element V * (rho^2 / V) = rho^2
    b = make_background(0, 1, 16, mass=0.5)
    g = b.base.grid
    r = 3.0 + 0.1 * np.sin(2.0 * np.pi * g.theta1 / g.side)
    s = GraphSurface(b, r)
    per_node = np.vectorize(
        lambda ri: quad(lambda rho: rho**2, b.horizon_rho, ri)[0]
    )(r)
    oracle = integrate(b.base, per_node)
    assert bulk_integral(s) == pytest.approx(oracle, abs=1e-8)


def test_total_mean_curvature_slice_closed_form():
    for k, genus, mass in BACKGROUNDS:
        b = make_background(k, genus, "point", mass=mass)
        rho = 2.0 * b.horizon_rho
        s = GraphSurface(b, rho)
        expected = 2.0 * b.base.area * (k * rho + rho**3 - 2.0 * mass)
        assert total_mean_curvature(s) == pytest.approx(expected, rel=1e-13)


def test_areal_deficit_consistent_with_p():
    s = _slice(1, 0, 1.0, 3.0, resolution=65)
    w2 = s.background.base.area
    lhs = areal_minkowski_deficit(s)
    rhs = (compute_P(s) - 2.0 * np.sqrt(w2)) * np.sqrt(s.area()) / (4.0 * w2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("k,genus,mass", BACKGROUNDS)
def test_surface_gravity_bound_equality_on_models(k, genus, mass):
    b = make_background(k, genus, "point", mass=mass)
    assert abs(surface_gravity_bound_deficit(b)) <= 1e-12


@pytest.mark.parametrize("mass", [0.0, 1.0, 3.0])
def test_reverse_penrose_equality_on_models(mass):
    b = make_background(-1, 2, "point", mass=mass)
    assert abs(reverse_penrose_deficit(b)) <= 1e-12


def test_reverse_penrose_example_radius_two():
    # horizon at rho = 2 forces mass 3 and the bound saturates
    b = make_background(-1, 2, "point", horizon_rho=2.0)
    assert b.mass == pytest.approx(3.0)
    assert abs(reverse_penrose_deficit(b)) <= 1e-12


def test_reverse_penrose_domain_checks():
    with pytest.raises(ValueError):
        reverse_penrose_deficit(make_background(1, 0, "point", mass=1.0))
    with pytest.raises(ValueError):
        reverse_penrose_deficit(make_background(-1, 2, "point", mass=-0.1))


@pytest.mark.parametrize("k,genus,mass", BACKGROUNDS)
def test_penrose_conjecture_equality_on_horizons(k, genus, mass):
    b = make_background(k, genus, "point", mass=mass)
    assert abs(penrose_conjecture_deficit(b)) <= 1e-12


def test_asymptotic_limit_targets():
    assert asymptotic_limit_targets(make_background(1, 0, "point", mass=1.0).base) == (
        pytest.approx(4.0 * np.sqrt(np.pi)),
        pytest.approx(4.0 * np.sqrt(np.pi)),
    )
    assert asymptotic_limit_targets(make_background(0, 1, "point", mass=0.5).base) == (
        0.0,
        0.0,
    )
    q, p = asymptotic_limit_targets(make_background(-1, 2, "point", mass=0.0).base)
    assert q == pytest.approx(-4.0 * np.sqrt(np.pi))


def test_deficits_positive_off_slices():
    b = make_background(0, 1, 32, mass=0.5)
    g = b.base.grid
    s = GraphSurface(b, 3.0 + 0.1 * np.sin(2.0 * np.pi * g.theta1 / g.side))
    assert minkowski_deficit(s) > 1e-6
    assert hk_gap(s) > 1e-6
    assert compute_Q(s) > 0.0  # above the torus limit 0


def test_hk_gap_randomized_mean_convex_graphs():
    # 50 random smooth graphs per background family stay on the right
    # side of the inequality
    rng = np.random.default_rng(20240817)
    for trial in range(25):
        b = make_background(1, 0, 65, mass=1.0)
        th = b.base.grid.theta
        r0 = rng.uniform(1.6, 4.0)
        amp = rng.uniform(0.0, 0.12) * r0
        mode = rng.integers(1, 4)
        s = GraphSurface(b, r0 + amp * np.cos(mode * th))
        if np.min(s.geometry.mean_curvature) <= 0.0:
            continue
        assert hk_gap(s) >= -1e-8
        assert minkowski_deficit(s) >= -1e-6
    for trial in range(25):
        b = make_background(0, 1, 24, mass=0.5)
        g = b.base.grid
        r0 = rng.uniform(2.0, 5.0)
        amp = rng.uniform(0.0, 0.05) * r0
        m1, m2 = rng.integers(1, 3, size=2)
        phase = 2.0 * np.pi * (m1 * g.theta1 + m2 * g.theta2) / g.side
        s = GraphSurface(b, r0 + amp * np.sin(phase))
        if np.min(s.geometry.mean_curvature) <= 0.0:
            continue
        assert hk_gap(s) >= -1e-8
        assert minkowski_deficit(s) >= -1e-6


def test_evaluate_report_fields():
    s = _slice(1, 0, 1.0, 2.0)
    report = evaluate_report(s)
    assert report.area == pytest.approx(16.0 * np.pi)
    assert abs(report.minkowski_deficit) <= 1e-10
    assert abs(report.hk_gap) <= 1e-10
    assert report.hawking_mass == pytest.approx(1.0, abs=1e-10)
    assert report.q_value == pytest.approx(report.p_value, abs=1e-10)


def _report_surface(kind):
    if kind == "sphere-129":
        b = make_background(1, 0, 129, mass=1.0)
        th = b.base.grid.theta
        return GraphSurface(b, 2.5 + 0.2 * np.cos(th) + 0.1 * np.cos(2.0 * th))
    if kind == "torus-32":
        b = make_background(0, 1, 32, mass=0.5)
        g = b.base.grid
        x, y = (2.0 * np.pi * t / g.side for t in (g.theta1, g.theta2))
        return GraphSurface(b, 3.0 + 0.1 * np.sin(x + y) + 0.05 * np.cos(x - 2.0 * y))
    if kind == "sphere-slice":
        return _slice(1, 0, 1.0, 2.5, resolution=65)
    return _slice(-1, 2, 1.0, 2.0)


@pytest.mark.parametrize("kind", ["sphere-129", "torus-32", "sphere-slice", "hyperbolic-point"])
def test_evaluate_report_equals_functionals_exactly(kind, monkeypatch):
    # The report evaluates each of its five integrals (area, total mean
    # curvature, bulk, Willmore, Heintze-Karcher left side) once, and each
    # field is its standalone functional.
    calls = _count_integrals(monkeypatch)
    s = _report_surface(kind)
    report = evaluate_report(s)
    assert len(calls) == 5
    standalone = {
        "area": s.area(),
        "total_mean_curvature": total_mean_curvature(s),
        "bulk_integral": bulk_integral(s),
        "horizon_term": s.background.hk_horizon_term,
        "q_value": compute_Q(s),
        "p_value": compute_P(s),
        "hawking_mass": float(hawking_mass(s)),
        "hk_gap": hk_gap(s),
        "minkowski_deficit": minkowski_deficit(s),
        "areal_minkowski_deficit": areal_minkowski_deficit(s),
    }
    assert list(standalone) == list(report.__dataclass_fields__)
    for name, value in standalone.items():
        assert getattr(report, name) == value, name


# -- one integral per geometry ----------------------------------------------------


def _count_integrals(monkeypatch):
    """A list that grows by one per integrate call; only surfaces calls it."""
    calls = []

    def counted(base, field):
        calls.append(1)
        return integrate(base, field)

    monkeypatch.setattr(kottler_imcf.surfaces, "integrate", counted)
    return calls


# Every request on a surface, in this order, with the integrals it computes:
# the report computes the five, and later requests none of them again.
_REQUESTS = [
    ("evaluate_report", evaluate_report, 5),
    ("area", GraphSurface.area, 0),
    ("total_mean_curvature", total_mean_curvature, 0),
    ("bulk_integral", bulk_integral, 0),
    ("compute_Q", compute_Q, 0),
    ("compute_P", compute_P, 0),
    ("hawking_mass", hawking_mass, 0),
    ("hk_gap", hk_gap, 0),
    ("minkowski_deficit", minkowski_deficit, 0),
    ("areal_minkowski_deficit", areal_minkowski_deficit, 0),
]
_KINDS = ["sphere-129", "torus-32", "sphere-slice", "hyperbolic-point"]


def _value_bits(value):
    fields = dataclasses.astuple(value) if dataclasses.is_dataclass(value) else (value,)
    return np.array(fields, dtype=float).tobytes()


def _geometry_references(s):
    """The five memo integrals, integrated here from the geometry and the field."""
    g, base = s.geometry, s.background.base
    r, rho_m = s.radius_field, s.background.horizon_rho
    return {
        "area": integrate(base, g.area_density),
        "int_VH": integrate(base, g.potential * g.mean_curvature * g.area_density),
        "bulk": integrate(base, (r * r * r - rho_m * rho_m * rho_m) / 3.0),
        "willmore": integrate(base, (g.mean_curvature**2 - 4.0) * g.area_density),
        "int_V_over_H": integrate(base, g.potential / g.mean_curvature * g.area_density),
    }


def _geometry_integrals(s):
    """The five integrals in the memo, after a report has filled it."""
    evaluate_report(s)
    return {name: s.geometry.derived[name]
            for name in ("area", "int_VH", "bulk", "willmore", "int_V_over_H")}


def _request_all(s, calls):
    """Each request's value on s, asserting the integrals each computes."""
    values = {}
    for name, request, cost in _REQUESTS:
        before = len(calls)
        values[name] = request(s)
        assert len(calls) - before == cost, name
    return values


@pytest.mark.parametrize("kind", _KINDS)
def test_each_geometry_integral_once_and_the_bulk_once_per_request(kind, monkeypatch):
    # The bulk is a geometry integral too: after the report no request integrates.
    s = _report_surface(kind)
    calls = _count_integrals(monkeypatch)
    _request_all(s, calls)
    before = len(calls)
    memo = _geometry_integrals(s)
    assert len(calls) == before
    for name, reference in _geometry_references(s).items():
        assert _value_bits(memo[name]) == _value_bits(reference), name


@pytest.mark.parametrize("kind", _KINDS)
def test_each_value_equals_a_fresh_surfaces_bit_for_bit(kind):
    s = _report_surface(kind)
    for _, request, _ in _REQUESTS:
        request(s)
    for name, request, _ in _REQUESTS:
        assert _value_bits(request(s)) == _value_bits(request(_report_surface(kind))), name


@pytest.mark.parametrize("kind", _KINDS)
def test_two_surfaces_never_share_an_integral(kind, monkeypatch):
    # Requests alternate between two surfaces on one background; each costs
    # what it costs alone and gives its own surface's bits.
    a = _report_surface(kind)
    b = GraphSurface(a.background, 1.1 * a.radius_field)
    calls = _count_integrals(monkeypatch)
    for name, request, cost in _REQUESTS:
        for s in (a, b):
            before = len(calls)
            value = request(s)
            assert len(calls) - before == cost, name
            fresh = request(GraphSurface(s.background, s.radius_field.copy()))
            assert _value_bits(value) == _value_bits(fresh), name
    for name, value in _geometry_integrals(a).items():
        assert value != _geometry_integrals(b)[name], name


@pytest.mark.parametrize("kind", _KINDS)
def test_a_replaced_geometry_integrates_again(kind, monkeypatch):
    s = _report_surface(kind)
    _geometry_integrals(s)
    g = s.geometry
    s._geometry = dataclasses.replace(g, mean_curvature=1.5 * g.mean_curvature)
    calls = _count_integrals(monkeypatch)
    memo = _geometry_integrals(s)
    assert len(calls) == 5
    for name, reference in _geometry_references(s).items():
        assert _value_bits(memo[name]) == _value_bits(reference), name
    assert memo["int_VH"] != _geometry_integrals(_report_surface(kind))["int_VH"]


@pytest.mark.parametrize("kind", ["sphere-129", "torus-32"])
def test_a_sample_row_reads_the_memo(kind, monkeypatch):
    # A row integrates area, int_VH, bulk, Willmore and the traceless term;
    # after the report, whose memo holds all but the traceless term, only
    # that one.  Either way the row has the same bits.
    calls = _count_integrals(monkeypatch)
    fresh = _sample_row(FlowState(0.5, _report_surface(kind), 0))
    assert len(calls) == 5
    s = _report_surface(kind)
    evaluate_report(s)
    before = len(calls)
    row = _sample_row(FlowState(0.5, s, 0))
    assert len(calls) - before == 1
    assert np.array(row).tobytes() == np.array(fresh).tobytes()
