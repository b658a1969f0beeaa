"""Flow stepping, traces, and asymptotic rate fits."""

import dataclasses
import os
import tracemalloc
import types

import numpy as np
import pytest

import kottler_imcf.base
import kottler_imcf.flow
import kottler_imcf.surfaces
from kottler_imcf import (
    FlowState,
    FlowSingularError,
    FlowTrace,
    GraphSurface,
    TRACE_COLUMNS,
    cfl_limit,
    make_background,
    run_flow,
    step_graph_pde,
    step_slice_ode,
)
from kottler_imcf.cli import build_initial_surface, parse_config, run_scenario
from kottler_imcf.flow import CFL, H_FLOOR, STAR_FLOOR

from rate_fit import NoiseFloorError, asymptotic_rate_fit

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "scenarios")


def _slice_state(k=0, genus=1, mass=0.5, resolution="point", rho=2.0):
    b = make_background(k, genus, resolution, mass=mass)
    return FlowState(0.0, GraphSurface(b, rho), 0)


def test_slice_ode_exact():
    state = _slice_state()
    out = step_slice_ode(state, 2.0)
    assert out.surface.radius_field[0] == pytest.approx(2.0 * np.e, rel=1e-15)
    assert out.time == 2.0
    assert out.step_count == 1


def test_slice_ode_zero_step_identity():
    state = _slice_state()
    assert step_slice_ode(state, 0.0) is state


def test_slice_ode_rejects_non_constant():
    b = make_background(1, 0, 33, mass=1.0)
    th = b.base.grid.theta
    state = FlowState(0.0, GraphSurface(b, 2.0 + 0.1 * np.cos(th)), 0)
    with pytest.raises(ValueError):
        step_slice_ode(state, 0.1)


def test_ode_area_growth():
    state = _slice_state()
    area0 = state.surface.area()
    out = step_slice_ode(state, 1.5)
    assert out.surface.area() == pytest.approx(np.e**1.5 * area0, rel=1e-12)


def test_pde_matches_ode_on_constants():
    # constant graph stepped by the PDE converges to the exact exponential
    b = make_background(1, 0, 33, mass=1.0)
    state = FlowState(0.0, GraphSurface(b, 2.0), 0)
    dt = 1e-3
    while state.time < 2.0 - 1e-12:
        state = step_graph_pde(state, min(dt, 2.0 - state.time))
    exact = 2.0 * np.e
    assert np.max(np.abs(state.surface.radius_field - exact)) < 1e-6 * exact


def test_cfl_violation_rejected():
    b = make_background(0, 1, 16, mass=0.5)
    g = b.base.grid
    s = GraphSurface(b, 3.0 + 0.1 * np.sin(2.0 * np.pi * g.theta1 / g.side))
    state = FlowState(0.0, s, 0)
    limit = cfl_limit(s)
    with pytest.raises(ValueError, match="exceeds stability limit"):
        step_graph_pde(state, 10.0 * limit)


def _edge_surface(kind):
    if kind == "torus-16":
        b = make_background(0, 1, 16, mass=0.5)
        g = b.base.grid
        return GraphSurface(b, 3.0 + 0.1 * np.sin(2.0 * np.pi * g.theta1 / g.side))
    b = make_background(1, 0, 33, mass=1.0)
    return GraphSurface(b, 2.0 + 0.2 * np.cos(b.base.grid.theta))


@pytest.mark.parametrize("kind", ["torus-16", "sphere-33"])
def test_cfl_guard_at_its_edge(kind):
    # The guard admits the stability limit itself and nothing a relative
    # 1e-9 above it, so a guard that admitted a multiple of the limit fails.
    s = _edge_surface(kind)
    limit = cfl_limit(s)
    state = FlowState(0.0, s, 0)
    assert step_graph_pde(state, limit).time == limit
    with pytest.raises(ValueError, match="exceeds stability limit"):
        step_graph_pde(state, limit * (1.0 + 1e-9))


def _with_node(surface, field, value, node=5):
    """The surface with one node of one geometry field replaced; the cached
    minimum of H is recomputed from the patched H."""
    g = surface.geometry
    patched = getattr(g, field).copy()
    patched[node] = value
    surface._geometry = dataclasses.replace(g, **{field: patched})
    return surface


def test_h_floor_abort():
    # The floor is the last value that aborts: H at the floor ends the step,
    # H one float above it takes the step.
    for h_min, aborts in ((H_FLOOR, True), (np.nextafter(H_FLOOR, np.inf), False)):
        s = _with_node(_edge_surface("sphere-33"), "mean_curvature", h_min)
        assert s.geometry.min_mean_curvature == h_min
        state = FlowState(0.0, s, 0)
        if aborts:
            with pytest.raises(FlowSingularError, match="at or below floor"):
                step_graph_pde(state, cfl_limit(s))
        else:
            assert step_graph_pde(state, cfl_limit(s)).step_count == 1


@pytest.mark.parametrize("dt_scale", [-1.0, 0.0, np.nan, np.inf],
                         ids=["dt-negative", "dt-zero", "dt-nan", "dt-inf"])
def test_step_graph_pde_rejects_bad_inputs(dt_scale):
    # Unchecked, a negative dt steps back in time and dt = 0 counts as a step.
    s = _edge_surface("sphere-33")
    state = FlowState(0.0, s, 0)
    dt = dt_scale * cfl_limit(s)
    with pytest.raises(ValueError):
        step_graph_pde(state, dt)


def _bound_reference(surface):
    """min over nodes of (spacing r H)^2, in that operand order."""
    spacing = surface.background.base.grid.spacing
    return np.min(np.square(spacing * surface.radius_field * surface.geometry.mean_curvature))


@pytest.mark.parametrize("kind", ["torus-16", "sphere-33"])
@pytest.mark.parametrize("scale_first", [True, False], ids=["scaled-first", "unit-first"])
def test_cfl_limit_scales_one_bound(kind, scale_first):
    # Whether the scaled limit or the unscaled reference bound is taken first
    # on a fresh surface, the memo holds the bits of the reference bound, and
    # the first call, which computes it, and the second, which reads it, both
    # have the bits of CFL times it.
    s = _edge_surface(kind)
    if scale_first:
        first, unit = cfl_limit(s), _bound_reference(s)
    else:
        unit, first = _bound_reference(s), cfl_limit(s)
    assert np.float64(s.geometry.derived["cfl_bound"]).view(np.uint64) == \
        np.float64(unit).view(np.uint64)
    expected = np.float64(CFL * unit).view(np.uint64)
    for call, limit in (("first", first), ("second", cfl_limit(s))):
        assert np.float64(limit).view(np.uint64) == expected, call


def test_replaced_geometry_gets_its_own_bound():
    # A surface caches one bound per geometry: a geometry replaced after a
    # cached call, as _with_node does, is bounded afresh.
    s = _edge_surface("sphere-33")
    before = cfl_limit(s)
    h = s.geometry.mean_curvature
    _with_node(s, "mean_curvature", 0.5 * h[5])
    after = cfl_limit(s)
    assert after < before
    assert after == CFL * _bound_reference(s)
    s = _with_node(s, "mean_curvature", 0.0)
    assert cfl_limit(s) == 0.0


@pytest.mark.parametrize("kind", ["sphere-33", "torus-16"])
def test_graph_step_integrates_the_slice_mode_exactly(kind):
    # On a constant graph v = r/2 to round-off, so k(r) = v - r/2 vanishes and
    # the step is e^{dt/2} r, the exact slice step, at the full stability
    # limit (it reads 0 and 1 ulp).  A plain midpoint step misses it by about
    # dt^3/48 relative.
    if kind == "sphere-33":
        state = _slice_state(k=1, genus=0, mass=1.0, resolution=33, rho=2.0)
    else:
        state = _slice_state(resolution=16, rho=3.0)
    dt = cfl_limit(state.surface)
    stepped = step_graph_pde(state, dt).surface.radius_field
    exact = step_slice_ode(state, dt).surface.radius_field
    assert np.all(np.abs(stepped - exact) <= 4.0 * np.spacing(exact)), kind


def test_torus_flow_with_a_two_dimensional_mode_is_stable(monkeypatch):
    # The acceptance torus input does not depend on theta_2, so its theta_2
    # modes are never seeded; this one seeds a mode in both directions, whose
    # stability limit is about 0.66 of the bound on a 64^2 grid.  At CFL the
    # flow runs to t = 1, and its min_H stays within 1e-5 of the same flow at
    # half the step: the two differ by 4.8e-9, by 8.9e-8 at 0.66 of the bound,
    # and by 2.7e-2 at 0.68, just past the limit.
    b = make_background(0, 1, 64, mass=0.5)
    g = b.base.grid
    phase = 2.0 * np.pi / g.side
    surface = GraphSurface(b, 3.0 + 0.1 * np.sin(phase * g.theta1)
                           + 0.05 * np.cos(phase * (g.theta1 + 2.0 * g.theta2)))
    trace = run_flow(surface, 1.0, 0.125)
    monkeypatch.setattr(kottler_imcf.flow, "CFL", 0.5 * CFL)
    half = run_flow(surface, 1.0, 0.125)
    assert trace.complete and half.complete and trace.times[-1] == 1.0
    assert np.max(np.abs(trace.column("min_H") - half.column("min_H"))) <= 1e-5


def test_point_grid_surface_steps_as_a_slice():
    b = make_background(-1, 2, "point", mass=1.0)
    state = FlowState(0.0, GraphSurface(b, 2.0), 0)
    with pytest.raises(ValueError, match="point-grid surface is a slice.*step_slice_ode"):
        cfl_limit(state.surface)
    with pytest.raises(ValueError, match="point-grid surface is a slice.*step_slice_ode"):
        step_graph_pde(state, 0.1)
    assert step_slice_ode(state, 0.1).time == 0.1


@pytest.mark.parametrize("dt", [-0.5, np.nan, np.inf])
def test_slice_ode_rejects_bad_steps(dt):
    with pytest.raises(ValueError):
        step_slice_ode(_slice_state(), dt)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("field, value, reason", [
    ("mean_curvature", 0.0, "at or below floor"),
    ("graph_factor", 1e170, "non-finite mean curvature"),
], ids=["zero-h", "overflowing-graph-factor-squared"])
def test_zero_cfl_limit_aborts_the_flow_as_singular(field, value, reason):
    # Where H = 0 the CFL limit, and so run_flow's dt, is 0: the step reports
    # the lost mean convexity, not a bad dt.  The bound holds no graph factor,
    # so a graph factor of 1e170 leaves the limit positive; its speed throws
    # the node out to about 1e167 at the half step, where the kernel's square
    # of it overflows and H is not finite.  Either way the flow ends as an
    # abort.
    s = _with_node(_edge_surface("sphere-33"), field, value)
    limit = cfl_limit(s)
    assert (limit == 0.0) == (field == "mean_curvature")
    with pytest.raises(FlowSingularError, match=reason):
        step_graph_pde(FlowState(0.0, s, 0), limit)
    trace = run_flow(s, 1.0, 0.5)
    assert not trace.complete and reason in trace.abort_reason


def test_run_flow_slice_trace():
    b = make_background(0, 1, "point", mass=0.5)
    trace = run_flow(GraphSurface(b, b.horizon_rho), 4.0, 0.5)
    assert trace.complete
    t = trace.times
    assert np.all(np.diff(t) > 0.0)
    assert t[0] == 0.0 and t[-1] == pytest.approx(4.0)
    area = trace.column("area")
    assert np.max(np.abs(area / (np.exp(t) * area[0]) - 1.0)) < 1e-10
    q = trace.column("Q")
    assert np.max(np.abs(q - q[0])) < 1e-10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k, genus", [(1, 0), (0, 1), (-1, 2)])
def test_horizon_slice_has_geometry_and_flows_for_every_mass(k, genus):
    # V^2 at the horizon radius rounds to a few ulp either side of 0; a
    # negative value must not become a NaN potential.  The masses reach
    # below 0 where the curvature sign allows it.
    for mass in np.linspace(-0.19 if k == -1 else 0.01, 5.0, 500):
        b = make_background(k, genus, "point", mass=mass)
        s = GraphSurface(b, b.horizon_rho)
        assert np.all(s.geometry.mean_curvature >= 0.0)
        trace = run_flow(s, 1.0, 0.5)
        assert trace.complete and len(trace.data) == 3, (k, mass, trace.abort_reason)


def _with_alignment_node(surface, value, node=5):
    """The surface with one node of its alignment replaced, read through the
    geometry's measure group as the kernel defers it."""
    g = surface.geometry
    measure = g.measure

    def patched_measure():
        potential, area_density, shape = measure()

        def patched_shape():
            traceless_sq, alignment = shape()
            alignment = alignment.copy()
            alignment[node] = value
            return traceless_sq, alignment

        return potential, area_density, patched_shape

    surface._geometry = dataclasses.replace(g, measure=patched_measure)
    return surface


def test_run_flow_star_floor_rejection():
    # The floor is the last alignment that starts a flow: one node at the
    # floor runs, one node a float below it is rejected before any step.
    s = _with_alignment_node(_edge_surface("sphere-33"), STAR_FLOOR)
    trace = run_flow(s, 0.05, 0.05)
    assert trace.complete and trace.column("min_align")[0] == STAR_FLOOR
    s = _with_alignment_node(_edge_surface("sphere-33"), np.nextafter(STAR_FLOOR, -np.inf))
    with pytest.raises(FlowSingularError, match="star-shape floor"):
        run_flow(s, 0.05, 0.05)


def test_run_flow_argument_validation():
    b = make_background(0, 1, "point", mass=0.5)
    s = GraphSurface(b, 2.0)
    with pytest.raises(ValueError):
        run_flow(s, -1.0, 0.5)
    with pytest.raises(ValueError):
        run_flow(s, 1.0, 0.0)


@pytest.mark.byte_pin
def test_run_flow_deterministic():
    def one():
        b = make_background(0, 1, 16, mass=0.5)
        g = b.base.grid
        s = GraphSurface(b, 3.0 + 0.1 * np.sin(2.0 * np.pi * g.theta1 / g.side))
        return run_flow(s, 0.5, 0.25)

    a, b = one(), one()
    assert np.array_equal(a.data, b.data)


def test_run_flow_pde_area_growth_and_traceless_decay():
    b = make_background(0, 1, 16, mass=0.5)
    g = b.base.grid
    s = GraphSurface(b, 3.0 + 0.1 * np.sin(2.0 * np.pi * g.theta1 / g.side))
    trace = run_flow(s, 1.0, 0.25)
    assert trace.complete
    t = trace.times
    area = trace.column("area")
    assert np.max(np.abs(area / (np.exp(t) * area[0]) - 1.0)) < 1e-4
    a0 = trace.column("int_A0sq")
    assert a0[-1] < a0[0]


@pytest.mark.parametrize("scenario, steps, evaluations", [
    ("sphere-perturbed", 111, 445),
    ("torus-perturbed", 104, 417),
], ids=["sphere-perturbed", "torus-perturbed"])
def test_shipped_flow_work_counts(monkeypatch, scenario, steps, evaluations):
    # Deterministic work, not wall time: a change that adds steps, geometry
    # evaluations, CFL bounds or sample-row quadratures to a shipped flow
    # shows here: four evaluations per step, the first of them the input
    # surface's own, two cfl_limit calls per step and 5 integrate calls per
    # row (area, int_VH, bulk, Willmore, traceless).  The first row's surface
    # is the one the audit's report was evaluated on, whose memo already holds
    # all but the traceless term, so it integrates that one only.
    counts = {"steps": 0, "evaluations": 0, "cfl": 0, "integrals": 0}

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(kottler_imcf.flow, "step_graph_pde", "steps")
    counted(kottler_imcf.surfaces, "compute_geometry", "evaluations")
    counted(kottler_imcf.flow, "cfl_limit", "cfl")
    # Each module that calls integrate binds it by name.
    integrate = kottler_imcf.base.integrate
    modules = [m for m in vars(kottler_imcf).values() if isinstance(m, types.ModuleType)]
    for module in modules:
        if getattr(module, "integrate", None) is integrate:
            counted(module, "integrate", "integrals")
    per_row = []
    sample_row = kottler_imcf.flow._sample_row

    def counted_row(state):
        before = counts["integrals"]
        row = sample_row(state)
        per_row.append(counts["integrals"] - before)
        return row

    monkeypatch.setattr(kottler_imcf.flow, "_sample_row", counted_row)
    with open(os.path.join(SCENARIO_DIR, scenario + ".cfg"), encoding="utf-8") as fh:
        trace, result = run_scenario(parse_config(fh.read()))
    assert trace.complete and result.passed
    del counts["integrals"]
    assert counts == {"steps": steps, "evaluations": evaluations, "cfl": 2 * steps}
    assert evaluations == 4 * steps + 1
    assert per_row == [1] + [5] * (len(trace.data) - 1)


def test_torus_flow_and_audit_never_rerun_the_kernel(monkeypatch):
    # Every deferred read of a shipped torus scenario comes while the
    # workspace still holds its evaluation, so the kernel runs once per
    # geometry: no read takes the recompute path.
    counts = {"geometries": 0, "kernels": 0}
    geometry, kernel = kottler_imcf.surfaces._torus_geometry, kottler_imcf.surfaces._torus_kernel

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(kottler_imcf.surfaces, "_torus_geometry", counted("geometries", geometry))
    monkeypatch.setattr(kottler_imcf.surfaces, "_torus_kernel", counted("kernels", kernel))
    with open(os.path.join(SCENARIO_DIR, "torus-perturbed.cfg"), encoding="utf-8") as fh:
        trace, result = run_scenario(parse_config(fh.read()))
    assert trace.complete and result.passed
    assert counts == {"geometries": 417, "kernels": 417}


@pytest.mark.parametrize("t_end, sample_interval", [
    (np.inf, 0.25),
    (np.nan, 0.25),
    (1.0, np.inf),
    (1.0, np.nan),
], ids=["t_end-inf", "t_end-nan", "interval-inf", "interval-nan"])
def test_run_flow_rejects_controls_that_never_finish(t_end, sample_interval):
    b = make_background(1, 0, 17, mass=1.0)
    surface = GraphSurface(b, 2.0 + 0.2 * np.cos(b.base.grid.theta))
    with pytest.raises(ValueError):
        run_flow(surface, t_end, sample_interval)


@pytest.mark.parametrize("t_end, sample_interval, rows", [(1e-13, 0.25, 2), (5e-13, 1e-13, 6)],
                         ids=["t_end-below-the-slack", "interval-below-the-slack"])
def test_run_flow_reaches_a_t_end_at_or_below_the_absolute_slack(t_end, sample_interval, rows):
    # The sample slack is 1e-12 on every shipped flow; an absolute 1e-12
    # would count these flows done at t = 0, take no step and call the
    # one-row trace complete.
    b = make_background(1, 0, 32, mass=1.0)
    surface = GraphSurface(b, 2.0 + 0.2 * np.cos(b.base.grid.theta))
    trace = run_flow(surface, t_end, sample_interval)
    assert trace.complete and len(trace.data) == rows
    assert trace.times[-1] == t_end
    assert np.all(np.diff(trace.times) > 0.0)
    assert trace.column("area")[-1] > trace.column("area")[0]


def _order(traces, name):
    coarse, mid, fine = (trace.column(name)[-1] for trace in traces)
    return np.log2(abs(coarse - mid) / abs(mid - fine))


def _sphere_input(n):
    b = make_background(1, 0, n, mass=1.0)
    return GraphSurface(b, 2.0 + 0.2 * np.cos(b.base.grid.theta))


def test_sphere_flow_self_convergence_second_order():
    # The acceptance sphere input at n = 33, 65, 129 (nested grids) to
    # t = 0.5.  Area converges faster than order 2 here and is left out.
    traces = [run_flow(_sphere_input(n), 0.5, 0.25) for n in (33, 65, 129)]
    assert all(trace.complete and trace.times[-1] == 0.5 for trace in traces)
    for name in ("Q", "hawking_mass", "int_A0sq", "min_H"):
        order = _order(traces, name)
        assert 1.8 <= order <= 2.2, (name, order)


def _stepped_trace(surface, fraction):
    """The one-row trace at t = 0.5 of `surface` stepped by step_graph_pde,
    each step `fraction` of cfl_limit and none across t = 0.25, as run_flow
    samples at 0.25."""
    state = FlowState(0.0, surface, 0)
    for t_sample in (0.25, 0.5):
        while state.time < t_sample - 1e-12:
            dt = min(fraction * cfl_limit(state.surface), t_sample - state.time)
            state = step_graph_pde(state, dt)
    return FlowTrace(data=np.array([kottler_imcf.flow._sample_row(state)]))


@pytest.mark.parametrize("grid", ["sphere", "torus"])
def test_flow_dt_halving_third_order(grid):
    # Halving the step fraction halves every CFL-limited step: the SSPRK(4,3)
    # time error at t = 0.5 falls by 8x on a fixed grid.  The order is read
    # only from differences at least 100 ulps above round-off: on sphere 65
    # the finer differences of Q and hawking_mass are 2e-14 and 4e-14, so its
    # columns are area, int_A0sq and min_H.  The orders read 2.95-3.00 on
    # sphere 65 and 2.94-3.01 on torus 16.
    if grid == "sphere":
        surface = _sphere_input(65)
        names = ("area", "int_A0sq", "min_H")
    else:
        b = make_background(0, 1, 16, mass=0.5)
        g = b.base.grid
        surface = GraphSurface(b, 3.0 + 0.1 * np.sin(2.0 * np.pi * g.theta1 / g.side))
        names = ("area", "Q", "hawking_mass", "int_A0sq", "min_H")
    traces = [_stepped_trace(surface, fraction) for fraction in (1.0, 0.5, 0.25)]
    assert all(trace.complete and trace.times[-1] == 0.5 for trace in traces)
    for name in names:
        mid, fine = (trace.column(name)[-1] for trace in traces[1:])
        assert abs(mid - fine) >= 100.0 * np.spacing(abs(mid)), name
        order = _order(traces, name)
        assert 2.7 <= order <= 3.3, (name, order)


def _scenario_trace(monkeypatch, text, resolution, fraction):
    """The columns after t of a shipped scenario's trace, with its resolution
    and the step fraction CFL replaced."""
    monkeypatch.setattr(kottler_imcf.flow, "CFL", fraction)
    line = next(line for line in text.splitlines() if line.startswith("resolution = "))
    config = parse_config(text.replace(line, f"resolution = {resolution}"))
    trace = run_flow(build_initial_surface(config, config.background),
                     config.t_end, config.sample_interval)
    assert trace.complete
    return trace.data[:, 1:]


@pytest.mark.parametrize("scenario", ["sphere-perturbed", "torus-perturbed"])
def test_shipped_flow_time_error_is_a_tenth_of_its_spatial_error(monkeypatch, scenario):
    # The accuracy criterion that sets CFL.  Per trace column, in the norm
    # max over samples of |difference| / max(|value|, 1), the time error (the
    # difference from the same flow at CFL/8) is at most a tenth of the
    # spatial error (|f_n - f_{n/2}| / 3, the grids being second order).  The
    # worst columns read 5.1e-6 and 5.5e-5 of it; the integrating-factor
    # midpoint step at 0.1 read 0.012 and 0.005.
    with open(os.path.join(SCENARIO_DIR, scenario + ".cfg"), encoding="utf-8") as fh:
        text = fh.read()
    n = parse_config(text).resolution
    shipped = _scenario_trace(monkeypatch, text, n, CFL)
    coarse = _scenario_trace(monkeypatch, text, n // 2, CFL)
    fine_step = _scenario_trace(monkeypatch, text, n, CFL / 8.0)

    def error(other):
        return np.max(np.abs(shipped - other) / np.maximum(np.abs(shipped), 1.0), axis=0)

    ratio = error(fine_step) / (error(coarse) / 3.0)
    assert np.all(ratio <= 0.1), dict(zip(TRACE_COLUMNS[1:], ratio))


def _synthetic_trace(model):
    t = np.linspace(0.5, 6.0, 24)
    dev = 0.3 * np.exp(-t) * (t if model == "t_exp" else 1.0)
    data = np.zeros((len(t), len(TRACE_COLUMNS)))
    data[:, TRACE_COLUMNS.index("t")] = t
    data[:, TRACE_COLUMNS.index("min_align")] = 1.0 - dev
    return FlowTrace(data=data)


def test_torus_flow_self_convergence_second_order():
    # The acceptance torus input at n = 16, 32, 64: the differences of the
    # t = 0.5 values between successive resolutions fall by 4x (order 2), as
    # the stencils are O(h^2) and the CFL-bound step, with dt ~ h^2, is
    # O(dt^3) = O(h^6).
    traces = []
    for n in (16, 32, 64):
        b = make_background(0, 1, n, mass=0.5)
        g = b.base.grid
        trace = run_flow(GraphSurface(b, 3.0 + 0.1 * np.sin(2.0 * np.pi * g.theta1 / g.side)),
                         0.5, 0.25)
        assert trace.complete and trace.times[-1] == 0.5
        traces.append(trace)
    for name in ("area", "Q", "int_A0sq", "min_H"):
        coarse, mid, fine = (trace.column(name)[-1] for trace in traces)
        order = np.log2(abs(coarse - mid) / abs(mid - fine))
        assert 1.8 <= order <= 2.2, (name, order)


def test_rate_fit_recovers_synthetic_exponent():
    rate, amp, residual = asymptotic_rate_fit(_synthetic_trace("exp"), "min_align")
    assert rate == pytest.approx(-1.0, abs=1e-10)
    assert amp == pytest.approx(0.3, rel=1e-9)
    assert residual < 1e-10


def test_rate_fit_model_selection():
    trace = _synthetic_trace("t_exp")
    _, _, res_texp = asymptotic_rate_fit(trace, "min_align", model="t_exp")
    _, _, res_exp = asymptotic_rate_fit(trace, "min_align", model="exp")
    assert res_texp < res_exp


def test_rate_fit_noise_floor():
    t = np.linspace(0.5, 6.0, 24)
    data = np.zeros((len(t), len(TRACE_COLUMNS)))
    data[:, TRACE_COLUMNS.index("t")] = t
    data[:, TRACE_COLUMNS.index("min_align")] = 1.0
    with pytest.raises(NoiseFloorError):
        asymptotic_rate_fit(FlowTrace(data=data), "min_align")


def test_rate_fit_unknown_column_target():
    with pytest.raises(ValueError):
        asymptotic_rate_fit(_synthetic_trace("exp"), "area")
    with pytest.raises(ValueError):
        asymptotic_rate_fit(_synthetic_trace("exp"), "min_align", model="bogus")


def _torus64_state():
    b = make_background(0, 1, 64, mass=0.5)
    g = b.base.grid
    surface = GraphSurface(b, 3.0 + 0.1 * np.sin(2.0 * np.pi * g.theta1 / g.side))
    return FlowState(0.0, surface, 0)


# Set 5% above 67,584 B, 133,184 B and 33,064 B, measured with numpy 2.4:
# the two returned 32 KiB arrays of a geometry evaluation, one
# integrating-factor SSPRK(4,3) step, which holds one stage field while it
# evaluates the next velocity, and a bound built in one 32 KiB array.  A step
# that also held its first stage's field through the last evaluation peaked
# at 166,048 B, a plain midpoint step that kept its half-step surface at
# 201,584 B, and a bound built in two arrays at 66,776 B.
GEOMETRY_PEAK_BOUND = 71_000
STEP_PEAK_BOUND = 139_900
CFL_PEAK_BOUND = 34_800


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_torus64_allocation_peaks():
    # A repeatable gauge of the torus kernel's temporaries: bytes allocated at
    # the peak of one geometry evaluation, one flow step and the cfl_limit call
    # that computes a surface's bound (tracemalloc counts numpy's buffers).
    # Written out of place, one fresh array per
    # operation, they peaked at 956,616 B and 1,418,304 B; in place but with
    # fresh intermediates, at 628,296 B and 1,024,688 B.  Out of place, one
    # cfl_limit peaked at 98,616 B.
    state = _torus64_state()
    surface = state.surface
    # The flow's own first evaluation, which also makes this thread's
    # workspace, stays outside the gauge.
    dt = cfl_limit(surface)
    geometry_peak = _traced_peak(
        lambda: GraphSurface(surface.background, surface.radius_field).geometry)
    step_peak = _traced_peak(lambda: step_graph_pde(state, dt))
    # The bound of the stepped surface is cached; a fresh surface's is not.
    fresh = GraphSurface(surface.background, surface.radius_field)
    fresh.geometry
    cfl_peak = _traced_peak(lambda: cfl_limit(fresh))
    assert "cfl_bound" in fresh.geometry.derived
    assert geometry_peak <= GEOMETRY_PEAK_BOUND, geometry_peak
    assert step_peak <= STEP_PEAK_BOUND, step_peak
    assert cfl_peak <= CFL_PEAK_BOUND, cfl_peak


def test_a_second_cfl_limit_on_one_geometry_allocates_no_field():
    # The bound is computed once per geometry: a later call scales the cached
    # bound, where the first allocates an array the size of the field
    # (test_torus64_allocation_peaks).
    surface = _torus64_state().surface
    surface.geometry  # evaluated outside the gauge
    first = _traced_peak(lambda: cfl_limit(surface))
    later = _traced_peak(lambda: cfl_limit(surface))
    assert later < surface.radius_field.nbytes < first


def test_rk2_step_leaves_its_input_unchanged():
    state = _torus64_state()
    r = state.surface.radius_field.copy()
    r.flags.writeable = False
    read_only = FlowState(0.0, GraphSurface(state.surface.background, r), 0)
    dt = cfl_limit(read_only.surface)
    stepped = step_graph_pde(read_only, dt)
    assert np.array_equal(r, state.surface.radius_field)
    assert np.array_equal(stepped.surface.radius_field,
                          step_graph_pde(state, dt).surface.radius_field)
