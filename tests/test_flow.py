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
    compute_Q,
    hawking_mass,
    hk_gap,
    integrate,
    make_background,
    run_flow,
    step_graph_pde,
    step_slice_ode,
)
from kottler_imcf.cli import build_initial_surface, parse_config, run_scenario
from kottler_imcf.flow import CFL, F, H_FLOOR, STAR_FLOOR

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


def _edge_surface(kind):
    if kind == "torus-16":
        b = make_background(0, 1, 16, mass=0.5)
        g = b.base.grid
        return GraphSurface(b, 3.0 + 0.1 * np.sin(2.0 * np.pi * g.theta1 / g.side))
    b = make_background(1, 0, 33, mass=1.0)
    return GraphSurface(b, 2.0 + 0.2 * np.cos(b.base.grid.theta))


@pytest.mark.parametrize("kind", ["torus-16", "sphere-33"])
def test_graph_step_takes_at_most_its_stability_limit(kind):
    # A request at or above F times the bound steps by F times the bound: the
    # same time and the same bits as a request for that step itself, however
    # far above it the request is.  A request below it steps exactly that far.
    s = _edge_surface(kind)
    limit = F * cfl_limit(s)
    state = FlowState(0.0, s, 0)
    by_limit = step_graph_pde(state, limit)
    assert by_limit.time == limit and by_limit.step_count == 1
    for dt in (limit * (1.0 + 1e-12), 2.0 * limit, 1e6):
        stepped = step_graph_pde(state, dt)
        assert stepped.time == limit, dt
        assert np.array_equal(stepped.surface.radius_field.view(np.uint64),
                              by_limit.surface.radius_field.view(np.uint64)), dt
    half = step_graph_pde(state, 0.5 * limit)
    assert half.time == 0.5 * limit
    assert not np.array_equal(half.surface.radius_field, by_limit.surface.radius_field)


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
    # Unchecked, a negative dt steps back in time, dt = 0 counts as a step,
    # and an infinite dt is cut to the limit where it should be rejected.
    # dt is checked before any work: on a surface whose H is 0 at a node the
    # bad dt is reported, not the lost mean convexity.
    s = _edge_surface("sphere-33")
    dt = dt_scale * cfl_limit(s)
    singular = _with_node(_edge_surface("sphere-33"), "mean_curvature", 0.0)
    for surface in (s, singular):
        with pytest.raises(ValueError):
            step_graph_pde(FlowState(0.0, surface, 0), dt)


def _bound_reference(surface):
    """min over nodes of (spacing r H)^2, in that operand order."""
    spacing = surface.background.base.grid.spacing
    return np.min(np.square(spacing * surface.radius_field * surface.geometry.mean_curvature))


@pytest.mark.parametrize("kind", ["torus-16", "sphere-33"])
@pytest.mark.parametrize("scale_first", [True, False], ids=["scaled-first", "unit-first"])
def test_cfl_limit_scales_one_bound(kind, scale_first):
    # Whether the limit or the unscaled reference bound is taken first on a
    # fresh surface, every call has the bits of CFL times the grid's step
    # ratio times the reference.
    s = _edge_surface(kind)
    if scale_first:
        first, unit = cfl_limit(s), _bound_reference(s)
    else:
        unit, first = _bound_reference(s), cfl_limit(s)
    expected = np.float64(CFL * s.background.base.grid.stable_step * unit).view(np.uint64)
    for call, limit in (("first", first), ("second", cfl_limit(s))):
        assert np.float64(limit).view(np.uint64) == expected, call


def test_replaced_geometry_gets_its_own_bound():
    # The bound is the geometry's: a geometry replaced after a call, as
    # _with_node does, is bounded by its own H.
    s = _edge_surface("sphere-33")
    before = cfl_limit(s)
    h = s.geometry.mean_curvature
    _with_node(s, "mean_curvature", 0.5 * h[5])
    after = cfl_limit(s)
    assert after < before
    assert after == CFL * s.background.base.grid.stable_step * _bound_reference(s)
    s = _with_node(s, "mean_curvature", 0.0)
    assert cfl_limit(s) == 0.0


@pytest.mark.parametrize("kind", ["sphere-33", "torus-16"])
def test_graph_step_integrates_the_slice_mode_exactly(kind):
    # On a constant graph v = r/2 to round-off, so k(r) = v - r/2 vanishes and
    # the step is e^{dt/2} r, the exact slice step, at the full stability
    # limit (it reads 0 ulp on both grids, as it does at F times the bound).
    # A plain midpoint step misses it by about dt^3/48 relative.
    if kind == "sphere-33":
        state = _slice_state(k=1, genus=0, mass=1.0, resolution=33, rho=2.0)
    else:
        state = _slice_state(resolution=16, rho=3.0)
    dt = cfl_limit(state.surface)
    stepped = step_graph_pde(state, dt).surface.radius_field
    exact = step_slice_ode(state, dt).surface.radius_field
    assert np.all(np.abs(stepped - exact) <= 4.0 * np.spacing(exact)), kind


def _two_mode_torus(n):
    b = make_background(0, 1, n, mass=0.5)
    g = b.base.grid
    phase = 2.0 * np.pi / g.side
    return GraphSurface(b, 3.0 + 0.1 * np.sin(phase * g.theta1)
                        + 0.05 * np.cos(phase * (g.theta1 + 2.0 * g.theta2)))


def _assert_flow_converges_as_its_step_halves(monkeypatch, surface):
    """The flow of surface to t = 1 completes at CFL, its min_H stays within
    1e-5 of the same flow at half the step, and that difference falls at
    least 4x when the step halves again.  A difference within the bound is
    only the step's time error if the steps converge: a stable third-order
    step's falls by about 8x, a second-order step's by about 4x, and an
    unstable step's does not fall."""
    traces = []
    for share in (1.0, 0.5, 0.25):
        monkeypatch.setattr(kottler_imcf.flow, "CFL", share * CFL)
        traces.append(run_flow(surface, 1.0, 0.125))
    assert all(trace.complete and trace.times[-1] == 1.0 for trace in traces)
    full, half, quarter = (trace.column("min_H") for trace in traces)
    difference = np.max(np.abs(full - half))
    assert difference <= 1e-5
    assert 4.0 * np.max(np.abs(half - quarter)) <= difference


def test_torus_flow_with_a_two_dimensional_mode_is_stable(monkeypatch):
    # The acceptance torus input does not depend on theta_2, so its theta_2
    # modes are never seeded; this one seeds a mode in both directions.  At
    # CFL the flow runs to t = 1, and its min_H stays within 1e-5 of the same
    # flow at half the step: the two differ by 9.9e-7, and that difference
    # falls 8.4x as the step halves again.  Against the flow at CFL 0.3 it
    # differs by 6.6e-6 where every step's lambda dt reaches its row's beta_s
    # (CFL 1.0, F 4.96) and by 7.8e-6 at 1.05 of that, and it aborts at 1.1.
    _assert_flow_converges_as_its_step_halves(monkeypatch, _two_mode_torus(64))


def test_sphere_flow_with_a_higher_mode_is_stable(monkeypatch):
    # The sphere twin of the torus test above, on sphere 128.  A cos 3 theta
    # mode flows to t = 1 at CFL, and its min_H stays within 1e-5 of the same
    # flow at half the step: the two differ by 1.3e-7, and that difference
    # falls 6.5x as the step halves again.  Against the flow at CFL 0.3 it
    # differs by 1.3e-6 where every step's lambda dt reaches its row's beta_s
    # and by 3.0e-4 at 1.05 of that, where the step breaks.
    b = make_background(1, 0, 128, mass=1.0)
    surface = GraphSurface(b, 2.0 + 0.1 * np.cos(3.0 * b.base.grid.theta))
    _assert_flow_converges_as_its_step_halves(monkeypatch, surface)


def _far_from_a_slice(kind):
    if kind == "torus-64-mode-2-1":
        b = make_background(0, 1, 64, mass=0.5)
        g = b.base.grid
        phase = 2.0 * np.pi / g.side
        return GraphSurface(b, 3.0 + 0.1 * np.sin(phase * (2.0 * g.theta1 + g.theta2)))
    b = make_background(1, 0, 128, mass=1.0)
    return GraphSurface(b, 2.0 + 0.1 * np.cos(5.0 * b.base.grid.theta))


@pytest.mark.parametrize("kind", ["torus-64-mode-2-1", "sphere-128-cos-5"])
def test_flow_far_from_a_slice_is_stable(monkeypatch, kind):
    # stable_step is measured near a slice.  These surfaces are far from one:
    # min H / max H reads 0.43 on the torus and 0.49 on the sphere.  At CFL
    # each flows to t = 1 with its min_H within 1e-5 of the same flow at half
    # the step; the two differ by 1.6e-6 and 3.2e-6, and those differences
    # fall 7.5x and 8.3x as the step halves again.  Against the flow at CFL
    # 0.3 each stays smooth where every step's lambda dt reaches its row's
    # beta_s (1.3e-5 and 2.1e-5); the sphere breaks by 1.05 of that (1.0e-4)
    # and the torus by 1.1 (an abort), so the near-slice limit holds here too
    # and CFL leaves 1/CFL of headroom.
    _assert_flow_converges_as_its_step_halves(monkeypatch, _far_from_a_slice(kind))


def _spectral_radius(surface, eps=1e-7):
    """The largest |eigenvalue| of the central-difference Jacobian of
    k(r) = v(r) - r/2 at the surface's radius field."""
    shape = surface.radius_field.shape
    r = surface.radius_field.ravel()

    def k(x):
        g = GraphSurface(surface.background, x.reshape(shape)).geometry
        return (g.graph_factor / g.mean_curvature).ravel() - 0.5 * x

    columns = []
    for j in range(r.size):
        d = np.zeros(r.size)
        d[j] = eps
        columns.append((k(r + d) - k(r - d)) / (2.0 * eps))
    return np.max(np.abs(np.linalg.eigvals(np.column_stack(columns))))


@pytest.mark.parametrize("kind", ["sphere-33", "torus-16"])
def test_each_grid_steps_at_its_share_of_the_stability_limit(kind):
    # SSPRK(4,3) is stable to dt = 5.15 / lambda_max, with lambda_max the
    # spectral radius of the linearized k.  Near a slice that limit is 1.063
    # of the bound on the sphere, whose stencil has one axis, and 0.645 of it
    # on the torus, about 5.15/8 for the two axes of the five-point stencil:
    # each grid's stable_step.  So the bound is CFL of that limit (with the
    # torus's stable_step on the sphere the sphere's share reads 0.36, and
    # with the sphere's on the torus the torus's reads 0.99), and a full step
    # of F times the bound takes a row whose damped interval beta_s covers
    # lambda_max dt at the same share: lambda_max dt <= CFL beta_s.  It reads
    # 14.2 against 15.3 on both grids.
    if kind == "sphere-33":
        b = make_background(1, 0, 33, mass=1.0)
        surface = GraphSurface(b, 2.0 + 1e-3 * np.cos(b.base.grid.theta))
    else:
        b = make_background(0, 1, 16, mass=0.5)
        g = b.base.grid
        surface = GraphSurface(b, 3.0 + 1e-3 * np.sin(2.0 * np.pi * g.theta1 / g.side))
    limit, radius = cfl_limit(surface), _spectral_radius(surface)
    measured = limit * radius / 5.15
    assert measured == pytest.approx(CFL, rel=0.02), measured
    stepped = step_graph_pde(FlowState(0.0, surface, 0), 1e6)
    assert stepped.time == F * limit
    beta = next(row[0] for row in kottler_imcf.flow._ROWS if row[0] >= 5.15 * F)
    assert radius * stepped.time <= CFL * beta, (radius * stepped.time, CFL * beta)


def test_point_grid_surface_steps_as_a_slice():
    b = make_background(-1, 2, "point", mass=1.0)
    state = FlowState(0.0, GraphSurface(b, 2.0), 0)
    with pytest.raises(ValueError, match="point-grid surface is a slice.*step_slice_ode"):
        cfl_limit(state.surface)
    with pytest.raises(ValueError, match="point-grid surface is a slice.*step_slice_ode"):
        step_graph_pde(state, 0.1)
    assert step_slice_ode(state, 0.1).time == 0.1


@pytest.mark.parametrize("dt", [-0.5, 0.0, np.nan, np.inf])
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
    # Where H = 0 the CFL limit is 0: a step requested to the next sample
    # reports the lost mean convexity before it takes its bound.  The bound
    # holds no graph factor, so a graph factor of 1e170 leaves the limit
    # positive; its speed throws the node out to about 1e167 at the pair's
    # middle stage, where the kernel's square of it overflows and H is not
    # finite.  Either way the flow ends as an abort.
    s = _with_node(_edge_surface("sphere-33"), field, value)
    limit = cfl_limit(s)
    assert (limit == 0.0) == (field == "mean_curvature")
    with pytest.raises(FlowSingularError, match=reason):
        step_graph_pde(FlowState(0.0, s, 0), 0.5)
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


# Steps and geometry evaluations of each shipped flow scenario.
SHIPPED_FLOW_WORK = {"sphere-perturbed": (13, 93), "torus-perturbed": (18, 133)}


@pytest.mark.parametrize("scenario", SHIPPED_FLOW_WORK)
def test_shipped_flow_work_counts(monkeypatch, scenario):
    # Deterministic work, not wall time: a change that adds steps, geometry
    # evaluations, CFL bounds or sample-row quadratures to a shipped flow
    # shows here.  Each step makes as many evaluations as the stage count of
    # the smallest row of the step table that covers it, the first stage
    # being the input surface's own and the last evaluation the new
    # surface's; so a flow makes the sum of its stage counts plus one, the
    # initial surface's.  One cfl_limit call per step and 5 integrate calls
    # per row (area, int_VH, bulk, Willmore, traceless).  The first row's
    # surface is the one the audit's report was evaluated on, whose memo
    # already holds all but the traceless term, so it integrates that one
    # only.
    counts = {"evaluations": 0, "cfl": 0, "integrals": 0}

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(kottler_imcf.surfaces, "compute_geometry", "evaluations")
    bound = kottler_imcf.flow.cfl_limit
    counted(kottler_imcf.flow, "cfl_limit", "cfl")
    step = kottler_imcf.flow.step_graph_pde
    stage_counts = []

    def counted_step(state, dt):
        before = counts["evaluations"]
        covered = kottler_imcf.flow._SSP_INTERVAL / bound(state.surface)
        stepped = step(state, dt)
        need = covered * (stepped.time - state.time)
        covering = next(row for row in kottler_imcf.flow._ROWS if row[0] >= need * (1 - 1e-12))
        stage_counts.append((counts["evaluations"] - before, 2 + len(covering[2])))
        return stepped

    monkeypatch.setattr(kottler_imcf.flow, "step_graph_pde", counted_step)
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
    steps, evaluations = SHIPPED_FLOW_WORK[scenario]
    made, covering = zip(*stage_counts)
    assert made == covering
    assert (len(made), counts) == (steps, {"evaluations": evaluations, "cfl": steps})
    assert evaluations == sum(made) + 1
    assert per_row == [1] + [5] * (len(trace.data) - 1)


@pytest.mark.parametrize("scenario", SHIPPED_FLOW_WORK)
def test_shipped_flow_min_H_is_below_max_H(scenario):
    # Neither shipped graph flow is a slice, so H varies over the nodes in
    # every sample row, and the flow keeps it positive: 0 < min_H < max_H.
    with open(os.path.join(SCENARIO_DIR, scenario + ".cfg"), encoding="utf-8") as fh:
        config = parse_config(fh.read())
    trace = run_flow(build_initial_surface(config, config.background), config.t_end,
                     config.sample_interval)
    min_h, max_h = trace.column("min_H"), trace.column("max_H")
    assert trace.complete and np.all((0.0 < min_h) & (min_h < max_h)), (min_h, max_h)


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
    evaluations = SHIPPED_FLOW_WORK["torus-perturbed"][1]
    assert counts == {"geometries": evaluations, "kernels": evaluations}


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
def test_flow_dt_halving_third_order(monkeypatch, grid):
    # Halving the step fraction halves every CFL-limited step: the time error
    # at t = 0.5 falls by 8x on a fixed grid.  The step's stage count follows
    # dt, so the table is cut to the full step's row, s = 8, and each run is
    # one method.  The order is read only from differences at least 100 ulps
    # above round-off (the smallest is 9,300 ulps, hawking_mass on the
    # sphere).  The orders read 2.94-2.96 on sphere 65 and 2.89-2.99 on torus
    # 16.  At fractions 4, 2 and 1 of the bound, where the stiff modes fall in
    # the damped interval, they read 2.6-2.8; with the pair's gamma off its
    # solved value (0.9), 1.8-2.0.
    monkeypatch.setattr(kottler_imcf.flow, "_ROWS", kottler_imcf.flow._ROWS[-1:])
    if grid == "sphere":
        surface = _sphere_input(65)
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
    # The accuracy criterion that bounds CFL and F.  Per trace column, in the
    # norm max over samples of |difference| / max(|value|, 1), the time error
    # (the difference from the same flow at CFL/8) is at most a tenth of the
    # spatial error (|f_n - f_{n/2}| / 3, the grids being second order).  The
    # worst columns read 0.030 (P, sphere) and 0.034 (int_OmegaV, torus) of
    # it; with a full step of 4 times the bound, 0.025 and 0.021; SSPRK(4,3)
    # at the bound read 8.5e-5 and 2.0e-4, and the integrating-factor
    # midpoint step at 0.1 of the bound 0.012 and 0.005.
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


def _slope_at(surface, functional, t=0.3, deltas=(0.02, 0.01)):
    """(d functional / dt at t, the flowed surface at t): the slope from
    central differences at the two deltas, extrapolated to delta -> 0."""
    state = FlowState(0.0, surface, 0)
    at = {}
    for offset in sorted((0.0, *deltas, *(-d for d in deltas))):
        while state.time < t + offset - 1e-12:
            state = step_graph_pde(state, t + offset - state.time)
        at[offset] = state.surface
    coarse, fine = ((functional(at[d]) - functional(at[-d])) / (2.0 * d) for d in deltas)
    return (4.0 * fine - coarse) / 3.0, at[0.0]  # the O(delta^2) error cancels


def _q_identity_residual(surface):
    """|dQ/dt - identity| at t = 0.3, the identity being
    -(6 hk_gap + int V |A0|^2 / H dA) / sqrt(|Sigma|) on the surface at t."""
    slope, s = _slope_at(surface, compute_Q)
    g = s.geometry
    shape = integrate(s.background.base,
                      g.potential * g.traceless_sq / g.mean_curvature * g.area_density)
    return abs(slope + (6.0 * hk_gap(s) + shape) / np.sqrt(s.area()))


@pytest.mark.parametrize("grid, inputs, bounds", [
    ("sphere", (33, 65, 129), (4e-5, 1e-5, 2.5e-6)),
    ("torus", (16, 32, 64), (8e-3, 2e-3, 5e-4)),
])
def test_q_slope_matches_the_monotonicity_identity(monkeypatch, grid, inputs, bounds):
    # Speed 1/H, the static equations Hess V = V(Ric + 3g) and Delta V = 3V,
    # and the horizon flux give dQ/dt = -(6 hk_gap + int V|A0|^2/H)/sqrt|Sigma|,
    # both terms >= 0.  At t = 0.3, at half CFL, the residuals read 2.0e-5,
    # 5.0e-6 and 1.2e-6 on the sphere and 4.0e-3, 1.0e-3 and 2.6e-4 on the
    # torus, where the shape term is a third of the slope: falls of 3.9-4.0x
    # per doubling, the second order of the grids.  Without the extrapolation
    # the falls are uneven (6.2x then 3.6x on the sphere).
    monkeypatch.setattr(kottler_imcf.flow, "CFL", 0.5 * CFL)
    make = _sphere_input if grid == "sphere" else _two_mode_torus
    residuals = [_q_identity_residual(make(n)) for n in inputs]
    for n, residual, bound in zip(inputs, residuals, bounds):
        assert residual <= bound, (n, residual)
    for coarse, fine in zip(residuals, residuals[1:]):
        assert coarse >= 3.5 * fine, residuals


def _grad_h_sq(surface):
    """|grad H|^2 = gamma^{ij} H_i H_j, from centred differences of H and r,
    with the induced metric gamma_ij = r_i r_j / V^2 + r^2 sigma_ij.  On the
    sphere H and r are even about each pole; on the torus, by Sherman-
    Morrison with a = grad r / V, r^2 gamma^{ij} = delta_ij - a_i a_j /
    (r^2 + |a|^2)."""
    g = surface.geometry
    grid = surface.background.base.grid
    h, r, v = g.mean_curvature, surface.radius_field, g.potential
    step = 2.0 * grid.spacing
    if surface.background.base.curvature_sign == 1:
        def d(x):
            x = np.concatenate([x[1:2], x, x[-2:-1]])
            return (x[2:] - x[:-2]) / step

        return d(h) ** 2 / (r * r + (d(r) / v) ** 2)

    def d(x, axis):
        return (np.roll(x, -1, axis) - np.roll(x, 1, axis)) / step

    a1, a2, h1, h2 = d(r, 0) / v, d(r, 1) / v, d(h, 0), d(h, 1)
    dot = a1 * h1 + a2 * h2
    return (h1 * h1 + h2 * h2 - dot * dot / (r * r + a1 * a1 + a2 * a2)) / (r * r)


def _hawking_identity_residual(surface):
    """|dm_H/dt - identity| at t = 0.3, the identity being
    sqrt(|Sigma| / 16 pi) / (16 pi) int (2 |grad H|^2 / H^2 + |A0|^2) dA on the
    surface at t."""
    slope, s = _slope_at(surface, hawking_mass)
    g = s.geometry
    rate = integrate(s.background.base,
                     (2.0 * _grad_h_sq(s) / g.mean_curvature ** 2 + g.traceless_sq)
                     * g.area_density)
    return abs(slope - np.sqrt(s.area() / (16.0 * np.pi)) / (16.0 * np.pi) * rate)


@pytest.mark.parametrize("grid, inputs, bounds", [
    ("sphere", (33, 65, 129), (2e-5, 5e-6, 1.2e-6)),
    ("torus", (16, 32, 64), (4e-4, 1e-4, 2.7e-5)),
])
def test_hawking_mass_slope_matches_the_geroch_identity(monkeypatch, grid, inputs, bounds):
    # Under speed 1/H, Gauss's equation, Gauss-Bonnet and R = -6 give
    # Geroch's monotonicity dm_H/dt = sqrt(|Sigma|/16 pi)/(16 pi) int (2 |grad
    # H|^2 / H^2 + |A0|^2) dA >= 0, on every genus, as the chi terms cancel.
    # In the Q identity's setup the residuals read 9.4e-6, 2.3e-6 and 5.8e-7
    # on the sphere (relative 4.0e-2 to 2.5e-3) and 2.0e-4, 5.3e-5 and 1.3e-5
    # on the torus (7.7e-2 to 4.6e-3): falls of 3.8-4.1x per doubling.  The
    # 2 |grad H|^2 / H^2 term is 98% of the rate on the sphere and 89% on the
    # torus, so this oracle sees H's spatial profile on the stages the step
    # makes, where the Q identity sees mostly hk_gap.
    monkeypatch.setattr(kottler_imcf.flow, "CFL", 0.5 * CFL)
    make = _sphere_input if grid == "sphere" else _two_mode_torus
    residuals = [_hawking_identity_residual(make(n)) for n in inputs]
    for n, residual, bound in zip(inputs, residuals, bounds):
        assert residual <= bound, (n, residual)
    for coarse, fine in zip(residuals, residuals[1:]):
        assert coarse >= 3.5 * fine, residuals


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


# Set 5% above 67,584 B, 166,112 B and 33,064 B, measured with numpy 2.4:
# the two returned 32 KiB arrays of a geometry evaluation, one stabilized
# step, which holds u, a stage, the pair's first 2k and the stage's velocity
# next to the geometry's two arrays while it evaluates a stage, and a bound
# built in one 32 KiB array.  The same step that kept the pair's two 2k
# fields through its substeps peaked at 231,904 B, the SSPRK(4,3) step it
# replaced at 133,184 B, a plain midpoint step that kept its half-step surface
# at 201,584 B, and a bound built in two arrays at 66,776 B.
GEOMETRY_PEAK_BOUND = 71_000
STEP_PEAK_BOUND = 174_400
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
    # the peak of one geometry evaluation, one flow step and one cfl_limit
    # call (tracemalloc counts numpy's buffers).
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
    fresh = GraphSurface(surface.background, surface.radius_field)
    fresh.geometry
    cfl_peak = _traced_peak(lambda: cfl_limit(fresh))
    assert geometry_peak <= GEOMETRY_PEAK_BOUND, geometry_peak
    assert step_peak <= STEP_PEAK_BOUND, step_peak
    assert cfl_peak <= CFL_PEAK_BOUND, cfl_peak


def test_graph_step_leaves_its_input_unchanged():
    state = _torus64_state()
    r = state.surface.radius_field.copy()
    r.flags.writeable = False
    read_only = FlowState(0.0, GraphSurface(state.surface.background, r), 0)
    dt = cfl_limit(read_only.surface)
    stepped = step_graph_pde(read_only, dt)
    assert np.array_equal(r, state.surface.radius_field)
    assert np.array_equal(stepped.surface.radius_field,
                          step_graph_pde(state, dt).surface.radius_field)


def _array_records():
    background = make_background(1, 0, 33, mass=1.0)
    surface = GraphSurface(background, 2.0 + 0.1 * np.cos(background.base.grid.theta))
    return {"background": background, "base": background.base,
            "sphere-grid": background.base.grid,
            "torus-grid": make_background(0, 1, 16, mass=0.5).base.grid,
            "surface": surface, "geometry": surface.geometry,
            "state": FlowState(0.0, surface, 0),
            "trace": FlowTrace(np.zeros((2, len(TRACE_COLUMNS))))}


# Named here, not read from _array_records(): a collection-time build would
# turn a broken base into an error of the whole suite.
@pytest.mark.parametrize("name", ["background", "base", "sphere-grid", "torus-grid", "surface",
                                  "geometry", "state", "trace"])
def test_records_that_hold_arrays_compare_and_hash_by_identity(name):
    # A generated __eq__ compares the array fields, whose truth value raises
    # ValueError, and a generated frozen __hash__ hashes them (TypeError).
    record, twin = _array_records()[name], _array_records()[name]
    assert record == record and record != twin
    assert hash(record) == hash(record) and len({record, twin}) == 2
