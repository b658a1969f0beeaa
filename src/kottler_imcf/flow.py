"""Inverse mean curvature flow of radial graphs.

Constant graphs evolve by the exact radial ODE rho(t) = rho(0) e^{t/2},
with no integration error.  Non-constant graphs evolve the radius field
by the graphical flow equation

    dr/dt = v(r) = graph_factor / H,

stepped under a parabolic CFL restriction by an integrating-factor
third-order scheme: the four-stage strong-stability-preserving Runge-Kutta
method SSPRK(4,3) (Kraaijevanger 1991; Spiteri & Ruuth 2002) on
u = e^{-t/2} r, whose right-hand side is e^{-t/2} k(r) with
k(r) = v(r) - r/2.  The slice mode r' = r/2, which a constant graph
follows and which dominates every late flow, is integrated exactly, so
the step is bounded by stability and the error of the deviation from a
slice, not by the growth of r.  Traces record scalar functionals, not
surfaces, at fixed sample times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import PointGrid
from .errors import FlowSingularError
from .functionals import bulk_integral, compute_P, compute_Q, hawking_mass, total_mean_curvature
from .surfaces import GraphSurface, star_shaped_check

__all__ = [
    "TRACE_COLUMNS",
    "FlowState",
    "FlowTrace",
    "cfl_limit",
    "step_slice_ode",
    "step_graph_pde",
    "run_flow",
]

# The step fraction of the CFL bound; a step aborts where H is at or below
# H_FLOOR, and a flow does not start where the radial alignment drops below
# STAR_FLOOR.  SSPRK(4,3)'s real stability interval, [-5.15, 0], is 2.57
# times the midpoint step's, and CFL is 2.57 times the midpoint's 0.1: 38%
# of the measured stability threshold of a 64^2 torus with a 2D mode (about
# 0.66) and 25% of sphere 128's (about 1.0).  At it each trace column's
# time error is at most a tenth of its spatial error.
CFL = 0.25
H_FLOOR = 1e-6
STAR_FLOOR = 0.1

TRACE_COLUMNS = (
    "t",
    "area",
    "int_VH",
    "int_OmegaV",
    "Q",
    "P",
    "hawking_mass",
    "min_H",
    "max_H",
    "min_align",
    "int_A0sq",
)


@dataclass(frozen=True)
class FlowState:
    """One instant of a flow: time, surface, and accepted step count."""

    time: float
    surface: GraphSurface
    step_count: int


@dataclass
class FlowTrace:
    """Time series of scalar functionals sampled along one flow."""

    data: np.ndarray  # one row per sample, one column per TRACE_COLUMNS entry
    abort_reason: str | None = None

    @property
    def complete(self):
        return self.abort_reason is None

    def column(self, name):
        return self.data[:, TRACE_COLUMNS.index(name)]

    @property
    def times(self):
        return self.column("t")


def _sample_row(state):
    # Every integral is the surface's memo (GraphSurface.integral), so a row
    # and the audit's report on one surface share them.
    surface = state.surface
    g = surface.geometry
    row = (
        state.time,
        surface.area(),
        total_mean_curvature(surface),
        bulk_integral(surface),
        compute_Q(surface),
        compute_P(surface),
        float(hawking_mass(surface)),
        float(g.min_mean_curvature),
        float(np.max(g.mean_curvature)),
        float(np.min(g.alignment)),
        surface.integral("int_A0sq", lambda g: g.traceless_sq * g.area_density),
    )
    if not all(np.isfinite(row)):
        raise FlowSingularError(f"non-finite functional value at t = {state.time}")
    return row


def _check_finite(name, value, positive=True):
    """Raise ValueError unless value is finite and positive (or nonnegative).

    Each comparison is False on NaN, so NaN is rejected too.  An infinite
    t_end, or a step that is not positive, would never end a flow.
    """
    if not (value < math.inf and (value > 0.0 if positive else value >= 0.0)):
        raise ValueError(f"{name} must be finite and {'positive' if positive else 'nonnegative'}")


def cfl_limit(surface):
    """Largest stable explicit time step for the graphical flow.

    The speed is v = graph_factor / H, and the second-derivative term of H
    is -r_tt / (graph_factor gamma_tt), with gamma_tt = r^2 the metric of
    one grid direction.  So a perturbation moves the speed by
    delta v = delta r_tt / (H^2 gamma_tt): the graph factor cancels, and
    the linearized operator diffuses with coefficient 1 / (H r)^2 per unit
    grid spacing squared.  The unscaled bound is min over nodes of
    (spacing r H)^2.  It is computed once per geometry and kept in its memo
    (SurfaceGeometry.derived); every call returns CFL times it.  A
    point-grid surface is a slice: it has no spacing and steps by
    ``step_slice_ode``.
    """
    g = surface.geometry
    memo = g.derived
    bound = memo.get("cfl_bound")
    if bound is None:
        grid = surface.background.base.grid
        if isinstance(grid, PointGrid):
            raise ValueError("a point-grid surface is a slice; it steps by step_slice_ode")
        # (spacing r H)^2 in that operand order, in one array.
        local = np.multiply(grid.spacing, surface.radius_field)
        local *= g.mean_curvature
        np.square(local, out=local)
        # argmin finds the first NaN, as the reduction propagates it, at about a
        # third of its cost; a square holds no -0, so the bits agree.
        bound = local.item(local.argmin())
        memo["cfl_bound"] = bound
    return CFL * bound


def step_slice_ode(state, dt):
    """Advance a constant graph by the exact slice solution."""
    if not state.surface.is_constant:
        raise ValueError("slice ODE step requires a constant graph")
    _check_finite("dt", dt, positive=False)
    if dt == 0.0:
        return state
    new_r = state.surface.radius_field * math.exp(0.5 * dt)
    surface = GraphSurface(state.surface.background, new_r)
    return FlowState(state.time + dt, surface, state.step_count + 1)


def _check_mean_convex(surface):
    min_h = surface.geometry.min_mean_curvature
    if min_h <= H_FLOOR:
        raise FlowSingularError(f"min H = {min_h:.3e} at or below floor {H_FLOOR}")


def _velocity(surface):
    _check_mean_convex(surface)
    g = surface.geometry
    return g.graph_factor / g.mean_curvature


def _stage(v, x, dt, quarter):
    """E(x) = e^{dt/4} (x + (dt/2) k(x)), the forward-Euler half step of
    u = e^{-t/2} r, written into v = v(x), a fresh velocity array; quarter
    is e^{dt/4}."""
    # k is formed as (2v - x) / 2: doubling is exact, so 2v - x is 2k to the
    # bit, with no array for x / 2.
    v *= 2.0
    v -= x
    v *= 0.25 * dt
    v += x
    v *= quarter
    return v


def step_graph_pde(state, dt):
    """One integrating-factor SSPRK(4,3) step of the graphical flow equation.

    With E(x) = e^{dt/4} (x + (dt/2) k(x)) and k(r) = v(r) - r/2, the stages
    are

        r1    = E(r)
        r2    = E(r1)
        r3    = (2/3) e^{dt/4} r + (1/3) e^{-dt/2} E(r2)
        r_new = E(r3),

    the four-stage third-order strong-stability-preserving Runge-Kutta step
    of u = e^{-t/2} r: four geometry evaluations, the first of them the
    input surface's own.  Its real stability interval is [-5.15, 0].  A
    constant graph grows by e^{dt/2} as ``step_slice_ode`` grows it.  The
    exponentials are scalar libm calls.  Every stage is a validated
    GraphSurface whose mean curvature is checked against the floor.

    The guard repeats ``run_flow``'s ``cfl_limit`` request as a memo read: it
    protects callers that step directly, such as the tests and the
    benchmark's per-step timing, and passing the bound in would take a
    parameter or a second step path.
    """
    surface = state.surface
    background = surface.background
    x = _velocity(surface)  # v(r), which becomes r1
    _check_finite("dt", dt)
    limit = cfl_limit(surface)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:.3e} exceeds stability limit {limit:.3e}")
    # Each stage is written into its fresh velocity array, and rebinding x
    # frees the stage before it, so one stage field is held at a time.
    r = surface.radius_field
    quarter = math.exp(0.25 * dt)
    x = _stage(x, r, dt, quarter)  # r1
    x = _stage(_velocity(GraphSurface(background, x)), x, dt, quarter)  # r2
    x = _stage(_velocity(GraphSurface(background, x)), x, dt, quarter)  # E(r2)
    x *= math.exp(-0.5 * dt) / 3.0
    x += np.multiply(r, 2.0 / 3.0 * quarter)  # r3
    x = _stage(_velocity(GraphSurface(background, x)), x, dt, quarter)  # r_new
    new_surface = GraphSurface(background, x)
    _check_mean_convex(new_surface)  # mean-convexity must survive the step
    return FlowState(state.time + dt, new_surface, state.step_count + 1)


def run_flow(initial, t_end, sample_interval):
    """Drive a flow to t_end, sampling functionals at fixed intervals.

    Constant graphs take the exact ODE path directly between sample
    times; all other graphs take explicit steps of at most
    ``cfl_limit(surface)``.  A time within a slack of a sample time has
    reached it: 1e-12, or a millionth of the first sample gap if that is
    smaller, so a complete trace ends at t_end even where t_end is at or
    below 1e-12.  On a flow abort the partial trace is returned with
    ``complete`` False.
    """
    _check_finite("t_end", t_end)
    _check_finite("sample_interval", sample_interval)
    if not star_shaped_check(initial, STAR_FLOOR):
        raise FlowSingularError(f"initial surface fails the star-shape floor {STAR_FLOOR}")

    state = FlowState(0.0, initial, 0)
    rows = [_sample_row(state)]
    ode_path = initial.is_constant
    abort_reason = None

    sample_index = 1
    next_sample = min(sample_interval, t_end)
    slack = min(1e-12, 1e-6 * next_sample)
    try:
        while state.time < t_end - slack:
            if ode_path:
                state = step_slice_ode(state, next_sample - state.time)
            else:
                dt = min(cfl_limit(state.surface), next_sample - state.time)
                state = step_graph_pde(state, dt)
            if state.time >= next_sample - slack:
                rows.append(_sample_row(state))
                sample_index += 1
                next_sample = min(sample_index * sample_interval, t_end)
    except FlowSingularError as err:
        abort_reason = str(err)

    return FlowTrace(data=np.array(rows, dtype=float), abort_reason=abort_reason)
