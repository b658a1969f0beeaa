"""Inverse mean curvature flow of radial graphs.

Constant graphs evolve by the exact radial ODE rho(t) = rho(0) e^{t/2},
with no integration error.  Non-constant graphs evolve the radius field
by the graphical flow equation

    dr/dt = v(r) = graph_factor / H,

stepped under a parabolic CFL restriction by an integrating-factor
third-order stabilized Runge-Kutta scheme on u = e^{-t/2} r, whose
right-hand side is e^{-t/2} k(r) with k(r) = v(r) - r/2.  A step is at
most F times the CFL bound, and its stage count s follows the step: a
degree-s stability polynomial damped on a real interval that grows like
s^2, as in DUMKA3 (Medovikov 1998) and ROCK4 (Abdulle 2002), so a step's
cost grows only like the square root of its length.  The slice mode r' = r/2, which a
constant graph follows and which dominates every late flow, is integrated
exactly, so the step is bounded by stability and the error of the deviation
from a slice, not by the growth of r.  Traces record scalar functionals,
not surfaces, at fixed sample times.
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

# CFL is the share of its grid's own stability limit that a step takes:
# cfl_limit returns CFL times the grid's stable_step, the SSPRK(4,3) limit
# near a slice in units of the bound, times the bound.  So the bound puts the
# largest eigenvalue of the linearized speed at lambda = 5.15 CFL / bound,
# and a step of dt takes the smallest row of _ROWS whose damped interval
# beta_s covers 5.15 dt / bound: lambda dt <= CFL beta_s.  A step is at most
# F times the bound, which s = 8 covers and s = 7 does not (5.15 F = 23.69,
# 0.93 of beta_8 = 25.57, against beta_7 = 19.18), so every full step runs the
# last row.  F = beta_8 / 5.15 = 4.96, all of that row, is stable, but on the
# 16^2 torus its full step is 0.2 of a time unit and the area's time error
# breaks its order-2 convergence in space (the order, at least 1.8, reads
# 1.782 at F = 4.96, 1.798 at 4.8 and 1.808 at 4.7); F keeps a tenth below
# the largest such value that holds.
# The share holds off a slice too: 64^2 tori with two-axis modes and sphere
# 128 with cos 3 theta or cos 5 theta modes, min H / max H down to 0.43, flow
# smoothly where every step's lambda dt reaches its beta_s (CFL 1.0, F 4.96),
# and the spheres break by 1.05 of that and the tori by 1.1, so the share
# leaves 1/CFL of headroom.  At this share each trace column's time error is
# at most 0.034 of its spatial error.  A step aborts where H is at or below
# H_FLOOR, and a flow does not start where the radial alignment drops below
# STAR_FLOOR.
CFL = 0.6
F = 4.6
H_FLOOR = 1e-6
STAR_FLOOR = 0.1

# The interval [-5.15, 0] of SSPRK(4,3), in whose units stable_step is
# measured.
_SSP_INTERVAL = 5.15

# One row per stage count s = 3, ..., 8, frozen from tests/step_table.py:
# (beta_s, (a, b, gamma), substeps).  Each row's stability polynomial
# R = (1 + a z + b z^2) prod (1 + h z) over its substeps h has R = 1 + z +
# z^2/2 + z^3/6 + O(z^4), |R| <= 1 on [-beta_s, 0] and max |R| from 0.90
# (s = 3) down to 0.49 (s = 8) on [-beta_s, -0.05 beta_s], with beta_s 0.85 of
# the largest such interval.  The complex pair's factor is a two-stage group
# whose middle stage sits at gamma, solved so that sum b c^2 = 1/3, which
# makes the step third order for a nonlinear right-hand side; the real roots
# follow as Euler substeps of length h, the stiffest first.
_ROWS = (
    (2.135833168029785,
     (0.3734617067292006, 0.2660119396638871, 0.9245741122624592),
     (0.6265382932707997,)),
    (5.123170852661133,
     (0.2923172277920086, 0.19495862140011616, 1.0098009445199474),
     (0.18943270613813573, 0.5182500660698556)),
    (8.955187201499939,
     (0.26533086029525477, 0.16623163956780715, 1.0507071086303894),
     (0.10925677796925794, 0.1475464716881281, 0.47786589004736)),
    (13.639906167984009,
     (0.24956204256131942, 0.14932143766373077, 1.0768978722974154),
     (0.07460082947784082, 0.0888232377682251, 0.1344249579416686, 0.45258893225094765)),
    (19.177014851570128,
     (0.24433977212528524, 0.14134093958857138, 1.0900383579441408),
     (0.05290019375408939, 0.05954901246580189, 0.07715638194916223, 0.12416668170039515,
      0.44188795800526587)),
    (25.566250610351563,
     (0.24168015678963012, 0.1365168878358362, 1.0980351394884504),
     (0.03953171987727444, 0.04311201247887353, 0.05180604991328851, 0.07053383066356808,
      0.11783849723808208, 0.4354977330392859)),
)

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


@dataclass(frozen=True, eq=False)
class FlowState:
    """One instant of a flow: time, surface, and accepted step count."""

    time: float
    surface: GraphSurface
    step_count: int


@dataclass(eq=False)
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


def _check_finite(name, value):
    """Raise ValueError unless value is finite and positive.

    Each comparison is False on NaN, so NaN is rejected too.  An infinite
    t_end, or a step that is not positive, would never end a flow.
    """
    if not (value < math.inf and value > 0.0):
        raise ValueError(f"{name} must be finite and positive")


def cfl_limit(surface):
    """Largest stable explicit time step for the graphical flow.

    The speed is v = graph_factor / H, and the second-derivative term of H
    is -r_tt / (graph_factor gamma_tt), with gamma_tt = r^2 the metric of
    one grid direction.  So a perturbation moves the speed by
    delta v = delta r_tt / (H^2 gamma_tt): the graph factor cancels, and
    the linearized operator diffuses with coefficient 1 / (H r)^2 per unit
    grid spacing squared.  The limit is CFL times the grid's stable_step
    times min over nodes of (spacing r H)^2, in that operand order,
    computed on every call; ``step_graph_pde`` makes the one call of each
    step.  stable_step is the grid's measured SSPRK(4,3) limit in units of
    the bound: 0.645 on the torus, which diffuses along two grid axes, and
    1.063 on the axisymmetric sphere, which diffuses along one.  So CFL is
    the share of its own limit that every grid steps at.  A point-grid
    surface is a slice: it has no spacing and steps by ``step_slice_ode``.
    """
    grid = surface.background.base.grid
    if isinstance(grid, PointGrid):
        raise ValueError("a point-grid surface is a slice; it steps by step_slice_ode")
    # (spacing r H)^2 in that operand order, in one array.
    local = np.multiply(grid.spacing, surface.radius_field)
    local *= surface.geometry.mean_curvature
    np.square(local, out=local)
    # argmin finds the first NaN, as the reduction propagates it, at about a
    # third of its cost; a square holds no -0, so the bits agree.
    return CFL * grid.stable_step * local.item(local.argmin())


def step_slice_ode(state, dt):
    """Advance a constant graph by the exact slice solution over a finite,
    positive dt."""
    if not state.surface.is_constant:
        raise ValueError("slice ODE step requires a constant graph")
    _check_finite("dt", dt)
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


def _twice_k(surface):
    """2 k(r) = 2 v(r) - r of a surface, written into its fresh velocity
    array: doubling is exact, so this is 2k to the bit, with no array for
    r / 2."""
    k = _velocity(surface)
    k *= 2.0
    k -= surface.radius_field
    return k


def step_graph_pde(state, dt):
    """One integrating-factor stabilized third-order step of the graphical
    flow equation.

    The requested dt must be finite and positive, and is checked before any
    work; the step takes min(dt, F cfl_limit) and returns the state at the
    time it reached.  It runs the smallest row of _ROWS whose damped
    interval covers the step (see CFL), in s stages on u = e^{-t/2} r, with
    u = r at the step's start; a full step, F cfl_limit, runs the last
    row, s = 8.  A stage at time c dt is evaluated at r = e^{c dt/2} u,
    where the right-hand side is e^{-c dt/2} k(r).  The
    row's pair group takes the stages at c = 0, the input surface's own,
    and c = gamma, and adds w1 = a - b / gamma and w2 = b / gamma of them;
    each substep h is an Euler step from the time the groups before it
    reached.  So a step takes s geometry evaluations, and r_new =
    e^{dt/2} u: a constant graph, whose k rounds to 0, grows by e^{dt/2} as
    ``step_slice_ode`` grows it.  The exponentials are scalar libm calls.
    Every stage is a validated GraphSurface whose mean curvature is checked
    against the floor.  At most four fields are held at a time, each
    written in place: u, a stage, the stage's 2k and the pair's first 2k.
    """
    _check_finite("dt", dt)
    surface = state.surface
    background = surface.background
    first = _twice_k(surface)  # the floor check precedes the bound
    limit = cfl_limit(surface)
    dt = min(dt, F * limit)
    need = _SSP_INTERVAL * dt / limit
    index = next(i for i, row in enumerate(_ROWS) if row[0] >= need)
    _, (a, b, gamma), substeps = _ROWS[index]
    half = 0.5 * dt
    u = surface.radius_field
    # The pair: a stage at c = gamma from u + gamma dt k1, then
    # u + dt (w1 k1 + w2 k2) at c = a.
    grown = math.exp(gamma * half)
    stage = np.multiply(first, gamma * half)
    stage += u
    stage *= grown
    k = _twice_k(GraphSurface(background, stage))
    first *= half * (a - b / gamma)
    first += u
    k *= half * b / (gamma * grown)
    k += first
    u, c = k, a
    del first  # so that each substep holds u, its stage and the stage's 2k
    for h in substeps:
        grown = math.exp(c * half)
        stage = np.multiply(u, grown)
        k = _twice_k(GraphSurface(background, stage))
        k *= h * half / grown
        k += u
        u, c = k, c + h
    u *= math.exp(half)
    new_surface = GraphSurface(background, u)
    _check_mean_convex(new_surface)  # mean-convexity must survive the step
    return FlowState(state.time + dt, new_surface, state.step_count + 1)


def run_flow(initial, t_end, sample_interval):
    """Drive a flow to t_end, sampling functionals at fixed intervals.

    Constant graphs take the exact ODE path directly between sample
    times; all other graphs request a step to the next sample time, which
    ``step_graph_pde`` cuts to F times its stability limit.  A time within a slack
    of a sample time has reached it: 1e-12, or a millionth of the first
    sample gap if that is smaller, so a complete trace ends at t_end even
    where t_end is at or below 1e-12.  On a flow abort the partial trace is
    returned with ``complete`` False.
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
                state = step_graph_pde(state, next_sample - state.time)
            if state.time >= next_sample - slack:
                rows.append(_sample_row(state))
                sample_index += 1
                next_sample = min(sample_index * sample_interval, t_end)
    except FlowSingularError as err:
        abort_reason = str(err)

    return FlowTrace(data=np.array(rows, dtype=float), abort_reason=abort_reason)
