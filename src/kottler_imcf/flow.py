"""Inverse mean curvature flow of radial graphs.

Constant graphs evolve by the exact radial ODE rho(t) = rho(0) e^{t/2},
with no integration error.  Non-constant graphs evolve the radius field
by the graphical flow equation

    dr/dt = graph_factor / H,

stepped with an explicit midpoint (RK2) scheme under a parabolic CFL
restriction.  Traces record scalar functionals, not surfaces, at fixed
sample times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import PointGrid
from .errors import FlowSingularError, NoiseFloorError
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
    "asymptotic_rate_fit",
]

# The step fraction of the CFL bound; a step aborts where H is at or below
# H_FLOOR, and a flow does not start where the radial alignment drops below
# STAR_FLOOR.
CFL = 0.2
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

    data: np.ndarray  # shape (n_samples, len(TRACE_COLUMNS))
    abort_reason: str | None = None

    @property
    def complete(self):
        return self.abort_reason is None

    def column(self, name):
        return self.data[:, TRACE_COLUMNS.index(name)]

    @property
    def times(self):
        return self.column("t")

    @property
    def n_samples(self):
        return self.data.shape[0]


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

    The diffusion coefficient of the linearized operator scales like
    graph_factor^2 / (H^2 lambda^2) per unit grid spacing squared, with
    lambda = r the metric scale of one grid cell.  The unscaled bound is
    computed once per geometry and kept in its memo (SurfaceGeometry.derived);
    every call returns CFL times it.  A point-grid surface is a slice: it
    has no spacing and steps by ``step_slice_ode``.
    """
    g = surface.geometry
    memo = g.derived
    bound = memo.get("cfl_bound")
    if bound is None:
        grid = surface.background.base.grid
        if isinstance(grid, PointGrid):
            raise ValueError("a point-grid surface is a slice; it steps by step_slice_ode")
        # (spacing r)^2 H^2 / graph_factor^2 in that operand order, in two arrays.
        local = np.multiply(grid.spacing, surface.radius_field)
        np.square(local, out=local)
        scratch = np.square(g.mean_curvature)
        local *= scratch
        local /= np.square(g.graph_factor, out=scratch)
        # argmin finds the first NaN, as the reduction propagates it, at about a
        # third of its cost; a quotient of squares holds no -0, so the bits agree.
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


def step_graph_pde(state, dt):
    """One explicit midpoint step of the graphical flow equation."""
    surface = state.surface
    v1 = _velocity(surface)
    limit = cfl_limit(surface)
    # The limit is checked before dt: where it rounds to 0 (a graph factor
    # whose square overflows), so does run_flow's dt, and the flow is singular.
    if not limit > 0.0:
        raise FlowSingularError(f"stability limit {limit:.3e} is not positive")
    _check_finite("dt", dt)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:.3e} exceeds stability limit {limit:.3e}")
    # Each velocity is a fresh array, so it becomes the next radius field in place.
    r = surface.radius_field
    v1 *= 0.5 * dt
    half = GraphSurface(surface.background, np.add(r, v1, out=v1))
    v2 = _velocity(half)
    v2 *= dt
    new_surface = GraphSurface(surface.background, np.add(r, v2, out=v2))
    _check_mean_convex(new_surface)  # mean-convexity must survive the step
    return FlowState(state.time + dt, new_surface, state.step_count + 1)


def run_flow(initial, t_end, sample_interval):
    """Drive a flow to t_end, sampling functionals at fixed intervals.

    Constant graphs take the exact ODE path directly between sample
    times; all other graphs take explicit steps of at most
    ``cfl_limit(surface)``.  On a flow abort the partial trace is
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
    try:
        while state.time < t_end - 1e-12:
            if ode_path:
                state = step_slice_ode(state, next_sample - state.time)
            else:
                dt = min(cfl_limit(state.surface), next_sample - state.time)
                state = step_graph_pde(state, dt)
            if state.time >= next_sample - 1e-12:
                rows.append(_sample_row(state))
                sample_index += 1
                next_sample = min(sample_index * sample_interval, t_end)
    except FlowSingularError as err:
        abort_reason = str(err)

    return FlowTrace(data=np.array(rows, dtype=float), abort_reason=abort_reason)


_FIT_TARGETS = {"min_align": 1.0, "min_H": 2.0, "max_H": 2.0}


def asymptotic_rate_fit(trace, column, model="exp"):
    """Fit the late-time decay rate of a trace column toward its limit.

    The deviation |column - target| is fitted in log space against
    ``exp`` (A e^{rate t}) or ``t_exp`` (A t e^{rate t}) over the last
    three quarters of the samples (at least 8); the discarded head skips
    the initial transient while the window stays wide enough to separate
    the two models.  Returns (rate, amplitude, residual) with residual
    the RMS log misfit.  Raises NoiseFloorError when the deviation sits
    at round-off, where a fit is meaningless.
    """
    if column not in _FIT_TARGETS:
        raise ValueError(f"no fit target for column {column!r}")
    target = _FIT_TARGETS[column]
    t = trace.times
    dev = np.abs(trace.column(column) - target)
    n_fit = max(8, 3 * len(t) // 4)
    if len(t) < n_fit:
        raise ValueError(f"need at least {n_fit} samples, got {len(t)}")
    t = t[-n_fit:]
    dev = dev[-n_fit:]
    scale = max(abs(target), 1.0)
    if np.max(dev) <= 1e-12 * scale:
        raise NoiseFloorError(
            f"column {column!r} deviation at round-off ({np.max(dev):.3e})"
        )
    if np.any(dev <= 0.0) or np.any(t <= 0.0):
        raise NoiseFloorError(f"column {column!r} deviation touches zero in the window")
    y = np.log(dev)
    if model == "t_exp":
        y = y - np.log(t)
    elif model != "exp":
        raise ValueError(f"unknown model {model!r}")
    rate, log_amp = np.polyfit(t, y, 1)
    residual = float(np.sqrt(np.mean((np.polyval((rate, log_amp), t) - y) ** 2)))
    return float(rate), float(np.exp(log_amp)), residual
