"""Scenario-driven command line front end.

A scenario lives in a flat key = value config file with sections
[background], [surface], [flow], and [audit].  Subcommands:

    background   print horizon and bound data for the configured background
    flow         run the flow, write the trace CSV and audit JSON
    audit        run surface and background checks without a flow
    chmass       print the boundary-mass convergence table

Exit codes: 0 all checks pass, 1 check failure, 2 usage or config error
or an unusable --out, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from operator import attrgetter

import numpy as np

from . import background as bg
from .errors import (
    ConfigError,
    ExteriorError,
    FlowSingularError,
    HorizonError,
    InvalidBaseError,
    KottlerError,
)
from .flow import TRACE_COLUMNS, run_flow
from .functionals import (
    asymptotic_limit,
    evaluate_report,
    penrose_conjecture_deficit,
    reverse_penrose_deficit,
    surface_gravity_bound_deficit,
)
from .surfaces import GraphSurface
from .base import MIN_RESOLUTION

__all__ = [
    "CheckResult",
    "AuditResult",
    "parse_config",
    "build_initial_surface",
    "run_scenario",
    "emit_trace_csv",
    "emit_audit_json",
    "main",
]


def _require(parse, test, message):
    """A parser: `parse`, then ValueError(message) unless `test` holds."""
    def checked(text):
        value = parse(text)
        if not test(value):
            raise ValueError(message)
        return value

    return checked


def _list(item):
    return _require(lambda text: tuple(item(s.strip()) for s in text.split(",") if s.strip()),
                    bool, "must list at least one value")


def _within(parse, low, high):
    return _require(parse, lambda value: low <= value <= high, f"must lie in [{low:g}, {high:g}]")


_finite = _require(float, np.isfinite, "must be finite")
_positive = _require(_finite, lambda value: value > 0.0, "must be positive")
_nonnegative = _require(_finite, lambda value: value >= 0.0, "must be nonnegative")
_sign = _require(int, lambda value: value in (-1, 0, 1), "must be -1, 0 or +1")
_name = _require(str, bool, "must not be empty")
# Integer bounds keep genus and modes inside float and C-long range; radii
# in [1e-50, 1e50] keep rho**2 and the Richardson ratio (r2/r1)**3 finite.
_genus = _within(int, 0, 10**6)
_modes = _list(_within(int, -10**6, 10**6))
_resolution = _require(lambda text: text if text == "point" else int(text),
                       lambda value: value == "point" or value >= MIN_RESOLUTION,
                       f"must be an integer >= {MIN_RESOLUTION} or 'point'")
_radii = _require(_list(_within(_positive, 1e-50, 1e50)),
                  lambda values: len(set(values)) == len(values), "radii must be distinct")


def _key(section, parse, default=None, key=None):
    return field(default=default, metadata={"section": section, "parse": parse, "key": key})


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario, as parse_config builds and validates it.

    Each field is one config key, declared with its [section] (None for
    the leading `id`), its parser, which rejects a malformed or
    out-of-range value with ValueError, the default used when the key is
    absent, and its key name where that differs from the field name.
    """

    scenario_id: str = _key(None, _name, "scenario", key="id")
    curvature_sign: int = _key("background", _sign)  # required
    genus: int = _key("background", _genus)  # default set by the curvature sign
    mass: float | None = _key("background", _finite)
    horizon_radius: float | None = _key("background", _positive)
    # int or "point"; default set by the curvature sign
    resolution: object = _key("background", _resolution)
    base_area: float | None = _key("background", _positive, key="area")
    radius: float | None = _key("surface", _positive)
    amplitude: float = _key("surface", _nonnegative, 0.0)
    mode: tuple = _key("surface", _modes, ())  # one per grid axis; () takes the grid's defaults
    t_end: float | None = _key("flow", _positive)
    sample_interval: float = _key("flow", _positive, 0.25)
    rho_eval: tuple = _key("audit", _radii, (10.0, 20.0, 40.0, 80.0))

    @cached_property
    def background(self):
        """The scenario's background, built once: parse_config's checks build it
        first, and every command reads that one."""
        return bg.make_background(self.curvature_sign, self.genus, self.resolution,
                                  mass=self.mass, horizon_rho=self.horizon_radius,
                                  area=self.base_area)


_KEYS = {(f.metadata["section"], f.metadata["key"] or f.name): f
         for f in fields(ScenarioConfig)}
_SECTIONS = {section for section, _ in _KEYS}


def parse_config(text):
    """Parse and validate a scenario config document: the one way to build a scenario."""
    section = None
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        where = f"in section [{section}]" if section else "before any section"
        spec = _KEYS.get((section, key))
        if spec is None:
            raise ConfigError(f"unknown key {key!r} {where}", lineno)
        if spec.name in values:
            raise ConfigError(f"duplicate key {key!r} {where}", lineno)
        try:
            values[spec.name] = spec.metadata["parse"](value.strip())
        except ValueError as err:
            raise ConfigError(f"key {key!r}: {err}", lineno) from None
        lines[spec.name] = lineno
    sign = values.get("curvature_sign")
    if sign is None:
        raise ConfigError("missing required key 'curvature_sign' in [background]")
    values.setdefault("genus", {1: 0, 0: 1, -1: 2}[sign])
    values.setdefault("resolution", "point" if sign == -1 else 64)
    config = ScenarioConfig(**values)
    _validate(config, lines)
    return config


# Far above any shipped flow (at most 48 rows), and low enough that a flow
# always ends: 10,000 rows of a slice flow take about 1.7 s on a 2-core VM.
_MAX_SAMPLE_ROWS = 100_000


def _validate(config, lines):
    """The rules that involve more than one key."""
    def fail(message, key):
        raise ConfigError(message, lines.get(key))

    if (config.mass is None) == (config.horizon_radius is None):
        fail("give exactly one of 'mass', 'horizon_radius' in [background]",
             "mass" if "mass" in lines else "horizon_radius")
    # The library guards, on the scenario's background, whose grid the [surface] rules read.
    try:
        background = config.background
    except InvalidBaseError as err:
        key = {"grid_resolution": "resolution"}.get(err.argument, err.argument)
        fail(f"key {key!r}: {err}", _KEYS["background", key].name)
    except HorizonError as err:
        key = "mass" if config.mass is not None else "horizon_radius"
        fail(f"key {key!r}: {err}", key)
    grid, rho_m = background.base.grid, background.horizon_rho
    modes = ["mode"] if "mode" in lines else []
    surface = (["amplitude"] if config.amplitude != 0.0 else []) + modes
    flow = [f.name for f in fields(config) if f.metadata["section"] == "flow" and f.name in lines]
    for section, given in (("surface", surface), ("flow", flow)):
        if config.radius is None and given:
            fail(f"[{section}] key(s) {', '.join(given)} need a radius", given[0])
    if config.t_end is None and flow:
        fail(f"[flow] key(s) {', '.join(flow)} have no effect without t_end", flow[0])
    rows = 0.0 if config.t_end is None else config.t_end / config.sample_interval
    if rows > _MAX_SAMPLE_ROWS:
        at = "sample_interval" if "sample_interval" in lines else "t_end"
        fail(f"key 'sample_interval': t_end / sample_interval = {rows:.3g} sample rows, "
             f"above {_MAX_SAMPLE_ROWS}", at)
    if config.radius is not None:
        if config.radius <= rho_m:
            fail(f"radius {config.radius} must exceed horizon radius {rho_m:.6g}", "radius")
        if config.amplitude >= config.radius - rho_m:
            fail(
                f"amplitude {config.amplitude} must stay below radius - horizon "
                f"= {config.radius - rho_m:.6g}",
                "amplitude",
            )
        if modes and config.amplitude == 0.0:
            fail("[surface] key(s) mode have no effect when amplitude is 0", "mode")
        if modes and len(config.mode) != grid.mode_axes:
            fail(f"[surface] key(s) mode have no effect as this grid reads {grid.mode_axes} "
                 f"mode number(s), one per axis, not {len(config.mode)}", "mode")
        if config.amplitude != 0.0:
            try:
                grid.mode_field(*config.mode)
            except ValueError as err:
                fail(f"[surface] key(s) {', '.join(surface)} have no effect as {err}", "amplitude")


def build_initial_surface(config, background):
    """The initial graph of a config that parse_config validated."""
    if config.radius is None:
        raise ConfigError("missing required key 'radius' in [surface]")
    if config.amplitude == 0.0:
        return GraphSurface(background, config.radius)
    unit = background.base.grid.mode_field(*config.mode)
    return GraphSurface(background, config.radius + config.amplitude * unit)


# -- audit checks -----------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One audit check of plain Python values: `passed` is its rule on value, bound, tolerance."""

    name: str
    value: float
    bound: float
    tolerance: float
    passed: bool
    tag: str


@dataclass
class AuditResult:
    scenario_id: str
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def _in_window(value, low, width):
    high = low + width
    slack = 1e-12 * max(1.0, high)
    return low - slack <= value <= high + slack


# How each rule decides `passed` from (value, bound, tolerance); a NaN
# value fails every rule.
_RULES = {
    "abs": lambda value, bound, tol: abs(value - bound) <= tol,
    "lower": lambda value, bound, tol: value >= bound - tol,
    "upper": lambda value, bound, tol: value <= bound + tol,
    "above": lambda value, bound, tol: value > bound + tol,
    "window": _in_window,
}


def _check(name, value, tag, rule, tolerance, bound=0.0):
    value, bound, tolerance = float(value), float(bound), float(tolerance)
    passed = _RULES[rule](value, bound, tolerance)
    return CheckResult(name, value, bound, tolerance, passed, tag)


def _radius_window(background):
    """The two spherical horizon radii at this surface gravity, or None."""
    if background.curvature_sign == 1 and background.surface_gravity >= np.sqrt(3.0):
        return bg.radius_bounds(background.surface_gravity)
    return None


class _Run:
    """What one run knows, for the checks to read: its background, initial
    surface and its report, whether a flow runs and then its trace, and the
    extrapolated mass of `chmass`.  Each shared quantity is computed once.
    """

    def __init__(self, background, surface=None, flow=False, extrapolated=None):
        self.background, self.k = background, background.curvature_sign
        self.trace, self.extrapolated = None, extrapolated
        self.audit, self.flow = extrapolated is None, flow  # `audit` and `flow`, not `chmass`
        self.slice = surface is not None and surface.is_constant
        self.graph = surface is not None and not surface.is_constant
        self.report = None if surface is None else evaluate_report(surface)
        self.q_inf = asymptotic_limit(background.base)
        window = _radius_window(background)
        self.window_areas = None if window is None else [
            background.base.area * rho**2 for rho in window]


_audit, _slice, _graph, _flow = map(attrgetter, ("audit", "slice", "graph", "flow"))
# The static residual's exterior radii over the horizon radius: a golden-ratio
# lattice, deterministic.
_EXTERIOR = 1.05 + 20.0 * np.mod((np.arange(100) + 1) * (0.5 * (np.sqrt(5.0) - 1.0)), 1.0)


def _worst_step(values, reduce):
    """`reduce` (np.max or np.min) of the changes between samples; 0 for one sample."""
    return float(reduce(np.diff(values))) if len(values) > 1 else 0.0


# One audit check, applied to a run where `when(run)` holds.  `value` is a
# function of the run; `tolerance` and `bound` are each a number or one.
_Spec = namedtuple("_Spec", "name when rule tolerance value tag bound", defaults=(0.0,))


# Every check, in output order: background, surface, flow, then `chmass`.
_CHECKS = (
    _Spec("surface_gravity_bound", _audit, "abs", 1e-12,
          lambda run: surface_gravity_bound_deficit(run.background),
          "Euler characteristic bound on surface gravity, equality on models"),
    _Spec("penrose_conjecture", _audit, "abs", 1e-12,
          lambda run: penrose_conjecture_deficit(run.background),
          "conjectured mass lower bound by horizon area, equality on models"),
    _Spec("mass_upper_bound", _audit, "abs", 1e-12,
          lambda run: bg.mass_upper_bound(run.background) - run.background.mass,
          "horizon-data mass upper bound, equality on models"),
    _Spec("reverse_penrose", lambda run: run.audit and run.k == -1 and run.background.mass >= 0,
          "abs", 1e-12, lambda run: reverse_penrose_deficit(run.background),
          "mass upper bound by horizon area on hyperbolic bases"),
    _Spec("area_window", lambda run: run.audit and run.window_areas is not None, "window",
          lambda run: run.window_areas[1] - run.window_areas[0],
          lambda run: run.background.horizon_area,
          "horizon area within the surface-gravity radius window",
          lambda run: run.window_areas[0]),
    _Spec("static_residual", _audit, "abs", 1e-9, lambda run: max(
              bg.static_residual(run.background, run.background.horizon_rho * _EXTERIOR)),
          "static vacuum equations hold on the background"),
    _Spec("q_slice_value", _slice, "abs", 1e-10, lambda run: run.report.q_value - run.q_inf,
          "monotone functional equals its slice constant"),
    _Spec("minkowski_deficit", _slice, "abs", 1e-10, lambda run: run.report.minkowski_deficit,
          "Minkowski inequality equality case on slices"),
    _Spec("hk_gap", _slice, "abs", 1e-10, lambda run: run.report.hk_gap,
          "Heintze-Karcher equality case on slices"),
    _Spec("hawking_mass_slice", lambda run: run.slice and run.k == 1, "abs", 1e-10,
          lambda run: run.report.hawking_mass - run.background.mass,
          "Hawking mass recovers the mass parameter"),
    _Spec("minkowski_deficit", _graph, "lower", 1e-6, lambda run: run.report.minkowski_deficit,
          "Minkowski inequality"),
    _Spec("hk_gap", _graph, "lower", 1e-6, lambda run: run.report.hk_gap,
          "Heintze-Karcher inequality"),
    _Spec("area_growth", _flow, "abs", lambda run: 1e-10 if run.slice else 1e-4,
          lambda run: np.max(np.abs(run.trace.column("area") / (
              np.array([math.exp(t) for t in run.trace.times])
              * run.trace.column("area")[0]) - 1.0)),
          "exponential area growth"),
    _Spec("q_constant", lambda run: run.flow and run.slice, "abs", 1e-10,
          lambda run: np.max(np.abs(run.trace.column("Q") - run.trace.column("Q")[0])),
          "monotone functional constant on slice flows"),
    _Spec("q_monotone", lambda run: run.flow and run.graph, "upper",
          lambda run: 1e-6 * max(1.0, abs(run.trace.column("Q")[0])),
          lambda run: _worst_step(run.trace.column("Q"), np.max),
          "monotone functional non-increasing along the flow"),
    _Spec("q_limit", _flow, "lower", 1e-6, lambda run: np.min(run.trace.column("Q")) - run.q_inf,
          "monotone functional stays above its limit"),
    _Spec("mean_convex", _flow, "above", 0.0, lambda run: np.min(run.trace.column("min_H")),
          "mean-convexity preserved"),
    _Spec("alignment_floor", _flow, "lower", 0.0,
          lambda run: np.min(run.trace.column("min_align")),
          "star-shapedness preserved", lambda run: run.trace.column("min_align")[0] - 0.05),
    _Spec("hawking_monotone", lambda run: run.flow and run.k == 1, "lower", 1e-6,
          lambda run: _worst_step(run.trace.column("hawking_mass"), np.min),
          "Hawking mass non-decreasing along the flow"),
    _Spec("flow_complete", _flow, "lower", 0.0, lambda run: float(run.trace.complete),
          "flow reached its final time", 1.0),
    _Spec("chmass_extrapolated", lambda run: not run.audit, "abs",
          lambda run: 1e-3 * max(1.0, abs(run.background.mass)),
          lambda run: run.extrapolated - run.background.mass,
          "boundary mass integral converges to the mass parameter"),
)


def _evaluate(run):
    """The check of every row that applies to this run, in table order."""
    checks = []
    for name, when, rule, tolerance, value, tag, bound in _CHECKS:
        if when(run):
            tolerance = tolerance(run) if callable(tolerance) else tolerance
            bound = bound(run) if callable(bound) else bound
            checks.append(_check(name, value(run), tag, rule, tolerance, bound))
    return checks


def run_scenario(config, with_flow=True):
    """Build the scenario, optionally run its flow, and evaluate every check that applies."""
    background = config.background
    surface = None if config.radius is None else build_initial_surface(config, background)
    run = _Run(background, surface,
               flow=surface is not None and with_flow and config.t_end is not None)
    if run.flow:
        run.trace = run_flow(surface, config.t_end, config.sample_interval)
    return run.trace, AuditResult(config.scenario_id, _evaluate(run))


# -- serialization ----------------------------------------------------------


def emit_trace_csv(trace, path):
    """Write a trace as CSV with full-precision floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in trace.data:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def emit_audit_json(result, path):
    """Write an audit result as deterministic JSON."""
    payload = {"scenario": result.scenario_id, "passed": result.passed,
               "checks": [asdict(c) for c in result.checks]}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# -- subcommands ------------------------------------------------------------


def _load_config(args):
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {args.config}: {err}") from None
    return parse_config(text)


def _report(result, quiet):
    for c in result.checks:
        if not (quiet and c.passed):
            status = "PASS" if c.passed else "FAIL"
            print(f"{status} {c.name}: value={c.value:.6e} tol={c.tolerance:.1e} ({c.tag})")
    if not quiet or not result.passed:
        print(f"scenario {result.scenario_id}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


@contextmanager
def _out_errors():
    """An OSError of --out's directory or files, as one line naming the path (exit 2)."""
    try:
        yield
    except OSError as err:
        raise KottlerError(f"cannot write --out {err.filename}: {err.strerror}") from None


def _make_out(args):
    """Make --out's directory: once per run, before any work that it would lose."""
    if args.out is not None:
        with _out_errors():
            os.makedirs(args.out, exist_ok=True)


def _write_outputs(args, trace, result):
    if args.out is None:
        return
    stem = os.path.join(args.out, result.scenario_id)
    with _out_errors():
        if trace is not None:
            emit_trace_csv(trace, stem + "_trace.csv")
        emit_audit_json(result, stem + "_audit.json")


def _cmd_background(config, args):
    background = config.background
    print(f"curvature_sign  {background.curvature_sign:+d}")
    print(f"genus           {background.base.genus}")
    print(f"base_area       {background.base.area:.17g}")
    print(f"mass            {background.mass:.17g}")
    print(f"horizon_radius  {background.horizon_rho:.17g}")
    print(f"horizon_area    {background.horizon_area:.17g}")
    print(f"surface_gravity {background.surface_gravity:.17g}")
    print(f"hk_constant     {background.hk_constant:.17g}")
    window = _radius_window(background)
    if window is not None:
        print(f"radius_window   [{window[0]:.17g}, {window[1]:.17g}]")
    return 0


def _cmd_flow_or_audit(config, args):
    _make_out(args)
    trace, result = run_scenario(config, with_flow=args.command == "flow")
    _write_outputs(args, trace, result)
    code = _report(result, args.quiet)
    if trace is not None and not trace.complete:
        print(f"flow aborted: {trace.abort_reason}", file=sys.stderr)
        return 3
    return code


def _cmd_chmass(config, args):
    background = config.background
    try:
        estimates = [bg.ch_mass_integral(background, rho) for rho in config.rho_eval]
    except ExteriorError as err:
        raise ConfigError(f"key 'rho_eval': {err}") from None
    _make_out(args)
    print(f"{'rho_eval':>12}  {'mass_estimate':>22}  {'abs_error':>12}")
    for rho, est in zip(config.rho_eval, estimates):
        print(f"{rho:>12.6g}  {est:>22.17g}  {abs(est - background.mass):>12.3e}")
    extrap = bg.richardson_mass(background, config.rho_eval)
    print(f"{'extrapolated':>12}  {extrap:>22.17g}  {abs(extrap - background.mass):>12.3e}")
    result = AuditResult(config.scenario_id, _evaluate(_Run(background, extrapolated=extrap)))
    _write_outputs(args, None, result)
    return 0 if result.passed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kottler-imcf",
        description="Inverse mean curvature flow and inequality audits "
        "in Kottler black-hole backgrounds",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("background", _cmd_background),
        ("flow", _cmd_flow_or_audit),
        ("audit", _cmd_flow_or_audit),
        ("chmass", _cmd_chmass),
    ):
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", required=True)
        p.add_argument("--quiet", action="store_true")
        if name != "background":  # background writes no file and runs no check
            p.add_argument("--out", default=None)
        p.set_defaults(func=func)
    args = parser.parse_args(argv)
    try:
        return args.func(_load_config(args), args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (FlowSingularError, ExteriorError, HorizonError) as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return 3
    except KottlerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
