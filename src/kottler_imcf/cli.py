"""Scenario-driven command line front end.

A scenario lives in a flat key = value config file with sections
[background], [surface], [flow], and [audit].  Subcommands:

    background   print horizon and bound data for the configured background
    flow         run the flow, write the trace CSV and audit JSON
    audit        run surface and background checks without a flow
    chmass       print the boundary-mass convergence table

Exit codes: 0 all checks pass, 1 check failure, 2 usage or config error,
3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import background as bg
from .errors import (
    CFLError,
    ConfigError,
    ExteriorError,
    FlowSingularError,
    HorizonError,
    KottlerError,
)
from .flow import TRACE_COLUMNS, FlowControls, FlowTrace, run_flow
from .functionals import (
    asymptotic_limit_targets,
    compute_Q,
    hawking_mass,
    hk_gap,
    minkowski_deficit,
    penrose_conjecture_deficit,
    reverse_penrose_deficit,
    surface_gravity_bound_deficit,
)
from .surfaces import GraphSurface
from .base import AxisymmetricSphereGrid, FlatTorusGrid, PointGrid

__all__ = [
    "ScenarioConfig",
    "CheckResult",
    "AuditResult",
    "parse_config",
    "build_background",
    "build_initial_surface",
    "run_scenario",
    "emit_trace_csv",
    "parse_trace_csv",
    "emit_audit_json",
    "main",
]


def _check(parse, test, message):
    """A parser: `parse`, then ValueError(message) unless `test` holds."""
    def checked(text):
        value = parse(text)
        if not test(value):
            raise ValueError(message)
        return value
    return checked


def _list(item):
    return _check(lambda text: tuple(item(s.strip()) for s in text.split(",") if s.strip()),
                  bool, "must list at least one value")


def _within(parse, low, high):
    return _check(parse, lambda value: low <= value <= high, f"must lie in [{low:g}, {high:g}]")


_finite = _check(float, np.isfinite, "must be finite")
_positive = _check(_finite, lambda value: value > 0.0, "must be positive")
_nonnegative = _check(_finite, lambda value: value >= 0.0, "must be nonnegative")
_sign = _check(int, lambda value: value in (-1, 0, 1), "must be -1, 0 or +1")
_name = _check(str, bool, "must not be empty")
# Integer bounds keep genus, modes and seed inside float and C-long range;
# radii in [1e-50, 1e50] keep rho**2 and the Richardson ratio (r2/r1)**3 finite.
_genus = _within(int, 0, 10**6)
_mode = _within(int, -10**6, 10**6)
_seed = _within(int, -10**9, 10**9)
_radii = _check(_list(_within(_positive, 1e-50, 1e50)),
                lambda radii: len(set(radii)) == len(radii), "radii must be distinct")


def _resolution(text):
    return text if text == "point" else int(text)


def _key(section, parse, default=None, key=None):
    return field(default=default, metadata={"section": section, "parse": parse, "key": key})


@dataclass(frozen=True)
class ScenarioConfig:
    """One validated scenario.

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
    resolution: object = _key("background", _resolution, 64)  # int or "point"
    base_area: float | None = _key("background", _positive, key="area")
    radius: float | None = _key("surface", _positive)
    amplitude: float = _key("surface", _nonnegative, 0.0)
    mode: int | None = _key("surface", _mode)
    mode1: int | None = _key("surface", _mode)
    mode2: int | None = _key("surface", _mode)
    t_end: float | None = _key("flow", _positive)
    sample_interval: float = _key("flow", _positive, 0.25)
    cfl: float = _key("flow", _positive, FlowControls.cfl)
    h_floor: float = _key("flow", _finite, FlowControls.h_floor)
    star_floor: float = _key("flow", _finite, FlowControls.star_floor)
    max_dt: float | None = _key("flow", _positive)
    checks: tuple = _key("audit", _list(str), ("all",))
    rho_eval: tuple = _key("audit", _radii, (10.0, 20.0, 40.0, 80.0))
    seed: int = _key("audit", _seed, 0)


_KEYS = {(f.metadata["section"], f.metadata["key"] or f.name): f
         for f in fields(ScenarioConfig)}
_SECTIONS = {section for section, _ in _KEYS}


def parse_config(text):
    """Parse and validate a scenario config document."""
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

    if "curvature_sign" not in values:
        raise ConfigError("missing required key 'curvature_sign' in [background]")
    values.setdefault("genus", {1: 0, 0: 1, -1: 2}[values["curvature_sign"]])
    if ("mass" in values) == ("horizon_radius" in values):
        raise ConfigError(
            "give exactly one of 'mass', 'horizon_radius' in [background]",
            lines.get("mass") or lines.get("horizon_radius"),
        )
    config = ScenarioConfig(**values)
    _validate(config, lines)
    return config


def _validate(config, lines):
    """The rules that involve more than one key."""
    def fail(message, key):
        raise ConfigError(message, lines.get(key))

    surface = ["amplitude"] if config.amplitude != 0.0 else []
    surface += [key for key in ("mode", "mode1", "mode2") if getattr(config, key) is not None]
    flow = [f.name for f in fields(config) if f.metadata["section"] == "flow" and f.name in lines]
    for section, given in (("surface", surface), ("flow", flow)):
        if config.radius is None and given:
            fail(f"[{section}] key(s) {', '.join(given)} need a radius", given[0])
    if config.t_end is None and flow:
        fail(f"[flow] key(s) {', '.join(flow)} have no effect without t_end", flow[0])
    try:
        if config.horizon_radius is None:
            rho_m = bg.horizon_radius(config.curvature_sign, config.mass)
        else:
            rho_m = config.horizon_radius
            bg.mass_from_radius(config.curvature_sign, rho_m)
    except HorizonError as err:
        key = "mass" if config.mass is not None else "horizon_radius"
        fail(f"key {key!r}: {err}", key)
    if config.radius is not None:
        if config.radius <= rho_m:
            fail(f"radius {config.radius} must exceed horizon radius {rho_m:.6g}", "radius")
        if config.amplitude >= config.radius - rho_m:
            fail(
                f"amplitude {config.amplitude} must stay below radius - horizon "
                f"= {config.radius - rho_m:.6g}",
                "amplitude",
            )


def build_background(config):
    return bg.make_background(
        config.curvature_sign,
        config.genus,
        config.resolution,
        mass=config.mass,
        horizon_rho=config.horizon_radius,
        area=config.base_area,
    )


# Per grid kind: the [surface] keys besides `radius` that it reads, and
# the unit mode field those keys define (mode keys default as in the
# signatures).  The point grid carries constant graphs only.
_MODE_FIELDS = {
    PointGrid: ((), None),
    AxisymmetricSphereGrid: (
        ("amplitude", "mode"),
        lambda grid, mode=1: np.cos(mode * grid.theta),
    ),
    FlatTorusGrid: (
        ("amplitude", "mode1", "mode2"),
        lambda grid, mode1=1, mode2=0: np.sin(
            2.0 * np.pi * (mode1 * grid.theta1 + mode2 * grid.theta2) / grid.side
        ),
    ),
}


def build_initial_surface(config, background):
    if config.radius is None:
        raise ConfigError("missing required key 'radius' in [surface]")
    grid = background.base.grid
    keys, mode_field = _MODE_FIELDS[type(grid)]
    modes = {key: getattr(config, key) for key in ("mode", "mode1", "mode2")
             if getattr(config, key) is not None}
    if config.amplitude == 0.0:
        ignored, where = sorted(modes), "when amplitude is 0"
    else:
        ignored = sorted({"amplitude", *modes}.difference(keys))
        where = f"on a {type(grid).__name__} background"
    if ignored:
        raise ConfigError(f"[surface] key(s) {', '.join(ignored)} have no effect {where}")
    if config.amplitude == 0.0:
        return GraphSurface(background, config.radius)
    return GraphSurface(background, config.radius + config.amplitude * mode_field(grid, **modes))


# -- audit checks -----------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
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


def _abs_check(name, value, tol, tag):
    return CheckResult(name, float(value), 0.0, tol, bool(abs(value) <= tol), tag)


def _lower_check(name, value, tol, tag):
    # value must not fall below -tol
    return CheckResult(name, float(value), 0.0, tol, bool(value >= -tol), tag)


def _surface_checks(surface, tolerance_scale):
    """Checks evaluated on a single surface (no flow)."""
    background = surface.background
    base = background.base
    is_slice = surface.is_constant
    tol_exact = 1e-10 * tolerance_scale
    tol_pde = 1e-6 * tolerance_scale
    checks = []
    if is_slice:
        q_target = asymptotic_limit_targets(base)[0]
        checks.append(
            _abs_check("q_slice_value", compute_Q(surface) - q_target, tol_exact,
                       "monotone functional equals its slice constant")
        )
        checks.append(
            _abs_check("minkowski_deficit", minkowski_deficit(surface), tol_exact,
                       "Minkowski inequality equality case on slices")
        )
        checks.append(
            _abs_check("hk_gap", hk_gap(surface), tol_exact,
                       "Heintze-Karcher equality case on slices")
        )
        if background.curvature_sign == 1:
            checks.append(
                _abs_check("hawking_mass_slice",
                           hawking_mass(surface) - background.mass, tol_exact,
                           "Hawking mass recovers the mass parameter")
            )
    else:
        checks.append(
            _lower_check("minkowski_deficit", minkowski_deficit(surface), tol_pde,
                         "Minkowski inequality")
        )
        checks.append(
            _lower_check("hk_gap", hk_gap(surface), tol_pde,
                         "Heintze-Karcher inequality")
        )
    return checks


def _background_checks(background, tolerance_scale, seed=0):
    base = background.base
    tol = 1e-12 * tolerance_scale
    checks = [
        _abs_check(
            "surface_gravity_bound",
            surface_gravity_bound_deficit(background),
            tol,
            "Euler characteristic bound on surface gravity, equality on models",
        ),
        _abs_check(
            "penrose_conjecture",
            penrose_conjecture_deficit(background),
            tol,
            "conjectured mass lower bound by horizon area, equality on models",
        ),
        _abs_check(
            "mass_upper_bound",
            bg.mass_upper_bound(background) - background.mass,
            tol,
            "horizon-data mass upper bound, equality on models",
        ),
    ]
    if background.curvature_sign == -1 and background.mass >= 0.0:
        checks.append(
            _abs_check(
                "reverse_penrose",
                reverse_penrose_deficit(background),
                tol,
                "mass upper bound by horizon area on hyperbolic bases",
            )
        )
    if background.curvature_sign == 1 and background.surface_gravity >= np.sqrt(3.0):
        lo, hi = bg.radius_bounds(background.surface_gravity)
        lo_area, hi_area = base.area * lo**2, base.area * hi**2
        slack = 1e-12 * max(1.0, hi_area)
        inside = lo_area - slack <= background.horizon_area <= hi_area + slack
        checks.append(
            CheckResult("area_window", background.horizon_area, lo_area,
                        hi_area - lo_area, bool(inside),
                        "horizon area within the surface-gravity radius window")
        )
    # Quasi-random exterior sample by a golden-ratio lattice; deterministic.
    golden = 0.5 * (np.sqrt(5.0) - 1.0)
    frac = np.mod((np.arange(100) + 1 + seed) * golden, 1.0)
    rho = background.horizon_rho * (1.05 + 20.0 * frac)
    hess_res, lap_res = bg.static_residual(background, rho)
    checks.append(
        _abs_check("static_residual", max(hess_res, lap_res), 1e-9 * tolerance_scale,
                   "static vacuum equations hold on the background")
    )
    return checks


def _flow_checks(trace, config, background, tolerance_scale, ode_path):
    base = background.base
    checks = []
    t = trace.times
    area = trace.column("area")
    growth = np.max(np.abs(area / (np.exp(t) * area[0]) - 1.0))
    tol = (1e-10 if ode_path else 1e-4) * tolerance_scale
    checks.append(_abs_check("area_growth", growth, tol, "exponential area growth"))

    q = trace.column("Q")
    q_scale = max(1.0, abs(q[0]))
    if ode_path:
        checks.append(
            _abs_check("q_constant", np.max(np.abs(q - q[0])), 1e-10 * tolerance_scale,
                       "monotone functional constant on slice flows")
        )
    else:
        worst_rise = float(np.max(np.diff(q))) if len(q) > 1 else 0.0
        checks.append(
            CheckResult("q_monotone", worst_rise, 0.0, 1e-6 * q_scale * tolerance_scale,
                        worst_rise <= 1e-6 * q_scale * tolerance_scale,
                        "monotone functional non-increasing along the flow")
        )
    q_target = asymptotic_limit_targets(base)[0]
    checks.append(
        _lower_check("q_limit", float(np.min(q)) - q_target, 1e-6 * tolerance_scale,
                     "monotone functional stays above its limit")
    )
    min_h = trace.column("min_H")
    checks.append(
        CheckResult("mean_convex", float(np.min(min_h)), 0.0, 0.0,
                    bool(np.min(min_h) > 0.0), "mean-convexity preserved")
    )
    align = trace.column("min_align")
    checks.append(
        CheckResult("alignment_floor", float(np.min(align)), float(align[0] - 0.05), 0.0,
                    bool(np.min(align) >= align[0] - 0.05),
                    "star-shapedness preserved")
    )
    if background.curvature_sign == 1:
        mh = trace.column("hawking_mass")
        worst_drop = float(np.min(np.diff(mh))) if len(mh) > 1 else 0.0
        checks.append(
            CheckResult("hawking_monotone", worst_drop, 0.0, 1e-6 * tolerance_scale,
                        worst_drop >= -1e-6 * tolerance_scale,
                        "Hawking mass non-decreasing along the flow")
        )
    checks.append(
        CheckResult("flow_complete", 1.0 if trace.complete else 0.0, 1.0, 0.0,
                    trace.complete, "flow reached its final time")
    )
    return checks


def _select(checks, wanted):
    if "all" in wanted:
        return checks
    by_name = {c.name: c for c in checks}
    missing = [w for w in wanted if w not in by_name]
    if missing:
        raise ConfigError(f"requested checks not applicable here: {', '.join(missing)}")
    return [by_name[w] for w in wanted]


def run_scenario(config, with_flow=True, tolerance_scale=1.0):
    """Build the scenario, optionally run its flow, and evaluate checks."""
    background = build_background(config)
    result = AuditResult(scenario_id=config.scenario_id)
    trace = None
    checks = list(_background_checks(background, tolerance_scale, config.seed))
    if config.radius is not None:
        surface = build_initial_surface(config, background)
        checks.extend(_surface_checks(surface, tolerance_scale))
        if with_flow and config.t_end is not None:
            controls = FlowControls(
                cfl=config.cfl,
                h_floor=config.h_floor,
                star_floor=config.star_floor,
                max_dt=config.max_dt,
            )
            trace = run_flow(surface, config.t_end, config.sample_interval, controls)
            checks.extend(
                _flow_checks(trace, config, background, tolerance_scale,
                             surface.is_constant)
            )
    result.checks = _select(checks, config.checks)
    return trace, result


# -- serialization ----------------------------------------------------------


def emit_trace_csv(trace, path):
    """Write a trace as CSV with full-precision floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in trace.data:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def parse_trace_csv(path):
    """Read a trace CSV back; round-trips emit_trace_csv bit-exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != TRACE_COLUMNS:
            raise ConfigError(f"unexpected trace header {header}")
        rows = [[float(x) for x in line.strip().split(",")] for line in fh if line.strip()]
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(TRACE_COLUMNS)))
    return FlowTrace(data=data)


def emit_audit_json(result, path):
    """Write an audit result as deterministic JSON."""
    payload = {
        "scenario": result.scenario_id,
        "passed": result.passed,
        "checks": [
            {
                "name": c.name,
                "value": float(c.value),
                "bound": float(c.bound),
                "tolerance": float(c.tolerance),
                "passed": bool(c.passed),
                "tag": c.tag,
            }
            for c in result.checks
        ],
    }
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
    config = parse_config(text)
    if args.scenario is not None and args.scenario != config.scenario_id:
        raise ConfigError(
            f"config defines scenario {config.scenario_id!r}, not {args.scenario!r}"
        )
    return config


def _report(result, quiet):
    code = 0
    for c in result.checks:
        if not c.passed:
            code = 1
        if quiet and c.passed:
            continue
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name}: value={c.value:.6e} tol={c.tolerance:.1e} ({c.tag})")
    if not quiet or code:
        print(f"scenario {result.scenario_id}: {'PASS' if code == 0 else 'FAIL'}")
    return code


def _write_outputs(args, trace, result):
    if args.out is None:
        return
    import os

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, result.scenario_id)
    if trace is not None:
        emit_trace_csv(trace, stem + "_trace.csv")
    emit_audit_json(result, stem + "_audit.json")


def _cmd_background(args):
    config = _load_config(args)
    background = build_background(config)
    print(f"curvature_sign  {background.curvature_sign:+d}")
    print(f"genus           {background.base.genus}")
    print(f"base_area       {background.base.area:.17g}")
    print(f"mass            {background.mass:.17g}")
    print(f"horizon_radius  {background.horizon_rho:.17g}")
    print(f"horizon_area    {background.horizon_area:.17g}")
    print(f"surface_gravity {background.surface_gravity:.17g}")
    print(f"hk_constant     {background.hk_constant:.17g}")
    if background.curvature_sign == 1 and background.surface_gravity >= np.sqrt(3.0):
        lo, hi = bg.radius_bounds(background.surface_gravity)
        print(f"radius_window   [{lo:.17g}, {hi:.17g}]")
    return 0


def _cmd_flow(args):
    config = _load_config(args)
    trace, result = run_scenario(config, with_flow=True,
                                 tolerance_scale=args.tolerance_scale)
    _write_outputs(args, trace, result)
    code = _report(result, args.quiet)
    if trace is not None and not trace.complete:
        print(f"flow aborted: {trace.abort_reason}", file=sys.stderr)
        return 3
    return code


def _cmd_audit(args):
    config = _load_config(args)
    trace, result = run_scenario(config, with_flow=False,
                                 tolerance_scale=args.tolerance_scale)
    _write_outputs(args, trace, result)
    return _report(result, args.quiet)


def _cmd_chmass(args):
    config = _load_config(args)
    background = build_background(config)
    print(f"{'rho_eval':>12}  {'mass_estimate':>22}  {'abs_error':>12}")
    for rho in config.rho_eval:
        est = bg.ch_mass_integral(background, rho)
        print(f"{rho:>12.6g}  {est:>22.17g}  {abs(est - background.mass):>12.3e}")
    extrap = bg.richardson_mass(background, config.rho_eval)
    err = abs(extrap - background.mass)
    print(f"{'extrapolated':>12}  {extrap:>22.17g}  {err:>12.3e}")
    tol = 1e-3 * max(1.0, abs(background.mass)) * args.tolerance_scale
    if args.out is not None:
        result = AuditResult(scenario_id=config.scenario_id)
        result.checks = [
            _abs_check("chmass_extrapolated", extrap - background.mass, tol,
                       "boundary mass integral converges to the mass parameter")
        ]
        _write_outputs(args, None, result)
    return 0 if err <= tol else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kottler-imcf",
        description="Inverse mean curvature flow and inequality audits "
        "in Kottler black-hole backgrounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("background", _cmd_background),
        ("flow", _cmd_flow),
        ("audit", _cmd_audit),
        ("chmass", _cmd_chmass),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--scenario", default=None)
        p.add_argument("--tolerance-scale", type=float, default=1.0,
                       dest="tolerance_scale")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(func=func)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (FlowSingularError, CFLError, ExteriorError, HorizonError) as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return 3
    except KottlerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
