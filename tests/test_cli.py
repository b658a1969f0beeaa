"""Config parsing, serialization round-trips, and CLI exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kottler_imcf.cli
import kottler_imcf.surfaces
from kottler_imcf import ConfigError, FlowTrace, TRACE_COLUMNS
from kottler_imcf.base import integrate
from kottler_imcf.cli import (
    AuditResult,
    CheckResult,
    build_initial_surface,
    emit_audit_json,
    emit_trace_csv,
    main,
    parse_config,
    run_scenario,
)
from kottler_imcf.cli import _RULES, ScenarioConfig, _check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MINIMAL = """
id = t

[background]
curvature_sign = 0
mass = 0.5

[surface]
radius = 2.0
"""


def test_parse_defaults():
    c = parse_config(MINIMAL)
    assert c.scenario_id == "t"
    assert c.genus == 1
    assert c.resolution == 64
    assert c.sample_interval == 0.25
    assert c.rho_eval == (10.0, 20.0, 40.0, 80.0)


def test_parse_comments_and_blank_lines():
    c = parse_config("# header\n\n" + MINIMAL + "\n[flow]\nt_end = 1.0  # trailing\n")
    assert c.t_end == 1.0


def test_unknown_key_line_numbered():
    bad = MINIMAL + "\n[flow]\nbogus = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "bogus" in str(err.value)
    assert "line" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[extras]\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[surface]\nradius = 3.0\n")


def test_both_mass_and_radius_rejected():
    bad = MINIMAL.replace("mass = 0.5", "mass = 0.5\nhorizon_radius = 1.0")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert str(err.value) == (f"line {_line_of(bad, 'mass = 0.5')}: "
                              "give exactly one of 'mass', 'horizon_radius' in [background]")


def test_neither_mass_nor_radius_rejected():
    with pytest.raises(ConfigError):
        parse_config("[background]\ncurvature_sign = 0\n")


@pytest.mark.parametrize("background", [
    "curvature_sign = 1\nmass = 1.0", "curvature_sign = 0\nhorizon_radius = 1.7",
    "curvature_sign = -1\nmass = -0.1",
])
def test_radius_rule_uses_the_background_horizon(background):
    # The config rule and the built background share one horizon radius, to
    # the bit: the next float above it is a valid radius, the radius itself is not.
    head = f"[background]\n{background}\nresolution = point\n[surface]\n"
    rho = parse_config(head).background.horizon_rho
    assert parse_config(head + f"radius = {float(np.nextafter(rho, np.inf))!r}\n").radius > rho
    with pytest.raises(ConfigError, match="must exceed horizon radius"):
        parse_config(head + f"radius = {rho!r}\n")


def test_amplitude_exterior_guarantee():
    # radius 2, horizon 1: amplitude must stay below 1
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("radius = 2.0", "radius = 2.0\namplitude = 1.5"))
    assert "amplitude" in str(err.value)


def test_radius_below_horizon_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("radius = 2.0", "radius = 0.5"))


def test_critical_mass_derivation():
    text = """
[background]
curvature_sign = +1
mass = 0.3849001794597505
resolution = point
"""
    c = parse_config(text)
    b = c.background
    assert b.horizon_rho == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-9)
    assert b.surface_gravity == pytest.approx(np.sqrt(3.0), abs=1e-9)


def test_build_initial_surface_kinds():
    c = parse_config(MINIMAL.replace("radius = 2.0",
                                     "radius = 3.0\namplitude = 0.1\nmode1 = 1"))
    b = c.background
    s = build_initial_surface(c, b)
    assert not s.is_constant
    g = b.base.grid
    expected = 3.0 + 0.1 * np.sin(2.0 * np.pi * g.theta1 / g.side)
    assert np.allclose(s.radius_field, expected)


def _trace(n):
    data = np.arange(n * len(TRACE_COLUMNS), dtype=float).reshape(n, -1)
    data[:, 0] = np.arange(n)  # strictly increasing times
    data[:, 1] = np.pi * (1.0 + data[:, 1])  # irrational-looking areas
    return FlowTrace(data=data)


def test_trace_csv_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    trace = _trace(3)
    emit_trace_csv(trace, path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert tuple(header.split(",")) == TRACE_COLUMNS
    again = FlowTrace(data=np.array([[float(x) for x in row.split(",")] for row in rows]))
    assert np.array_equal(again.data, trace.data)
    emit_trace_csv(again, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_empty_trace_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_trace_csv(FlowTrace(data=np.empty((0, len(TRACE_COLUMNS)))), path)
    lines = path.read_text().splitlines()
    assert lines == [",".join(TRACE_COLUMNS)]


def test_audit_json_failing_check(tmp_path):
    # The goldens are all passing runs: this pins the bytes of a failed check,
    # a NaN value and an infinite bound next to a passing one.
    result = AuditResult("fails", [CheckResult("q_monotone", np.nan, np.inf, 1e-6, False, "a"),
                                   CheckResult("hk_gap", -0.0, 0.0, 0.5, True, "b")])
    path = tmp_path / "audit.json"
    emit_audit_json(result, path)
    assert path.read_bytes() == b"""{
  "scenario": "fails",
  "passed": false,
  "checks": [
    {
      "name": "q_monotone",
      "value": NaN,
      "bound": Infinity,
      "tolerance": 1e-06,
      "passed": false,
      "tag": "a"
    },
    {
      "name": "hk_gap",
      "value": -0.0,
      "bound": 0.0,
      "tolerance": 0.5,
      "passed": true,
      "tag": "b"
    }
  ]
}
"""


@pytest.mark.byte_pin
def test_run_scenario_deterministic():
    c = parse_config(MINIMAL + "\n[flow]\nt_end = 1.0\n[background]\nresolution = 16\n")
    # note: section keys may be split across repeated headers
    t1, r1 = run_scenario(c)
    t2, r2 = run_scenario(c)
    assert np.array_equal(t1.data, t2.data)
    assert [c1.value for c1 in r1.checks] == [c2.value for c2 in r2.checks]
    assert r1.passed


def _write(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return str(path)


SCENARIOS = sorted(name[:-len(".cfg")] for name in os.listdir(os.path.join(ROOT, "scenarios"))
                   if name.endswith(".cfg"))


def _golden(name):
    with open(os.path.join(ROOT, "tests", "goldens", name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.byte_pin
def test_cli_background_and_chmass_goldens(tmp_path, capsys, scenario):
    # The stdout of `background` and `chmass` and the audit JSON of
    # `chmass --out`, byte for byte.
    config = os.path.join(ROOT, "scenarios", scenario + ".cfg")
    assert main(["background", "--config", config]) == 0
    assert capsys.readouterr().out.encode() == _golden(scenario + "_background.txt")
    assert main(["chmass", "--config", config, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.encode() == _golden(scenario + "_chmass.txt")
    with open(tmp_path / (scenario + "_audit.json"), "rb") as fh:
        assert fh.read() == _golden(scenario + "_chmass_audit.json")


def test_cli_audit_exit_zero(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL + "\n[background]\nresolution = point\n")
    assert main(["audit", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_config_error_exit_two(tmp_path, capsys):
    cfg = _write(tmp_path, "[background]\ncurvature_sign = 0\n")
    assert main(["background", "--config", cfg]) == 2
    assert main(["audit", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_background_output(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL + "\n[background]\nresolution = point\n")
    assert main(["background", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "horizon_radius" in out
    assert "surface_gravity" in out


def test_cli_chmass(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL + "\n[background]\nresolution = point\n")
    assert main(["chmass", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "extrapolated" in out


def test_cli_flow_writes_outputs(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        MINIMAL + "\n[background]\nresolution = point\n[flow]\nt_end = 1.0\n",
    )
    out_dir = str(tmp_path / "out")
    assert main(["flow", "--config", cfg, "--out", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "t_trace.csv"))
    with open(os.path.join(out_dir, "t_audit.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["passed"] is True


UNREAD_SURFACE_KEYS = [
    pytest.param("curvature_sign = -1\nmass = 1.0\nresolution = point", "amplitude = 0.1",
                 id="hyperbolic-point-amplitude"),
    pytest.param("curvature_sign = 0\nmass = 0.5\nresolution = point", "amplitude = 0.1",
                 id="torus-point-amplitude"),
    pytest.param("curvature_sign = 1\nmass = 1.0\nresolution = 16", "amplitude = 0.1\nmode1 = 2",
                 id="sphere-mode1"),
    pytest.param("curvature_sign = 1\nmass = 1.0\nresolution = 16", "amplitude = 0.1\nmode2 = 1",
                 id="sphere-mode2"),
    pytest.param("curvature_sign = 0\nmass = 0.5\nresolution = 16", "amplitude = 0.1\nmode = 2",
                 id="torus-mode"),
    pytest.param("curvature_sign = 0\nmass = 0.5\nresolution = 16",
                 "amplitude = 0.1\nmode1 = 0\nmode2 = 0", id="torus-zero-modes"),
]


def _surface_text(background, surface, radius=None):
    radius = "" if radius is None else f"radius = {radius}\n"
    return f"[background]\n{background}\n[surface]\n{radius}{surface}\n"


@pytest.mark.parametrize("background, surface", UNREAD_SURFACE_KEYS)
def test_cli_surface_key_without_effect_exit_two(tmp_path, capsys, background, surface):
    cfg = _write(tmp_path, _surface_text(background, surface, 2.5))
    assert main(["audit", "--config", cfg]) == 2
    assert "no effect" in capsys.readouterr().err


KEYS_WITHOUT_RADIUS = [
    pytest.param("curvature_sign = 1\nmass = 1.0\nresolution = 16", "amplitude = 0.3\nmode = 2",
                 id="sphere-amplitude-mode"),
    pytest.param("curvature_sign = 1\nmass = 1.0\nresolution = 16", "mode = 2", id="sphere-mode"),
    pytest.param("curvature_sign = 0\nmass = 0.5\nresolution = 16", "amplitude = 0.1",
                 id="torus-amplitude"),
    pytest.param("curvature_sign = 0\nmass = 0.5\nresolution = 16", "amplitude = 0.0\nmode2 = 1",
                 id="torus-zero-amplitude-mode2"),
    pytest.param("curvature_sign = 1\nmass = 1.0\nresolution = point", "[flow]\nt_end = 1.0",
                 id="flow-t_end"),
    pytest.param("curvature_sign = 1\nmass = 1.0\nresolution = point",
                 "amplitude = 0.0\n[flow]\nt_end = 1.0", id="flow-zero-amplitude-t_end"),
    pytest.param("curvature_sign = 0\nmass = 0.5\nresolution = 16",
                 "[flow]\nsample_interval = 0.5", id="flow-controls"),
]


@pytest.mark.parametrize("background, surface", KEYS_WITHOUT_RADIUS)
def test_cli_surface_keys_without_radius_exit_two(tmp_path, capsys, background, surface):
    text = _surface_text(background, surface)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "need a radius" in str(err.value)
    assert main(["audit", "--config", _write(tmp_path, text)]) == 2


def test_cli_zero_amplitude_without_radius_accepted(tmp_path, capsys):
    text = "[background]\ncurvature_sign = 1\nmass = 1.0\nresolution = 16\n" \
        "[surface]\namplitude = 0.0\n"
    assert main(["audit", "--config", _write(tmp_path, text)]) == 0


MODES_WITH_ZERO_AMPLITUDE = [
    pytest.param("curvature_sign = 1\nmass = 1.0\nresolution = 16", "mode = 3", id="sphere-unset"),
    pytest.param("curvature_sign = 1\nmass = 1.0\nresolution = 16", "amplitude = 0.0\nmode = 3",
                 id="sphere-explicit-zero"),
    pytest.param("curvature_sign = 0\nmass = 0.5\nresolution = 16", "mode1 = 2", id="torus-unset"),
    pytest.param("curvature_sign = 0\nmass = 0.5\nresolution = 16",
                 "amplitude = 0.0\nmode1 = 1\nmode2 = 1", id="torus-explicit-zero"),
]


@pytest.mark.parametrize("background, surface", MODES_WITH_ZERO_AMPLITUDE)
def test_cli_mode_key_with_zero_amplitude_exit_two(tmp_path, capsys, background, surface):
    text = _surface_text(background, surface, 2.0)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "when amplitude is 0" in str(err.value)
    assert main(["audit", "--config", _write(tmp_path, text)]) == 2
    assert "no effect" in capsys.readouterr().err


def test_cli_degenerate_horizon_radius_exit_two(tmp_path, capsys):
    text = "[background]\ncurvature_sign = -1\nhorizon_radius = 0.5\nresolution = point\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "degenerate" in str(err.value)
    assert main(["audit", "--config", _write(tmp_path, text)]) == 2


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_audit_integrates_each_surface_integral_once(monkeypatch, scenario):
    # The surface checks read one evaluate_report: its five integrals.
    calls = []

    def counted(base, field):
        calls.append(1)
        return integrate(base, field)

    monkeypatch.setattr(kottler_imcf.surfaces, "integrate", counted)
    with open(os.path.join(ROOT, "scenarios", scenario + ".cfg"), encoding="utf-8") as fh:
        run_scenario(parse_config(fh.read()), with_flow=False)
    assert len(calls) == 5


# (rule, bound, tolerance, the edge value, the direction out of the pass set);
# a window's slack is 1e-12 * max(1, bound + tolerance) on each edge.
_RULE_EDGES = [
    ("abs", 0.0, 0.5, 0.5, np.inf),
    ("abs", 0.0, 0.5, -0.5, -np.inf),
    ("abs", 1.0, 0.5, 1.5, np.inf),
    ("lower", 1.0, 0.5, 0.5, -np.inf),
    ("upper", 1.0, 0.5, 1.5, np.inf),
    ("window", 2.0, 1.0, 2.0 - 1e-12 * 3.0, -np.inf),
    ("window", 2.0, 1.0, 3.0 + 1e-12 * 3.0, np.inf),
    ("window", 0.25, 0.25, 0.25 - 1e-12, -np.inf),
    ("window", 0.25, 0.25, 0.5 + 1e-12, np.inf),
]


@pytest.mark.parametrize("rule, bound, tol, edge, outward", _RULE_EDGES)
def test_check_rule_edge_passes_and_next_float_out_fails(rule, bound, tol, edge, outward):
    check = _check("c", edge, "demo", rule, tol, bound)
    assert check.passed is True
    assert (check.value, check.bound, check.tolerance) == (edge, bound, tol)
    assert _check("c", np.nextafter(edge, outward), "demo", rule, tol, bound).passed is False


def test_check_above_rule_is_strict():
    assert _check("c", 1.5, "demo", "above", 0.5, 1.0).passed is False
    assert _check("c", np.nextafter(1.5, np.inf), "demo", "above", 0.5, 1.0).passed is True


@pytest.mark.parametrize("rule", sorted(_RULES))
def test_check_nan_fails_every_rule(rule):
    assert _check("c", np.nan, "demo", rule, 1.0).passed is False


# With every tolerance scaled by 1e-20 (_tiny_tolerances) the shipped
# scenarios reach the failing side that their goldens never show.  Per
# scenario: the audit's checks, then the checks its flow adds, each as `name`
# (passes) or `-name` (fails).
_TINY_SCALE_CHECKS = {
    "slice-rigidity-hyperbolic": (
        "surface_gravity_bound penrose_conjecture -mass_upper_bound reverse_penrose "
        "-static_residual -q_slice_value -minkowski_deficit -hk_gap",
        "-area_growth -q_constant -q_limit mean_convex alignment_floor flow_complete"),
    "slice-rigidity-sphere": (
        "surface_gravity_bound penrose_conjecture mass_upper_bound area_window "
        "-static_residual -q_slice_value -minkowski_deficit -hk_gap -hawking_mass_slice",
        "-area_growth -q_constant -q_limit mean_convex alignment_floor -hawking_monotone "
        "flow_complete"),
    "sphere-perturbed": (
        "surface_gravity_bound penrose_conjecture mass_upper_bound area_window "
        "-static_residual minkowski_deficit hk_gap",
        "-area_growth q_monotone q_limit mean_convex alignment_floor hawking_monotone "
        "flow_complete"),
    "spherical-area-window": (
        "surface_gravity_bound penrose_conjecture mass_upper_bound area_window "
        "-static_residual -q_slice_value -minkowski_deficit -hk_gap hawking_mass_slice", ""),
    "torus-perturbed": (
        "surface_gravity_bound penrose_conjecture mass_upper_bound -static_residual "
        "minkowski_deficit hk_gap",
        "-area_growth q_monotone q_limit mean_convex alignment_floor flow_complete"),
    "torus-uniqueness": (
        "surface_gravity_bound penrose_conjecture mass_upper_bound -static_residual "
        "q_slice_value minkowski_deficit hk_gap", ""),
}


def _tiny_tolerances(monkeypatch):
    """Scale the tolerance of every check row by 1e-20, except the width of
    `area_window`, which is the radius window itself."""
    def tiny(tolerance):
        if callable(tolerance):
            return lambda run: tolerance(run) * 1e-20
        return tolerance * 1e-20

    monkeypatch.setattr(kottler_imcf.cli, "_CHECKS", tuple(
        spec if spec.name == "area_window" else spec._replace(tolerance=tiny(spec.tolerance))
        for spec in kottler_imcf.cli._CHECKS))


@pytest.mark.parametrize("command", ["audit", "flow"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_tiny_tolerance_scale_failing_checks(tmp_path, monkeypatch, capsys, scenario,
                                                 command):
    _tiny_tolerances(monkeypatch)
    config = os.path.join(ROOT, "scenarios", scenario + ".cfg")
    argv = [command, "--config", config, "--out", str(tmp_path)]
    assert main(argv) == 1
    audit, flow = _TINY_SCALE_CHECKS[scenario]
    marked = (audit + " " + flow if command == "flow" else audit).split()
    expected = [(name.lstrip("-"), not name.startswith("-")) for name in marked]
    payload = json.loads((tmp_path / (scenario + "_audit.json")).read_text())
    assert [(c["name"], c["passed"]) for c in payload["checks"]] == expected
    assert payload["passed"] is False
    out = capsys.readouterr().out
    assert out.count("FAIL ") == sum(not passed for _, passed in expected)
    assert out.endswith(f"scenario {scenario}: FAIL\n")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_chmass_tiny_tolerance_scale_fails(tmp_path, monkeypatch, capsys, scenario):
    _tiny_tolerances(monkeypatch)
    config = os.path.join(ROOT, "scenarios", scenario + ".cfg")
    argv = ["chmass", "--config", config, "--out", str(tmp_path)]
    assert main(argv) == 1
    payload = json.loads((tmp_path / (scenario + "_audit.json")).read_text())
    assert payload["passed"] is False
    assert [(c["name"], c["passed"]) for c in payload["checks"]] == [
        ("chmass_extrapolated", False)]


def _scenario_with(scenario, section, key, value):
    # A shipped scenario with one key set (replaced if present), its
    # section added at the end if the file lacks it.
    with open(os.path.join(ROOT, "scenarios", scenario + ".cfg"), encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines()
                 if line.partition("=")[0].strip() != key]
    if f"[{section}]" not in lines:
        lines += ["", f"[{section}]"]
    at = lines.index(f"[{section}]") + 1
    return "\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n"


def _sphere_perturbed_with(section, key, value):
    return _scenario_with("sphere-perturbed", section, key, value)


@pytest.mark.parametrize("key, value", [
    ("t_end", "inf"), ("t_end", "nan"), ("t_end", "-1"), ("sample_interval", "0"),
    ("sample_interval", "nan"), ("sample_interval", "inf"), ("sample_interval", "1e-300"),
])
def test_cli_flow_value_that_never_finishes_exit_two(tmp_path, key, value):
    # Each is a config error: t_end and sample_interval must be finite and
    # positive, and an interval of 1e-300 asks for 2e300 sample rows.  The
    # timeout turns a flow that never finishes into a failure.
    cfg = _write(tmp_path, _sphere_perturbed_with("flow", key, value))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "kottler_imcf.cli", "flow", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 2, out.stderr
    assert key in out.stderr


def test_sample_rows_bound_names_sample_interval():
    # At most 100,000 sample rows; the error is at the line of
    # `sample_interval`, or of `t_end` when the interval is the default 0.25.
    head = "[background]\ncurvature_sign = 1\nmass = 1.0\n[surface]\nradius = 2.0\n[flow]\n"
    assert parse_config(head + "t_end = 1.0\nsample_interval = 1e-5\n").sample_interval == 1e-5
    for flow, line in (("t_end = 1.0\nsample_interval = 9.99e-6", 8), ("t_end = 1e5", 7)):
        with pytest.raises(ConfigError) as err:
            parse_config(head + flow + "\n")
        assert str(err.value).startswith(f"line {line}: key 'sample_interval': ")


@pytest.mark.parametrize("key", ["mass", "horizon_radius"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_non_finite_horizon_data_exit_two(tmp_path, capsys, key, value):
    text = _sphere_perturbed_with("background", key, value)
    if key == "horizon_radius":
        text = text.replace("mass = 1.0\n", "")
    assert main(["audit", "--config", _write(tmp_path, text)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, scenario, section, key, value", [
    ("audit", "sphere-perturbed", "surface", "radius", "nan"),
    ("audit", "sphere-perturbed", "surface", "radius", "-inf"),
    ("audit", "sphere-perturbed", "surface", "amplitude", "nan"),
    ("audit", "sphere-perturbed", "surface", "amplitude", "-0.1"),
    ("audit", "torus-perturbed", "background", "area", "nan"),
    ("audit", "torus-perturbed", "background", "area", "inf"),
    ("audit", "torus-perturbed", "background", "curvature_sign", "2"),
    ("chmass", "slice-rigidity-sphere", "audit", "rho_eval", "10, nan, 40"),
    ("chmass", "slice-rigidity-sphere", "audit", "rho_eval", "10, inf"),
    ("chmass", "slice-rigidity-sphere", "audit", "rho_eval", "10, -20"),
    ("chmass", "slice-rigidity-sphere", "audit", "rho_eval", "10, 40, 10"),
    ("chmass", "slice-rigidity-sphere", "audit", "rho_eval", ""),
    ("chmass", "slice-rigidity-sphere", "audit", "rho_eval", ", ,"),
    ("audit", "slice-rigidity-sphere", "background", "mass", "1e308"),
    ("audit", "slice-rigidity-sphere", "background", "mass", "6e307"),
    ("audit", "spherical-area-window", "background", "horizon_radius", "1e200"),
    ("audit", "spherical-area-window", "background", "horizon_radius", "1e101"),
    pytest.param("audit", "slice-rigidity-hyperbolic", "background", "genus", "9" * 400,
                 id="audit-genus-400-digits"),
    pytest.param("chmass", "slice-rigidity-hyperbolic", "background", "genus", "9" * 400,
                 id="chmass-genus-400-digits"),
    ("audit", "slice-rigidity-sphere", "background", "genus", "-1"),
    ("chmass", "slice-rigidity-sphere", "audit", "rho_eval", "10, 1e200"),
    ("chmass", "slice-rigidity-sphere", "audit", "rho_eval", "1e-250, 1e100"),
    pytest.param("audit", "sphere-perturbed", "surface", "mode", "9" * 400,
                 id="audit-mode-400-digits"),
    pytest.param("audit", "torus-perturbed", "surface", "mode1", "9" * 30,
                 id="audit-mode1-30-digits"),
    pytest.param("audit", "torus-perturbed", "surface", "mode2", "-" + "9" * 400,
                 id="audit-mode2-400-digits"),
])
def test_cli_out_of_range_value_exit_two(tmp_path, capsys, command, scenario, section, key,
                                         value):
    # Unchecked, these abort with exit 3, print nan rows, crash with a
    # traceback, or run zero checks and pass.
    text = _scenario_with(scenario, section, key, value)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert key in str(err.value)
    assert main([command, "--config", _write(tmp_path, text)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("flow", ["sample_interval = 0.5"], ids=["sampling"])
def test_cli_flow_key_without_t_end_exit_two(tmp_path, capsys, flow):
    text = "[background]\ncurvature_sign = 1\nmass = 1.0\nresolution = point\n" \
        f"[surface]\nradius = 2.0\n[flow]\n{flow}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "no effect" in str(err.value)
    assert flow.partition(" ")[0] in str(err.value)
    assert main(["flow", "--config", _write(tmp_path, text)]) == 2


@pytest.mark.parametrize("section, key, value", [
    ("flow", "max_dt", "0.01"), ("audit", "seed", "0"), ("flow", "cfl", "0.1"),
    ("flow", "h_floor", "1e-3"), ("flow", "star_floor", "0.2"), ("audit", "checks", "all"),
])
def test_removed_key_is_unknown_exit_two(tmp_path, capsys, section, key, value):
    # The flow runs with the library's flow controls and every check that
    # applies: a valid value is rejected too, because no value of these
    # keys takes effect.
    text = _sphere_perturbed_with(section, key, value)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"unknown key {key!r} in section [{section}]" in str(err.value)
    assert main(["flow", "--config", _write(tmp_path, text)]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--out", "out"), ("--tolerance-scale", "2")])
def test_cli_background_rejects_flags_it_never_reads(tmp_path, monkeypatch, capsys, flag,
                                                     value):
    # `flow`, `audit` and `chmass` accept `--out out`; `--tolerance-scale` is
    # retired from every subcommand.
    monkeypatch.chdir(tmp_path)
    config = os.path.join(ROOT, "scenarios", "torus-uniqueness.cfg")
    with pytest.raises(SystemExit) as exit_:
        main(["background", "--config", config, flag, value])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["flow", "audit", "chmass"])
@pytest.mark.parametrize("flag, value", [("--tolerance-scale", "2"), ("--scenario", "x")])
def test_cli_retired_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, command, flag, value):
    # A verdict depends on its scenario alone: no flag scales a tolerance or
    # names the scenario, so both are unknown arguments, before any work.
    monkeypatch.chdir(tmp_path)
    flows = _count_flows(monkeypatch)
    config = os.path.join(ROOT, "scenarios", "sphere-perturbed.cfg")
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", config, "--out", "out", flag, value])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert flows == [] and os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["flow", "audit", "chmass"])
@pytest.mark.parametrize("where", ["a-file", "below-a-file"])
def test_cli_out_that_cannot_be_a_directory_exit_two(tmp_path, monkeypatch, capsys, command,
                                                     where):
    # The directory is made before any work or output; an --out at or below a
    # regular file is one error line naming it, not a traceback (exit 1) after
    # chmass has printed its table.
    flows = _count_flows(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker) if where == "a-file" else str(blocker / "sub")
    config = os.path.join(ROOT, "scenarios", "slice-rigidity-hyperbolic.cfg")
    assert main([command, "--config", config, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write --out {out}: ")
    assert captured.err.count("\n") == 1
    assert flows == []


@pytest.mark.parametrize("command", ["flow", "audit", "chmass"])
def test_cli_out_file_that_cannot_be_written_exit_two(tmp_path, capsys, command):
    # The audit JSON's path is taken by a directory: one error line naming it.
    scenario = "slice-rigidity-hyperbolic"
    target = tmp_path / f"{scenario}_audit.json"
    target.mkdir()
    config = os.path.join(ROOT, "scenarios", scenario + ".cfg")
    assert main([command, "--config", config, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --out {target}: ")
    assert err.count("\n") == 1


def test_coarse_sphere_flow_fails_its_area_growth(tmp_path, capsys):
    # At 8 nodes and amplitude 0.4 the flow's area error, 1.8e-4, is above
    # its 1e-4 tolerance, so the run fails with exit 1; no flag can widen that
    # tolerance (test_cli_retired_flag_is_a_usage_error).  That error is
    # spatial: the step's time error is far below it.
    text = "id = coarse\n[background]\ncurvature_sign = 1\nmass = 1.0\nresolution = 8\n" \
        "[surface]\nradius = 2.0\namplitude = 0.4\nmode = 1\n[flow]\nt_end = 1.0\n"
    assert main(["flow", "--config", _write(tmp_path, text), "--quiet"]) == 1
    failed, verdict = capsys.readouterr().out.splitlines()
    assert failed.startswith("FAIL area_growth: ")
    assert failed.endswith(" tol=1.0e-04 (exponential area growth)")
    assert verdict == "scenario coarse: FAIL"


@pytest.mark.parametrize("command", ["background", "flow", "audit", "chmass"])
@pytest.mark.byte_pin
def test_cli_quiet_on_every_subcommand(capsys, command):
    # Every subcommand takes --quiet; `background` and `chmass` print their
    # tables as without it, and a passing audit prints nothing.
    config = os.path.join(ROOT, "scenarios", "torus-uniqueness.cfg")
    assert main([command, "--config", config, "--quiet"]) == 0
    tables = {"background": "_background.txt", "chmass": "_chmass.txt"}
    expected = _golden("torus-uniqueness" + tables[command]) if command in tables else b""
    assert capsys.readouterr().out.encode() == expected


@pytest.mark.parametrize("command", ["background", "flow", "audit", "chmass"])
def test_cli_builds_one_background_per_run(tmp_path, monkeypatch, capsys, command):
    # parse_config builds the background to check the rules it reads, and the
    # command reads that one: make_base and the horizon solve run once.
    calls, make_background = [], kottler_imcf.cli.bg.make_background

    def counted(*args, **kwargs):
        calls.append(1)
        return make_background(*args, **kwargs)

    monkeypatch.setattr(kottler_imcf.cli.bg, "make_background", counted)
    out = [] if command == "background" else ["--out", str(tmp_path)]
    config = os.path.join(ROOT, "scenarios", "torus-uniqueness.cfg")
    assert main([command, "--config", config, "--quiet", *out]) == 0
    assert len(calls) == 1


def _line_of(text, line):
    return text.splitlines().index(line) + 1


def _count_flows(monkeypatch):
    calls, run_flow = [], kottler_imcf.cli.run_flow

    def counted(*args, **kwargs):
        calls.append(1)
        return run_flow(*args, **kwargs)

    monkeypatch.setattr(kottler_imcf.cli, "run_flow", counted)
    return calls


def test_cli_unknown_check_name_exit_two_before_any_flow(tmp_path, monkeypatch, capsys):
    # Every check that applies runs, so a config that names checks is a
    # config error at its line, before the flow.
    text = _scenario_with("torus-perturbed", "audit", "checks", "q_monotone, hk_gapp")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    line = _line_of(text, "checks = q_monotone, hk_gapp")
    assert str(err.value) == f"line {line}: unknown key 'checks' in section [audit]"
    flows = _count_flows(monkeypatch)
    out = tmp_path / "out"
    assert main(["flow", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {err.value}\n"
    assert flows == [] and not out.exists()


@pytest.mark.parametrize("command, scenario, key, value, message", [
    ("background", "slice-rigidity-hyperbolic", "genus", "1", "incompatible"),
    ("audit", "slice-rigidity-sphere", "genus", "2", "incompatible"),
    ("flow", "torus-perturbed", "genus", "0", "incompatible"),
    ("background", "slice-rigidity-sphere", "resolution", "4", ">= 8"),
    ("flow", "sphere-perturbed", "resolution", "7", ">= 8"),
    ("audit", "slice-rigidity-hyperbolic", "resolution", "16", "only the point grid"),
    ("chmass", "slice-rigidity-hyperbolic", "resolution", "8", "only the point grid"),
    ("background", "slice-rigidity-sphere", "area", "5.0", "Gauss-Bonnet"),
    ("chmass", "slice-rigidity-hyperbolic", "area", "1.0", "Gauss-Bonnet"),
    # The Gauss-Bonnet area, exact or rounded, too: on a curved base no area takes effect.
    ("background", "slice-rigidity-sphere", "area", repr(4.0 * np.pi), "Gauss-Bonnet"),
    ("background", "slice-rigidity-hyperbolic", "area", "12.5663706144", "Gauss-Bonnet"),
])
def test_cli_base_rule_is_a_config_error_naming_the_key(tmp_path, capsys, command, scenario,
                                                       key, value, message):
    # Each was rejected only by the base constructor, as a bare "error: ..."
    # that named neither the key nor its line.
    text = _scenario_with(scenario, "background", key, value)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert message in str(err.value)
    assert main([command, "--config", _write(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = _line_of(text, f"{key} = {value}")
    assert captured.err.startswith(f"config error: line {line}: key '{key}': ")


@pytest.mark.parametrize("background, reported", [
    ("curvature_sign = 1\narea = 5.0\ngenus = 2\n", "genus"),
    ("curvature_sign = -1\nresolution = 16\ngenus = 1\n", "genus"),
    ("curvature_sign = -1\nresolution = 16\narea = 1.0\n", "area"),
    ("curvature_sign = 0\nresolution = 2000\ngenus = 0\n", "genus"),
], ids=["sphere-genus-before-area", "hyperbolic-genus-before-resolution",
        "hyperbolic-area-before-resolution", "torus-genus-before-resolution"])
def test_cli_base_rules_report_in_order(background, reported):
    # One base takes every rule: the first broken one in the order genus,
    # area, resolution is reported, whatever the order of the lines.
    text = f"[background]\n{background}mass = 1.0\n"
    line = next(n for n, entry in enumerate(text.splitlines(), 1)
                if entry.startswith(reported + " "))
    with pytest.raises(ConfigError, match=f"^line {line}: key '{reported}': "):
        parse_config(text)


@pytest.mark.parametrize("scenario, value, bound", [
    ("slice-rigidity-sphere", "17179869184", 65536),
    ("slice-rigidity-sphere", "65537", 65536),
    ("torus-perturbed", "40000", 1024),
    ("torus-perturbed", "1025", 1024),
    ("slice-rigidity-sphere", "1" + "0" * 400, 65536),
], ids=["sphere-128GiB", "sphere-edge", "torus-12GiB", "torus-edge", "sphere-401-digits"])
def test_cli_resolution_above_the_grid_bound_exit_two(tmp_path, capsys, scenario, value, bound):
    # Without the bound, the parse-time probe would make the grid: 128 GiB of
    # sphere nodes, or 12 GiB for each field of the torus.  An integer past
    # float range meets the same bound, not an OverflowError.
    text = _scenario_with(scenario, "background", "resolution", value)
    assert main(["background", "--config", _write(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = _line_of(text, f"resolution = {value}")
    assert captured.err == (
        f"config error: line {line}: key 'resolution': resolution {value} > {bound}\n")
    accepted = parse_config(_scenario_with(scenario, "background", "resolution", str(bound)))
    assert accepted.background.base.grid.weights.size in (bound, bound**2)


@pytest.mark.parametrize("text, line, message", [
    (MINIMAL + "\n[audit]\nrho_eval = 10, 10\n", "rho_eval = 10, 10",
     "key 'rho_eval': radii must be distinct"),
    (MINIMAL.replace("curvature_sign = 0\n", ""), None,
     "missing required key 'curvature_sign' in [background]"),
], ids=["rho_eval-repeated", "curvature_sign-missing"])
def test_config_error_message_in_full(text, line, message):
    # The full message, with the line of the key where one is named.
    if line is not None:
        message = f"line {_line_of(text, line)}: {message}"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


def test_hyperbolic_default_resolution_is_point(tmp_path):
    # `resolution` defaults by the curvature sign, as `genus` does: a
    # hyperbolic base takes only the point grid, so the key can be omitted.
    text = "[background]\ncurvature_sign = -1\nmass = 1.0\n"
    assert parse_config(text).resolution == "point"
    assert main(["audit", "--config", _write(tmp_path, text)]) == 0
    for sign, mass in ((1, 1.0), (0, 0.5)):
        text = f"[background]\ncurvature_sign = {sign}\nmass = {mass}\n"
        assert parse_config(text).resolution == 64
    with pytest.raises(ConfigError, match="only the point grid, not 64"):
        parse_config("[background]\ncurvature_sign = -1\nmass = 1.0\nresolution = 64\n")


def _torus_with_modes(mode1, mode2):
    text = _scenario_with("torus-perturbed", "surface", "mode1", str(mode1))
    return text.replace("mode2 = 0", f"mode2 = {mode2}")


VANISHING_TORUS_MODES = [(16, 0), (32, 0), (0, 16), (16, 16)]


@pytest.mark.parametrize("mode1, mode2", VANISHING_TORUS_MODES)
def test_cli_torus_modes_that_vanish_on_the_grid_exit_two(tmp_path, capsys, mode1, mode2):
    # At resolution 32, sin(2 pi (mode1 j + mode2 k) / 32) is 0 on every node
    # when 32 divides 2*mode1 and 2*mode2; at mode 16 floating point leaves a
    # field of about 1e-15, which must not be audited as a non-slice.
    text = _torus_with_modes(mode1, mode2)
    assert main(["audit", "--config", _write(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"config error: line {_line_of(text, 'amplitude = 0.1')}: [surface] key(s) amplitude, "
        "mode1, mode2 have no effect when resolution 32 divides both 2*mode1 and 2*mode2")


SURFACE_KEY_ERRORS = [
    *(pytest.param(_surface_text(*p.values), id=f"without-radius-{p.id}")
      for p in KEYS_WITHOUT_RADIUS),
    *(pytest.param(_surface_text(*p.values, 2.0), id=f"zero-amplitude-{p.id}")
      for p in MODES_WITH_ZERO_AMPLITUDE),
    *(pytest.param(_surface_text(*p.values, 2.5), id=f"unread-{p.id}")
      for p in UNREAD_SURFACE_KEYS),
    *(pytest.param(_torus_with_modes(*modes), id=f"vanishing-{modes[0]}-{modes[1]}")
      for modes in VANISHING_TORUS_MODES),
]


@pytest.mark.parametrize("text", SURFACE_KEY_ERRORS)
def test_cli_surface_key_error_is_the_same_from_every_subcommand(tmp_path, capsys, text):
    # parse_config decides every [surface] rule, so whether a scenario is
    # valid does not depend on the subcommand that reads it.
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    errors = set()
    for command in ("background", "flow", "audit", "chmass"):
        argv = [command, "--config", cfg] + ([] if command == "background" else ["--out", str(out)])
        assert main(argv) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        errors.add(captured.err)
    assert len(errors) == 1 and errors.pop().startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--conf", "--qui", "--o"])
def test_cli_flag_prefix_is_unrecognized(tmp_path, capsys, flag):
    # Flags are spelled in full: a unique prefix is not taken for its flag.
    cfg = os.path.join(ROOT, "scenarios", "torus-uniqueness.cfg")
    out = tmp_path / "out"
    extra = {"--conf": [cfg], "--qui": [], "--o": [str(out)]}[flag]
    for command in ("background", "flow", "audit", "chmass"):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--config", cfg, flag, *extra])
        assert exit_.value.code == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err, command
    assert not out.exists()


@pytest.mark.parametrize("mode1, mode2, code", [(1, 0, 0), (0, 1, 0), (1, 1, 0), (15, 0, 3)])
def test_cli_torus_modes_that_vary_on_the_grid_still_run(tmp_path, mode1, mode2, code):
    # Mode 15 at resolution 32 varies on the grid, so it is no config error;
    # its surface is not mean-convex, so the audit aborts (exit 3).
    text = _torus_with_modes(mode1, mode2)
    config = parse_config(text)
    surface = build_initial_surface(config, config.background)
    assert np.ptp(surface.radius_field) > config.amplitude
    assert main(["audit", "--config", _write(tmp_path, text)]) == code


def test_base_rules_accept_their_edges():
    # The least grid and a torus area; a curved base takes its area from the genus.
    parse_config("[background]\ncurvature_sign = 1\nmass = 1.0\nresolution = 8\n")
    parse_config("[background]\ncurvature_sign = 0\nmass = 0.5\narea = 5.0\n")
    config = parse_config("[background]\ncurvature_sign = -1\ngenus = 3\nmass = 1.0\n"
                          "resolution = point\n")
    assert config.background.base.area == 8.0 * np.pi


def test_cli_sphere_mode_zero_is_a_slice(tmp_path, capsys):
    # cos(0) = 1: `amplitude` shifts the radius, so the key takes effect.
    text = _scenario_with("sphere-perturbed", "surface", "mode", "0")
    assert main(["audit", "--config", _write(tmp_path, text), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "sphere-perturbed_audit.json").read_text())
    assert "q_slice_value" in [c["name"] for c in payload["checks"]]


@pytest.mark.parametrize("radii", ["4.5, 10, 20", "10, 20, 4.5"])
def test_cli_chmass_rho_eval_inside_five_horizon_radii_exit_two(tmp_path, capsys, radii):
    # The horizon radius is 1 here, and below 5 horizon radii the boundary
    # integral is preasymptotic: a config error before any row is printed.
    text = _scenario_with("slice-rigidity-sphere", "audit", "rho_eval", radii)
    out = tmp_path / "out"
    assert main(["chmass", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: key 'rho_eval': ")
    assert not out.exists()


@pytest.mark.parametrize("text", ["id = \n", "id = a\nid = b\n"], ids=["empty", "duplicate"])
def test_bad_scenario_id_rejected(text):
    with pytest.raises(ConfigError) as err:
        parse_config(text + MINIMAL.replace("id = t\n", ""))
    assert "id" in str(err.value)


def _parses_or_config_error(text):
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert isinstance(config, ScenarioConfig)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_parse_config_arbitrary_text(text):
    _parses_or_config_error(text)


_TABLE_KEYS = [(f.metadata["section"], f.metadata["key"] or f.name)
               for f in fields(ScenarioConfig)]
_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.lists(st.floats(), max_size=4).map(lambda xs: ", ".join(map(repr, xs))),
    st.sampled_from(["point", "all", "", ",", "-1", "0", "+1", "1e200", "6e307"]),
    st.text(max_size=12),
)


@settings(max_examples=500, deadline=None)
@given(st.dictionaries(st.sampled_from(_TABLE_KEYS), _VALUES), _VALUES)
def test_parse_config_table_keys_with_arbitrary_values(entries, mass):
    # Most documents carry a valid curvature sign and one horizon key, so
    # that the cross-key rules run too.
    entries.setdefault(("background", "curvature_sign"), "1")
    if ("background", "horizon_radius") not in entries:
        entries.setdefault(("background", "mass"), mass)
    sections = {}
    for (section, key), value in entries.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    text = "\n".join(sections.pop(None, []))
    for section, lines in sections.items():
        text += f"\n[{section}]\n" + "\n".join(lines)
    _parses_or_config_error(text)
