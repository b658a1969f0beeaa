"""Config parsing, serialization round-trips, and CLI exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kottler_imcf import ConfigError, FlowTrace, TRACE_COLUMNS
from kottler_imcf.cli import (
    AuditResult,
    CheckResult,
    ScenarioConfig,
    build_background,
    build_initial_surface,
    emit_audit_json,
    emit_trace_csv,
    main,
    parse_config,
    parse_trace_csv,
    run_scenario,
)

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
    assert c.cfl == 0.2
    assert c.sample_interval == 0.25
    assert c.checks == ("all",)
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
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_neither_mass_nor_radius_rejected():
    with pytest.raises(ConfigError):
        parse_config("[background]\ncurvature_sign = 0\n")


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
    b = build_background(c)
    assert b.horizon_rho == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-9)
    assert b.surface_gravity == pytest.approx(np.sqrt(3.0), abs=1e-9)


def test_build_initial_surface_kinds():
    c = parse_config(MINIMAL.replace("radius = 2.0",
                                     "radius = 3.0\namplitude = 0.1\nmode1 = 1"))
    b = build_background(c)
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
    again = parse_trace_csv(path)
    assert np.array_equal(again.data, trace.data)
    emit_trace_csv(again, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_empty_trace_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_trace_csv(FlowTrace(data=np.empty((0, len(TRACE_COLUMNS)))), path)
    lines = path.read_text().splitlines()
    assert lines == [",".join(TRACE_COLUMNS)]
    assert parse_trace_csv(path).n_samples == 0


def test_audit_json_failing_check(tmp_path):
    result = AuditResult(scenario_id="x")
    result.checks = [CheckResult("c", 1.0, 0.0, 0.5, False, "demo")]
    path = tmp_path / "audit.json"
    emit_audit_json(result, path)
    payload = json.loads(path.read_text())
    assert payload["passed"] is False
    assert payload["checks"][0]["name"] == "c"


def test_run_scenario_deterministic():
    c = parse_config(MINIMAL + "\n[flow]\nt_end = 1.0\n[background]\nresolution = 16\n")
    # note: section keys may be split across repeated headers
    t1, r1 = run_scenario(c)
    t2, r2 = run_scenario(c)
    assert np.array_equal(t1.data, t2.data)
    assert [c1.value for c1 in r1.checks] == [c2.value for c2 in r2.checks]
    assert r1.passed


def test_unknown_requested_check_rejected():
    c = parse_config(MINIMAL + "\n[audit]\nchecks = nonexistent\n")
    with pytest.raises(ConfigError):
        run_scenario(c, with_flow=False)


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


def test_cli_scenario_name_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL)
    assert main(["audit", "--config", cfg, "--scenario", "other"]) == 2


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
    payload = json.loads(open(os.path.join(out_dir, "t_audit.json")).read())
    assert payload["passed"] is True


@pytest.mark.parametrize("background, surface", [
    ("curvature_sign = -1\nmass = 1.0\nresolution = point", "amplitude = 0.1"),
    ("curvature_sign = 0\nmass = 0.5\nresolution = point", "amplitude = 0.1"),
    ("curvature_sign = 1\nmass = 1.0\nresolution = 16", "amplitude = 0.1\nmode1 = 2"),
    ("curvature_sign = 1\nmass = 1.0\nresolution = 16", "amplitude = 0.1\nmode2 = 1"),
    ("curvature_sign = 0\nmass = 0.5\nresolution = 16", "amplitude = 0.1\nmode = 2"),
], ids=["hyperbolic-point-amplitude", "torus-point-amplitude", "sphere-mode1", "sphere-mode2",
        "torus-mode"])
def test_cli_surface_key_without_effect_exit_two(tmp_path, capsys, background, surface):
    cfg = _write(tmp_path, f"[background]\n{background}\n[surface]\nradius = 2.5\n{surface}\n")
    assert main(["audit", "--config", cfg]) == 2
    assert "no effect" in capsys.readouterr().err


@pytest.mark.parametrize("background, surface", [
    ("curvature_sign = 1\nmass = 1.0\nresolution = 16", "amplitude = 0.3\nmode = 2"),
    ("curvature_sign = 1\nmass = 1.0\nresolution = 16", "mode = 2"),
    ("curvature_sign = 0\nmass = 0.5\nresolution = 16", "amplitude = 0.1"),
    ("curvature_sign = 0\nmass = 0.5\nresolution = 16", "amplitude = 0.0\nmode2 = 1"),
    ("curvature_sign = 1\nmass = 1.0\nresolution = point", "[flow]\nt_end = 1.0"),
    ("curvature_sign = 1\nmass = 1.0\nresolution = point", "amplitude = 0.0\n[flow]\nt_end = 1.0"),
    ("curvature_sign = 0\nmass = 0.5\nresolution = 16", "[flow]\ncfl = 0.1\nmax_dt = 0.01"),
], ids=["sphere-amplitude-mode", "sphere-mode", "torus-amplitude", "torus-zero-amplitude-mode2",
        "flow-t_end", "flow-zero-amplitude-t_end", "flow-controls"])
def test_cli_surface_keys_without_radius_exit_two(tmp_path, capsys, background, surface):
    text = f"[background]\n{background}\n[surface]\n{surface}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "need a radius" in str(err.value)
    assert main(["audit", "--config", _write(tmp_path, text)]) == 2


def test_cli_zero_amplitude_without_radius_accepted(tmp_path, capsys):
    text = "[background]\ncurvature_sign = 1\nmass = 1.0\nresolution = 16\n" \
        "[surface]\namplitude = 0.0\n"
    assert main(["audit", "--config", _write(tmp_path, text)]) == 0


@pytest.mark.parametrize("background, surface", [
    ("curvature_sign = 1\nmass = 1.0\nresolution = 16", "mode = 3"),
    ("curvature_sign = 1\nmass = 1.0\nresolution = 16", "amplitude = 0.0\nmode = 3"),
    ("curvature_sign = 0\nmass = 0.5\nresolution = 16", "mode1 = 2"),
    ("curvature_sign = 0\nmass = 0.5\nresolution = 16", "amplitude = 0.0\nmode1 = 1\nmode2 = 1"),
], ids=["sphere-unset", "sphere-explicit-zero", "torus-unset", "torus-explicit-zero"])
def test_cli_mode_key_with_zero_amplitude_exit_two(tmp_path, capsys, background, surface):
    text = f"[background]\n{background}\n[surface]\nradius = 2.0\n{surface}\n"
    config = parse_config(text)
    with pytest.raises(ConfigError) as err:
        build_initial_surface(config, build_background(config))
    assert "when amplitude is 0" in str(err.value)
    assert main(["audit", "--config", _write(tmp_path, text)]) == 2
    assert "no effect" in capsys.readouterr().err


def test_cli_degenerate_horizon_radius_exit_two(tmp_path, capsys):
    text = "[background]\ncurvature_sign = -1\nhorizon_radius = 0.5\nresolution = point\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "degenerate" in str(err.value)
    assert main(["audit", "--config", _write(tmp_path, text)]) == 2


def test_cli_tolerance_scale(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL + "\n[background]\nresolution = point\n")
    # an absurdly small tolerance scale forces rigidity checks to fail
    assert main(["audit", "--config", cfg, "--tolerance-scale", "1e-20"]) == 1


def _scenario_with(scenario, section, key, value):
    # A shipped scenario with one key set (replaced if present).
    with open(os.path.join(ROOT, "scenarios", scenario + ".cfg"), encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines()
                 if line.partition("=")[0].strip() != key]
    at = lines.index(f"[{section}]") + 1
    return "\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n"


def _sphere_perturbed_with(section, key, value):
    return _scenario_with("sphere-perturbed", section, key, value)


@pytest.mark.parametrize("key, value", [
    ("cfl", "0"), ("cfl", "-1"), ("cfl", "nan"), ("cfl", "inf"),
    ("max_dt", "0"), ("max_dt", "-1"), ("max_dt", "nan"),
    ("t_end", "inf"), ("t_end", "nan"), ("t_end", "-1"), ("sample_interval", "0"),
    ("sample_interval", "nan"), ("sample_interval", "inf"),
    ("h_floor", "nan"), ("star_floor", "nan"),
])
def test_cli_flow_value_that_never_finishes_exit_two(tmp_path, key, value):
    # Each is a config error.  Unchecked, some of these loop forever, some
    # abort with exit 3 and some pass with exit 0; the timeout turns a hang
    # into a failure.
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
    ("audit", "slice-rigidity-sphere", "audit", "checks", ","),
    ("audit", "slice-rigidity-sphere", "audit", "checks", ""),
    ("audit", "slice-rigidity-sphere", "background", "mass", "1e308"),
    ("audit", "slice-rigidity-sphere", "background", "mass", "6e307"),
    ("audit", "spherical-area-window", "background", "horizon_radius", "1e200"),
    ("audit", "spherical-area-window", "background", "horizon_radius", "1e101"),
    pytest.param("audit", "slice-rigidity-sphere", "audit", "seed", "1" * 31,
                 id="audit-seed-31-digits"),
    ("audit", "slice-rigidity-sphere", "audit", "seed", "-1000000001"),
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


@pytest.mark.parametrize("flow", ["cfl = 0.1", "sample_interval = 0.5\nh_floor = 1e-3"],
                         ids=["cfl", "sampling"])
def test_cli_flow_key_without_t_end_exit_two(tmp_path, capsys, flow):
    text = "[background]\ncurvature_sign = 1\nmass = 1.0\nresolution = point\n" \
        f"[surface]\nradius = 2.0\n[flow]\n{flow}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "no effect" in str(err.value)
    assert flow.partition(" ")[0] in str(err.value)
    assert main(["flow", "--config", _write(tmp_path, text)]) == 2


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
