"""Tests of the benchmark itself: pinned work counts and the printed metric set.

    python3 -m pytest perfbench -q

Runs every workload at seed 0, untraced and traced (about three minutes,
most of it the torus flow).  The counts below are exact at seed 0; a
change that moves one has changed how much work the flows do.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

LINE = re.compile(r"^metric (\S+) (\S+) (\S+)")

PINNED = {
    # workload: flow_steps, compute_geometry calls
    "torus-flow": (15859, 31719),
    "sphere-flow": (12406, 24813),
}

# Every metric the benchmark defines, with the workloads that print it.
FLOW_ONLY = ["flow_wall_s", "flow_wall_s_tail", "area_growth_err", "trace_sha256"]
END_TO_END_NAMED = {
    "torus-flow": FLOW_ONLY, "sphere-flow": FLOW_ONLY,
    "cli-scenarios": ["cli_wall_s", "cli_wall_s_tail"],
    "audit-sweep": ["surfaces_per_s", "surface_wall_s_tail"],
}
COMMON_NAMED = ["setup_s", "setup_wall_s", "op_norm_s", "op_wall_s", "reference_ms", "peak_rss_mb",
                "fail_ratio", "samples"]
LAYER_NAMED = (
    ["import.total_s", "import.scipy_s", "import.numpy_s", "base.make_base.s",
     "base.integrate.calls", "base.integrate.calls_per_row",
     "background.horizon_radius.self_s", "background.static_residual.self_s",
     "surfaces.GraphSurface.calls", "surfaces.GraphSurface.self_s",
     "flow.step_graph_pde.self_s", "flow.cfl_limit.calls", "flow.cfl_limit.self_s",
     "flow.run_flow.self_s", "flow.geometry_evals_per_step", "flow.sample_rows",
     "functionals.self_s", "cli.parse_config.s", "cli.run_scenario.self_s", "cli.emit.s",
     "flow_steps", "trace.overhead_s"]
    + [f"surfaces.compute_geometry{kind}.{m}" for kind in ("", ".torus", ".sphere", ".slice")
       for m in ("calls", "self_s", "us_per_call")]
    + [f"functionals.{f}.{m}" for f in worker.FUNCTIONALS for m in ("calls", "self_s")]
    + [name for name, *_ in spec.PER_LAYER if name.startswith("us.")]
)


def bench(workload, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    metrics = {}
    for line in lines:
        match = LINE.match(line)
        if match:
            metrics[match.group(1)] = (match.group(2), match.group(3))
    return metrics, json.loads(lines[-1])


@pytest.fixture(scope="module", params=list(spec.WORKLOADS))
def untraced(request):
    return request.param, bench(request.param, 0)


@pytest.fixture(scope="module", params=list(spec.WORKLOADS))
def traced(request):
    return request.param, bench(request.param, 1)


def number(metrics, name):
    return float(metrics[name][0])


def test_untraced_run_is_correct_and_complete(untraced):
    workload, (metrics, summary) = untraced
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert set(summary["metrics"]) == {n for n, *_ in spec.END_TO_END}
    for name, unit, *_ in spec.END_TO_END:
        assert summary["metrics"][name]["unit"] == unit
        assert summary["metrics"][name]["value"] > 0
    for name in COMMON_NAMED + END_TO_END_NAMED[workload]:
        assert name in metrics and metrics[name][1], name
    assert number(metrics, "fail_ratio") == 0.0
    if workload in PINNED:
        assert number(metrics, "area_growth_err") <= 1e-4


def test_traced_run_pins_work_counts(traced):
    workload, (metrics, summary) = traced
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == {n for n, *_ in spec.PER_LAYER}
    for name in LAYER_NAMED + ["fail_ratio", "setup_s"]:
        assert name in metrics and metrics[name][1], name
    if workload in PINNED:
        steps, geometry = PINNED[workload]
        assert number(metrics, "flow_steps") == steps
        assert number(metrics, "surfaces.compute_geometry.calls") == geometry
        assert number(metrics, "flow.cfl_limit.calls") == 2 * steps
        assert number(metrics, "flow.geometry_evals_per_step") == 2.0
    if workload != "audit-sweep":
        assert number(metrics, "base.integrate.calls_per_row") == 11.0


def test_traced_run_stresses_its_layer(traced):
    workload, (metrics, _) = traced
    shares = {k[len("share."):]: float(v[0]) for k, v in metrics.items()
              if k.startswith("share.") and k != "share.outside_compute_geometry"}
    top = max(shares, key=shares.get)
    expected = {"torus-flow": "surfaces", "sphere-flow": "surfaces",
                "cli-scenarios": "import", "audit-sweep": "functionals"}[workload]
    assert top == expected, shares


def test_manifest_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.manifest()


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sphere-flow", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_zero_is_the_acceptance_input():
    assert worker.flow_params("torus-flow", 0) == {"mode": (1, 0), "phase": 0.0,
                                                  "amplitude": 0.1}
    assert worker.flow_params("sphere-flow", 0) == {"mode": 1, "amplitude": 0.2}
    assert worker.cli_order(0) == worker.CLI_RUNS
    assert worker.flow_params("torus-flow", 7) == worker.flow_params("torus-flow", 7)
    assert sorted(worker.cli_order(3)) == sorted(worker.CLI_RUNS)


def test_self_time_subtracts_children():
    spans = [["harness.run", 0.0, 10.0, -1],
             ["flow.step_graph_pde", 1.0, 5.0, 0],
             ["surfaces.compute_geometry.torus", 2.0, 4.0, 1],
             ["base.integrate", 6.0, 7.0, 0]]
    by_name, layers, _, step_geometry = tracer.summarize(spans, root="harness.run")
    assert by_name["flow.step_graph_pde"] == [1, 4.0, 2.0]
    assert layers == {"harness": 6.0, "flow": 2.0, "surfaces": 2.0}
    assert step_geometry == 1


def test_importtime_parse_counts_each_package_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       numpy.linalg",
        "import time:       400 |        450 |     scipy",
        "import time:       100 |        550 |   scipy.integrate",
        "import time:        10 |        860 | kottler_imcf",
    ])
    entries = run.parse_importtime(text)
    assert entries["kottler_imcf"][0] == pytest.approx(860e-6)
    assert run.outermost(entries, "scipy") == pytest.approx(550e-6)
    assert run.outermost(entries, "numpy") == pytest.approx(350e-6)
    assert run.outermost(entries, "numpy", ("scipy",)) == pytest.approx(300e-6)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    assert worker.tail_metric("t", values) == {"t": (90, "s", "p90, n=100")}
    assert worker.tail_metric("t", values[:10]) == {"t": (10, "s", "max, n=10 <= 10")}
