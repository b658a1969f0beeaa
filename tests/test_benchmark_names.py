"""The library names that the benchmark in perfbench/ looks up.

The benchmark's tracer skips a target it cannot find, and the target's
metrics then read 0, so renaming or removing a traced function would
break the benchmark with no failing check.  perfbench/ is outside this
suite's testpaths; its tracer and worker are loaded here by file path.
"""

import importlib
import importlib.util
import inspect
import os
import sys

import pytest

from kottler_imcf import functionals

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    # worker.py imports its siblings by bare name: register the file-loaded
    # clock and tracer for the length of one test, instead of extending sys.path.
    path = list(sys.path)
    for name in ("clock", "tracer"):
        monkeypatch.setitem(sys.modules, name, _load(name))
    modules = sys.modules["tracer"], _load("worker")
    assert sys.path == path
    return modules


def test_perfbench_loaded_by_file_path(perfbench):
    tracer, worker = perfbench
    for module in perfbench:
        assert os.path.dirname(os.path.abspath(module.__file__)) == PERFBENCH
    assert worker.Tracer is tracer.Tracer


def test_tracer_targets_resolve_to_functions(perfbench):
    tracer, _ = perfbench
    for module_name, attr, _ in tracer.TARGETS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        assert inspect.isfunction(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_worker_functionals_are_exported(perfbench):
    _, worker = perfbench
    for name in worker.FUNCTIONALS:
        assert name in functionals.__all__, name
        assert inspect.isfunction(getattr(functionals, name)), name


def test_functional_report_layout_is_pinned():
    # The audit sweep hashes every report field, in declaration order, into
    # values_sha256: a renamed, added or reordered field would change the
    # benchmark's digest with no failing check.
    assert list(functionals.FunctionalReport.__dataclass_fields__) == [
        "area",
        "total_mean_curvature",
        "bulk_integral",
        "horizon_term",
        "q_value",
        "p_value",
        "hawking_mass",
        "hk_gap",
        "minkowski_deficit",
        "areal_minkowski_deficit",
    ]
