"""The package's public names are its modules' public lists, declared once."""

import importlib
import subprocess
import sys

import pytest

MODULES = ("background", "base", "errors", "flow", "functionals", "surfaces")

# The package namespace: the modules' public names and the modules themselves.
NAMESPACE = [
    "AxisymmetricSphereGrid", "BaseSurface", "CFLError", "ConfigError", "ExteriorError",
    "FlatTorusGrid", "FlowSingularError", "FlowState", "FlowTrace", "FunctionalReport",
    "GraphSurface", "HorizonError", "InvalidBaseError", "KottlerBackground", "KottlerError",
    "NoiseFloorError", "PointGrid", "SurfaceGeometry", "TRACE_COLUMNS",
    "areal_minkowski_deficit", "asymptotic_limit_targets", "asymptotic_rate_fit", "background",
    "base", "bulk_integral", "cfl_limit", "ch_mass_integral", "compute_P", "compute_Q",
    "compute_geometry", "critical_mass", "errors", "evaluate_report", "flow", "functionals",
    "hawking_mass", "hk_constant", "hk_gap", "horizon_radius", "integrate", "make_background",
    "make_base", "mass_from_radius", "mass_upper_bound", "minkowski_deficit",
    "penrose_conjecture_deficit", "radius_bounds", "reverse_penrose_deficit", "richardson_mass",
    "run_flow", "star_shaped_check", "static_residual", "step_graph_pde", "step_slice_ode",
    "surface_gravity_bound_deficit", "surfaces", "total_mean_curvature",
]


def _public(module):
    """A module's public names: its __all__, else every name without a leading underscore."""
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {name for name in vars(module) if not name.startswith("_")}


def test_package_namespace_is_the_union_of_the_module_lists():
    # A fresh interpreter: importing kottler_imcf.cli, as other tests do,
    # adds `cli` to the package namespace.
    names = set(subprocess.run(
        [sys.executable, "-c", "import kottler_imcf; print(*dir(kottler_imcf))"],
        capture_output=True, text=True, check=True).stdout.split())
    names = {name for name in names if not name.startswith("_")}
    modules = [importlib.import_module(f"kottler_imcf.{name}") for name in MODULES]
    assert names == set(MODULES).union(*map(_public, modules))
    assert sorted(names) == NAMESPACE


@pytest.mark.parametrize("name", [*MODULES, "cli"])
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"kottler_imcf.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
