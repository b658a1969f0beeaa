"""The package's public names are its modules' public lists, declared once."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

MODULES = ("background", "base", "errors", "flow", "functionals", "surfaces")
PACKAGE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "kottler_imcf")

# The package namespace: the modules' public names and the modules themselves.
NAMESPACE = [
    "AxisymmetricSphereGrid", "BaseSurface", "ConfigError", "ExteriorError",
    "FlatTorusGrid", "FlowSingularError", "FlowState", "FlowTrace", "FunctionalReport",
    "GraphSurface", "HorizonError", "InvalidBaseError", "KottlerBackground", "KottlerError",
    "NoiseFloorError", "PointGrid", "SurfaceGeometry", "TRACE_COLUMNS",
    "areal_minkowski_deficit", "asymptotic_limit", "asymptotic_rate_fit", "background",
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


def _private_imports(tree):
    """Each underscore name that a module's source takes from another package
    module: by ``from .x import _y``, or as ``m._y`` of a module bound by
    ``from . import x as m``."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "kottler_imcf"):
            for alias in node.names:
                if node.module is None:  # from . import x: a module
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("name", [*MODULES, "cli", "__init__"])
def test_no_module_imports_a_private_name_of_another(name):
    # A private name is its module's to change: a second module that reads it
    # holds a second copy of a contract no public name states.
    with open(os.path.join(PACKAGE_DIR, name + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert _private_imports(tree) == []


def test_the_private_import_check_finds_both_forms():
    tree = ast.parse("from .functionals import _q, compute_P\n"
                     "from . import background as bg\n"
                     "bg._MAX_HORIZON_RHO, bg.make_background\n")
    assert _private_imports(tree) == ["functionals._q", "bg._MAX_HORIZON_RHO"]
