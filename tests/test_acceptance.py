"""Acceptance suite: one test per criterion, one printed verdict line each.

The two long flows (perturbed torus and perturbed sphere) run once as
module-scoped fixtures and are shared by the criteria that consume them.
"""

import filecmp
import hashlib
import os
import time

import numpy as np
import pytest

from kottler_imcf import (
    GraphSurface,
    compute_Q,
    hawking_mass,
    hk_gap,
    make_background,
    mass_from_radius,
    mass_upper_bound,
    minkowski_deficit,
    radius_bounds,
    reverse_penrose_deficit,
    richardson_mass,
    run_flow,
    static_residual,
    surface_gravity_bound_deficit,
)
from kottler_imcf.cli import parse_config, run_scenario

from perturbed_potential import PerturbedPotential
from rate_fit import asymptotic_rate_fit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(ROOT, "scenarios")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")

BACKGROUNDS = [
    (1, 0, 1.0),
    (1, 0, 2.0 / (3.0 * np.sqrt(3.0))),
    (0, 1, 0.5),
    (-1, 2, 0.0),
    (-1, 2, 1.0),
]


def _verdict(capsys, number, name, passed, detail=""):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[criterion {number:2d}] {status} {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="module")
def torus_flow():
    b = make_background(0, 1, 64, mass=0.5)
    g = b.base.grid
    s = GraphSurface(b, 3.0 + 0.1 * np.sin(2.0 * np.pi * g.theta1 / g.side))
    t0 = time.monotonic()
    trace = run_flow(s, 3.0, 0.125)
    return trace, time.monotonic() - t0


@pytest.fixture(scope="module")
def sphere_flow():
    b = make_background(1, 0, 128, mass=1.0)
    th = b.base.grid.theta
    s = GraphSurface(b, 2.0 + 0.2 * np.cos(th))
    t0 = time.monotonic()
    trace = run_flow(s, 6.0, 0.125)
    return trace, time.monotonic() - t0


@pytest.fixture(scope="module")
def slice_flow():
    b = make_background(0, 1, "point", mass=0.5)
    return run_flow(GraphSurface(b, b.horizon_rho), 4.0, 0.5)


def test_criterion_1_slice_rigidity(capsys):
    worst = 0.0
    for k, genus, mass in BACKGROUNDS:
        b = make_background(k, genus, "point", mass=mass)
        target = 2.0 * k * np.sqrt(b.base.area)
        for factor in (1.2, 2.0, 10.0):
            s = GraphSurface(b, factor * b.horizon_rho)
            worst = max(
                worst,
                abs(minkowski_deficit(s)),
                abs(hk_gap(s)),
                abs(compute_Q(s) - target),
            )
    _verdict(capsys, 1, "slice rigidity", worst <= 1e-10, f"worst |deviation| = {worst:.2e}")


def test_criterion_2_q_monotone(capsys, torus_flow):
    trace, wall = torus_flow
    q = trace.column("Q")
    tol = 1e-6 * max(1.0, abs(q[0]))
    rises = float(np.max(np.diff(q)))
    ok = (
        trace.complete
        and rises <= tol
        and -1e-6 <= q[-1] <= q[0]
        and wall <= 60.0
    )
    _verdict(capsys, 2, "monotone functional on torus flow", ok,
             f"max rise = {rises:.2e}, Q {q[0]:.4f} -> {q[-1]:.4f}, {wall:.1f} s")


@pytest.mark.byte_pin
def test_torus_flow_trace_digest(torus_flow):
    # SHA-256 of the acceptance torus trace at 17 significant digits, one row
    # a line: any change to a bit of the torus kernel's output shows here.
    text = "\n".join(",".join(f"{x:.17g}" for x in row) for row in torus_flow[0].data)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7e3831e7e667e4927be4a0aa810532098b712c5d3e43ea531c9cd9588bacf7a9"
    )


def test_criterion_3_area_growth(capsys, torus_flow, sphere_flow, slice_flow):
    def growth_err(trace):
        t = trace.times
        area = trace.column("area")
        return float(np.max(np.abs(area / (np.exp(t) * area[0]) - 1.0)))

    ode = growth_err(slice_flow)
    pde = max(growth_err(torus_flow[0]), growth_err(sphere_flow[0]))
    ok = ode <= 1e-10 and pde <= 1e-4
    _verdict(capsys, 3, "exponential area growth", ok,
             f"ode err = {ode:.2e}, pde err = {pde:.2e}")


def test_criterion_4_surface_gravity_bound(capsys):
    worst_rt = 0.0
    for kappa in (np.sqrt(3.0), 1.8, 2.0, 3.0, 5.0):
        for rho in radius_bounds(kappa):
            b = make_background(1, 0, "point", horizon_rho=rho)
            worst_rt = max(worst_rt, abs(b.surface_gravity - kappa))
    lo, hi = radius_bounds(np.sqrt(3.0))
    degenerate = (
        abs(lo - 1.0 / np.sqrt(3.0)) <= 1e-12
        and abs(hi - lo) <= 1e-12
        and abs(mass_from_radius(1, lo) - 2.0 / (3.0 * np.sqrt(3.0))) <= 1e-12
    )
    worst_def = max(
        abs(surface_gravity_bound_deficit(make_background(k, g, "point", mass=m)))
        for k, g, m in BACKGROUNDS
    )
    ok = worst_rt <= 1e-12 and degenerate and worst_def <= 1e-12
    _verdict(capsys, 4, "surface gravity bounds", ok,
             f"round trip = {worst_rt:.2e}, deficit = {worst_def:.2e}")


def test_criterion_5_mass_bounds(capsys):
    worst_rp = max(
        abs(reverse_penrose_deficit(make_background(-1, 2, "point", mass=m)))
        for m in (0.0, 1.0, 3.0)
    )
    worst_ub = 0.0
    for k, genus, mass in BACKGROUNDS:
        b = make_background(k, genus, "point", mass=mass)
        worst_ub = max(worst_ub, abs(mass_upper_bound(b) - mass))
    ok = worst_rp <= 1e-12 and worst_ub <= 1e-12
    _verdict(capsys, 5, "reverse Penrose and mass upper bound", ok,
             f"reverse = {worst_rp:.2e}, upper bound = {worst_ub:.2e}")


def test_criterion_6_hawking_mass(capsys, sphere_flow):
    b = make_background(1, 0, "point", mass=1.0)
    worst = max(
        abs(hawking_mass(GraphSurface(b, rho)) - 1.0) for rho in (2.0, 4.0, 8.0)
    )
    mh = sphere_flow[0].column("hawking_mass")
    worst_drop = float(np.min(np.diff(mh)))
    ok = worst <= 1e-10 and worst_drop >= -1e-6
    _verdict(capsys, 6, "Hawking mass", ok,
             f"slice err = {worst:.2e}, worst drop = {worst_drop:.2e}")


def test_criterion_7_asymptotic_rates(capsys, sphere_flow):
    trace, wall = sphere_flow
    rate, _, _ = asymptotic_rate_fit(trace, "min_align", "exp")
    _, _, res_texp = asymptotic_rate_fit(trace, "max_H", "t_exp")
    _, _, res_exp = asymptotic_rate_fit(trace, "max_H", "exp")
    a0 = trace.column("int_A0sq")
    ok = (
        trace.complete
        and abs(rate + 1.0) <= 0.25
        and res_texp < res_exp
        and a0[-1] <= 0.1 * a0[0]
        and wall <= 120.0
    )
    _verdict(capsys, 7, "asymptotic decay rates", ok,
             f"rate = {rate:.3f}, residuals {res_texp:.4f} < {res_exp:.4f}, "
             f"shear ratio = {a0[-1] / a0[0]:.1e}, {wall:.1f} s")


def test_criterion_8_boundary_mass(capsys):
    worst = 0.0
    for k, genus, mass in ((1, 0, 1.0), (0, 1, 0.5), (-1, 2, 0.0)):
        b = make_background(k, genus, "point", mass=mass)
        est = richardson_mass(b, (10.0, 20.0, 40.0, 80.0))
        worst = max(worst, abs(est - mass) / max(1.0, abs(mass)))
    _verdict(capsys, 8, "boundary mass extrapolation", worst <= 1e-3,
             f"worst relative error = {worst:.2e}")


def _shipped_configs():
    for name in sorted(os.listdir(SCENARIO_DIR)):
        if name.endswith(".cfg"):
            with open(os.path.join(SCENARIO_DIR, name), encoding="utf-8") as fh:
                yield parse_config(fh.read())


def test_criterion_9_static_residual(capsys):
    golden = 0.5 * (np.sqrt(5.0) - 1.0)
    frac = np.mod((np.arange(100) + 1) * golden, 1.0)
    worst = 0.0
    for config in _shipped_configs():
        b = config.background
        rho = b.horizon_rho * (1.05 + 20.0 * frac)
        worst = max(worst, *static_residual(b, rho))
    b = make_background(1, 0, "point", mass=1.0)
    detector = max(static_residual(PerturbedPotential.of(b, 1e-3), [1.5, 2.0, 5.0]))
    ok = worst <= 1e-9 and detector > 1e-4
    _verdict(capsys, 9, "static vacuum residual", ok,
             f"worst = {worst:.2e}, detector = {detector:.2e}")


@pytest.mark.byte_pin
def test_criterion_10_determinism(capsys, tmp_path):
    from kottler_imcf.cli import emit_audit_json, emit_trace_csv

    mismatches = []
    for config in _shipped_configs():
        with_flow = config.t_end is not None
        trace, result = run_scenario(config, with_flow=with_flow)
        stem = os.path.join(str(tmp_path), config.scenario_id)
        emit_audit_json(result, stem + "_audit.json")
        files = [config.scenario_id + "_audit.json"]
        if trace is not None:
            emit_trace_csv(trace, stem + "_trace.csv")
            files.append(config.scenario_id + "_trace.csv")
        for name in files:
            golden = os.path.join(GOLDEN_DIR, name)
            fresh = os.path.join(str(tmp_path), name)
            if not os.path.exists(golden) or not filecmp.cmp(golden, fresh, shallow=False):
                mismatches.append(name)
    _verdict(capsys, 10, "deterministic golden outputs", not mismatches,
             "byte-identical" if not mismatches else f"mismatch: {mismatches}")
