"""The graph step's frozen table (flow._ROWS): each row is a third-order,
damped stability polynomial, and the generator in step_table.py gives it."""

import numpy as np
import pytest

from kottler_imcf import FlowState, GraphSurface, flow, make_background

from step_table import DAMPED_FROM, row, stability, tableau

STAGE_COUNTS = [2 + len(substeps) for _, _, substeps in flow._ROWS]


def test_rows_run_from_three_stages_and_cover_a_full_step():
    # One row per stage count from 3, the fewest a third-order step takes,
    # in increasing order of beta, and a full step of F times the bound is
    # the last row's alone: 5.15 F = 23.69 against 25.57 at s = 8 and 19.18
    # at s = 7, so the table holds no row that a step never takes.
    betas = [beta for beta, _, _ in flow._ROWS]
    assert STAGE_COUNTS == list(range(3, 3 + len(flow._ROWS)))
    assert betas == sorted(betas)
    assert betas[-2] < flow._SSP_INTERVAL * flow.F <= betas[-1]


def test_a_step_at_its_cap_runs_the_last_row(monkeypatch):
    # Seeded bounds, among them those where a capped step's need,
    # 5.15 (F bound) / bound, rounds off 5.15 F.  A step at the cap, or a
    # few ulps above or below it, runs s = 8 and ends at exactly min(dt,
    # cap).  Each bound is at most the surface's own, so every step is
    # stable.
    b = make_background(1, 0, 17, mass=1.0)
    state = FlowState(0.0, GraphSurface(b, 2.0 + 0.2 * np.cos(b.base.grid.theta)), 0)
    bounds = flow.cfl_limit(state.surface) * np.random.default_rng(37).uniform(0.5, 1.0, 1000)
    needs = flow._SSP_INTERVAL * (flow.F * bounds) / bounds
    assert np.all((flow._ROWS[-2][0] < needs) & (needs <= flow._ROWS[-1][0]))
    assert np.max(np.abs(needs / (flow._SSP_INTERVAL * flow.F) - 1.0)) <= 4e-16
    off = needs != flow._SSP_INTERVAL * flow.F
    assert 0 < off.sum() < len(bounds)
    stages = []
    twice_k = flow._twice_k

    def counted(surface):
        stages[-1] += 1
        return twice_k(surface)

    monkeypatch.setattr(flow, "_twice_k", counted)
    for bound in (*bounds[off][:4], *bounds[~off][:2]):
        monkeypatch.setattr(flow, "cfl_limit", lambda surface, bound=bound: bound)
        cap = flow.F * bound
        below = np.nextafter(np.nextafter(cap, 0.0), 0.0)
        above = np.nextafter(np.nextafter(cap, np.inf), np.inf)
        for dt in (cap, np.nextafter(cap, np.inf), above, np.nextafter(cap, 0.0), below):
            stages.append(0)
            stepped = flow.step_graph_pde(state, float(dt))
            assert stepped.time == min(dt, cap), (bound, dt)
            assert stages[-1] == 8, (bound, dt)


@pytest.mark.parametrize("s", STAGE_COUNTS)
def test_each_row_is_third_order_and_damped(s):
    # The four order conditions of a third-order Runge-Kutta method hold to
    # round-off on the row's Butcher tableau (they read at most 3e-15).
    # R = prod of the groups' factors has |R| <= 1 on [-beta_s, 0], and on
    # [-beta_s, -0.05 beta_s] max |R| reads 0.90 at s = 3, 0.77 at 4, 0.64 at
    # 5 and 0.49-0.50 at 6 to 8: each row damps its stiff end.
    beta, pair, substeps = flow._ROWS[s - 3]
    a, w, c = tableau(pair, substeps)
    conditions = (w.sum(), w @ c, w @ (c * c), w @ a @ c)
    assert conditions == pytest.approx((1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 6.0), abs=1e-14)
    assert 0.0 <= c.min() and c.max() <= 1.1 and np.abs(a).max() <= 1.1
    z = np.linspace(-beta, 0.0, 200_001)
    r = np.abs(stability(pair, substeps, z))
    assert r.max() <= 1.0 + 1e-14
    assert r[z <= -DAMPED_FROM * beta].max() < 0.9


@pytest.mark.parametrize("s", STAGE_COUNTS)
def test_each_row_is_the_generators(s):
    # The two linear programs and the gamma solve reproduce the frozen row to
    # the bisection's tolerance, about 1e-6 relative in beta, which the roots
    # follow.  With scipy 1.17.1 they agree to the bit.
    beta, (a, b, gamma), substeps = row(s)
    frozen_beta, frozen_pair, frozen_substeps = flow._ROWS[s - 3]
    assert beta == pytest.approx(frozen_beta, rel=1e-6)
    assert (a, b, gamma) == pytest.approx(frozen_pair, rel=1e-5)
    assert substeps == pytest.approx(frozen_substeps, rel=1e-5)
