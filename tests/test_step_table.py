"""The graph step's frozen table (flow._ROWS): each row is a third-order,
damped stability polynomial, and the generator in step_table.py gives it."""

import numpy as np
import pytest

from kottler_imcf import flow

from step_table import DAMPED_FROM, row, stability, tableau

STAGE_COUNTS = [2 + len(substeps) for _, _, substeps in flow._ROWS]


def test_rows_run_from_three_stages_and_cover_a_full_step():
    # One row per stage count from 3, the fewest a third-order step takes,
    # in increasing order of beta, and the last covers a step of F times the
    # bound: 5.15 F = 20.6 against 25.57 at s = 8.
    betas = [beta for beta, _, _ in flow._ROWS]
    assert STAGE_COUNTS == list(range(3, 3 + len(flow._ROWS)))
    assert betas == sorted(betas)
    assert flow._SSP_INTERVAL * flow.F <= betas[-1] < flow._SSP_INTERVAL * (flow.F + 1)


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
