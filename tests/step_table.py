"""Test-only generator of the graph step's frozen table (flow._ROWS).

For a stage count s, a degree-s polynomial R(z) = 1 + z + z^2/2 + z^3/6 +
O(z^4) is the stability polynomial of a third-order step.  In the Chebyshev
basis of [-beta, 0], on 2,000 Chebyshev points, two linear programs shape it:

- the largest beta_max on which |R| <= 1 is found by bisection, each trial
  minimizing max |R| on [-beta, 0] (the minimum is 1 where beta fits, as
  R(0) = 1);
- at beta = 0.85 beta_max, max |R| on [-beta, -0.05 beta] is minimized,
  with |R| <= 1 nearer 0, so that the stiff end of the interval is damped.

The damped polynomial's roots are one complex pair and s - 2 real roots.
The step realizes R as a composition: the pair's factor 1 + a z + b z^2 as a
two-stage group whose middle stage sits at gamma, then each real root z_k
as an Euler substep of length -1/z_k, the stiffest first, so the pair's
amplification of stiff modes is damped as early as the composition allows.
gamma does not change R; it is solved so that sum b c^2 = 1/3, the one
third-order condition that R does not fix (sum b, sum b c and sum b A c are
R's own coefficients).  So the step is third order for a nonlinear
right-hand side too.
"""

import numpy as np
from numpy.polynomial import chebyshev
from scipy.optimize import linprog

POINTS = 2000
BETA_SHARE = 0.85
DAMPED_FROM = 0.05
TAYLOR = (1.0, 1.0, 0.5, 1.0 / 6.0)


def _order_conditions(s, beta):
    """(A, y) with A c = y the four Taylor conditions on R = sum c_j T_j(x),
    x = 1 + 2 z / beta: the m-th z-derivative at 0 is m! TAYLOR[m]."""
    j2 = np.arange(s + 1, dtype=float) ** 2
    derivative = np.ones(s + 1)  # T_j^(m)(1), from m = 0
    rows, values, factorial = [], [], 1.0
    for m in range(4):
        rows.append(derivative * (2.0 / beta) ** m)
        values.append(factorial * TAYLOR[m])
        derivative = derivative * (j2 - m * m) / (2 * m + 1)
        factorial *= m + 1
    return np.array(rows), np.array(values)


def minimax(s, beta, damped_from=0.0):
    """Chebyshev coefficients of the R that minimizes max |R| on
    [-beta, -damped_from beta] with |R| <= 1 on the rest of [-beta, 0], and
    that minimum."""
    x = np.cos(np.pi * np.arange(POINTS) / (POINTS - 1))
    vander = chebyshev.chebvander(x, s)
    damped = (beta * (x - 1.0) / 2.0 <= -damped_from * beta).astype(float)
    a_ub = np.vstack([np.hstack([vander, -damped[:, None]]),
                      np.hstack([-vander, -damped[:, None]])])
    b_ub = np.tile(1.0 - damped, 2)
    a_eq, b_eq = _order_conditions(s, beta)
    cost = np.zeros(s + 2)
    cost[-1] = 1.0
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=np.hstack([a_eq, np.zeros((4, 1))]),
                     b_eq=b_eq, bounds=[(None, None)] * (s + 2), method="highs")
    assert result.status == 0, result.message
    return result.x[:-1], result.x[-1]


def max_interval(s, iterations=20):
    """beta_max: the largest beta with max |R| <= 1 on [-beta, 0], to about
    1e-6 relative (it lies between 0.25 s^2 and 0.5 s^2)."""
    low, high = 0.25 * s * s, 0.5 * s * s
    for _ in range(iterations):
        mid = 0.5 * (low + high)
        if minimax(s, mid)[1] <= 1.0 + 1e-9:
            low = mid
        else:
            high = mid
    return low


def row(s):
    """The table row for s stages: (beta, (a, b, gamma), real substeps)."""
    beta = BETA_SHARE * max_interval(s)
    coefficients, _ = minimax(s, beta, DAMPED_FROM)
    # The linear program meets the order conditions to its tolerance; the
    # least-norm correction meets them to round-off.
    a_eq, b_eq = _order_conditions(s, beta)
    coefficients -= np.linalg.lstsq(a_eq, a_eq @ coefficients - b_eq, rcond=None)[0]
    roots = beta * (chebyshev.chebroots(coefficients) - 1.0) / 2.0
    pair = roots[np.argmax(roots.imag)]
    reals = np.sort(roots[np.abs(roots.imag) < 1e-9 * beta].real)
    assert pair.imag > 0.0 and reals.size == s - 2, roots
    a, b = -2.0 * pair.real / abs(pair) ** 2, 1.0 / abs(pair) ** 2
    substeps = tuple(float(h) for h in -1.0 / reals)
    # sum b c^2 = b gamma + sum over substeps of h T^2, T a substep's start.
    starts = a + np.concatenate([[0.0], np.cumsum(substeps)[:-1]])
    gamma = (1.0 / 3.0 - np.dot(substeps, starts * starts)) / b
    return float(beta), (float(a), float(b), float(gamma)), substeps


def tableau(pair, substeps):
    """The Butcher tableau (A, b, c) of a row's composition."""
    a, b, gamma = pair
    s = 2 + len(substeps)
    matrix = np.zeros((s, s))
    weights = np.zeros(s)
    matrix[1, 0] = gamma
    weights[:2] = a - b / gamma, b / gamma
    for i, h in enumerate(substeps, start=2):
        matrix[i] = weights
        weights[i] = h
    return matrix, weights, matrix.sum(axis=1)


def stability(pair, substeps, z):
    """R(z) of a row, as the product of its groups' factors."""
    a, b, _ = pair
    value = 1.0 + a * z + b * z * z
    for h in substeps:
        value = value * (1.0 + h * z)
    return value
