"""A test-only fit of a flow trace's late-time decay rates."""

import numpy as np

# The limit each fitted column decays toward along IMCF.
_FIT_TARGETS = {"min_align": 1.0, "min_H": 2.0, "max_H": 2.0}


class NoiseFloorError(Exception):
    """Signal is below the noise floor; a rate fit would be meaningless."""


def asymptotic_rate_fit(trace, column, model="exp"):
    """Fit the late-time decay rate of a trace column toward its limit.

    The deviation |column - target| is fitted in log space against
    ``exp`` (A e^{rate t}) or ``t_exp`` (A t e^{rate t}) over the last
    three quarters of the samples (at least 8); the discarded head skips
    the initial transient while the window stays wide enough to separate
    the two models.  Returns (rate, amplitude, residual) with residual
    the RMS log misfit.  Raises NoiseFloorError when the deviation sits
    at round-off, where a fit is meaningless.
    """
    if column not in _FIT_TARGETS:
        raise ValueError(f"no fit target for column {column!r}")
    target = _FIT_TARGETS[column]
    t = trace.times
    dev = np.abs(trace.column(column) - target)
    n_fit = max(8, 3 * len(t) // 4)
    if len(t) < n_fit:
        raise ValueError(f"need at least {n_fit} samples, got {len(t)}")
    t = t[-n_fit:]
    dev = dev[-n_fit:]
    scale = max(abs(target), 1.0)
    if np.max(dev) <= 1e-12 * scale:
        raise NoiseFloorError(
            f"column {column!r} deviation at round-off ({np.max(dev):.3e})"
        )
    if np.any(dev <= 0.0) or np.any(t <= 0.0):
        raise NoiseFloorError(f"column {column!r} deviation touches zero in the window")
    y = np.log(dev)
    if model == "t_exp":
        y = y - np.log(t)
    elif model != "exp":
        raise ValueError(f"unknown model {model!r}")
    rate, log_amp = np.polyfit(t, y, 1)
    residual = float(np.sqrt(np.mean((np.polyval((rate, log_amp), t) - y) ** 2)))
    return float(rate), float(np.exp(log_amp)), residual
