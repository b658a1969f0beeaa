"""The mutation table: one row per deliberate fault in the library.

Each row is a Mutant: a name, a file under the repository root, an old text
that occurs exactly once in that file, the new text that replaces it, and
why the fault matters.  A mutant that no test can catch, because its
change is equivalent, carries the argument in ``equivalent``; mutate.py
expects it to survive.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    why: str
    equivalent: str = ""


BASE = "src/kottler_imcf/base.py"
BACKGROUND = "src/kottler_imcf/background.py"
SURFACES = "src/kottler_imcf/surfaces.py"
FLOW = "src/kottler_imcf/flow.py"

MUTANTS = [
    # -- the sphere kernel ---------------------------------------------------
    Mutant(
        "sphere-v2-sign", SURFACES,
        "    f -= two_m / r\n",
        "    f += two_m / r\n",
        "the sphere kernel forms V^2 = k + r^2 - 2m/r itself; a wrong sign is "
        "the potential of a negative mass"),
    Mutant(
        "v_squared-terms-mass", BACKGROUND,
        "np.array(2.0 * self.mass)",
        "np.array(self.mass)",
        "the sphere kernel reads 2m as a cached 0-d array; m in its place is "
        "the potential of half the mass"),
    Mutant(
        "stencil-divisor-h-squared", BASE,
        "return np.array(2.0 * h), np.array(h**2)",
        "return np.array(2.0 * h), np.array(2.0 * h**2)",
        "the sphere kernel divides r_tt by the cached h^2; twice it halves "
        "the second derivative"),
    Mutant(
        "sphere-pole-limit-sign", SURFACES,
        "k_pole = (f_r.item(pole) - r_tt.item(pole))",
        "k_pole = (f_r.item(pole) + r_tt.item(pole))",
        "the pole value replaces cot(theta) r_t by its L'Hopital limit r_tt; "
        "the wrong sign bends the two pole nodes only"),
    Mutant(
        "sphere-pole-radius-power", SURFACES,
        "(n_f.item(pole) * r.item(pole) ** 2)",
        "(n_f.item(pole) * r.item(pole))",
        "the pole denominator is n_f r^2, as on every other node"),
    Mutant(
        "sphere-pole-overflow-raises", SURFACES,
        "        except (OverflowError, ZeroDivisionError):\n",
        "        except ZeroDivisionError:\n",
        "Python floats raise OverflowError where numpy's scalars give inf; the "
        "field must still be rejected as a non-finite H"),
    Mutant(
        "sphere-h_tt-equivalent-order", SURFACES,
        "    k1 = f_r - r_tt\n",
        "    k1 = -r_tt + f_r\n",
        "the form of the reference kernel, which the in-place kernel rewrote",
        equivalent="IEEE 754 defines x - y as x + (-y), negation is exact and "
        "addition commutes, so -r_tt + f_r has the bits of f_r - r_tt for "
        "every pair of doubles, signed zeros included (a NaN, whose payload "
        "could differ, makes H non-finite and is rejected)"),
    # -- one reduction of H and of r ------------------------------------------
    Mutant(
        "geometry-min-as-max", SURFACES,
        "\"min_mean_curvature\", np.minimum.reduce(h, axis=None)",
        "\"min_mean_curvature\", np.maximum.reduce(h, axis=None)",
        "min_mean_curvature feeds the mean-convexity checks, min_H and the "
        "Heintze-Karcher gap"),
    Mutant(
        "geometry-max-finiteness-dropped", SURFACES,
        "    if not (math.isfinite(lo) and math.isfinite(hi)):\n"
        "        raise FlowSingularError(\"non-finite mean curvature\")\n",
        "    if not math.isfinite(lo):\n"
        "        raise FlowSingularError(\"non-finite mean curvature\")\n",
        "a +inf node of H is the max, not the min; without the max the "
        "geometry accepts it"),
    Mutant(
        "geometry-max-as-min", SURFACES,
        "lo, hi = h.item(h.argmin()), h.item(h.argmax())",
        "lo, hi = h.item(h.argmin()), h.item(h.argmin())",
        "the max of H is read only by the finiteness check, where it is the "
        "one that finds a +inf node"),
    Mutant(
        "geometry-check-min-as-max", SURFACES,
        "lo, hi = h.item(h.argmin()), h.item(h.argmax())",
        "lo, hi = h.item(h.argmax()), h.item(h.argmax())",
        "the finiteness check reads H as the kernel returned it; its min is "
        "the one that finds a -inf node"),
    Mutant(
        "radius-min-as-max", SURFACES,
        "lo, hi = r.item(r.argmin()), r.item(r.argmax())",
        "lo, hi = r.item(r.argmax()), r.item(r.argmax())",
        "the horizon check reads the min of r; the max lets a dip below the "
        "horizon through"),
    Mutant(
        "radius-min-method-equivalent", SURFACES,
        "lo, hi = r.item(r.argmin()), r.item(r.argmax())",
        "lo, hi = r.min(), r.max()",
        "the form before the per-call cost was cut",
        equivalent="both give the least and greatest value of r, and a NaN "
        "whenever r holds one (argmin and argmax return the first NaN; the "
        "ufunc reductions propagate it); they can differ only in the sign of "
        "a zero, which none of the checks (<, <=, >, hi - lo == 0) can see"),
    Mutant(
        "cfl-min-as-max", FLOW,
        "return cfl * local.item(local.argmin())",
        "return cfl * local.item(local.argmax())",
        "the stable step is set by the most restrictive node; the least one "
        "lets the flow step past the stability limit"),
    # -- stepper inputs -------------------------------------------------------
    Mutant(
        "predicate-admits-inf", FLOW,
        "if not (value < math.inf and",
        "if not (value <= math.inf and",
        "an infinite step fraction lifts the CFL bound; an infinite floor "
        "rejects every surface"),
    Mutant(
        "predicate-admits-nan", FLOW,
        "if not (value < math.inf and (value > 0.0 if positive else value >= 0.0)):",
        "if value >= math.inf or (value <= 0.0 if positive else value < 0.0):",
        "every comparison is False on NaN, so the inverted form admits it: a "
        "NaN floor switches the mean-convexity check off"),
    Mutant(
        "step-dt-check-dropped", FLOW,
        "    _check_finite(\"dt\", dt)\n",
        "",
        "a negative dt steps the flow back in time"),
    Mutant(
        "step-dt-zero-admitted", FLOW,
        "    _check_finite(\"dt\", dt)\n",
        "    _check_finite(\"dt\", dt, positive=False)\n",
        "dt = 0 is counted as a step and never reaches t_end"),
    Mutant(
        "step-h_floor-check-dropped", FLOW,
        "    _check_finite(\"h_floor\", h_floor, positive=False)\n",
        "",
        "a NaN floor passes every step, whatever H is"),
    Mutant(
        "cfl_limit-cfl-check-dropped", FLOW,
        "    _check_finite(\"cfl\", cfl)\n",
        "",
        "cfl = inf makes the limit inf, and a step 50x over the stability "
        "limit passes"),
    Mutant(
        "slice-dt-check-dropped", FLOW,
        "    _check_finite(\"dt\", dt, positive=False)\n",
        "",
        "the exact slice step accepts a negative dt"),
    Mutant(
        "step-zero-limit-admitted", FLOW,
        "    if not limit > 0.0:\n"
        "        raise FlowSingularError(f\"stability limit {limit:.3e} is not positive\")\n",
        "",
        "where H^2 underflows above a zero floor the CFL limit, and so "
        "run_flow's dt, is 0: the flow must end as a singular abort, not "
        "raise a ValueError"),
    Mutant(
        "step-dt-checked-before-limit", FLOW,
        "    if not limit > 0.0:\n"
        "        raise FlowSingularError(f\"stability limit {limit:.3e} is not positive\")\n"
        "    _check_finite(\"dt\", dt)\n",
        "    _check_finite(\"dt\", dt)\n"
        "    if not limit > 0.0:\n"
        "        raise FlowSingularError(f\"stability limit {limit:.3e} is not positive\")\n",
        "a zero limit gives run_flow dt = 0, which the dt check would report "
        "as a bad argument instead of a singular flow"),
    # -- pinned work counts ---------------------------------------------------
    Mutant(
        "flow-extra-cfl-bound", FLOW,
        "dt = min(cfl_limit(state.surface, controls.cfl), next_sample - state.time)",
        "dt = min(cfl_limit(state.surface, controls.cfl),\n"
        "                         cfl_limit(state.surface, controls.cfl), "
        "next_sample - state.time)",
        "a third CFL bound per step: the same trace, more work"),
    Mutant(
        "sample-row-extra-integral", FLOW,
        "        surface.area(),\n",
        "        surface.area() + 0.0 * surface.area(),\n",
        "a twelfth quadrature per sample row: the same trace, more work"),
]
