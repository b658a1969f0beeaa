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
FUNCTIONALS = "src/kottler_imcf/functionals.py"
CLI = "src/kottler_imcf/cli.py"

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
        "return tuple(_division_by(c) for c in (2.0 * h, h**2))",
        "return tuple(_division_by(c) for c in (2.0 * h, 2.0 * h**2))",
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
    Mutant(
        "sphere-f1-term-1e-6", SURFACES,
        "    k1 += grad_sq * 0.5 * f1 / f\n",
        "    k1 += grad_sq * 0.5000005 * f1 / f\n",
        "a 1e-6 relative fault in the f'/(2f) term of h_tt, which the stencils' "
        "O(h^2) error hides; only the oracles fed exact derivatives (through "
        "_sphere_stencils) see it"),
    # -- one reduction of H and of r ------------------------------------------
    Mutant(
        "geometry-min-as-max", SURFACES,
        "        low = h.item(h.argmin())\n",
        "        low = h.item(h.argmax())\n",
        "min_mean_curvature feeds the mean-convexity checks, min_H and the "
        "Heintze-Karcher gap"),
    Mutant(
        "geometry-min-zero-tie-dropped", SURFACES,
        "        if low == 0.0:\n"
        "            low = np.minimum.reduce(h, axis=None).item()\n",
        "",
        "argmin gives the first zero of a -0/+0 tie and the reduction may "
        "give the other; min_H keeps the reduction's bits, sign of zero "
        "included"),
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
        "lo, hi = geom.min_mean_curvature, h.item(h.argmax())",
        "lo, hi = geom.min_mean_curvature, h.item(h.argmin())",
        "the max of H is read only by the finiteness check, where it is the "
        "one that finds a +inf node"),
    Mutant(
        "geometry-check-min-as-max", SURFACES,
        "lo, hi = geom.min_mean_curvature, h.item(h.argmax())",
        "lo, hi = h.item(h.argmax()), h.item(h.argmax())",
        "the finiteness check reads the geometry's min of H, the one that "
        "finds a -inf node"),
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
        "horizon-touch-admitted", SURFACES,
        "            if hi > lo:\n"
        "                raise ExteriorError(\"a non-constant surface must not touch the horizon\")\n",
        "",
        "the graph kernels divide by V^2, which at a horizon node rounds to "
        "either side of 0; only the constant horizon slice may touch it"),
    Mutant(
        "cfl-min-as-max", FLOW,
        "return CFL * grid.stable_step * local.item(local.argmin())",
        "return CFL * grid.stable_step * local.item(local.argmax())",
        "the stable step is set by the most restrictive node; the least one "
        "lets the flow step past the stability limit"),
    Mutant(
        "sphere-step-ratio-dropped", BASE,
        "    stable_step = 1.063\n",
        "    stable_step = 0.645\n",
        "the sphere takes the torus's stable step, 0.36 of its own stability "
        "limit: the same trace to within its time error, at 1.65 times the steps"),
    Mutant(
        "torus-takes-the-sphere-ratio", BASE,
        "    stable_step = 0.645\n",
        "    stable_step = 1.063\n",
        "the torus's two-axis stencil is 1.65 times stiffer than the sphere's: "
        "with the sphere's stable step it steps at 0.99 of its own limit"),
    Mutant(
        "step-share-past-the-limit", FLOW,
        "CFL = 0.6\n",
        "CFL = 1.5\n",
        "a full step's lambda dt is 5.15 F CFL = 35.5, 1.39 times its row's "
        "damped interval 25.57: each flow's high modes grow instead of decaying"),
    # -- stepper inputs -------------------------------------------------------
    Mutant(
        "predicate-admits-inf", FLOW,
        "if not (value < math.inf and",
        "if not (value <= math.inf and",
        "an infinite t_end or sample_interval never ends a flow, and an "
        "infinite slice step makes the radius infinite"),
    Mutant(
        "predicate-admits-nan", FLOW,
        "if not (value < math.inf and value > 0.0):",
        "if value >= math.inf or value <= 0.0:",
        "every comparison is False on NaN, so the inverted form admits it: a "
        "NaN t_end or sample_interval never ends a flow, and a NaN dt makes "
        "the whole field NaN"),
    Mutant(
        "step-dt-check-dropped", FLOW,
        "    _check_finite(\"dt\", dt)\n    surface = state.surface\n",
        "    surface = state.surface\n",
        "a negative dt steps the flow back in time, and an infinite one is "
        "cut to the limit instead of rejected"),
    Mutant(
        "step-dt-zero-admitted", FLOW,
        "    _check_finite(\"dt\", dt)\n    surface = state.surface\n",
        "    if dt != 0.0:\n        _check_finite(\"dt\", dt)\n    surface = state.surface\n",
        "dt = 0 is counted as a step and never reaches t_end"),
    Mutant(
        "slice-dt-check-dropped", FLOW,
        "        raise ValueError(\"slice ODE step requires a constant graph\")\n"
        "    _check_finite(\"dt\", dt)\n",
        "        raise ValueError(\"slice ODE step requires a constant graph\")\n",
        "the exact slice step accepts a negative dt, and dt = 0 counts as a step"),
    Mutant(
        "step-limit-ignored", FLOW,
        "    dt = min(dt, F * limit)\n",
        "",
        "the step computes its stability limit and takes the requested dt: "
        "run_flow's request to the next sample time is then past every row's "
        "damped interval, and no row covers it"),
    # -- the integrating-factor stabilized step --------------------------------
    Mutant(
        "cfl-bound-graph-factor-restored", FLOW,
        "    local *= surface.geometry.mean_curvature\n",
        "    local *= surface.geometry.mean_curvature\n"
        "    local /= surface.geometry.graph_factor\n",
        "the graph factor cancels from the linearized speed; dividing the bound "
        "by its square again gives a trace as good, at about 13 times the steps "
        "on the torus acceptance flow"),
    Mutant(
        "step-stage-time-factor-dropped", FLOW,
        "        stage = np.multiply(u, grown)\n",
        "        stage = np.multiply(u, 1.0)\n",
        "a substep at c dt evaluates k at r = e^{c dt/2} u; without the factor it "
        "evaluates k at u, an r short by about c dt/2 r, so the step falls to "
        "first order"),
    Mutant(
        "step-slice-growth-truncated", FLOW,
        "    u *= math.exp(half)\n",
        "    u *= 1.0 + half + 0.5 * half * half\n",
        "the slice mode is exact only where u grows back by e^{dt/2}; its "
        "quadratic Taylor polynomial is short by dt^3/48 relative per step"),
    Mutant(
        "step-gamma-off-order", FLOW,
        "(0.24168015678963012, 0.1365168878358362, 1.0980351394884504)",
        "(0.24168015678963012, 0.1365168878358362, 0.9)",
        "the full step's row with its pair's middle stage at 0.9 in place of the "
        "solved gamma: w1 and w2 follow gamma, so R, and with it a constant "
        "graph's step, are unchanged, but sum b c^2 is off 1/3 and the step is "
        "second order"),
    Mutant(
        "step-row-one-too-small", FLOW,
        "    _, (a, b, gamma), substeps = _ROWS[index]\n",
        "    _, (a, b, gamma), substeps = _ROWS[index - 1]\n",
        "each step takes the row below the one that covers it (a full step "
        "s = 7, whose damped interval 19.18 falls short of 5.15 F = 23.69), and "
        "the smallest steps the largest row"),
    Mutant(
        "step-factor-past-the-table", FLOW,
        "F = 4.6\n",
        "F = 5\n",
        "a full step at 5 times the bound needs a damped interval of 25.75, past "
        "the table's last row (25.57 at s = 8): no row covers it"),
    Mutant(
        "step-factor-short-of-the-last-row", FLOW,
        "F = 4.6\n",
        "F = 3.7\n",
        "a full step at 3.7 times the bound needs 19.06, which s = 7 covers: the "
        "table's last row is never taken, and each flow takes about a quarter "
        "more steps"),
    Mutant(
        "step-stage-skipped", FLOW,
        "    for h in substeps:\n",
        "    for h in substeps[1:]:\n",
        "with the stiffest substep skipped the weights sum to 1 - h_1, so the "
        "step is not even consistent; a constant graph, whose k is 0, still "
        "steps exactly, and a step makes one evaluation fewer"),
    # -- the flow's floors ----------------------------------------------------
    Mutant(
        "h_floor-edge-admitted", FLOW,
        "    if min_h <= H_FLOOR:\n",
        "    if min_h < H_FLOOR:\n",
        "the mean-curvature floor is the last value that aborts a step; a "
        "node of H at the floor must not be stepped"),
    Mutant(
        "star_floor-edge-rejected", SURFACES,
        "return bool(np.min(surface.geometry.alignment) >= floor)",
        "return bool(np.min(surface.geometry.alignment) > floor)",
        "the star-shape floor is the last alignment that starts a flow; a "
        "node at the floor must not reject it"),
    # -- the torus closed form and its workspace -------------------------------
    Mutant(
        "torus-cross-term-sign", SURFACES,
        "    b -= np.multiply(a, r12, a)\n",
        "    b += np.multiply(a, r12, a)\n",
        "N subtracts r2^2 r11 + r1^2 r22 - 2 r1 r2 r12; the wrong sign of "
        "2 r1 r2 r12 bends H wherever r1 r2 r12 is not 0"),
    Mutant(
        "torus-c-constant", SURFACES,
        "    sqrt_d += sqrt_d\n",
        "    sqrt_d += d\n",
        "c = 3 + r f'/(2f) puts 2 f r G into N's bracket as 2 (D + G); with 2 "
        "in place of the 3, one f r G drops out and H is short off the slices"),
    Mutant(
        "torus-mass-term-coefficient", SURFACES,
        "    g *= 3.0 * background.mass\n",
        "    g *= 2.0 * background.mass\n",
        "f r c G is 4 f r G + 3 m G, as r^3 = f r + 2m; 2m in place of 3m is the "
        "term of a lighter mass"),
    Mutant(
        "torus-mass-term-1e-6", SURFACES,
        "    g *= 3.0 * background.mass\n",
        "    g *= 3.000003 * background.mass\n",
        "a 1e-6 relative fault in N's 3 m G term, far below the stencils' O(h^2) "
        "error; the metric-inverse reference and H from exact derivatives see it"),
    Mutant(
        "torus-denominator-power", SURFACES,
        "    den = np.multiply(d, sqrt_d, a)\n",
        "    den = np.multiply(d, d, a)\n",
        "H = N / (r D sqrt(D)): gamma^{-1} gives 1/D and h gives 1/n_f = r/sqrt(D); "
        "D^2 for D^(3/2) scales H by 1/sqrt(D), about 1/9 at r = 3"),
    Mutant(
        "torus-shape-det-cross-sign", SURFACES,
        "            det_m = m11 * m22 - m12 * m12\n",
        "            det_m = m11 * m22 + m12 * m12\n",
        "det(M) = M11 M22 - M12^2; with the plus, |A0|^2 misses 4 f M12^2 / D^2 "
        "wherever the field varies along both axes"),
    Mutant(
        "torus-shape-m12-sign", SURFACES,
        "            m12 = fac * r1 * r2 - r12\n",
        "            m12 = fac * r1 * r2 + r12\n",
        "M12 = fac r1 r2 - r12, as h = M / n_f; adding r12 gives the shape "
        "of the mirrored cross derivative"),
    Mutant(
        "torus-grid-curvature-unchecked", BASE,
        "    curvature_sign = 0  # the torus kernel",
        "    curvature_sign = None  # the torus kernel",
        "the torus kernel drops k from V^2 = k + r^2 - 2m/r, so a torus grid "
        "under a curved base would give the potential of the wrong background"),
    Mutant(
        "sphere-grid-curvature-unchecked", BASE,
        "    curvature_sign = 1\n",
        "    curvature_sign = None\n",
        "the sphere grid's weights and cot(theta) are the round sphere's; without "
        "its sign it would pass under a flat or a genus-2 hyperbolic base of area 4 pi"),
    Mutant(
        "point-grid-area-unchecked", BASE,
        "        if self.grid.area != self.area:\n",
        "        if self.grid.area != self.area and not isinstance(self.grid, PointGrid):\n",
        "the point grid's one weight is its area; a point grid of area 1 under "
        "the sphere would give a slice at rho = 2 the area 4, not 16 pi"),
    Mutant(
        "torus-grid-area-unchecked", BASE,
        "        if self.grid.area != self.area:\n",
        "        if self.grid.area != self.area and not isinstance(self.grid, FlatTorusGrid):\n",
        "the torus weights integrate to side^2; a grid of area 1 under a base "
        "of area 2 would halve every surface integral"),
    Mutant(
        "torus-wrap-row", SURFACES,
        "    c[0], c[-1] = c[-2], c[1]\n",
        "    c[0], c[-1] = c[-2], c[2]\n",
        "row n+1 of the periodic extension is row 1; any other row breaks the "
        "stencils of the last row and, through right and left, its neighbours"),
    Mutant(
        "workspace-owner-unchecked", SURFACES,
        "if _workspaces.owner.get(n) is token:",
        "if _workspaces.owner.get(n) is not None:",
        "a deferred read after a later evaluation on the same grid must rerun "
        "the kernel, not read the slots that the later evaluation holds"),
    # -- the trace columns ----------------------------------------------------
    Mutant(
        "trace-min-max-H-swapped", FLOW,
        "        float(g.min_mean_curvature),\n"
        "        float(np.max(g.mean_curvature)),\n",
        "        float(np.max(g.mean_curvature)),\n"
        "        float(g.min_mean_curvature),\n",
        "min_H feeds the mean-convexity check and the acceptance tests' "
        "late-time fits; a swap leaves every value finite and every flow complete"),
    Mutant(
        "flow-end-slack-absolute", FLOW,
        "    slack = min(1e-12, 1e-6 * next_sample)\n",
        "    slack = 1e-12\n",
        "a t_end at or below an absolute slack takes no step, and its one-row "
        "trace at t = 0 reads complete"),
    # -- pinned work counts ---------------------------------------------------
    Mutant(
        "flow-extra-cfl-bound", FLOW,
        "    dt = min(dt, F * limit)\n",
        "    dt = min(dt, F * limit, F * cfl_limit(surface))\n",
        "a second CFL bound per step: the same trace, more work"),
    Mutant(
        "held-always-reruns", SURFACES,
        "        if _workspaces.owner.get(n) is token:\n            return slots\n",
        "",
        "a deferred read while the workspace still holds its evaluation reads the "
        "slots; rerunning the kernel gives the same bits and one more kernel run "
        "per geometry whose fields are read"),
    Mutant(
        "stage-reads-shape", FLOW,
        "def _velocity(surface):\n    _check_mean_convex(surface)\n",
        "def _velocity(surface):\n    _check_mean_convex(surface)\n"
        "    star_shaped_check(surface, STAR_FLOOR)\n",
        "a flow stage reads only H and the graph factor; one that reads the "
        "alignment runs both deferred groups on every stage geometry: the same "
        "trace, more work and memory per step"),
    Mutant(
        "sample-row-extra-integral", FLOW,
        "        surface.area(),\n",
        "        surface.integral(\"row_area\", lambda g: g.area_density),\n",
        "a sixth quadrature per sample row, under a name nothing else fills: "
        "the same trace, more work"),
    # -- one integral per geometry ----------------------------------------------
    Mutant(
        "integral-memo-on-surface", SURFACES,
        "        memo = g.derived\n",
        "        memo = vars(self).setdefault(\"_integrals\", {})\n",
        "a memo kept on the surface outlives its geometry: a geometry swapped in "
        "by dataclasses.replace reads the old geometry's integrals"),
    Mutant(
        "integral-memo-class-level", SURFACES,
        "derived: dict = dataclass_field(default_factory=dict,",
        "derived: dict = dataclass_field(default_factory=lambda shared={}: shared,",
        "one memo for every geometry: each surface reads the integrals of "
        "whichever surface was evaluated first"),
    Mutant(
        "integral-memo-name-collision", FUNCTIONALS,
        "surface.integral(\"int_V_over_H\",",
        "surface.integral(\"int_VH\",",
        "a lookup under another integral's name returns that integral: the "
        "Heintze-Karcher gap reads the total mean curvature"),
    Mutant(
        "bulk-memo-name-collision", FUNCTIONALS,
        "    return surface.integral(\"bulk\", integrand)\n",
        "    return surface.integral(\"int_VH\", integrand)\n",
        "the bulk shares the geometry's memo with the geometry integrals: under "
        "another's name it reads the total mean curvature, or gives it the "
        "bulk, whichever is asked first"),
    Mutant(
        "radius-field-writable", SURFACES,
        "        r.setflags(write=False)\n",
        "",
        "the field is checked, and the geometry and its memo computed, once: a "
        "write through the surface could lower a node below the horizon or "
        "leave a stale bulk in the memo"),
    # -- the mass integral far out ------------------------------------------------
    Mutant(
        "chmass-subtractive-u", BACKGROUND,
        "    u = (2.0 * background.mass / rho) / (background.v_squared(rho) * fbar_sq)\n",
        "    u = 1.0 / background.v_squared(rho) - 1.0 / fbar_sq\n",
        "1/V^2 - 1/fbar^2 by subtraction cancels every digit as 2m/rho^3 nears "
        "round-off: the mass estimate reads 0 from rho = 3e5 on"),
    # -- state derived, not stored ----------------------------------------------
    Mutant(
        "euler_char-from-genus-halved", BASE,
        "        return 2 - 2 * self.genus\n",
        "        return 2 - self.genus\n",
        "chi = 2 - 2g; 2 - g agrees on the sphere only, so the torus and the "
        "hyperbolic bases fail Gauss-Bonnet"),
    Mutant(
        "trace-complete-inverted", FLOW,
        "        return self.abort_reason is None\n",
        "        return self.abort_reason is not None\n",
        "complete is read by the flow_complete check and the exit code 3 of "
        "an aborted flow"),
    # -- the parse-time [surface] rules -----------------------------------------
    Mutant(
        "surface-zero-amplitude-modes-admitted", CLI,
        "        if modes and config.amplitude == 0.0:\n",
        "        if False:\n",
        "a mode key with amplitude 0 changes nothing, so it must be an error "
        "where it is read, by every subcommand"),
    Mutant(
        "surface-unread-key-admitted", CLI,
        "        if modes and len(config.mode) != grid.mode_axes:\n",
        "        if False:\n",
        "a mode list that the grid does not read (two numbers on a sphere, one "
        "on a torus) must not pass as if it took effect, or be cut or padded"),
    Mutant(
        "point-grid-amplitude-admitted", BASE,
        "        raise ValueError(\"a point grid carries constant graphs only\")\n",
        "        return np.zeros(1)\n",
        "amplitude on the point grid changes nothing, so it must be an error, "
        "not a slice audited as if the key took effect"),
    Mutant(
        "surface-vanishing-torus-modes-admitted", BASE,
        "        if (2 * m1) % self.n == 0 and (2 * m2) % self.n == 0:\n",
        "        if False:\n",
        "a torus field that is 0 on every node (up to round-off) would be "
        "audited as a non-slice graph"),
    # -- the parse-time key-value rules ------------------------------------------
    Mutant(
        "rho_eval-duplicate-radii-admitted", CLI,
        "lambda values: len(set(values)) == len(values)",
        "lambda values: True",
        "a repeated radius must be a config error at its line: the Richardson "
        "step divides by (r2/r1)^3 - 1, which is 0 when the two largest agree"),
    # -- inputs the library rejects -------------------------------------------
    Mutant(
        "resolution-truncated", BASE,
        "        if isinstance(grid_resolution, (float, np.floating))"
        " and not grid_resolution.is_integer():\n"
        "            raise InvalidBaseError(f\"resolution {grid_resolution!r} is not an integer\",\n"
        "                                   \"grid_resolution\")\n",
        "",
        "int() truncates: a resolution of 33.7 would build a 33-node grid, and "
        "an infinite one raises OverflowError, not a base error"),
    Mutant(
        "resolution-integrality-through-float", BASE,
        "isinstance(grid_resolution, (float, np.floating)) and not grid_resolution.is_integer",
        "not float(grid_resolution).is_integer",
        "float() of an integer past float range raises OverflowError: a 400-digit "
        "resolution must meet the grid bound as a base error, not crash the CLI"),
    Mutant(
        "base-error-names-another-argument", BASE,
        "raise InvalidBaseError(\"area of a curved base is fixed by Gauss-Bonnet\", \"area\")",
        "raise InvalidBaseError(\"area of a curved base is fixed by Gauss-Bonnet\", \"genus\")",
        "the config check reports the key that the base error names: a wrong "
        "name sends the user to a line that is not at fault"),
    Mutant(
        "richardson-repeated-radius-admitted", BACKGROUND,
        "    if len(set(rho_values)) != len(rho_values):\n"
        "        raise ValueError(f\"rho_eval radii must be distinct, got {rho_values}\")\n",
        "",
        "two equal largest radii make the Richardson step divide by "
        "(r2/r1)^3 - 1 = 0: a NaN mass with a RuntimeWarning"),
    Mutant(
        "static-residual-guard-absolute", BACKGROUND,
        "if np.any(rho <= background.horizon_rho * (1.0 + 1e-8)):",
        "if np.any(rho <= background.horizon_rho + 1e-8):",
        "an absolute margin rejects the audit's own sample radii, from 1.05 "
        "horizon radii on, below a horizon radius of 2e-7, and admits points "
        "on the horizon of a large one"),
    Mutant(
        "out-error-escapes", CLI,
        "    except OSError as err:\n        raise KottlerError(f\"cannot write --out",
        "    except () as err:\n        raise KottlerError(f\"cannot write --out",
        "an --out at or below a regular file, or an output path taken by a "
        "directory, is a traceback with exit 1, which README keeps for a "
        "failed check"),
    Mutant(
        "chmass-non-finite-radius-admitted", BACKGROUND,
        "    if not np.isfinite(rho):\n"
        "        raise ValueError(f\"rho_eval must be finite, got {rho}\")\n",
        "",
        "a NaN radius passes the preasymptotic guard and returns NaN, and an "
        "infinite one returns NaN with warnings"),
    # -- rules of item 3's list ----------------------------------------------
    Mutant(
        "scale-down-always-multiplies", BASE,
        "    if math.frexp(c)[0] == 0.5 and math.isfinite(1.0 / c):\n",
        "    if True:\n",
        "x * (1/c) rounds twice where c is not a power of two, so it leaves "
        "the bits of x / c"),
    Mutant(
        "torus-scales-always-reciprocal", BASE,
        "return tuple(_division_by(c) for c in (2.0 * h, h**2, 4.0 * h**2))",
        "return tuple((np.multiply, np.array(1.0 / c)) for c in (2.0 * h, h**2, 4.0 * h**2))",
        "a grid that caches the reciprocal of a scale that is not a power of "
        "two moves the bits of its stencils"),
    Mutant(
        "lower-rule-strict", CLI,
        "\"lower\": lambda value, bound, tol: value >= bound - tol,",
        "\"lower\": lambda value, bound, tol: value > bound - tol,",
        "a lower bound is met at equality: a complete flow's flow_complete "
        "value is exactly its bound, 1"),
    Mutant(
        "upper-rule-strict", CLI,
        "\"upper\": lambda value, bound, tol: value <= bound + tol,",
        "\"upper\": lambda value, bound, tol: value < bound + tol,",
        "an upper bound is met at equality, as the README's rule table says"),
    Mutant(
        "abs-rule-strict", CLI,
        "\"abs\": lambda value, bound, tol: abs(value - bound) <= tol,",
        "\"abs\": lambda value, bound, tol: abs(value - bound) < tol,",
        "a deviation equal to the tolerance passes, as the README's rule "
        "table says"),
    Mutant(
        "above-rule-admits-equality", CLI,
        "\"above\": lambda value, bound, tol: value > bound + tol,",
        "\"above\": lambda value, bound, tol: value >= bound + tol,",
        "mean_convex asks min H > 0: a flow whose H reaches 0 is not "
        "mean-convex"),
]
