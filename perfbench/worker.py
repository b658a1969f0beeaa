"""Benchmark worker: one fresh interpreter that sets up a workload and runs it.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR

MODE is ``setup`` (set up, then exit), ``run`` (set up, then run the
workload untraced for SECONDS), ``trace`` (set up traced, run one
untraced and one traced operation) or ``micro`` (isolated per-call
timings; WORKLOAD and SEED are ignored).  After set-up the worker prints
``ready`` so that its parent can time set-up from process start; its
last output line is one JSON object with the results.  run.py starts it
with PYTHONPATH=src and every BLAS/OpenMP thread count set to 1.

Every workload is a closed loop on one thread: the next operation starts
only when the previous one has finished.
"""

import contextlib
import hashlib
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import timeit
from statistics import median
from time import perf_counter

from clock import Clock
from tracer import Tracer, load, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FLOWS = {
    # name: (curvature_sign, genus, resolution, mass, t_end)
    "torus-flow": (0, 1, 64, 0.5, 3.0),
    "sphere-flow": (1, 0, 128, 1.0, 6.0),
}
SAMPLE_INTERVAL = 0.125
AREA_GROWTH_TOL = 1e-4

CLI_RUNS = [
    ("flow", "slice-rigidity-hyperbolic"),
    ("flow", "slice-rigidity-sphere"),
    ("flow", "sphere-perturbed"),
    ("flow", "torus-perturbed"),
    ("audit", "spherical-area-window"),
    ("audit", "torus-uniqueness"),
    ("background", "slice-rigidity-sphere"),
    ("chmass", "slice-rigidity-sphere"),
]
WRITES = {"flow": ("_trace.csv", "_audit.json"), "audit": ("_audit.json",)}

SWEEP_GRIDS = [
    # label, make_background arguments
    ("sphere129", (1, 0, 129, 1.0)),
    ("sphere257", (1, 0, 257, 1.0)),
    ("torus32", (0, 1, 32, 0.5)),
    ("torus64", (0, 1, 64, 0.5)),
]
SWEEP_PER_GRID = 100
TORUS_MODES = [(1, 0), (0, 1), (1, 1)]


def flow_params(name, seed):
    """Initial-surface parameters of a flow workload; seed 0 is the acceptance flow."""
    rng = random.Random(seed)
    if name == "torus-flow":
        if seed == 0:
            return {"mode": (1, 0), "phase": 0.0, "amplitude": 0.1}
        return {"mode": rng.choice(TORUS_MODES), "phase": rng.uniform(0.0, 2.0 * math.pi),
                "amplitude": rng.uniform(0.08, 0.12)}
    if seed == 0:
        return {"mode": 1, "amplitude": 0.2}
    return {"mode": rng.choice([1, 2]), "amplitude": rng.uniform(0.15, 0.25)}


def cli_order(seed):
    runs = list(CLI_RUNS)
    if seed != 0:
        random.Random(seed).shuffle(runs)
    return runs


def sweep_params(seed):
    """(grid label, base radius, [(mode, amplitude, phase)]) for every sweep surface."""
    rng = random.Random(seed)
    family = []
    for _ in range(SWEEP_PER_GRID):
        for label, _ in SWEEP_GRIDS:
            if label.startswith("sphere"):
                terms = [(m, rng.uniform(-0.06, 0.06), 0.0) for m in (1, 2, 3)]
                family.append((label, rng.uniform(1.8, 2.6), terms))
            else:
                terms = [(m, rng.uniform(0.0, 0.04), rng.uniform(0.0, 2.0 * math.pi))
                         for m in TORUS_MODES]
                family.append((label, rng.uniform(2.5, 3.5), terms))
    return family


def digest(rows):
    """SHA-256 of values written at 17 significant digits, one row a line."""
    text = "\n".join(",".join(f"{x:.17g}" for x in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def tail_metric(name, times):
    """The highest percentile of ``times`` with at least 10 samples beyond it."""
    n = len(times)
    if n <= 10:
        return {name: (max(times), "s", f"max, n={n} <= 10")}
    p = math.floor(100.0 * (n - 10) / n)
    return {name: (sorted(times)[-11], "s", f"p{p}, n={n}")}


class FlowWorkload:
    """One IMCF flow from a seeded perturbed graph to t_end."""

    sample = "flows"
    round = 1  # operations that make up one repetition
    reference = "kernel"  # the clock's reference task (clock.py)

    def __init__(self, ki, np, name, seed):
        self.ki = ki
        self.np = np
        k, genus, n, mass, self.t_end = FLOWS[name]
        self.params = flow_params(name, seed)
        self.background = ki.make_background(k, genus, n, mass=mass)
        grid = self.background.base.grid
        amplitude = self.params["amplitude"]
        if k == 0:
            m1, m2 = self.params["mode"]
            phase = 2.0 * np.pi * (m1 * grid.theta1 + m2 * grid.theta2) / grid.side
            self.r0 = 3.0 + amplitude * np.sin(phase + self.params["phase"])
        else:
            self.r0 = 2.0 + amplitude * np.cos(self.params["mode"] * grid.theta)
        ki.GraphSurface(self.background, self.r0)  # the initial surface, validated
        self.digests = set()
        self.area_errors = []

    def op(self, clock):
        """One flow to t_end from a fresh surface: (seconds, normalized, failures, 1)."""
        surface = self.ki.GraphSurface(self.background, self.r0)
        trace, seconds, normalized = clock.time(
            lambda: self.ki.run_flow(surface, self.t_end, SAMPLE_INTERVAL))
        failed = self.check(trace)
        return seconds, normalized, ["; ".join(failed)] if failed else [], 1

    def check(self, trace):
        """The acceptance checks of one flow; returns what failed."""
        np = self.np
        failed = []
        if not trace.complete:
            failed.append(f"flow aborted: {trace.abort_reason}")
        t, area, q = trace.times, trace.column("area"), trace.column("Q")
        error = float(np.max(np.abs(area / (np.exp(t) * area[0]) - 1.0)))
        self.area_errors.append(error)
        if not error <= AREA_GROWTH_TOL:
            failed.append(f"area_growth_err {error:.3e} > {AREA_GROWTH_TOL}")
        if len(q) > 1 and not np.max(np.diff(q)) <= 1e-6 * max(1.0, abs(q[0])):
            failed.append("Q rises along the flow")
        mh = trace.column("hawking_mass")
        if self.background.curvature_sign == 1 and len(mh) > 1 \
                and not np.min(np.diff(mh)) >= -1e-6:
            failed.append("Hawking mass drops along the flow")
        if not np.all(np.isfinite(trace.data)):
            failed.append("non-finite trace value")
        self.digests.add(digest(trace.data))
        if len(self.digests) > 1:
            failed.append("trace differs between repeated flows")
        return failed

    def report(self, times):
        return {
            "flow_wall_s": (median(times), "s"),
            **tail_metric("flow_wall_s_tail", times),
            "area_growth_err": (max(self.area_errors), "1"),
            "trace_sha256": (sorted(self.digests)[0], "hex"),
        }


class CliWorkload:
    """The shipped scenarios as fresh `python -m kottler_imcf.cli` processes."""

    sample = "invocations"
    reference = "process"

    def __init__(self, seed, workdir):
        from kottler_imcf.cli import parse_config

        self.runs = cli_order(seed)
        self.configs = {}
        for _, scenario in self.runs:
            path = os.path.join(ROOT, "scenarios", scenario + ".cfg")
            with open(path, encoding="utf-8") as fh:
                parse_config(fh.read())
            self.configs[scenario] = path
        self.goldens = {}
        for command, scenario in self.runs:
            for suffix in WRITES.get(command, ()):
                with open(os.path.join(ROOT, "tests", "goldens", scenario + suffix), "rb") as fh:
                    self.goldens[scenario + suffix] = fh.read()
        self.out = os.path.join(workdir, "cli-out")
        self.spans_path = os.path.join(workdir, "cli-spans.csv")
        self.stdouts = {}
        self.round = len(self.runs)
        self.index = 0
        self.spans = None  # when tracing: the span list that child spans join
        self.root = -1

    def op(self, clock):
        """The next CLI process of the round, in the seeded order:
        (seconds, normalized, failures, 1)."""
        command, scenario = self.runs[self.index % self.round]
        self.index += 1
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        args = [command, "--config", self.configs[scenario], "--quiet"]
        if command in WRITES:
            args += ["--out", self.out]
        if self.spans is None:
            argv = [sys.executable, "-m", "kottler_imcf.cli"] + args
        else:
            argv = [sys.executable, os.path.join(HERE, "cli_child.py"), self.spans_path] + args
        proc, seconds, normalized = clock.time(
            lambda: subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=120))
        failed = []
        if proc.returncode != 0:
            failed.append(f"exit {proc.returncode}: "
                          f"{proc.stderr.decode(errors='replace').strip()[-200:]}")
        expected = {scenario + s for s in WRITES.get(command, ())}
        written = set(os.listdir(self.out))
        if written != expected:
            failed.append(f"wrote {sorted(written)}, expected {sorted(expected)}")
        for fname in sorted(expected & written):
            with open(os.path.join(self.out, fname), "rb") as fh:
                if fh.read() != self.goldens[fname]:
                    failed.append(f"golden mismatch: {fname}")
        if self.stdouts.setdefault((command, scenario), proc.stdout) != proc.stdout:
            failed.append("output differs between invocations")
        if self.spans is not None:
            base = len(self.spans)
            self.spans.extend([n, s, e, p + base if p >= 0 else self.root]
                              for n, s, e, p in load(self.spans_path))
            os.remove(self.spans_path)
        failures = [f"{command} {scenario}: " + "; ".join(failed)] if failed else []
        return seconds, normalized, failures, 1

    def report(self, times):
        return {"cli_wall_s": (median(times), "s"), **tail_metric("cli_wall_s_tail", times)}


class SweepWorkload:
    """Seeded perturbed star-shaped, mean-convex graphs through every functional."""

    sample = f"passes over {SWEEP_PER_GRID * len(SWEEP_GRIDS)} surfaces"
    round = 1
    reference = "kernel"

    def __init__(self, ki, np, seed):
        self.ki = ki
        backgrounds = {label: ki.make_background(k, g, n, mass=m)
                       for label, (k, g, n, m) in SWEEP_GRIDS}
        self.family = []
        for label, radius, terms in sweep_params(seed):
            background = backgrounds[label]
            grid = background.base.grid
            r = np.full(grid.weights.shape, radius)
            for mode, amplitude, phase in terms:
                if label.startswith("sphere"):
                    r = r + amplitude * np.cos(mode * grid.theta)
                else:
                    m1, m2 = mode
                    r = r + amplitude * np.sin(
                        2.0 * np.pi * (m1 * grid.theta1 + m2 * grid.theta2) / grid.side + phase)
            self.family.append((background, r))
        self.digests = set()

    def evaluate(self, background, r):
        ki = self.ki
        surface = ki.GraphSurface(background, r)
        report = ki.evaluate_report(surface)
        alone = (float(ki.hawking_mass(surface)), ki.hk_gap(surface),
                 ki.minkowski_deficit(surface), ki.areal_minkowski_deficit(surface))
        in_report = (report.hawking_mass, report.hk_gap, report.minkowski_deficit,
                     report.areal_minkowski_deficit)
        values = tuple(float(getattr(report, f)) for f in report.__dataclass_fields__) + alone
        failed = []
        if not all(math.isfinite(x) for x in values):
            failed.append("non-finite functional")
        if any(abs(a - b) > 1e-9 * max(1.0, abs(b)) for a, b in zip(alone, in_report)):
            failed.append("functional differs from evaluate_report")
        if report.hk_gap < -1e-6 or report.minkowski_deficit < -1e-6:
            failed.append("Heintze-Karcher or Minkowski inequality violated")
        return values, failed

    def op(self, clock):
        """One pass over the family: (seconds, normalized, failures, surfaces)."""
        results, seconds, normalized = clock.time(
            lambda: [self.evaluate(bg, r) for bg, r in self.family])
        failures = [f"surface {i}: " + "; ".join(failed)
                    for i, (_, failed) in enumerate(results) if failed]
        self.digests.add(digest(values for values, _ in results))
        if len(self.digests) > 1:
            failures.append("functional values differ between passes")
        return seconds, normalized, failures, len(results)

    def report(self, times):
        return {
            "surfaces_per_s": (median([1.0 / t for t in times]), "1/s"),
            **tail_metric("surface_wall_s_tail", times),
            "surfaces_per_pass": (len(self.family), "count"),
            "values_sha256": (sorted(self.digests)[0], "hex"),
        }


def setup(name, seed, workdir, tracer=None):
    """Import the package and build the workload, as a user would.

    With a tracer, the import is one span and set-up runs traced.
    """
    span = tracer.span if tracer else (lambda _: contextlib.nullcontext())
    with span("import.kottler_imcf"):
        import numpy as np
        import kottler_imcf as ki

        if name == "cli-scenarios":
            import kottler_imcf.cli  # noqa: F401  (bind its imports before tracing)
    source = os.path.join(ROOT, "src", "kottler_imcf")
    if os.path.dirname(os.path.abspath(ki.__file__)) != source:
        raise SystemExit(f"kottler_imcf imported from {ki.__file__}, not from {source}")
    if tracer:
        tracer.install()
    try:
        with span("harness.setup"):
            if name in FLOWS:
                return FlowWorkload(ki, np, name, seed)
            if name == "cli-scenarios":
                return CliWorkload(seed, workdir)
            return SweepWorkload(ki, np, seed)
    finally:
        if tracer:
            tracer.restore()


def run_untraced(workload, seconds):
    """Closed loop for ``seconds``, in whole rounds, and at least one."""
    clock = Clock(workload.reference)
    times, normalized, failures, attempted = [], [], [], 0
    start = perf_counter()
    while not times or len(times) % workload.round or perf_counter() - start < seconds:
        elapsed, scaled, failed, count = workload.op(clock)
        attempted += count
        failures.extend(failed)
        times.append(elapsed / count)
        normalized.append(scaled / count)
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliWorkload) else resource.RUSAGE_SELF
    references = clock.samples
    metrics = {
        "op_norm_s": (median(normalized), "s", "median, at the reference speed"),
        "op_wall_s": (median(times), "s", "median"),
        "reference_ms": (1e3 * median(references), "ms",
                         f"{workload.reference} reference, {len(references)} samples, "
                         f"{1e3 * min(references):.2f} to {1e3 * max(references):.2f}"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "samples": (len(times), "count", workload.sample),
    }
    metrics.update(workload.report(times))
    return attempted, failures, metrics


FUNCTIONALS = ("bulk_integral", "total_mean_curvature", "compute_Q", "compute_P",
               "hawking_mass", "hk_gap", "minkowski_deficit", "areal_minkowski_deficit",
               "evaluate_report")


def span_metrics(spans, run_root):
    """Per-layer metrics from the spans of set-up and one traced operation.

    Calls and times cover set-up and the operation; the layer shares
    cover the operation only, under the span named ``run_root``.
    """
    by_name, _, row_integrals, geometry_in_steps = summarize(spans)
    run_by_name, layers, _, _ = summarize(spans, root=run_root)
    run_total = sum(e - s for n, s, e, _ in spans if n == run_root)

    def get(name):
        return by_name.get(name, (0, 0.0, 0.0))

    m = {"base.make_base.s": (get("base.make_base")[1], "s")}
    calls, _, own = get("base.integrate")
    rows = get("flow.sample_row")[0]
    m["base.integrate.calls"] = (calls, "count")
    m["base.integrate.self_s"] = (own, "s")
    m["base.integrate.calls_per_row"] = (row_integrals / rows if rows else 0.0, "count")
    for name in ("background.horizon_radius", "background.static_residual"):
        m[name + ".self_s"] = (get(name)[2], "s")
    kinds = {k: get("surfaces.compute_geometry." + k) for k in ("torus", "sphere", "slice")}
    for kind, (calls, _, own) in [("", [sum(v) for v in zip(*kinds.values())])] + \
            [("." + k, v) for k, v in kinds.items()]:
        prefix = "surfaces.compute_geometry" + kind
        m[prefix + ".calls"] = (calls, "count")
        m[prefix + ".self_s"] = (own, "s")
        m[prefix + ".us_per_call"] = (1e6 * own / calls if calls else 0.0, "us")
    calls, _, own = get("surfaces.GraphSurface")
    m["surfaces.GraphSurface.calls"] = (calls, "count")
    m["surfaces.GraphSurface.self_s"] = (own, "s")
    steps, _, own = get("flow.step_graph_pde")
    m["flow_steps"] = (steps, "count")
    m["flow.step_graph_pde.self_s"] = (own, "s")
    calls, _, own = get("flow.cfl_limit")
    m["flow.cfl_limit.calls"] = (calls, "count")
    m["flow.cfl_limit.self_s"] = (own, "s")
    m["flow.run_flow.self_s"] = (get("flow.run_flow")[2], "s")
    m["flow.geometry_evals_per_step"] = (geometry_in_steps / steps if steps else 0.0, "count")
    m["flow.sample_rows"] = (rows, "count")
    functionals = sorted({n for n in by_name if n.startswith("functionals.")}
                         | {"functionals." + f for f in FUNCTIONALS})
    for name in functionals:
        calls, _, own = get(name)
        m[name + ".calls"] = (calls, "count")
        m[name + ".self_s"] = (own, "s")
    m["functionals.self_s"] = (sum(get(n)[2] for n in functionals), "s")
    m["cli.parse_config.s"] = (get("cli.parse_config")[1], "s")
    m["cli.run_scenario.self_s"] = (get("cli.run_scenario")[2], "s")
    m["cli.emit.s"] = (get("cli.emit")[1], "s")
    for layer in sorted(layers):
        m[f"share.{layer}"] = (100.0 * layers[layer] / run_total, "%")
    geometry = sum(v[2] for n, v in run_by_name.items()
                   if n.startswith("surfaces.compute_geometry."))
    m["share.outside_compute_geometry"] = (100.0 * (1.0 - geometry / run_total), "%")
    return m


def run_traced(workload, tracer):
    """One untraced operation, then the same operation traced."""
    clock = Clock()
    # One sweep pass is short enough for first-call costs to show: warm up first.
    warmup = [workload.op(clock)] if isinstance(workload, SweepWorkload) else []
    untraced = [workload.op(clock) for _ in range(workload.round)]
    if isinstance(workload, CliWorkload):
        # Child spans join this list under one root whose self time is the
        # interpreter start-up and exit outside the children's own spans.
        run_root = "interpreter.cli"
        workload.root = len(tracer.spans)
        tracer.spans.append([run_root, 0.0, 0.0, -1])
        workload.spans = tracer.spans
        traced = [workload.op(clock) for _ in range(workload.round)]
        tracer.spans[workload.root][2] = sum(t for t, *_ in traced)
    else:
        run_root = "harness.run"
        tracer.install()
        try:
            with tracer.span(run_root):
                traced = [workload.op(clock) for _ in range(workload.round)]
        finally:
            tracer.restore()
    untraced_s = sum(t for t, *_ in untraced)
    traced_s = sum(t for t, *_ in traced)
    metrics = span_metrics(tracer.spans, run_root)
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    results = warmup + untraced + traced
    failures = [f for *_, failed, _ in results for f in failed]
    return sum(c for *_, c in results), failures, metrics


def per_call_us(fn, repeat=5, target_s=0.02):
    start = perf_counter()
    fn()
    number = max(1, int(target_s / max(perf_counter() - start, 1e-7)))
    return 1e6 * median(timeit.Timer(fn).repeat(repeat, number)) / number


def micro():
    """Isolated microseconds per call of the step kernel on fixed inputs."""
    import numpy as np
    import kottler_imcf as ki

    metrics = {}
    for label, (k, genus, n, mass) in [
        ("sphere64", (1, 0, 64, 1.0)), ("sphere128", (1, 0, 128, 1.0)),
        ("sphere256", (1, 0, 256, 1.0)), ("torus32", (0, 1, 32, 0.5)),
        ("torus64", (0, 1, 64, 0.5)),
    ]:
        background = ki.make_background(k, genus, n, mass=mass)
        grid = background.base.grid
        if k == 1:
            r = 2.0 + 0.2 * np.cos(grid.theta)
        else:
            r = 3.0 + 0.1 * np.sin(2.0 * np.pi * grid.theta1 / grid.side)
        surface = ki.compute_geometry(ki.GraphSurface(background, r))
        state = ki.FlowState(0.0, surface, 0)
        dt = 0.5 * ki.cfl_limit(surface)
        metrics[f"us.compute_geometry.{label}"] = (
            per_call_us(lambda: ki.compute_geometry(surface)), "us")
        metrics[f"us.cfl_limit.{label}"] = (per_call_us(lambda: ki.cfl_limit(surface)), "us")
        metrics[f"us.step_graph_pde.{label}"] = (
            per_call_us(lambda: ki.step_graph_pde(state, dt)), "us")
        if label in ("sphere128", "torus64"):
            metrics[f"us.evaluate_report.{label}"] = (
                per_call_us(lambda: ki.evaluate_report(surface)), "us")
    return 1, [], metrics


def versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv):
    mode, name, seed, seconds, workdir = argv
    seed, seconds = int(seed), float(seconds)
    result = {}
    if mode == "micro":
        attempted, failures, metrics = micro()
    else:
        tracer = Tracer() if mode == "trace" else None
        workload = setup(name, seed, workdir, tracer)
        print("ready", flush=True)
        if mode == "setup":
            return 0
        if mode == "trace":
            attempted, failures, metrics = run_traced(workload, tracer)
            tracer.dump(os.path.join(workdir, f"spans-{name}-seed{seed}.csv"))
        else:
            attempted, failures, metrics = run_untraced(workload, seconds)
        if name in FLOWS:
            result["inputs"] = workload.params
    result.update(attempted=attempted, failures=failures, metrics=metrics, versions=versions())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
