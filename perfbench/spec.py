"""The benchmark's workloads and metrics, and the BENCHMARK.json built from them.

This table is the single source of the published metric set: ``run.py``
selects the metrics of its last output line from it, and
``python3 perfbench/run.py --write-manifest`` regenerates BENCHMARK.json
from it.  Stdlib only.
"""

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 12

WORKLOADS = {
    "torus-flow": "acceptance torus IMCF flow at 64x64 to t=3: the torus geometry stencils dominate",
    "sphere-flow": "acceptance sphere IMCF flow at 128 nodes to t=6: per-call fixed cost dominates",
    "cli-scenarios": "shipped scenarios as fresh CLI processes: interpreter start-up and import dominate",
    "audit-sweep": "seeded perturbed graphs through every functional: the functionals layer dominates",
}

# (name, unit, better, bound, meaning).  Every workload reports every one.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median of 5 fresh-interpreter set-ups at the reference speed: import, "
     "backgrounds, initial surfaces"),
    ("op_norm_s", "s", "lower", 0.24,
     "median time of one operation at the reference speed: run_flow to t_end "
     "(flow_wall_s), one CLI invocation (cli_wall_s), one surface (1/surfaces_per_s)"),
    ("peak_rss_mb", "MB", "lower", 0.05,
     "peak resident memory of the workload process (of its CLI children on cli-scenarios)"),
]

# (name, unit, better).  The per-layer metrics of the traced run that every
# workload measures; the full per-layer report is printed as text.
GRIDS = ("sphere64", "sphere128", "sphere256", "torus32", "torus64")
ROW_FUNCTIONALS = ("total_mean_curvature", "bulk_integral", "compute_Q", "compute_P",
                   "hawking_mass")
SWEEP_FUNCTIONALS = ("hk_gap", "minkowski_deficit", "areal_minkowski_deficit",
                     "evaluate_report")

PER_LAYER = (
    [("import.total_s", "s", "lower"),
     ("import.scipy_s", "s", "lower"),
     ("import.numpy_s", "s", "lower"),
     ("base.make_base.s", "s", "lower"),
     ("base.integrate.calls", "count", "lower"),
     ("base.integrate.self_s", "s", "lower"),
     ("base.integrate.calls_per_row", "count", "lower"),
     ("background.horizon_radius.self_s", "s", "lower"),
     ("surfaces.compute_geometry.calls", "count", "lower"),
     ("surfaces.compute_geometry.self_s", "s", "lower"),
     ("surfaces.compute_geometry.us_per_call", "us", "lower"),
     ("surfaces.compute_geometry.torus.calls", "count", "lower"),
     ("surfaces.compute_geometry.sphere.calls", "count", "lower"),
     ("surfaces.compute_geometry.slice.calls", "count", "lower"),
     ("surfaces.GraphSurface.calls", "count", "lower"),
     ("surfaces.GraphSurface.self_s", "s", "lower"),
     ("flow_steps", "count", "lower"),
     ("flow.cfl_limit.calls", "count", "lower"),
     ("flow.geometry_evals_per_step", "count", "lower"),
     ("functionals.self_s", "s", "lower")]
    + [(f"functionals.{f}.calls", "count", "lower")
       for f in ROW_FUNCTIONALS + SWEEP_FUNCTIONALS]
    + [(f"functionals.{f}.self_s", "s", "lower") for f in ROW_FUNCTIONALS]
    + [(f"us.{kernel}.{grid}", "us", "lower")
       for kernel in ("compute_geometry", "cfl_limit", "step_graph_pde") for grid in GRIDS]
    + [("us.evaluate_report.sphere128", "us", "lower"),
       ("us.evaluate_report.torus64", "us", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def manifest():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_manifest(path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest(), fh, indent=2)
        fh.write("\n")
