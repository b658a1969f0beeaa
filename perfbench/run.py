"""kottler-imcf benchmark: time-to-solution of the IMCF flows, CLI start-up,
audit throughput, and per-module layer timings.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, in turn
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

Run it from anywhere; it finds the repository as the parent of its own
directory and imports the package from ``src/``.  Each workload runs in
fresh worker interpreters (worker.py) with every BLAS/OpenMP thread count
set to 1.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer metrics.
Every metric is printed as ``metric NAME VALUE UNIT``; the last line is
one JSON object with the published metrics of the chosen mode (see
spec.py).  Work files go to ``.bench_build/perfbench/``.  The workloads,
seeds and metrics are described in README.md next to this file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import monotonic, perf_counter

import clock
import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUPS = 5        # fresh-interpreter set-ups per run; setup_s is their median
IMPORT_RUNS = 3   # `-X importtime` runs per traced run
BUDGET_S = 170.0  # a run ends within this, whatever the workload


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def require_sources(workload):
    needed = [os.path.join(ROOT, "src", "kottler_imcf", "__init__.py")]
    if workload == "cli-scenarios":
        needed += [os.path.join(ROOT, "scenarios"), os.path.join(ROOT, "tests", "goldens")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        raise BenchError(f"missing program sources: {', '.join(missing)}")


def spawn(argv, deadline, ready=False):
    """Run a child to completion within the deadline.

    Returns (seconds from start until it printed ``ready``, or None; its
    last stdout line parsed as JSON, or None).  stderr goes to a file so
    that a chatty child cannot block on a full pipe.
    """
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    err_path = os.path.join(WORKDIR, "child-stderr.txt")
    with open(err_path, "w+", encoding="utf-8") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, text=True)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            setup_s = None
            if ready:
                first = proc.stdout.readline()
                setup_s = perf_counter() - start
                if first.strip() != "ready":
                    setup_s = None
            out = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if code != 0 or (ready and setup_s is None):
            err.seek(0)
            raise BenchError(f"{' '.join(argv[1:])} exited {code}: {err.read()[-2000:]}")
    lines = out.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def worker(mode, workload, seed, seconds, deadline):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed),
            str(seconds), WORKDIR]
    return spawn(argv, deadline, ready=mode != "micro")


def parse_importtime(text):
    """{module: (cumulative_s, depth, ancestors)} from `-X importtime` output."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((name.strip(), int(cumulative) / 1e6, depth))
    # Output is in post-order (children first); walk it backwards so each
    # entry comes after its ancestors.
    entries, stack = {}, []
    for name, cumulative, depth in reversed(rows):
        while stack and stack[-1][1] >= depth:
            stack.pop()
        entries[name] = (cumulative, depth, tuple(n for n, _ in stack))
        stack.append((name, depth))
    return entries


def outermost(entries, package, inside_of=()):
    """Cumulative import time of ``package`` and its submodules, counted once,
    leaving out imports made from inside the packages ``inside_of``."""
    def of(name, packages):
        return any(name == p or name.startswith(p + ".") for p in packages)

    skip = (package,) + tuple(inside_of)
    return sum(c for name, (c, _, up) in entries.items()
               if of(name, (package,)) and not any(of(a, skip) for a in up))


def measure_importtime(deadline):
    runs = []
    for _ in range(IMPORT_RUNS):
        argv = [sys.executable, "-X", "importtime", "-c", "import kottler_imcf"]
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"import kottler_imcf failed: {proc.stderr[-2000:]}")
        runs.append(parse_importtime(proc.stderr))
    metrics = {
        "import.total_s": (statistics.median(r["kottler_imcf"][0] for r in runs), "s"),
        "import.scipy_s": (statistics.median(outermost(r, "scipy") for r in runs), "s"),
        "import.numpy_s": (statistics.median(outermost(r, "numpy", ("scipy",)) for r in runs),
                           "s", "outside scipy's own imports"),
    }
    total = metrics["import.total_s"][0]
    first = runs[0]
    for name, (_, depth, up) in sorted(first.items(), key=lambda kv: -kv[1][0]):
        if "kottler_imcf" in up and depth <= 3 and all(name in r for r in runs):
            value = statistics.median(r[name][0] for r in runs)
            if value >= 0.05 * total:
                metrics[f"import.breakdown.{name}"] = (value, "s", f"depth {depth}, cumulative")
    return metrics


def environment(versions):
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    src_lines = 0
    for top, _, files in os.walk(os.path.join(ROOT, "src")):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(top, fname), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        **versions,
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "src_lines": src_lines,
    }


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (metrics, attempted, failures, environment, inputs)."""
    require_sources(name)
    os.makedirs(WORKDIR, exist_ok=True)
    deadline = monotonic() + BUDGET_S
    probe, nominal = clock.REFERENCES["process"]
    setups, scaled = [], []

    def set_up(mode):
        """One worker; its set-up time is scaled by the process reference just before it."""
        reference = probe()
        setup_s, result = worker(mode, name, seed, seconds, deadline)
        setups.append(setup_s)
        scaled.append(setup_s * nominal / reference)
        return result

    # Set-ups before and after the workload sample the machine at both ends of the run.
    for _ in range(SETUPS // 2):
        set_up("setup")
    result = set_up("trace" if trace else "run")
    while len(setups) < SETUPS:
        set_up("setup")
    metrics = {
        "setup_s": (statistics.median(scaled), "s",
                    f"median of {SETUPS}, at the reference speed"),
        "setup_wall_s": (statistics.median(setups), "s",
                         f"median of {SETUPS}: " + ", ".join(f"{s:.4f}" for s in setups)),
    }
    metrics.update((k, tuple(v)) for k, v in result["metrics"].items())
    attempted, failures = result["attempted"], list(result["failures"])
    if trace:
        metrics.update(measure_importtime(deadline))
        _, micro = worker("micro", name, seed, seconds, deadline)
        metrics.update((k, tuple(v)) for k, v in micro["metrics"].items())
    metrics["fail_ratio"] = (len(failures) / attempted, "1", f"{len(failures)} of {attempted}")
    return metrics, attempted, failures, environment(result["versions"]), result.get("inputs")


def fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


def report(name, seed, seconds, trace):
    """Run, print every metric, and return the last-line JSON object."""
    metrics, attempted, failures, env, inputs = run_workload(name, seed, seconds, trace)
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    if inputs:
        print("inputs " + json.dumps(inputs))
    for key in sorted(metrics):
        value, unit, *note = metrics[key]
        print(f"metric {key} {fmt(value)} {unit}" + (f"  # {note[0]}" if note else ""))
    for failure in failures:
        print(f"failure {failure}")
    published = [n for n, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)]
    missing = [n for n in published if n not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in published},
    }
    with open(os.path.join(WORKDIR, f"result-{name}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "inputs": inputs, "summary": summary,
                   "metrics": {k: list(v) for k, v in metrics.items()}}, fh, indent=1)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        spec.write_manifest(os.path.join(ROOT, "BENCHMARK.json"))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = {n: report(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{n}.{m}": v for n, s in summaries.items()
                        for m, v in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
