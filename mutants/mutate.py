"""Run the mutation table against the oracle-only test suite.

    python3 mutants/mutate.py                 # every mutant in table.py

Each mutant runs in a fresh copy of the repository (without ``.git`` and
work files) under a temporary directory (``--workdir`` sets its parent,
which must lie outside the repository), with its one text replacement
applied, as ``python -m pytest -m "not byte_pin" tests`` with the copy's
``src`` first on PYTHONPATH.  Golden, digest and bitwise-reference tests
are deselected, so a mutant counts as caught only by an oracle that would
survive a numerical change.  Each mutant runs the whole suite, and every
test that fails (kills it) is printed under its row.  The run ends with the
rows that one test function alone kills, its parametrize ids merged into the
function: a test may be removed only if no row names it there, or if a
remaining test is written to kill that row too.

Each pytest child runs under an address-space bound (RLIMIT_AS, 4 GiB;
the suite itself peaks near 130 MB), so that a mutant that makes memory
grow without end stops with a MemoryError instead of taking the machine's
memory.  A child whose output shows a MemoryError is reported as an error,
not as caught, whatever its exit code.

A mutant is caught when pytest exits 1 (a test failed).  The run passes
when every mutant is caught, except those listed as equivalent, which must
survive; it exits 0 then and 1 otherwise.  Stdlib only.
"""

import argparse
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from table import MUTANTS  # noqa: E402

SKIPPED = shutil.ignore_patterns(".git", ".bench_build", "__pycache__", ".pytest_cache",
                                 ".hypothesis")
FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)
TIMEOUT_S = 600.0  # per mutant; the whole oracle suite takes about half a minute
MEMORY_BYTES = 4 * 2**30  # address space of each pytest child


def bound_memory():
    """Run in the child before exec: cap its address space at MEMORY_BYTES."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def outcome_of(done):
    """'survived', 'caught' or 'error ...' of a finished pytest child, with
    the ids of its failed tests or, for an error, its last output line."""
    output = done.stdout + done.stderr
    failures = FAILED.findall(done.stdout)
    if "MemoryError" in output:
        return "error memory", failures or output.strip().splitlines()[-1:]
    if done.returncode in (0, 1):
        return ("survived", "caught")[done.returncode], failures
    return f"error {done.returncode}", output.strip().splitlines()[-1:]


def apply(root, mutant):
    """Write the mutant into the copy at root; its old text must occur once."""
    path = os.path.join(root, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: old text occurs {found} times in {mutant.path}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def run_one(mutant, workdir):
    top = tempfile.mkdtemp(prefix="mutant-", dir=workdir)
    root = os.path.join(top, "repo")
    try:
        shutil.copytree(ROOT, root, ignore=SKIPPED)
        apply(root, mutant)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "-m", "not byte_pin", "tests"]
        start = perf_counter()
        try:
            done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S, preexec_fn=bound_memory)
        except subprocess.TimeoutExpired:
            return "timeout", [], perf_counter() - start
        return (*outcome_of(done), perf_counter() - start)
    finally:
        shutil.rmtree(top, ignore_errors=True)


def sole_killers(killers):
    """{row: the one test function that kills it} over {row: its killing test
    ids}, for the rows whose killers are the cases of a single function."""
    sole = {}
    for name, ids in killers.items():
        functions = {test_id.partition("[")[0] for test_id in ids}
        if len(functions) == 1:
            sole[name] = functions.pop()
    return sole


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None, help="parent of the temporary copies")
    args = parser.parse_args(argv)
    parent = os.path.realpath(args.workdir or tempfile.gettempdir())
    if os.path.commonpath([parent, os.path.realpath(ROOT)]) == os.path.realpath(ROOT):
        parser.error("--workdir must lie outside the repository")

    bad, killers = 0, {}
    for m in MUTANTS:
        outcome, failures, seconds = run_one(m, args.workdir)
        expected = "survived" if m.equivalent else "caught"
        ok = outcome == expected
        bad += not ok
        label = outcome + (" (equivalent)" if m.equivalent else "")
        print(f"{'ok ' if ok else 'BAD'} {m.name:36s} {label:22s} {seconds:6.1f} s", flush=True)
        for failure in failures:
            print(f"      {failure}")
        if outcome == "caught":
            killers[m.name] = failures
    sole = sole_killers(killers)
    print(f"{len(sole)} rows killed by one test function alone:")
    for name, function in sole.items():
        print(f"    {name:36s} {function}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
