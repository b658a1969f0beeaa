"""Operation timing at a reference machine speed.

The benchmark was built on a 2-core VM whose host slows it by up to about
1.6x for seconds to minutes at a time, with no steal time reported.  A
wall-time median over a short run then mostly says which speed the run
fell in.  So next to each operation's wall time the clock times a fixed
reference task of the same kind, and scales the operation by how much
slower than nominal the reference ran:

    normalized = seconds * NOMINAL / mean(reference samples)

- ``kernel``: numpy stencils, numpy calls on short arrays and a Python
  loop, in-process.  Sampled before and after the operation and, through
  SIGALRM, every PERIOD_S during it; the sampling time is left out of the
  operation's seconds.
- ``process``: a fresh interpreter importing a fixed set of stdlib
  modules, for operations that are themselves processes.  Sampled before
  and after only, so that it never runs next to the operation.

The reference tasks use nothing from the package, so a change to the
package cannot move them.
"""

import signal
import statistics
import subprocess
import sys
from time import perf_counter

PERIOD_S = 0.5
PROCESS_ARGV = [sys.executable, "-c", "import argparse, decimal, email.parser, "
                "http.client, json, unittest, xml.dom.minidom"]


def kernel_s():
    """Mean time of 3 rounds of stencils on a 64x64 array, numpy calls on
    128 values (where call overhead dominates), and a Python loop."""
    import numpy as np

    grid = np.linspace(1.0, 2.0, 4096).reshape(64, 64)
    line = np.linspace(1.0, 2.0, 128)
    start = perf_counter()
    for _ in range(3):
        for _ in range(100):
            b = np.roll(grid, 1, 0) - 2.0 * grid + np.roll(grid, -1, 1)
            np.sqrt(b * b + 1.0) / (grid + 1.0)
        for _ in range(300):
            c = np.concatenate(([line[1]], line, [line[-2]]))
            np.sqrt(c[2:] * c[:-2] + 1.0) / line
        total = 0
        for i in range(10000):
            total += i * i
    return (perf_counter() - start) / 3


def process_s():
    start = perf_counter()
    subprocess.run(PROCESS_ARGV, capture_output=True, check=True, timeout=60)
    return perf_counter() - start


# kind: (probe, nominal seconds: about what the probe takes on the quiet machine)
REFERENCES = {"kernel": (kernel_s, 0.006), "process": (process_s, 0.1)}


class Clock:
    """Times operations; with a reference kind, also at the reference speed."""

    def __init__(self, kind=None):
        self.probe, self.nominal = REFERENCES[kind] if kind else (None, None)
        self.in_operation = kind == "kernel"
        self.samples = []
        self._last = None

    def _sample(self):
        self._last = self.probe()
        self.samples.append(self._last)
        return self._last

    def time(self, fn):
        """Run fn(); return (its result, seconds, seconds at the reference speed)."""
        if self.probe is None:
            start = perf_counter()
            result = fn()
            seconds = perf_counter() - start
            return result, seconds, seconds
        probes = [self._last if self._last is not None else self._sample()]
        paused = 0.0

        def sample(signum, frame):
            nonlocal paused
            begin = perf_counter()
            probes.append(self._sample())
            paused += perf_counter() - begin

        if self.in_operation:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            elapsed = perf_counter() - start
            if self.in_operation:
                # Stop the timer before restoring the handler: a late signal
                # under the default handler would end the process.
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        probes.append(self._sample())
        seconds = elapsed - paused
        return result, seconds, seconds * self.nominal / statistics.fmean(probes)
