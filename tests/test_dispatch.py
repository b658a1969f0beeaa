"""The byte pins do not depend on numpy's SIMD dispatch.

numpy picks each ufunc loop at import, by the CPU: its AVX-512 ``pow`` and
``exp`` loops can differ from its baseline loops by an ulp.  So a pinned byte
must come only from correctly rounded operations (+, -, *, /, sqrt), from
libm, or from reductions whose order numpy fixes.  This test reruns every
other ``byte_pin`` test with each dispatch target that this CPU enables
switched off, as numpy's baseline loops on a CPU without them would run.
"""

import os
import subprocess
import sys

import pytest

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.byte_pin
def test_byte_pins_hold_at_the_baseline_dispatch(capsys):
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not enabled:
        with capsys.disabled():
            print(f"\n[dispatch] no dispatch target enabled beyond {umath.__cpu_baseline__}: "
                  "the byte pins already ran at the baseline")
        return
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(enabled),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    this = f"{os.path.relpath(__file__, ROOT)}::test_byte_pins_hold_at_the_baseline_dispatch"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-m", "byte_pin",
         "--deselect", this, "tests"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, f"{enabled} disabled:\n{done.stdout[-3000:]}{done.stderr[-2000:]}"
