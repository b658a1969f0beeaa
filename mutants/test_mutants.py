"""The mutation table's own checks: every row applies to today's tree.

    python3 -m pytest mutants -q

These read the table and the source; they run no mutant (mutate.py does).
"""

import os
import subprocess
import sys

import pytest

from mutate import MEMORY_BYTES, ROOT, apply, bound_memory, outcome_of, sole_killers
from table import MUTANTS


def test_names_are_unique_and_the_table_is_seeded():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names)) >= 8


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_once_and_changes_the_text(mutant, tmp_path):
    assert mutant.new != mutant.old and mutant.why
    target = tmp_path / mutant.path
    target.parent.mkdir(parents=True)
    with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as fh:
        target.write_text(fh.read(), encoding="utf-8")
    apply(str(tmp_path), mutant)
    assert mutant.new in target.read_text(encoding="utf-8")


def test_apply_rejects_an_old_text_that_is_not_unique(tmp_path):
    mutant = MUTANTS[0]
    target = tmp_path / mutant.path
    target.parent.mkdir(parents=True)
    target.write_text(mutant.old * 2, encoding="utf-8")
    with pytest.raises(ValueError, match="occurs 2 times"):
        apply(str(tmp_path), mutant)


def test_pytest_children_run_under_the_memory_bound():
    probe = "import resource; print(*resource.getrlimit(resource.RLIMIT_AS))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, preexec_fn=bound_memory)
    assert done.stdout.split() == [str(MEMORY_BYTES)] * 2


@pytest.mark.parametrize("code, stdout, expected", [
    (0, "5 passed\n", ("survived", [])),
    (1, "FAILED tests/test_a.py::test_b - assert 0\n", ("caught", ["tests/test_a.py::test_b"])),
    (1, "E   MemoryError\nFAILED tests/test_a.py::test_b - MemoryError\n",
     ("error memory", ["tests/test_a.py::test_b"])),
    (2, "ERROR collecting\ninterrupted\n", ("error 2", ["interrupted"])),
    (-9, "", ("error -9", ["killed"])),
], ids=["survived", "caught", "memory-bound", "usage-error", "killed"])
def test_outcome_of_a_child(code, stdout, expected):
    stderr = "killed\n" if code < 0 else ""
    done = subprocess.CompletedProcess([], code, stdout=stdout, stderr=stderr)
    assert outcome_of(done) == expected


def test_sole_killers_merge_parametrize_ids_into_their_function():
    killers = {
        "one-case": ["tests/test_a.py::test_b[x]"],
        "two-cases": ["tests/test_a.py::test_b[x]", "tests/test_a.py::test_b[y]"],
        "plain": ["tests/test_a.py::test_c"],
        "two-functions": ["tests/test_a.py::test_b[x]", "tests/test_a.py::test_c"],
        "one-name-two-files": ["tests/test_a.py::test_b", "tests/test_d.py::test_b"],
        "no-test-named": [],
    }
    assert sole_killers(killers) == {
        "one-case": "tests/test_a.py::test_b",
        "two-cases": "tests/test_a.py::test_b",
        "plain": "tests/test_a.py::test_c",
    }
