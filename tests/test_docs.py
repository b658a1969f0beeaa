"""README stays in step with the code: its config key table, its check table,
the flow's step fraction and floors, and the command-line flags."""

import os
import re
from dataclasses import fields

from kottler_imcf import flow
from kottler_imcf.cli import _CHECKS, ScenarioConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Keys that no longer exist; the parser rejects them as unknown.
REMOVED_KEYS = {"max_dt", "seed", "cfl", "h_floor", "star_floor", "checks", "mode1", "mode2"}
# Flags that no longer exist; argparse rejects them as unrecognized.
REMOVED_FLAGS = ("--tolerance-scale", "--scenario")


def _readme():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def _readme_section(title):
    text = _readme()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else len(text)]


def _table_column(section, column):
    """The backquoted names in one column of the table rows of a README section."""
    cells = [line.split("|")[column + 1] for line in section.splitlines()
             if line.startswith("| ") and not line.startswith("|---")]
    return [name for cell in cells for name in re.findall(r"`(\w+)`", cell)]


def test_readme_key_table_lists_every_config_key_once():
    keys = [f.metadata["key"] or f.name for f in fields(ScenarioConfig)]
    listed = _table_column(_readme_section("Config keys"), 1)
    assert sorted(listed) == sorted(keys)


def test_readme_names_no_removed_key():
    quoted = set(re.findall(r"`(\w+)`", _readme()))
    assert not quoted & REMOVED_KEYS


def test_readme_names_no_removed_flag():
    text = _readme()
    assert [flag for flag in REMOVED_FLAGS if flag in text] == []


def test_readme_check_table_matches_the_check_rows():
    # Each row of the check table, in order: its name and its rule.
    rows = re.findall(r"^\| `(\w+)` \| (\w+) \|", _readme_section("Audit checks"), re.M)
    assert rows == [(spec.name, spec.rule) for spec in _CHECKS]


def test_readme_flow_defaults_are_the_flow_controls_defaults():
    # The flow bullet gives the step share, the step factor and the two
    # floors as one bare tuple; their names stay out of backquotes
    # (test_readme_names_no_removed_key).
    section = _readme_section("Library overview")
    start = section.index("- `kottler_imcf.flow`")
    bullet = section[start:section.index("\n- ", start + 1)]
    triples = re.findall(r"\(([^()]*\d[^()]*)\)", bullet)
    assert len(triples) == 1, triples
    listed = tuple(float(value) for value in triples[0].split(","))
    assert listed == (flow.CFL, flow.F, flow.H_FLOOR, flow.STAR_FLOOR)
