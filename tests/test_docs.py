"""README stays in step with the code: its config key table and its check table."""

import os
import re
from dataclasses import fields

from kottler_imcf.cli import _CHECKS, ScenarioConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Keys that no longer exist; the parser rejects them as unknown.
REMOVED_KEYS = {"max_dt", "seed", "cfl", "h_floor", "star_floor", "checks"}


def _readme_section(title):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
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
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        quoted = set(re.findall(r"`(\w+)`", fh.read()))
    assert not quoted & REMOVED_KEYS


def test_readme_check_table_matches_the_check_rows():
    # Each row of the check table, in order: its name and its rule.
    rows = re.findall(r"^\| `(\w+)` \| (\w+) \|", _readme_section("Audit checks"), re.M)
    assert rows == [(spec.name, spec.rule) for spec in _CHECKS]
