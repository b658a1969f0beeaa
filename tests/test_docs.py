"""README stays in step with the code: its config key table and its check table."""

import json
import os
import re
from dataclasses import fields

from kottler_imcf.cli import ScenarioConfig, parse_config, run_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = sorted(name[:-len(".cfg")] for name in os.listdir(os.path.join(ROOT, "scenarios"))
                   if name.endswith(".cfg"))
# Keys that no longer exist; the parser rejects them as unknown.
REMOVED_KEYS = {"max_dt", "seed"}


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


def test_readme_check_table_lists_the_checks_the_scenarios_produce():
    # `flow` and `chmass` checks from the goldens, which the acceptance and
    # CLI suites pin to fresh runs byte for byte; `audit` checks from a run.
    produced = set()
    for scenario in SCENARIOS:
        for suffix in ("_audit.json", "_chmass_audit.json"):
            with open(os.path.join(ROOT, "tests", "goldens", scenario + suffix),
                      encoding="utf-8") as fh:
                produced.update(c["name"] for c in json.load(fh)["checks"])
        with open(os.path.join(ROOT, "scenarios", scenario + ".cfg"), encoding="utf-8") as fh:
            _, result = run_scenario(parse_config(fh.read()), with_flow=False)
        produced.update(c.name for c in result.checks)
    assert set(_table_column(_readme_section("Audit checks"), 0)) == produced

