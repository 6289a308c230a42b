"""The documented API exists: the package's export list and the README's
Modules table name only things that resolve, and its scenario-key table
names the loader's keys and defaults, so a change cannot leave any of them
stale."""

from __future__ import annotations

import importlib
import re
from dataclasses import MISSING
from pathlib import Path

import nexpect
from nexpect.cli import SCENARIO_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"
# A backticked Python name, dotted or not, optionally called: `solve_fd`,
# `GridSolution.driver(i)`.  Other code spans (formulas, tuples) are prose.
IDENTIFIER = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^`]*\))?`")


def module_table_rows():
    """(module name, backticked names) for each row of the Modules table."""
    text = README.read_text(encoding="utf-8")
    table = text.split("## Modules", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`nexpect."):
            rows.append((cells[0].strip("`"), IDENTIFIER.findall(cells[1])))
    return rows


def test_every_exported_name_imports():
    missing = [name for name in nexpect.__all__ if not hasattr(nexpect, name)]
    assert not missing, f"nexpect.__all__ names what the package lacks: {missing}"


def test_modules_table_names_resolve():
    rows = module_table_rows()
    assert [module for module, _ in rows] == [
        f"nexpect.{m}" for m in ("paths", "measures", "choquet", "bsde", "minimax", "cli")]
    missing = []
    for module, names in rows:
        target = importlib.import_module(module)
        for dotted in names:
            owner = target
            for part in dotted.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{module}: {dotted}")
    assert not missing, f"the README Modules table names what is gone: {missing}"


def scenario_table_rows():
    """(backticked keys, default cell) for each row of the scenario-key table."""
    text = README.read_text(encoding="utf-8")
    table = text.split("### Scenario files", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows.append((re.findall(r"`(\w+)`", cells[0]), cells[2]))
    return rows


# A default the table states as a value, not in words: 801, `true`.
STATED_DEFAULT = re.compile(r"`?(\d+|true|false)`?")


def test_scenario_table_matches_the_loader():
    rows = scenario_table_rows()
    assert sorted(key for keys, _ in rows for key in keys) == sorted(SCENARIO_KEYS)
    wrong = []
    for keys, cell in rows:
        defaults = [SCENARIO_KEYS[key].default for key in keys]
        if cell == "required":
            wrong += [key for key, default in zip(keys, defaults) if default is not MISSING]
            continue
        wrong += [key for key, default in zip(keys, defaults) if default is MISSING]
        stated = [STATED_DEFAULT.fullmatch(part.strip()) for part in cell.split(",")]
        if all(stated):
            values = [int(m[1]) if m[1].isdigit() else m[1] == "true" for m in stated]
            if [(type(v), v) for v in values] != [(type(d), d) for d in defaults]:
                wrong.append(f"{keys}: {cell} != {defaults}")
    assert not wrong, f"the README scenario table disagrees with Scenario: {wrong}"
