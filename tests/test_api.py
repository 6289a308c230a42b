"""The documented API exists: the package's export list and the README's
Modules table name only things that resolve, so a deletion cannot leave
either of them stale."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import nexpect

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
