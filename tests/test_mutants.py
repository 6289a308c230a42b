"""The mutation table of tools/mutants.py stays in step with the code it
mutates and the tests it names, without replaying a single row."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_mutants() -> tuple:
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_row_matches_the_code_and_names_real_tests():
    # A row is stale when its snippet does not occur exactly once in its
    # file, and in error when a test it names is gone.
    problems = []
    for name, file, old, _, tests in load_mutants():
        count = (ROOT / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"{name}: {count} matches in {file}")
        for test in tests:
            path, _, function = test.partition("::")
            if not (ROOT / path).is_file():
                problems.append(f"{name}: no test file {path}")
            elif function and f"def {function.split('[')[0]}(" not in (
                    ROOT / path).read_text(encoding="utf-8"):
                problems.append(f"{name}: no test {test}")
    assert problems == []
