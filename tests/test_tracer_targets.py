"""The benchmark tracer's wrap targets still exist in the package.

perfbench/tracer.py wraps package functions by name from outside `src/`; a
renamed or deleted target would break every traced benchmark run without
failing any other test.  The tracer module is only imported, never changed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in tracer.TARGETS],
                         ids=[f"{m}.{a}" for m, a, _, _ in tracer.TARGETS])
def test_tracer_target_resolves(module, attr):
    target = getattr(importlib.import_module(f"nexpect.{module}"), attr, None)
    assert callable(target), f"nexpect.{module}.{attr} is gone or not callable"


def test_tracer_method_and_check_targets_resolve():
    from nexpect.choquet import Capacity
    from nexpect.cli import CHECK_REGISTRY

    assert callable(getattr(Capacity, "evaluate", None))
    assert set(tracer.CHECK_NAMES) <= set(CHECK_REGISTRY)
