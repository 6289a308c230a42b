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


def tiny_returns():
    """Real return values of every target the tracer measures, from tiny inputs."""
    from nexpect import (
        Generator,
        MarketModel,
        Payoff,
        TimeGrid,
        default_control_family,
        generate_brownian,
        simulate_sde,
        solve_fd,
        weight_matrix,
    )

    model = MarketModel.gbm(100.0, 0.0, 0.2, k=0.1)
    bundle = simulate_sde(model, generate_brownian(TimeGrid(1.0, 2), 8, 0))
    solve = [solve_fd(model, Payoff.put(100.0), Generator.abs_upper(0.1), 1.0,
                      nodes=11, time_steps=4, store_surfaces=store)
             for store in (True, False)]
    return {
        "paths.simulate_sde": [bundle],
        "measures.weight_matrix": [weight_matrix(default_control_family(0.1, 3), bundle)],
        "bsde.solve_fd": solve,
    }


MEASURED = [(f"{m}.{a}", measures) for m, a, _, measures in tracer.TARGETS if measures]


@pytest.mark.parametrize("target, measures", MEASURED, ids=[t for t, _ in MEASURED])
def test_tracer_measures_read_real_return_values(target, measures):
    # A renamed field of a returned object would break only traced runs.
    returns = tiny_returns()
    assert target in returns, f"no tiny return value for measured target {target}"
    for value in returns[target]:
        for field, measure in measures.items():
            got = measure(value)
            assert isinstance(got, int) and got >= 0, (target, field, got)


def test_tracer_surface_bytes_follow_storage():
    stored, streamed = tiny_returns()["bsde.solve_fd"]
    assert tracer._surface_bytes(stored) == 2 * (stored.time_steps + 1) * 11 * 8
    assert tracer._surface_bytes(streamed) == 0
