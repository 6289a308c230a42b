"""Path generation and forward simulation."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from nexpect import (
    MarketModel,
    SimulationFailureError,
    TimeGrid,
    generate_brownian,
    simulate_sde,
)
from nexpect.paths import ROW_BLOCK, _increment_blocks, _simulate, with_functionals
from tests.conftest import MEAN_ST_MU5, blocked_products, dense_increments

B = ROW_BLOCK


def streamed(bundle):
    """The bundle's increments as the blocked pass draws them, stacked."""
    return np.concatenate([block.copy() for _, block in _increment_blocks(bundle)])


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    grid = TimeGrid(2.0, 8)
    assert grid.dt == 0.25
    assert grid.times()[0] == 0.0
    assert grid.times()[-1] == 2.0


def test_model_validation():
    with pytest.raises(ValueError):
        MarketModel.gbm(-1.0, 0.0, 0.2)
    with pytest.raises(ValueError):
        MarketModel.gbm(100.0, 0.0, 0.2, k=-0.1)
    with pytest.raises(ValueError):
        MarketModel.gbm(100.0, 0.0, -0.2)


def test_brownian_shape_and_validation():
    grid = TimeGrid(1.0, 4)
    bundle = generate_brownian(grid, 100, 7)
    assert (bundle.grid, bundle.n_paths, bundle.seed) == (grid, 100, 7)
    assert streamed(bundle).shape == (100, 4)
    assert bundle.brownian_increments is None
    assert bundle.states is None and bundle.brownian_terminal is None
    with pytest.raises(ValueError):
        generate_brownian(grid, 0, 7)


def test_brownian_moments():
    grid = TimeGrid(1.0, 4)
    bundle = generate_brownian(grid, 200_000, 42)
    inc = dense_increments(grid, 200_000, 42)
    # mean ~ 0 within 4 SE; per-column variance within 1% of dt
    se = math.sqrt(grid.dt / inc.size)
    assert abs(inc.mean()) < 4.0 * se
    assert np.allclose(inc.var(axis=0), grid.dt, rtol=0.01)
    bt = with_functionals(bundle, ()).brownian_terminal
    assert np.array_equal(bt, inc.sum(axis=1))
    assert abs(bt.mean()) < 4.0 / math.sqrt(bundle.n_paths)
    assert abs(bt.var() - 1.0) < 0.02


def test_brownian_determinism():
    grid = TimeGrid(1.0, 8)
    a = streamed(generate_brownian(grid, 1000, 123))
    b = streamed(generate_brownian(grid, 1000, 123))
    c = streamed(generate_brownian(grid, 1000, 124))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_degenerate_gbm_is_constant():
    model = MarketModel.gbm(100.0, 0.0, 0.0)
    bundle = simulate_sde(model, generate_brownian(TimeGrid(1.0, 8), 50, 3))
    assert np.all(bundle.states == 100.0)
    assert np.all(bundle.valid)


def test_exact_gbm_starts_at_s0_and_martingale():
    model = MarketModel.gbm(100.0, 0.0, 0.2)
    bundle = simulate_sde(model, generate_brownian(TimeGrid(1.0, 8), 100_000, 5))
    term = bundle.terminal()
    se = term.std(ddof=1) / math.sqrt(term.size)
    assert abs(term.mean() - 100.0) < 3.0 * se


def test_exact_gbm_mean_with_drift():
    model = MarketModel.gbm(100.0, 0.05, 0.2)
    bundle = simulate_sde(model, generate_brownian(TimeGrid(1.0, 8), 200_000, 11))
    term = bundle.terminal()
    se = term.std(ddof=1) / math.sqrt(term.size)
    assert abs(term.mean() - MEAN_ST_MU5) < 3.0 * se


def test_exact_gbm_log_moments():
    mu, sigma = 0.05, 0.3
    model = MarketModel.gbm(100.0, mu, sigma)
    bundle = simulate_sde(model, generate_brownian(TimeGrid(1.0, 4), 100_000, 17))
    logs = np.log(bundle.terminal() / 100.0)
    target_mean = mu - 0.5 * sigma**2
    se_mean = logs.std(ddof=1) / math.sqrt(logs.size)
    assert abs(logs.mean() - target_mean) < 4.0 * se_mean
    assert abs(logs.var(ddof=1) - sigma**2) < 4.0 * sigma**2 * math.sqrt(2.0 / logs.size)


def test_euler_matches_exact_at_order_one():
    """Mean error of the Euler scheme shrinks linearly in dt.

    For proportional coefficients E[S_T^euler] = s0 (1 + mu dt)^N, so the
    error against s0 e^{mu T} is known in closed form; the sampled means
    must track it and halve as steps double.
    """
    mu, sigma, s0 = 0.2, 0.2, 100.0
    drift = lambda t, s: mu * s
    vol = lambda t, s: sigma * s
    target = s0 * math.exp(mu)
    gaps = []
    for steps in (4, 8, 16):
        model = MarketModel.general(s0, drift, vol)
        bundle = simulate_sde(model, generate_brownian(TimeGrid(1.0, steps), 400_000, 21))
        term = bundle.terminal()[bundle.valid]
        exact_scheme_mean = s0 * (1.0 + mu / steps) ** steps
        se = term.std(ddof=1) / math.sqrt(term.size)
        # The sample mean must match the scheme's exact mean...
        assert abs(term.mean() - exact_scheme_mean) < 4.0 * se
        gaps.append(abs(exact_scheme_mean - target))
    # ...and the scheme bias is first order in dt.
    assert 0.3 < gaps[1] / gaps[0] < 0.7
    assert 0.3 < gaps[2] / gaps[1] < 0.7


def test_euler_flags_nonpositive_paths():
    # Multiplicative Euler with one big step: S1 = s0 (1 + sigma dB), so a
    # 0.3-sigma coefficient leaves ~0.04% of paths nonpositive: flagged, not fatal.
    model = MarketModel.general(1.0, lambda t, s: 0.0 * s, lambda t, s: 0.3 * s)
    bundle = simulate_sde(model, generate_brownian(TimeGrid(1.0, 1), 100_000, 31))
    n_bad = int((~bundle.valid).sum())
    assert 0 < n_bad < 100
    assert np.all(bundle.states[~bundle.valid] <= 0.0)
    assert np.all(bundle.states[bundle.valid] > 0.0)


def test_euler_failure_above_threshold():
    # 0.45-sigma in one step drives ~1.3% of paths nonpositive: hard failure.
    model = MarketModel.general(1.0, lambda t, s: 0.0 * s, lambda t, s: 0.45 * s)
    with pytest.raises(SimulationFailureError):
        simulate_sde(model, generate_brownian(TimeGrid(1.0, 1), 100_000, 31))


def test_terminal_requires_states():
    bundle = generate_brownian(TimeGrid(1.0, 4), 10, 1)
    with pytest.raises(ValueError):
        bundle.terminal()


# ---------------------------------------------------------------------------
# terminal-only simulation: the same bits as the full path matrix
# ---------------------------------------------------------------------------

def dense_gbm_states(model, grid, inc):
    """The (n, steps + 1) state matrix, filled the way the full-path
    simulation did."""
    mu, sigma = model.gbm_constants
    log_steps = (mu - 0.5 * sigma * sigma) * grid.dt + sigma * inc
    states = np.empty((inc.shape[0], grid.steps + 1))
    states[:, 0] = model.s0
    states[:, 1:] = model.s0 * np.exp(np.cumsum(log_steps, axis=1))
    return states


def dense_euler_states(model, grid, inc):
    """The full-matrix Euler loop, kept as the reference for the one-column march."""
    times = grid.times()
    states = np.empty((inc.shape[0], grid.steps + 1))
    states[:, 0] = model.s0
    alive = np.ones(inc.shape[0], dtype=bool)
    for i in range(grid.steps):
        s = states[:, i]
        step = model.drift(times[i], s) * grid.dt + model.vol(times[i], s) * inc[:, i]
        nxt = np.where(alive, s + step, s)
        states[:, i + 1] = nxt
        alive = alive & (nxt > 0.0) & np.isfinite(nxt)
    return states, alive


@pytest.mark.parametrize("steps", [1, 8])
@pytest.mark.parametrize("n", [1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 17])
def test_exact_gbm_terminal_is_bitwise_dense(n, steps):
    model = MarketModel.gbm(100.0, 0.03, 0.25)
    grid = TimeGrid(1.5, steps)
    bundle = simulate_sde(model, generate_brownian(grid, n, 1000 + n))
    dense = dense_gbm_states(model, grid, dense_increments(grid, n, 1000 + n))
    assert bundle.states.shape == (n,)
    assert np.array_equal(bundle.terminal(), dense[:, -1])
    assert np.all(bundle.valid)


def test_euler_terminal_is_bitwise_dense_with_frozen_paths():
    # A 0.6-sigma coefficient over 4 steps drives some paths nonpositive
    # mid-way; they stay frozen at the offending value for the later steps.
    model = MarketModel.general(1.0, lambda t, s: 0.05 * s * (1.0 + t), lambda t, s: 0.6 * s)
    grid = TimeGrid(1.0, 4)
    bundle = generate_brownian(grid, 20_000, 37)
    inc = dense_increments(grid, 20_000, 37)
    sim = _simulate(model, bundle)
    dense, dense_valid = dense_euler_states(model, grid, inc)
    frozen = ~dense_valid & (dense[:, -2] == dense[:, -1])
    assert frozen.sum() > 10
    assert np.array_equal(sim.valid, dense_valid)
    assert np.array_equal(sim.terminal(), dense[:, -1])

    safe = MarketModel.general(100.0, lambda t, s: 0.02 * s, lambda t, s: 0.2 * s)
    sim = simulate_sde(safe, bundle)
    dense, dense_valid = dense_euler_states(safe, grid, inc)
    assert np.array_equal(sim.terminal(), dense[:, -1])
    assert np.array_equal(sim.valid, dense_valid)


@pytest.mark.parametrize("model", [
    MarketModel.gbm(100.0, 0.0, 0.2),
    MarketModel.general(100.0, lambda t, s: 0.0 * s, lambda t, s: 0.2 * s),
], ids=["exact", "euler"])
def test_simulation_memory_is_linear_in_paths(model):
    # numpy reports its allocations to tracemalloc.  One (n, steps) float
    # matrix is 25.6 MB here; the simulation may hold a few columns of n
    # and a few ROW_BLOCK-row blocks, about 10 MB at most.
    n, steps = 50_000, 64
    bundle = generate_brownian(TimeGrid(1.0, steps), n, 3)
    tracemalloc.start()
    try:
        simulate_sde(model, bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n * 8 <= peak < 4 * n * 8 + 4 * ROW_BLOCK * steps * 8


# ---------------------------------------------------------------------------
# the streamed draw: every kept reduction bitwise the dense one
# ---------------------------------------------------------------------------

STREAM_MODELS = [
    MarketModel.gbm(100.0, 0.03, 0.25),
    # Frozen paths: a 0.6-sigma Euler step sends some paths nonpositive.
    MarketModel.general(1.0, lambda t, s: 0.05 * s * (1.0 + t), lambda t, s: 0.6 * s),
]


def stream_thetas(steps):
    """Two theta paths and the negation of the first, which shares its functional."""
    ramp = np.linspace(-0.3, 0.5, steps)
    signs = np.where(np.arange(steps) % 3 == 0, 0.1, -0.1)
    return [ramp, signs, -ramp]


@pytest.mark.parametrize("steps", [1, 8])
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 17])
def test_stream_blocks_are_the_dense_draw(n, steps):
    grid = TimeGrid(1.5, steps)
    assert np.array_equal(streamed(generate_brownian(grid, n, 50 + n)),
                          dense_increments(grid, n, 50 + n))


@pytest.mark.parametrize("steps", [1, 8])
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 17])
@pytest.mark.parametrize("model", STREAM_MODELS, ids=["exact", "euler"])
def test_kept_reductions_are_bitwise_dense(model, n, steps):
    grid = TimeGrid(1.5, steps)
    thetas = stream_thetas(steps)
    bundle = _simulate(model, generate_brownian(grid, n, 2000 + n), thetas)
    inc = dense_increments(grid, n, 2000 + n)
    if model.gbm_constants is not None:
        dense, dense_valid = dense_gbm_states(model, grid, inc), np.ones(n, dtype=bool)
    else:
        dense, dense_valid = dense_euler_states(model, grid, inc)
    assert np.array_equal(bundle.terminal(), dense[:, -1])
    assert np.array_equal(bundle.valid, dense_valid)
    assert np.array_equal(bundle.brownian_terminal, inc.sum(axis=1))
    # The third theta is the first negated: one functional serves both.
    assert len(bundle.functionals) == 2
    for theta, sign in zip(thetas, (1, 1, -1)):
        got_sign, functional = bundle.functional(theta)
        assert got_sign == sign
        assert np.array_equal(sign * functional, blocked_products(inc, theta))
    assert bundle.functional(np.zeros(steps) + 0.7) is None


@pytest.mark.parametrize("m", [1, B, B + 5])
@pytest.mark.parametrize("model", STREAM_MODELS, ids=["exact", "euler"])
def test_head_is_the_draw_of_the_first_paths(model, m):
    grid = TimeGrid(1.5, 8)
    thetas = stream_thetas(8)
    full = _simulate(model, generate_brownian(grid, 3 * B + 17, 9), thetas)
    head = full.head(m)
    fresh = _simulate(model, generate_brownian(grid, m, 9), thetas)
    assert (head.grid, head.n_paths, head.seed) == (grid, m, 9)
    for name in ("states", "valid", "brownian_terminal"):
        assert np.array_equal(getattr(head, name), getattr(fresh, name)), name
    # Every kept functional is sliced, none dropped.
    assert head.functionals.keys() == full.functionals.keys()
    for key, functional in head.functionals.items():
        assert np.array_equal(functional, full.functionals[key][:m])
    for bad in (0, 3 * B + 18, 1.5):
        with pytest.raises(ValueError):
            full.head(bad)


def test_euler_simulation_with_its_draw_peaks_linear_in_paths():
    # 256 steps: the (n, steps) matrix of increments would be 102 MB.  The
    # draw, the march and two kept functionals may hold a few columns of n
    # and a few ROW_BLOCK-row blocks.
    n, steps = 50_000, 256
    model = MarketModel.general(100.0, lambda t, s: 0.0 * s, lambda t, s: 0.2 * s)
    thetas = stream_thetas(steps)
    tracemalloc.start()
    try:
        bundle = simulate_sde(model, generate_brownian(TimeGrid(1.0, steps), n, 3), thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bundle.functionals) == 2
    assert 4 * n * 8 <= peak < 8 * n * 8 + 2 * ROW_BLOCK * steps * 8
