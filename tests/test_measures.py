"""Drift controls, density weights, and reweighted expectations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nexpect import (
    InvalidControlError,
    MarketModel,
    ThetaControl,
    TimeGrid,
    default_control_family,
    expectation_profile,
    generate_brownian,
    girsanov_weights,
    simulate_sde,
    weight_matrix,
)
from nexpect.measures import ROW_BLOCK
from nexpect.minimax import closed_under_negation
from nexpect.paths import with_functionals
from tests.conftest import CALL_ATM_FLAT, MEAN_ST_DRIFT_UP, blocked_products, dense_increments


# ---------------------------------------------------------------------------
# control validation
# ---------------------------------------------------------------------------

def test_constant_control_bound():
    ThetaControl.constant(0.1, 0.1)
    with pytest.raises(InvalidControlError):
        ThetaControl.constant(0.2, 0.1)
    with pytest.raises(InvalidControlError):
        ThetaControl.constant(0.0, -1.0)


def test_bang_bang_validation():
    ThetaControl.bang_bang((0.5,), (1, -1), 0.1, 0.1)
    with pytest.raises(InvalidControlError):
        ThetaControl.bang_bang((0.5,), (1, -1), 0.2, 0.1)  # level above bound
    with pytest.raises(InvalidControlError):
        ThetaControl.bang_bang((0.5,), (1, -1, 1), 0.1, 0.1)  # sign count
    with pytest.raises(InvalidControlError):
        ThetaControl.bang_bang((0.5,), (1, 2), 0.1, 0.1)  # sign values
    with pytest.raises(InvalidControlError):
        ThetaControl.bang_bang((0.7, 0.3), (1, -1, 1), 0.1, 0.1)  # not increasing
    with pytest.raises(InvalidControlError):
        ThetaControl.bang_bang((0.0,), (1, -1), 0.1, 0.1)  # switch at endpoint
    with pytest.raises(InvalidControlError):
        ThetaControl(bound=0.1, kind="sinusoid")


def test_theta_on_grid_bang_bang():
    grid = TimeGrid(1.0, 4)
    control = ThetaControl.bang_bang((0.5,), (1, -1), 0.1, 0.1)
    assert np.array_equal(control.theta_on_grid(grid), [0.1, 0.1, -0.1, -0.1])
    control2 = ThetaControl.bang_bang((0.25, 0.75), (-1, 1, -1), 0.1, 0.1)
    assert np.array_equal(control2.theta_on_grid(grid), [-0.1, 0.1, 0.1, -0.1])


def test_negated_round_trip():
    c = ThetaControl.bang_bang((0.3, 0.6), (1, -1, 1), 0.05, 0.1)
    assert c.negated().negated() == c
    assert ThetaControl.constant(0.1, 0.1).negated().theta0 == -0.1


# ---------------------------------------------------------------------------
# density weights
# ---------------------------------------------------------------------------

def test_zero_control_weights_are_one(bundle_50k):
    control = ThetaControl.constant(0.0, 0.1)
    w = girsanov_weights(control, bundle_50k)
    assert np.all(w == 1.0)
    (mean,), _ = expectation_profile(np.ones(bundle_50k.n_paths), weight_matrix((control,), bundle_50k))
    assert mean == 1.0


def test_constant_weights_match_formula(bundle_50k):
    k = 0.1
    w = girsanov_weights(ThetaControl.constant(k, k), bundle_50k)
    bt = bundle_50k.brownian_terminal
    expected = np.exp(k * bt - 0.5 * k * k * bundle_50k.grid.horizon)
    assert np.allclose(w, expected, rtol=1e-12)
    assert np.all(w > 0.0)


def test_bang_bang_weights_match_manual():
    grid = TimeGrid(1.0, 4)
    bundle = generate_brownian(grid, 1000, 77)
    control = ThetaControl.bang_bang((0.5,), (1, -1), 0.1, 0.1)
    w = girsanov_weights(control, bundle)
    inc = dense_increments(grid, 1000, 77)
    theta = np.array([0.1, 0.1, -0.1, -0.1])
    manual = np.exp(inc @ theta - 0.5 * 0.01 * 1.0)
    assert np.allclose(w, manual, rtol=1e-12)


def test_weights_martingale_mean(acc_model, grid8):
    bundle = simulate_sde(acc_model, generate_brownian(grid8, 500_000, 2024))
    control = ThetaControl.constant(0.1, 0.1)
    (mean,), (se,) = expectation_profile(np.ones(bundle.n_paths), weight_matrix((control,), bundle))
    assert abs(mean - 1.0) <= 4.0 * se


def test_weights_second_moment_bound(bundle_200k):
    # E[w^2] = e^{k^2 T} for a constant control at the bound.
    k, horizon = 0.1, 1.0
    w2 = girsanov_weights(ThetaControl.constant(k, k), bundle_200k) ** 2
    se = w2.std(ddof=1) / math.sqrt(w2.size)
    assert w2.mean() <= math.exp(k * k * horizon) + 4.0 * se


# ---------------------------------------------------------------------------
# reweighted expectations
# ---------------------------------------------------------------------------

def test_expectation_constant_payoff_exact_at_zero(bundle_50k):
    control = ThetaControl.constant(0.0, 0.1)
    values = np.full(bundle_50k.n_paths, 3.25)
    (est,), (se,) = expectation_profile(values, weight_matrix((control,), bundle_50k))
    assert est == 3.25
    assert se == 0.0


def test_expectation_drift_shift(bundle_200k):
    # theta = +k on a driftless market prices S_T at 100 e^{+k sigma T}.
    control = ThetaControl.constant(0.1, 0.1)
    (est,), (se,) = expectation_profile(bundle_200k.terminal(), weight_matrix((control,), bundle_200k))
    assert abs(est - MEAN_ST_DRIFT_UP) < 3.0 * se


def test_expectation_flat_call(bundle_200k):
    control = ThetaControl.constant(0.0, 0.1)
    values = np.maximum(bundle_200k.terminal() - 100.0, 0.0)
    (est,), (se,) = expectation_profile(values, weight_matrix((control,), bundle_200k))
    assert abs(est - CALL_ATM_FLAT) < 3.0 * se


def test_measure_change_matches_direct_simulation(grid8):
    """Reweighting the driftless world equals simulating the shifted world."""
    shifted = MarketModel.gbm(100.0, 0.02, 0.2)
    direct = simulate_sde(shifted, generate_brownian(grid8, 200_000, 555))
    direct_vals = np.maximum(direct.terminal() - 100.0, 0.0)
    direct_est = direct_vals.mean()
    direct_se = direct_vals.std(ddof=1) / math.sqrt(direct_vals.size)

    flat = MarketModel.gbm(100.0, 0.0, 0.2)
    base = simulate_sde(flat, generate_brownian(grid8, 200_000, 556))
    control = ThetaControl.constant(0.1, 0.1)
    (est,), (se,) = expectation_profile(np.maximum(base.terminal() - 100.0, 0.0),
                                        weight_matrix((control,), base))
    assert abs(est - direct_est) < 4.0 * math.hypot(se, direct_se)


def test_expectation_validation(bundle_50k):
    weights = weight_matrix((ThetaControl.constant(0.05, 0.1),), bundle_50k)
    with pytest.raises(ValueError):
        expectation_profile(np.ones(10), weights)
    # A density column is not a weight matrix.
    with pytest.raises(ValueError):
        expectation_profile(np.ones(bundle_50k.n_paths), weights[:, 0])


# ---------------------------------------------------------------------------
# family machinery
# ---------------------------------------------------------------------------

def test_weight_matrix_threads_identical(family_k01, bundle_50k):
    a = weight_matrix(family_k01, bundle_50k, threads=1)
    b = weight_matrix(family_k01, bundle_50k, threads=4)
    assert np.array_equal(a, b)


def test_expectation_profile_shapes(family_k01, bundle_50k, weights_50k):
    values = bundle_50k.terminal()
    est, ses = expectation_profile(values, weights_50k)
    assert est.shape == (len(family_k01),)
    assert np.all(ses > 0.0)
    with pytest.raises(ValueError):
        expectation_profile(values[:10], weights_50k)


B = ROW_BLOCK
TWO_KINDS = (
    ThetaControl.constant(0.1, 0.1),
    ThetaControl.bang_bang((0.25, 0.75), (1, -1, 1), 0.1, 0.1),
)


def dense_weights(family, bundle):
    """The per-column density formula, one full column at a time, on the
    bundle's draw made whole."""
    grid = bundle.grid
    inc = dense_increments(grid, bundle.n_paths, bundle.seed)
    columns = []
    for control in family:
        if control.kind == "constant":
            t = control.theta0
            log_w = t * inc.sum(axis=1) - 0.5 * t * t * grid.horizon
        else:
            theta = control.theta_on_grid(grid)
            log_w = blocked_products(inc, theta) - 0.5 * float(theta @ theta) * grid.dt
        columns.append(np.exp(log_w))
    return np.column_stack(columns)


@pytest.mark.parametrize("n", [2, B - 1, B, B + 1, 3 * B + 17])
@pytest.mark.parametrize("family", [
    default_control_family(0.0), TWO_KINDS, default_control_family(0.1),
], ids=["C1", "C2", "C29"])
def test_blocked_weight_passes_are_bitwise_dense(n, family, grid8):
    bundle = generate_brownian(grid8, n, 1000 + n)
    dense = dense_weights(family, bundle)
    serial = weight_matrix(family, bundle, threads=1)
    pooled = weight_matrix(family, bundle, threads=2)
    single = girsanov_weights(family[-1], bundle)
    assert np.array_equal(serial, dense)
    assert np.array_equal(pooled, dense)
    assert np.array_equal(single, dense[:, -1])

    x = np.maximum(with_functionals(bundle, ()).brownian_terminal * 30.0 + 1.0, 0.0)
    products = dense * x[:, None]
    est, ses = expectation_profile(x, serial)
    assert np.array_equal(est, products.mean(axis=0))
    assert np.array_equal(ses, products.std(axis=0, ddof=1) / np.sqrt(n))


def family_bundles(family, n, seed, grid):
    """One draw simulated twice: keeping the family's bang-bang functionals,
    and keeping none, so weight_matrix redraws them."""
    model = MarketModel.gbm(100.0, 0.0, 0.2)
    thetas = [c.theta_on_grid(grid) for c in family if c.kind == "bang_bang"]
    return (simulate_sde(model, generate_brownian(grid, n, seed), thetas),
            simulate_sde(model, generate_brownian(grid, n, seed)))


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 17])
def test_negated_bang_bang_columns_share_the_kept_functional(n, grid8):
    family = default_control_family(0.1)
    kept, _ = family_bundles(family, n, 3000 + n, grid8)
    inc = dense_increments(grid8, n, 3000 + n)
    # Four functionals serve the eight bang-bang members.
    assert len(kept.functionals) == 4
    for control in (c for c in family if c.kind == "bang_bang"):
        theta = control.theta_on_grid(grid8)
        sign, functional = kept.functional(theta)
        assert sign == (1 if control.signs[0] > 0 else -1)
        shift = 0.5 * float(theta @ theta) * grid8.dt
        column = sign * functional - shift
        assert np.array_equal(column, blocked_products(inc, theta) - shift)
    weights = weight_matrix(family, kept)
    assert np.array_equal(weights, dense_weights(family, kept))


@pytest.mark.parametrize("threads", [1, 8])
def test_kept_functionals_and_the_redraw_give_one_weight_matrix(threads, grid8):
    family = default_control_family(0.1)
    kept, plain = family_bundles(family, 3 * B + 17, 4321, grid8)
    assert plain.functionals == {}
    from_kept = weight_matrix(family, kept, threads=threads)
    redrawn = weight_matrix(family, plain, threads=threads)
    assert np.array_equal(from_kept, redrawn)
    assert np.array_equal(from_kept, dense_weights(family, kept))


def test_default_family_structure():
    family = default_control_family(0.1, grid_count=21)
    assert len(family) == 29  # 21 constants + 8 bang-bang
    constants = [c for c in family if c.kind == "constant"]
    assert len(constants) == 21
    thetas = sorted(c.theta0 for c in constants)
    assert thetas[0] == -0.1 and thetas[-1] == 0.1
    assert 0.0 in thetas
    assert closed_under_negation(family)
    assert all(abs(c.level) <= 0.1 + 1e-15 for c in family if c.kind == "bang_bang")
    assert all(len(c.switch_times) <= 4 for c in family if c.kind == "bang_bang")


def test_default_family_degenerate():
    family = default_control_family(0.0)
    assert len(family) == 1
    assert family[0].kind == "constant" and family[0].theta0 == 0.0
