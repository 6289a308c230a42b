"""Drift controls, density weights, and reweighted expectations."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from nexpect.choquet import Capacity, _SortedSample, build_capacity, choquet_estimates
from nexpect.measures import ROW_BLOCK, DensityRows, Spread, Sums
from nexpect.minimax import closed_under_negation, minimax_expectation
from nexpect.paths import with_functionals
from tests.conftest import (
    CALL_ATM_FLAT,
    MEAN_ST_DRIFT_UP,
    StoredRows,
    block_moments,
    blocked_products,
    dense_increments,
    stored_weights,
)


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
    (mean,), _ = expectation_profile(np.ones(bundle_50k.n_paths), stored_weights((control,), bundle_50k))
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
    (mean,), (se,) = expectation_profile(np.ones(bundle.n_paths), stored_weights((control,), bundle))
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
    (est,), (se,) = expectation_profile(values, stored_weights((control,), bundle_50k))
    assert est == 3.25
    assert se == 0.0


def test_expectation_drift_shift(bundle_200k):
    # theta = +k on a driftless market prices S_T at 100 e^{+k sigma T}.
    control = ThetaControl.constant(0.1, 0.1)
    (est,), (se,) = expectation_profile(bundle_200k.terminal(), stored_weights((control,), bundle_200k))
    assert abs(est - MEAN_ST_DRIFT_UP) < 3.0 * se


def test_expectation_flat_call(bundle_200k):
    control = ThetaControl.constant(0.0, 0.1)
    values = np.maximum(bundle_200k.terminal() - 100.0, 0.0)
    (est,), (se,) = expectation_profile(values, stored_weights((control,), bundle_200k))
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
                                        stored_weights((control,), base))
    assert abs(est - direct_est) < 4.0 * math.hypot(se, direct_se)


def test_expectation_validation(bundle_50k):
    weights = stored_weights((ThetaControl.constant(0.05, 0.1),), bundle_50k)
    with pytest.raises(ValueError, match="does not match"):
        expectation_profile(np.ones(10), weights)


@pytest.mark.parametrize("consumer", ["Capacity", "expectation_profile", "minimax_expectation"])
def test_weight_consumers_reject_a_bare_matrix(consumer, family_k01):
    # Every consumer names the one weight type before it reads the weights:
    # a matrix such as weight_matrix returns is a TypeError, not an
    # AttributeError from inside a pass.
    matrix, x = np.ones((5, len(family_k01))), np.arange(5.0)
    consume = {
        "Capacity": lambda: Capacity("upper", matrix),
        "expectation_profile": lambda: expectation_profile(x, matrix),
        "minimax_expectation": lambda: minimax_expectation(x, family_k01, matrix),
    }[consumer]
    with pytest.raises(TypeError, match="^weights must be DensityRows, got ndarray$"):
        consume()


# ---------------------------------------------------------------------------
# family machinery
# ---------------------------------------------------------------------------

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
    serial = weight_matrix(family, bundle)
    single = girsanov_weights(family[-1], bundle)
    assert np.array_equal(serial, dense)
    assert np.array_equal(single, dense[:, -1])

    # The profile takes the blocks' rule at the family's width; a
    # one-member family takes the dense formula.
    x = np.maximum(with_functionals(bundle, ()).brownian_terminal * 30.0 + 1.0, 0.0)
    products = dense * x[:, None]
    est, ses = expectation_profile(x, StoredRows(serial))
    if len(family) == 1:
        means, errors = products.mean(axis=0), products.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        means, errors = block_moments(dense, x)
    assert np.array_equal(est, means)
    assert np.array_equal(ses, errors)


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


@pytest.mark.parametrize("blocks", [1, 8])
def test_kept_functionals_and_the_redraw_give_one_weight_matrix(blocks, grid8):
    # One and eight full row blocks, each followed by a short one.
    family = default_control_family(0.1)
    kept, plain = family_bundles(family, blocks * B + 17, 4321, grid8)
    assert plain.functionals == {}
    from_kept = weight_matrix(family, kept)
    redrawn = weight_matrix(family, plain)
    assert np.array_equal(from_kept, redrawn)
    assert np.array_equal(from_kept, dense_weights(family, kept))


FAMILIES = {
    "default": default_control_family(0.1),
    "constants": tuple(c for c in default_control_family(0.1) if c.kind == "constant"),
    "k0": default_control_family(0.0),
}


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([1, 2, 7, B - 1, B, B + 1, 2 * B + 17]),
       name=st.sampled_from(sorted(FAMILIES)), kept=st.booleans(),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_density_rows_are_the_weight_matrix_bitwise(n, name, kept, seed, data, grid8):
    # Rows rebuilt from B_T and the functionals, in natural blocks (the last
    # one short unless B divides n), for any slice, in a random permutation
    # and in sorted order, are the dense matrix bit for bit, whether the
    # bundle kept the functionals or they are redrawn.
    family = FAMILIES[name]
    thetas = [c.theta_on_grid(grid8) for c in family if c.kind == "bang_bang"] if kept else []
    bundle = simulate_sde(MarketModel.gbm(100.0, 0.0, 0.2),
                          generate_brownian(grid8, n, seed), thetas)
    source = DensityRows(family, bundle)
    dense = weight_matrix(family, bundle)
    assert same_bits(dense, dense_weights(family, bundle))
    assert source.shape == dense.shape and source.stats.shape[1] == (5 if name == "default" else 1)
    blocks = [(index, rows.copy()) for index, rows in source.blocks()]
    assert [index.stop - index.start for index, _ in blocks][:-1] == [B] * (len(blocks) - 1)
    assert same_bits(np.concatenate([rows for _, rows in blocks]), dense)
    start = data.draw(st.integers(0, n - 1))
    stop = data.draw(st.integers(start + 1, n))
    assert same_bits(source.rows(slice(start, stop)), dense[start:stop])
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(n)
    assert same_bits(source.rows(permutation), dense[permutation])
    ascending = np.sort(rng.choice(n, size=min(n, 3 * B // 2)))
    out = np.empty((ascending.size, len(family)))
    assert source.rows(ascending, out) is out and same_bits(out, dense[ascending])
    assert same_bits(source.dense(), dense)
    assert same_bits(source.head(start).dense(), dense[:start])
    # The totals are each block's `ones @ rows`, added up in block order;
    # the payoff 1 sums to them, and the martingale means are them over n.
    totals = np.zeros(len(family))
    for index, _ in blocks:
        totals += np.ones(index.stop - index.start) @ dense[index]
    assert same_bits(source.totals, totals)
    assert same_bits(source.sums(np.ones(n)), totals)
    assert same_bits(source.sums(np.stack([np.zeros(n), np.ones(n)])),
                     np.stack([np.zeros(len(family)), totals]))
    if n > 1:
        # The martingale moments are the profile of the payoff 1 (a
        # one-member family's profile takes the dense formula).
        means, ses = expectation_profile(np.ones(n), source)
        if len(family) > 1:
            assert same_bits(means, totals / n)
        np.testing.assert_allclose(means, totals / n, rtol=1e-15)
        np.testing.assert_allclose(ses, dense.std(axis=0, ddof=1) / np.sqrt(n),
                                   rtol=1e-10, atol=1e-300)


@pytest.mark.parametrize("bad", [np.nan, 1e4, -1e4], ids=["nan", "overflow", "underflow"])
def test_density_rows_check_every_block(bad, grid8):
    # One path's B_T in the third of four blocks makes its weight NaN, inf
    # or 0 under the tilt 0.1; the blocks before it are all valid.
    n, at = 3 * B + 17, 2 * B + 5
    bundle = with_functionals(generate_brownian(grid8, n, 77), ())
    terminal = bundle.brownian_terminal.copy()
    terminal[at] = bad
    poisoned = replace(bundle, brownian_terminal=terminal)
    family = (ThetaControl.constant(-0.05, 0.1), ThetaControl.constant(0.1, 0.1))
    assert np.all(np.isfinite(weight_matrix(family, bundle)))
    for build in (DensityRows, weight_matrix):
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="^density weights must be finite and strictly positive$"):
            build(family, poisoned)


@pytest.mark.parametrize("n", [1, B, B + 1, 3 * B + 17])
def test_weight_matrix_rebuilds_each_block_once(n, grid8, monkeypatch):
    # The pass that builds the rows and checks them also writes them into
    # the matrix: one rebuild per block, not a second pass to fill it.
    calls = []
    rows = DensityRows.rows

    def counted(self, index, out=None):
        calls.append(index)
        return rows(self, index, out)

    monkeypatch.setattr(DensityRows, "rows", counted)
    bundle = with_functionals(generate_brownian(grid8, n, 88), ())
    weights = weight_matrix(TWO_KINDS, bundle)
    assert len(calls) == math.ceil(n / B)
    assert np.array_equal(weights, dense_weights(TWO_KINDS, bundle))
    # A non-finite weight still raises, from the block that holds it.
    terminal = bundle.brownian_terminal.copy()
    terminal[-1] = np.nan
    poisoned = replace(bundle, brownian_terminal=terminal)
    calls.clear()
    with pytest.raises(ValueError, match="^density weights must be finite and strictly positive$"):
        weight_matrix(TWO_KINDS[:1], poisoned)
    assert len(calls) == math.ceil(n / B)


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([2, B - 1, B, B + 1, 2 * B + 17]),
       name=st.sampled_from(["default", "two kinds", "constants"]),
       seed=st.integers(0, 2**32 - 1))
def test_stored_and_rebuilt_weights_reduce_alike(n, name, seed, grid8):
    # A stored weight matrix and the DensityRows it was made from are read
    # by one reduction rule, so every capacity, sum and profile of one is
    # the other's bit for bit.
    family = TWO_KINDS if name == "two kinds" else FAMILIES[name]
    bundle = simulate_sde(MarketModel.gbm(100.0, 0.0, 0.2), generate_brownian(grid8, n, seed))
    stored, rebuilt = stored_weights(family, bundle), DensityRows(family, bundle)
    x = np.maximum(bundle.terminal() - 100.0, 0.0)
    events = np.random.default_rng(seed).random((3, n)) < 0.5
    results = []
    for weights in (stored, rebuilt):
        upper = build_capacity("upper", weights)
        lower = replace(upper, orientation="lower")
        estimates = choquet_estimates(x, (upper, lower))
        results.append([upper.totals, weights.sums(events.astype(float)),
                        *expectation_profile(x, weights),
                        *(np.array([value]) for value, _ in estimates),
                        *(influence for _, influence in estimates)])
        # The martingale moments as the run reduces them, the totals over n
        # and their spread, are the profile of the payoff 1.
        spread = Spread(weights.shape, None, weights.totals / n)
        weights.reduce(spread)
        for moment, profile in zip((weights.totals / n, spread.result),
                                   expectation_profile(np.ones(n), weights)):
            assert same_bits(moment, profile)
    for a, b in zip(*results):
        assert same_bits(a, b)

    # The head of the rows, a view of the first m paths' statistics with
    # totals of its own, is the stored matrix's first m rows bit for bit.
    for m in sorted({m for m in (1, B - 1, B, B + 1, n) if m <= n}):
        ranks = np.unique([0, 1, m // 3, m // 2, m - 1, m])
        results = []
        for weights in (stored.head(m), rebuilt.head(m)):
            upper = build_capacity("upper", weights)
            lower = replace(upper, orientation="lower")
            estimates = choquet_estimates(x[:m], (upper, lower))
            results.append([upper.totals, upper.evaluate(events[:, :m]),
                            lower.evaluate(events[:, :m]),
                            *(np.array([value]) for value, _ in estimates),
                            *(influence for _, influence in estimates),
                            _SortedSample(x[:m], weights).prefix_sums(ranks, upper.totals)])
        for dense_result, head in zip(*results):
            assert same_bits(dense_result, head), m


@pytest.mark.parametrize("family", [(ThetaControl.constant(0.05, 0.1),), FAMILIES["default"]],
                         ids=["one-member", "29-member"])
@pytest.mark.parametrize("stored", [False, True], ids=["rows", "stored"])
def test_estimates_serve_the_reductions_they_are_handed(family, stored, grid8):
    # Reductions handed to choquet_estimates share the natural pass that
    # finishes the influences (a one-member family's pass serves them
    # alone).  Every value and influence is bitwise that of the estimates
    # without them, and every reduction's result that of its own pass.
    n = 2 * B + 17
    bundle = simulate_sde(MarketModel.gbm(100.0, 0.0, 0.2), generate_brownian(grid8, n, 12))
    rows = stored_weights(family, bundle) if stored else DensityRows(family, bundle)
    x = np.maximum(bundle.terminal() - 100.0, 0.0)
    events = np.random.default_rng(12).random((3, n)) < 0.5
    upper = build_capacity("upper", rows)
    pair = (upper, replace(upper, orientation="lower"))
    means = rows.sums(x) / n
    spread, moments = Spread(rows.shape, x, means), Spread(rows.shape, None, rows.totals / n)
    sums = Sums(events, rows.shape[1])
    shared = choquet_estimates(x, pair, spread, moments, sums)
    for (value, influence), (alone, alone_influence) in zip(shared, choquet_estimates(x, pair)):
        assert same_bits(np.array([value]), np.array([alone]))
        assert same_bits(influence, alone_influence)
    for shared_spread, own in ((spread, Spread(rows.shape, x, means)),
                               (moments, Spread(rows.shape, None, rows.totals / n))):
        rows.reduce(own)
        assert same_bits(shared_spread.result, own.result)
    if len(family) > 1:
        assert same_bits(spread.result, expectation_profile(x, rows)[1])
        assert same_bits(moments.result, expectation_profile(np.ones(n), rows)[1])
    assert same_bits(sums.result, rows.sums(events))


@pytest.mark.parametrize("name", ["default", "constants"])
@pytest.mark.parametrize("stored", [False, True], ids=["rows", "stored"])
def test_capacity_weighs_a_stack_of_events_as_each_alone(name, stored, grid8):
    # One pass with one `mask[block] @ rows` product per event: bitwise
    # each event evaluated alone, and its mask taken as floats.
    n = 2 * B + 17
    family = FAMILIES[name]
    bundle = simulate_sde(MarketModel.gbm(100.0, 0.0, 0.2), generate_brownian(grid8, n, 8))
    weights = stored_weights(family, bundle) if stored else DensityRows(family, bundle)
    events = np.random.default_rng(8).random((7, n)) < np.linspace(0.05, 0.95, 7)[:, None]
    for orientation in ("upper", "lower"):
        capacity = replace(build_capacity("upper", weights), orientation=orientation)
        stacked = capacity.evaluate(events)
        alone = np.array([capacity.evaluate(event) for event in events])
        floats = np.array([capacity.evaluate(event.astype(float)) for event in events])
        assert stacked.shape == (7,) and same_bits(stacked, alone) and same_bits(alone, floats)
    with pytest.raises(ValueError, match="does not match paths"):
        capacity.evaluate(events[:, 1:])


@pytest.mark.parametrize("n", [1, B - 1, B + 1])
def test_rebuilt_column_is_the_dense_column(n, grid8):
    family = default_control_family(0.1)
    bundle = simulate_sde(MarketModel.gbm(100.0, 0.0, 0.2), generate_brownian(grid8, n, 9),
                          [c.theta_on_grid(grid8) for c in family if c.kind == "bang_bang"])
    rows = DensityRows(family, bundle)
    dense = rows.dense()
    for j in range(len(family)):
        assert same_bits(rows.column(j), np.ascontiguousarray(dense[:, j]))


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
