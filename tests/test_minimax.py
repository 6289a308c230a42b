"""Envelope expectations, closed-form extremes, and attainment diagnostics."""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from nexpect import (
    MarketModel,
    Payoff,
    ThetaControl,
    attainment_check,
    closed_under_negation,
    default_control_family,
    extremal_price,
    generate_brownian,
    lognormal_call_value,
    lognormal_digital_value,
    lognormal_put_value,
    minimax_expectation,
    pooled_tolerance,
    simulate_sde,
    weight_matrix,
)
from nexpect.cli import load_scenario
from nexpect.measures import ROW_BLOCK
from nexpect.minimax import ATTAINMENT_GRID, CLOSED_FORMS, _ndtr, has_closed_form
from tests.conftest import (
    CALL_ATM_DRIFT_DOWN,
    CALL_ATM_DRIFT_UP,
    CALL_ATM_FLAT,
    DIGITAL_ATM_DRIFT_UP,
    PUT_ATM_DRIFT_DOWN,
    PUT_ATM_DRIFT_UP,
    dense_band,
    profile_band,
)

HORIZON = 1.0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_closed_form_values_against_direct_formula():
    s0, mu, sigma, strike = 100.0, 0.02, 0.2, 95.0
    fwd = s0 * math.exp(mu * HORIZON)
    width = sigma * math.sqrt(HORIZON)
    d1 = (math.log(fwd / strike) + 0.5 * width**2) / width
    d2 = d1 - width
    call = fwd * stats.norm.cdf(d1) - strike * stats.norm.cdf(d2)
    put = strike * stats.norm.cdf(-d2) - fwd * stats.norm.cdf(-d1)
    dig = stats.norm.cdf(d2)
    assert lognormal_call_value(s0, mu, sigma, HORIZON, strike) == pytest.approx(call, rel=1e-12)
    assert lognormal_put_value(s0, mu, sigma, HORIZON, strike) == pytest.approx(put, rel=1e-12)
    assert lognormal_digital_value(s0, mu, sigma, HORIZON, strike) == pytest.approx(dig, rel=1e-12)


def test_closed_form_frozen_oracles():
    assert lognormal_call_value(100.0, 0.0, 0.2, 1.0, 100.0) == pytest.approx(CALL_ATM_FLAT, rel=1e-12)
    assert lognormal_call_value(100.0, 0.02, 0.2, 1.0, 100.0) == pytest.approx(CALL_ATM_DRIFT_UP, rel=1e-12)
    assert lognormal_call_value(100.0, -0.02, 0.2, 1.0, 100.0) == pytest.approx(CALL_ATM_DRIFT_DOWN, rel=1e-12)
    assert lognormal_put_value(100.0, 0.02, 0.2, 1.0, 100.0) == pytest.approx(PUT_ATM_DRIFT_UP, rel=1e-12)
    assert lognormal_put_value(100.0, -0.02, 0.2, 1.0, 100.0) == pytest.approx(PUT_ATM_DRIFT_DOWN, rel=1e-12)
    assert lognormal_digital_value(100.0, 0.02, 0.2, 1.0, 100.0) == pytest.approx(DIGITAL_ATM_DRIFT_UP, rel=1e-12)


def test_closed_form_degenerate_vol():
    # sigma sqrt(T) = 0 collapses to the deterministic forward.
    assert lognormal_call_value(100.0, 0.05, 0.0, 1.0, 100.0) == pytest.approx(
        100.0 * math.exp(0.05) - 100.0)
    assert lognormal_call_value(100.0, 0.0, 0.2, 0.0, 120.0) == 0.0
    assert lognormal_put_value(100.0, 0.0, 0.0, 1.0, 120.0) == pytest.approx(20.0)
    assert lognormal_digital_value(100.0, 0.0, 0.0, 1.0, 90.0) == 1.0
    assert lognormal_digital_value(100.0, 0.0, 0.0, 1.0, 110.0) == 0.0


def test_closed_form_free_strike():
    # strike <= 0: the call is the forward itself, the put is worthless.
    assert lognormal_call_value(100.0, 0.01, 0.2, 1.0, 0.0) == pytest.approx(
        100.0 * math.exp(0.01))
    assert lognormal_put_value(100.0, 0.01, 0.2, 1.0, 0.0) == 0.0
    assert lognormal_digital_value(100.0, 0.01, 0.2, 1.0, -5.0) == 1.0


def test_ndtr_relative_error_against_scipy():
    # Below about -37.5 scipy's Phi is subnormal or flushed to zero, where a
    # relative error means nothing; there both sit within the smallest
    # normal double of each other.
    x = np.linspace(-38.0, 9.0, 200_001)
    ref = special.ndtr(x)
    got = np.array([_ndtr(float(a)) for a in x])
    normal = ref >= np.finfo(float).tiny
    assert normal[x > -37.5].all()
    assert np.max(np.abs(got - ref)[normal] / ref[normal]) <= 2e-13
    assert np.max(np.abs(got - ref)[~normal]) <= np.finfo(float).tiny


def test_ndtr_within_four_ulp_near_the_origin():
    x = np.linspace(-1.0, 1.0, 100_001)
    ref = special.ndtr(x)
    got = np.array([_ndtr(float(a)) for a in x])
    assert np.max(np.abs(got - ref) / np.spacing(ref)) <= 4.0


def test_ndtr_exact_points():
    assert _ndtr(0.0) == 0.5
    assert _ndtr(-0.0) == 0.5
    assert _ndtr(math.inf) == 1.0
    assert _ndtr(-math.inf) == 0.0
    assert math.isnan(_ndtr(math.nan))


def _shipped_drifts():
    # Each shipped scenario's market at its own drift and at the two
    # extremal drifts mu +- sigma k that the closed-form band prices.
    root = Path(__file__).resolve().parents[1] / "scenarios"
    markets = set()
    for path in sorted(root.glob("*.scn")):
        scn = load_scenario(str(path))
        for drift in (scn.mu, scn.mu + scn.sigma * scn.k, scn.mu - scn.sigma * scn.k):
            markets.add((scn.s0, drift, scn.sigma, scn.horizon))
    return sorted(markets)


@pytest.mark.parametrize("strike", [80.0, 100.0, 120.0])
@pytest.mark.parametrize("market", _shipped_drifts())
def test_closed_forms_match_scipy_ndtr(market, strike):
    s0, drift, sigma, horizon = market
    width = sigma * math.sqrt(horizon)
    d1 = (math.log(s0 / strike) + (drift + 0.5 * sigma * sigma) * horizon) / width
    d2 = d1 - width
    forward = s0 * math.exp(drift * horizon)
    ndtr = special.ndtr
    expected = {
        lognormal_call_value: forward * ndtr(d1) - strike * ndtr(d2),
        lognormal_put_value: strike * ndtr(-d2) - forward * ndtr(-d1),
        lognormal_digital_value: ndtr(d2),
    }
    for value, reference in expected.items():
        assert value(s0, drift, sigma, horizon, strike) == pytest.approx(reference, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# extremal prices
# ---------------------------------------------------------------------------

def test_extremal_closed_form_call(acc_model):
    report = extremal_price(Payoff.call(100.0), acc_model, HORIZON)
    assert report.method == "closed_form"
    assert report.upper == pytest.approx(CALL_ATM_DRIFT_UP, rel=1e-12)
    assert report.lower == pytest.approx(CALL_ATM_DRIFT_DOWN, rel=1e-12)


def test_extremal_closed_form_put_swaps_roles(acc_model):
    # Decreasing payoff: the upper price sits at the downward drift.
    report = extremal_price(Payoff.put(100.0), acc_model, HORIZON)
    assert report.upper == pytest.approx(PUT_ATM_DRIFT_DOWN, rel=1e-12)
    assert report.lower == pytest.approx(PUT_ATM_DRIFT_UP, rel=1e-12)


# A monotone claim without a closed form takes the sampled band, the +k and
# -k entries of the minimax profile (ExtremalReport.from_profile).

def test_extremal_reweighting_route(family_k01, bundle_50k, weights_50k):
    payoff = Payoff.call(100.0)
    _, report = profile_band(payoff.monotonicity, payoff.map(bundle_50k.terminal()),
                             family_k01, weights_50k)
    assert report.method == "reweighting"
    assert report.upper_se > 0.0 and report.lower_se > 0.0
    assert abs(report.upper - CALL_ATM_DRIFT_UP) < 3.0 * report.upper_se
    assert abs(report.lower - CALL_ATM_DRIFT_DOWN) < 3.0 * report.lower_se
    assert report.upper > report.lower


def test_extremal_reweighting_digital(family_k01, bundle_50k, weights_50k):
    payoff = Payoff.digital(100.0)
    _, report = profile_band(payoff.monotonicity, payoff.map(bundle_50k.terminal()),
                             family_k01, weights_50k)
    assert abs(report.upper - DIGITAL_ATM_DRIFT_UP) < 3.0 * report.upper_se
    oracle_low = lognormal_digital_value(100.0, -0.02, 0.2, 1.0, 100.0)
    assert abs(report.lower - oracle_low) < 3.0 * report.lower_se


@pytest.mark.parametrize("n", [2, ROW_BLOCK - 1, ROW_BLOCK + 1, 50_000])
@pytest.mark.parametrize("payoff", [Payoff.call(100.0), Payoff.put(100.0)], ids=["call", "put"])
def test_extremal_reweighting_is_bitwise_dense(acc_model, grid8, family_k01, n, payoff):
    bundle = simulate_sde(acc_model, generate_brownian(grid8, n, 700 + n))
    x = payoff.map(bundle.terminal())
    hi, hi_se, lo, lo_se = dense_band(payoff.monotonicity, x, bundle.brownian_terminal,
                                      acc_model.k, HORIZON)
    _, report = profile_band(payoff.monotonicity, x, family_k01, weight_matrix(family_k01, bundle))
    assert (report.upper, report.upper_se, report.lower, report.lower_se) == (hi, hi_se, lo, lo_se)


@pytest.mark.parametrize("n", [4097, 50_000], ids=["4097", "50k"])
@pytest.mark.parametrize("payoff", [Payoff.digital(100.0), Payoff.put(100.0), Payoff.call(100.0)],
                         ids=["digital", "put", "call"])
def test_extremal_price_is_the_minimax_profile_at_k(acc_model, grid8, bundle_50k, n, payoff):
    # The +k and -k entries of the minimax profile over the default family
    # estimate the extremal prices at drifts mu +- k sigma: the closed form
    # for a call or put, lognormal_digital_value for a digital.
    bundle = bundle_50k if n == 50_000 else simulate_sde(acc_model, generate_brownian(grid8, n, 5))
    family = default_control_family(acc_model.k)
    _, report = profile_band(payoff.monotonicity, payoff.map(bundle.terminal()), family,
                             weight_matrix(family, bundle))
    assert report.method == "reweighting"
    if payoff.kind == "digital":
        (mu, sigma), k = acc_model.gbm_constants, acc_model.k
        closed = [lognormal_digital_value(acc_model.s0, mu + sign * k * sigma, sigma, HORIZON,
                                          payoff.strike) for sign in (1.0, -1.0)]
    else:
        closed_form = extremal_price(payoff, acc_model, HORIZON)
        closed = [closed_form.upper, closed_form.lower]
    assert abs(report.upper - closed[0]) < 3.0 * report.upper_se
    assert abs(report.lower - closed[1]) < 3.0 * report.lower_se


def test_extremal_closed_form_rejects_digital(acc_model):
    with pytest.raises(ValueError, match="call/put"):
        extremal_price(Payoff.digital(100.0), acc_model, HORIZON)


def test_extremal_requires_monotonicity(acc_model):
    straddle = Payoff.custom("straddle", lambda s: np.abs(s - 100.0))
    with pytest.raises(ValueError, match="minimax_expectation"):
        extremal_price(straddle, acc_model, HORIZON)


def test_extremal_closed_form_requires_gbm():
    general = MarketModel.general(100.0, lambda t, s: 0.0 * s, lambda t, s: 0.2 * s, k=0.1)
    with pytest.raises(ValueError):
        extremal_price(Payoff.call(100.0), general, HORIZON)


def test_has_closed_form_is_what_extremal_price_prices(acc_model):
    general = MarketModel.general(100.0, lambda t, s: 0.0 * s, lambda t, s: 0.2 * s, k=0.1)
    payoffs = [Payoff.call(100.0), Payoff.put(100.0), Payoff.digital(100.0),
               Payoff.custom("up", lambda s: 2.0 * s, monotonicity="increasing")]
    for payoff, model in itertools.product(payoffs, (acc_model, general)):
        if has_closed_form(payoff, model):
            assert extremal_price(payoff, model, HORIZON).method == "closed_form"
        else:
            with pytest.raises(ValueError, match="call/put"):
                extremal_price(payoff, model, HORIZON)
    assert [p.kind for p in payoffs if has_closed_form(p, acc_model)] == list(CLOSED_FORMS)


# ---------------------------------------------------------------------------
# minimax over the control family
# ---------------------------------------------------------------------------

def test_minimax_constant_payoff_brackets(family_k01, bundle_50k, weights_50k):
    const = Payoff.custom("const", lambda s: np.full_like(s, 7.0))
    res = minimax_expectation(const.map(bundle_50k.terminal()), family_k01, weights_50k)
    # The zero control reproduces 7 exactly, so the envelope brackets it; the
    # extremes deviate only by the sampling error of the density means.
    assert res.lower <= 7.0 <= res.upper
    assert abs(res.upper - 7.0) < 0.05
    assert abs(res.lower - 7.0) < 0.05


def test_minimax_zero_bound_collapses(grid8):
    model = MarketModel.gbm(100.0, 0.0, 0.2, k=0.0)
    bundle = simulate_sde(model, generate_brownian(grid8, 20_000, 7))
    family = default_control_family(0.0)
    assert len(family) == 1
    res = minimax_expectation(Payoff.call(100.0).map(bundle.terminal()), family,
                              weight_matrix(family, bundle))
    assert res.upper == res.lower
    plain = float(np.maximum(bundle.terminal() - 100.0, 0.0).mean())
    assert res.upper == plain


def test_minimax_call_attains_boundary(family_k01, bundle_50k, weights_50k):
    res = minimax_expectation(Payoff.call(100.0).map(bundle_50k.terminal()), family_k01,
                              weights_50k)
    assert res.argmax_control.kind == "constant"
    assert res.argmax_control.theta0 == pytest.approx(0.1)
    assert res.argmin_control.kind == "constant"
    assert res.argmin_control.theta0 == pytest.approx(-0.1)
    tol = pooled_tolerance(res.std_errors)
    assert abs(res.upper - CALL_ATM_DRIFT_UP) < tol
    assert abs(res.lower - CALL_ATM_DRIFT_DOWN) < tol


def test_minimax_duality_bitwise(family_k01, bundle_50k, weights_50k):
    """lower(X) = -upper(-X) at float precision on shared paths and weights."""
    res_x = minimax_expectation(Payoff.call(100.0).map(bundle_50k.terminal()), family_k01,
                                weights_50k)
    neg = Payoff.custom("neg", lambda s: -np.maximum(s - 100.0, 0.0),
                        monotonicity="decreasing")
    res_n = minimax_expectation(neg.map(bundle_50k.terminal()), family_k01, weights_50k)
    scale = max(1.0, abs(res_x.upper))
    assert abs(res_x.lower + res_n.upper) < 1e-13 * scale
    assert abs(res_x.upper + res_n.lower) < 1e-13 * scale


def test_minimax_rejects_open_family(bundle_50k):
    lopsided = (ThetaControl.constant(0.07, 0.1),)
    assert not closed_under_negation(lopsided)
    values = Payoff.call(100.0).map(bundle_50k.terminal())
    with pytest.raises(ValueError, match="negation"):
        minimax_expectation(values, lopsided, weight_matrix(lopsided, bundle_50k))


def test_minimax_rejects_empty_family(bundle_50k):
    values = Payoff.call(100.0).map(bundle_50k.terminal())
    with pytest.raises(ValueError, match="nonempty"):
        minimax_expectation(values, (), np.ones((values.size, 1)))


def test_minimax_rejects_a_matrix_of_another_family(family_k01, bundle_50k, weights_50k):
    # One weight column per control, or the argmax would name the wrong one.
    values = Payoff.call(100.0).map(bundle_50k.terminal())
    for weights in (weights_50k[:, :-2], np.hstack([weights_50k, weights_50k[:, :1]]),
                    weights_50k[:, 0]):
        with pytest.raises(ValueError, match="one column"):
            minimax_expectation(values, family_k01, weights)
    with pytest.raises(ValueError, match="does not match"):
        minimax_expectation(values[:10], family_k01, weights_50k)


def test_minimax_upper_dominates_mean(family_k01, bundle_50k, weights_50k):
    payoff = Payoff.call(100.0)
    values = payoff.map(bundle_50k.terminal())
    res = minimax_expectation(values, family_k01, weights_50k)
    plain = float(values.mean())
    # The zero control sits in the family, so the envelope brackets the mean.
    assert res.lower <= plain <= res.upper


def test_minimax_comonotone_additivity(family_k01, bundle_50k, weights_50k):
    """Upper values add across claims increasing in the same terminal state.

    Both claims are maximised by the same boundary control, so the envelope
    of the sum splits into the sum of the envelopes, up to shared-path noise.
    """
    x = Payoff.custom("part_a", lambda s: np.maximum(s - 100.0, 0.0),
                      monotonicity="increasing")
    y = Payoff.custom("part_b", lambda s: (s > 110.0).astype(np.float64),
                      monotonicity="increasing")
    both = Payoff.custom("sum", lambda s: np.maximum(s - 100.0, 0.0)
                         + (s > 110.0).astype(np.float64),
                         monotonicity="increasing")
    rx, ry, rxy = (minimax_expectation(claim.map(bundle_50k.terminal()), family_k01, weights_50k)
                   for claim in (x, y, both))
    tol = pooled_tolerance(list(rx.std_errors) + list(ry.std_errors) + list(rxy.std_errors))
    assert abs(rxy.upper - (rx.upper + ry.upper)) < tol
    assert abs(rxy.lower - (rx.lower + ry.lower)) < tol


def test_pooled_tolerance_combines_in_quadrature():
    assert pooled_tolerance([0.0, 0.0]) == 0.0
    assert pooled_tolerance([0.01, 0.02]) == pytest.approx(3.0 * math.hypot(0.01, 0.02))
    assert pooled_tolerance([0.01]) == pytest.approx(0.03)


# ---------------------------------------------------------------------------
# attainment diagnostics
# ---------------------------------------------------------------------------

def test_attainment_increasing(bundle_50k):
    report = attainment_check(Payoff.call(100.0), 0.1, bundle_50k)
    assert report.monotone_profile_ok
    assert report.boundary_attained
    assert report.violations == ()
    assert report.thetas.shape == (21,)
    assert report.thetas[report.argmax_index] == pytest.approx(0.1)
    assert report.thetas[report.argmin_index] == pytest.approx(-0.1)


def test_attainment_decreasing(bundle_50k):
    report = attainment_check(Payoff.put(100.0), 0.1, bundle_50k)
    assert report.monotone_profile_ok
    assert report.boundary_attained
    assert report.thetas[report.argmax_index] == pytest.approx(-0.1)
    assert report.thetas[report.argmin_index] == pytest.approx(0.1)


def test_attainment_undeclared_direction_profiles_only(bundle_50k):
    straddle = Payoff.custom("straddle", lambda s: np.abs(s - 100.0))
    report = attainment_check(straddle, 0.1, bundle_50k)
    assert report.monotone_profile_ok is None
    assert report.boundary_attained is None
    assert report.estimates.shape == (ATTAINMENT_GRID,)
    assert np.all(report.std_errors > 0.0)


@pytest.mark.parametrize("seed", [1, 2, 3, 31])
def test_attainment_boundary_uses_the_paired_error(seed):
    # A tent peaked near the reference median of S_T, declared increasing:
    # its profile peaks inside [-k, k], about 0.007 above the -k endpoint.
    # Every point is taken on the same paths, so the tie allowance is 3 SEs
    # of the paired difference (about 0.001), not the unpaired 3 pooled SEs
    # of the two estimates (about 0.09), which would call the peak a tie.
    from nexpect.paths import TimeGrid
    hump = Payoff.custom("hump", lambda s: np.maximum(0.0, 10.0 - np.abs(s - 98.0)),
                         monotonicity="increasing")
    bundle = simulate_sde(MarketModel.gbm(100.0, 0.0, 0.2),
                          generate_brownian(TimeGrid(1.0, 4), 20_000, seed))
    report = attainment_check(hump, 0.1, bundle)
    hi = report.argmax_index
    gap = report.estimates[hi] - report.estimates[0]
    assert 0 < hi < ATTAINMENT_GRID - 1 and report.estimates[0] >= report.estimates[-1]
    weights = weight_matrix([ThetaControl.constant(t, 0.1) for t in report.thetas[[hi, 0]]],
                            bundle)
    paired = (weights[:, 0] - weights[:, 1]) * hump.map(bundle.terminal())
    assert 3.0 * paired.std(ddof=1) / math.sqrt(bundle.n_paths) < gap
    assert gap < pooled_tolerance(report.std_errors[[hi, 0]])
    assert not report.boundary_attained


def test_attainment_validation(bundle_50k):
    with pytest.raises(ValueError):
        attainment_check(Payoff.call(100.0), -0.1, bundle_50k)
