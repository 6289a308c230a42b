"""Capacities, the Choquet integral, and its structural inequalities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nexpect import (
    Capacity,
    LevelQuadrature,
    Payoff,
    ThetaControl,
    build_capacity,
    choquet_holder_check,
    choquet_integral,
    default_control_family,
    expectation_profile,
    generate_brownian,
    girsanov_weights,
    is_comonotone,
    random_threshold_pairs,
    simulate_sde,
    submodularity_check,
)
from nexpect.choquet import PREFIX_BLOCK, SIMPLE_FUNCTION_LIMIT, _SortedSample
from nexpect.cli import _choquet_std_error
from tests.conftest import CALL_ATM_DRIFT_UP, DIGITAL_ATM_DRIFT_UP


@pytest.fixture(scope="module")
def caps(family_k01, bundle_200k, weights_200k):
    upper = build_capacity("upper", family_k01, bundle_200k, weights=weights_200k)
    lower = build_capacity("lower", family_k01, bundle_200k, weights=weights_200k)
    return upper, lower


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------

def test_payoff_constructors():
    s = np.array([80.0, 100.0, 120.0])
    assert np.array_equal(Payoff.call(100.0).map(s), [0.0, 0.0, 20.0])
    assert np.array_equal(Payoff.put(100.0).map(s), [20.0, 0.0, 0.0])
    assert np.array_equal(Payoff.digital(100.0).map(s), [0.0, 0.0, 1.0])


def test_payoff_monotonicity_spot_check():
    wrong = Payoff.custom("mislabelled", lambda s: -s, monotonicity="increasing")
    with pytest.raises(ValueError, match="increasing"):
        wrong.check_monotonicity(np.array([1.0, 2.0, 3.0]))
    Payoff.call(100.0).check_monotonicity(np.linspace(50.0, 150.0, 100))
    Payoff.custom("straddle", lambda s: np.abs(s - 100.0)).check_monotonicity(
        np.linspace(50.0, 150.0, 100)
    )


def test_payoff_rejects_nonfinite():
    bad = Payoff.custom("inverse", lambda s: 1.0 / (s - s[0]))
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            bad.map(np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# capacity basics
# ---------------------------------------------------------------------------

def test_capacity_normalization_exact(caps):
    upper, lower = caps
    n = upper.n_paths
    for cap in caps:
        assert cap.evaluate(np.zeros(n, dtype=bool)) == 0.0
        assert cap.evaluate(np.ones(n, dtype=bool)) == 1.0


def test_capacity_range_and_order(caps, bundle_200k):
    upper, lower = caps
    event = bundle_200k.terminal() > 105.0
    u, l = upper.evaluate(event), lower.evaluate(event)
    assert 0.0 <= l <= u <= 1.0


def test_capacity_monotone_in_events(caps, bundle_200k):
    upper, lower = caps
    term = bundle_200k.terminal()
    # Nested threshold events: each per-control reweighted mean is monotone,
    # so the envelope is monotone too (up to last-ulp float rounding).
    thresholds = [90.0, 100.0, 110.0, 120.0]
    for cap in caps:
        vals = [cap.evaluate(term > thr) for thr in thresholds]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12


def test_capacity_upper_digital_value(caps, bundle_200k, family_k01):
    upper, _ = caps
    event = bundle_200k.terminal() > 100.0
    value = upper.evaluate(event)
    # The maximiser is the +k control; compare against its own normalised mean
    # and the frozen oracle P(S_T > 100) = 0.5 under drift +k sigma.
    plus = ThetaControl.constant(0.1, 0.1)
    w = girsanov_weights(plus, bundle_200k)
    est = float((w * event).sum() / w.sum())
    se = 0.5 / math.sqrt(bundle_200k.n_paths)  # binomial bound
    assert value >= est - 1e-12
    assert abs(value - DIGITAL_ATM_DRIFT_UP) < 4.0 * se


def test_capacity_duality(caps, bundle_200k):
    upper, lower = caps
    term = bundle_200k.terminal()
    rng = np.random.default_rng(5)
    for q in rng.uniform(0.05, 0.95, size=10):
        event = term > np.quantile(term, q)
        assert abs(lower.evaluate(event) - (1.0 - upper.evaluate(~event))) < 1e-12


def test_capacity_k0_is_probability(bundle_50k):
    family = (ThetaControl.constant(0.0, 0.0),)
    cap = build_capacity("upper", family, bundle_50k)
    event = bundle_50k.terminal() > 100.0
    assert cap.evaluate(event) == event.mean()


def test_capacity_shape_validation(caps):
    upper, _ = caps
    with pytest.raises(ValueError):
        upper.evaluate(np.ones(3, dtype=bool))
    with pytest.raises(ValueError):
        Capacity("sideways", upper.family, upper.weights, upper.totals)


# ---------------------------------------------------------------------------
# level quadratures
# ---------------------------------------------------------------------------

def test_quadrature_spans_and_sorted():
    values = np.array([3.0, -1.0, 2.0, 2.0, 7.5])
    quad = LevelQuadrature.from_values(values, 9)
    assert quad.levels[0] == -1.0
    assert quad.levels[-1] == 7.5
    assert np.all(np.diff(quad.levels) > 0)
    with pytest.raises(ValueError):
        LevelQuadrature(levels=np.array([1.0, 1.0]))


def test_quadrature_must_span_payoff(caps):
    upper, _ = caps
    values = np.linspace(0.0, 10.0, upper.n_paths)
    short = LevelQuadrature(levels=np.linspace(0.0, 5.0, 33))
    with pytest.raises(ValueError, match="span"):
        choquet_integral(values, upper, short)


# ---------------------------------------------------------------------------
# the integral
# ---------------------------------------------------------------------------

def test_integral_constant_exact(caps):
    upper, lower = caps
    for cap in caps:
        values = np.full(cap.n_paths, -2.5)
        assert choquet_integral(values, cap) == -2.5
        values = np.full(cap.n_paths, 4.0)
        assert choquet_integral(values, cap) == 4.0


def test_integral_indicator_equals_capacity(caps, bundle_200k):
    upper, lower = caps
    event = bundle_200k.terminal() > 110.0
    values = event.astype(float)
    for cap in caps:
        assert choquet_integral(values, cap) == cap.evaluate(event)


def test_integral_simple_function_agreement(caps, bundle_200k):
    """Quadrature and exact paths coincide on a few-valued payoff.

    Every atom of this payoff carries enough mass for the quantile levels to
    land on it, and one-sided survival limits make the trapezoid exact there.
    """
    upper, _ = caps
    term = bundle_200k.terminal()
    values = np.clip(np.round(np.maximum(term - 100.0, 0.0) / 5.0) * 5.0, 0.0, 40.0)
    exact = choquet_integral(values, upper)
    quad = choquet_integral(values, upper, LevelQuadrature.from_values(values, 513))
    assert abs(exact - quad) < 1e-8 * max(1.0, abs(exact))


def test_integral_call_against_oracle(caps, bundle_200k):
    upper, _ = caps
    values = Payoff.call(100.0).map(bundle_200k.terminal())
    estimate = choquet_integral(values, upper)
    # Noise in the per-level envelope biases the estimate upward slightly,
    # so the tolerance is looser than the plain-MC standard error.
    assert abs(estimate - CALL_ATM_DRIFT_UP) < 0.015 * CALL_ATM_DRIFT_UP


def test_integral_negative_payoff(caps, bundle_200k):
    # Payoff bounded above by 0 exercises the negative-level branch.
    upper, _ = caps
    values = -Payoff.put(100.0).map(bundle_200k.terminal())
    estimate = choquet_integral(values, upper)
    plus = ThetaControl.constant(0.1, 0.1)
    (ref,), (se,) = expectation_profile(values, (plus,), bundle_200k)
    assert estimate <= 0.0
    assert abs(estimate - ref) < max(3.0 * se, 0.02 * abs(ref))


@settings(deadline=None, max_examples=20)
@given(scale=st.floats(min_value=0.1, max_value=10.0))
def test_integral_positive_homogeneity(scale):
    rng = np.random.default_rng(7)
    n = 4000
    weights = rng.lognormal(0.0, 0.1, size=(n, 3))
    cap = Capacity("upper", (ThetaControl.constant(0.0, 0.0),) * 3, weights, np.ones(n) @ weights)
    values = rng.normal(1.0, 2.0, size=n)
    base = choquet_integral(values, cap)
    scaled = choquet_integral(scale * values, cap)
    assert scaled == pytest.approx(scale * base, rel=1e-6, abs=1e-9)


@settings(deadline=None, max_examples=20)
@given(shift=st.floats(min_value=-5.0, max_value=5.0))
def test_integral_translation_covariance(shift):
    rng = np.random.default_rng(11)
    n = 4000
    weights = rng.lognormal(0.0, 0.1, size=(n, 3))
    cap = Capacity("upper", (ThetaControl.constant(0.0, 0.0),) * 3, weights, np.ones(n) @ weights)
    values = rng.normal(0.0, 1.5, size=n)
    base = choquet_integral(values, cap)
    shifted = choquet_integral(values + shift, cap)
    # Exact for the true integral; the sampled quadrature moves its levels
    # with the shift, so what remains is level-placement rounding (levels
    # that round onto sample values flip one path in or out), observed at
    # ~1e-5 of the value scale.  A genuine translation bug would show at
    # the 1e-3 scale of a whole quadrature segment.
    assert shifted == pytest.approx(base + shift, rel=1e-4, abs=1e-4)


def test_integral_monotone_in_payoff(caps, bundle_200k):
    upper, _ = caps
    term = bundle_200k.terminal()
    small = Payoff.call(110.0).map(term)
    large = Payoff.call(100.0).map(term)
    assert choquet_integral(small, upper) <= choquet_integral(large, upper) + 1e-9


def test_integral_upper_dominates_lower(caps, bundle_200k):
    upper, lower = caps
    values = Payoff.call(100.0).map(bundle_200k.terminal())
    quad = LevelQuadrature.from_values(values, 513)
    assert choquet_integral(values, lower, quad) <= choquet_integral(values, upper, quad)


# ---------------------------------------------------------------------------
# comonotonicity
# ---------------------------------------------------------------------------

def test_is_comonotone_basic():
    s = np.array([90.0, 100.0, 110.0, 95.0])
    call = np.maximum(s - 100.0, 0.0)
    put = np.maximum(100.0 - s, 0.0)
    ok, witness = is_comonotone(s, call)
    assert ok and witness is None
    ok, witness = is_comonotone(s, put)
    assert not ok
    i, j = witness
    assert (s[i] - s[j]) * (put[i] - put[j]) < 0.0


def test_is_comonotone_constants_and_ties():
    s = np.array([1.0, 2.0, 2.0, 3.0])
    assert is_comonotone(s, np.zeros(4))[0]
    # Different values on tied x entries are allowed (their product is zero)
    # as long as both stay between the neighbouring groups.
    assert is_comonotone(s, np.array([0.0, 5.0, 3.0, 6.0]))[0]
    # ...but a tied value below an earlier group is a genuine violation.
    y = np.array([4.0, 5.0, 3.0, 6.0])
    ok, witness = is_comonotone(s, y)
    assert not ok
    i, j = witness
    assert (s[i] - s[j]) * (y[i] - y[j]) < 0.0
    with pytest.raises(ValueError):
        is_comonotone(s, np.zeros(3))


def test_comonotone_additivity_of_upper_integral(caps, bundle_200k):
    """The integral adds over comonotone payoffs (both optimise the same way)."""
    upper, _ = caps
    term = bundle_200k.terminal()
    a = Payoff.call(100.0).map(term)
    b = Payoff.call(115.0).map(term)
    assert is_comonotone(a, b)[0]
    quad_joint = LevelQuadrature.from_values(a + b, 2049)
    joint = choquet_integral(a + b, upper, quad_joint)
    parts = choquet_integral(a, upper, LevelQuadrature.from_values(a, 2049)) + choquet_integral(
        b, upper, LevelQuadrature.from_values(b, 2049)
    )
    assert joint == pytest.approx(parts, rel=2e-3)


# ---------------------------------------------------------------------------
# submodularity
# ---------------------------------------------------------------------------

def test_submodularity_on_threshold_pairs(caps, bundle_200k):
    upper, _ = caps
    term = bundle_200k.terminal()
    rng = np.random.default_rng(13)
    report = submodularity_check(upper, random_threshold_pairs(term, 300, rng))
    assert report.count == 300
    assert report.max_violation <= 1e-12


def test_submodularity_nested_pairs_exact(caps, bundle_200k):
    upper, _ = caps
    term = bundle_200k.terminal()
    pairs = [(term > a, term > b) for a, b in [(90.0, 100.0), (95.0, 120.0), (100.0, 101.0)]]
    report = submodularity_check(upper, pairs)
    # For nested events the union/intersection reproduce the pair exactly.
    assert report.max_violation <= 1e-15


def test_lower_capacity_superadditive(caps, bundle_200k):
    _, lower = caps
    term = bundle_200k.terminal()
    rng = np.random.default_rng(17)
    report = submodularity_check(lower, random_threshold_pairs(term, 300, rng))
    assert report.orientation == "lower"
    assert report.max_violation <= 1e-12


def test_submodularity_requires_pairs(caps):
    upper, _ = caps
    with pytest.raises(ValueError):
        submodularity_check(upper, [])


# ---------------------------------------------------------------------------
# the Hoelder inequality
# ---------------------------------------------------------------------------

def test_holder_exponent_validation(caps):
    upper, _ = caps
    x = np.ones(upper.n_paths)
    with pytest.raises(ValueError):
        choquet_holder_check(x, x, upper, p=2.0, q=3.0)
    with pytest.raises(ValueError):
        choquet_holder_check(x, x, upper, p=1.0, q=1.0)


def test_holder_self_pair_near_equality(family_k01, bundle_50k, weights_50k):
    upper = build_capacity("upper", family_k01, bundle_50k, weights=weights_50k)
    x = bundle_50k.terminal() / 100.0
    report = choquet_holder_check(x, x, upper, p=2.0, q=2.0, bootstrap=8)
    assert report.passed
    # X = Y makes the inequality tight up to quadrature error.
    assert abs(report.margin) < 0.01 * report.rhs


def test_holder_random_pairs(family_k01, bundle_50k, weights_50k):
    upper = build_capacity("upper", family_k01, bundle_50k, weights=weights_50k)
    term = bundle_50k.terminal()
    pairs = [
        (np.maximum(term - 100.0, 0.0), term / 100.0),
        (np.abs(term - 100.0), np.maximum(110.0 - term, 0.0)),
        (term / 100.0, (term > 100.0).astype(float)),
    ]
    for x, y in pairs:
        report = choquet_holder_check(x, y, upper, p=2.0, q=2.0, bootstrap=8)
        assert report.passed, (report.margin, report.tolerance)


def test_holder_asymmetric_exponents(family_k01, bundle_50k, weights_50k):
    upper = build_capacity("upper", family_k01, bundle_50k, weights=weights_50k)
    term = bundle_50k.terminal()
    report = choquet_holder_check(
        np.maximum(term - 100.0, 0.0), term / 100.0, upper, p=3.0, q=1.5, bootstrap=8
    )
    assert report.passed


# ---------------------------------------------------------------------------
# exact large-sample integration
# ---------------------------------------------------------------------------

def test_integral_exact_dominates_every_member(family_k01, bundle_50k, weights_50k):
    """The envelope integral sits above each member's own expectation.

    Each self-normalized member mean is the integral against one measure,
    and the upper envelope dominates it at every level, so the relation is
    structural, not statistical.
    """
    upper = build_capacity("upper", family_k01, bundle_50k, weights=weights_50k)
    values = np.maximum(bundle_50k.terminal() - 100.0, 0.0)
    total = choquet_integral(values, upper)
    member_means = (values @ weights_50k) / (np.ones(values.size) @ weights_50k)
    slack = 1e-10 * max(1.0, abs(total))
    assert total >= member_means.max() - slack
    # For an increasing payoff the boundary member attains the envelope at
    # every level up to tail noise, so the two agree tightly as well.
    assert total == pytest.approx(member_means.max(), rel=2e-3)


def test_integral_quadrature_bias_is_one_sided(family_k01, bundle_50k, weights_50k):
    # Endpoint averaging overestimates on the convex tail of the survival
    # curve; the documented trade-off of the level-budgeted method.
    upper = build_capacity("upper", family_k01, bundle_50k, weights=weights_50k)
    values = np.maximum(bundle_50k.terminal() - 100.0, 0.0)
    exact = choquet_integral(values, upper)
    quad = choquet_integral(values, upper, LevelQuadrature.from_values(values, 513))
    assert quad >= exact - 1e-9
    assert abs(quad - exact) < 0.03 * exact


# ---------------------------------------------------------------------------
# the sorted-prefix engine against the dense formulas
# ---------------------------------------------------------------------------

def dense_prefix(x, weights, mult=None):
    scaled = weights if mult is None else weights * mult[:, None]
    order = np.argsort(x, kind="stable")
    return np.vstack([np.zeros((1, weights.shape[1])), np.cumsum(scaled[order], axis=0)])


def dense_tails(x, cap, levels, side, mult=None):
    prefix = dense_prefix(x, cap.weights, mult)
    denom = prefix[-1]
    idx = np.searchsorted(np.sort(x, kind="stable"), levels, side=side)
    return np.clip(cap._reduce((denom[None, :] - prefix[idx]) / denom[None, :]), 0.0, 1.0)


def dense_exact(x, cap):
    sorted_x = np.sort(x, kind="stable")
    prefix = dense_prefix(x, cap.weights)
    denom = prefix[-1]
    curve = np.clip(cap._reduce((denom[None, :] - prefix[1:-1]) / denom[None, :]), 0.0, 1.0)
    return float(sorted_x[0]) + float(np.dot(np.diff(sorted_x), curve))


def dense_quadrature(x, cap, levels, mult=None):
    strict = dense_tails(x, cap, levels, "right", mult)
    loose = dense_tails(x, cap, levels, "left", mult)
    widths = np.diff(levels)
    total = float(np.dot(widths, 0.5 * (strict[:-1] + loose[1:])))
    total -= float(widths[levels[1:] <= 0.0].sum())
    return total + max(float(levels[0]), 0.0) + min(float(levels[-1]), 0.0)


def dense_resampled(x, cap, quad, mult):
    """What choquet_integral returned against the capacity with its weight
    rows scaled by the multiplicities, computed with a full prefix table."""
    weights = cap.weights * mult[:, None]
    if weights.shape[1] == 1:
        total = (mult @ cap.weights)[0]
        return float(np.mean(weights[:, 0] * x) * (x.size / float(total)))
    assert quad.levels[0] >= 0.0  # no zero level to insert
    return dense_quadrature(x, cap, quad.levels, mult)


def engine_case(n, controls, orientation, seed):
    rng = np.random.default_rng(seed)
    # Rounded draws tie often; the stable sort must keep tied rows in order.
    x = np.round(rng.standard_normal(n), 1) * 3.0
    weights = np.exp(0.3 * rng.standard_normal((n, controls)))
    family = (ThetaControl.constant(0.0, 0.0),) * controls
    cap = Capacity(orientation, family, weights, np.ones(n) @ weights)
    mult = rng.multinomial(n, np.full(n, 1.0 / n)).astype(float)
    mult[: max(1, n // 3)] = 0.0
    mult[-1] = max(mult[-1], 1.0)  # keep the resampled total positive
    levels = np.unique(np.concatenate([
        [x.min() - 0.5, 0.0, x.max() + 0.5], x[: min(n, 7)], rng.uniform(x.min(), x.max(), 11),
    ]))
    return x, cap, mult, levels


@pytest.mark.parametrize(
    "n", [1, 2, PREFIX_BLOCK - 1, PREFIX_BLOCK, PREFIX_BLOCK + 1, 3 * PREFIX_BLOCK + 17]
)
@pytest.mark.parametrize("controls", [1, 2, 29])
def test_sorted_prefix_engine_is_bitwise_dense(n, controls):
    for orientation in ("upper", "lower"):
        x, cap, mult, levels = engine_case(n, controls, orientation, seed=n * 31 + controls)
        sample = _SortedSample(x)
        rows = np.random.default_rng(n).permutation(n + 1)
        for m in (None, mult):
            reference = dense_prefix(x, cap.weights, m)
            picked, total = sample.prefix_rows(cap.weights, rows, m)
            assert np.array_equal(picked, reference[rows])
            assert np.array_equal(total, reference[-1])
            strict, loose = sample.curves(cap, levels, m)
            assert np.array_equal(strict, dense_tails(x, cap, levels, "right", m))
            assert np.array_equal(loose, dense_tails(x, cap, levels, "left", m))
            got = sample.quadrature_integral(cap, levels, m)
            assert got == dense_quadrature(x, cap, levels, m)
        assert sample.exact_integral(cap) == dense_exact(x, cap)
        if controls > 1:
            assert choquet_integral(x, cap, LevelQuadrature(levels)) == (
                dense_quadrature(x, cap, levels)
            )
            if np.unique(x).size > SIMPLE_FUNCTION_LIMIT:
                assert choquet_integral(x, cap) == dense_exact(x, cap)


def test_exact_integral_is_bitwise_dense_on_bundle(caps, bundle_200k):
    values = np.maximum(bundle_200k.terminal() - 100.0, 0.0)
    for cap in caps:
        assert choquet_integral(values, cap) == dense_exact(values, cap)


@pytest.mark.parametrize("family", [
    default_control_family(0.0),  # k = 0: one member with unit weights
    (ThetaControl.constant(0.05, 0.1),),  # one member with non-unit weights
    default_control_family(0.1),  # 29 members
], ids=["k0", "one-tilt", "k0.1"])
def test_bootstraps_match_dense_resamples(acc_model, grid8, family):
    bundle = simulate_sde(acc_model, generate_brownian(grid8, 3000, 17))
    upper = build_capacity("upper", family, bundle)
    values = np.maximum(bundle.terminal() - 100.0, 0.0)

    # The Choquet error bar on a 2000-path prefix.
    m = 2000
    sub = Capacity("upper", family, upper.weights[:m], np.ones(m) @ upper.weights[:m])
    quad = LevelQuadrature.from_values(values[:m], 129)
    rng = np.random.default_rng(41 ^ 0x5EB007)
    outcomes = np.empty(8)
    for b in range(8):
        mult = rng.multinomial(m, np.full(m, 1.0 / m)).astype(float)
        outcomes[b] = dense_resampled(values[:m], sub, quad, mult)
    expected = float(outcomes.std(ddof=1) * math.sqrt(m / bundle.n_paths))
    assert _choquet_std_error(values, upper, 129, 41, resamples=8, limit=m) == expected

    # The Hoelder check shares one draw across its three arrays.
    x, y = values, bundle.terminal() / 100.0
    arrays = (x * y, x**2, y**2)
    quads = [LevelQuadrature.from_values(a, 513) for a in arrays]

    def parts(integrals):
        lhs, fx, fy = integrals
        return lhs, max(fx, 0.0) ** 0.5, max(fy, 0.0) ** 0.5

    lhs, fx, fy = parts([choquet_integral(a, upper, q) for a, q in zip(arrays, quads)])
    if len(family) > 1:
        assert lhs == dense_quadrature(arrays[0], upper, quads[0].levels)
    rng = np.random.default_rng(5)
    margins = np.empty(6)
    for b in range(6):
        mult = rng.multinomial(3000, np.full(3000, 1.0 / 3000)).astype(float)
        bl, bx, by = parts([dense_resampled(a, upper, q, mult) for a, q in zip(arrays, quads)])
        margins[b] = bx * by - bl
    report = choquet_holder_check(x, y, upper, bootstrap=6, rng=np.random.default_rng(5))
    assert (report.lhs, report.factor_x, report.factor_y) == (lhs, fx, fy)
    assert report.margin == fx * fy - lhs
    rhs = fx * fy
    assert report.tolerance == 3.0 * float(margins.std(ddof=1)) + 1e-3 * max(abs(rhs), abs(lhs), 1e-12)
