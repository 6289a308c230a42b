"""Capacities, the Choquet integral, and its structural inequalities."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nexpect import (
    Capacity,
    Payoff,
    ThetaControl,
    build_capacity,
    choquet_holder_check,
    choquet_influence,
    choquet_integral,
    default_control_family,
    expectation_profile,
    generate_brownian,
    girsanov_weights,
    is_comonotone,
    random_threshold_pairs,
    simulate_sde,
    submodularity_check,
    weight_matrix,
)
from nexpect.choquet import PREFIX_BLOCK, SIMPLE_FUNCTION_LIMIT, _SortedSample, choquet_estimates
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


@settings(deadline=None, max_examples=25)
@given(case=st.tuples(
    st.sampled_from([2, PREFIX_BLOCK - 1, PREFIX_BLOCK + 1, 3 * PREFIX_BLOCK + 17]),
    st.integers(2, 29),  # controls
    st.integers(1, SIMPLE_FUNCTION_LIMIT),  # levels drawn, ties included
    st.integers(0, 2**32 - 1),  # seed
))
@example(case=None)  # a rounded call on the shared bundle
def test_integral_simple_function_agreement(caps, bundle_200k, case):
    """The simple-function sum through Capacity.evaluate and the sorted
    sweep coincide on a few-valued payoff, on both sides: choquet_integral
    takes the first, the error bar the second, and both normalise by the
    capacity's totals."""
    if case is None:
        term = bundle_200k.terminal()
        values = np.clip(np.round(np.maximum(term - 100.0, 0.0) / 5.0) * 5.0, 0.0, 40.0)
        pair = caps
    else:
        n, controls, levels, seed = case
        rng = np.random.default_rng(seed)
        values = rng.choice(np.round(rng.standard_normal(levels) * 10.0 ** rng.integers(-2, 4), 3), n)
        weights = np.exp(0.3 * rng.standard_normal((n, controls)))
        family = (ThetaControl.constant(0.0, 0.0),) * controls
        pair = [Capacity(side, family, weights, np.ones(n) @ weights) for side in ("upper", "lower")]
    assert np.unique(values).size <= SIMPLE_FUNCTION_LIMIT
    for cap in pair:
        [(swept, _)] = _SortedSample(values, cap.weights).estimate((cap,))
        exact = choquet_integral(values, cap)
        assert abs(swept - exact) <= 1e-12 * max(1.0, np.abs(values).max())


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
    # The shift moves the smallest sample and leaves the gaps and the tail
    # capacities as they are, up to the rounding of the shifted values.
    assert shifted == pytest.approx(base + shift, rel=1e-9, abs=1e-9)


def test_integral_monotone_in_payoff(caps, bundle_200k):
    upper, _ = caps
    term = bundle_200k.terminal()
    small = Payoff.call(110.0).map(term)
    large = Payoff.call(100.0).map(term)
    assert choquet_integral(small, upper) <= choquet_integral(large, upper) + 1e-9


def test_integral_upper_dominates_lower(caps, bundle_200k):
    upper, lower = caps
    values = Payoff.call(100.0).map(bundle_200k.terminal())
    assert choquet_integral(values, lower) <= choquet_integral(values, upper)


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
    # Comonotone payoffs share one sort, and every tail event of a + b is a
    # tail event of both, so the exact sums agree up to rounding.
    joint = choquet_integral(a + b, upper)
    parts = choquet_integral(a, upper) + choquet_integral(b, upper)
    assert joint == pytest.approx(parts, rel=1e-12)


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


def test_submodularity_event_stack_is_bounded(family_k01, bundle_50k, weights_50k):
    # numpy reports its allocations to tracemalloc.  The default stacks of
    # two pairs hold 8 float event rows of n paths; at 16 pairs they would
    # hold 64 rows.
    upper = build_capacity("upper", family_k01, None, weights=weights_50k)
    term = bundle_50k.terminal()
    n = term.size
    pairs = list(random_threshold_pairs(term, 40, np.random.default_rng(5)))
    tracemalloc.start()
    try:
        report = submodularity_check(upper, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.count == 40
    assert 8 * n * 8 <= peak <= 1.5 * 8 * n * 8


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
    report = choquet_holder_check(x, x, upper, p=2.0, q=2.0)
    assert report.passed
    # X = Y makes the inequality tight up to rounding.
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
        report = choquet_holder_check(x, y, upper, p=2.0, q=2.0)
        assert report.passed, (report.margin, report.tolerance)


def test_holder_asymmetric_exponents(family_k01, bundle_50k, weights_50k):
    upper = build_capacity("upper", family_k01, bundle_50k, weights=weights_50k)
    term = bundle_50k.terminal()
    report = choquet_holder_check(
        np.maximum(term - 100.0, 0.0), term / 100.0, upper, p=3.0, q=1.5
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




# ---------------------------------------------------------------------------
# the sorted-prefix engine against the dense formulas
# ---------------------------------------------------------------------------

def dense_prefix(x, weights):
    order = np.argsort(x, kind="stable")
    return np.vstack([np.zeros((1, weights.shape[1])), np.cumsum(weights[order], axis=0)])


def dense_exact(x, cap):
    sorted_x = np.sort(x, kind="stable")
    prefix = dense_prefix(x, cap.weights)
    denom = cap.totals
    curve = np.clip(cap._reduce((denom[None, :] - prefix[1:-1]) / denom[None, :]), 0.0, 1.0)
    return float(sorted_x[0]) + float(np.dot(np.diff(sorted_x), curve))


def dense_influence(x, cap):
    """IF_l = n * sum_j w_lj / T_j * (A_j(l) - B_j) from the full prefix table
    and an argmax (argmin) per row, with the capacity's totals as T."""
    n, m = cap.weights.shape
    order = np.argsort(x, kind="stable")
    gaps = np.diff(x[order])
    denom = cap.totals
    tails = (denom[None, :] - dense_prefix(x, cap.weights)[1:-1]) / denom[None, :]
    attain = tails.argmax(axis=1) if cap.orientation == "upper" else tails.argmin(axis=1)
    hits = np.zeros((n - 1, m))
    hits[np.arange(n - 1), attain] = gaps
    below = np.vstack([np.zeros((1, m)), np.cumsum(hits, axis=0)])  # A_j at each position
    attained = hits.T @ tails[np.arange(n - 1), attain]  # B_j
    out = np.empty(n)
    out[order] = n * ((cap.weights[order] / denom) * (below - attained)).sum(axis=1)
    return out


def engine_case(n, controls, orientation, seed):
    rng = np.random.default_rng(seed)
    # Rounded draws tie often; the stable sort must keep tied rows in order.
    x = np.round(rng.standard_normal(n), 1) * 3.0
    weights = np.exp(0.3 * rng.standard_normal((n, controls)))
    family = (ThetaControl.constant(0.0, 0.0),) * controls
    return x, Capacity(orientation, family, weights, np.ones(n) @ weights)


ENGINE_SIZES = [1, 2, PREFIX_BLOCK - 1, PREFIX_BLOCK, PREFIX_BLOCK + 1, 3 * PREFIX_BLOCK + 17]


@pytest.mark.parametrize("n", ENGINE_SIZES)
@pytest.mark.parametrize("controls", [1, 2, 29])
def test_sorted_prefix_engine_is_bitwise_dense(n, controls):
    for orientation in ("upper", "lower"):
        x, cap = engine_case(n, controls, orientation, seed=n * 31 + controls)
        assert _SortedSample(x, cap.weights).estimate((cap,))[0][0] == dense_exact(x, cap)
        if controls > 1 and np.unique(x).size > SIMPLE_FUNCTION_LIMIT:
            assert choquet_integral(x, cap) == dense_exact(x, cap)


def test_exact_integral_is_bitwise_dense_on_bundle(caps, bundle_200k):
    values = np.maximum(bundle_200k.terminal() - 100.0, 0.0)
    for cap in caps:
        assert choquet_integral(values, cap) == dense_exact(values, cap)


# ---------------------------------------------------------------------------
# influence functions and standard errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", ENGINE_SIZES)
@pytest.mark.parametrize("controls", [1, 2, 29])
def test_influence_matches_dense_reference(n, controls):
    # One control takes the additive formula, so the dense Danskin sweep
    # checks it too.  A capacity swept alone matches the dense reference,
    # and one swept with the other side, in either order, gives its bits.
    for orientation in ("upper", "lower"):
        x, cap = engine_case(n, controls, orientation, seed=n * 37 + controls)
        value, got = next(choquet_estimates(x, (cap,)))
        ref = dense_influence(x, cap)
        scale = max(np.abs(ref).max(), np.abs(x).max())
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)
        other = Capacity({"upper": "lower", "lower": "upper"}[orientation],
                         cap.family, cap.weights, cap.totals)
        for sides in ((cap, other), (other, cap)):
            [(pair_value, pair_influence)] = [
                estimate for side, estimate in zip(sides, choquet_estimates(x, sides))
                if side is cap]
            assert pair_value == value
            assert np.array_equal(pair_influence, got)


@pytest.mark.parametrize("n", ENGINE_SIZES)
@pytest.mark.parametrize("controls", [1, 2, 29])
def test_joint_estimates_match_dense_references(n, controls):
    # Both sides from one sort: each value and influence equals the dense
    # reference, and the single-side functions give the same bits.
    x, upper = engine_case(n, controls, "upper", seed=n * 41 + controls)
    lower = Capacity("lower", upper.family, upper.weights, upper.totals)
    swept = controls > 1 and np.unique(x).size > SIMPLE_FUNCTION_LIMIT
    for cap, (value, influence) in zip((upper, lower), choquet_estimates(x, (upper, lower))):
        if swept:
            assert value == dense_exact(x, cap)
        else:
            assert value == pytest.approx(dense_exact(x, cap), rel=1e-12, abs=1e-12)
        ref = dense_influence(x, cap)
        scale = max(np.abs(ref).max(), np.abs(x).max())
        np.testing.assert_allclose(influence, ref, rtol=1e-12, atol=1e-12 * scale)
        assert value == choquet_integral(x, cap)
        assert np.array_equal(influence, choquet_influence(x, cap))


def test_each_capacity_is_swept_once(monkeypatch):
    # One sweep of running sums serves the upper and the lower capacity; no
    # pass is made per capacity or for the weight totals alone.
    sweeps = []
    running_sums = _SortedSample._running_sums

    def counted(self):
        sweeps.append(self)
        return running_sums(self)

    monkeypatch.setattr(_SortedSample, "_running_sums", counted)
    x, upper = engine_case(3 * PREFIX_BLOCK + 17, 29, "upper", seed=3)
    lower = Capacity("lower", upper.family, upper.weights, upper.totals)
    list(choquet_estimates(x, (upper, lower)))
    assert len(sweeps) == 1
    sweeps.clear()
    choquet_integral(x, upper)
    assert len(sweeps) == 1


def test_joint_estimates_need_one_weight_matrix(caps):
    upper, _ = caps
    other = Capacity("lower", upper.family, upper.weights.copy(), upper.totals)
    with pytest.raises(ValueError, match="one weight matrix"):
        next(choquet_estimates(np.arange(float(upper.n_paths)), (upper, other)))


@pytest.mark.parametrize("orientation", ["upper", "lower"])
@pytest.mark.parametrize("controls", [1, 29])
def test_influence_is_the_weight_derivative(orientation, controls):
    # Scaling one path's weights by 1 + eps moves the integral by about
    # eps * IF_l / n.  The payoff has enough distinct values for the sorted
    # route; eps is large enough for rounding in the integral not to show.
    rng = np.random.default_rng(controls)
    n = 3000
    x = rng.standard_normal(n) * 2.0
    weights = np.exp(0.3 * rng.standard_normal((n, controls)))
    family = (ThetaControl.constant(0.0, 0.0),) * controls
    cap = Capacity(orientation, family, weights, np.ones(n) @ weights)
    base = choquet_integral(x, cap)
    influence = choquet_influence(x, cap)
    eps = 1e-4
    for l in (0, 7, 1500, n - 1):
        bumped = weights.copy()
        bumped[l] *= 1.0 + eps
        moved = choquet_integral(x, Capacity(orientation, family, bumped, np.ones(n) @ bumped))
        assert (moved - base) / eps * n == pytest.approx(influence[l], rel=1e-5, abs=1e-6)


def test_influence_sums_to_zero(caps, bundle_200k):
    # The capacity self-normalises: scaling every weight changes nothing.
    term = bundle_200k.terminal()
    for values in (np.maximum(term - 100.0, 0.0), np.abs(term - 100.0), (term > 100.0) * 1.0):
        for cap in caps:
            influence = choquet_influence(values, cap)
            scale = np.abs(influence).max()
            assert abs(influence.sum()) <= 1e-12 * scale * values.size


def test_choquet_se_at_zero_k_is_plain_se(bundle_50k):
    family = default_control_family(0.0)
    values = np.maximum(bundle_50k.terminal() - 100.0, 0.0)
    plain_se = values.std(ddof=1) / math.sqrt(values.size)
    for orientation in ("upper", "lower"):
        cap = build_capacity(orientation, family, bundle_50k)
        assert _choquet_std_error(choquet_influence(values, cap)) == pytest.approx(
            plain_se, rel=1e-12)


@pytest.mark.parametrize("payoff", ["call", "straddle"])
def test_influence_se_matches_exact_bootstrap(acc_model, grid8, family_k01, payoff):
    n = 20_000
    bundle = simulate_sde(acc_model, generate_brownian(grid8, n, 2024))
    weights = weight_matrix(family_k01, bundle)
    term = bundle.terminal()
    values = np.maximum(term - 100.0, 0.0) if payoff == "call" else np.abs(term - 100.0)
    rng = np.random.default_rng(7)
    for orientation in ("upper", "lower"):
        cap = Capacity(orientation, family_k01, weights, np.ones(n) @ weights)
        # A resample scales each weight row by its multinomial count; the
        # exact integral against that capacity is the resampled estimator.
        boot = np.empty(200)
        scaled = np.empty_like(weights)
        for b in range(boot.size):
            mult = rng.multinomial(n, np.full(n, 1.0 / n)).astype(float)
            np.multiply(weights, mult[:, None], out=scaled)
            [(boot[b], _)] = _SortedSample(values, scaled).estimate(
                (Capacity(orientation, family_k01, scaled, np.ones(n) @ scaled),))
        ratio = _choquet_std_error(choquet_influence(values, cap)) / boot.std(ddof=1)
        assert 0.8 <= ratio <= 1.25, (orientation, ratio)


@pytest.mark.parametrize("family", [
    default_control_family(0.0),  # k = 0: one member with unit weights
    (ThetaControl.constant(0.05, 0.1),),  # one member with non-unit weights
    default_control_family(0.1),  # 29 members
], ids=["k0", "one-tilt", "k0.1"])
def test_error_bars_match_dense_influences(acc_model, grid8, family):
    n = 3000
    bundle = simulate_sde(acc_model, generate_brownian(grid8, n, 17))
    upper = build_capacity("upper", family, bundle)
    values = np.maximum(bundle.terminal() - 100.0, 0.0)

    # The Choquet error bar of the report.
    se = dense_influence(values, upper).std(ddof=1) / math.sqrt(n)
    assert _choquet_std_error(choquet_influence(values, upper)) == pytest.approx(se, rel=1e-12)

    # The Hoelder tolerance: the delta method on the three integrals, with
    # d rhs / d Fx = rhs / (p Fx) and likewise for Fy.
    x, y = values, bundle.terminal() / 100.0
    p, q = 3.0, 1.5
    report = choquet_holder_check(x, y, upper, p=p, q=q)
    lhs, fx, fy = (choquet_integral(a, upper) for a in (x * y, x**p, y**q))
    rhs = fx ** (1.0 / p) * fy ** (1.0 / q)
    assert (report.lhs, report.rhs, report.margin) == (lhs, rhs, rhs - lhs)
    influence = (rhs / (p * fx) * dense_influence(x**p, upper)
                 + rhs / (q * fy) * dense_influence(y**q, upper)
                 - dense_influence(x * y, upper))
    se = influence.std(ddof=1) / math.sqrt(n)
    slack = 1e-3 * max(rhs, lhs)
    assert 3.0 * se > slack  # the sampling term is not swamped by the slack
    assert report.tolerance == pytest.approx(3.0 * se + slack, rel=1e-9)
