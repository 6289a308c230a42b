"""Capacities, the Choquet integral, and its structural inequalities."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nexpect import (
    Capacity,
    MarketModel,
    Payoff,
    ThetaControl,
    TimeGrid,
    build_capacity,
    choquet_holder_check,
    choquet_integral,
    default_control_family,
    expectation_profile,
    generate_brownian,
    girsanov_weights,
    random_threshold_pairs,
    simulate_sde,
    submodularity_check,
    threshold_event,
    weight_matrix,
)
from nexpect.choquet import _SortedSample, _pair_capacities, choquet_estimates
from nexpect.cli import _choquet_std_error
from nexpect.paths import ROW_BLOCK
from tests.conftest import (
    CALL_ATM_DRIFT_UP,
    DIGITAL_ATM_DRIFT_UP,
    StoredRows,
    stored_capacity,
    stored_weights,
)


@pytest.fixture(scope="module")
def caps(weights_200k):
    upper = build_capacity("upper", weights_200k)
    lower = build_capacity("lower", weights_200k)
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
    cap = build_capacity("upper", stored_weights(family, bundle_50k))
    event = bundle_50k.terminal() > 100.0
    assert cap.evaluate(event) == event.mean()


def test_capacity_shape_validation(caps):
    upper, _ = caps
    with pytest.raises(ValueError):
        upper.evaluate(np.ones(3, dtype=bool))
    with pytest.raises(ValueError):
        Capacity("sideways", upper.weights)
    # A zero-column matrix is a capacity over an empty family.
    with pytest.raises(ValueError, match="at least one control"):
        Capacity("upper", StoredRows(np.ones((5, 0))))
    with pytest.raises(ValueError, match="at least one control"):
        build_capacity("upper", StoredRows(np.ones((5, 0))))


def test_capacity_rejects_a_bare_matrix(bundle_50k, family_k01):
    # Weights are rows; a matrix such as weight_matrix returns, or one of its
    # columns, is named as the wrong type before anything reads it.
    matrix = weight_matrix(family_k01, bundle_50k)
    for weights in (matrix, matrix[:, 0]):
        with pytest.raises(TypeError, match="^weights must be DensityRows, got ndarray$"):
            build_capacity("upper", weights)
        with pytest.raises(TypeError, match="DensityRows"):
            Capacity("upper", weights)


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
        integral = choquet_integral(values, cap)
        assert integral == dense_exact(values, cap)
        assert integral == pytest.approx(cap.evaluate(event), rel=0.0, abs=1e-12)


def level_sum(values, cap):
    """The integral of a simple function through capacity.evaluate: the
    smallest value plus each step between distinct values times the
    capacity of reaching it."""
    levels = np.unique(values)
    return sum(((hi - lo) * cap.evaluate(values >= hi) for lo, hi in zip(levels[:-1], levels[1:])),
               float(levels[0]))


@settings(deadline=None, max_examples=25)
@given(case=st.tuples(
    st.sampled_from([2, ROW_BLOCK - 1, ROW_BLOCK + 1, 3 * ROW_BLOCK + 17]),
    st.integers(2, 29),  # controls
    st.integers(1, 64),  # levels drawn, ties included
    st.integers(0, 2**32 - 1),  # seed
))
@example(case=None)  # a rounded call on the shared bundle
def test_integral_simple_function_agreement(caps, bundle_200k, case):
    """The sorted sweep of choquet_integral agrees with the simple-function
    sum through Capacity.evaluate on a few-valued payoff, on both sides:
    both normalise by the capacity's totals."""
    if case is None:
        term = bundle_200k.terminal()
        values = np.clip(np.round(np.maximum(term - 100.0, 0.0) / 5.0) * 5.0, 0.0, 40.0)
        pair = caps
    else:
        n, controls, levels, seed = case
        rng = np.random.default_rng(seed)
        values = rng.choice(np.round(rng.standard_normal(levels) * 10.0 ** rng.integers(-2, 4), 3), n)
        weights = np.exp(0.3 * rng.standard_normal((n, controls)))
        pair = [stored_capacity(side, weights) for side in ("upper", "lower")]
    assert np.unique(values).size <= 64
    for cap in pair:
        swept = choquet_integral(values, cap)
        assert abs(swept - level_sum(values, cap)) <= 1e-12 * max(1.0, np.abs(values).max())


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
    (ref,), (se,) = expectation_profile(values, stored_weights((plus,), bundle_200k))
    assert estimate <= 0.0
    assert abs(estimate - ref) < max(3.0 * se, 0.02 * abs(ref))


def bundle_capacities(n, k, seed):
    """Both capacities of the default family of radius k on a fresh bundle,
    and a call and a straddle on its terminal states."""
    model = MarketModel.gbm(100.0, 0.0, 0.2, k=k)
    grid = TimeGrid(1.0, 8)
    family = default_control_family(k)
    bundle = simulate_sde(model, generate_brownian(grid, n, seed),
                          [c.theta_on_grid(grid) for c in family if c.kind == "bang_bang"])
    weights = stored_weights(family, bundle)
    caps = [build_capacity(side, weights) for side in ("upper", "lower")]
    term = bundle.terminal()
    return caps, (Payoff.call(100.0).map(term), np.abs(term - 100.0))


IDENTITY_CASES = st.tuples(
    st.sampled_from([2, 57, ROW_BLOCK + 1, 3 * ROW_BLOCK + 17]),  # paths
    st.floats(0.0, 0.5),  # k
    st.integers(0, 2**32 - 1),  # seed
)


@settings(deadline=None, max_examples=20)
@given(case=IDENTITY_CASES, scale=st.floats(min_value=0.01, max_value=100.0))
@example(case=(ROW_BLOCK + 1, 0.0, 7), scale=3.0)
def test_integral_positive_homogeneity(case, scale):
    """C(lambda X) = lambda C(X) on both sides: scaling keeps the sort, and
    every gap scales by lambda up to one rounding."""
    caps, payoffs = bundle_capacities(*case)
    for values in payoffs:
        for cap in caps:
            scaled = choquet_integral(scale * values, cap)
            assert scaled == pytest.approx(scale * choquet_integral(values, cap), rel=1e-12), \
                cap.orientation


@settings(deadline=None, max_examples=20)
@given(case=IDENTITY_CASES, shift=st.floats(min_value=-50.0, max_value=50.0))
@example(case=(ROW_BLOCK + 1, 0.0, 7), shift=-2.5)
def test_integral_translation_covariance(case, shift):
    """C(X + c) = C(X) + c on both sides: the shift moves the smallest
    sample and leaves the gaps and the tail capacities as they are, up to
    the rounding of the shifted values."""
    caps, payoffs = bundle_capacities(*case)
    for values in payoffs:
        for cap in caps:
            shifted = choquet_integral(values + shift, cap)
            assert shifted == pytest.approx(choquet_integral(values, cap) + shift, rel=1e-12), \
                cap.orientation


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

def test_comonotone_additivity_of_upper_integral(caps, bundle_200k):
    """Both integrals add over comonotone payoffs: each optimises the same
    way on both parts.  A digital's two values tie on most paths."""
    term = bundle_200k.terminal()
    call = Payoff.call(100.0).map(term)
    pairs = [(call, Payoff.call(115.0).map(term)), (call, term),
             (call, Payoff.digital(105.0).map(term)), (Payoff.put(100.0).map(term), -term)]
    # Comonotone payoffs share one sort, and every tail event of a + b is a
    # tail event of both, so the exact sums agree up to rounding.
    for i, (a, b) in enumerate(pairs):
        for cap in caps:
            joint = choquet_integral(a + b, cap)
            parts = choquet_integral(a, cap) + choquet_integral(b, cap)
            assert joint == pytest.approx(parts, rel=1e-12), (i, cap.orientation)


# ---------------------------------------------------------------------------
# submodularity
# ---------------------------------------------------------------------------

def test_submodularity_on_threshold_pairs(caps, bundle_200k):
    upper, _ = caps
    term = bundle_200k.terminal()
    rng = np.random.default_rng(13)
    defects = submodularity_check(upper, term, random_threshold_pairs(term, 300, rng))
    assert defects.shape == (300,)
    assert defects.max() <= 1e-12


def test_submodularity_nested_pairs_exact(caps, bundle_200k):
    upper, _ = caps
    term = bundle_200k.terminal()
    pairs = [((a, True), (b, True)) for a, b in [(90.0, 100.0), (95.0, 120.0), (100.0, 101.0)]]
    defects = submodularity_check(upper, term, pairs)
    # For nested events the union/intersection reproduce the pair exactly.
    assert defects.max() <= 1e-15


def test_lower_capacity_superadditive(caps, bundle_200k):
    _, lower = caps
    term = bundle_200k.terminal()
    rng = np.random.default_rng(17)
    pairs = list(random_threshold_pairs(term, 300, rng))
    defects = submodularity_check(lower, term, pairs)
    assert defects.max() <= 1e-12
    # The lower capacity's defect is oriented: the upper's sign flipped.
    c = _pair_capacities(lower, term, pairs)
    assert np.array_equal(defects, -(c[:, 2] + c[:, 3] - c[:, 0] - c[:, 1]))


def test_submodularity_memory_is_bounded(bundle_50k, weights_50k):
    # numpy reports its allocations to tracemalloc.  The sweep's peak is a
    # few n-vectors (the sort) and two ROW_BLOCK x m blocks; ten times the
    # pairs adds only their few m-wide rows, well inside one block.
    upper = build_capacity("upper", weights_50k)
    term = bundle_50k.terminal()
    n, block = term.size, ROW_BLOCK * weights_50k.shape[1] * 8
    peaks = {}
    for count in (40, 400):
        pairs = list(random_threshold_pairs(term, count, np.random.default_rng(5)))
        tracemalloc.start()
        try:
            defects = submodularity_check(upper, term, pairs)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert defects.shape == (count,)
    assert peaks[400] - peaks[40] <= block // 2, peaks
    assert peaks[400] <= 4 * n * 8 + 3 * block, peaks


def test_submodularity_requires_pairs(caps):
    upper, _ = caps
    with pytest.raises(ValueError):
        submodularity_check(upper, np.zeros(upper.n_paths), [])
    with pytest.raises(ValueError, match="finite"):
        submodularity_check(upper, np.full(upper.n_paths, np.nan), [((0.0, True), (1.0, False))])


def test_prefix_sums_match_cumulative_sum():
    """The check's prefix rows are bitwise rows of the full cumulative sum
    of the sorted weights, at ranks on both sides of each block seam, and
    exactly 0 and the totals at the ends."""
    rng = np.random.default_rng(21)
    n, m = 3 * ROW_BLOCK + 5, 7
    values = np.round(rng.standard_normal(n), 2)  # ties across the seams
    weights = np.exp(0.3 * rng.standard_normal((n, m)))
    totals = np.ones(n) @ weights
    sample = _SortedSample(values, StoredRows(weights))
    full = np.cumsum(weights[sample.order], axis=0)
    ranks = np.array([0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, n - 1, n])
    rows = sample.prefix_sums(ranks, totals)
    for k, row in zip(ranks, rows):
        expected = totals if k == n else np.zeros(m) if k == 0 else full[k - 1]
        assert np.array_equal(row, expected), k


def _event_kinds(x, rng):
    """Pairs of threshold events of every kind the check meets: nested above
    and below, overlapping, touching, apart with a gap, an empty
    intersection, thresholds outside the sample and on a tied sample."""
    below_min, above_max = float(x.min()) - 1.0, float(x.max()) + 1.0
    t1, t2 = sorted(float(v) for v in rng.choice(x, 2))  # sample values, ties included
    u = float(rng.uniform(x.min(), x.max()))
    pairs = [
        ((t1, True), (t2, True)), ((t2, False), (t1, False)),  # nested
        ((t1, True), (t2, False)),  # overlapping on (t1, t2]
        ((t1, True), (t1, False)), ((u, False), (u, True)),  # touching, empty meet
        ((t2, True), (t1, False)),  # apart with a gap unless t1 == t2
        ((below_min, True), (above_max, False)), ((below_min, False), (above_max, True)),
        ((below_min, False), (t1, True)), ((above_max, True), (t2, False)),
        ((u, True), (t2, False)), ((t1, False), (u, True)),
    ]
    return pairs + list(random_threshold_pairs(x, 12, rng))


@settings(deadline=None, max_examples=30)
@given(case=st.tuples(
    st.sampled_from([1, 2, 57, ROW_BLOCK - 1, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]),
    st.integers(1, 9),  # controls
    st.sampled_from(["digital", "levels", "continuous"]),
    st.integers(0, 2**32 - 1),  # seed
))
@example(case=(ROW_BLOCK + 1, 5, "digital", 0))
def test_pair_capacities_match_masks(case):
    """Each event's capacity from the prefix engine agrees with
    Capacity.evaluate on its boolean mask, on both sides."""
    n, controls, kind, seed = case
    rng = np.random.default_rng(seed)
    if kind == "digital":
        x = (rng.uniform(size=n) < 0.5).astype(float)
    elif kind == "levels":
        x = np.round(rng.standard_normal(n), 1)
    else:
        x = rng.standard_normal(n)
    weights = np.exp(0.3 * rng.standard_normal((n, controls)))
    upper = stored_capacity("upper", weights)
    pairs = _event_kinds(x, rng)
    for cap in (upper, replace(upper, orientation="lower")):
        got = _pair_capacities(cap, x, pairs)
        for row, ((ta, above_a), (tb, above_b)) in zip(got, pairs):
            a, b = threshold_event(x, ta, above_a), threshold_event(x, tb, above_b)
            expected = [cap.evaluate(e) for e in (a, b, a | b, a & b)]
            assert np.abs(row - expected).max() <= 1e-13, (row, expected)


# ---------------------------------------------------------------------------
# the Hoelder inequality
# ---------------------------------------------------------------------------

def test_holder_self_pair_near_equality(bundle_50k, weights_50k):
    upper = build_capacity("upper", weights_50k)
    x = bundle_50k.terminal() / 100.0
    report = choquet_holder_check(x, x, upper)
    assert report.margin >= -report.tolerance
    # X = Y makes the inequality tight up to rounding.
    assert abs(report.margin) < 0.01 * report.rhs


def test_holder_random_pairs(bundle_50k, weights_50k):
    upper = build_capacity("upper", weights_50k)
    term = bundle_50k.terminal()
    pairs = [
        (np.maximum(term - 100.0, 0.0), term / 100.0),
        (np.abs(term - 100.0), np.maximum(110.0 - term, 0.0)),
        (term / 100.0, (term > 100.0).astype(float)),
    ]
    for x, y in pairs:
        report = choquet_holder_check(x, y, upper)
        assert report.margin >= -report.tolerance, (report.margin, report.tolerance)


# ---------------------------------------------------------------------------
# exact large-sample integration
# ---------------------------------------------------------------------------

def test_integral_exact_dominates_every_member(bundle_50k, weights_50k):
    """The envelope integral sits above each member's own expectation.

    Each self-normalized member mean is the integral against one measure,
    and the upper envelope dominates it at every level, so the relation is
    structural, not statistical.
    """
    upper = build_capacity("upper", weights_50k)
    values = np.maximum(bundle_50k.terminal() - 100.0, 0.0)
    total = choquet_integral(values, upper)
    member_means = (values @ weights_50k.matrix) / (np.ones(values.size) @ weights_50k.matrix)
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
    prefix = dense_prefix(x, cap.weights.matrix)
    denom = cap.totals
    curve = np.clip(cap._reduce((denom[None, :] - prefix[1:-1]) / denom[None, :]), 0.0, 1.0)
    return float(sorted_x[0]) + float(np.dot(np.diff(sorted_x), curve))


def dense_influence(x, cap):
    """IF_l = n * sum_j w_lj / T_j * (A_j(l) - B_j) from the full prefix table
    and an argmax (argmin) per row, with the capacity's totals as T."""
    n, m = cap.weights.shape
    weights = cap.weights.matrix
    order = np.argsort(x, kind="stable")
    gaps = np.diff(x[order])
    denom = cap.totals
    tails = (denom[None, :] - dense_prefix(x, weights)[1:-1]) / denom[None, :]
    attain = tails.argmax(axis=1) if cap.orientation == "upper" else tails.argmin(axis=1)
    hits = np.zeros((n - 1, m))
    hits[np.arange(n - 1), attain] = gaps
    below = np.vstack([np.zeros((1, m)), np.cumsum(hits, axis=0)])  # A_j at each position
    attained = hits.T @ tails[np.arange(n - 1), attain]  # B_j
    out = np.empty(n)
    out[order] = n * ((weights[order] / denom) * (below - attained)).sum(axis=1)
    return out


def engine_case(n, controls, orientation, seed):
    rng = np.random.default_rng(seed)
    # Rounded draws tie often; the stable sort must keep tied rows in order.
    x = np.round(rng.standard_normal(n), 1) * 3.0
    weights = np.exp(0.3 * rng.standard_normal((n, controls)))
    return x, stored_capacity(orientation, weights)


ENGINE_SIZES = [1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 17]


@pytest.mark.parametrize("n", ENGINE_SIZES)
@pytest.mark.parametrize("controls", [1, 2, 29])
def test_sorted_prefix_engine_is_bitwise_dense(n, controls):
    for orientation in ("upper", "lower"):
        x, cap = engine_case(n, controls, orientation, seed=n * 31 + controls)
        assert _SortedSample(x, cap.weights).sweep((cap,))[0][0] == dense_exact(x, cap)
        if controls > 1:
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
        value, got = choquet_estimates(x, (cap,))[0]
        ref = dense_influence(x, cap)
        scale = max(np.abs(ref).max(), np.abs(x).max())
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)
        other = Capacity({"upper": "lower", "lower": "upper"}[orientation], cap.weights)
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
    lower = Capacity("lower", upper.weights)
    swept = controls > 1
    for cap, (value, influence) in zip((upper, lower), choquet_estimates(x, (upper, lower))):
        if swept:
            assert value == dense_exact(x, cap)
        else:
            assert value == pytest.approx(dense_exact(x, cap), rel=1e-12, abs=1e-12)
        ref = dense_influence(x, cap)
        scale = max(np.abs(ref).max(), np.abs(x).max())
        np.testing.assert_allclose(influence, ref, rtol=1e-12, atol=1e-12 * scale)
        assert value == choquet_integral(x, cap)
        assert np.array_equal(influence, choquet_estimates(x, (cap,))[0][1])


def test_each_capacity_is_swept_once(monkeypatch):
    # One sweep of running sums serves the upper and the lower capacity; no
    # pass is made per capacity or for the weight totals alone.
    sweeps = []
    running_sums = _SortedSample._running_sums

    def counted(self):
        sweeps.append(self)
        return running_sums(self)

    monkeypatch.setattr(_SortedSample, "_running_sums", counted)
    x, upper = engine_case(3 * ROW_BLOCK + 17, 29, "upper", seed=3)
    lower = Capacity("lower", upper.weights)
    choquet_estimates(x, (upper, lower))
    assert len(sweeps) == 1
    sweeps.clear()
    choquet_integral(x, upper)
    assert len(sweeps) == 1


def test_joint_estimates_need_one_weight_matrix(caps):
    upper, _ = caps
    # Equal rows held apart are not one weight matrix: each holds its own
    # totals.
    other = Capacity("lower", StoredRows(upper.weights.matrix.copy()))
    with pytest.raises(ValueError, match="^capacities must share one weight matrix$"):
        choquet_estimates(np.arange(float(upper.n_paths)), (upper, other))


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
    cap = stored_capacity(orientation, weights)
    base = choquet_integral(x, cap)
    [(_, influence)] = choquet_estimates(x, (cap,))
    eps = 1e-4
    for l in (0, 7, 1500, n - 1):
        bumped = weights.copy()
        bumped[l] *= 1.0 + eps
        moved = choquet_integral(x, stored_capacity(orientation, bumped))
        assert (moved - base) / eps * n == pytest.approx(influence[l], rel=1e-5, abs=1e-6)


def test_influence_sums_to_zero(caps, bundle_200k):
    # The capacity self-normalises: scaling every weight changes nothing.
    term = bundle_200k.terminal()
    for values in (np.maximum(term - 100.0, 0.0), np.abs(term - 100.0), (term > 100.0) * 1.0):
        for cap in caps:
            [(_, influence)] = choquet_estimates(values, (cap,))
            scale = np.abs(influence).max()
            assert abs(influence.sum()) <= 1e-12 * scale * values.size


def test_choquet_se_at_zero_k_is_plain_se(bundle_50k):
    family = default_control_family(0.0)
    values = np.maximum(bundle_50k.terminal() - 100.0, 0.0)
    plain_se = values.std(ddof=1) / math.sqrt(values.size)
    for orientation in ("upper", "lower"):
        cap = build_capacity(orientation, stored_weights(family, bundle_50k))
        [(_, influence)] = choquet_estimates(values, (cap,))
        assert _choquet_std_error(influence) == pytest.approx(plain_se, rel=1e-12)


@pytest.mark.parametrize("payoff", ["call", "straddle"])
def test_influence_se_matches_exact_bootstrap(acc_model, grid8, family_k01, payoff):
    n = 20_000
    bundle = simulate_sde(acc_model, generate_brownian(grid8, n, 2024))
    weights = weight_matrix(family_k01, bundle)
    term = bundle.terminal()
    values = np.maximum(term - 100.0, 0.0) if payoff == "call" else np.abs(term - 100.0)
    rng = np.random.default_rng(7)
    # A resample scales each weight row by its multinomial count; the exact
    # integrals against those capacities are the resampled estimators, both
    # sides from one sweep of the resample.
    boot = np.empty((200, 2))
    scaled = np.empty_like(weights)
    for b in range(len(boot)):
        mult = rng.multinomial(n, np.full(n, 1.0 / n)).astype(float)
        np.multiply(weights, mult[:, None], out=scaled)
        upper_b = stored_capacity("upper", scaled)
        lower_b = replace(upper_b, orientation="lower")
        boot[b] = _SortedSample(values, upper_b.weights).sweep((upper_b, lower_b))[0]
    for orientation, spread in zip(("upper", "lower"), boot.std(axis=0, ddof=1)):
        cap = stored_capacity(orientation, weights)
        [(_, influence)] = choquet_estimates(values, (cap,))
        ratio = _choquet_std_error(influence) / spread
        assert 0.8 <= ratio <= 1.25, (orientation, ratio)


@pytest.mark.parametrize("family", [
    default_control_family(0.0),  # k = 0: one member with unit weights
    (ThetaControl.constant(0.05, 0.1),),  # one member with non-unit weights
    default_control_family(0.1),  # 29 members
], ids=["k0", "one-tilt", "k0.1"])
def test_error_bars_match_dense_influences(acc_model, grid8, family):
    n = 3000
    bundle = simulate_sde(acc_model, generate_brownian(grid8, n, 17))
    upper = build_capacity("upper", stored_weights(family, bundle))
    values = np.maximum(bundle.terminal() - 100.0, 0.0)

    # The Choquet error bar of the report.
    se = dense_influence(values, upper).std(ddof=1) / math.sqrt(n)
    [(_, influence)] = choquet_estimates(values, (upper,))
    assert _choquet_std_error(influence) == pytest.approx(se, rel=1e-12)

    # The Hoelder tolerance: the delta method on the three integrals, with
    # d rhs / d Fx = rhs / (p Fx) and likewise for Fy, at p = q = 2.
    x, y = values, bundle.terminal() / 100.0
    p = q = 2.0
    report = choquet_holder_check(x, y, upper)
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
