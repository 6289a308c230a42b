"""End-to-end acceptance: one test per shipped verification criterion.

Each test prints a `criterion NN ...: PASS` line on success and carries the
criterion number in its name, so a verbose run gives one pass/fail line per
criterion.  Tolerances are pinned here, not inherited from library defaults:
1% relative or 3 pooled standard errors for cross-estimator agreement, 0.5%
scheme tolerance for the backward solver, 1e-12 of scale for the exact
identities, and standard-error tolerances for the inequality sweeps.
"""

from __future__ import annotations

import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nexpect import (
    Capacity,
    DensityRows,
    Generator,
    Payoff,
    TimeGrid,
    choquet_holder_check,
    choquet_integral,
    default_control_family,
    extremal_price,
    generate_brownian,
    minimax_expectation,
    pooled_tolerance,
    random_threshold_pairs,
    simulate_sde,
    solve_fd,
    submodularity_check,
    threshold_event,
    weight_matrix,
    z_sign_check,
)
from nexpect.cli import load_scenario, run_scenario
from tests.conftest import (
    CALL_ATM_DRIFT_DOWN,
    CALL_ATM_DRIFT_UP,
    PUT_ATM_DRIFT_DOWN,
    PUT_ATM_DRIFT_UP,
    StoredRows,
    profile_band,
    stored_capacity,
)

ROOT = Path(__file__).resolve().parents[1]
ACCEPTANCE_SCN = ROOT / "scenarios" / "acceptance.scn"
DEGENERATE_SCN = ROOT / "scenarios" / "degenerate.scn"

REL_CHAIN = 0.01          # cross-estimator relative agreement
SCHEME_TOL = 0.005        # backward-solver relative tolerance
EXACT_TOL = 1e-12         # shared-randomness identities, per unit of scale
SUB_PATHS = 200_000       # the most rows of the stored weights a criterion reads


@pytest.fixture(scope="module")
def acc_report():
    scenario = load_scenario(str(ACCEPTANCE_SCN))
    return run_scenario(scenario, scenario_path=str(ACCEPTANCE_SCN))


@pytest.fixture(scope="module")
def market():
    """The acceptance market rebuilt once for the statistical sweeps.  The
    criteria read at most the first SUB_PATHS rows of the stored weights,
    so only those are stored: each entry has one term, so they are bitwise
    the full matrix's first rows."""
    scenario = load_scenario(str(ACCEPTANCE_SCN))
    model = scenario.build_model()
    grid = TimeGrid(scenario.horizon, scenario.steps)
    bundle = simulate_sde(model, generate_brownian(grid, scenario.n_paths, scenario.seed))
    family = default_control_family(scenario.k, scenario.theta_grid)
    weights = StoredRows(weight_matrix(family, bundle.head(SUB_PATHS)))
    return scenario, model, bundle, family, weights


def prefix_capacity(orientation, weights, m):
    return stored_capacity(orientation, weights.matrix[:m])


# ---------------------------------------------------------------------------
# 1. cross-estimator agreement on the monotone claim
# ---------------------------------------------------------------------------

def test_criterion_01_estimator_chain(acc_report):
    rep = acc_report
    failed = [(c.name, c.detail) for c in rep.failed_checks]
    assert not failed, failed
    for side, oracle in (("upper", CALL_ATM_DRIFT_UP), ("lower", CALL_ATM_DRIFT_DOWN)):
        assert rep.entry(f"extremal_{side}").value == pytest.approx(oracle, rel=1e-12)
        entries = [rep.entry(f"{kind}_{side}")
                   for kind in ("choquet", "minimax", "bsde", "extremal")]
        for a, b in itertools.combinations(entries, 2):
            scale = max(abs(a.value), abs(b.value))
            tol = max(REL_CHAIN * scale, pooled_tolerance([a.std_error, b.std_error]))
            assert abs(a.value - b.value) <= tol, (a.name, b.name, a.value, b.value)
    assert rep.metadata["runtime_seconds"] < 120.0
    print("criterion 01 (cross-estimator chain on the call): PASS")


# ---------------------------------------------------------------------------
# 2. degeneracy at k = 0
# ---------------------------------------------------------------------------

def test_criterion_02_degeneracy_at_zero_k():
    scenario = load_scenario(str(DEGENERATE_SCN))
    rep = run_scenario(scenario, scenario_path=str(DEGENERATE_SCN))
    failed = [(c.name, c.detail) for c in rep.failed_checks]
    assert not failed, failed
    plain = rep.entry("plain")
    for e in rep.entries:
        tol = 3.0 * math.hypot(e.std_error, plain.std_error)
        assert abs(e.value - plain.value) <= max(tol, SCHEME_TOL * abs(plain.value)), e
    # Shared randomness: the integral and family-search entries reproduce the
    # plain mean to the last bit, not merely within noise.
    for name in ("choquet_upper", "choquet_lower", "minimax_upper", "minimax_lower"):
        assert rep.entry(name).value == plain.value
    print("criterion 02 (degeneracy at k = 0): PASS")


# ---------------------------------------------------------------------------
# 3. submodularity of the upper capacity
# ---------------------------------------------------------------------------

def test_criterion_03_submodularity(market):
    _, _, bundle, family, weights = market
    m = 100_000
    cap = prefix_capacity("upper", weights, m)
    term = bundle.terminal()[:m]
    rng = np.random.default_rng(2025)
    # 3/sqrt(m) bounds 3 pooled standard errors of four probability estimates.
    tol = 3.0 / math.sqrt(m)
    report = submodularity_check(cap, term, random_threshold_pairs(term, 1200, rng), tolerance=tol)
    assert report.count == 1200
    assert report.passed, report.max_violation
    lo, hi = np.quantile(term, [0.05, 0.95])
    cuts = np.linspace(lo, hi, 201)
    nested = [((a, True), (b, True)) for a, b in zip(cuts[:-1], cuts[1:])]
    nested_report = submodularity_check(cap, term, nested, tolerance=1e-12)
    assert nested_report.max_violation <= 1e-12, nested_report.max_violation
    print(f"criterion 03 (submodularity, 1200 pairs, worst defect "
          f"{report.max_violation:.2e}): PASS")


# ---------------------------------------------------------------------------
# 4. L2 continuity bound
# ---------------------------------------------------------------------------

def test_criterion_04_l2_bound(market):
    scenario, _, bundle, _, weights = market
    m = SUB_PATHS
    term = bundle.terminal()[:m]
    w = weights.matrix
    w2 = w * w
    growth = math.exp(0.5 * scenario.k**2 * scenario.horizon)
    rng = np.random.default_rng(413)
    lo, hi = np.quantile(term, [0.05, 0.95])
    best_ratio = 0.0
    for i in range(100):
        kind = ("call", "put", "digital", "affine")[i % 4]
        strike = float(rng.uniform(lo, hi))
        if kind == "call":
            v = np.maximum(term - strike, 0.0)
        elif kind == "put":
            v = np.maximum(strike - term, 0.0)
        elif kind == "digital":
            v = (term > strike).astype(np.float64)
        else:
            v = float(rng.uniform(-50.0, 50.0)) + float(rng.uniform(-1.0, 1.0)) * term
        estimates = (v @ w) / m
        second = (v * v) @ w2 / m
        variances = np.maximum(second - estimates**2, 0.0) * (m / (m - 1))
        j = int(np.argmax(estimates))
        upper, se_upper = float(estimates[j]), float(math.sqrt(variances[j] / m))
        m2 = float(np.mean(v * v))
        if m2 == 0.0:
            continue
        se_m2 = float(np.std(v * v, ddof=1) / math.sqrt(m))
        bound = math.sqrt(m2) * growth
        se_bound = growth * se_m2 / (2.0 * math.sqrt(m2))
        assert upper <= bound + 3.0 * math.hypot(se_upper, se_bound), (kind, strike, upper, bound)
        best_ratio = max(best_ratio, upper / bound)
    assert best_ratio >= 0.5, best_ratio
    print(f"criterion 04 (L2 bound over 100 payoffs, peak ratio {best_ratio:.3f}): PASS")


# ---------------------------------------------------------------------------
# 5. solution ordering across ordered linear drivers
# ---------------------------------------------------------------------------

def test_criterion_05_comparison_ordering(acc_report, market):
    scenario, model, _, _, _ = market
    payoff = Payoff.call(scenario.strike)
    lo = acc_report.entry("bsde_lower").value
    hi = acc_report.entry("bsde_upper").value
    tol = SCHEME_TOL * max(abs(lo), abs(hi))
    nus = np.linspace(-scenario.k, scenario.k, 11)
    drivers = tuple(Generator.linear(float(nu)) for nu in nus)
    values = solve_fd(model, payoff, drivers, scenario.horizon, nodes=scenario.nodes,
                      time_steps=scenario.time_steps).y0
    for nu, y0 in zip(nus, values):
        assert lo - tol <= y0 <= hi + tol, (nu, y0, lo, hi)
    diffs = np.diff(values)
    assert np.all(diffs > 0.0), diffs
    print("criterion 05 (11 linear drivers inside the band, monotone): PASS")


# ---------------------------------------------------------------------------
# 6. sign of the z surface
# ---------------------------------------------------------------------------

def test_criterion_06_z_sign(market):
    scenario, model, _, _, _ = market
    threshold = 1e-6 * scenario.s0
    for payoff, side in ((Payoff.call(scenario.strike), "call"),
                         (Payoff.put(scenario.strike), "put")):
        sol = solve_fd(model, payoff, Generator.abs_upper(scenario.k), scenario.horizon,
                       nodes=scenario.nodes, time_steps=scenario.time_steps)
        report = z_sign_check(sol)
        assert report.threshold == threshold
        assert report.status == "pass", (side, report)
        if side == "call":
            assert report.extreme >= -threshold
        else:
            assert report.extreme <= threshold
    print("criterion 06 (z-surface sign on the central 90% band): PASS")


# ---------------------------------------------------------------------------
# 7. Choquet-Hoelder inequality sweep
# ---------------------------------------------------------------------------

def test_criterion_07_choquet_holder(market):
    _, _, bundle, family, weights = market
    m = 20_000
    cap = prefix_capacity("upper", weights, m)
    term = bundle.terminal()[:m]
    rng = np.random.default_rng(77)
    lo, hi = np.quantile(term, [0.05, 0.95])

    def random_payoff() -> np.ndarray:
        kind = int(rng.integers(0, 4))
        strike = float(rng.uniform(lo, hi))
        if kind == 0:
            return np.maximum(term - strike, 0.0)
        if kind == 1:
            return np.maximum(strike - term, 0.0)
        if kind == 2:
            return (term > strike).astype(np.float64)
        return float(rng.uniform(-50.0, 50.0)) + float(rng.uniform(-1.0, 1.0)) * term

    violations = []
    for i in range(100):
        report = choquet_holder_check(random_payoff(), random_payoff(), cap)
        if not report.passed:
            violations.append((i, report.margin, report.tolerance))
    assert violations == [], violations
    print("criterion 07 (Hoelder sweep, 100 pairs, p = q = 2): PASS")


# ---------------------------------------------------------------------------
# 8. duality identities under shared randomness
# ---------------------------------------------------------------------------

def test_criterion_08_duality_identities(market):
    scenario, model, bundle, family, weights = market
    # The full market's rows, rebuilt on every pass instead of stored.
    rows = DensityRows(family, bundle)
    call = Payoff.call(scenario.strike)
    res = minimax_expectation(call.map(bundle.terminal()), family, rows)
    neg_call = Payoff.custom(
        "neg_call", lambda s: -np.maximum(s - scenario.strike, 0.0),
        monotonicity="decreasing")
    res_neg = minimax_expectation(neg_call.map(bundle.terminal()), family, rows)
    scale = max(1.0, abs(res.upper))
    assert abs(res.lower + res_neg.upper) <= EXACT_TOL * scale
    assert abs(res.upper + res_neg.lower) <= EXACT_TOL * scale

    m = 100_000
    cap_u = prefix_capacity("upper", weights, m)
    cap_l = prefix_capacity("lower", weights, m)
    term = bundle.terminal()[:m]
    rng = np.random.default_rng(8)
    worst = 0.0
    for (t, above), _ in random_threshold_pairs(term, 50, rng):
        a = threshold_event(term, t, above)
        worst = max(worst, abs(cap_l.evaluate(a) - (1.0 - cap_u.evaluate(~a))))
    assert worst <= EXACT_TOL, worst

    # Decreasing-payoff role swap: pricing the put equals pricing the negated
    # (increasing) claim with the extremes exchanged, on the same paths.
    sub = bundle.head(SUB_PATHS)
    put = Payoff.put(scenario.strike)
    neg_put = Payoff.custom(
        "neg_put", lambda s: -np.maximum(scenario.strike - s, 0.0),
        monotonicity="increasing")
    # The sampled extremal band: the minimax profile's +k and -k entries.
    _, ext_put = profile_band(put.monotonicity, put.map(sub.terminal()), family, weights)
    _, ext_neg = profile_band(neg_put.monotonicity, neg_put.map(sub.terminal()), family, weights)
    assert abs(ext_put.upper + ext_neg.lower) <= EXACT_TOL * scale
    assert abs(ext_put.lower + ext_neg.upper) <= EXACT_TOL * scale
    cf = extremal_price(put, model, scenario.horizon)
    assert cf.upper == pytest.approx(PUT_ATM_DRIFT_DOWN, rel=1e-12)
    assert cf.lower == pytest.approx(PUT_ATM_DRIFT_UP, rel=1e-12)
    print("criterion 08 (duality identities at float precision): PASS")


# ---------------------------------------------------------------------------
# 9. sandwich relation across the payoff corpus
# ---------------------------------------------------------------------------

def test_criterion_09_sandwich_corpus(market):
    scenario, _, bundle, family, weights = market
    m = SUB_PATHS
    sub = bundle.head(m)
    cap_u = prefix_capacity("upper", weights, m)
    cap_l = prefix_capacity("lower", weights, m)
    strike = scenario.strike
    corpus = [
        Payoff.call(strike),
        Payoff.put(strike),
        Payoff.digital(strike),
        Payoff.custom("affine_up", lambda s: 10.0 + 0.5 * s, monotonicity="increasing"),
        Payoff.custom("affine_down", lambda s: 150.0 - 0.9 * s, monotonicity="decreasing"),
        Payoff.custom("straddle", lambda s: np.abs(s - strike)),
        Payoff.custom("const", lambda s: np.full_like(s, 5.0)),
    ]
    straddle_gap = None
    for payoff in corpus:
        values = payoff.map(sub.terminal())
        res = minimax_expectation(values, family, weights)
        cho_u = choquet_integral(values, cap_u)
        cho_l = choquet_integral(values, cap_l)
        tol = pooled_tolerance(res.std_errors) + 1e-9 * max(1.0, abs(cho_u))
        assert cho_l <= res.lower + tol, (payoff.name, cho_l, res.lower)
        assert res.lower <= res.upper + 1e-12
        assert res.upper <= cho_u + tol, (payoff.name, res.upper, cho_u)
        if payoff.name == "straddle":
            straddle_gap = cho_u - res.upper
    assert straddle_gap is not None and straddle_gap >= -1e-9
    print(f"criterion 09 (sandwich corpus; straddle upper gap "
          f"{straddle_gap:+.4f}): PASS")


# ---------------------------------------------------------------------------
# 10. byte-level determinism of the command line
# ---------------------------------------------------------------------------

def test_criterion_10_byte_determinism(tmp_path):
    blobs = []
    for name, threads in (("first.csv", "1"), ("second.csv", "1"), ("third.csv", "8")):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "nexpect.cli", "--scenario", str(ACCEPTANCE_SCN),
             "--format", "csv", "--out", str(out), "--threads", threads],
            capture_output=True, text=True, cwd=str(ROOT),
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1], "same seed, same thread count: bytes differ"
    assert blobs[0] == blobs[2], "thread count changed the bytes"
    print("criterion 10 (byte-identical CSV across runs and 1 vs 8 threads): PASS")
