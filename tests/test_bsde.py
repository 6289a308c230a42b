"""Backward-equation solvers: drivers, stability handling, and order relations."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nexpect import (
    Generator,
    GridTooCoarseError,
    InvalidGeneratorError,
    MarketModel,
    Payoff,
    lognormal_call_value,
    minimal_time_steps,
    solve_fd,
    solve_tree,
    z_sign_check,
)
from nexpect.bsde import MAX_TIME_STEPS, PAGE_BYTES, Z_SIGN_BAND, Z_SIGN_SLACK, _page_rows
from tests.conftest import (
    CALL_ATM_DRIFT_DOWN,
    CALL_ATM_DRIFT_UP,
    CALL_ATM_FLAT,
    PUT_ATM_DRIFT_DOWN,
)

HORIZON = 1.0


@pytest.fixture(scope="module")
def model():
    return MarketModel.gbm(100.0, 0.0, 0.2, k=0.1)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generator_validation():
    Generator.linear(0.05)
    Generator.abs_upper(0.1)
    with pytest.raises(InvalidGeneratorError):
        Generator.abs_upper(-0.1)
    for kind in ("custom", "quadratic"):
        with pytest.raises(InvalidGeneratorError, match="unknown generator kind"):
            Generator(kind=kind)


def test_generator_values():
    z = np.array([-2.0, 0.0, 3.0])
    y = np.zeros(3)
    assert np.array_equal(Generator.linear(0.5).g(0.0, y, z), 0.5 * z)
    assert np.array_equal(Generator.abs_upper(0.1).g(0.0, y, z), 0.1 * np.abs(z))
    assert np.array_equal(Generator.abs_lower(0.1).g(0.0, y, z), -0.1 * np.abs(z))


def test_direct_generator_has_the_classmethod_lipschitz_constant():
    # At sigma = 0.002 the advection bound L * sv binds, so a driver whose
    # Lipschitz constant read 0 marched too few steps.  A Generator built
    # field by field is the classmethod's and marches like it.
    market = MarketModel.gbm(100.0, 0.0, 0.002)
    payoff = Payoff.call(100.0)
    pairs = [(Generator(kind="abs_upper", k=5.0), Generator.abs_upper(5.0)),
             (Generator(kind="abs_lower", k=5.0), Generator.abs_lower(5.0)),
             (Generator(kind="linear", nu=-5.0), Generator.linear(-5.0))]
    for direct, made in pairs:
        assert direct.lipschitz_z == made.lipschitz_z == 5.0
        a, b = (solve_fd(market, payoff, gen, HORIZON, nodes=41, time_steps=1)
                for gen in (direct, made))
        assert a.time_steps == b.time_steps > minimal_time_steps(market, HORIZON, nodes=41)
        assert _bits(a.y0) == _bits(b.y0)


# ---------------------------------------------------------------------------
# finite differences against frozen oracles
# ---------------------------------------------------------------------------

def test_fd_linear_zero_driver_prices_plain(model):
    sol = solve_fd(model, Payoff.call(100.0), Generator.linear(0.0), HORIZON)
    assert abs(sol.y0 - CALL_ATM_FLAT) < 0.002 * CALL_ATM_FLAT


def test_fd_abs_upper_call(model):
    sol = solve_fd(model, Payoff.call(100.0), Generator.abs_upper(0.1), HORIZON)
    assert abs(sol.y0 - CALL_ATM_DRIFT_UP) < 0.005 * CALL_ATM_DRIFT_UP


def test_fd_abs_lower_call(model):
    sol = solve_fd(model, Payoff.call(100.0), Generator.abs_lower(0.1), HORIZON)
    assert abs(sol.y0 - CALL_ATM_DRIFT_DOWN) < 0.005 * CALL_ATM_DRIFT_DOWN


def test_fd_abs_upper_put(model):
    # For a decreasing claim the upper driver selects the downward drift.
    sol = solve_fd(model, Payoff.put(100.0), Generator.abs_upper(0.1), HORIZON)
    assert abs(sol.y0 - PUT_ATM_DRIFT_DOWN) < 0.005 * PUT_ATM_DRIFT_DOWN


def test_fd_linear_driver_matches_shifted_drift(model):
    # A linear driver nu z is a single measure change: price under drift +nu sigma.
    nu = 0.07
    sol = solve_fd(model, Payoff.call(100.0), Generator.linear(nu), HORIZON)
    oracle = lognormal_call_value(100.0, nu * 0.2, 0.2, HORIZON, 100.0)
    assert abs(sol.y0 - oracle) < 0.005 * oracle


def test_fd_constant_payoff_invariant(model):
    const = Payoff.custom("const", lambda s: np.full_like(s, 3.0))
    sol = solve_fd(model, const, Generator.abs_upper(0.1), HORIZON, nodes=101, time_steps=200,
                   store_surfaces=True)
    assert sol.y0 == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(sol.value_surface, 3.0, atol=1e-12)


def test_fd_terminal_slice_is_exact(model):
    payoff = Payoff.call(100.0)
    sol = solve_fd(model, payoff, Generator.abs_upper(0.1), HORIZON, nodes=101, time_steps=200,
                   store_surfaces=True)
    states = np.exp(sol.space_grid)
    assert np.array_equal(sol.value_surface[-1], payoff.map(states))


def test_fd_value_stays_in_payoff_envelope(model):
    payoff = Payoff.put(100.0)
    sol = solve_fd(model, payoff, Generator.abs_upper(0.1), HORIZON, store_surfaces=True)
    eps = 1e-9 * 100.0
    assert sol.value_surface.min() >= 0.0 - eps
    assert sol.value_surface.max() <= 100.0 + eps


def test_fd_grid_refinement_contracts(model):
    """Halving dx shrinks the change in y0 by roughly the scheme order."""
    payoff = Payoff.call(100.0)
    gen = Generator.abs_upper(0.1)
    y = [solve_fd(model, payoff, gen, HORIZON, nodes=n).y0
         for n in (201, 401, 801)]
    e1 = abs(y[1] - y[0])
    e2 = abs(y[2] - y[1])
    assert e2 <= 0.6 * e1


def test_fd_duality_with_negated_payoff(model):
    """lower-driver value of X equals minus the upper-driver value of -X.

    The negation commutes exactly through the linear scheme and |z|, so the
    agreement is at float-rounding level, not scheme level.
    """
    payoff = Payoff.call(100.0)
    neg = Payoff.custom("neg_call", lambda s: -np.maximum(s - 100.0, 0.0),
                        monotonicity="decreasing")
    low = solve_fd(model, payoff, Generator.abs_lower(0.1), HORIZON, nodes=201)
    upneg = solve_fd(model, neg, Generator.abs_upper(0.1), HORIZON, nodes=201)
    assert abs(low.y0 + upneg.y0) < 1e-12 * max(1.0, abs(low.y0))


# ---------------------------------------------------------------------------
# stability contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nodes, requested", [(101, 50), (401, 1000), (801, 2000), (1601, 2000)],
                         ids=["101", "401", "801", "1601"])
def test_fd_substeps_by_default(model, nodes, requested):
    sol = solve_fd(model, Payoff.call(100.0), Generator.abs_upper(0.1), HORIZON,
                   nodes=nodes, time_steps=requested)
    need = minimal_time_steps(model, HORIZON, nodes=nodes, lipschitz_z=0.1)
    assert sol.time_steps == need
    assert sol.time_steps > requested  # the requested count is below the bound here


def test_fd_grid_too_coarse_error(model):
    with pytest.raises(GridTooCoarseError) as err:
        solve_fd(model, Payoff.call(100.0), Generator.abs_upper(0.1), HORIZON,
                 nodes=801, time_steps=2000, substep=False)
    need = minimal_time_steps(model, HORIZON, nodes=801, lipschitz_z=0.1)
    assert err.value.minimal_time_steps == need
    assert str(need) in str(err.value)


def test_fd_accepts_stable_requests(model):
    need = minimal_time_steps(model, HORIZON, nodes=101, lipschitz_z=0.1)
    sol = solve_fd(model, Payoff.call(100.0), Generator.abs_upper(0.1), HORIZON,
                   nodes=101, time_steps=need + 10, substep=False)
    assert sol.time_steps == need + 10


def test_fd_rejects_step_count_above_limit():
    # The explicit bound grows like 1/sigma^2: a near-deterministic market
    # would march for hours, so the solve refuses before any work.
    tiny = MarketModel.gbm(100.0, 0.05, 1e-8, k=0.1)
    need = minimal_time_steps(tiny, HORIZON, nodes=801, lipschitz_z=0.1)
    assert need > MAX_TIME_STEPS
    with pytest.raises(ValueError, match=str(need)):
        solve_fd(tiny, Payoff.call(100.0), Generator.abs_upper(0.1), HORIZON, nodes=801)


def test_fd_rejects_requested_steps_above_limit(model):
    # The march runs at least the requested count, so a huge request is
    # refused up front rather than marched.
    with pytest.raises(ValueError, match=f"MAX_TIME_STEPS = {MAX_TIME_STEPS}.*{MAX_TIME_STEPS + 1}"):
        solve_fd(model, Payoff.call(100.0), Generator.abs_upper(0.1), HORIZON, nodes=11,
                 time_steps=MAX_TIME_STEPS + 1)


def test_fd_argument_validation(model):
    payoff = Payoff.call(100.0)
    gen = Generator.linear(0.0)
    with pytest.raises(ValueError):
        solve_fd(model, payoff, gen, HORIZON, nodes=3)
    with pytest.raises(ValueError):
        solve_fd(model, payoff, gen, HORIZON, time_steps=0)
    with pytest.raises(ValueError):
        solve_fd(model, payoff, gen, 0.0)


# ---------------------------------------------------------------------------
# lattice oracle
# ---------------------------------------------------------------------------

def test_tree_matches_closed_form_flat(model):
    y0 = solve_tree(model, Payoff.call(100.0), Generator.linear(0.0), HORIZON, 2000)
    assert abs(y0 - CALL_ATM_FLAT) < 0.003 * CALL_ATM_FLAT


def test_tree_matches_fd_abs_driver(model):
    tree = solve_tree(model, Payoff.call(100.0), Generator.abs_upper(0.1), HORIZON, 2000)
    fd = solve_fd(model, Payoff.call(100.0), Generator.abs_upper(0.1), HORIZON)
    assert abs(tree - fd.y0) < 0.005 * fd.y0
    assert abs(tree - CALL_ATM_DRIFT_UP) < 0.005 * CALL_ATM_DRIFT_UP


def test_tree_constant_payoff_exact(model):
    const = Payoff.custom("const", lambda s: np.full_like(s, 2.0))
    assert solve_tree(model, const, Generator.abs_upper(0.1), HORIZON, 64) == 2.0


def test_tree_validation(model):
    with pytest.raises(ValueError):
        solve_tree(model, Payoff.call(100.0), Generator.linear(0.0), HORIZON, 7)
    general = MarketModel.general(100.0, lambda t, s: 0.0 * s, lambda t, s: 0.2 * s)
    with pytest.raises(ValueError):
        solve_tree(general, Payoff.call(100.0), Generator.linear(0.0), HORIZON, 64)


# ---------------------------------------------------------------------------
# comparison and z-sign checks
# ---------------------------------------------------------------------------

# Pointwise ordered drivers: -k|z| <= nu z <= +k|z| for |nu| <= k.
ORDERED_DRIVERS = (Generator.abs_lower(0.1), Generator.linear(-0.1), Generator.linear(0.0),
                   Generator.linear(0.1), Generator.abs_upper(0.1))


def test_comparison_linear_within_band(model):
    # The comparison theorem: each linear driver's value lies in the band.
    y0 = solve_fd(model, Payoff.call(100.0), ORDERED_DRIVERS, HORIZON, nodes=201).y0
    tol = 0.005 * max(1.0, *np.abs(y0))
    assert y0[-1] - y0[0] > 0.0
    assert np.all(y0[1:-1] >= y0[0] - tol) and np.all(y0[1:-1] <= y0[-1] + tol), y0


def test_comparison_lower_vs_upper_with_surfaces(model):
    # The order holds on every node at every time, not only at (0, s0).
    sol = solve_fd(model, Payoff.call(100.0), ORDERED_DRIVERS, HORIZON, nodes=201,
                   store_surfaces=True)
    tol = 0.005 * max(1.0, abs(sol.y0[0]), abs(sol.y0[-1]))
    assert np.diff(sol.value_surface, axis=0).min() >= -tol


def test_z_sign_increasing(model):
    sol = solve_fd(model, Payoff.call(100.0), Generator.abs_upper(0.1), HORIZON,
                   nodes=401)
    report = z_sign_check(sol)
    assert report.monotonicity == "increasing"
    assert report.extreme >= -report.threshold


def test_z_sign_decreasing(model):
    sol = solve_fd(model, Payoff.put(100.0), Generator.abs_upper(0.1), HORIZON,
                   nodes=401)
    report = z_sign_check(sol)
    assert report.monotonicity == "decreasing"
    assert report.extreme <= report.threshold


def test_z_sign_not_applicable(model):
    straddle = Payoff.custom("straddle", lambda s: np.abs(s - 100.0))
    sol = solve_fd(model, straddle, Generator.abs_upper(0.1), HORIZON, nodes=201)
    report = z_sign_check(sol)
    assert report.monotonicity == "none"
    assert math.isnan(report.extreme)


def test_z_sign_needs_no_surfaces(model):
    args = (model, Payoff.call(100.0), Generator.abs_upper(0.1), HORIZON)
    stored = solve_fd(*args, nodes=101, store_surfaces=True)
    streamed = solve_fd(*args, nodes=101)
    assert streamed.z_surface is None and stored.z_surface is not None
    assert z_sign_check(streamed) == z_sign_check(stored)


# The verdict on the measurement is the cli's (tests/test_cli.py); the
# report carries the solve's extreme and the slack of 1e-6 * s0 = 1e-4.
@pytest.mark.parametrize("payoff", [Payoff.call(100.0), Payoff.put(100.0)],
                         ids=["increasing", "decreasing"])
def test_z_sign_reports_the_extreme_and_its_slack(model, payoff):
    sol = solve_fd(model, payoff, Generator.abs_upper(0.1), HORIZON, nodes=21)
    report = z_sign_check(replace(sol, z_extreme=-1.01e-4))
    assert (report.monotonicity, report.extreme) == (payoff.monotonicity, -1.01e-4)
    assert report.threshold == Z_SIGN_SLACK * model.s0 == pytest.approx(1e-4)
    assert report.band == Z_SIGN_BAND == 0.9


def _surface_extreme(sol):
    """The z-sign extreme read from the stored surface, as it used to be."""
    nodes = sol.space_grid.size
    margin = int(round(0.5 * (1.0 - Z_SIGN_BAND) * nodes))
    core = sol.z_surface[:-1, margin:nodes - margin]
    return core.min() if sol.payoff.monotonicity == "increasing" else core.max()


@settings(max_examples=60, deadline=None)
@given(
    # Grids of 10 nodes or fewer have a band reaching the boundary columns.
    nodes=st.one_of(st.integers(5, 12), st.integers(5, 401)),
    s0=st.floats(10.0, 500.0),
    sigma=st.floats(0.05, 0.4),
    mu=st.floats(-0.1, 0.1),
    k=st.floats(0.0, 0.5),
    moneyness=st.floats(0.7, 1.3),
    kind=st.sampled_from(["call", "put", "digital", "forward", "straddle"]),
    driver=st.sampled_from(["abs_upper", "abs_lower", "linear"]),
    general=st.booleans(),
    # Requests above the stable count give coarse grids more than one row.
    time_steps=st.integers(1, 60),
)
# Pinned cases: the extreme on row 0 (a falling forward), next to the
# terminal row (a rising one), in a boundary column of a 7-node grid, on an
# inner row of a general model whose time argument used to differ in the
# last bit, and a GBM with sigma = 0, whose z is recomputed on every row.
@example(nodes=101, s0=100.0, sigma=0.2, mu=-0.1, k=0.1, moneyness=1.0, kind="forward",
         driver="linear", general=False, time_steps=1)
@example(nodes=101, s0=100.0, sigma=0.2, mu=0.1, k=0.1, moneyness=1.0, kind="forward",
         driver="abs_upper", general=False, time_steps=1)
@example(nodes=7, s0=100.0, sigma=0.2, mu=0.1, k=0.1, moneyness=1.0, kind="forward",
         driver="abs_upper", general=False, time_steps=20)
@example(nodes=11, s0=100.0, sigma=0.2, mu=-0.1, k=0.1, moneyness=1.0, kind="forward",
         driver="linear", general=True, time_steps=29)
@example(nodes=101, s0=100.0, sigma=0.0, mu=0.0, k=0.1, moneyness=1.0, kind="call",
         driver="abs_upper", general=False, time_steps=20)
def test_streamed_z_extreme_is_bitwise_surface_extreme(nodes, s0, sigma, mu, k, moneyness,
                                                         kind, driver, general, time_steps):
    if general:
        # Level- and time-dependent volatility: z is recomputed every row.
        # The oscillation puts the extreme on inner rows, where the step's
        # own time and the next row's time can differ in the last bit.
        def vol(t, s):
            return sigma * (1.0 + 0.5 * np.sin(20.0 * t)) * s0**0.2 * s**0.8

        market = MarketModel.general(s0, lambda t, s: mu * s, vol)
    else:
        market = MarketModel.gbm(s0, mu, sigma, k=k)
    strike = moneyness * s0
    if kind == "straddle":
        payoff = Payoff.custom("straddle", lambda s: np.abs(s - strike))
    elif kind == "forward":
        # z = sv * s * exp(drift * (T - t)): its extreme sits on row 0 or
        # next to the terminal row, depending on the sign of the drift.
        payoff = Payoff.custom("forward", lambda s: s - strike, monotonicity="increasing")
    else:
        payoff = getattr(Payoff, kind)(strike)
    gen = Generator.linear(-k) if driver == "linear" else getattr(Generator, driver)(k)
    sol = solve_fd(market, payoff, gen, HORIZON, nodes=nodes, time_steps=time_steps,
                   store_surfaces=True)
    if kind == "straddle":
        assert math.isnan(sol.z_extreme)
        return
    reference = _surface_extreme(sol)
    assert sol.z_extreme == reference
    assert np.signbit(sol.z_extreme) == np.signbit(reference)


def _fused_step(u, mv, sv, gen, dx, dt):
    """The interior of the next row by the fused stencil of solve_fd."""
    r2, r1 = dt / (dx * dx), dt / (2.0 * dx)
    up, mid, dn = u[2:], u[1:-1], u[:-2]
    nu, c = (gen.coefficient, 0.0) if gen.kind == "linear" else (0.0, gen.coefficient)
    a = r2 * (0.5 * sv * sv)
    b = r1 * mv + (r1 * nu) * sv
    new = (1.0 - 2.0 * a) * mid + (a + b) * up + (a - b) * dn
    if gen.kind != "linear":
        new = new + (r1 * c) * np.abs(sv) * np.abs(up - dn)
    return new


def _textbook_step(u, mv, sv, gen, dx, dt):
    """The interior of the next row by the textbook form of the same scheme."""
    d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
    d1 = (u[2:] - u[:-2]) / (2.0 * dx)
    return u[1:-1] + dt * (0.5 * sv * sv * d2 + mv * d1 + gen.g(0.0, u[1:-1], sv * d1))


def _allocating_march(model, payoff, gen, x, dt, m, step_rule=_fused_step):
    """Reference: the explicit march with fresh arrays at every step and the
    coefficients evaluated from the log nodes at every call, at t = level *
    dt for both a level's z and the step that reads it.  Returns the value
    and z surfaces, row 0 at t = 0."""
    def coefficients(t, x):
        if model.gbm_constants is not None:
            mu, sigma = model.gbm_constants
            return np.full_like(x, mu - 0.5 * sigma * sigma), np.full_like(x, sigma)
        s = np.exp(x)
        sv = np.asarray(model.vol(t, s), dtype=float) / s
        return np.asarray(model.drift(t, s), dtype=float) / s - 0.5 * sv * sv, sv

    dx = x[1] - x[0]

    def z_row(t, row):
        gz = np.empty_like(row)
        gz[1:-1] = (row[2:] - row[:-2]) / (2.0 * dx)
        gz[0] = (row[1] - row[0]) / dx
        gz[-1] = (row[-1] - row[-2]) / dx
        return coefficients(t, x)[1] * gz

    u = payoff.map(np.exp(x))
    values, zs = [u], [z_row(m * dt, u)]
    for step in range(m, 0, -1):
        mv, sv = coefficients(step * dt, x[1:-1])
        u = np.empty_like(u)
        u[1:-1] = step_rule(values[-1], mv, sv, gen, dx, dt)
        u[0] = 2.0 * u[1] - u[2]
        u[-1] = 2.0 * u[-2] - u[-3]
        values.append(u)
        zs.append(z_row((step - 1) * dt, u))
    return np.array(values[::-1]), np.array(zs[::-1])


def _textbook_march(model, payoff, gen, x, dt, m):
    """Second reference: the same scheme in its textbook form, through d2, d1 and g."""
    return _allocating_march(model, payoff, gen, x, dt, m, step_rule=_textbook_step)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _march_case(nodes, general, kind):
    """Market, payoff, drivers and requested step count of the march tests."""
    if general:
        # CEV with beta = 0.5 and the GBM fixture's at-the-money volatility.
        market = MarketModel.general(100.0, lambda t, s: 0.03 * s,
                                     lambda t, s: 0.2 * 100.0**0.5 * np.sqrt(s))
    else:
        market = MarketModel.gbm(100.0, 0.03, 0.2)
    payoff = (Payoff.custom("straddle", lambda s: np.abs(s - 100.0)) if kind == "straddle"
              else getattr(Payoff, kind)(100.0))
    drivers = [Generator.abs_upper(0.1), Generator.abs_lower(0.1), Generator.abs_upper(0.0),
               Generator.abs_lower(0.0), Generator.linear(-0.1)]
    # Up to 12 nodes the request holds: odd grids march 8 rows and even
    # grids 7, so the last row ends in either buffer on both sides of
    # margin >= 1 (11 and 12 nodes).  201 nodes take the stable count.
    return market, payoff, drivers, 8 if nodes % 2 else 7


@pytest.mark.parametrize("nodes", [5, 6, 10, 11, 12, 201])
@pytest.mark.parametrize("general", [False, True])
@pytest.mark.parametrize("kind", ["call", "put", "straddle"])
def test_fd_march_is_bitwise_the_allocating_march(nodes, general, kind):
    market, payoff, drivers, time_steps = _march_case(nodes, general, kind)
    margin = int(round(0.5 * (1.0 - Z_SIGN_BAND) * nodes))
    # The five drivers also march as one tuple, in both orders, so that the
    # linear row sits after the run of |z| rows and before it.
    together = {(order, store): solve_fd(market, payoff, tuple(drivers[::order]), HORIZON,
                                         nodes=nodes, time_steps=time_steps,
                                         store_surfaces=store)
                for order in (1, -1) for store in (True, False)}
    for i, gen in enumerate(drivers):
        stored = solve_fd(market, payoff, gen, HORIZON, nodes=nodes, time_steps=time_steps,
                          store_surfaces=True)
        plain = solve_fd(market, payoff, gen, HORIZON, nodes=nodes, time_steps=time_steps)
        x = stored.space_grid
        values, zs = _allocating_march(market, payoff, gen, x, stored.dt, stored.time_steps)
        rows = [sol.driver(i if order == 1 else len(drivers) - 1 - i)
                for (order, _), sol in together.items()]
        for sol in (stored, *rows[::2]):
            assert np.array_equal(_bits(sol.value_surface), _bits(values))
            assert np.array_equal(_bits(sol.z_surface), _bits(zs))
        for sol in rows[1::2]:
            assert sol.value_surface is None and sol.z_surface is None
        u = values[0]
        y0 = u[(nodes - 1) // 2] if nodes % 2 else np.interp(math.log(100.0), x, u)
        band = zs[:-1, margin:nodes - margin]
        extreme = {"increasing": band.min, "decreasing": band.max}.get(payoff.monotonicity,
                                                                       lambda: math.nan)()
        for sol in (stored, plain, *rows):
            assert sol.time_steps == stored.time_steps
            assert _bits(sol.y0) == _bits(y0)
            assert _bits(sol.z_extreme) == _bits(extreme)


@pytest.mark.parametrize("nodes", [5, 6, 10, 11, 12, 201])
@pytest.mark.parametrize("general", [False, True])
@pytest.mark.parametrize("kind", ["call", "put", "straddle"])
def test_fd_march_agrees_with_the_textbook_march(nodes, general, kind):
    # The fused stencil is the textbook scheme u + dt * (0.5 sv^2 d2 + mv d1
    # + g) with its coefficients multiplied out, so the two differ only in
    # rounding: within 1e-12 of each surface's scale.
    market, payoff, drivers, time_steps = _march_case(nodes, general, kind)
    sol = solve_fd(market, payoff, drivers, HORIZON, nodes=nodes, time_steps=time_steps,
                   store_surfaces=True)
    x = sol.space_grid
    for i, gen in enumerate(drivers):
        values, zs = _textbook_march(market, payoff, gen, x, sol.dt, sol.time_steps)
        row = sol.driver(i)
        for fused, textbook in ((row.value_surface, values), (row.z_surface, zs)):
            scale = np.abs(textbook).max()
            assert np.abs(fused - textbook).max() <= 1e-12 * scale
        y0 = values[0][(nodes - 1) // 2] if nodes % 2 else np.interp(math.log(100.0), x, values[0])
        assert abs(row.y0 - y0) <= 1e-12 * np.abs(values).max()


def test_drivers_on_one_grid_march_the_largest_stable_count():
    # With sigma this small the advection bound binds, and it grows with
    # the driver's Lipschitz constant: linear(0) alone needs fewer steps
    # than |z| drivers at k = 0.5.  Marched together, every driver takes the
    # largest count and is bitwise a lone solve asked for that count.
    market = MarketModel.gbm(100.0, 0.05, 0.01)
    payoff = Payoff.call(100.0)
    drivers = (Generator.abs_upper(0.5), Generator.linear(0.0), Generator.abs_lower(0.5))
    counts = [minimal_time_steps(market, HORIZON, nodes=21, lipschitz_z=gen.lipschitz_z)
              for gen in drivers]
    diffusion = minimal_time_steps(MarketModel.gbm(100.0, 0.0, 0.01), HORIZON, nodes=21)
    assert diffusion < counts[1] < counts[0] == counts[2]
    together = solve_fd(market, payoff, drivers, HORIZON, nodes=21, time_steps=1)
    assert together.time_steps == counts[0]
    assert solve_fd(market, payoff, drivers[1], HORIZON, nodes=21,
                    time_steps=1).time_steps == counts[1]
    for i, gen in enumerate(drivers):
        alone = solve_fd(market, payoff, gen, HORIZON, nodes=21, time_steps=counts[0])
        assert _bits(together.y0[i]) == _bits(alone.y0)
        assert _bits(together.z_extreme[i]) == _bits(alone.z_extreme)
    with pytest.raises(GridTooCoarseError) as err:
        solve_fd(market, payoff, drivers[1:], HORIZON, nodes=21, time_steps=1, substep=False)
    assert err.value.minimal_time_steps == counts[0]


def test_rows_meeting_in_one_march_cannot_overflow():
    # Where two drivers' rows meet, the stencil reads the top node of one
    # and the bottom node of the next: here a jump of about 3e307, which
    # over 2 * dx (and over dx * dx) overflows.  No entry a lone solve
    # computes does.
    payoff = Payoff.custom("steep", lambda s: 1e305 * s, monotonicity="increasing")
    drivers = (Generator.abs_upper(0.1), Generator.abs_lower(0.1), Generator.linear(0.0))
    model = MarketModel.gbm(100.0, 0.0, 0.2)
    with np.errstate(over="raise"):
        together = solve_fd(model, payoff, drivers, HORIZON, nodes=101, store_surfaces=True)
        for i, gen in enumerate(drivers):
            alone = solve_fd(model, payoff, gen, HORIZON, nodes=101, store_surfaces=True)
            row = together.driver(i)
            assert _bits(row.y0) == _bits(alone.y0)
            assert np.array_equal(_bits(row.value_surface), _bits(alone.value_surface))
            assert np.array_equal(_bits(row.z_surface), _bits(alone.z_surface))


@pytest.mark.parametrize("count, nodes", [(1, 11), (2, 256), (5, 801), (5, 1601)])
def test_march_buffers_are_page_aligned_rows_of_one_block(count, nodes):
    # Every buffer row of the march starts on a page, wherever the heap puts
    # the block, and no two rows share memory.  The coefficient rows split
    # into (driver, node) views.
    width = count * nodes
    block = _page_rows(8, width)
    assert block.shape == (8, width)
    assert all(row.ctypes.data % PAGE_BYTES == 0 for row in block)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(block) for b in block[i + 1:])
    coeff_rows = block[2:6].reshape(4, count, nodes)
    coeff_rows[3, -1, -1] = 7.0
    assert block[5, -1] == 7.0


def test_solve_fd_needs_a_driver(model):
    with pytest.raises(ValueError, match="at least one driver"):
        solve_fd(model, Payoff.call(100.0), (), HORIZON, nodes=11)
