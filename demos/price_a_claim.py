"""Price one claim four ways and watch the estimates agree.

A European call on a lognormal asset, priced under drift ambiguity of
radius k.  Four routes to the same pair of numbers:

  1. minimax search over a finite family of constant drift tilts,
  2. Choquet integrals against the induced upper/lower capacities,
  3. a backward PDE solve with driver +k|z| (upper) and -k|z| (lower),
  4. the closed form at the extreme drifts mu +- k*sigma.

Routes 1 and 2 share one set of simulated paths, so their Monte Carlo
noise is common; routes 3 and 4 are deterministic.  All four land within
a fraction of a percent of each other.

Run:  python3 demos/price_a_claim.py
"""

from nexpect import (
    DensityRows,
    Generator,
    MarketModel,
    Payoff,
    TimeGrid,
    build_capacity,
    choquet_integral,
    default_control_family,
    extremal_price,
    generate_brownian,
    minimax_expectation,
    simulate_sde,
    solve_fd,
)

S0, MU, SIGMA, T, K_RADIUS, STRIKE = 100.0, 0.0, 0.2, 1.0, 0.1, 100.0
N_PATHS, SEED = 200_000, 7


def main() -> None:
    model = MarketModel.gbm(S0, MU, SIGMA, k=K_RADIUS)
    payoff = Payoff.call(STRIKE)

    # One shared path bundle: every simulation-based estimate below reuses it.
    grid = TimeGrid(T, 8)
    family = default_control_family(K_RADIUS, 21)
    # Naming the family's bang-bang thetas keeps their functionals from the
    # one draw, so DensityRows does not draw the stream again.
    bundle = simulate_sde(model, generate_brownian(grid, N_PATHS, SEED),
                          [c.theta_on_grid(grid) for c in family if c.kind == "bang_bang"])
    values = payoff.map(bundle.terminal())

    print(f"call on lognormal asset, strike {STRIKE:.0f},"
          f" ambiguity radius k = {K_RADIUS}")
    print(f"{N_PATHS} paths, seed {SEED}")
    print()

    # Route 1: grid search over constant drift tilts in [-k, k].
    weights = DensityRows(family, bundle)
    mm = minimax_expectation(values, family, weights)
    print(f"minimax      upper {mm.upper:9.5f}   lower {mm.lower:9.5f}"
          f"   (argmax tilt {mm.argmax_control.label()})")

    # Route 2: Choquet integrals against the family's capacity envelopes.
    cap_up = build_capacity("upper", weights)
    cap_lo = build_capacity("lower", weights)
    cho_up = choquet_integral(values, cap_up)
    cho_lo = choquet_integral(values, cap_lo)
    print(f"choquet      upper {cho_up:9.5f}   lower {cho_lo:9.5f}")

    # Route 3: backward solves with drivers +k|z| and -k|z|.  The solver
    # substeps the time grid on its own when stability demands it.
    fd_up = solve_fd(model, payoff, Generator.abs_upper(K_RADIUS), T,
                     nodes=401, time_steps=500)
    fd_lo = solve_fd(model, payoff, Generator.abs_lower(K_RADIUS), T,
                     nodes=401, time_steps=500)
    print(f"backward pde upper {fd_up.y0:9.5f}   lower {fd_lo.y0:9.5f}"
          f"   ({fd_up.time_steps} time steps used)")

    # Route 4: closed form at the two extreme drifts.
    cf = extremal_price(payoff, model, T)
    print(f"closed form  upper {cf.upper:9.5f}   lower {cf.lower:9.5f}")

    print()
    spread = mm.upper - mm.lower
    plain = float(values.mean())
    print(f"plain mean (no ambiguity)      {plain:9.5f}")
    print(f"width of the ambiguity band    {spread:9.5f}")
    print("the four uppers differ by "
          f"{max(mm.upper, cho_up, fd_up.y0, cf.upper) - min(mm.upper, cho_up, fd_up.y0, cf.upper):.2e}"
          ", well inside Monte Carlo noise")


if __name__ == "__main__":
    main()
