"""Where the Choquet integral strictly beats the best single measure.

For a monotone claim the worst-case measure is one constant tilt, so the
minimax search and the Choquet integral agree.  A straddle |S - K| is
not monotone: its right tail wants the +k tilt and its left wing the
-k tilt.  No single measure can do both at once, but the upper
capacity can, because it picks the most pessimistic measure level by
level.  The result is a strictly positive gap

    choquet_upper - minimax_upper > 0

that no amount of sampling makes vanish.  The gap is the price of not
knowing which member of the family acts on which part of the payoff.

Run:  python3 demos/straddle_gap.py
"""

import numpy as np

from nexpect import (
    MarketModel,
    Payoff,
    TimeGrid,
    build_capacity,
    choquet_integral,
    default_control_family,
    generate_brownian,
    minimax_expectation,
    simulate_sde,
    weight_matrix,
)

S0, MU, SIGMA, T, K_RADIUS, STRIKE = 100.0, 0.0, 0.2, 1.0, 0.1, 100.0
N_PATHS, SEED = 400_000, 5


def main() -> None:
    model = MarketModel.gbm(S0, MU, SIGMA, k=K_RADIUS)
    grid = TimeGrid(T, 8)
    family = default_control_family(K_RADIUS, 21)
    # Naming the family's bang-bang thetas keeps their functionals from the
    # one draw, so weight_matrix does not draw the stream again.
    bundle = simulate_sde(model, generate_brownian(grid, N_PATHS, SEED),
                          [c.theta_on_grid(grid) for c in family if c.kind == "bang_bang"])
    weights = weight_matrix(family, bundle)
    cap_up = build_capacity("upper", family, bundle, weights=weights)

    claims = [
        Payoff.call(STRIKE),
        Payoff.put(STRIKE),
        Payoff.custom("straddle", lambda s: np.abs(s - STRIKE)),
        Payoff.custom("butterfly",
                      lambda s: np.maximum(10.0 - np.abs(s - STRIKE), 0.0)),
    ]

    cap_lo = build_capacity("lower", family, bundle, weights=weights)

    print("claim       minimax_up   choquet_up    gap_up/se"
          "   minimax_lo   choquet_lo    gap_lo/se")
    for payoff in claims:
        values = payoff.map(bundle.terminal())
        mm = minimax_expectation(payoff, family, bundle, weights=weights)
        cho_up = choquet_integral(values, cap_up)
        cho_lo = choquet_integral(values, cap_lo)
        gap_up = (cho_up - mm.upper) / mm.std_errors[0]
        gap_lo = (mm.lower - cho_lo) / mm.std_errors[1]
        print(f"{payoff.name:<10}  {mm.upper:10.5f}  {cho_up:11.5f}  {gap_up:+9.1f}"
              f"   {mm.lower:10.5f}  {cho_lo:11.5f}  {gap_lo:+9.1f}")

    print()
    print("the monotone claims close both gaps to within sampling noise.")
    print("the straddle keeps gaps of several standard errors on both")
    print("sides: the capacity feeds both tails at once (upper) or drains")
    print("them at once (lower), which no single member of the family can")
    print("do.  the butterfly is bounded and localized, so one tilt nearly")
    print("attains its envelope and the gap stays inside the noise")


if __name__ == "__main__":
    main()
