"""How the price band grows with the ambiguity radius.

The upper and lower prices bracket the classical expectation, collapse
onto it at k = 0, and spread apart as k grows.  For a call the extremes
sit at the constant tilts -k and +k, so the closed form tracks the
simulated band exactly and the band width is nearly linear in k over
this range.

Run:  python3 demos/band_vs_radius.py
"""

import numpy as np

from nexpect import (
    MarketModel,
    Payoff,
    TimeGrid,
    default_control_family,
    extremal_price,
    generate_brownian,
    minimax_expectation,
    simulate_sde,
    weight_matrix,
)

S0, MU, SIGMA, T, STRIKE = 100.0, 0.0, 0.2, 1.0, 100.0
N_PATHS, SEED = 200_000, 11


def main() -> None:
    payoff = Payoff.call(STRIKE)
    grid = TimeGrid(T, 8)
    # One driving noise for every radius: the k-sweep reuses the same
    # Brownian increments, so the bands below differ only through k.
    noise = generate_brownian(grid, N_PATHS, SEED)

    print("  k      lower      upper      width    closed-form width")
    for k in (0.0, 0.025, 0.05, 0.1, 0.15, 0.2):
        model = MarketModel.gbm(S0, MU, SIGMA, k=k)
        family = default_control_family(k, 21)
        # Naming the bang-bang thetas keeps their functionals from the one
        # draw, so weight_matrix does not draw the noise again.
        bundle = simulate_sde(model, noise, [c.theta_on_grid(grid) for c in family
                                             if c.kind == "bang_bang"])
        weights = weight_matrix(family, bundle)
        mm = minimax_expectation(payoff, family, bundle, weights=weights)
        if k == 0.0:
            bundle0, mm0 = bundle, mm
        cf = extremal_price(payoff, model, T, closed_form=True)
        print(f"{k:5.3f}  {mm.lower:9.5f}  {mm.upper:9.5f}  {mm.upper - mm.lower:9.5f}"
              f"  {cf.upper - cf.lower:9.5f}")

    print()
    print("at k = 0 the family holds a single measure, the band has zero")
    print("width, and every estimator reproduces the plain Monte Carlo mean")
    plain = float(payoff.map(bundle0.terminal()).mean())
    print(f"upper == lower == plain mean: "
          f"{mm0.upper == mm0.lower == plain}   ({plain:.6f})")


if __name__ == "__main__":
    main()
