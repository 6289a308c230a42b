"""Backward-solver convergence and the ordering of drivers.

Two exercises on the same call:

  1. refine the spatial grid and watch the solver's value approach the
     closed-form price at the extreme drift, with roughly second-order
     error decay;
  2. sweep linear drivers nu * z for nu in [-k, k] and confirm the
     solved values increase with nu and stay inside the band set by the
     concave/convex drivers -k|z| and +k|z|.

The second exercise is the numerical face of the comparison property:
a pointwise ordering of drivers orders the solutions.

Run:  python3 demos/solver_convergence.py
"""

import numpy as np

from nexpect import (
    Generator,
    MarketModel,
    Payoff,
    extremal_price,
    solve_fd,
)

S0, MU, SIGMA, T, K_RADIUS, STRIKE = 100.0, 0.0, 0.2, 1.0, 0.1, 100.0


def main() -> None:
    model = MarketModel.gbm(S0, MU, SIGMA, k=K_RADIUS)
    payoff = Payoff.call(STRIKE)
    target = extremal_price(payoff, model, T).upper

    print(f"closed-form upper price: {target:.6f}")
    print()
    print("nodes   time steps used      value        error   ratio")
    prev_err = None
    for nodes in (101, 201, 401, 801):
        sol = solve_fd(model, payoff, Generator.abs_upper(K_RADIUS), T,
                       nodes=nodes, time_steps=250)
        err = abs(sol.y0 - target)
        ratio = "" if prev_err is None else f"{err / prev_err:7.2f}"
        print(f"{nodes:5d}   {sol.time_steps:15d}  {sol.y0:9.6f}  {err:11.2e} {ratio}")
        prev_err = err
    print()
    print("past the coarsest grid, halving the node spacing cuts the error")
    print("by roughly four, the signature of a second-order scheme (the")
    print("solver raises the time step count on its own to keep the march")
    print("stable)")

    print()
    print("   nu      value")
    lo = solve_fd(model, payoff, Generator.abs_lower(K_RADIUS), T,
                  nodes=401, time_steps=250).y0
    hi = solve_fd(model, payoff, Generator.abs_upper(K_RADIUS), T,
                  nodes=401, time_steps=250).y0
    values = []
    for nu in np.linspace(-K_RADIUS, K_RADIUS, 9):
        y0 = solve_fd(model, payoff, Generator.linear(float(nu)), T,
                      nodes=401, time_steps=250).y0
        values.append(y0)
        print(f"{nu:+6.3f}  {y0:9.6f}")
    inside = all(lo - 1e-6 <= v <= hi + 1e-6 for v in values)
    print()
    print(f"band from the two absolute drivers: [{lo:.6f}, {hi:.6f}]")
    print(f"all nine linear drivers inside the band: {inside}")
    print(f"values strictly increasing in nu: {bool(np.all(np.diff(values) > 0))}")


if __name__ == "__main__":
    main()
