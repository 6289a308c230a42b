"""Scenario text for each benchmark workload, built from (workload, seed).

The benchmark owns its inputs: nothing here reads `scenarios/*.scn`.  The
`acceptance` and `straddle` settings mirror the shipped files key for key
(`selftest.py` checks that they still parse to the same `Scenario`), and
`fd_put` exists only here.  `quantile_levels` is left out on purpose: the
loader default of 513 equals every workload's value, so the key can be
retired from the loader without breaking the benchmark.
"""

from __future__ import annotations

_MARKET = {
    "s0": "100",
    "mu": "0.0",
    "sigma": "0.2",
    "horizon": "1.0",
    "k": "0.1",
}

# Key order follows the shipped scenario files; the seed is filled in per run.
WORKLOADS = {
    # 1M paths x 29 controls: the weight matrix (232 MB) and the exact
    # sorted-prefix Choquet integral dominate and set peak RSS.
    "acceptance": {
        "default_seed": 271828,
        "keys": {
            **_MARKET,
            "payoff": "call",
            "strike": "100",
            "n_paths": "1000000",
            "steps": "8",
            "nodes": "801",
            "time_steps": "2000",
            "theta_grid": "21",
            "checks": "chain, duality, sandwich, normalization, martingale, zsign, "
                      "comparison, attainment, submodularity, l2bound, holder",
        },
    },
    # Non-monotone payoff: quadrature integrals on the capped bootstrap prefix
    # and the check subsample dominate; the exact integral is a small share.
    "straddle": {
        "default_seed": 314159,
        "keys": {
            **_MARKET,
            "payoff": "custom",
            "expr": "max(s - 100, 100 - s)",
            "monotonicity": "none",
            "n_paths": "200000",
            "steps": "8",
            "nodes": "401",
            "time_steps": "2000",
            "theta_grid": "21",
            "checks": "duality, sandwich, normalization, martingale, comparison, "
                      "submodularity, l2bound, holder",
        },
    },
    # Fine FD grid (1601 nodes, 19,754 substeps): five backward solves and
    # their stored surfaces (about 1 GB) dominate; Monte Carlo is small.
    "fd_put": {
        "default_seed": 161803,
        "keys": {
            **_MARKET,
            "payoff": "put",
            "strike": "100",
            "n_paths": "100000",
            "steps": "8",
            "nodes": "1601",
            "time_steps": "2000",
            "checks": "chain, sandwich, normalization, zsign, comparison, attainment, duality",
        },
    },
}


def scenario_text(workload: str, seed: int, overrides: dict | None = None) -> str:
    """The scenario file for one workload at one seed."""
    keys = dict(WORKLOADS[workload]["keys"])
    keys["seed"] = str(seed)
    keys.update(overrides or {})
    lines = [f"# perfbench workload {workload}, seed {seed}"]
    lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"
