"""How often do the Monte Carlo error bars cover the closed-form price?

Runs `scenarios/quick.scn` (an at-the-money call, 50,000 paths) at many
seeds, without its checks, and counts for each Monte Carlo entry how
often |value - reference| <= 2 * std_error.  The reference of an upper
(lower) entry is the closed-form extremal price at the drift mu + k sigma
(mu - k sigma), which the paper's theorem says every upper (lower)
estimator targets for a monotone claim; the plain mean's reference is the
closed form at drift mu.  Unbiased estimates with honest error bars cover
about 95% of the time.  Coverage well below that means an estimator is
biased or its error bar too small, not that the threshold is too tight.

The result, with the mean and spread of each entry's z-score, is written
to `BENCH_coverage.json` in the repository root.

Run:  PYTHONPATH=src python3 demos/se_coverage.py [--seeds 200] [--first-seed 1]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import time
from pathlib import Path

import numpy as np

from nexpect import extremal_price, lognormal_call_value
from nexpect.cli import load_scenario, run_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = "scenarios/quick.scn"
MONTE_CARLO = ("choquet_upper", "choquet_lower", "minimax_upper", "minimax_lower", "plain")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=200, help="number of seeds to run")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / "BENCH_coverage.json"))
    args = parser.parse_args()

    base = load_scenario(str(ROOT / SCENARIO))
    model, payoff = base.build_model(), base.build_payoff()
    closed = extremal_price(payoff, model, base.horizon)
    plain = lognormal_call_value(base.s0, base.mu, base.sigma, base.horizon, base.strike)
    reference = {
        "choquet_upper": closed.upper, "minimax_upper": closed.upper,
        "choquet_lower": closed.lower, "minimax_lower": closed.lower,
        "plain": plain,
    }

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    z = {name: [] for name in MONTE_CARLO}
    start = time.perf_counter()
    for seed in seeds:
        report = run_scenario(dataclasses.replace(base, seed=seed, checks=()))
        for name in MONTE_CARLO:
            entry = report.entry(name)
            z[name].append((entry.value - reference[name]) / entry.std_error)
    elapsed = time.perf_counter() - start

    entries = {}
    print(f"{SCENARIO}: {len(seeds)} seeds, {base.n_paths} paths each, {elapsed:.0f} s")
    print(f"{'entry':<15} {'reference':>10} {'covered':>8} {'mean z':>8} {'sd z':>6}")
    for name in MONTE_CARLO:
        scores = np.array(z[name])
        covered = int(np.sum(np.abs(scores) <= 2.0))
        entries[name] = {
            "reference": reference[name],
            "covered": covered,
            "coverage": covered / scores.size,
            "mean_z": float(scores.mean()),
            "sd_z": float(scores.std(ddof=1)),
        }
        print(f"{name:<15} {reference[name]:>10.5f} {covered:>4}/{scores.size:<3} "
              f"{scores.mean():>8.3f} {scores.std(ddof=1):>6.3f}")

    result = {
        "scenario": SCENARIO,
        "seeds": [seeds.start, seeds.stop - 1],
        "n_paths": base.n_paths,
        "threshold_se": 2.0,
        "entries": entries,
        "elapsed_s": round(elapsed, 1),
        "machine": f"{platform.machine()}, Python {platform.python_version()}, "
                   f"numpy {np.__version__}",
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
