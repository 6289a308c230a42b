"""Replay a table of mutations, one at a time, against the tests that should catch them.

    python3 tools/mutants.py [--tests PATH]... [NAME]...

Each row of MUTANTS is (name, file, old, new, tests).  For each row in turn
the tool copies the working tree (`git ls-files`: tracked files and
untracked ones that are not ignored) into a temporary directory, replaces
the one occurrence of `old` in `file` with `new`, and runs
`python3 -m pytest -q -p no:cacheprovider TESTS` there.  It prints one line
per row, with pytest's counts:

- killed: pytest reports a failing test (exit 1);
- survived: every test passes (exit 0);
- stale: `old` does not occur exactly once in `file`, so the row no longer
  describes the code and must be rewritten with it;
- error: pytest could not run the tests (any other exit), for example a
  test id that no longer exists.

NAME arguments run only the rows of those names.  `--tests PATH`, which
may be repeated, runs each row against the given paths instead of its own,
for example `--tests tests` for the full tier-1 suite (about a minute per row on a 2-core VM).  Exits
0 when every row run is killed, else 1.  Rows run in sequence, one pytest
process at a time.  The tool runs pytest in subprocesses, so it is not
part of tier-1; run it when a change moves the code a row mutates.
tests/test_mutants.py checks in tier-1, without running any row, that
every row's snippet occurs once and every test it names exists.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI = "src/nexpect/cli.py"
CLI_TESTS = "tests/test_cli.py"
BSDE = "src/nexpect/bsde.py"
BSDE_TESTS = "tests/test_bsde.py"

# (name, file, old snippet, new snippet, tests that should fail)
MUTANTS = (
    # The verdict of each check, mutated to pass more than it should.
    ("martingale limit 4 -> 40", CLI,
     "MARTINGALE_LIMIT = 4.0", "MARTINGALE_LIMIT = 40.0",
     (f"{CLI_TESTS}::test_martingale_verdict_at_its_limit",
      f"{CLI_TESTS}::test_weight_moments_are_reduced_once")),
    ("chain rel 0.01 -> 0.5", CLI,
     "CHAIN_REL = 0.01", "CHAIN_REL = 0.5",
     (f"{CLI_TESTS}::test_chain_verdict_at_its_relative_limit",)),
    ("duality tolerance 1e-10 -> 1e-4 of the scale", CLI,
     "tol = DUALITY_REL * scale", "tol = 1e-4 * scale",
     (f"{CLI_TESTS}::test_duality_verdict_at_its_tolerance",)),
    ("submodularity tolerance x 10", CLI,
     "tol = 3.0 / math.sqrt(sub_values.size)", "tol = 30.0 / math.sqrt(sub_values.size)",
     (f"{CLI_TESTS}::test_submodularity_verdict_at_its_limit",)),
    ("comparison tolerance x 100", CLI,
     "upper.value, _tolerance(ctx.entries, lower, upper, grid=True)",
     "upper.value, 100 * _tolerance(ctx.entries, lower, upper, grid=True)",
     (f"{CLI_TESTS}::test_comparison_verdict_at_its_tolerance",
      f"{CLI_TESTS}::test_comparison_verdict_is_the_old_comparison")),
    ("normalization always passes", CLI,
     "[(g, detail) for g in gaps]", "[(0.0, detail) for g in gaps]",
     (f"{CLI_TESTS}::test_normalization_verdict_is_exact",)),
    ("attainment ok = True", CLI,
     'return _judge("attainment", [(boundary, detail)] + [(excess, detail) for excess in steps])',
     'return CheckOutcome("attainment", "pass", detail)',
     (f"{CLI_TESTS}::test_attainment_verdict_fails_on_a_hump_declared_increasing",)),
    ("attainment step ignores the payoff's direction", CLI,
     "-3.0 * se - sign * step", "-3.0 * se - step",
     (f"{CLI_TESTS}::test_attainment_verdict_fails_on_a_hump_declared_increasing",
      f"{CLI_TESTS}::test_attainment_verdict_is_the_old_comparison")),
    ("holder ok = True", CLI,
     "[(-rep.tolerance - rep.margin, detail) for rep in reports]",
     "[(-1.0, detail) for rep in reports]",
     (f"{CLI_TESTS}::test_holder_verdict_at_its_tolerance",
      f"{CLI_TESTS}::test_holder_verdict_fails_on_an_envelope_that_is_not_2_alternating")),
    ("l2bound always passes", CLI,
     "(upper.value - (bound + tol),", "(-1.0,",
     (f"{CLI_TESTS}::test_l2bound_verdict_at_its_limit",)),
    ("zsign increasing side always passes", CLI,
     "(-report.threshold - sign * report.extreme, detail)",
     "(-report.threshold - sign * report.extreme if sign < 0.0 else -1.0, detail)",
     (f"{CLI_TESTS}::test_z_sign_verdict_at_its_slack",)),
    ("zsign decreasing side always passes", CLI,
     "(-report.threshold - sign * report.extreme, detail)",
     "(-report.threshold - sign * report.extreme if sign > 0.0 else -1.0, detail)",
     (f"{CLI_TESTS}::test_z_sign_verdict_at_its_slack",)),
    ("sandwich collects no failure", CLI,
     "return -slack - tol, f", "return min(-slack - tol, 0.0), f",
     (f"{CLI_TESTS}::test_sandwich_verdict_at_its_fd_tolerance",
      f"{CLI_TESTS}::test_sandwich_tolerates_extremal_monte_carlo_error")),
    ("degeneracy always passes", CLI,
     'return _judge("degeneracy", relations)', 'return CheckOutcome("degeneracy", "pass", "")',
     (f"{CLI_TESTS}::test_degeneracy_verdict_at_its_limits",
      f"{CLI_TESTS}::test_degeneracy_honest_failure_at_positive_k")),
    # The judge and the tolerances it is handed.
    ("judge passes an excess below 1", CLI,
     "    if excess <= 0.0:\n", "    if excess <= 1.0:\n",
     (f"{CLI_TESTS}::test_judge_names_the_worst_relation_and_fails_on_nan",)),
    ("judge lets NaN lose to a number", CLI,
     "key=lambda r: math.inf if math.isnan(r[0]) else r[0]", "key=lambda r: r[0]",
     (f"{CLI_TESTS}::test_judge_names_the_worst_relation_and_fails_on_nan",)),
    ("FD slack 0.005 -> 0.05", CLI,
     "FD_REL = 0.005", "FD_REL = 0.05",
     (f"{CLI_TESTS}::test_sandwich_verdict_at_its_fd_tolerance",
      f"{CLI_TESTS}::test_degeneracy_verdict_at_its_limits",
      f"{CLI_TESTS}::test_comparison_verdict_at_its_tolerance")),
    ("chain digital FD rel 0.03 -> 0.01", CLI,
     "CHAIN_DIGITAL_FD_REL = 0.03", "CHAIN_DIGITAL_FD_REL = 0.01",
     (f"{CLI_TESTS}::test_chain_verdict_at_its_relative_limit",)),
    ("degeneracy exact tolerance 1e-9 -> 1e-6", CLI,
     "1e-9 * scale", "1e-6 * scale",
     (f"{CLI_TESTS}::test_degeneracy_verdict_at_its_limits",)),
    # The one rule for a relation between two estimates.
    ("rule drops the FD term from a relation of an FD and another entry", CLI,
     'if grid and "bsde" in a.name + b.name:', 'if grid and "bsde" in a.name and "bsde" in b.name:',
     (f"{CLI_TESTS}::test_sandwich_verdict_at_its_fd_tolerance",
      f"{CLI_TESTS}::test_sandwich_tolerates_extremal_monte_carlo_error",
      f"{CLI_TESTS}::test_sandwich_verdict_is_the_old_comparison")),
    ("rule takes the FD scale from the relation's own FD entry", CLI,
     'abs(entries[n].value) for n in ("bsde_upper", "bsde_lower")',
     'abs(e.value) for e in (a, b) if "bsde" in e.name',
     (f"{CLI_TESTS}::test_sandwich_verdict_is_the_old_comparison",)),
    ("attainment boundary on the unpaired tolerance", "src/nexpect/minimax.py",
     "paired_se(weights.column(hi), weights.column(end))", "math.hypot(ses[hi], ses[end])",
     ("tests/test_minimax.py::test_attainment_boundary_uses_the_paired_error",)),
    ("attainment boundary allowance of the pooled SEs", CLI,
     "- 3.0 * report.boundary_std_error", "- pooled_tolerance(report.std_errors[[hi, end]])",
     (f"{CLI_TESTS}::test_attainment_verdict_is_the_old_comparison",)),
    # Library code behind the checks.
    ("lower Choquet sweep takes the argmax", "src/nexpect/choquet.py",
     'tails.argmax(axis=1) if capacity.orientation == "upper" else tails.argmin(axis=1)',
     "tails.argmax(axis=1)",
     ("tests/test_choquet.py",)),
    ("Choquet sweep drops its smallest value", "src/nexpect/choquet.py",
     "float(self.values[self.order[0]]) + integral for integral in integrals",
     "integral for integral in integrals",
     ("tests/test_choquet.py",)),
    ("integral keeps only the last block's dot", "src/nexpect/choquet.py",
     "integrals[s] += float(block_gaps @ curve[:g])",
     "integrals[s] = float(block_gaps @ curve[:g])",
     ("tests/test_choquet.py::test_sorted_prefix_engine_is_bitwise_dense",
      "tests/test_choquet.py::test_joint_estimates_match_dense_references")),
    ("_ndtr without its reflection", "src/nexpect/minimax.py",
     "return 1.0 - y if x > 0.0 else y", "return y",
     ("tests/test_minimax.py",)),
    ("negated bang-bang member reads +L", "src/nexpect/paths.py",
     "(-1, (-theta).tobytes())", "(1, (-theta).tobytes())",
     ("tests/test_measures.py",)),
    # The fused FD stencil and the z extreme it streams.
    ("|z| term uses d, not |d|", BSDE,
     "np.abs(d[part], out=term[part])", "np.positive(d[part], out=term[part])",
     (f"{BSDE_TESTS}::test_fd_abs_upper_put",
      f"{BSDE_TESTS}::test_fd_march_is_bitwise_the_allocating_march")),
    ("b_dn = a + b", BSDE,
     "np.subtract(a_mid, b_dn, out=b_dn)", "np.add(a_mid, b_dn, out=b_dn)",
     (f"{BSDE_TESTS}::test_fd_linear_driver_matches_shifted_drift",
      f"{BSDE_TESTS}::test_fd_march_is_bitwise_the_allocating_march")),
    ("z extreme left in d units (no sv / (2 dx) map)", BSDE,
     "track = sv_level * (track / two_dx)", "track = track",
     (f"{BSDE_TESTS}::test_streamed_z_extreme_is_bitwise_surface_extreme",)),
    ("z divides the level above's d", BSDE,
     "        np.subtract(up, dn, out=d)\n"
     "        if store_surfaces or recompute_z:\n"
     "            z_row(sv_level, cur[0])\n",
     "        if store_surfaces or recompute_z:\n"
     "            z_row(sv_level, cur[0])\n"
     "        np.subtract(up, dn, out=d)\n",
     (f"{BSDE_TESTS}::test_fd_march_is_bitwise_the_allocating_march",)),
    ("march buffers lose their page padding", BSDE,
     "stride = -(-width // per_page) * per_page", "stride = width",
     (f"{BSDE_TESTS}::test_march_buffers_are_page_aligned_rows_of_one_block",)),
    # The weights rebuilt on demand, and the reductions that must match their totals.
    ("density rows drop the shift", "src/nexpect/measures.py",
     "        out -= self.shift\n", "",
     ("tests/test_measures.py::test_density_rows_are_the_weight_matrix_bitwise",)),
    ("density validation checks only the first block", "src/nexpect/measures.py",
     "if not (rows.min() > 0.0 and rows.max() < np.inf):",
     "if index.start == 0 and not (rows.min() > 0.0 and rows.max() < np.inf):",
     ("tests/test_measures.py::test_density_rows_check_every_block",)),
    ("martingale means from a pass of their own, not the totals", CLI,
     "moments = (Spread(weights.shape, None, weights.totals / n)",
     "moments = (Spread(weights.shape, None, weights.sums(np.ones(n)) / n)",
     (f"{CLI_TESTS}::test_weight_moments_are_reduced_once",)),
    ("rows other than DensityRows reduced by one whole-matrix product", "src/nexpect/measures.py",
     "        buffer = np.empty((min(n, ROW_BLOCK), m))\n",
     "        buffer = np.empty((min(n, ROW_BLOCK), m))\n"
     "        if not isinstance(self, DensityRows):\n"
     "            yield slice(0, n), self.dense()\n"
     "            return\n",
     ("tests/test_measures.py::test_stored_and_rebuilt_weights_reduce_alike",)),
    ("spread skips subtracting the mean", "src/nexpect/measures.py",
     "            squares -= self.means\n", "",
     ("tests/test_measures.py::test_blocked_weight_passes_are_bitwise_dense",)),
    ("normalization reduces its full event by one matrix product", CLI,
     "sums = (ctx.empty_sums, ctx.weights.totals)",
     "sums = (ctx.empty_sums, np.ones(ctx.weights.shape[0]) @ ctx.weights.dense())",
     (f"{CLI_TESTS}::test_normalization_verdict_is_exact",)),
    # Rows rebuilt for every consumer, and the passes they share.
    ("head totals reduced over all n rows", "src/nexpect/measures.py",
     "        head.shape = (m, self.shape[1])\n",
     "        head.shape, head.totals = (m, self.shape[1]), self.totals\n",
     ("tests/test_measures.py::test_stored_and_rebuilt_weights_reduce_alike",)),
    ("event stack reduced by one stacked (k, B) @ rows product", "src/nexpect/measures.py",
     "        for total, x in zip(self.totals, self.stack):\n"
     "            total += x[index] @ rows\n",
     "        self.totals += self.stack[:, index] @ rows\n",
     ("tests/test_measures.py::test_capacity_weighs_a_stack_of_events_as_each_alone",)),
    ("fused martingale spread subtracts the payoff's means", CLI,
     "moments = (Spread(weights.shape, None, weights.totals / n)",
     "moments = (Spread(weights.shape, None, means)",
     (f"{CLI_TESTS}::test_weight_moments_are_reduced_once",)),
    ("B term taken with the other capacity's scale", "src/nexpect/choquet.py",
     "for out, scale in zip(self.influences, self.scales):",
     "for out, scale in zip(self.influences, self.scales[::-1]):",
     ("tests/test_choquet.py::test_joint_estimates_match_dense_references",)),
    # One entry point to the sorted sweep, and the natural pass it shares.
    ("choquet_estimates drops the reductions it was handed", "src/nexpect/choquet.py",
     "weights.reduce(influences, *reductions)", "weights.reduce(influences)",
     (f"{CLI_TESTS}::test_weight_moments_are_reduced_once",
      "tests/test_measures.py::test_estimates_serve_the_reductions_they_are_handed")),
    # One weight type, checked by every consumer.
    ("expectation_profile takes a bare matrix", "src/nexpect/measures.py",
     "    _require_rows(weights)\n    x = np.asarray(payoff_values, dtype=float)\n",
     "    x = np.asarray(payoff_values, dtype=float)\n",
     ("tests/test_measures.py::test_weight_consumers_reject_a_bare_matrix",)),
    ("weight_matrix rebuilds its rows in a second pass", "src/nexpect/measures.py",
     "    DensityRows(family, bundle, fill)\n    return out\n",
     "    return DensityRows(family, bundle).dense()\n",
     ("tests/test_measures.py::test_weight_matrix_rebuilds_each_block_once",)),
    ("attainment profiles duplicate tilts", "src/nexpect/minimax.py",
     "np.unique(np.linspace(-k, k, ATTAINMENT_GRID))", "np.linspace(-k, k, ATTAINMENT_GRID)",
     ("tests/test_minimax.py::test_attainment_at_zero_k_profiles_one_tilt",
      f"{CLI_TESTS}::test_degenerate_scenario_passes_attainment_off_its_seed")),
)


def copy_tree(dest: Path) -> None:
    """The working tree's tracked and unignored files, copied under dest."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def replay(row: tuple, tests: tuple[str, ...]) -> tuple[str, str]:
    """The row's outcome (killed, survived, stale or error) and the last
    line pytest printed, its counts."""
    _, file, old, new, _ = row
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        path = tree / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "stale", f"{text.count(old)} matches in {file}"
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=tree, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True)
    counts = (proc.stdout.strip().splitlines() or [""])[-1]
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error"), counts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only the rows of these names")
    parser.add_argument("--tests", action="append", metavar="PATH",
                        help="a test path to run for every row instead of its own (repeatable)")
    args = parser.parse_args(argv)
    known = {row[0] for row in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown rows: {', '.join(unknown)}")
    rows = [row for row in MUTANTS if not args.names or row[0] in args.names]
    outcomes = []
    for row in rows:
        start = time.perf_counter()
        outcome, counts = replay(row, tuple(args.tests or row[4]))
        outcomes.append(outcome)
        print(f"{outcome:<9} {time.perf_counter() - start:6.1f} s  {row[0]}  ({counts})", flush=True)
    print(", ".join(f"{outcomes.count(o)} {o}" for o in ("killed", "survived", "stale", "error")))
    return 0 if all(o == "killed" for o in outcomes) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
