"""Pricing benchmark: run `price` on one workload for a fixed time and report.

    python3 perfbench/run.py --workload {acceptance,straddle,fd_put}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Load model: a closed loop with one
client.  Children run one at a time, each a fresh interpreter that imports
`nexpect.cli` from `src/` and calls `main()` on the generated scenario with
`--format csv --threads 1`; BLAS keeps its default thread count.  New
children start until `--seconds` have passed, and every run first spawns
`SETUP_PROBES` import-only children to sample set-up time.

`--trace 0` reports the end-to-end metrics (medians over the run's
children).  `--trace 1` alternates untraced and traced children and reports
the per-layer metrics of `tracer.py`.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Medians,
quartiles, sample counts, the run environment and every child's outcome
go to `perfbench/out/<workload>-s<seed>-t<trace>/result.json`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import (  # noqa: E402
    BYTES_PER_MB, DERIVED_METRICS, LAYER_METRICS, glue_share, layer_metrics, median_metrics,
)
from workloads import WORKLOADS, scenario_text  # noqa: E402

# The parent never imports nexpect, so the expected CSV rows are listed here.
ESTIMATORS = (
    "choquet_upper", "choquet_lower", "minimax_upper", "minimax_lower",
    "bsde_upper", "bsde_lower", "extremal_upper", "extremal_lower", "plain",
)
REFERENCE_RTOL = 1e-9
SETUP_PROBES = 3
END_TO_END_UNITS = {"price_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_child(work: Path, tag: str, extra: list[str]) -> dict:
    """Spawn one child, wait for it with wait4, and return its outcome."""
    result_path = work / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(result_path), *extra]
    with open(work / f"{tag}.stderr", "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = {"tag": tag, "returncode": proc.returncode,
               "peak_rss_mb": usage.ru_maxrss * 1024 / BYTES_PER_MB}
    if proc.returncode == 0 and result_path.is_file():
        outcome.update(json.loads(result_path.read_text()))
        outcome["setup_s"] = outcome.pop("ready") - spawn
    return outcome


def read_csv(path: Path) -> list[tuple[str, float]] | None:
    """(estimator, value) rows, or None when the file is not the nine-row CSV."""
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return None
    if not lines or lines[0] != "estimator,value,std_error":
        return None
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != list(ESTIMATORS) or any(len(r) != 3 for r in rows):
        return None
    try:
        return [(r[0], float(r[1])) for r in rows]
    except ValueError:
        return None


def values_match(got: list[tuple[str, float]], ref: list[tuple[str, float]]) -> str | None:
    """None when every value equals the reference within REFERENCE_RTOL (NaN equals NaN)."""
    for (name, a), (_, b) in zip(got, ref):
        if math.isnan(a) and math.isnan(b):
            continue
        if not abs(a - b) <= REFERENCE_RTOL * abs(b):
            return f"{name} = {a!r}, reference {b!r}"
    return None


def judge(child: dict, csv_path: Path, reference: Path | None) -> str | None:
    """The reason a pricing child failed, or None when it succeeded."""
    if child["returncode"] != 0 or "price_s" not in child:
        return f"child exited {child['returncode']} without a result"
    if "exception" in child:
        return "exception: " + child["exception"].strip().splitlines()[-1]
    if child["exit_code"] != 0:
        return f"price exited {child['exit_code']} (a check failed)"
    rows = read_csv(csv_path)
    if rows is None:
        return "CSV lacks the nine estimator rows"
    if reference is not None:
        child["csv_identical_to_reference"] = csv_path.read_bytes() == reference.read_bytes()
        return values_match(rows, read_csv(reference))
    return None


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def environment(probe: dict) -> dict:
    mem_kib = next(int(line.split()[1]) for line in Path("/proc/meminfo").read_text().splitlines()
                   if line.startswith("MemTotal:"))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **probe["versions"],
        "blas": probe["blas"],
        "blas_threads_env": {v: os.environ.get(v, "unset") for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "mem_total_mb": mem_kib * 1024 / BYTES_PER_MB,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")

    if not (ROOT / "src" / "nexpect" / "cli.py").is_file():
        print(f"no nexpect sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    default_seed = WORKLOADS[args.workload]["default_seed"]
    seed = default_seed if args.seed is None else args.seed
    reference = BENCH / "reference" / f"{args.workload}.csv" if seed == default_seed else None

    work = BENCH / "out" / f"{args.workload}-s{seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / "scenario.scn"
    scenario.write_text(scenario_text(args.workload, seed))

    probes = [run_child(work, f"probe-{i}", ["--probe"]) for i in range(SETUP_PROBES)]
    if any("setup_s" not in p for p in probes):
        print(f"set-up probe failed; see {work}/probe-*.stderr", file=sys.stderr)
        return 1

    children = []
    start = time.monotonic()
    while True:
        traced = args.trace == 1 and len(children) % 2 == 1
        tag = f"{'traced' if traced else 'price'}-{len(children)}"
        extra = ["--scenario", str(scenario), "--csv", str(work / f"{tag}.csv")]
        if traced:
            extra += ["--spans", str(work / f"{tag}.spans.json")]
        child = run_child(work, tag, extra)
        child["traced"] = traced
        child["failure"] = judge(child, work / f"{tag}.csv", reference)
        children.append(child)
        if time.monotonic() - start >= args.seconds and len(children) >= 1 + args.trace:
            break

    failed = [c for c in children if c["failure"]]
    for c in failed:
        print(f"{c['tag']} failed: {c['failure']}", file=sys.stderr)
    # A child whose check failed still has valid timings and spans.
    finished = [c for c in children if "price_s" in c]
    untraced = [c for c in finished if not c["traced"]]
    traced_runs = [c for c in finished if c["traced"]]
    if not untraced or (args.trace == 1 and not traced_runs):
        print(f"no child finished; see {work}/*.stderr", file=sys.stderr)
        return 1
    stats = {
        "price_s": summary([c["price_s"] for c in untraced]),
        "setup_s": summary([c["setup_s"] for c in probes + untraced]),
        "peak_rss_mb": summary([c["peak_rss_mb"] for c in untraced]),
    }
    if args.trace == 0:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        spans = [json.loads((work / f"{c['tag']}.spans.json").read_text()) for c in traced_runs]
        layers = median_metrics([layer_metrics(s) for s in spans])
        layers["trace.overhead_s"] = (statistics.median(c["price_s"] for c in traced_runs)
                                      - stats["price_s"]["median"])
        layers["trace.glue_share"] = statistics.median(glue_share(s) for s in spans)
        unit_of = {m[0]: m[1] for m in LAYER_METRICS} | dict(DERIVED_METRICS)
        metrics = {name: {"value": value, "unit": unit_of[name]} for name, value in layers.items()}

    record = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(probes[0]),
        "end_to_end": stats,
        "fail_rate": len(failed) / len(children),
        "reference_compared": reference is not None,
        "children": children,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print("env: " + json.dumps(record["environment"]))
    for name, s in stats.items():
        print(f"{name}: median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} n {s['n']}")
    print(f"fail_rate: {len(failed)}/{len(children)}")
    if reference is not None:
        same = [c.get("csv_identical_to_reference") for c in children]
        print(f"csv byte-identical to reference: {same}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
