"""Self-test of the benchmark harness; runs in seconds.

    python3 perfbench/selftest.py

Run from the root of a full checkout.  It checks that:

- the generated `acceptance` and `straddle` scenarios parse to the same
  `Scenario` fields as the shipped files, apart from the seed;
- `BENCHMARK.json` names exactly the metrics that `run.py` and
  `tracer.py` emit;
- a traced run of each workload, shrunk by `TINY_OVERRIDES` and driven by
  the same `child.py` (in process, so the package can be inspected
  afterwards), emits every per-layer metric, gives non-negative self times
  that sum to the root span, and leaves every wrapped function restored.

Exits 0 when all hold and 1 with the failed assertions listed otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
from tracer import DERIVED_METRICS, LAYER_METRICS, ROOT_SPAN, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, scenario_text  # noqa: E402

import nexpect.choquet  # noqa: E402
import nexpect.cli  # noqa: E402

OTHER_SEED = 12345
# Shrinks any workload so that the whole traced pipeline runs in seconds.
TINY_OVERRIDES = {"n_paths": "4000", "nodes": "101", "time_steps": "200"}


def namespace_snapshot() -> dict:
    """Identity of every value the tracer could replace."""
    snap = {}
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "nexpect" or name.startswith("nexpect.")):
            snap.update({(name, attr): id(v) for attr, v in vars(module).items()})
    snap[("Capacity", "evaluate")] = id(nexpect.choquet.Capacity.evaluate)
    snap.update({("CHECK_REGISTRY", k): id(v) for k, v in nexpect.cli.CHECK_REGISTRY.items()})
    return snap


def main() -> int:
    errors: list[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            errors.append(message)

    work = BENCH / "out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    for workload in ("acceptance", "straddle"):
        path = work / f"{workload}.scn"
        path.write_text(scenario_text(workload, OTHER_SEED))
        shipped = nexpect.cli.load_scenario(str(ROOT / "scenarios" / f"{workload}.scn"))
        generated = nexpect.cli.load_scenario(str(path))
        expect(generated == dataclasses.replace(shipped, seed=OTHER_SEED),
               f"{workload}: generated scenario differs from scenarios/{workload}.scn")
        expect(WORKLOADS[workload]["default_seed"] == shipped.seed,
               f"{workload}: default seed differs from scenarios/{workload}.scn")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = [m[0] for m in LAYER_METRICS] + [m[0] for m in DERIVED_METRICS]
    expect([m["name"] for m in spec["per_layer"]] == layer_names,
           "BENCHMARK.json per_layer differs from tracer.py")
    expect([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS),
           "BENCHMARK.json end_to_end differs from run.py")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")

    for workload in WORKLOADS:
        scenario = work / f"{workload}-tiny.scn"
        scenario.write_text(scenario_text(workload, OTHER_SEED, TINY_OVERRIDES))
        before = namespace_snapshot()
        child.main(["--result", str(work / f"{workload}.json"),
                    "--scenario", str(scenario), "--csv", str(work / f"{workload}.csv"),
                    "--spans", str(work / f"{workload}.spans.json")])
        expect(namespace_snapshot() == before, f"{workload}: a wrapped function was not restored")
        result = json.loads((work / f"{workload}.json").read_text())
        expect("exception" not in result, f"{workload}: {result.get('exception')}")
        spans = json.loads((work / f"{workload}.spans.json").read_text())
        metrics = layer_metrics(spans)
        expect(list(metrics) == [m[0] for m in LAYER_METRICS],
               f"{workload}: emitted metrics differ from LAYER_METRICS")
        selfs = self_times(spans)
        expect(min(selfs) >= -1e-9, f"{workload}: negative self time {min(selfs)}")
        roots = [s for s in spans if s["parent"] is None]
        expect([s["name"] for s in roots] == [ROOT_SPAN], f"{workload}: roots {roots}")
        root_s = roots[0]["end"] - roots[0]["start"]
        expect(abs(sum(selfs) - root_s) <= 1e-9 * max(1.0, root_s),
               f"{workload}: self times sum to {sum(selfs)}, root span {root_s}")
        expect(len({s["name"] for s in spans}) > 10, f"{workload}: too few span names")
        print(f"{workload}: {len(spans)} spans, root {root_s:.3f} s, "
              f"price exit {result.get('exit_code')}")

    for message in errors:
        print(f"FAIL: {message}", file=sys.stderr)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
