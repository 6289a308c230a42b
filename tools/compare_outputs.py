"""Compare the program's outputs at a git revision with the working tree's.

    python3 tools/compare_outputs.py REF

Unpacks REF with `git archive` into a temporary directory, then runs
`python3 -m nexpect.cli --threads 1` from each tree's `src/` on every
`scenarios/*.scn` of the working tree and on each benchmark workload at its
default seed (`perfbench.workloads.scenario_text`), in the csv, text and
json-like formats.  Both trees read the same scenario files, so only the
program differs.  Prints each differing line of stdout and stderr, ignoring
the `runtime:` line and the scenario path, and exits 1 when a CSV or an
exit code differs, else 0.  The runs are sequential; the acceptance workload
alone peaks at about 0.47 GB and prices in about 5 s per run (median 5.09 s
over 10 benchmark runs on a 2-core VM, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("csv", "text", "json-like")


def run(tree: Path, scenario: Path, fmt: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one run, the scenario path masked."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "nexpect.cli", "--scenario", str(scenario),
         "--threads", "1", "--format", fmt],
        cwd=tree, env=env, capture_output=True, text=True)
    path = str(scenario)
    return done.returncode, done.stdout.replace(path, "<scenario>"), done.stderr.replace(path, "<scenario>")


def comparable(stdout: str, stderr: str) -> list[str]:
    lines = [line for line in stdout.splitlines() if not line.startswith("runtime:")]
    return lines + [f"stderr: {line}" for line in stderr.splitlines()]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/compare_outputs.py REF", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, scenario_text

    archive = subprocess.run(["git", "archive", "--format=tar", argv[0]], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        ref = Path(tmp) / "ref"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(ref, filter="data")
        cases = {path.name: path for path in sorted((ROOT / "scenarios").glob("*.scn"))}
        for name, spec in WORKLOADS.items():
            path = Path(tmp) / f"{name}.scn"
            path.write_text(scenario_text(name, spec["default_seed"]), encoding="utf-8")
            cases[f"workload {name}"] = path
        failed = False
        for name, scenario in cases.items():
            for fmt in FORMATS:
                (code_a, out_a, err_a), (code_b, out_b, err_b) = (
                    run(tree, scenario, fmt) for tree in (ref, ROOT))
                label = f"{name} [{fmt}]"
                if code_a != code_b:
                    print(f"{label}: exit code {code_a} -> {code_b}")
                    failed = True
                diff = [line for line in difflib.unified_diff(
                    comparable(out_a, err_a), comparable(out_b, err_b), lineterm="", n=0)
                    if not line.startswith(("---", "+++", "@@"))]
                if diff:
                    print(f"{label}: {len(diff)} lines differ")
                    print("\n".join(f"  {line}" for line in diff))
                    failed |= fmt == "csv"
                else:
                    print(f"{label}: identical (exit {code_b})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
