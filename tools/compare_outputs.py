"""Compare the program's outputs at a git revision with the working tree's.

    python3 tools/compare_outputs.py REF

Unpacks REF with `git archive` into a temporary directory, then runs
`python3 -m nexpect.cli --threads 1` from each tree's `src/` on every
`scenarios/*.scn` of the working tree, on `quick.scn` with `payoff = digital`
and on each benchmark workload at its default seed
(`perfbench.workloads.scenario_text`), in the csv, text and json-like
formats.  Both trees read the same scenario files, so only the program
differs.  It then runs each tree's own `demos/*.py`, with `se_coverage.py`
at 3 seeds instead of its default 200 (about 31 s).  Prints each differing
line of stdout and stderr, ignoring the `runtime:` line, the scenario path
and a demo's elapsed seconds, and exits 1 when a CSV or an exit code
differs, else 0.  For each workload run it also prints the peak RSS of
both trees' processes, read with `os.wait4` as `perfbench/run.py` reads
it; that line is information only and never sets the exit status.  The
runs are sequential; the acceptance workload alone peaks at about 0.35 GB
(0.37 GB while the package imported scipy, 0.42 GB before the increments
were streamed) and prices in about 3.3 s per run, straddle peaks at about
0.11 GB and fd_put at about 0.09 GB and prices in about 2 s (medians 3.28 s
over 5 benchmark runs and 2.04 s over 3, on a 2-core VM, Python 3.11,
numpy 2.4).
"""

from __future__ import annotations

import difflib
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("csv", "text", "json-like")
BYTES_PER_MB = 1e6


def run(tree: Path, args: list[str], mask: str) -> tuple[tuple[int, str, str], float]:
    """Exit code, stdout and stderr of `python3 ARGS` in one tree, with the
    path `mask` masked, and the process's peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, *args], cwd=tree, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        texts = []
        for stream in (out, err):
            stream.seek(0)
            texts.append(stream.read().decode().replace(mask, "<path>"))
    return (proc.returncode, *texts), usage.ru_maxrss * 1024 / BYTES_PER_MB


def comparable(stdout: str, stderr: str) -> list[str]:
    lines = [re.sub(r", \d+ s$", ", <elapsed> s", line)
             for line in stdout.splitlines() if not line.startswith("runtime:")]
    return lines + [f"stderr: {line}" for line in stderr.splitlines()]


def compare(label: str, a: tuple[int, str, str], b: tuple[int, str, str]) -> tuple[bool, bool]:
    """Print how run b differs from run a; (exit codes differ, output differs)."""
    (code_a, out_a, err_a), (code_b, out_b, err_b) = a, b
    if code_a != code_b:
        print(f"{label}: exit code {code_a} -> {code_b}")
    diff = [line for line in difflib.unified_diff(
        comparable(out_a, err_a), comparable(out_b, err_b), lineterm="", n=0)
        if not line.startswith(("---", "+++", "@@"))]
    if diff:
        print(f"{label}: {len(diff)} lines differ")
        print("\n".join(f"  {line}" for line in diff))
    elif code_a == code_b:
        print(f"{label}: identical (exit {code_b})")
    return code_a != code_b, bool(diff)


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
        quick = (ROOT / "scenarios" / "quick.scn").read_text(encoding="utf-8")
        digital = Path(tmp) / "quick_digital.scn"
        digital.write_text(re.sub(r"(?m)^payoff\s*=.*$", "payoff = digital", quick), encoding="utf-8")
        cases["quick.scn, payoff = digital"] = digital
        for name, spec in WORKLOADS.items():
            path = Path(tmp) / f"{name}.scn"
            path.write_text(scenario_text(name, spec["default_seed"]), encoding="utf-8")
            cases[f"workload {name}"] = path
        failed = False
        for name, scenario in cases.items():
            for fmt in FORMATS:
                args = ["-m", "nexpect.cli", "--scenario", str(scenario),
                        "--threads", "1", "--format", fmt]
                (ref_run, ref_rss), (run_b, rss_b) = (run(tree, args, str(scenario))
                                                      for tree in (ref, ROOT))
                codes, outputs = compare(f"{name} [{fmt}]", ref_run, run_b)
                failed |= codes or (outputs and fmt == "csv")
                if name.startswith("workload"):
                    print(f"{name} [{fmt}]: peak RSS {ref_rss:.1f} -> {rss_b:.1f} MB")
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runs = []
            for tree in (ref, ROOT):
                extra = (["--seeds", "3", "--out", str(Path(tmp) / f"coverage_{tree.name}.json")]
                         if demo.name == "se_coverage.py" else [])
                runs.append(run(tree, [f"demos/{demo.name}", *extra], str(tree))[0])
            codes, _ = compare(f"demos/{demo.name}", *runs)
            failed |= codes
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
