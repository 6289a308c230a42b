"""Compare the program's outputs at a git revision with the working tree's.

    python3 tools/compare_outputs.py REF

Unpacks REF with `git archive` into a temporary directory, then runs
`python3 -m nexpect.cli --threads 1` from each tree's `src/` on every
`scenarios/*.scn` of the working tree, on `quick.scn` with `payoff = digital`,
on each benchmark workload at its default seed
(`perfbench.workloads.scenario_text`), on the fd_put workload at seed 3
with `payoff = digital` (whose `sandwich` verdict rests on the sampled
extremal band's standard errors), and on the two FALSE_ALARMS, valid
scenarios on which a check fails (so a failing relation's detail line, and
a `sandwich` tolerance, are compared), in the csv, text and json-like
formats.  Both trees read the same scenario files, so only the program
differs.  It then runs each tree's own `demos/*.py`, with `se_coverage.py`
at 3 seeds instead of its default 200 (about 31 s).  Prints each differing
line of stdout and stderr, ignoring the `runtime:` line, the scenario path
and a demo's elapsed seconds, and exits 1 when a CSV or an exit code
differs, else 0.  For each workload run it also prints the peak RSS of
both trees' processes, read with `os.wait4` as `perfbench/run.py` reads
it, with the relative change, marked when it is a rise above the
benchmark's bound (BENCHMARK.json's `peak_rss_mb`, 5%).  First it prints
the line count of each tree's `src/` Python files
(`src/ lines: 3176 -> 3139`) and the count of those lines that hold code,
without docstrings, comments and blank lines.  The RSS and line figures
are information only and never set the exit status.  The runs are sequential.  The acceptance workload
peaks at about 121 MB (154 MB while the weights copied the statistics and
the sweep kept its gaps and tail curves; 0.35 GB while the weight matrix
was stored), straddle at about 61 MB and fd_put at about 54 MB (120.5, 60.9
and 53.7 MB in one comparison, against 153.6, 70.0 and 54.2 MB before;
162, 94 and 78 MB while the checks' subsample was made dense);
acceptance prices in about 1.8 s per run, straddle in about 0.7 s and fd_put
in about 1.1 s (benchmark medians over 10 runs each; 2-core VM, Python 3.11,
numpy 2.4).
"""

from __future__ import annotations

import ast
import difflib
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("csv", "text", "json-like")
BYTES_PER_MB = 1e6

# Valid scenarios that exit 1 on a false alarm of the checks' fixed
# allowances (ROADMAP item 16).  The first fails `degeneracy` on a
# digital's FD grid bias, 0.472085 against a plain price of 0.4597 at
# tol 0.0106, where `chain` allows the same pair 0.0142.  The second fails
# `sandwich` on rounding alone: no path reaches the put's strike, so every
# Monte Carlo entry is 0 with an SE of 0, and the closed-form
# extremal_lower of 1.1e-119 sits above minimax_lower at tol 0.
_MARKET = """s0 = 100
mu = 0.0
sigma = 0.2
horizon = 1.0
n_paths = 20000
steps = 4
seed = 5
nodes = 201
time_steps = 500
"""
FALSE_ALARMS = {
    "k = 0 digital, degeneracy and chain":
        _MARKET + "k = 0\npayoff = digital\nstrike = 100\nchecks = degeneracy, chain\n",
    "put at strike 1, sandwich":
        _MARKET + "k = 0.1\npayoff = put\nstrike = 1\nchecks = sandwich\n",
}


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


def src_lines(tree: Path) -> int:
    """Lines of the Python files under a tree's `src/`, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def code_lines(tree: Path) -> int:
    """Lines of a tree's `src/` Python files that hold code: no blank line,
    no line with only a comment and no line of a docstring."""
    count = 0
    for path in (tree / "src").rglob("*.py"):
        source = path.read_text(encoding="utf-8")
        lines = {line for token in tokenize.generate_tokens(io.StringIO(source).readline)
                 if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                                       tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
                 for line in range(token.start[0], token.end[0] + 1)}
        for node in ast.walk(ast.parse(source)):
            body = getattr(node, "body", None)
            if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines -= set(range(body[0].lineno, body[0].end_lineno + 1))
        count += len(lines)
    return count


def rss_rise_bound() -> float:
    """The benchmark's bound on a relative rise in peak RSS
    (BENCHMARK.json, end-to-end metric `peak_rss_mb`)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    [bound] = [m["bound"] for m in spec["end_to_end"] if m["name"] == "peak_rss_mb"]
    return float(bound)


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
    rss_bound = rss_rise_bound()

    archive = subprocess.run(["git", "archive", "--format=tar", argv[0]], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        ref = Path(tmp) / "ref"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(ref, filter="data")
        print(f"src/ lines: {src_lines(ref)} -> {src_lines(ROOT)}")
        print(f"src/ code lines, without docstrings, comments and blank lines: "
              f"{code_lines(ref)} -> {code_lines(ROOT)}")
        cases = {path.name: path for path in sorted((ROOT / "scenarios").glob("*.scn"))}
        quick = (ROOT / "scenarios" / "quick.scn").read_text(encoding="utf-8")
        digital = Path(tmp) / "quick_digital.scn"
        digital.write_text(re.sub(r"(?m)^payoff\s*=.*$", "payoff = digital", quick), encoding="utf-8")
        cases["quick.scn, payoff = digital"] = digital
        for name, spec in WORKLOADS.items():
            path = Path(tmp) / f"{name}.scn"
            path.write_text(scenario_text(name, spec["default_seed"]), encoding="utf-8")
            cases[f"workload {name}"] = path
        path = Path(tmp) / "fd_put_digital.scn"
        path.write_text(scenario_text("fd_put", 3, {"payoff": "digital"}), encoding="utf-8")
        cases["workload fd_put, seed 3, payoff = digital"] = path
        for i, (name, text) in enumerate(FALSE_ALARMS.items()):
            path = Path(tmp) / f"false_alarm_{i}.scn"
            path.write_text(text, encoding="utf-8")
            cases[f"false alarm: {name}"] = path
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
                    change = rss_b / ref_rss - 1.0
                    mark = f"  RISE above the {rss_bound:.0%} bound" if change > rss_bound else ""
                    print(f"{name} [{fmt}]: peak RSS {ref_rss:.1f} -> {rss_b:.1f} MB "
                          f"({change:+.1%}){mark}")
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
