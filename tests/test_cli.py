"""Scenario parsing, pipeline reports, output formats, and exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nexpect import Capacity, Payoff, ScenarioError, default_control_family, expectation_profile
from nexpect.cli import (
    ESTIMATOR_ORDER,
    EXIT_BAD_SCENARIO,
    EXIT_CHECK_FAILED,
    EXIT_GRID_REJECTED,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    KNOWN_CHECKS,
    emit,
    emit_csv,
    emit_structured,
    emit_text,
    load_scenario,
    main,
    parse_payoff_expression,
    run_scenario,
)
from tests.conftest import StoredRows, profile_band, stored_weights

BASE = """\
s0 = 100
mu = 0.0
sigma = 0.2
horizon = 1.0
k = 0.1
payoff = call
strike = 100
n_paths = 20000
steps = 4
seed = 31
nodes = 101
time_steps = 200
theta_grid = 11
"""


def write_scn(tmp_path, body, name="case.scn"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# payoff expressions
# ---------------------------------------------------------------------------

def test_expression_arithmetic_and_broadcast():
    fn = parse_payoff_expression("max(s - 100, 0)")
    s = np.array([80.0, 100.0, 130.0])
    assert np.array_equal(fn(s), [0.0, 0.0, 30.0])
    const = parse_payoff_expression("2.5")
    assert np.array_equal(const(s), [2.5, 2.5, 2.5])
    combo = parse_payoff_expression("min(max(s - 90, 0), 20) / 2 + 1")
    assert np.array_equal(combo(s), [1.0, 6.0, 11.0])
    neg = parse_payoff_expression("-(s - 100)")
    assert np.array_equal(neg(s), [20.0, 0.0, -30.0])


def test_expression_rejects_disallowed_syntax():
    for bad in (
        "s ** 2",          # power not allowed
        "abs(s)",          # only max/min calls
        "max(s)",          # needs >= 2 arguments
        "t + 1",           # unknown symbol
        "s > 100",         # comparisons
        "'x'",             # non-numeric constant
        "True",            # boolean constant
        "max(s, key=1)",   # keywords
        "s +",             # syntax error
        "__import__('os')",
    ):
        with pytest.raises(ScenarioError):
            parse_payoff_expression(bad)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def test_load_scenario_roundtrip(tmp_path):
    body = BASE + "fd_substep = true\nchecks = chain, sandwich\n# trailing comment\n"
    scn = load_scenario(write_scn(tmp_path, body))
    assert scn.s0 == 100.0 and scn.k == 0.1
    assert scn.payoff_kind == "call" and scn.strike == 100.0
    assert scn.n_paths == 20000 and scn.steps == 4 and scn.seed == 31
    assert scn.nodes == 101 and scn.time_steps == 200
    assert scn.theta_grid == 11
    assert scn.fd_substep is True
    assert scn.checks == ("chain", "sandwich")


def test_load_scenario_defaults(tmp_path):
    minimal = "\n".join(BASE.splitlines()[:10])  # required keys only
    scn = load_scenario(write_scn(tmp_path, minimal))
    assert scn.nodes == 801 and scn.time_steps == 2000
    assert scn.theta_grid == 21
    assert scn.fd_substep is True and scn.checks == ()


def test_load_scenario_overrides(tmp_path):
    scn = load_scenario(write_scn(tmp_path, BASE),
                        overrides={"seed": 77, "n_paths": 5000, "steps": None})
    assert scn.seed == 77 and scn.n_paths == 5000
    assert scn.steps == 4  # None overrides are ignored


def test_load_scenario_line_numbered_errors(tmp_path):
    with pytest.raises(ScenarioError, match="line 2") as err:
        load_scenario(write_scn(tmp_path, "s0 = 100\nwhat = 3\n"))
    assert err.value.line == 2

    with pytest.raises(ScenarioError, match="duplicate"):
        load_scenario(write_scn(tmp_path, BASE + "s0 = 50\n"))
    with pytest.raises(ScenarioError, match="key = value"):
        load_scenario(write_scn(tmp_path, "s0\n"))
    with pytest.raises(ScenarioError, match="must be a number"):
        load_scenario(write_scn(tmp_path, BASE.replace("sigma = 0.2", "sigma = big")))
    with pytest.raises(ScenarioError, match="must be an integer"):
        load_scenario(write_scn(tmp_path, BASE.replace("seed = 31", "seed = 3.5")))
    with pytest.raises(ScenarioError, match="true or false"):
        load_scenario(write_scn(tmp_path, BASE + "fd_substep = maybe\n"))
    with pytest.raises(ScenarioError, match="unknown check"):
        load_scenario(write_scn(tmp_path, BASE + "checks = chain, wat\n"))
    # quantile_levels is no longer a key: a file that sets it fails closed.
    with pytest.raises(ScenarioError, match="line 14: unknown key 'quantile_levels'"):
        load_scenario(write_scn(tmp_path, BASE + "quantile_levels = 513\n"))
    with pytest.raises(ScenarioError, match="missing required"):
        load_scenario(write_scn(tmp_path, "s0 = 100\n"))
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(str(tmp_path / "absent.scn"))


def test_load_scenario_range_validation(tmp_path):
    cases = [
        ("s0 = 100", "s0 = -5", "s0 must be positive"),
        ("horizon = 1.0", "horizon = 0", "horizon must be positive"),
        ("k = 0.1", "k = -0.1", "k must be >= 0"),
        ("n_paths = 20000", "n_paths = 0", "n_paths must be >= 2"),
        ("strike = 100", "strike = -1", "strike must be positive"),
        ("sigma = 0.2", "sigma = 0", "sigma must be > 0"),
        ("time_steps = 200", "time_steps = 0", r"time_steps must be in \[1, 1000000\]"),
        ("time_steps = 200", "time_steps = 1000001",
         r"time_steps must be in \[1, 1000000\] \(bsde.MAX_TIME_STEPS\), got 1000001"),
    ]
    for old, new, msg in cases:
        with pytest.raises(ScenarioError, match=msg):
            load_scenario(write_scn(tmp_path, BASE.replace(old, new)))


def test_load_scenario_payoff_validation(tmp_path):
    with pytest.raises(ScenarioError, match="requires a strike"):
        load_scenario(write_scn(tmp_path, BASE.replace("strike = 100\n", "")))
    with pytest.raises(ScenarioError, match="requires an expr"):
        load_scenario(write_scn(
            tmp_path, BASE.replace("payoff = call", "payoff = custom").replace("strike = 100\n", "")))
    with pytest.raises(ScenarioError, match="payoff expression"):
        load_scenario(write_scn(
            tmp_path,
            BASE.replace("payoff = call", "payoff = custom").replace("strike = 100", "expr = s **")))
    with pytest.raises(ScenarioError, match="payoff must be"):
        load_scenario(write_scn(tmp_path, BASE.replace("payoff = call", "payoff = warrant")))


# One fault each: (replacements in BASE, a line appended to it, the exact
# message).  A row whose replacements are None is its appended text alone.
LOADER_MESSAGES = {
    "not-a-key-value-line": (None, "s0", "line 1: expected key = value, got 's0'"),
    "unknown-key": ({}, "wat = 1", "line 14: unknown key 'wat'"),
    "duplicate-key": ({}, "s0 = 50", "line 14: duplicate key 's0'"),
    "empty-value": ({}, "checks =", "line 14: empty value for 'checks'"),
    "missing-required-key": ({"n_paths = 20000\n": ""}, "",
                             "missing required key 'n_paths' in {path}"),
    "number": ({"sigma = 0.2": "sigma = big"}, "", "line 3: sigma must be a number, got 'big'"),
    "finite": ({"mu = 0.0": "mu = inf"}, "", "line 2: mu must be finite, got 'inf'"),
    "integer": ({"seed = 31": "seed = 3.5"}, "", "line 10: seed must be an integer, got '3.5'"),
    "true-or-false": ({}, "fd_substep = maybe",
                      "line 14: fd_substep must be true or false, got 'maybe'"),
    "payoff-choice": ({"payoff = call": "payoff = warrant"}, "",
                      "line 6: payoff must be call/put/digital/custom, got 'warrant'"),
    "monotonicity-choice": ({}, "monotonicity = up",
                            "line 14: monotonicity must be increasing/decreasing/none, got 'up'"),
    "checks-without-a-name": ({}, "checks = ,,", "line 14: checks names no check, got ',,'"),
    "unknown-check": ({}, "checks = chain, wat",
                      "line 14: unknown check 'wat'; known: chain, degeneracy, duality, sandwich, "
                      "normalization, martingale, zsign, comparison, attainment, submodularity, "
                      "l2bound, holder"),
    "s0-range": ({"s0 = 100": "s0 = -5"}, "", "s0 must be positive, got -5.0"),
    "sigma-range": ({"sigma = 0.2": "sigma = 0"}, "", "sigma must be > 0, got 0.0"),
    "horizon-range": ({"horizon = 1.0": "horizon = 0"}, "", "horizon must be positive, got 0.0"),
    "k-range": ({"k = 0.1": "k = -0.1"}, "", "k must be >= 0, got -0.1"),
    "n_paths-range": ({"n_paths = 20000": "n_paths = 1"}, "", "n_paths must be >= 2, got 1"),
    "steps-range": ({"steps = 4": "steps = 0"}, "", "steps must be >= 1, got 0"),
    "nodes-range": ({"nodes = 101": "nodes = 4"}, "", "nodes must be >= 5, got 4"),
    "time_steps-low": ({"time_steps = 200": "time_steps = 0"}, "",
                       "time_steps must be in [1, 1000000] (bsde.MAX_TIME_STEPS), got 0"),
    "time_steps-high": ({"time_steps = 200": "time_steps = 1000001"}, "",
                        "time_steps must be in [1, 1000000] (bsde.MAX_TIME_STEPS), got 1000001"),
    "theta_grid-range": ({"theta_grid = 11": "theta_grid = 1"}, "",
                         "theta_grid must be >= 2, got 1"),
    "strike-range": ({"strike = 100": "strike = -1"}, "", "strike must be positive, got -1.0"),
    "strike-missing": ({"strike = 100\n": ""}, "", "payoff call requires a strike"),
    "s0-over-strike": ({"s0 = 100": "s0 = 1e-300", "strike = 100": "strike = 1e150"}, "",
                       "s0 / strike underflows to 0 in float64 (s0 = 1e-300, strike = 1e+150)"),
    "expr-missing": ({"payoff = call": "payoff = custom", "strike = 100\n": ""}, "",
                     "custom payoff requires an expr"),
    "expr-disallowed": ({"payoff = call": "payoff = custom", "strike = 100": "expr = s ** 2"}, "",
                        "disallowed syntax BinOp in payoff expression"),
    "expr-on-built-in": ({}, "expr = s", "line 14: expr applies to payoff custom only, not call"),
    "monotonicity-contradicts": ({}, "monotonicity = decreasing",
                                 "line 14: monotonicity decreasing contradicts payoff call, "
                                 "which is increasing"),
    "strike-on-custom": ({"payoff = call": "payoff = custom"}, "expr = max(s - 90, 0)",
                         "line 7: strike applies to payoff call/put/digital only, not custom"),
}


@pytest.mark.parametrize("edits, extra, message", LOADER_MESSAGES.values(),
                         ids=LOADER_MESSAGES.keys())
def test_load_scenario_exact_messages(tmp_path, edits, extra, message):
    body = extra + "\n"
    if edits is not None:
        body = BASE
        for old, new in edits.items():
            body = body.replace(old, new)
        body += extra + "\n" if extra else ""
    path = write_scn(tmp_path, body)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert str(err.value) == message.format(path=path)


# ---------------------------------------------------------------------------
# pipeline reports
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    path = write_scn(tmp_path_factory.mktemp("scn"),
                     BASE + "checks = chain, sandwich, normalization, martingale, duality\n")
    return run_scenario(load_scenario(path), scenario_path=path)


def test_report_shape(small_report):
    assert [e.name for e in small_report.entries] == list(ESTIMATOR_ORDER)
    d = small_report.discrepancy
    assert d.shape == (9, 9)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert {c.name for c in small_report.checks} == {
        "chain", "sandwich", "normalization", "martingale", "duality"}
    assert small_report.failed_checks == []
    meta = small_report.metadata
    assert meta["seed"] == 31 and meta["n_paths"] == 20000
    assert meta["time_steps_used"] >= meta["time_steps_requested"] == 200
    assert meta["family_size"] == 19  # 11 constants + 8 bang-bang


def test_report_entry_lookup(small_report):
    assert small_report.entry("plain").name == "plain"
    with pytest.raises(KeyError):
        small_report.entry("delta")


def test_degeneracy_honest_failure_at_positive_k(tmp_path, capsys):
    path = write_scn(tmp_path, BASE + "checks = degeneracy\n")
    code = main(["--scenario", path])
    assert code == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert "check failed: degeneracy" in err
    assert "degeneracy expected only at k = 0" in err


def test_degeneracy_passes_at_zero_k(tmp_path, capsys):
    body = BASE.replace("k = 0.1", "k = 0.0") + "checks = degeneracy, chain\n"
    path = write_scn(tmp_path, body)
    code = main(["--scenario", path])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "degeneracy      pass" in out


def test_zero_k_exact_collapse(tmp_path):
    body = BASE.replace("k = 0.1", "k = 0.0")
    report = run_scenario(load_scenario(write_scn(tmp_path, body)))
    plain = report.entry("plain").value
    for name in ("choquet_upper", "choquet_lower", "minimax_upper", "minimax_lower"):
        assert report.entry(name).value == plain  # bitwise, shared randomness


def test_digital_scenario_flags_solver_note(tmp_path):
    body = BASE.replace("payoff = call", "payoff = digital")
    report = run_scenario(load_scenario(write_scn(tmp_path, body)))
    assert "discontinuous" in report.entry("bsde_upper").note
    assert report.entry("extremal_upper").note == "reweighting"
    assert report.entry("extremal_upper").std_error > 0.0
    assert 0.0 < report.entry("plain").value < 1.0


def test_custom_non_monotone_scenario(tmp_path):
    body = (BASE.replace("payoff = call", "payoff = custom")
                .replace("strike = 100", "expr = max(s - 100, 100 - s)")
            + "checks = chain, sandwich, zsign, attainment\n")
    report = run_scenario(load_scenario(write_scn(tmp_path, body)))
    assert math.isnan(report.entry("extremal_upper").value)
    assert "not applicable" in report.entry("extremal_upper").note
    by_name = {c.name: c for c in report.checks}
    assert by_name["chain"].status == "not_applicable"
    assert by_name["zsign"].status == "not_applicable"
    assert by_name["attainment"].status == "not_applicable"
    assert by_name["sandwich"].status == "pass"
    # upper Choquet dominates upper minimax strictly for this claim
    gap = report.entry("choquet_upper").value - report.entry("minimax_upper").value
    assert gap > 0.0


def test_declared_monotonicity_is_spot_checked(tmp_path):
    body = (BASE.replace("payoff = call", "payoff = custom")
                .replace("strike = 100", "expr = 100 - s")
            + "monotonicity = increasing\n")
    with pytest.raises(ScenarioError, match="increasing"):
        run_scenario(load_scenario(write_scn(tmp_path, body)))


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def test_emit_text_sections(small_report):
    text = emit_text(small_report)
    assert "estimator" in text and "pairwise absolute differences" in text
    assert "checks" in text
    assert "runtime:" in text


def test_emit_text_omits_empty_checks(tmp_path):
    report = run_scenario(load_scenario(write_scn(tmp_path, BASE)))
    text = emit_text(report)
    assert "checks" not in text.splitlines()
    payload = json.loads(emit_structured(report))
    assert payload["checks"] == []


def test_emit_csv_schema(small_report):
    csv = emit_csv(small_report)
    lines = csv.strip().split("\n")
    assert lines[0] == "estimator,value,std_error"
    assert len(lines) == 10
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == list(ESTIMATOR_ORDER)
    value = float(lines[1].split(",")[1])
    assert value == pytest.approx(small_report.entry("choquet_upper").value, rel=1e-11)


def test_emit_structured_parses_and_excludes_runtime(small_report):
    payload = json.loads(emit_structured(small_report))
    assert payload["scenario"]["s0"] == 100.0
    assert len(payload["estimators"]) == 9
    assert len(payload["discrepancy"]) == 9
    assert "runtime_seconds" not in payload["metadata"]
    assert {c["name"] for c in payload["checks"]} == {
        "chain", "sandwich", "normalization", "martingale", "duality"}


def test_emit_structured_nan_becomes_null(tmp_path):
    body = (BASE.replace("payoff = call", "payoff = custom")
                .replace("strike = 100", "expr = max(s - 100, 100 - s)"))
    report = run_scenario(load_scenario(write_scn(tmp_path, body)))
    payload = json.loads(emit_structured(report))
    ext = [e for e in payload["estimators"] if e["name"] == "extremal_upper"][0]
    assert ext["value"] is None


def test_emit_unknown_format(small_report):
    with pytest.raises(ValueError, match="unknown format"):
        emit(small_report, "yaml")


def test_emit_deterministic_across_reruns_and_threads(tmp_path):
    path = write_scn(tmp_path, BASE)
    scn = load_scenario(path)
    a = emit_csv(run_scenario(scn, scenario_path=path, threads=1))
    b = emit_csv(run_scenario(scn, scenario_path=path, threads=1))
    c = emit_csv(run_scenario(scn, scenario_path=path, threads=2))
    assert a == b == c


# ---------------------------------------------------------------------------
# entry point and exit codes
# ---------------------------------------------------------------------------

def test_main_writes_out_file(tmp_path, capsys):
    path = write_scn(tmp_path, BASE)
    out = tmp_path / "report.csv"
    code = main(["--scenario", path, "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "estimator,value,std_error" and len(lines) == 10


def test_main_overrides_change_results(tmp_path, capsys):
    path = write_scn(tmp_path, BASE)
    assert main(["--scenario", path, "--format", "csv"]) == EXIT_OK
    base_out = capsys.readouterr().out
    assert main(["--scenario", path, "--format", "csv", "--seed", "77"]) == EXIT_OK
    seeded = capsys.readouterr().out
    assert base_out != seeded
    assert main(["--scenario", path, "--format", "csv", "--paths", "10000"]) == EXIT_OK
    fewer = capsys.readouterr().out
    assert base_out != fewer


def test_main_extra_checks_flag(tmp_path, capsys):
    path = write_scn(tmp_path, BASE)
    code = main(["--scenario", path, "--check", "normalization", "--check", "martingale"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "normalization   pass" in out and "martingale      pass" in out


def test_main_bad_scenario_exit_code(tmp_path, capsys):
    path = write_scn(tmp_path, BASE + "wat = 1\n")
    assert main(["--scenario", path]) == EXIT_BAD_SCENARIO
    assert "scenario error" in capsys.readouterr().err


def test_main_unknown_check_exit_code(tmp_path, capsys):
    path = write_scn(tmp_path, BASE)
    assert main(["--scenario", path, "--check", "wat"]) == EXIT_BAD_SCENARIO
    assert "unknown check" in capsys.readouterr().err


def test_main_rejects_keys_a_built_in_payoff_ignores(tmp_path, capsys):
    # A built-in payoff is priced from its own formula in its own direction,
    # so an expr or a contradicting monotonicity would be echoed, not priced.
    put = BASE.replace("payoff = call", "payoff = put")
    for base, extra, msg in (
            (BASE, "monotonicity = decreasing", "contradicts payoff call, which is increasing"),
            (put, "monotonicity = increasing", "contradicts payoff put, which is decreasing"),
            (BASE, "expr = 1 / (s - s)", "expr applies to payoff custom only, not call")):
        path = write_scn(tmp_path, base + extra + "\n")
        assert main(["--scenario", path]) == EXIT_BAD_SCENARIO
        err = capsys.readouterr().err
        assert "line 14: " in err and msg in err, err
    for extra in ("monotonicity = increasing", "monotonicity = none"):
        scn = load_scenario(write_scn(tmp_path, BASE + extra + "\n"))
        assert scn.monotonicity == extra.split(" = ")[1]


def test_main_rejects_strike_on_custom_payoff(tmp_path, capsys):
    # A custom payoff is priced from its expr alone, so a strike would be
    # echoed in the report without being priced.
    body = BASE.replace("payoff = call", "payoff = custom") + "expr = max(s - 90, 0)\n"
    assert main(["--scenario", write_scn(tmp_path, body)]) == EXIT_BAD_SCENARIO
    captured = capsys.readouterr()
    assert captured.err == ("scenario error: line 7: strike applies to payoff "
                            "call/put/digital only, not custom\n")
    assert captured.out == ""


def test_main_runs_a_repeated_check_once(tmp_path, capsys):
    # The file's checks and --check make one list, each name once, in the
    # order first named.  degeneracy fails at k > 0, so it reaches stderr.
    path = write_scn(tmp_path, BASE + "checks = degeneracy, martingale, degeneracy\n")
    argv = ["--scenario", path, "--check", "martingale", "--check", "degeneracy"]
    assert main(argv) == EXIT_CHECK_FAILED
    text = capsys.readouterr()
    checks = text.out.split("\nchecks\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert [line.split()[0] for line in checks] == ["degeneracy", "martingale"]
    assert text.err.count("check failed: ") == 1 and text.err.startswith("check failed: degeneracy:")
    assert main([*argv, "--format", "json-like"]) == EXIT_CHECK_FAILED
    structured = capsys.readouterr()
    assert [c["name"] for c in json.loads(structured.out)["checks"]] == ["degeneracy", "martingale"]
    assert structured.err == text.err


def test_main_bad_threads_exit_code(tmp_path, capsys):
    path = write_scn(tmp_path, BASE)
    assert main(["--scenario", path, "--threads", "0"]) == EXIT_BAD_SCENARIO
    capsys.readouterr()


def test_main_grid_rejection_exit_code(tmp_path, capsys):
    body = BASE.replace("nodes = 101", "nodes = 801").replace(
        "time_steps = 200", "time_steps = 50") + "fd_substep = false\n"
    path = write_scn(tmp_path, body)
    assert main(["--scenario", path]) == EXIT_GRID_REJECTED
    err = capsys.readouterr().err
    assert "grid rejected" in err and "time steps" in err


def test_main_internal_error_exit_4_without_traceback(tmp_path, monkeypatch, capsys):
    from nexpect import cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_scenario", broken)
    assert main(["--scenario", write_scn(tmp_path, BASE)]) == EXIT_INTERNAL_ERROR
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError('boom')\n"
    assert captured.out == ""


def test_main_unwritable_out_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "report.csv"
    code = main(["--scenario", write_scn(tmp_path, BASE), "--format", "csv", "--out", str(out)])
    assert code == EXIT_BAD_SCENARIO
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write --out file:") and str(out) in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_main_negative_seed_runs_without_traceback(tmp_path):
    # The auxiliary streams of the duality and submodularity checks are
    # derived from the seed, so both see a negative value.
    path = write_scn(tmp_path, BASE + "checks = duality, submodularity, holder\n")
    proc = subprocess.run(
        [sys.executable, "-m", "nexpect.cli", "--scenario", path, "--format", "csv",
         "--seed", "-5"],
        capture_output=True, text=True,
    )
    assert proc.returncode in (EXIT_OK, EXIT_CHECK_FAILED), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith("estimator,value,std_error\n")


@pytest.mark.parametrize("args, body", [
    (["--paths", "1"], BASE),
    ([], BASE.replace("payoff = call", "payoff = custom").replace(
        "strike = 100\n", "expr = 1/(s-s)\n")),
    ([], BASE.replace("sigma = 0.2", "sigma = 0")),
    ([], BASE.replace("sigma = 0.2", "sigma = 1e-8").replace("mu = 0.0", "mu = 0.05")),
    ([], BASE.replace("time_steps = 200", "time_steps = 100000000")),
], ids=["one-path", "non-finite-payoff", "zero-sigma", "tiny-sigma", "huge-time-steps"])
def test_main_bad_inputs_exit_2_without_traceback(tmp_path, args, body):
    path = write_scn(tmp_path, body)
    proc = subprocess.run(
        [sys.executable, "-m", "nexpect.cli", "--scenario", path, "--format", "csv", *args],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_BAD_SCENARIO, proc.stderr
    assert "scenario error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_main_prices_a_grid_whose_rows_jump_by_more_than_float64(tmp_path, capsys):
    # The payoff is about 5e302 at the top of the grid and 0 at its bottom
    # and on every path.  The march puts the drivers' rows end to end, where
    # that jump over dx * dx (dx = 6e-4) would leave float64; the values
    # themselves do not.
    body = BASE.replace("s0 = 100", "s0 = 1").replace("sigma = 0.2", "sigma = 0.05").replace(
        "payoff = call", "payoff = custom\nmonotonicity = increasing").replace(
        "strike = 100\n", "expr = 1e304 * max(s - 1.3, 0)\n").replace("nodes = 101", "nodes = 1001")
    path = write_scn(tmp_path, body + "checks = comparison, zsign\n", name="steep.scn")
    assert main(["--scenario", path, "--format", "csv", "--paths", "2000"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "bsde_upper,1.36098402027e+295,0\n" in captured.out and captured.err == ""


def test_cli_draws_the_path_stream_once(tmp_path, monkeypatch):
    # One pass over the Philox stream keeps S_T, B_T and each bang-bang
    # pattern's functional; the weights, the subsample and every check read
    # those, so nothing draws the stream again.
    from nexpect import paths
    draws = []
    real = paths._increment_blocks

    def counting(bundle):
        draws.append((bundle.n_paths, bundle.grid.steps))
        return real(bundle)

    monkeypatch.setattr(paths, "_increment_blocks", counting)
    checks = ", ".join(name for name in KNOWN_CHECKS if name != "degeneracy")
    path = write_scn(tmp_path, BASE + f"checks = {checks}\n")
    assert main(["--scenario", path, "--threads", "2"]) == EXIT_OK
    assert draws == [(20000, 4)]


def test_run_scenario_peak_does_not_grow_with_the_family(tmp_path):
    # numpy reports its allocations to tracemalloc.  The weights are rebuilt
    # block by block, never stored: the run keeps a fixed number of columns
    # of n (S_T, B_T, the five statistics the weights are made from, the
    # payoff, the Choquet sort, gaps, tail curves and influences, about
    # seventeen at the peak) and a few blocks of ROW_BLOCK rows by C.  A
    # stored matrix would add C columns: 30 more from 19 controls to 49.
    from nexpect.paths import ROW_BLOCK
    n = 200_000
    body = BASE.replace("n_paths = 20000", f"n_paths = {n}").replace("steps = 4", "steps = 8")
    peaks = {}
    for grid in (11, 41):
        scenario = load_scenario(write_scn(tmp_path, body.replace("theta_grid = 11",
                                                                  f"theta_grid = {grid}")))
        tracemalloc.start()
        try:
            report = run_scenario(scenario)
            peaks[report.metadata["family_size"]] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    block = 8 * ROW_BLOCK * 8  # eight row blocks' bytes per control
    for size, peak in peaks.items():
        assert peak < 18 * 8 * n + block * size, (size, peak / (8 * n))
    (small, low), (large, high) = sorted(peaks.items())
    assert (small, large) == (19, 49)
    assert high - low < block * (large - small), (low / (8 * n), high / (8 * n))


def test_main_exits_2_when_the_densities_leave_float64(tmp_path, capsys):
    # At k = 40 the densities of the largest tilts, exp(+-40 B_T - 800), underflow to 0.
    from pathlib import Path
    quick = (Path(__file__).resolve().parents[1] / "scenarios" / "quick.scn").read_text()
    path = write_scn(tmp_path, re.sub(r"(?m)^k\s*=.*$", "k = 40", quick))
    assert main(["--scenario", path]) == EXIT_BAD_SCENARIO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("scenario error: density weights must be finite and strictly "
                            "positive: k or the horizon is too large\n")


def test_run_scenario_rejects_unbounded_fd_steps(tmp_path, monkeypatch):
    from nexpect import cli
    from nexpect.bsde import MAX_TIME_STEPS, minimal_time_steps

    body = BASE.replace("sigma = 0.2", "sigma = 1e-8").replace("mu = 0.0", "mu = 0.05")
    scn = load_scenario(write_scn(tmp_path, body))
    need = minimal_time_steps(scn.build_model(), scn.horizon, scn.nodes, lipschitz_z=scn.k)
    assert need > MAX_TIME_STEPS

    def no_paths(*args, **kwargs):
        raise AssertionError("paths drawn before the step bound was checked")

    monkeypatch.setattr(cli, "generate_brownian", no_paths)
    with pytest.raises(ScenarioError, match=str(need)):
        run_scenario(scn)


def no_paths(*args, **kwargs):
    raise AssertionError("paths drawn before the FD solve")


def test_run_scenario_rejects_a_coarse_grid_before_the_draw(tmp_path, monkeypatch):
    from nexpect import cli
    from nexpect.errors import GridTooCoarseError

    body = BASE.replace("nodes = 101", "nodes = 801").replace(
        "time_steps = 200", "time_steps = 50") + "fd_substep = false\n"
    monkeypatch.setattr(cli, "generate_brownian", no_paths)
    with pytest.raises(GridTooCoarseError, match="minimal admissible time_steps"):
        run_scenario(load_scenario(write_scn(tmp_path, body)))


def test_payoff_non_finite_on_the_fd_nodes_is_a_scenario_error(tmp_path, monkeypatch, capsys):
    # The grid spans 6 SDs of log(s0), about 30 to 332 here, so the payoff is
    # infinite on its top nodes; it was an internal error when the solve ran
    # after the draw.
    from nexpect import cli
    body = BASE.replace("payoff = call\nstrike = 100\n", "payoff = custom\nexpr = 1/max(300 - s, 0)\n")
    path = write_scn(tmp_path, body)
    monkeypatch.setattr(cli, "generate_brownian", no_paths)
    assert main(["--scenario", path]) == EXIT_BAD_SCENARIO
    assert capsys.readouterr().err == (
        "scenario error: payoff 'custom(1/max(300 - s, 0))' produced non-finite values\n")


@pytest.mark.parametrize("extra", [(), ("zsign",)], ids=["no-zsign", "zsign"])
def test_cli_solves_store_no_surfaces(tmp_path, monkeypatch, extra):
    # One march serves every driver: upper and lower, plus the three linear
    # drivers when `comparison` is requested.
    from nexpect import cli
    solves = []
    real = cli.solve_fd

    def spy(model, payoff, generator, *args, **kwargs):
        solution = real(model, payoff, generator, *args, **kwargs)
        solves.append((len(generator),
                       solution.value_surface is None and solution.z_surface is None))
        return solution

    monkeypatch.setattr(cli, "solve_fd", spy)
    scn = load_scenario(write_scn(tmp_path, BASE + "checks = comparison\n"))
    report = run_scenario(scn, extra_checks=extra)
    assert solves == [(5, True)]
    assert all(c.status == "pass" for c in report.checks)
    assert [c.name for c in report.checks] == ["comparison", *extra]
    solves.clear()
    report = run_scenario(load_scenario(write_scn(tmp_path, BASE + "checks = chain\n")),
                          extra_checks=extra)
    assert solves == [(2, True)]
    assert [c.name for c in report.checks] == ["chain", *extra]


def test_cli_import_loads_no_scipy_and_no_thread_pool():
    # The package runs on numpy and the standard library: importing scipy
    # would cost a third of a second and 20 MB per run, and the package has
    # no thread pool (concurrent.futures pulls in logging as well).
    code = ("import sys, nexpect.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_degenerate_scenario_passes_attainment_off_its_seed(capsys):
    # At k = 0 the attainment profile is one tilt, so no rounding between
    # copies of theta = 0 can fail the check.
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "scenarios" / "degenerate.scn"
    assert main(["--scenario", str(path), "--paths", "20000", "--seed", "1"]) == EXIT_OK
    assert "attainment" in capsys.readouterr().out


def test_reweighted_extremal_band_is_read_from_the_minimax_profile(tmp_path, monkeypatch):
    # A digital has no closed form: its extremal band is the minimax profile's
    # +k and -k entries, bitwise minimax_expectation's on the family's
    # weight matrix, and the pipeline calls no extremal_price.
    from pathlib import Path

    from nexpect import cli, extremal_price
    quick = (Path(__file__).resolve().parents[1] / "scenarios" / "quick.scn").read_text()
    scn = load_scenario(write_scn(tmp_path, re.sub(r"(?m)^payoff\s*=.*$", "payoff = digital", quick)))
    bundles, calls = [], []
    real_simulate = cli.simulate_sde

    def keep_bundle(*args, **kwargs):
        bundles.append(real_simulate(*args, **kwargs))
        return bundles[-1]

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return extremal_price(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_sde", keep_bundle)
    monkeypatch.setattr(cli, "extremal_price", spy)
    report = run_scenario(scn)
    assert calls == []
    payoff, family = scn.build_payoff(), default_control_family(scn.k, scn.theta_grid)
    _, band = profile_band(payoff.monotonicity, payoff.map(bundles[0].terminal()), family,
                           stored_weights(family, bundles[0]))
    upper, lower = report.entry("extremal_upper"), report.entry("extremal_lower")
    assert (upper.value, upper.std_error, upper.note) == (band.upper, band.upper_se, "reweighting")
    assert (lower.value, lower.std_error, lower.note) == (band.lower, band.lower_se, "reweighting")


def test_holder_run_sorts_each_distinct_array_once(tmp_path, monkeypatch):
    # The reported Choquet pair shares one sort.  The holder check's nine
    # integrals are of five distinct arrays: pairs 0 and 1 share Y, and in
    # pair 2 (X = Y) |XY|, |X|^2 and |Y|^2 coincide.
    from nexpect import choquet
    sorts = []

    class CountingSample(choquet._SortedSample):
        def __init__(self, values, weights):
            sorts.append(values.size)
            super().__init__(values, weights)

    monkeypatch.setattr(choquet, "_SortedSample", CountingSample)
    report = run_scenario(load_scenario(write_scn(tmp_path, BASE + "checks = holder\n")))
    assert [c.status for c in report.checks] == ["pass"]
    assert len(sorts) == 1 + 5


def test_holder_run_on_a_straddle_sorts_three_arrays(tmp_path, monkeypatch):
    # A straddle at s0 is X = |S_T - s0|, the second pair's X too: |XY|,
    # |X|^2 and |Y|^2 are the three distinct integrands of all three pairs.
    from nexpect import choquet
    sorts = []

    class CountingSample(choquet._SortedSample):
        def __init__(self, values, weights):
            sorts.append(values.size)
            super().__init__(values, weights)

    monkeypatch.setattr(choquet, "_SortedSample", CountingSample)
    body = BASE.replace("payoff = call\nstrike = 100\n",
                        "payoff = custom\nexpr = max(s - 100, 100 - s)\n")
    report = run_scenario(load_scenario(write_scn(tmp_path, body + "checks = holder\n")))
    assert [c.status for c in report.checks] == ["pass"]
    assert len(sorts) == 1 + 3


def test_holder_check_reports_equal_single_pair_checks(tmp_path, monkeypatch):
    from nexpect import cli
    from nexpect.choquet import choquet_holder_check
    calls = []
    real = cli.choquet_holder_checks

    def spy(pairs, capacity, **kwargs):
        reports = real(pairs, capacity, **kwargs)
        calls.append((pairs, capacity, kwargs, reports))
        return reports

    monkeypatch.setattr(cli, "choquet_holder_checks", spy)
    report = run_scenario(load_scenario(write_scn(tmp_path, BASE + "checks = holder\n")))
    [(pairs, capacity, kwargs, reports)] = calls
    assert len(reports) == 3
    assert reports == [choquet_holder_check(x, y, capacity, **kwargs) for x, y in pairs]
    # The detail names every pair's margin and tolerance.
    assert report.checks[0].detail == "; ".join(
        f"pair {i}: margin {r.margin:.3g} (tol {r.tolerance:.3g})" for i, r in enumerate(reports))


# ---------------------------------------------------------------------------
# the duality and martingale checks; the stages the benchmark traces
# ---------------------------------------------------------------------------

DUALITY_PAYOFFS = {
    "call": "payoff = call\nstrike = {strike!r}\n",
    "put": "payoff = put\nstrike = {strike!r}\n",
    "digital": "payoff = digital\nstrike = {strike!r}\n",
    "straddle": "payoff = custom\nexpr = max(s - {strike!r}, {strike!r} - s)\n",
}


def duality_outcome(tmp_path, payoff="call", strike=100.0, k=0.1, n=3000, seed=31):
    """The duality check's outcome on a small scenario, and the Choquet gap
    and tolerance and the capacity gap it reports."""
    body = (BASE.replace("payoff = call\nstrike = 100\n", DUALITY_PAYOFFS[payoff].format(strike=strike))
                .replace("k = 0.1", f"k = {k!r}").replace("seed = 31", f"seed = {seed}")
                .replace("nodes = 101", "nodes = 21") + "checks = duality\n")
    scn = load_scenario(write_scn(tmp_path, body), {"n_paths": n})
    [outcome] = run_scenario(scn).checks
    match = re.fullmatch(r"\|choquet lower\(X\) \+ upper\(-X\)\| = (\S+) \(tol (\S+)\) "
                         rf"on {n} paths; max capacity conjugacy gap = (\S+) over 20 events",
                         outcome.detail)
    assert match, outcome.detail
    return outcome, *map(float, match.groups())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32), strike=st.floats(70.0, 140.0),
       k=st.just(0.0) | st.floats(0.01, 0.5), n=st.integers(2, 4000),
       payoff=st.sampled_from(sorted(DUALITY_PAYOFFS)))
@example(seed=31, strike=100.0, k=0.0, n=3000, payoff="call")
@example(seed=31, strike=100.0, k=0.1, n=4000, payoff="straddle")
def test_duality_check_passes(tmp_path, seed, strike, k, n, payoff):
    outcome, gap, tol, cap_gap = duality_outcome(tmp_path, payoff, strike, k, n, seed)
    assert outcome.status == "pass", outcome.detail
    assert gap <= tol and cap_gap <= 1e-10


def mutate_lower_sweeps(monkeypatch, mutation):
    """Make every one-capacity Choquet sweep the pipeline runs, the duality
    check's, take the lower capacity as `mutation` changes it.  The run's
    own pair, and Capacity.evaluate, so the capacity half of the duality
    check, are left alone."""
    from nexpect import cli
    real = cli.choquet_estimates

    def mutated(values, capacities, *reductions):
        if len(capacities) == 1:
            capacities = [mutation(c) if c.orientation == "lower" else c for c in capacities]
        return real(values, capacities, *reductions)

    monkeypatch.setattr(cli, "choquet_estimates", mutated)


@pytest.mark.parametrize("mutation", [
    # The sweep reads the orientation only to take the argmax or the argmin.
    lambda c: replace(c, orientation="upper"),
    # Tails divided by the path count, a plain mean's normaliser: the same
    # rows, held with those totals.
    lambda c: Capacity(c.orientation, StoredRows(c.weights.dense(),
                                                 np.full_like(c.totals, c.n_paths))),
], ids=["argmax-on-the-lower-side", "tail-normalised-by-the-wrong-total"])
def test_duality_fails_on_a_mutated_lower_sweep(tmp_path, monkeypatch, mutation):
    mutate_lower_sweeps(monkeypatch, mutation)
    outcome, gap, tol, cap_gap = duality_outcome(tmp_path)
    assert outcome.status == "fail"
    assert gap > tol and cap_gap <= 1e-10


def test_weight_moments_are_reduced_once(tmp_path, monkeypatch):
    # Three full passes over the run's own rows serve every reduction of
    # the run: building them (the check of every weight, the totals, the
    # payoff's sums for minimax and the empty event's for normalization),
    # the Choquet sweep in sorted order, and one natural pass for the
    # influences' last term, minimax's spread and the martingale spread.
    # The checks' subsample has rows of its own, counted apart: for duality
    # its totals, two integrals (a sweep and a natural pass each) and one
    # pass per side for the 20 capacity events.
    from nexpect import choquet, cli, measures
    passes, contexts = [], []
    real_blocks, real_sweep = measures.DensityRows.blocks, choquet._SortedSample._running_sums
    real_check = cli.CHECK_REGISTRY["duality"]

    def natural(rows):
        passes.append(("natural", rows))
        return real_blocks(rows)

    def in_order(sample):
        passes.append(("sorted", sample.weights))
        return real_sweep(sample)

    def kept(ctx):
        contexts.append(ctx)
        return real_check(ctx)

    monkeypatch.setattr(measures.DensityRows, "blocks", natural)
    monkeypatch.setattr(choquet._SortedSample, "_running_sums", in_order)
    monkeypatch.setitem(cli.CHECK_REGISTRY, "duality", kept)
    for checks in ("duality", "martingale, normalization, duality"):
        passes.clear()
        scn = load_scenario(write_scn(tmp_path, BASE + f"checks = {checks}\n"))
        report = run_scenario(scn)
        ctx = contexts[-1]
        head = ctx.sub_capacities[0].weights
        assert [kind for kind, rows in passes if rows is ctx.weights] == [
            "natural", "sorted", "natural"], checks
        assert [kind for kind, rows in passes if rows is head] == [
            "natural", "sorted", "natural", "sorted", "natural", "natural", "natural"], checks
        assert all(rows is ctx.weights or rows is head for _, rows in passes)
        assert ctx.weights.shape[0] == scn.n_paths and head.shape[0] == scn.n_paths
        # B_T is kept once: the bundle reads it from the rows' statistics.
        assert np.shares_memory(ctx.bundle.brownian_terminal, ctx.weights.stats)
    assert [c.status for c in report.checks] == ["pass"] * 3
    # The moments the martingale check judged are the dense ones: the
    # totals over n, and the spread from a pass of its own.
    dense = ctx.weights.dense()
    means, ses = dense.mean(axis=0), dense.std(axis=0, ddof=1) / math.sqrt(scn.n_paths)
    pulls = cli.martingale_pulls(means, ses)
    worst = int(pulls.argmax())
    assert report.checks[0] == cli.CheckOutcome(
        "martingale", "pass",
        f"max |mean - 1| = {pulls[worst]:.2f} SE at {ctx.family[worst].label()} (limit 4)")
    for moment, alone in zip(ctx.moments, expectation_profile(np.ones(scn.n_paths), ctx.weights)):
        assert np.array_equal(moment.view(np.int64), alone.view(np.int64))


def kept_run(tmp_path, monkeypatch, checks="duality"):
    """The bundle simulate_sde returned and the RunContext of one run."""
    from nexpect import cli
    bundles, contexts = [], []
    real_simulate, real_check = cli.simulate_sde, cli.CHECK_REGISTRY["duality"]
    monkeypatch.setattr(cli, "simulate_sde",
                        lambda *args: bundles.append(real_simulate(*args)) or bundles[-1])
    monkeypatch.setitem(cli.CHECK_REGISTRY, "duality",
                        lambda ctx: contexts.append(ctx) or real_check(ctx))
    run_scenario(load_scenario(write_scn(tmp_path, BASE + f"checks = {checks}\n")))
    [bundle], [ctx] = bundles, contexts
    return bundle, ctx


def test_run_weights_adopt_the_simulated_statistics(tmp_path, monkeypatch):
    # The simulation writes B_T and the functionals as one matrix, and the
    # run's weights read that matrix itself: nothing stacks a copy.
    stacked = []
    real_stack = np.column_stack
    monkeypatch.setattr(np, "column_stack", lambda *a: stacked.append(1) or real_stack(*a))
    bundle, ctx = kept_run(tmp_path, monkeypatch, "duality, attainment, holder")
    assert ctx.weights.stats is bundle.stats
    assert np.shares_memory(ctx.weights.stats, bundle.brownian_terminal)
    assert all(np.shares_memory(ctx.weights.stats, f) for f in bundle.functionals.values())
    assert bundle.stats.shape == (bundle.n_paths, 5)
    assert stacked == []


def test_run_context_keeps_only_the_checks_states(tmp_path, monkeypatch):
    # After the payoff map, the checks' first paths are all that is kept
    # of S_T and `valid`, as copies, so the run's n-vectors can go.
    from nexpect import cli
    from nexpect.paths import ROW_BLOCK
    m = ROW_BLOCK + 17
    monkeypatch.setattr(cli, "CHECK_SUBSAMPLE", m)
    bundle, ctx = kept_run(tmp_path, monkeypatch)
    assert bundle.n_paths == 20000 and ctx.bundle.n_paths == m
    for name in ("states", "valid"):
        kept = getattr(ctx.bundle, name)
        assert kept.shape == (m,) and kept.base is None, name
        assert np.array_equal(kept, getattr(bundle, name)[:m]), name
    assert ctx.values.size == 20000 and ctx.weights.shape[0] == 20000
    assert np.shares_memory(ctx.bundle.brownian_terminal, ctx.weights.stats)


def test_pipeline_fills_no_dense_weights(tmp_path, monkeypatch):
    # Every consumer reads rows rebuilt from B_T and the functionals: a
    # run with every check makes no weight matrix, of the run or of any
    # check's subsample.
    from nexpect import measures
    made = []
    real_dense, real_matrix = measures._Rows.dense, measures.weight_matrix

    def dense(*args, **kwargs):
        made.append("dense")
        return real_dense(*args, **kwargs)

    def matrix(*args, **kwargs):
        made.append("weight_matrix")
        return real_matrix(*args, **kwargs)

    monkeypatch.setattr(measures._Rows, "dense", dense)
    for name, module in list(sys.modules.items()):
        if name.startswith("nexpect") and getattr(module, "weight_matrix", None) is real_matrix:
            monkeypatch.setattr(module, "weight_matrix", matrix)
    body = BASE + f"checks = {', '.join(KNOWN_CHECKS)}\n"
    report = run_scenario(load_scenario(write_scn(tmp_path, body), {"n_paths": 3000}))
    assert len(report.checks) == len(KNOWN_CHECKS)
    assert made == []


# Functions the benchmark's tracer (perfbench/tracer.py) times by replacing
# them wherever a `nexpect` module holds them.  It times
# `measures.weight_matrix` too, which the pipeline no longer calls.
TRACED = (("choquet", "build_capacity"),
          ("minimax", "minimax_expectation"), ("measures", "expectation_profile"),
          ("bsde", "solve_fd"), ("choquet", "submodularity_check"), ("cli", "_choquet_std_error"))


def test_pipeline_calls_traced_functions_through_module_globals(tmp_path, monkeypatch):
    # A stage reached in any other way would leave its per-layer metric at 0.
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "nexpect" or name.startswith("nexpect.")]
    calls = {}

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    for module_name, attr in TRACED:
        original = getattr(sys.modules[f"nexpect.{module_name}"], attr)
        wrapper = counting(f"{module_name}.{attr}", original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, wrapper)
    body = BASE + f"checks = {', '.join(KNOWN_CHECKS)}\n"
    run_scenario(load_scenario(write_scn(tmp_path, body), {"n_paths": 3000}))
    assert sorted(calls) == sorted(f"{m}.{a}" for m, a in TRACED)


# Estimates of the digital `fd_put` benchmark scenario at seed 3 (1601
# nodes, 100k paths): the reweighted extremal upper price, the minimax
# profile at +k, sits 0.0053 below the FD value, outside the FD tolerance
# alone but inside it plus 3 SE.
DIGITAL_SEED3 = {
    "choquet_upper": (0.49658009160632566, 0.0015898645774613457),
    "choquet_lower": (0.41748106216696984, 0.0015466276041865453),
    "minimax_upper": (0.49619476089381476, 0.0017166406535267414),
    "minimax_lower": (0.4177894511703169, 0.0014448605150124735),
    "bsde_upper": (0.5014960156706261, 0.0),
    "bsde_lower": (0.4222066964030818, 0.0),
    "extremal_upper": (0.49619476089381476, 0.0017166406535267414),
    "extremal_lower": (0.4177894511703169, 0.0014448605150124735),
    "plain": (0.45682, 0.0015752395658428903),
}


@pytest.mark.parametrize("extremal_se, status", [(True, "pass"), (False, "fail")],
                         ids=["reweighted", "zero-se"])
def test_sandwich_tolerates_extremal_monte_carlo_error(extremal_se, status):
    from types import SimpleNamespace

    from nexpect.cli import EstimatorEntry, _check_sandwich

    entries = {}
    for name, (value, se) in DIGITAL_SEED3.items():
        if name.startswith("extremal") and not extremal_se:
            se = 0.0
        entries[name] = EstimatorEntry(name, value, se)
    outcome = _check_sandwich(SimpleNamespace(entries=entries))
    assert outcome.status == status, outcome.detail
    if status == "fail":
        assert outcome.detail.startswith("bsde_upper <= extremal_upper violated by 0.0053")


@pytest.fixture(scope="module")
def call_context(tmp_path_factory):
    """The RunContext the checks of a small call run receive, with the
    reductions of `martingale` and `normalization`."""
    from nexpect import cli
    contexts = []
    real = cli.CHECK_REGISTRY["martingale"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(cli.CHECK_REGISTRY, "martingale",
                      lambda ctx: contexts.append(ctx) or real(ctx))
        run_scenario(load_scenario(write_scn(tmp_path_factory.mktemp("scn"),
                                             BASE + "checks = martingale, normalization\n")))
    [ctx] = contexts
    return ctx


# A pull just under, then just over, the limit of 4 SE.  The limit is
# written out, so its value is pinned and not only its presence.
@pytest.mark.parametrize("pull, status", [(3.999, "pass"), (4.001, "fail")])
def test_martingale_verdict_at_its_limit(call_context, pull, status):
    from nexpect.cli import _check_martingale
    # Two paths: every column is 1 on both but the last, 1 + pull * 0.01
    # +- 0.01, whose mean strays by pull * 0.01 at an SE of 0.01.
    weights = np.ones((2, len(call_context.family)))
    weights[:, -1] += pull * 0.01 + np.array([0.01, -0.01])
    rows = StoredRows(weights)
    moments = expectation_profile(np.ones(2), rows)
    outcome = _check_martingale(replace(call_context, weights=rows, moments=moments))
    assert outcome.status == status
    assert outcome.detail == (f"max |mean - 1| = {pull:.2f} SE at "
                              f"{call_context.family[-1].label()} (limit 4)")


def test_attainment_verdict_fails_on_a_hump_declared_increasing(call_context):
    from nexpect.cli import _check_attainment
    assert _check_attainment(call_context).status == "pass"
    assert _check_attainment(replace(call_context, payoff=Payoff.put(100.0))).status == "pass"
    # A tent peaked near the reference median of S_T: its profile over the
    # constant controls peaks inside [-k, k] and falls by tens of paired SEs
    # towards +k.
    hump = Payoff.custom("hump", lambda s: np.maximum(0.0, 10.0 - np.abs(s - 98.0)),
                         monotonicity="increasing")
    outcome = _check_attainment(replace(call_context, payoff=hump))
    assert outcome.status == "fail", outcome.detail
    assert "monotone profile=False" in outcome.detail


# A z extreme just inside, then just outside, the slack of 1e-6 * s0 = 1e-4
# on the wrong side of 0, carried by the context's solve.  The slack is
# written out, so its value is pinned and not only its presence.
@pytest.mark.parametrize("payoff, extreme, status", [
    (Payoff.call(100.0), -0.99e-4, "pass"),
    (Payoff.call(100.0), -1.01e-4, "fail"),
    (Payoff.put(100.0), 0.99e-4, "pass"),
    (Payoff.put(100.0), 1.01e-4, "fail"),
], ids=["increasing-inside", "increasing-outside", "decreasing-inside", "decreasing-outside"])
def test_z_sign_verdict_at_its_slack(call_context, payoff, extreme, status):
    from nexpect.cli import _check_zsign
    assert call_context.scenario.s0 == 100.0
    fd = replace(call_context.fd, payoff=payoff, z_extreme=np.array([extreme, math.nan]))
    outcome = _check_zsign(replace(call_context, payoff=payoff, fd=fd))
    assert outcome.status == status, outcome.detail
    assert outcome.detail == (f"monotonicity={payoff.monotonicity}, extreme z = {extreme:.3g}, "
                              f"threshold 1.0e-04, band 90%")


def test_judge_names_the_worst_relation_and_fails_on_nan():
    from nexpect.cli import CheckOutcome, _judge
    assert _judge("x", [(-2.0, "a"), (-1.0, "b"), (-1.0, "c")]) == CheckOutcome("x", "pass", "b")
    assert _judge("x", [(-1.0, "a"), (0.0, "b")], passed="ok") == CheckOutcome("x", "pass", "ok")
    assert _judge("x", [(1.0, "a"), (3.0, "b")], passed="ok") == CheckOutcome("x", "fail", "b")
    assert _judge("x", [(-1.0, "a"), (5e-324, "b")]) == CheckOutcome("x", "fail", "b")
    assert _judge("x", [(5.0, "a"), (math.nan, "b")]) == CheckOutcome("x", "fail", "b")
    assert _judge("x", [(math.nan, "a"), (-1.0, "b")]) == CheckOutcome("x", "fail", "a")


def with_entry(ctx, name, **changes):
    """The context with one estimator entry moved."""
    return replace(ctx, entries={**ctx.entries, name: replace(ctx.entries[name], **changes)})


# Each fixture below puts one input just inside, then just outside, a
# check's limit.  The limits are written out, so their values are pinned
# and not only their presence.
EDGES = [(1.0 - 1e-6, "pass"), (1.0 + 1e-6, "fail")]


@pytest.mark.parametrize("factor, status", EDGES)
@pytest.mark.parametrize("kind, rel", [("call", 0.01), ("digital", 0.03)])
def test_chain_verdict_at_its_relative_limit(call_context, kind, rel, factor, status):
    # bsde_upper and the closed-form extremal_upper have no SE, so their gap
    # may be `rel` of the larger: e - b <= rel * e.  A digital's FD pairs
    # get 0.03, every other pair 0.01.
    from nexpect.cli import _check_chain
    ctx = replace(call_context, payoff=getattr(Payoff, kind)(100.0))
    b = ctx.entries["bsde_upper"].value
    outcome = _check_chain(with_entry(ctx, "extremal_upper", value=b / (1.0 - rel) * factor))
    assert outcome.status == status, outcome.detail
    assert outcome.detail.startswith("bsde_upper vs extremal_upper: ")


def test_chain_detail_names_a_pair_far_inside_its_tolerance(tmp_path):
    # At s0 = strike = 100000 every pair's excess is below -1.
    body = BASE.replace("s0 = 100", "s0 = 100000").replace("strike = 100", "strike = 100000")
    [outcome] = run_scenario(load_scenario(write_scn(tmp_path, body + "checks = chain\n"))).checks
    assert outcome.status == "pass"
    assert re.match(r"\w+_(upper|lower) vs \w+_(upper|lower): \|", outcome.detail), outcome.detail


@pytest.mark.parametrize("factor, status", EDGES)
@pytest.mark.parametrize("name, tol", [("bsde_upper", lambda plain: 0.005 * max(1.0, plain)),
                                       ("extremal_upper", lambda plain: 1e-9 * max(1.0, plain))],
                         ids=["fd", "exact"])
def test_degeneracy_verdict_at_its_limits(call_context, name, tol, factor, status):
    # Every entry collapsed onto a plain price without SE, then one moved:
    # an FD value may sit 0.005 of the scale off, a sampled one 1e-9.
    from nexpect.cli import _check_degeneracy
    plain = call_context.entries["plain"].value
    ctx = replace(call_context, scenario=replace(call_context.scenario, k=0.0), entries={
        n: replace(e, value=plain, std_error=0.0 if n == "plain" else e.std_error)
        for n, e in call_context.entries.items()})
    outcome = _check_degeneracy(with_entry(ctx, name, value=plain + tol(plain) * factor))
    assert outcome.status == status, outcome.detail
    assert status == "pass" or outcome.detail.startswith(f"{name} = ")


@pytest.mark.parametrize("factor, status", EDGES)
def test_sandwich_verdict_at_its_fd_tolerance(call_context, factor, status):
    # bsde_upper may exceed the closed-form extremal_upper by 0.005 of the
    # FD scale, here bsde_upper itself: b - e <= 0.005 * b.
    from nexpect.cli import _check_sandwich
    e = call_context.entries["extremal_upper"].value
    outcome = _check_sandwich(with_entry(call_context, "bsde_upper",
                                         value=e / (1.0 - 0.005) * factor))
    assert outcome.status == status, outcome.detail
    expected = "9 order relations hold" if status == "pass" else "bsde_upper <= extremal_upper"
    assert outcome.detail.startswith(expected)


def test_sandwich_names_the_worst_violation(call_context):
    # The first relation listed fails by a little, a later one by a lot.
    from nexpect.cli import _check_sandwich
    e = call_context.entries
    ctx = with_entry(call_context, "choquet_lower", value=e["minimax_lower"].value + 0.5)
    ctx = with_entry(ctx, "bsde_upper", value=e["extremal_upper"].value + 5.0)
    outcome = _check_sandwich(ctx)
    assert outcome.status == "fail"
    assert outcome.detail.startswith("bsde_upper <= extremal_upper violated by 5")


def test_sandwich_fails_on_a_nan_estimate(call_context):
    from nexpect.cli import _check_sandwich
    outcome = _check_sandwich(with_entry(call_context, "choquet_upper", value=math.nan))
    assert outcome.status == "fail"
    assert outcome.detail.startswith("minimax_upper <= choquet_upper violated by nan")


@pytest.mark.parametrize("factor, status", EDGES)
@pytest.mark.parametrize("edge", ["lower", "upper"])
def test_comparison_verdict_at_its_tolerance(call_context, edge, factor, status):
    # A linear driver's value may sit 0.005 of the FD scale outside the
    # abs-driver band [lo, hi].
    from nexpect.cli import _check_comparison
    hi, lo = call_context.fd.y0.tolist()
    tol = 0.005 * max(1.0, abs(lo), abs(hi))
    outside = lo - tol * factor if edge == "lower" else hi + tol * factor
    linear = [outside, 0.5 * (lo + hi), hi] if edge == "lower" else [lo, 0.5 * (lo + hi), outside]
    ctx = replace(call_context, fd=replace(call_context.fd, y0=np.array([hi, lo, *linear])))
    outcome = _check_comparison(ctx)
    assert outcome.status == status, outcome.detail
    if status == "fail":
        nu = "-0.1" if edge == "lower" else "0.1"
        assert outcome.detail.startswith(f"linear driver nu={nu} gives y0=")


@pytest.mark.parametrize("factor, status", [(1.0 - 1e-9, "pass"), (1.0 + 1e-9, "fail")])
def test_l2bound_verdict_at_its_limit(call_context, factor, status):
    # The upper price may exceed the bound sqrt(E[X^2]) exp(k^2 T / 2) by 3
    # pooled SEs of the price and of the bound (delta method).
    from nexpect.cli import _check_l2bound
    x, s = call_context.values, call_context.scenario
    m2 = np.mean(x**2)
    bound = math.sqrt(m2) * math.exp(0.5 * s.k**2 * s.horizon)
    se_bound = np.std(x**2, ddof=1) / math.sqrt(x.size) / (2.0 * math.sqrt(m2))
    se_upper = call_context.entries["minimax_upper"].std_error
    limit = bound + 3.0 * math.sqrt(se_upper**2 + se_bound**2)
    outcome = _check_l2bound(with_entry(call_context, "minimax_upper", value=limit * factor))
    assert outcome.status == status, outcome.detail


def test_martingale_means_are_the_totals_over_n(call_context):
    # The martingale check's mean of each density column is the column's
    # total, the capacities' normaliser, over n: bit for bit.
    means, _ = call_context.moments
    totals = call_context.cap_upper.totals
    assert np.array_equal(means.view(np.int64),
                          (totals / call_context.bundle.n_paths).view(np.int64))


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_normalization_verdict_is_exact(call_context, side):
    # The full event must weigh exactly 1: totals one ulp off fail.
    from nexpect.cli import _check_normalization
    assert _check_normalization(call_context).status == "pass"
    cap = getattr(call_context, f"cap_{side}")
    moved = Capacity(side, StoredRows(cap.weights.dense(), cap.totals * (1.0 + 2.0**-52)))
    outcome = _check_normalization(replace(call_context, **{f"cap_{side}": moved}))
    assert outcome.status == "fail", outcome.detail


@pytest.mark.parametrize("factor, status", [(0.99, "pass"), (1.01, "fail")])
@pytest.mark.parametrize("identity", ["integral", "capacity"])
def test_duality_verdict_at_its_tolerance(call_context, monkeypatch, identity, factor, status):
    # The lower side shifted by just under, then just over, the tolerance:
    # 1e-10 of the value scale max(1, |minimax_upper|) for the integrals,
    # 1e-10 for capacities.  The unshifted gaps are below 1e-12 of it.
    from nexpect import cli
    from nexpect.choquet import Capacity
    if identity == "integral":
        shift = factor * 1e-10 * max(1.0, abs(call_context.entries["minimax_upper"].value))
        real = cli.choquet_estimates

        def shifted(values, capacities):
            return [(value + shift if cap.orientation == "lower" else value, influence)
                    for (value, influence), cap in zip(real(values, capacities), capacities)]

        monkeypatch.setattr(cli, "choquet_estimates", shifted)
    else:
        shift = factor * 1e-10
        real = Capacity.evaluate
        monkeypatch.setattr(Capacity, "evaluate", lambda cap, event: real(cap, event) + (
            shift if cap.orientation == "lower" else 0.0))
    outcome = cli._check_duality(replace(call_context))
    assert outcome.status == status, outcome.detail


def test_duality_fails_on_a_nan_capacity_gap(call_context, monkeypatch):
    from nexpect import cli
    from nexpect.choquet import Capacity
    real = Capacity.evaluate
    monkeypatch.setattr(Capacity, "evaluate", lambda cap, event: (
        math.nan if cap.orientation == "lower" else real(cap, event)))
    assert cli._check_duality(replace(call_context)).status == "fail"


# An upper envelope of probability measures is 2-alternating on every pair
# of threshold events (each event is a run of ranks), so a capacity on the
# limit needs a signed density.  The sample is 0, 1 and 2 on 10%, 80% and
# 10% of the paths, of masses -delta, 0.5 + delta and 0.5.  A pair of an
# {x <= t} holding the 0s and 1s and an {x > t'} holding the 1s and 2s has
# the defect c(all) + c(1s) - c(0s, 1s) - c(1s, 2s) = 1 + (0.5 + delta) -
# 0.5 - 1 = delta (the mass 1 + delta of the 1s and 2s is clipped to 1);
# every other pair's is 0 or -delta.  The limit is 3 / sqrt(m).
@pytest.mark.parametrize("factor, status", EDGES)
def test_submodularity_verdict_at_its_limit(call_context, factor, status):
    from nexpect.cli import CHECK_SUBSAMPLE, _check_submodularity
    m = call_context.bundle.n_paths
    assert m <= CHECK_SUBSAMPLE
    delta = factor * 3.0 / math.sqrt(m)
    counts = np.array([m // 10, m - 2 * (m // 10), m // 10])
    values = np.repeat([0.0, 1.0, 2.0], counts)
    weights = np.repeat(np.array([-delta, 0.5 + delta, 0.5]) / counts, counts)[:, None]
    outcome = _check_submodularity(replace(call_context, values=values,
                                           weights=StoredRows(weights)))
    assert outcome.status == status, outcome.detail
    assert outcome.detail.startswith(f"max 2-alternating defect {delta:.2e} over 200 ")


# The first pair's margin moved to just inside, then just past, the
# tolerance of its report: a pair holds while margin >= -tolerance.
@pytest.mark.parametrize("factor, status", EDGES)
def test_holder_verdict_at_its_tolerance(call_context, monkeypatch, factor, status):
    from nexpect import cli
    real = cli.choquet_holder_checks

    def at_the_edge(pairs, capacity):
        first, *rest = real(pairs, capacity)
        return [replace(first, margin=-factor * first.tolerance), *rest]

    monkeypatch.setattr(cli, "choquet_holder_checks", at_the_edge)
    outcome = cli._check_holder(replace(call_context))
    assert outcome.status == status, outcome.detail


def test_holder_verdict_fails_on_an_envelope_that_is_not_2_alternating(call_context):
    # X = 1 + 1_A and Y = |S_T| / s0 = 1 + 1_B on four equal cells (A only,
    # A and B, B only, neither), under the upper envelope of the probability
    # measures P = (0, 1/4, 0, 3/4) and Q = (1/4, 0, 1/4, 1/2), for which
    # c(A) = c(B) = c(A & B) = 1/4 and c(A | B) = 1/2.  So
    # C(XY) = 1 + c(A | B) + 2 c(A & B) = 2, while
    # C(X^2)^(1/2) C(Y^2)^(1/2) = 1 + 3 c(A) = 1.75.
    from nexpect.cli import _check_holder
    m = call_context.bundle.n_paths
    quarter = m // 4
    assert 4 * quarter == m
    in_a = np.repeat([1.0, 1.0, 0.0, 0.0], quarter)
    in_b = np.repeat([0.0, 1.0, 1.0, 0.0], quarter)
    envelope = np.repeat([[0.0, 0.25], [0.25, 0.0], [0.0, 0.25], [0.75, 0.5]], quarter, axis=0)
    states = call_context.scenario.s0 * (1.0 + in_b)
    outcome = _check_holder(replace(call_context, values=1.0 + in_a,
                                    weights=StoredRows(envelope / quarter),
                                    bundle=replace(call_context.bundle, states=states)))
    assert outcome.status == "fail"
    assert outcome.detail.startswith("pair 0: margin -0.25 (tol "), outcome.detail


# The four checks whose verdict the library used to give now hand their
# measurements to the judge.  Each relation's excess keeps the sign of the
# old comparison, written out below, on measurements at the limit, one ulp
# to either side of it, signed zeros, NaN or anywhere.
def near(limit: float):
    limit = float(limit)
    return st.sampled_from([limit, float(np.nextafter(limit, math.inf)),
                            float(np.nextafter(limit, -math.inf)), -0.0, 0.0, math.nan]) | \
        st.floats(-10.0, 10.0)


def verdict_with(ctx, check: str, library: str, measurement) -> str:
    """The check's status when its library call returns `measurement`."""
    from nexpect import cli
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, library, lambda *args: measurement)
        return cli.CHECK_REGISTRY[check](ctx).status


@settings(max_examples=150, deadline=None)
@given(data=st.data(), mono=st.sampled_from(["increasing", "decreasing"]),
       threshold=st.floats(0.0, 1.0))
def test_zsign_verdict_is_the_old_comparison(call_context, data, mono, threshold):
    from nexpect.bsde import ZSignReport
    extreme = data.draw(near(-threshold if mono == "increasing" else threshold))
    old = extreme >= -threshold if mono == "increasing" else extreme <= threshold
    status = verdict_with(call_context, "zsign", "z_sign_check",
                          ZSignReport(mono, extreme, threshold, 0.9))
    assert status == ("pass" if old else "fail")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), tolerances=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_holder_verdict_is_the_old_comparison(call_context, data, tolerances):
    from nexpect.choquet import HolderReport
    reports = [HolderReport(1.0, 1.0, data.draw(near(-tol)), tol) for tol in tolerances]
    old = all(rep.margin >= -rep.tolerance for rep in reports)
    status = verdict_with(call_context, "holder", "choquet_holder_checks", reports)
    assert status == ("pass" if old else "fail")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), count=st.integers(1, 4))
def test_submodularity_verdict_is_the_old_comparison(call_context, data, count):
    tol = 3.0 / math.sqrt(call_context.bundle.n_paths)
    defects = np.array([data.draw(near(tol)) for _ in range(count)])
    old = float(defects.max()) <= tol
    status = verdict_with(call_context, "submodularity", "submodularity_check", defects)
    assert status == ("pass" if old else "fail")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), payoff=st.sampled_from([Payoff.call(100.0), Payoff.put(100.0)]),
       estimates=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5))
def test_attainment_verdict_is_the_old_comparison(call_context, data, payoff, estimates):
    from nexpect.minimax import AttainmentReport
    sign = 1.0 if payoff.monotonicity == "increasing" else -1.0
    est = np.array(estimates)
    diffs = np.diff(est)
    diff_ses = np.array([data.draw(near(-sign * d / 3.0)) for d in diffs.tolist()])
    hi, end = int(np.argmax(est)), 0 if est[0] >= est[-1] else est.size - 1
    boundary_se = 0.0 if hi == end else data.draw(near((est[hi] - est[end]) / 3.0))
    violations = [j for j, (d, se) in enumerate(zip(diffs, diff_ses)) if sign * d < -3.0 * se]
    boundary = hi == end or est[hi] - est[end] <= 3.0 * boundary_se
    # The one change: a NaN step used to pass, and now fails.
    old = boundary and not violations and not np.isnan(diff_ses).any()
    report = AttainmentReport(np.linspace(-0.1, 0.1, est.size), est, np.zeros(est.size), hi,
                              int(np.argmin(est)), diff_ses, end, boundary_se)
    status = verdict_with(replace(call_context, payoff=payoff), "attainment",
                          "attainment_check", report)
    assert status == ("pass" if old else "fail")


def test_known_checks_cover_registry():
    from nexpect.cli import CHECK_REGISTRY
    assert set(KNOWN_CHECKS) == set(CHECK_REGISTRY)


# Scenarios that load but whose numbers leave the float64 range somewhere in
# the pipeline: an overflow in numpy or in Python's math module, density
# weights that underflow, or a finite-difference grid that collapses.
OUT_OF_RANGE = {
    "s0-1e300": {"s0 = 100": "s0 = 1e300"},
    "horizon-1e5-digital": {"horizon = 1.0": "horizon = 1e5", "k = 0.1": "k = 0.8",
                            "mu = 0.0": "mu = 0.05", "sigma = 0.2": "sigma = 0.05",
                            "payoff = call": "payoff = digital"},
    "horizon-1e5-call": {"horizon = 1.0": "horizon = 1e5", "s0 = 100": "s0 = 2500"},
    "sigma-1e-300": {"sigma = 0.2": "sigma = 1e-300", "s0 = 100": "s0 = 1"},
    "horizon-1e-300": {"horizon = 1.0": "horizon = 1e-300"},
    "mu-800": {"mu = 0.0": "mu = 800", "sigma = 0.2": "sigma = 40", "s0 = 100": "s0 = 1",
               "payoff = call": "payoff = put", "strike = 100": "strike = 1e6"},
    "k-60": {"k = 0.1": "k = 60", "horizon = 1.0": "horizon = 3"},
    # s0 / strike underflows to 0, and the closed form takes its log.
    "s0-over-strike-underflow-call": {"s0 = 100": "s0 = 1e-300", "strike = 100": "strike = 1e150"},
    "s0-over-strike-underflow-put": {"s0 = 100": "s0 = 1e-300", "strike = 100": "strike = 1e150",
                                     "payoff = call": "payoff = put"},
}


def run_main_quietly(argv):
    """main's exit code and stderr, with every warning recorded, not shown."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, err.getvalue(), runtime


@pytest.mark.parametrize("edits", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_main_out_of_range_scenario_exit_2(tmp_path, edits):
    body = BASE
    for old, new in edits.items():
        body = body.replace(old, new)
    code, stderr, runtime = run_main_quietly(
        ["--scenario", write_scn(tmp_path, body), "--paths=300", "--format", "csv"])
    assert code == EXIT_BAD_SCENARIO, stderr
    assert stderr.startswith("scenario error:") and stderr.count("\n") == 1
    assert not runtime


# ---------------------------------------------------------------------------
# fuzzing the entry point
# ---------------------------------------------------------------------------

# Each key's values that load, with tiny path, node and time-step counts so
# that a full run takes well under a second.
FUZZ_VALID = {
    "s0": ["100", "1", "2500"],
    "mu": ["0.0", "0.05", "-0.4"],
    "sigma": ["0.2", "0.05", "1.5"],
    "horizon": ["1.0", "0.1", "3"],
    "k": ["0.1", "0", "0.8"],
    "payoff": ["call", "put", "digital", "custom"],
    "strike": ["100", "1", "1e6"],
    "expr": ["max(s - 100, 100 - s)", "s", "1 / s", "min(s, 90) - 5", "0 * s"],
    "monotonicity": ["none", "increasing", "decreasing"],
    "n_paths": ["2", "3", "40", "300"],
    "steps": ["1", "3"],
    "seed": ["0", "5", "-7", "18446744073709551621"],
    "nodes": ["5", "12", "41"],
    "time_steps": ["1", "60"],
    "theta_grid": ["2", "5"],
    "fd_substep": ["true", "false"],
    "checks": [", ".join(KNOWN_CHECKS), "chain, holder", "submodularity, duality", "zsign"],
}
# Values each key rejects, or that push the pipeline to an extreme.
FUZZ_INVALID = {
    "s0": ["0", "-1", "1e300", "nan"],
    "mu": ["inf", "800"],
    "sigma": ["0", "-0.2", "1e-300", "1e-9", "40"],
    "horizon": ["0", "1e-300", "1e5"],
    "k": ["-0.1", "60"],
    "payoff": ["warrant", ""],
    "strike": ["0", "-5", "1e300"],
    "expr": ["s /", "s ** 2", "max(s)", "1 / (s - s)", "__import__"],
    "monotonicity": ["up"],
    "n_paths": ["1", "0", "2.5"],
    "steps": ["0", "-3"],
    "seed": ["x", "1.5"],
    "nodes": ["4", "-1"],
    "time_steps": ["0", "1000001"],
    "theta_grid": ["1", "0"],
    "fd_substep": ["maybe"],
    "checks": ["wat", ",,"],
}
# Random text without decimal digits, so that it never parses as a large
# path, node or step count.
FUZZ_TEXT = st.characters(blacklist_categories=("Nd", "Cs"))


@st.composite
def fuzz_scenario_text(draw):
    keys = {key: draw(st.sampled_from(values)) for key, values in FUZZ_VALID.items()}
    # A built-in payoff refuses an expr and a contradicting monotonicity, a
    # custom one a strike; leaving them out lets its examples reach the
    # pipeline (the draws below can still put an invalid one back).
    if keys["payoff"] == "custom":
        del keys["strike"]
    else:
        del keys["expr"], keys["monotonicity"]
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(FUZZ_VALID)))
        action = draw(st.sampled_from(["invalid", "drop", "text"]))
        if action == "invalid":
            keys[key] = draw(st.sampled_from(FUZZ_INVALID[key]))
        elif action == "drop":
            keys.pop(key, None)
        else:
            keys[key] = draw(st.text(FUZZ_TEXT, max_size=8))
    lines = [f"{key} = {value}" for key, value in keys.items()]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(FUZZ_TEXT, max_size=12)))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    text=fuzz_scenario_text(),
    paths=st.none() | st.integers(-2, 300),
    steps=st.none() | st.integers(-1, 4),
    theta_grid=st.none() | st.integers(-1, 6),
)
def test_main_fuzz_exits_with_documented_code(tmp_path_factory, text, paths, steps, theta_grid):
    path = tmp_path_factory.getbasetemp() / "fuzz.scn"
    path.write_text(text, encoding="utf-8")
    argv = ["--scenario", str(path), "--threads", "1", "--format", "csv"]
    for flag, value in (("--paths", paths), ("--steps", steps), ("--theta-grid", theta_grid)):
        if value is not None:
            argv.append(f"{flag}={value}")
    code, stderr, runtime = run_main_quietly(argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_BAD_SCENARIO, EXIT_GRID_REJECTED,
                    EXIT_INTERNAL_ERROR), (code, stderr)
    assert "Traceback" not in stderr
    assert "RuntimeWarning" not in stderr
    assert not runtime, runtime
