"""Scenario-driven pricing pipeline and the `price` command-line entry point.

A scenario is a flat key=value file describing a GBM market, a payoff, and
estimator settings.  Running it produces nine estimates of the same claim:
upper/lower Choquet integrals, upper/lower family-search (minimax) values,
upper/lower backward-equation values, upper/lower extremal-measure prices,
and the plain single-measure Monte Carlo price, plus any requested
consistency checks.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 scenario or
argument validation failed, the scenario's numbers overflow float64, or the
--out file could not be written, 3 the backward solver's grid was rejected,
4 an internal error (an unexpected exception, reported on one
`internal error:` line without a traceback).
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .bsde import (
    MAX_TIME_STEPS,
    Generator,
    GridSolution,
    minimal_time_steps,
    solve_fd,
    z_sign_check,
)
from .choquet import (
    Capacity,
    Payoff,
    build_capacity,
    choquet_estimates,
    choquet_holder_checks,
    random_threshold_pairs,
    submodularity_check,
)
from .errors import GridTooCoarseError, ScenarioError
from .measures import ThetaControl, default_control_family, weight_matrix
from .minimax import (
    attainment_check,
    extremal_price,
    minimax_expectation,
    pooled_tolerance,
)
from .paths import MarketModel, PathBundle, TimeGrid, generate_brownian, simulate_sde

ESTIMATOR_ORDER = (
    "choquet_upper",
    "choquet_lower",
    "minimax_upper",
    "minimax_lower",
    "bsde_upper",
    "bsde_lower",
    "extremal_upper",
    "extremal_lower",
    "plain",
)

# Heavy structural checks run on a deterministic prefix of the paths.
CHECK_SUBSAMPLE = 100_000

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_SCENARIO = 2
EXIT_GRID_REJECTED = 3
EXIT_INTERNAL_ERROR = 4


# ---------------------------------------------------------------------------
# payoff expressions
# ---------------------------------------------------------------------------

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.true_divide,
}


def parse_payoff_expression(expr: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a payoff expression of the terminal state symbol `s`.

    Allowed: numeric constants, the name `s`, + - * /, unary +-, and calls
    to max/min with two or more arguments.  Anything else is rejected.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ScenarioError(f"payoff expression does not parse: {exc.msg}") from exc

    def build(node: ast.AST) -> Callable[[np.ndarray], np.ndarray]:
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                value = float(node.value)
                return lambda s: value
            raise ScenarioError(f"disallowed constant {node.value!r} in payoff expression")
        if isinstance(node, ast.Name):
            if node.id == "s":
                return lambda s: s
            raise ScenarioError(f"unknown symbol {node.id!r} in payoff expression (only `s`)")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = build(node.operand)
            if isinstance(node.op, ast.USub):
                return lambda s: np.negative(inner(s))
            return inner
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op = _BINOPS[type(node.op)]
            left = build(node.left)
            right = build(node.right)
            return lambda s: op(left(s), right(s))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("max", "min") and not node.keywords and len(node.args) >= 2:
                reducer = np.maximum if node.func.id == "max" else np.minimum
                parts = [build(a) for a in node.args]

                def call(s, parts=parts, reducer=reducer):
                    out = parts[0](s)
                    for p in parts[1:]:
                        out = reducer(out, p(s))
                    return out

                return call
            raise ScenarioError(
                f"disallowed call {getattr(node.func, 'id', '?')!r} in payoff expression "
                "(only max/min with >= 2 arguments)"
            )
        raise ScenarioError(f"disallowed syntax {type(node).__name__} in payoff expression")

    inner = build(tree)

    def fn(s: np.ndarray) -> np.ndarray:
        # Payoff.map rejects non-finite results; numpy need not warn first.
        with np.errstate(all="ignore"):
            out = np.asarray(inner(np.asarray(s, dtype=float)), dtype=float)
        if out.shape != np.shape(s):
            out = np.broadcast_to(out, np.shape(s)).copy()
        return out

    return fn


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

KNOWN_CHECKS = (
    "chain",
    "degeneracy",
    "duality",
    "sandwich",
    "normalization",
    "martingale",
    "zsign",
    "comparison",
    "attainment",
    "submodularity",
    "l2bound",
    "holder",
)


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: GBM market, payoff, and estimator settings."""

    s0: float
    mu: float
    sigma: float
    horizon: float
    k: float
    payoff_kind: str
    strike: Optional[float]
    expr: Optional[str]
    monotonicity: str
    n_paths: int
    steps: int
    seed: int
    nodes: int = 801
    time_steps: int = 2000
    theta_grid: int = 21
    fd_substep: bool = True
    checks: tuple[str, ...] = ()

    def build_payoff(self) -> Payoff:
        if self.payoff_kind == "call":
            return Payoff.call(self.strike)
        if self.payoff_kind == "put":
            return Payoff.put(self.strike)
        if self.payoff_kind == "digital":
            return Payoff.digital(self.strike)
        fn = parse_payoff_expression(self.expr)
        return Payoff.custom(name=f"custom({self.expr})", fn=fn, monotonicity=self.monotonicity)

    def build_model(self) -> MarketModel:
        return MarketModel.gbm(self.s0, self.mu, self.sigma, self.k)


_REQUIRED_KEYS = ("s0", "mu", "sigma", "horizon", "k", "payoff", "n_paths", "steps", "seed")
_OPTIONAL_KEYS = (
    "strike",
    "expr",
    "monotonicity",
    "nodes",
    "time_steps",
    "theta_grid",
    "quantile_levels",
    "fd_substep",
    "checks",
)


def _parse_bool(raw: str, key: str, line: int) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ScenarioError(f"{key} must be true or false, got {raw!r}", line)


def load_scenario(path: str, overrides: Optional[dict] = None) -> Scenario:
    """Parse and validate a key=value scenario file, fail-closed.

    Unknown keys, duplicates, missing required keys, or out-of-range values
    raise ScenarioError carrying the offending line number when there is one.
    `overrides` replaces parsed values (CLI flags) before range validation.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc

    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(f"expected key = value, got {stripped!r}", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise ScenarioError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ScenarioError(f"empty value for {key!r}", lineno)
        raw[key] = (value, lineno)

    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ScenarioError(f"missing required key {key!r} in {path}")

    def get_float(key: str) -> float:
        value, lineno = raw[key]
        try:
            out = float(value)
        except ValueError:
            raise ScenarioError(f"{key} must be a number, got {value!r}", lineno) from None
        if not math.isfinite(out):
            raise ScenarioError(f"{key} must be finite, got {value!r}", lineno)
        return out

    def get_int(key: str, default: Optional[int] = None) -> int:
        if key not in raw:
            return default
        value, lineno = raw[key]
        try:
            return int(value)
        except ValueError:
            raise ScenarioError(f"{key} must be an integer, got {value!r}", lineno) from None

    payoff_kind, payoff_line = raw["payoff"]
    if payoff_kind not in ("call", "put", "digital", "custom"):
        raise ScenarioError(f"payoff must be call/put/digital/custom, got {payoff_kind!r}", payoff_line)

    # quantile_levels sized the retired quadrature error bars.  Files that
    # set it still parse, and are still validated, but the value is unused.
    if get_int("quantile_levels", 2) < 2:
        value, lineno = raw["quantile_levels"]
        raise ScenarioError(f"quantile_levels must be >= 2, got {value}", lineno)

    checks: tuple[str, ...] = ()
    if "checks" in raw:
        value, lineno = raw["checks"]
        names = tuple(part.strip() for part in value.split(",") if part.strip())
        for name in names:
            if name not in KNOWN_CHECKS:
                raise ScenarioError(
                    f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}", lineno
                )
        checks = names

    mono = "none"
    if "monotonicity" in raw:
        value, lineno = raw["monotonicity"]
        if value not in ("increasing", "decreasing", "none"):
            raise ScenarioError(f"monotonicity must be increasing/decreasing/none, got {value!r}", lineno)
        mono = value

    fields = dict(
        s0=get_float("s0"),
        mu=get_float("mu"),
        sigma=get_float("sigma"),
        horizon=get_float("horizon"),
        k=get_float("k"),
        payoff_kind=payoff_kind,
        strike=get_float("strike") if "strike" in raw else None,
        expr=raw["expr"][0] if "expr" in raw else None,
        monotonicity=mono,
        n_paths=get_int("n_paths"),
        steps=get_int("steps"),
        seed=get_int("seed"),
        nodes=get_int("nodes", 801),
        time_steps=get_int("time_steps", 2000),
        theta_grid=get_int("theta_grid", 21),
        fd_substep=(
            _parse_bool(raw["fd_substep"][0], "fd_substep", raw["fd_substep"][1])
            if "fd_substep" in raw
            else True
        ),
        checks=checks,
    )

    if overrides:
        for key, value in overrides.items():
            if value is not None:
                fields[key] = value

    scenario = _validate_scenario(fields, path)
    return scenario


def _validate_scenario(fields: dict, path: str) -> Scenario:
    if fields["s0"] <= 0:
        raise ScenarioError(f"s0 must be positive, got {fields['s0']}")
    if fields["sigma"] <= 0:
        # At sigma = 0 the solver's grid collapses and its step count explodes.
        raise ScenarioError(f"sigma must be > 0, got {fields['sigma']}")
    if fields["horizon"] <= 0:
        raise ScenarioError(f"horizon must be positive, got {fields['horizon']}")
    if fields["k"] < 0:
        raise ScenarioError(f"k must be >= 0, got {fields['k']}")
    if fields["n_paths"] < 2:
        # Every standard error needs at least two paths.
        raise ScenarioError(f"n_paths must be >= 2, got {fields['n_paths']}")
    if fields["steps"] < 1:
        raise ScenarioError(f"steps must be >= 1, got {fields['steps']}")
    if fields["nodes"] < 5:
        raise ScenarioError(f"nodes must be >= 5, got {fields['nodes']}")
    if not 1 <= fields["time_steps"] <= MAX_TIME_STEPS:
        # The solver marches at least the requested count, five times with
        # `comparison`, so a huge count would run for hours.
        raise ScenarioError(f"time_steps must be in [1, {MAX_TIME_STEPS}] (bsde.MAX_TIME_STEPS), "
                            f"got {fields['time_steps']}")
    if fields["theta_grid"] < 2:
        raise ScenarioError(f"theta_grid must be >= 2, got {fields['theta_grid']}")
    kind = fields["payoff_kind"]
    if kind in ("call", "put", "digital"):
        if fields["strike"] is None:
            raise ScenarioError(f"payoff {kind} requires a strike")
        if fields["strike"] <= 0:
            raise ScenarioError(f"strike must be positive, got {fields['strike']}")
        if kind in ("call", "put") and fields["s0"] / fields["strike"] == 0.0:
            # The call and put closed forms take log(s0 / strike).
            raise ScenarioError(f"s0 / strike underflows to 0 in float64 "
                                f"(s0 = {fields['s0']}, strike = {fields['strike']})")
    else:
        if not fields["expr"]:
            raise ScenarioError("custom payoff requires an expr")
        parse_payoff_expression(fields["expr"])  # fail-closed on load
    return Scenario(**fields)


# ---------------------------------------------------------------------------
# report structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorEntry:
    name: str
    value: float
    std_error: float
    note: str = ""


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    status: str  # "pass" | "fail" | "not_applicable"
    detail: str


@dataclass
class Report:
    scenario_path: str
    scenario: Scenario
    entries: list[EstimatorEntry]
    discrepancy: np.ndarray
    checks: list[CheckOutcome]
    metadata: dict

    def entry(self, name: str) -> EstimatorEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def failed_checks(self) -> list[CheckOutcome]:
        return [c for c in self.checks if c.status == "fail"]


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

@dataclass
class RunContext:
    """Everything the checks need, computed once."""

    scenario: Scenario
    model: MarketModel
    payoff: Payoff
    bundle: PathBundle
    values: np.ndarray
    family: tuple[ThetaControl, ...]
    weights: np.ndarray
    moments: dict  # each weight column's "means" and "ses", from weight_matrix
    cap_upper: Capacity
    cap_lower: Capacity
    solution_upper: GridSolution
    solution_lower: GridSolution
    entries: dict[str, EstimatorEntry]
    threads: int = 1

    def subsample(self, limit: int = CHECK_SUBSAMPLE):
        m = min(self.bundle.n_paths, limit)
        sub_bundle = PathBundle(
            grid=self.bundle.grid,
            n_paths=m,
            seed=self.bundle.seed,
            brownian_increments=self.bundle.brownian_increments[:m],
            states=self.bundle.states[:m],
            valid=None if self.bundle.valid is None else self.bundle.valid[:m],
        )
        return sub_bundle, self.values[:m], self.weights[:m]

    @cached_property
    def sub_capacities(self) -> tuple[Capacity, Capacity]:
        """The upper and lower capacity on the subsample, sharing its totals."""
        sub_bundle, _, sub_weights = self.subsample()
        upper = build_capacity("upper", self.family, sub_bundle, weights=sub_weights)
        return upper, replace(upper, orientation="lower")


# Spawn keys of the auxiliary streams, one per check that draws events.
_DUALITY_STREAM = 0
_SUBMODULARITY_STREAM = 1


def _aux_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for one auxiliary stream of the scenario seed.

    Each check that draws random events gets its own stream, spawned from
    the one scenario seed and told apart by its spawn key.  The seed is
    folded into [0, 2**64) the way generate_brownian folds the path seed, so
    negative seeds work.
    """
    return np.random.default_rng(
        np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(stream,)))


def _choquet_std_error(influence: np.ndarray) -> float:
    """Standard error of the exact integral: the spread of each path's
    influence on it (the infinitesimal jackknife), over sqrt(n)."""
    return float(influence.std(ddof=1) / math.sqrt(influence.size))


def run_scenario(scenario: Scenario, scenario_path: str = "<memory>", threads: int = 1,
                 extra_checks: tuple[str, ...] = ()) -> Report:
    """Execute the full pipeline on a validated scenario."""
    start = time.perf_counter()
    requested: list[str] = list(scenario.checks)
    for name in extra_checks:
        if name not in KNOWN_CHECKS:
            raise ScenarioError(f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}")
        if name not in requested:
            requested.append(name)
    model = scenario.build_model()
    payoff = scenario.build_payoff()
    # Every solve below uses a driver Lipschitz in z with constant <= k.
    try:
        fd_steps = minimal_time_steps(model, scenario.horizon, scenario.nodes,
                                      lipschitz_z=scenario.k)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    if fd_steps > MAX_TIME_STEPS:
        raise ScenarioError(
            f"the FD grid needs {fd_steps} time steps on {scenario.nodes} nodes, above the "
            f"limit of {MAX_TIME_STEPS}; raise sigma or use fewer nodes")

    grid = TimeGrid(scenario.horizon, scenario.steps)
    bundle = simulate_sde(model, generate_brownian(grid, scenario.n_paths, scenario.seed))
    terminal = bundle.terminal()
    # Spot-check the declared direction before anything consumes it.
    probe = np.unique(np.concatenate([
        np.quantile(terminal, np.linspace(0.0, 1.0, 257)),
        [scenario.strike] if scenario.strike is not None else [],
    ]))
    try:
        payoff.check_monotonicity(probe)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    try:
        values = payoff.map(terminal)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    family = default_control_family(scenario.k, scenario.theta_grid)
    moments: dict = {}
    try:
        weights = weight_matrix(family, bundle, threads=threads, moments=moments)
    except ValueError as exc:
        raise ScenarioError(f"{exc}: k or the horizon is too large") from exc

    mm = minimax_expectation(payoff, family, bundle, weights=weights)
    cap_upper = build_capacity("upper", family, bundle, weights=weights)
    cap_lower = replace(cap_upper, orientation="lower")
    # Both sides from one sort and one sweep of the payoff.  map keeps no
    # reference, so each influence is freed once its SE is taken.
    (cho_upper, cho_upper_se), (cho_lower, cho_lower_se) = map(
        lambda estimate: (estimate[0], _choquet_std_error(estimate[1])),
        choquet_estimates(values, (cap_upper, cap_lower)))

    fd_note = ""
    if payoff.kind == "digital":
        fd_note = "discontinuous terminal condition: grid bias larger than for smooth payoffs"
    # The zsign check reads the extreme each solve streams, not a surface.
    sol_upper, sol_lower = (
        solve_fd(model, payoff, side(scenario.k), scenario.horizon, nodes=scenario.nodes,
                 time_steps=scenario.time_steps, substep=scenario.fd_substep, store_surfaces=False)
        for side in (Generator.abs_upper, Generator.abs_lower))

    if payoff.monotonicity == "none":
        ext_entries = [EstimatorEntry(name, float("nan"), float("nan"),
                                      "not applicable: payoff lacks a monotone direction")
                       for name in ("extremal_upper", "extremal_lower")]
    else:
        use_closed = model.gbm_constants is not None and payoff.kind in ("call", "put")
        ext = extremal_price(payoff, model, scenario.horizon, bundle=bundle, closed_form=use_closed)
        ext_entries = [
            EstimatorEntry("extremal_upper", ext.upper, ext.upper_se, ext.method),
            EstimatorEntry("extremal_lower", ext.lower, ext.lower_se, ext.method),
        ]

    plain = float(values.mean())
    plain_se = float(values.std(ddof=1) / math.sqrt(values.size))

    entries = {
        "choquet_upper": EstimatorEntry("choquet_upper", cho_upper, cho_upper_se),
        "choquet_lower": EstimatorEntry("choquet_lower", cho_lower, cho_lower_se),
        "minimax_upper": EstimatorEntry("minimax_upper", mm.upper, mm.std_errors[0],
                                        mm.argmax_control.label()),
        "minimax_lower": EstimatorEntry("minimax_lower", mm.lower, mm.std_errors[1],
                                        mm.argmin_control.label()),
        "bsde_upper": EstimatorEntry("bsde_upper", sol_upper.y0, 0.0, fd_note),
        "bsde_lower": EstimatorEntry("bsde_lower", sol_lower.y0, 0.0, fd_note),
        "extremal_upper": ext_entries[0],
        "extremal_lower": ext_entries[1],
        "plain": EstimatorEntry("plain", plain, plain_se),
    }

    ctx = RunContext(
        scenario=scenario, model=model, payoff=payoff, bundle=bundle, values=values,
        family=family, weights=weights, moments=moments, cap_upper=cap_upper,
        cap_lower=cap_lower, solution_upper=sol_upper, solution_lower=sol_lower,
        entries=entries, threads=threads,
    )

    outcomes = [CHECK_REGISTRY[name](ctx) for name in requested]

    order = [entries[name] for name in ESTIMATOR_ORDER]
    vals = np.array([e.value for e in order])
    discrepancy = np.abs(vals[:, None] - vals[None, :])

    elapsed = time.perf_counter() - start
    metadata = {
        "seed": scenario.seed,
        "n_paths": scenario.n_paths,
        "steps": scenario.steps,
        "nodes": scenario.nodes,
        "time_steps_requested": scenario.time_steps,
        "time_steps_used": sol_upper.time_steps,
        "theta_grid": scenario.theta_grid,
        "family_size": len(family),
        "threads": threads,
        "runtime_seconds": elapsed,
    }
    return Report(
        scenario_path=scenario_path,
        scenario=scenario,
        entries=order,
        discrepancy=discrepancy,
        checks=outcomes,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_chain(ctx: RunContext) -> CheckOutcome:
    """Pairwise agreement of the four upper estimates and the four lower ones."""
    rel = 0.01
    fd_rel = 0.03 if ctx.payoff.kind == "digital" else rel
    worst: tuple[float, str] = (-1.0, "")
    for side in ("upper", "lower"):
        names = [f"choquet_{side}", f"minimax_{side}", f"bsde_{side}", f"extremal_{side}"]
        entries = [ctx.entries[n] for n in names]
        if any(math.isnan(e.value) for e in entries):
            return CheckOutcome("chain", "not_applicable",
                                "extremal estimates unavailable for non-monotone payoff")
        for i in range(4):
            for j in range(i + 1, 4):
                a, b = entries[i], entries[j]
                scale = max(abs(a.value), abs(b.value), 1e-8)
                rel_pair = fd_rel if "bsde" in (a.name + b.name) else rel
                tol = max(rel_pair * scale, pooled_tolerance([a.std_error, b.std_error]))
                gap = abs(a.value - b.value)
                excess = gap - tol
                if excess > worst[0]:
                    worst = (excess, f"{a.name} vs {b.name}: |{a.value:.6g} - {b.value:.6g}| "
                                     f"= {gap:.3g} (tol {tol:.3g})")
    status = "pass" if worst[0] <= 0.0 else "fail"
    return CheckOutcome("chain", status, worst[1])


def _check_degeneracy(ctx: RunContext) -> CheckOutcome:
    """With k = 0 all nine estimates must collapse onto the plain price."""
    plain = ctx.entries["plain"]
    worst: tuple[float, str] = (-math.inf, "")
    for name in ESTIMATOR_ORDER:
        e = ctx.entries[name]
        if math.isnan(e.value):
            continue
        scale = max(abs(plain.value), 1.0)
        tol = max(pooled_tolerance([e.std_error, plain.std_error]), 0.005 * scale if "bsde" in name else 0.0)
        tol = max(tol, 1e-9 * scale)
        excess = abs(e.value - plain.value) - tol
        if excess > worst[0]:
            worst = (excess, f"{name} = {e.value:.6g} vs plain = {plain.value:.6g} (tol {tol:.3g})")
    status = "pass" if worst[0] <= 0.0 else "fail"
    detail = worst[1]
    if ctx.scenario.k > 0.0:
        detail += f" [k = {ctx.scenario.k:g}, degeneracy expected only at k = 0]"
    return CheckOutcome("degeneracy", status, detail)


def _check_duality(ctx: RunContext) -> CheckOutcome:
    """Exact conjugacy on the subsample: the Choquet integrals satisfy
    lower(X) = -upper(-X), and lower cap = 1 - upper cap of the complement."""
    scale = max(1.0, abs(ctx.entries["minimax_upper"].value))
    _, sub_values, _ = ctx.subsample()
    cap_u, cap_l = ctx.sub_capacities
    # Two sorts, -X's ties reversed, and an argmin against an argmax.
    [(lower, _)] = choquet_estimates(sub_values, (cap_l,))
    [(upper_neg, _)] = choquet_estimates(-sub_values, (cap_u,))
    gap_choquet = abs(lower + upper_neg)

    rng = _aux_rng(ctx.scenario.seed, _DUALITY_STREAM)
    gap_cap = 0.0
    for a, _ in random_threshold_pairs(sub_values, 20, rng):
        gap_cap = max(gap_cap, abs(cap_l.evaluate(a) - (1.0 - cap_u.evaluate(~a))))

    tol = 1e-10 * scale
    ok = gap_choquet <= tol and gap_cap <= 1e-10
    detail = (f"|choquet lower(X) + upper(-X)| = {gap_choquet:.2e} (tol {tol:.1e}) on "
              f"{sub_values.size} paths; max capacity conjugacy gap = {gap_cap:.2e} over 20 events")
    return CheckOutcome("duality", "pass" if ok else "fail", detail)


def _check_sandwich(ctx: RunContext) -> CheckOutcome:
    """Order relations between the estimator families, with noise tolerances."""
    e = ctx.entries
    fd_tol = 0.005 * max(1.0, abs(e["bsde_upper"].value), abs(e["bsde_lower"].value))

    def mc_tol(*names: str) -> float:
        return pooled_tolerance([e[n].std_error for n in names])

    # The FD values carry grid error, and an extremal value from the
    # reweighting route carries Monte Carlo error on top (its SE is 0 in
    # closed form); each extremal-vs-BSDE condition tolerates both.
    conditions = [
        ("choquet_lower <= minimax_lower",
         e["minimax_lower"].value - e["choquet_lower"].value,
         mc_tol("choquet_lower", "minimax_lower")),
        ("minimax_upper <= choquet_upper",
         e["choquet_upper"].value - e["minimax_upper"].value,
         mc_tol("choquet_upper", "minimax_upper")),
        ("minimax_lower <= minimax_upper",
         e["minimax_upper"].value - e["minimax_lower"].value, 0.0),
        ("choquet_lower <= choquet_upper",
         e["choquet_upper"].value - e["choquet_lower"].value,
         mc_tol("choquet_lower", "choquet_upper")),
        ("bsde_lower <= bsde_upper",
         e["bsde_upper"].value - e["bsde_lower"].value, fd_tol),
    ]
    if not math.isnan(e["extremal_upper"].value):
        conditions += [
            ("extremal_lower <= minimax_lower",
             e["minimax_lower"].value - e["extremal_lower"].value,
             mc_tol("extremal_lower", "minimax_lower")),
            ("minimax_upper <= extremal_upper",
             e["extremal_upper"].value - e["minimax_upper"].value,
             mc_tol("extremal_upper", "minimax_upper")),
            ("bsde_upper <= extremal_upper",
             e["extremal_upper"].value - e["bsde_upper"].value,
             fd_tol + mc_tol("extremal_upper")),
            ("extremal_lower <= bsde_lower",
             e["bsde_lower"].value - e["extremal_lower"].value,
             fd_tol + mc_tol("extremal_lower")),
        ]
    failures = [(name, slack, tol) for name, slack, tol in conditions if slack < -tol]
    if failures:
        name, slack, tol = failures[0]
        return CheckOutcome("sandwich", "fail",
                            f"{name} violated by {-slack:.3g} (tol {tol:.3g})")
    return CheckOutcome("sandwich", "pass", f"{len(conditions)} order relations hold")


def _check_normalization(ctx: RunContext) -> CheckOutcome:
    n = ctx.bundle.n_paths
    empty = np.zeros(n, dtype=bool)
    full = np.ones(n, dtype=bool)
    gaps = []
    for cap in (ctx.cap_upper, ctx.cap_lower):
        gaps.append(abs(cap.evaluate(empty) - 0.0))
        gaps.append(abs(cap.evaluate(full) - 1.0))
    ok = all(g == 0.0 for g in gaps)
    return CheckOutcome("normalization", "pass" if ok else "fail",
                        f"|c(empty)|, |c(full)-1| = {[f'{g:.1e}' for g in gaps]} (must be exactly 0)")


def _check_martingale(ctx: RunContext) -> CheckOutcome:
    # The mean of each density column is its expectation of the payoff 1,
    # reduced once by weight_matrix for its own warning.
    worst = (0.0, "")
    for control, mean, se in zip(ctx.family, ctx.moments["means"], ctx.moments["ses"]):
        if se == 0.0:
            continue
        pull = abs(mean - 1.0) / se
        if pull > worst[0]:
            worst = (pull, control.label())
    ok = worst[0] <= 4.0
    return CheckOutcome("martingale", "pass" if ok else "fail",
                        f"max |mean - 1| = {worst[0]:.2f} SE at {worst[1] or 'n/a'} (limit 4)")


def _check_zsign(ctx: RunContext) -> CheckOutcome:
    report = z_sign_check(ctx.solution_upper)
    detail = (f"monotonicity={report.monotonicity}, extreme z = {report.extreme:.3g}, "
              f"threshold {report.threshold:.1e}, band {report.band:.0%}")
    return CheckOutcome("zsign", report.status, detail)


def _check_comparison(ctx: RunContext) -> CheckOutcome:
    """Linear-driver values must sit inside the abs-driver band."""
    s = ctx.scenario
    lo = ctx.entries["bsde_lower"].value
    hi = ctx.entries["bsde_upper"].value
    tol = 0.005 * max(1.0, abs(lo), abs(hi))
    for nu in (-s.k, 0.0, s.k):
        sol = solve_fd(ctx.model, ctx.payoff, Generator.linear(nu), s.horizon,
                       nodes=s.nodes, time_steps=s.time_steps, substep=s.fd_substep,
                       store_surfaces=False)
        if not (lo - tol <= sol.y0 <= hi + tol):
            return CheckOutcome(
                "comparison", "fail",
                f"linear driver nu={nu:g} gives y0={sol.y0:.6g} outside "
                f"[{lo:.6g}, {hi:.6g}] +- {tol:.3g}")
    return CheckOutcome("comparison", "pass",
                        f"linear drivers in {{-k, 0, k}} stay within the abs-driver band (tol {tol:.3g})")


def _check_attainment(ctx: RunContext) -> CheckOutcome:
    if ctx.payoff.monotonicity == "none":
        return CheckOutcome("attainment", "not_applicable",
                            "payoff lacks a monotone direction")
    sub_bundle, _, _ = ctx.subsample()
    report = attainment_check(ctx.payoff, ctx.scenario.k, sub_bundle, fine_grid_count=21)
    ok = bool(report.boundary_attained) and bool(report.monotone_profile_ok)
    detail = (f"argmax at theta={report.thetas[report.argmax_index]:+.4g}, "
              f"boundary={report.boundary_attained}, monotone profile={report.monotone_profile_ok}, "
              f"{len(report.violations)} violations")
    return CheckOutcome("attainment", "pass" if ok else "fail", detail)


def _check_submodularity(ctx: RunContext) -> CheckOutcome:
    _, sub_values, _ = ctx.subsample()
    rng = _aux_rng(ctx.scenario.seed, _SUBMODULARITY_STREAM)
    pairs = random_threshold_pairs(sub_values, 200, rng)
    tol = 3.0 / math.sqrt(sub_values.size)
    report = submodularity_check(ctx.sub_capacities[0], pairs, tolerance=tol)
    detail = (f"max 2-alternating defect {report.max_violation:.2e} over {report.count} "
              f"threshold pairs (tol {tol:.2e})")
    return CheckOutcome("submodularity", "pass" if report.passed else "fail", detail)


def _check_l2bound(ctx: RunContext) -> CheckOutcome:
    values = ctx.values
    n = values.size
    m2 = float(np.mean(values**2))
    se_m2 = float(np.std(values**2, ddof=1) / math.sqrt(n))
    bound = math.sqrt(m2) * math.exp(0.5 * ctx.scenario.k**2 * ctx.scenario.horizon)
    se_bound = 0.0 if m2 == 0.0 else se_m2 / (2.0 * math.sqrt(m2))
    upper = ctx.entries["minimax_upper"]
    tol = pooled_tolerance([upper.std_error, se_bound])
    ok = upper.value <= bound + tol
    ratio = 0.0 if bound == 0.0 else upper.value / bound
    return CheckOutcome("l2bound", "pass" if ok else "fail",
                        f"upper = {upper.value:.6g} vs bound {bound:.6g} "
                        f"(ratio {ratio:.3f}, tol {tol:.3g})")


def _check_holder(ctx: RunContext) -> CheckOutcome:
    _, sub_values, _ = ctx.subsample()
    terminal = ctx.bundle.terminal()[:sub_values.size]
    s0 = ctx.scenario.s0
    level = np.abs(terminal) / s0
    pairs = [(sub_values, level), (np.abs(terminal - s0), level), (sub_values, sub_values)]
    reports = choquet_holder_checks(pairs, ctx.sub_capacities[0], p=2.0, q=2.0)
    ok = all(rep.passed for rep in reports)
    detail = "; ".join(f"pair {i}: margin {rep.margin:.3g} (tol {rep.tolerance:.3g})"
                       for i, rep in enumerate(reports))
    return CheckOutcome("holder", "pass" if ok else "fail", detail)


CHECK_REGISTRY = {
    "chain": _check_chain,
    "degeneracy": _check_degeneracy,
    "duality": _check_duality,
    "sandwich": _check_sandwich,
    "normalization": _check_normalization,
    "martingale": _check_martingale,
    "zsign": _check_zsign,
    "comparison": _check_comparison,
    "attainment": _check_attainment,
    "submodularity": _check_submodularity,
    "l2bound": _check_l2bound,
    "holder": _check_holder,
}


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

_SHORT = {
    "choquet_upper": "cho_u", "choquet_lower": "cho_l",
    "minimax_upper": "mm_u", "minimax_lower": "mm_l",
    "bsde_upper": "bsde_u", "bsde_lower": "bsde_l",
    "extremal_upper": "ext_u", "extremal_lower": "ext_l",
    "plain": "plain",
}


def _fmt(value: float) -> str:
    return format(value, ".12g")


def emit_text(report: Report) -> str:
    s = report.scenario
    lines = [
        f"scenario: {report.scenario_path}",
        f"market: s0={s.s0:g} mu={s.mu:g} sigma={s.sigma:g} horizon={s.horizon:g} k={s.k:g}",
        f"payoff: {s.payoff_kind}"
        + (f" strike={s.strike:g}" if s.strike is not None else "")
        + (f" expr={s.expr}" if s.expr else ""),
        f"paths: {s.n_paths} x {s.steps} steps   seed: {s.seed}   "
        f"threads: {report.metadata['threads']}",
        "",
        f"{'estimator':<16} {'value':>16} {'std_error':>12}  note",
    ]
    for e in report.entries:
        lines.append(f"{e.name:<16} {e.value:>16.8f} {e.std_error:>12.2e}  {e.note}")
    lines.append("")
    lines.append("pairwise absolute differences")
    header = " " * 7 + "".join(f"{_SHORT[n]:>9}" for n in ESTIMATOR_ORDER)
    lines.append(header)
    for i, name in enumerate(ESTIMATOR_ORDER):
        row = f"{_SHORT[name]:<7}" + "".join(f"{report.discrepancy[i, j]:>9.3g}"
                                             for j in range(len(ESTIMATOR_ORDER)))
        lines.append(row)
    if report.checks:
        lines.append("")
        lines.append("checks")
        for c in report.checks:
            lines.append(f"{c.name:<15} {c.status:<15} {c.detail}")
    lines.append("")
    lines.append(f"runtime: {report.metadata['runtime_seconds']:.2f} s   "
                 f"fd time steps used: {report.metadata['time_steps_used']}")
    return "\n".join(lines) + "\n"


def emit_csv(report: Report) -> str:
    rows = ["estimator,value,std_error"]
    for e in report.entries:
        rows.append(f"{e.name},{_fmt(e.value)},{_fmt(e.std_error)}")
    return "\n".join(rows) + "\n"


def emit_structured(report: Report) -> str:
    def clean(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    s = report.scenario
    payload = {
        "scenario": {
            "path": report.scenario_path,
            "s0": s.s0, "mu": s.mu, "sigma": s.sigma, "horizon": s.horizon, "k": s.k,
            "payoff": s.payoff_kind, "strike": s.strike, "expr": s.expr,
            "monotonicity": s.monotonicity,
            "n_paths": s.n_paths, "steps": s.steps, "seed": s.seed,
            "nodes": s.nodes, "time_steps": s.time_steps,
            "theta_grid": s.theta_grid,
        },
        "estimators": [
            {"name": e.name, "value": clean(e.value), "std_error": clean(e.std_error),
             "note": e.note}
            for e in report.entries
        ],
        "discrepancy": [[clean(float(v)) for v in row] for row in report.discrepancy],
        "checks": [
            {"name": c.name, "status": c.status, "detail": c.detail} for c in report.checks
        ],
        "metadata": {k: v for k, v in report.metadata.items() if k != "runtime_seconds"},
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def emit(report: Report, fmt: str) -> str:
    if fmt == "text":
        return emit_text(report)
    if fmt == "csv":
        return emit_csv(report)
    if fmt == "json-like":
        return emit_structured(report)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="price",
        description="Price a claim under bounded drift ambiguity with nine estimators.",
    )
    parser.add_argument("--scenario", required=True, help="path to a key=value scenario file")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--paths", type=int, default=None, help="override n_paths")
    parser.add_argument("--steps", type=int, default=None, help="override simulation steps")
    parser.add_argument("--theta-grid", type=int, default=None, help="override theta grid size")
    parser.add_argument("--out", default=None, help="write the report to this file instead of stdout")
    parser.add_argument("--format", choices=("text", "csv", "json-like"), default="text")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for family evaluation")
    parser.add_argument("--check", action="append", default=[], metavar="NAME",
                        help="run a named consistency check (repeatable)")
    args = parser.parse_args(argv)

    overrides = {
        "seed": args.seed,
        "n_paths": args.paths,
        "steps": args.steps,
        "theta_grid": args.theta_grid,
    }
    try:
        scenario = load_scenario(args.scenario, overrides)
        if args.threads < 1:
            raise ScenarioError(f"--threads must be >= 1, got {args.threads}")
        # A scenario whose scale overflows float64 is a bad scenario: numpy
        # raises at the first overflow, as Python's math functions do,
        # instead of warning and going on with infinities.
        with np.errstate(over="raise"):
            report = run_scenario(scenario, scenario_path=args.scenario, threads=args.threads,
                                  extra_checks=tuple(args.check))
        rendered = emit(report, args.format)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(rendered)
            except OSError as exc:
                print(f"cannot write --out file: {exc}", file=sys.stderr)
                return EXIT_BAD_SCENARIO
        else:
            sys.stdout.write(rendered)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_BAD_SCENARIO
    except (FloatingPointError, OverflowError) as exc:
        print(f"scenario error: the scenario leaves the float64 range ({exc})", file=sys.stderr)
        return EXIT_BAD_SCENARIO
    except GridTooCoarseError as exc:
        print(f"grid rejected: {exc}", file=sys.stderr)
        return EXIT_GRID_REJECTED
    except Exception as exc:  # the last boundary: one line, no traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR

    failed = report.failed_checks
    if failed:
        for c in failed:
            print(f"check failed: {c.name}: {c.detail}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
