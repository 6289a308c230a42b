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
import itertools
import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property
from typing import Callable, Literal, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .bsde import (
    DEFAULT_NODES,
    DEFAULT_TIME_STEPS,
    MAX_TIME_STEPS,
    Generator,
    GridSolution,
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
    threshold_event,
)
from .errors import GridTooCoarseError, ScenarioError
from .measures import (
    DensityRows,
    Spread,
    Sums,
    ThetaControl,
    default_control_family,
    standard_error,
)
from .minimax import (
    ExtremalReport,
    attainment_check,
    extremal_price,
    has_closed_form,
    minimax_expectation,
    pooled_tolerance,
)
from .paths import MarketModel, PathBundle, TimeGrid, generate_brownian, simulate_sde

# The nine estimators in report order, each with its column in the text report.
_SHORT = {
    "choquet_upper": "cho_u", "choquet_lower": "cho_l",
    "minimax_upper": "mm_u", "minimax_lower": "mm_l",
    "bsde_upper": "bsde_u", "bsde_lower": "bsde_l",
    "extremal_upper": "ext_u", "extremal_lower": "ext_l",
    "plain": "plain",
}
ESTIMATOR_ORDER = tuple(_SHORT)

# Heavy structural checks run on a deterministic prefix of the paths.
CHECK_SUBSAMPLE = 100_000

# The FD solve marches the upper and lower drivers +-k|z| and, for the
# `comparison` check, the linear drivers nu * z with nu = sign * k after them.
FD_DRIVERS = (Generator.abs_upper, Generator.abs_lower)
COMPARISON_SIGNS = (-1.0, 0.0, 1.0)

# The checks' fixed tolerances: an FD value's slack, of the FD scale
# max(1, |FD values|); `chain`'s relative gap, and its gap for a digital's FD
# pairs (a discontinuous terminal condition); `duality`'s, of the value scale;
# `martingale`'s, in standard errors of a density's sample mean from 1.
FD_REL = 0.005
CHAIN_REL = 0.01
CHAIN_DIGITAL_FD_REL = 0.03
DUALITY_REL = 1e-10
MARTINGALE_LIMIT = 4.0

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

@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Validated scenario: GBM market, payoff, and estimator settings.

    The fields are the scenario file's keys (`payoff_kind` is read from the
    key `payoff`), in the json-like report's order.  A field without a
    default is a required key; the others are optional with that default.
    Each value is parsed by the field's type, and a Literal type lists the
    values the key accepts.
    """

    s0: float
    mu: float
    sigma: float
    horizon: float
    k: float
    payoff_kind: Literal[(*Payoff.BUILT_IN, "custom")]
    strike: Optional[float] = None
    expr: Optional[str] = None
    monotonicity: Literal["increasing", "decreasing", "none"] = "none"
    n_paths: int
    steps: int
    seed: int
    nodes: int = DEFAULT_NODES
    time_steps: int = DEFAULT_TIME_STEPS
    theta_grid: int = 21
    fd_substep: bool = True
    checks: tuple[str, ...] = ()

    def build_payoff(self) -> Payoff:
        if self.payoff_kind in Payoff.BUILT_IN:
            return getattr(Payoff, self.payoff_kind)(self.strike)
        fn = parse_payoff_expression(self.expr)
        return Payoff.custom(name=f"custom({self.expr})", fn=fn, monotonicity=self.monotonicity)

    def build_model(self) -> MarketModel:
        return MarketModel.gbm(self.s0, self.mu, self.sigma, self.k)


# Each key of a scenario file and the Scenario field it sets, and each
# field's type resolved from its annotation.
SCENARIO_KEYS = {("payoff" if f.name == "payoff_kind" else f.name): f for f in fields(Scenario)}
_FIELD_TYPES = get_type_hints(Scenario)


def _parse_number(value: str, key: str, line: int) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ScenarioError(f"{key} must be a number, got {value!r}", line) from None
    if not math.isfinite(out):
        raise ScenarioError(f"{key} must be finite, got {value!r}", line)
    return out


def _parse_integer(value: str, key: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(f"{key} must be an integer, got {value!r}", line) from None


def _parse_bool(value: str, key: str, line: int) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ScenarioError(f"{key} must be true or false, got {value!r}", line)


def _require_known_checks(names: tuple[str, ...], line: Optional[int] = None) -> None:
    for name in names:
        if name not in CHECK_REGISTRY:
            raise ScenarioError(f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}", line)


def _parse_checks(value: str, key: str, line: int) -> tuple[str, ...]:
    names = tuple(part.strip() for part in value.split(",") if part.strip())
    if not names:
        raise ScenarioError(f"{key} names no check, got {value!r}", line)
    _require_known_checks(names, line)
    return names


_PARSERS = {
    float: _parse_number,
    int: _parse_integer,
    bool: _parse_bool,
    str: lambda value, key, line: value,
    tuple[str, ...]: _parse_checks,
}


def _parse_value(key: str, kind, value: str, line: int) -> object:
    """One value parsed by its field's type; an Optional field by its inner type."""
    if get_origin(kind) is Union:
        kind = get_args(kind)[0]
    if get_origin(kind) is Literal:
        if value not in get_args(kind):
            raise ScenarioError(f"{key} must be {'/'.join(get_args(kind))}, got {value!r}", line)
        return value
    return _PARSERS[kind](value, key, line)


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
        if key not in SCENARIO_KEYS:
            raise ScenarioError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ScenarioError(f"empty value for {key!r}", lineno)
        raw[key] = (value, lineno)

    for key, field in SCENARIO_KEYS.items():
        if field.default is MISSING and key not in raw:
            raise ScenarioError(f"missing required key {key!r} in {path}")
    scenario = Scenario(**{
        field.name: _parse_value(key, _FIELD_TYPES[field.name], *raw[key])
        for key, field in SCENARIO_KEYS.items() if key in raw})

    # Keys the payoff would echo in the report without pricing them: a
    # built-in payoff is priced from its own formula, strike and direction,
    # a custom one from its expr.
    kind = scenario.payoff_kind
    if kind in Payoff.BUILT_IN:
        own = getattr(Payoff, kind)(1.0).monotonicity
        if scenario.monotonicity not in ("none", own):
            raise ScenarioError(f"monotonicity {scenario.monotonicity} contradicts payoff "
                                f"{kind}, which is {own}", raw["monotonicity"][1])
        if scenario.expr is not None:
            raise ScenarioError(f"expr applies to payoff custom only, not {kind}",
                                raw["expr"][1])
    elif scenario.strike is not None:
        raise ScenarioError(f"strike applies to payoff {'/'.join(Payoff.BUILT_IN)} only, "
                            f"not {kind}", raw["strike"][1])

    if overrides:
        scenario = replace(scenario, **{k: v for k, v in overrides.items() if v is not None})
    _validate_scenario(scenario)
    return scenario


# (field, whether a value is in range, the range as the message states it)
_RANGES = (
    ("s0", lambda v: v > 0, "positive"),
    # At sigma = 0 the solver's grid collapses and its step count explodes.
    ("sigma", lambda v: v > 0, "> 0"),
    ("horizon", lambda v: v > 0, "positive"),
    ("k", lambda v: v >= 0, ">= 0"),
    # Every standard error needs at least two paths.
    ("n_paths", lambda v: v >= 2, ">= 2"),
    ("steps", lambda v: v >= 1, ">= 1"),
    ("nodes", lambda v: v >= 5, ">= 5"),
    # The solver marches at least the requested count, for up to five
    # driver rows in one march, so a huge count would run for hours.
    ("time_steps", lambda v: 1 <= v <= MAX_TIME_STEPS,
     f"in [1, {MAX_TIME_STEPS}] (bsde.MAX_TIME_STEPS)"),
    ("theta_grid", lambda v: v >= 2, ">= 2"),
)


def _validate_scenario(s: Scenario) -> None:
    for name, in_range, bound in _RANGES:
        if not in_range(getattr(s, name)):
            raise ScenarioError(f"{name} must be {bound}, got {getattr(s, name)}")
    if s.payoff_kind in Payoff.BUILT_IN:
        if s.strike is None:
            raise ScenarioError(f"payoff {s.payoff_kind} requires a strike")
        if s.strike <= 0:
            raise ScenarioError(f"strike must be positive, got {s.strike}")
        if has_closed_form(s.build_payoff(), s.build_model()) and s.s0 / s.strike == 0.0:
            # The closed forms take log(s0 / strike).
            raise ScenarioError(f"s0 / strike underflows to 0 in float64 "
                                f"(s0 = {s.s0}, strike = {s.strike})")
    else:
        if not s.expr:
            raise ScenarioError("custom payoff requires an expr")
        parse_payoff_expression(s.expr)  # fail-closed on load


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
    """Everything the checks need, computed once.  `bundle` is the draw of
    the checks' first paths (PathBundle.head of at most CHECK_SUBSAMPLE),
    its S_T and `valid` copies, so that the run's n-path arrays are not
    held; its B_T and functionals are views of the weights' statistics.
    Two checks' reductions come from the run's shared passes, when the
    check is requested: `empty_sums`, the empty event's weight sums, for
    `normalization`, and `moments`, each density's mean (its total over n)
    and standard error, for `martingale`; each is None otherwise."""

    scenario: Scenario
    payoff: Payoff
    bundle: PathBundle
    values: np.ndarray
    family: tuple[ThetaControl, ...]
    weights: DensityRows
    cap_upper: Capacity
    cap_lower: Capacity
    fd: GridSolution  # rows: FD_DRIVERS, then COMPARISON_SIGNS with `comparison`
    entries: dict[str, EstimatorEntry]
    empty_sums: Optional[np.ndarray] = None
    moments: Optional[tuple[np.ndarray, np.ndarray]] = None

    def subsample(self) -> tuple[PathBundle, np.ndarray]:
        """The bundle and payoff values of the first paths."""
        return self.bundle, self.values[:self.bundle.n_paths]

    @cached_property
    def sub_capacities(self) -> tuple[Capacity, Capacity]:
        """The upper and lower capacity on the subsample, sharing its totals.
        Their weights are the head of the run's rows: the first paths'
        statistics, a view, with totals reduced over those rows alone."""
        upper = build_capacity("upper", self.weights.head(self.bundle.n_paths))
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
    return standard_error(influence)


def run_scenario(scenario: Scenario, scenario_path: str = "<memory>", threads: int = 1,
                 extra_checks: tuple[str, ...] = ()) -> Report:
    """Execute the full pipeline on a validated scenario."""
    start = time.perf_counter()
    _require_known_checks(extra_checks)
    # Each check named in the file or by --check runs once, in first-seen order.
    requested = tuple(dict.fromkeys((*scenario.checks, *extra_checks)))
    model = scenario.build_model()
    payoff = scenario.build_payoff()
    # Every driver marches the one grid in one solve, before any path is
    # drawn: solve_fd alone decides whether the grid is admissible.  The
    # zsign check reads the extreme the solve streams, not a surface.
    drivers = [make(scenario.k) for make in FD_DRIVERS]
    if "comparison" in requested:
        drivers += [Generator.linear(sign * scenario.k) for sign in COMPARISON_SIGNS]
    try:
        fd = solve_fd(model, payoff, tuple(drivers), scenario.horizon, nodes=scenario.nodes,
                      time_steps=scenario.time_steps, substep=scenario.fd_substep)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    bsde_upper, bsde_lower = fd.y0[:len(FD_DRIVERS)].tolist()

    grid = TimeGrid(scenario.horizon, scenario.steps)
    family = default_control_family(scenario.k, scenario.theta_grid)
    # The one draw of the run keeps the functional each bang-bang column needs.
    bundle = simulate_sde(model, generate_brownian(grid, scenario.n_paths, scenario.seed),
                          [c.theta_on_grid(grid) for c in family if c.kind == "bang_bang"])
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
    # Only the checks read S_T and `valid` from here on, on their first
    # paths: a copy of those is kept and the full arrays are freed.
    n = bundle.n_paths
    head = bundle.head(min(n, CHECK_SUBSAMPLE))
    head = replace(head, states=head.states.copy(), valid=head.valid.copy())
    bundle = replace(bundle, states=None, valid=None)
    del terminal

    # The weights are rebuilt from B_T and the functionals on every pass
    # over them, so each reduction of the run is planned into one of three
    # passes.  1. Building them checks every weight and sums each column,
    # the totals; it also sums the payoff, for minimax's means, and with
    # `normalization` the empty event (the full event's sums are the
    # totals).  They adopt the bundle's matrix of B_T and the functionals.
    payoff_sums = Sums(values, len(family))
    empty_sums = (Sums(np.zeros(n, dtype=bool), len(family))
                  if "normalization" in requested else None)
    try:
        weights = DensityRows(family, bundle, *filter(None, (payoff_sums, empty_sums)))
    except ValueError as exc:
        raise ScenarioError(f"{exc}: k or the horizon is too large") from exc
    del bundle
    cap_upper = build_capacity("upper", weights)
    cap_lower = replace(cap_upper, orientation="lower")
    # 2. One sort and one sweep of the payoff give both Choquet integrals
    # and all but the last term of their influences.  3. One natural pass
    # takes that last term, minimax's spread and the `martingale` spread,
    # whose means are the totals over n.
    means = payoff_sums.result / n
    spread = Spread(weights.shape, values, means)
    moments = (Spread(weights.shape, None, weights.totals / n)
               if "martingale" in requested else None)
    (cho_upper, if_upper), (cho_lower, if_lower) = choquet_estimates(
        values, (cap_upper, cap_lower), *filter(None, (spread, moments)))
    # A one-member family's profile takes the dense formula instead.
    mm = minimax_expectation(values, family, weights,
                             profile=(means, spread.result) if len(family) > 1 else None)
    # The influences are temporaries, freed once both SEs are taken.
    cho_upper_se, cho_lower_se = map(_choquet_std_error, (if_upper, if_lower))
    del if_upper, if_lower

    fd_note = ""
    if payoff.kind == "digital":
        fd_note = "discontinuous terminal condition: grid bias larger than for smooth payoffs"

    if payoff.monotonicity == "none":
        ext_entries = [EstimatorEntry(name, float("nan"), float("nan"),
                                      "not applicable: payoff lacks a monotone direction")
                       for name in ("extremal_upper", "extremal_lower")]
    else:
        if has_closed_form(payoff, model):
            ext = extremal_price(payoff, model, scenario.horizon)
        else:
            # The sampled band is the profile's +k and -k entries, which the
            # minimax search has already reduced.
            at_k = [family.index(ThetaControl.constant(theta, scenario.k))
                    for theta in (scenario.k, -scenario.k)]
            ext = ExtremalReport.from_profile(payoff.monotonicity, mm.estimates[at_k],
                                              mm.estimate_std_errors[at_k])
        ext_entries = [
            EstimatorEntry("extremal_upper", ext.upper, ext.upper_se, ext.method),
            EstimatorEntry("extremal_lower", ext.lower, ext.lower_se, ext.method),
        ]

    plain = float(values.mean())
    plain_se = standard_error(values)

    entries = {
        "choquet_upper": EstimatorEntry("choquet_upper", cho_upper, cho_upper_se),
        "choquet_lower": EstimatorEntry("choquet_lower", cho_lower, cho_lower_se),
        "minimax_upper": EstimatorEntry("minimax_upper", mm.upper, mm.std_errors[0],
                                        mm.argmax_control.label()),
        "minimax_lower": EstimatorEntry("minimax_lower", mm.lower, mm.std_errors[1],
                                        mm.argmin_control.label()),
        "bsde_upper": EstimatorEntry("bsde_upper", bsde_upper, 0.0, fd_note),
        "bsde_lower": EstimatorEntry("bsde_lower", bsde_lower, 0.0, fd_note),
        "extremal_upper": ext_entries[0],
        "extremal_lower": ext_entries[1],
        "plain": EstimatorEntry("plain", plain, plain_se),
    }

    ctx = RunContext(
        scenario=scenario, payoff=payoff, bundle=head, values=values,
        family=family, weights=weights, cap_upper=cap_upper, cap_lower=cap_lower, fd=fd,
        entries=entries, empty_sums=None if empty_sums is None else empty_sums.result,
        moments=None if moments is None else (weights.totals / n, moments.result),
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
        "time_steps_used": fd.time_steps,
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

def _judge(name: str, relations: list[tuple[float, str]],
           passed: Optional[str] = None) -> CheckOutcome:
    """A check's verdict on (excess, detail) relations, each holding when
    excess <= 0: it fails when an excess is above 0 or NaN.  The detail is
    the largest excess's (NaN the largest, the first on a tie), or on a pass
    `passed` when given."""
    excess, detail = max(relations, key=lambda r: math.inf if math.isnan(r[0]) else r[0])
    if excess <= 0.0:
        return CheckOutcome(name, "pass", detail if passed is None else passed)
    return CheckOutcome(name, "fail", detail)


def _fd_slack(*fd_values: float) -> float:
    """How far an FD value may sit off a relation: FD_REL of the FD scale."""
    return FD_REL * max(1.0, *(abs(v) for v in fd_values))


def _check_chain(ctx: RunContext) -> CheckOutcome:
    """Pairwise agreement of the four upper estimates and the four lower ones."""
    fd_rel = CHAIN_DIGITAL_FD_REL if ctx.payoff.kind == "digital" else CHAIN_REL
    relations = []
    for side in ("upper", "lower"):
        entries = [ctx.entries[f"{kind}_{side}"]
                   for kind in ("choquet", "minimax", "bsde", "extremal")]
        if any(math.isnan(e.value) for e in entries):
            return CheckOutcome("chain", "not_applicable",
                                "extremal estimates unavailable for non-monotone payoff")
        for a, b in itertools.combinations(entries, 2):
            scale = max(abs(a.value), abs(b.value), 1e-8)
            rel = fd_rel if "bsde" in (a.name + b.name) else CHAIN_REL
            tol = max(rel * scale, pooled_tolerance([a.std_error, b.std_error]))
            gap = abs(a.value - b.value)
            relations.append((gap - tol, f"{a.name} vs {b.name}: |{a.value:.6g} - {b.value:.6g}| "
                                         f"= {gap:.3g} (tol {tol:.3g})"))
    return _judge("chain", relations)


def _check_degeneracy(ctx: RunContext) -> CheckOutcome:
    """With k = 0 all nine estimates must collapse onto the plain price."""
    plain = ctx.entries["plain"]
    scale = max(abs(plain.value), 1.0)
    k = ctx.scenario.k
    note = f" [k = {k:g}, degeneracy expected only at k = 0]" if k > 0.0 else ""
    relations = []
    for e in map(ctx.entries.get, ESTIMATOR_ORDER):
        if math.isnan(e.value):
            continue
        tol = max(pooled_tolerance([e.std_error, plain.std_error]),
                  _fd_slack(plain.value) if "bsde" in e.name else 0.0, 1e-9 * scale)
        relations.append((abs(e.value - plain.value) - tol,
                          f"{e.name} = {e.value:.6g} vs plain = {plain.value:.6g} (tol {tol:.3g})"
                          + note))
    return _judge("degeneracy", relations)


def _check_duality(ctx: RunContext) -> CheckOutcome:
    """Exact conjugacy on the subsample: the Choquet integrals satisfy
    lower(X) = -upper(-X), and lower cap = 1 - upper cap of the complement."""
    scale = max(1.0, abs(ctx.entries["minimax_upper"].value))
    _, sub_values = ctx.subsample()
    cap_u, cap_l = ctx.sub_capacities
    # Two sorts, -X's ties reversed, and an argmin against an argmax.
    [(lower, _)] = choquet_estimates(sub_values, (cap_l,))
    [(upper_neg, _)] = choquet_estimates(-sub_values, (cap_u,))
    gap_choquet = abs(lower + upper_neg)

    # Each side weighs its 20 events in one pass.
    rng = _aux_rng(ctx.scenario.seed, _DUALITY_STREAM)
    events = np.stack([threshold_event(sub_values, t, above)
                       for (t, above), _ in random_threshold_pairs(sub_values, 20, rng)])
    gaps_cap = np.abs(cap_l.evaluate(events) - (1.0 - cap_u.evaluate(~events))).tolist()

    tol = DUALITY_REL * scale
    detail = (f"|choquet lower(X) + upper(-X)| = {gap_choquet:.2e} (tol {tol:.1e}) on "
              f"{sub_values.size} paths; max capacity conjugacy gap = {max(gaps_cap):.2e} "
              f"over 20 events")
    return _judge("duality", [(gap_choquet - tol, detail)]
                  + [(gap - DUALITY_REL, detail) for gap in gaps_cap])


def _check_sandwich(ctx: RunContext) -> CheckOutcome:
    """Order relations between the estimator families, with noise tolerances."""
    e = ctx.entries
    fd_tol = _fd_slack(e["bsde_upper"].value, e["bsde_lower"].value)

    def mc_tol(*names: str) -> float:
        return pooled_tolerance([e[n].std_error for n in names])

    def below(lo: str, hi: str, tol: float) -> tuple[float, str]:
        slack = e[hi].value - e[lo].value
        return -slack - tol, f"{lo} <= {hi} violated by {-slack:.3g} (tol {tol:.3g})"

    # The FD values carry grid error, and an extremal value from the
    # reweighting route carries Monte Carlo error on top (its SE is 0 in
    # closed form); each extremal-vs-BSDE condition tolerates both.
    relations = [
        below("choquet_lower", "minimax_lower", mc_tol("choquet_lower", "minimax_lower")),
        below("minimax_upper", "choquet_upper", mc_tol("choquet_upper", "minimax_upper")),
        below("minimax_lower", "minimax_upper", 0.0),
        below("choquet_lower", "choquet_upper", mc_tol("choquet_lower", "choquet_upper")),
        below("bsde_lower", "bsde_upper", fd_tol),
    ]
    if not math.isnan(e["extremal_upper"].value):
        relations += [
            below("extremal_lower", "minimax_lower", mc_tol("extremal_lower", "minimax_lower")),
            below("minimax_upper", "extremal_upper", mc_tol("extremal_upper", "minimax_upper")),
            below("bsde_upper", "extremal_upper", fd_tol + mc_tol("extremal_upper")),
            below("extremal_lower", "bsde_lower", fd_tol + mc_tol("extremal_lower")),
        ]
    return _judge("sandwich", relations, passed=f"{len(relations)} order relations hold")


def _check_normalization(ctx: RunContext) -> CheckOutcome:
    # Both capacities hold ctx.weights: the empty event's sums are reduced
    # as their totals were, and the full event's sums are those totals.
    sums = (ctx.empty_sums, ctx.weights.totals)
    gaps = [abs(cap.from_sums(event_sums) - target)
            for cap in (ctx.cap_upper, ctx.cap_lower)
            for event_sums, target in zip(sums, (0.0, 1.0))]
    detail = f"|c(empty)|, |c(full)-1| = {[f'{g:.1e}' for g in gaps]} (must be exactly 0)"
    return _judge("normalization", [(g, detail) for g in gaps])


def martingale_pulls(means: np.ndarray, ses: np.ndarray) -> np.ndarray:
    """How many SEs each density column's mean strays from 1 (0 where the SE
    is not positive); the `martingale` check fails on a pull above
    MARTINGALE_LIMIT."""
    return np.divide(np.abs(means - 1.0), ses, out=np.zeros_like(means), where=ses > 0.0)


def _check_martingale(ctx: RunContext) -> CheckOutcome:
    def detail(pull: float, at: str) -> str:
        return f"max |mean - 1| = {pull:.2f} SE at {at} (limit {MARTINGALE_LIMIT:g})"

    # The mean of each density column is its total over n, the capacities'
    # normaliser.  A column with no positive pull ties the first relation,
    # so it names none.
    means, ses = ctx.moments
    pulls = martingale_pulls(means, ses).tolist()
    return _judge("martingale", [(-MARTINGALE_LIMIT, detail(0.0, "n/a"))] + [
        (pull - MARTINGALE_LIMIT, detail(pull, control.label()))
        for control, pull in zip(ctx.family, pulls)])


def _check_zsign(ctx: RunContext) -> CheckOutcome:
    report = z_sign_check(ctx.fd.driver(0))
    detail = (f"monotonicity={report.monotonicity}, extreme z = {report.extreme:.3g}, "
              f"threshold {report.threshold:.1e}, band {report.band:.0%}")
    if report.monotonicity == "none":
        return CheckOutcome("zsign", "not_applicable", detail)
    sign = 1.0 if report.monotonicity == "increasing" else -1.0
    return _judge("zsign", [(-report.threshold - sign * report.extreme, detail)])


def _check_comparison(ctx: RunContext) -> CheckOutcome:
    """Linear-driver values must sit inside the abs-driver band."""
    lo = ctx.entries["bsde_lower"].value
    hi = ctx.entries["bsde_upper"].value
    tol = _fd_slack(lo, hi)
    relations = []
    # run_scenario marched the linear drivers after the abs ones.
    linear = ctx.fd.y0[len(FD_DRIVERS):]
    for sign, y0 in zip(COMPARISON_SIGNS, linear.tolist(), strict=True):
        detail = (f"linear driver nu={sign * ctx.scenario.k:g} gives y0={y0:.6g} outside "
                  f"[{lo:.6g}, {hi:.6g}] +- {tol:.3g}")
        relations += [((lo - tol) - y0, detail), (y0 - (hi + tol), detail)]
    return _judge("comparison", relations, passed=(
        f"linear drivers in {{-k, 0, k}} stay within the abs-driver band (tol {tol:.3g})"))


def _check_attainment(ctx: RunContext) -> CheckOutcome:
    """The profile over constant controls moves with the payoff's direction
    at every step, and its maximum ties the better endpoint, each within 3
    paired SEs."""
    if ctx.payoff.monotonicity == "none":
        return CheckOutcome("attainment", "not_applicable",
                            "payoff lacks a monotone direction")
    sign = 1.0 if ctx.payoff.monotonicity == "increasing" else -1.0
    report = attainment_check(ctx.payoff, ctx.scenario.k, ctx.subsample()[0])
    hi, end = report.argmax_index, report.boundary_index
    boundary = (report.estimates[hi] - report.estimates[end]) - 3.0 * report.boundary_std_error
    steps = [-3.0 * se - sign * step for step, se in
             zip(np.diff(report.estimates).tolist(), report.diff_std_errors.tolist())]
    violations = sum(not excess <= 0.0 for excess in steps)
    detail = (f"argmax at theta={report.thetas[hi]:+.4g}, boundary={boundary <= 0.0}, "
              f"monotone profile={not violations}, {violations} violations")
    return _judge("attainment", [(boundary, detail)] + [(excess, detail) for excess in steps])


def _check_submodularity(ctx: RunContext) -> CheckOutcome:
    _, sub_values = ctx.subsample()
    rng = _aux_rng(ctx.scenario.seed, _SUBMODULARITY_STREAM)
    pairs = random_threshold_pairs(sub_values, 200, rng)
    tol = 3.0 / math.sqrt(sub_values.size)
    defects = submodularity_check(ctx.sub_capacities[0], sub_values, pairs)
    worst = float(defects.max())
    detail = (f"max 2-alternating defect {worst:.2e} over {defects.size} threshold pairs "
              f"(tol {tol:.2e})")
    return _judge("submodularity", [(worst - tol, detail)])


def _check_l2bound(ctx: RunContext) -> CheckOutcome:
    squares = ctx.values**2
    m2 = float(np.mean(squares))
    se_m2 = standard_error(squares)
    bound = math.sqrt(m2) * math.exp(0.5 * ctx.scenario.k**2 * ctx.scenario.horizon)
    se_bound = 0.0 if m2 == 0.0 else se_m2 / (2.0 * math.sqrt(m2))
    upper = ctx.entries["minimax_upper"]
    tol = pooled_tolerance([upper.std_error, se_bound])
    ratio = 0.0 if bound == 0.0 else upper.value / bound
    return _judge("l2bound", [(upper.value - (bound + tol),
                               f"upper = {upper.value:.6g} vs bound {bound:.6g} "
                               f"(ratio {ratio:.3f}, tol {tol:.3g})")])


def _check_holder(ctx: RunContext) -> CheckOutcome:
    sub_bundle, sub_values = ctx.subsample()
    terminal = sub_bundle.terminal()
    s0 = ctx.scenario.s0
    level = np.abs(terminal) / s0
    spread = np.abs(terminal - s0)
    if np.array_equal(spread, sub_values):
        # A straddle at s0: one array, so no equal copy is held while the
        # integrals run.
        spread = sub_values
    pairs = [(sub_values, level), (spread, level), (sub_values, sub_values)]
    reports = choquet_holder_checks(pairs, ctx.sub_capacities[0])
    detail = "; ".join(f"pair {i}: margin {rep.margin:.3g} (tol {rep.tolerance:.3g})"
                       for i, rep in enumerate(reports))
    return _judge("holder", [(-rep.tolerance - rep.margin, detail) for rep in reports])


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
KNOWN_CHECKS = tuple(CHECK_REGISTRY)


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

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

    payload = {
        "scenario": {
            "path": report.scenario_path,
            **{key: getattr(report.scenario, f.name) for key, f in SCENARIO_KEYS.items()
               if key not in ("fd_substep", "checks")},
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
    parser.add_argument("--threads", type=int, default=1,
                        help="recorded in the report; no stage of the run uses more "
                             "than one thread of its own")
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
