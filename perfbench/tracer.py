"""Span tracer that times the `nexpect` pipeline from outside the package.

`Tracer.install` replaces each target function with a timing wrapper in
every `nexpect` module namespace that holds it (so `cli.weight_matrix`,
`minimax.weight_matrix` and `measures.weight_matrix` are all wrapped), in
the method slot `Capacity.evaluate`, and in the values of
`cli.CHECK_REGISTRY`.  `Tracer.restore` puts every original back.  Nothing
under `src/` is edited.

Spans are kept in memory as plain dicts (name, start, end, parent, run id,
plus the rise in peak RSS and, for some layers, bytes or step counts taken
from the returned objects) and written out once, after the run.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

BYTES_PER_MB = 1e6
KIB = 1024

# Checks with a timing metric; `degeneracy` is left out because it only
# passes at k = 0, so no workload runs it and its time would always read 0.
CHECK_NAMES = (
    "chain", "duality", "sandwich", "normalization", "martingale", "zsign",
    "comparison", "attainment", "submodularity", "l2bound", "holder",
)


def _bundle_bytes(bundle) -> int:
    arrays = (bundle.brownian_increments, bundle.states, bundle.valid)
    return sum(a.nbytes for a in arrays if a is not None)


def _surface_bytes(solution) -> int:
    arrays = (solution.value_surface, solution.z_surface)
    return sum(a.nbytes for a in arrays if a is not None)


def _integral_name(args, kwargs) -> str:
    quadrature = args[2] if len(args) > 2 else kwargs.get("quadrature")
    return "choquet.integral_exact" if quadrature is None else "choquet.integral_quadrature"


# (module, attribute, span name or a function of the call's arguments,
#  measures taken from the return value as {field: function})
TARGETS = (
    ("paths", "generate_brownian", "paths.generate_brownian", {}),
    ("paths", "simulate_sde", "paths.simulate_sde", {"bytes": _bundle_bytes}),
    ("measures", "girsanov_weights", "measures.girsanov_weights", {}),
    ("measures", "weight_matrix", "measures.weight_matrix", {"bytes": lambda w: w.nbytes}),
    ("measures", "expectation_profile", "measures.expectation_profile", {}),
    ("minimax", "minimax_expectation", "minimax.minimax_expectation", {}),
    ("minimax", "extremal_price", "minimax.extremal_price", {}),
    ("minimax", "attainment_check", "minimax.attainment_check", {}),
    ("choquet", "build_capacity", "choquet.build_capacity", {}),
    ("choquet", "choquet_integral", _integral_name, {}),
    ("choquet", "submodularity_check", "choquet.submodularity_check", {}),
    ("choquet", "choquet_holder_check", "choquet.holder_check", {}),
    ("bsde", "solve_fd", "bsde.solve_fd",
     {"bytes": _surface_bytes, "steps": lambda s: s.time_steps}),
    ("bsde", "z_sign_check", "bsde.z_sign_check", {}),
    ("cli", "load_scenario", "cli.load_scenario", {}),
    ("cli", "run_scenario", "cli.run_scenario", {}),
    ("cli", "emit", "cli.emit", {}),
    ("cli", "_choquet_std_error", "cli.choquet_std_error", {}),
)

ROOT_SPAN = "cli.main"

# Per-layer metrics: (metric name, unit, kind, span name).  Kinds: "self"
# sums self time, "incl" sums span durations, "calls" counts spans, "bytes"
# and "steps" sum the measured fields, "rss" sums the peak-RSS rises.
LAYER_METRICS = (
    ("paths.generate_brownian.s", "s", "self", "paths.generate_brownian"),
    ("paths.simulate_sde.s", "s", "self", "paths.simulate_sde"),
    ("paths.bundle.mb", "MB", "bytes", "paths.simulate_sde"),
    ("measures.weight_matrix.s", "s", "self", "measures.weight_matrix"),
    ("measures.weight_matrix.mb", "MB", "bytes", "measures.weight_matrix"),
    ("measures.weight_matrix.rss_rise_mb", "MB", "rss", "measures.weight_matrix"),
    ("measures.girsanov_weights.s", "s", "self", "measures.girsanov_weights"),
    ("measures.girsanov_weights.calls", "count", "calls", "measures.girsanov_weights"),
    ("measures.expectation_profile.s", "s", "self", "measures.expectation_profile"),
    ("minimax.minimax_expectation.s", "s", "self", "minimax.minimax_expectation"),
    ("minimax.extremal_price.s", "s", "self", "minimax.extremal_price"),
    ("minimax.attainment_check.s", "s", "self", "minimax.attainment_check"),
    ("choquet.integral_exact.s", "s", "self", "choquet.integral_exact"),
    ("choquet.integral_exact.calls", "count", "calls", "choquet.integral_exact"),
    ("choquet.integral_exact.rss_rise_mb", "MB", "rss", "choquet.integral_exact"),
    ("choquet.integral_quadrature.s", "s", "self", "choquet.integral_quadrature"),
    ("choquet.integral_quadrature.calls", "count", "calls", "choquet.integral_quadrature"),
    ("cli.choquet_std_error.s", "s", "incl", "cli.choquet_std_error"),
    ("choquet.holder_check.s", "s", "self", "choquet.holder_check"),
    ("choquet.submodularity_check.s", "s", "self", "choquet.submodularity_check"),
    ("choquet.build_capacity.s", "s", "self", "choquet.build_capacity"),
    ("choquet.evaluate.calls", "count", "calls", "choquet.evaluate"),
    ("bsde.solve_fd.s", "s", "self", "bsde.solve_fd"),
    ("bsde.solve_fd.calls", "count", "calls", "bsde.solve_fd"),
    ("bsde.solve_fd.rss_rise_mb", "MB", "rss", "bsde.solve_fd"),
    ("bsde.surfaces.mb", "MB", "bytes", "bsde.solve_fd"),
    ("bsde.time_steps_used", "count", "steps", "bsde.solve_fd"),
    ("bsde.z_sign_check.s", "s", "self", "bsde.z_sign_check"),
    *((f"cli.check.{name}.s", "s", "incl", f"cli.check.{name}") for name in CHECK_NAMES),
    ("cli.load_scenario.s", "s", "self", "cli.load_scenario"),
    ("cli.emit.s", "s", "self", "cli.emit"),
    ("cli.run_scenario.self_s", "s", "self", "cli.run_scenario"),
)

# Computed by the parent from traced and untraced children, not from spans.
DERIVED_METRICS = (
    ("trace.overhead_s", "s"),
    ("trace.glue_share", "ratio"),
)


def _max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records nested spans around calls into the package's functions."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name, fn, args=(), kwargs=None, measures=None):
        """Call fn inside a span; `name` may be a function of (args, kwargs)."""
        kwargs = kwargs or {}
        span = {
            "id": len(self.spans),
            "name": name(args, kwargs) if callable(name) else name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        rss_before = _max_rss_kib()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            span["rss_rise_kib"] = _max_rss_kib() - rss_before
            self._stack.pop()
        for field, measure in (measures or {}).items():
            span[field] = int(measure(result))
        return result

    def wrap(self, name, fn, measures=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measures)

        return wrapper

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every target wherever a `nexpect` module resolves its name."""
        import nexpect.choquet
        import nexpect.cli

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "nexpect" or n.startswith("nexpect."))]
        originals = [getattr(sys.modules[f"nexpect.{module}"], attr)
                     for module, attr, _, _ in TARGETS]
        # Keyed by id; `originals` keeps every key's object alive meanwhile.
        wrappers = {id(fn): self.wrap(name, fn, measures)
                    for fn, (_, _, name, measures) in zip(originals, TARGETS)}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])

        capacity = nexpect.choquet.Capacity
        self._patch(capacity, "evaluate", self.wrap("choquet.evaluate", capacity.evaluate))
        registry = nexpect.cli.CHECK_REGISTRY
        for check, fn in list(registry.items()):
            self._patch(registry, check, self.wrap(f"cli.check.{check}", fn))

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are nested and single-threaded, so children never overlap and
    their durations sum to the part of the parent they cover.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metric values of one traced run, keyed by metric name."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)
    out = {}
    for metric, _, kind, name in LAYER_METRICS:
        idx = by_name.get(name, [])
        if kind == "self":
            out[metric] = sum((selfs[i] for i in idx), 0.0)
        elif kind == "incl":
            out[metric] = sum((spans[i]["end"] - spans[i]["start"] for i in idx), 0.0)
        elif kind == "calls":
            out[metric] = len(idx)
        elif kind == "bytes":
            out[metric] = sum(spans[i]["bytes"] for i in idx) / BYTES_PER_MB
        elif kind == "steps":
            out[metric] = sum(spans[i]["steps"] for i in idx)
        else:
            out[metric] = sum(spans[i]["rss_rise_kib"] for i in idx) * KIB / BYTES_PER_MB
    return out


def glue_share(spans: list[dict]) -> float:
    """Share of the root span not covered by a named layer.

    Glue is the self time of `cli.main` (argument parsing) and of
    `cli.run_scenario` (payoff mapping, probes, report assembly) plus the
    CSV write in `cli.emit`.
    """
    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s["parent"] is None]
    glue = sum(selfs[i] for i, s in enumerate(spans)
               if s["name"] in (ROOT_SPAN, "cli.run_scenario", "cli.emit"))
    total = sum(spans[i]["end"] - spans[i]["start"] for i in roots)
    return glue / total


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}
