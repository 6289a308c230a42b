"""Capacities induced by a measure family and Choquet integration against them.

The upper capacity of an event is the largest reweighted probability over the
family, the lower capacity the smallest.  Integration uses the survival-curve
form: integral of c(X > x) over positive levels plus integral of c(X > x) - 1
over negative levels.  Payoffs taking few distinct values are integrated
exactly as simple functions; everything else goes through one sort of the
sample and running sums of the weights in sorted order, evaluated either at
every sample (the exact sum) or at the levels of a quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .measures import ThetaControl, weight_matrix
from .paths import PathBundle

# Payoffs with at most this many distinct values use the exact telescoping sum.
SIMPLE_FUNCTION_LIMIT = 64

DEFAULT_LEVEL_COUNT = 513

# Rows per block of the running-sum sweep over a sorted sample.  A block of a
# 29-control weight matrix is about 1 MB, so its gather, scaling and running
# sum stay in cache; the sweep's extra memory is O(PREFIX_BLOCK * m).
PREFIX_BLOCK = 4096


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Payoff:
    """Claim on the terminal state with a declared monotonicity.

    The declaration drives which results apply: extremal-measure pricing and
    the z-sign check require "increasing" or "decreasing"; "none" restricts
    the caller to family-search estimators.
    """

    name: str
    kind: str  # "call" | "put" | "digital" | "custom"
    monotonicity: str  # "increasing" | "decreasing" | "none"
    fn: Callable[[np.ndarray], np.ndarray]
    strike: Optional[float] = None

    def __post_init__(self) -> None:
        if self.monotonicity not in ("increasing", "decreasing", "none"):
            raise ValueError(f"unknown monotonicity {self.monotonicity!r}")
        if self.kind not in ("call", "put", "digital", "custom"):
            raise ValueError(f"unknown payoff kind {self.kind!r}")

    def map(self, terminal: np.ndarray) -> np.ndarray:
        values = np.asarray(self.fn(np.asarray(terminal, dtype=float)), dtype=float)
        if values.shape != np.shape(terminal):
            raise ValueError(f"payoff {self.name!r} changed the sample shape")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"payoff {self.name!r} produced non-finite values")
        return values

    @classmethod
    def call(cls, strike: float) -> "Payoff":
        return cls(
            name=f"call_{strike:g}",
            kind="call",
            monotonicity="increasing",
            fn=lambda s: np.maximum(s - strike, 0.0),
            strike=float(strike),
        )

    @classmethod
    def put(cls, strike: float) -> "Payoff":
        return cls(
            name=f"put_{strike:g}",
            kind="put",
            monotonicity="decreasing",
            fn=lambda s: np.maximum(strike - s, 0.0),
            strike=float(strike),
        )

    @classmethod
    def digital(cls, strike: float) -> "Payoff":
        return cls(
            name=f"digital_{strike:g}",
            kind="digital",
            monotonicity="increasing",
            fn=lambda s: (s > strike).astype(float),
            strike=float(strike),
        )

    @classmethod
    def custom(
        cls,
        name: str,
        fn: Callable[[np.ndarray], np.ndarray],
        monotonicity: str = "none",
    ) -> "Payoff":
        return cls(name=name, kind="custom", monotonicity=monotonicity, fn=fn)

    def check_monotonicity(self, samples: np.ndarray, rtol: float = 1e-9) -> None:
        """Spot-check the declared direction on a sample of states.

        Raises ValueError with a witnessing pair when the sampled values move
        against the declaration.  A "none" declaration always passes.
        """
        if self.monotonicity == "none":
            return
        s = np.unique(np.asarray(samples, dtype=float))
        if s.size < 2:
            return
        v = self.map(s)
        d = np.diff(v)
        slack = rtol * max(float(np.abs(v).max()), 1.0)
        bad = np.flatnonzero(d < -slack) if self.monotonicity == "increasing" else np.flatnonzero(d > slack)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"payoff {self.name!r} declared {self.monotonicity} but maps "
                f"({s[i]:.6g}, {s[i + 1]:.6g}) to ({v[i]:.6g}, {v[i + 1]:.6g})"
            )


# ---------------------------------------------------------------------------
# level quadratures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelQuadrature:
    """Strictly increasing payoff levels at which survival curves are sampled."""

    levels: np.ndarray

    def __post_init__(self) -> None:
        lv = np.asarray(self.levels, dtype=float)
        if lv.ndim != 1 or lv.size < 1:
            raise ValueError("levels must be a nonempty 1-d array")
        if not np.all(np.isfinite(lv)):
            raise ValueError("levels must be finite")
        if lv.size > 1 and not np.all(np.diff(lv) > 0.0):
            raise ValueError("levels must be strictly increasing")
        object.__setattr__(self, "levels", lv)

    @classmethod
    def from_values(cls, values: np.ndarray, count: int = DEFAULT_LEVEL_COUNT) -> "LevelQuadrature":
        """Levels at `count` empirical quantiles spanning [min(values), max(values)],
        so they cluster where the sample mass is."""
        if count < 2:
            raise ValueError(f"count must be >= 2, got {count}")
        raw = np.quantile(np.asarray(values, dtype=float), np.linspace(0.0, 1.0, count))
        return cls(levels=np.unique(raw))


# ---------------------------------------------------------------------------
# capacities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Capacity:
    """Upper or lower envelope of reweighted probabilities over a family.

    Weights are self-normalised per control, so evaluate() returns exactly 0
    on the empty event and exactly 1 on the full event, and values are
    clipped to [0, 1] against last-ulp rounding.
    """

    orientation: str  # "upper" | "lower"
    family: tuple[ThetaControl, ...]
    weights: np.ndarray  # (n_paths, n_controls)
    totals: np.ndarray  # (n_controls,)

    def __post_init__(self) -> None:
        if self.orientation not in ("upper", "lower"):
            raise ValueError(f"orientation must be 'upper' or 'lower', got {self.orientation!r}")
        if not self.family:
            raise ValueError("capacity requires a nonempty control family")
        if self.weights.shape[1] != len(self.family) or self.totals.shape != (len(self.family),):
            raise ValueError("weight matrix does not match the family")

    @property
    def n_paths(self) -> int:
        return self.weights.shape[0]

    def _reduce(self, per_control: np.ndarray) -> np.ndarray:
        if self.orientation == "upper":
            return per_control.max(axis=-1)
        return per_control.min(axis=-1)

    def evaluate(self, event: np.ndarray) -> float:
        """Capacity of one event given as a boolean path mask."""
        ev = np.asarray(event)
        if ev.shape != (self.n_paths,):
            raise ValueError(f"event shape {ev.shape} does not match paths {self.n_paths}")
        sums = ev.astype(np.float64) @ self.weights
        value = self._reduce(sums / self.totals)
        return float(np.clip(value, 0.0, 1.0))

    def evaluate_many(self, events: np.ndarray) -> np.ndarray:
        """Capacities of a stack of events, shape (n_events, n_paths)."""
        ev = np.asarray(events)
        if ev.ndim != 2 or ev.shape[1] != self.n_paths:
            raise ValueError(f"events must have shape (m, {self.n_paths}), got {ev.shape}")
        sums = ev.astype(np.float64) @ self.weights
        return np.clip(self._reduce(sums / self.totals[None, :]), 0.0, 1.0)

    def _tail_curve(self, prefix: np.ndarray, total: np.ndarray) -> np.ndarray:
        """Capacity of the complement of each prefix row's event, given the
        weight total of the full event."""
        # (total - prefix) / total per control, laid out control-major so each
        # ufunc loop runs along the rows instead of across a few controls.
        tails = np.subtract(total[:, None], prefix.T, order="C")
        tails /= total[:, None]
        return np.clip(self._reduce(tails.T), 0.0, 1.0)


def build_capacity(
    orientation: str,
    family: tuple[ThetaControl, ...] | list[ThetaControl],
    bundle: PathBundle | None,
    weights: np.ndarray | None = None,
    threads: int = 1,
) -> Capacity:
    """Assemble a capacity from a control family on a simulated bundle.

    A precomputed weight matrix may be passed so that upper and lower
    capacities (and the minimax search) share one set of densities; the
    bundle is only read when it is not.
    """
    family = tuple(family)
    if weights is None:
        weights = weight_matrix(family, bundle, threads=threads)
    # Totals use the same matrix product as evaluate() so that the full event
    # normalises to exactly 1.0 in floating point.
    totals = np.ones(weights.shape[0]) @ weights
    return Capacity(orientation=orientation, family=family, weights=weights, totals=totals)


# ---------------------------------------------------------------------------
# the integral
# ---------------------------------------------------------------------------

class _SortedSample:
    """A payoff sample sorted once, integrable against any capacity on its paths.

    The tail weight of {X > x} per control is a total minus a running sum of
    the weights in ascending order of X.  Those running sums come from a
    sweep over blocks of PREFIX_BLOCK sorted rows: each block gathers its
    weights, scales them by a resample's path multiplicities if there are
    any, adds the total carried over from the previous block into its first
    row and takes its running sum in place.  Every sum is thus formed by the
    same additions in the same order as one running sum over all n rows, and
    is bitwise equal to it, while only one block is alive at a time.
    Multiplicities never change the order, so every bootstrap resample
    reuses the one sort.
    """

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    @cached_property
    def distinct(self) -> np.ndarray:
        return np.unique(self.values)

    @cached_property
    def order(self) -> np.ndarray:
        return np.argsort(self.values, kind="stable")

    @cached_property
    def sorted(self) -> np.ndarray:
        return self.values[self.order]

    def _running_sums(self, weights: np.ndarray, mult: np.ndarray | None):
        """Yield (start, block): block[i] is the weight per control of the
        start + i + 1 smallest samples."""
        carry = None
        for start in range(0, self.order.size, PREFIX_BLOCK):
            idx = self.order[start:start + PREFIX_BLOCK]
            block = weights.take(idx, axis=0)
            if mult is not None:
                # Scaling through the transpose runs each ufunc loop along
                # the block's long axis; the products are the same.
                np.multiply(block.T, mult[idx], out=block.T)
            if carry is not None:
                block[0] += carry
            np.cumsum(block, axis=0, out=block)
            carry = block[-1].copy()
            yield start, block

    def prefix_rows(
        self, weights: np.ndarray, rows: np.ndarray, mult: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Selected rows of the prefix table, and its last row (the total).

        The prefix table is vstack([0, cumsum((weights * mult[:, None])[order])]),
        shape (n + 1, m): row i is the weight per control of the i smallest
        samples.  `rows` index into it in any order; the table itself is
        never materialised.
        """
        perm = np.argsort(rows, kind="stable")
        wanted = rows[perm]
        picked = np.zeros((rows.size, weights.shape[1]))
        for start, block in self._running_sums(weights, mult):
            lo = np.searchsorted(wanted, start + 1, side="left")
            hi = np.searchsorted(wanted, start + block.shape[0], side="right")
            picked[perm[lo:hi]] = block[wanted[lo:hi] - start - 1]
        return picked, block[-1]

    def curves(
        self, capacity: Capacity, levels: np.ndarray, mult: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Capacities of {X > level} and of {X >= level} per level."""
        strict = np.searchsorted(self.sorted, levels, side="right")
        loose = np.searchsorted(self.sorted, levels, side="left")
        prefix, denom = self.prefix_rows(capacity.weights, np.concatenate([strict, loose]), mult)
        curve = capacity._tail_curve(prefix, denom)
        return curve[:levels.size], curve[levels.size:]

    def exact_integral(self, capacity: Capacity) -> float:
        """The smallest sample plus every gap between consecutive sorted
        samples times the capacity of the tail above the gap's lower end.

        Two sweeps: the first finds the total, the second turns each block
        into its stretch of the tail curve.
        """
        weights = capacity.weights
        _, denom = self.prefix_rows(weights, np.empty(0, dtype=np.intp))
        n = self.values.size
        curve = np.empty(n - 1)
        for start, block in self._running_sums(weights, None):
            # Prefix rows 1 .. n-1: the last row is the total, whose tail is
            # empty.  Duplicate positions carry zero width in the dot product,
            # so they need no special case.
            rows = block[: n - 1 - start]
            curve[start:start + rows.shape[0]] = capacity._tail_curve(rows, denom)
        return float(self.sorted[0]) + float(np.dot(np.diff(self.sorted), curve))

    def quadrature_integral(
        self, capacity: Capacity, levels: np.ndarray, mult: np.ndarray | None = None
    ) -> float:
        """Trapezoidal rule on the survival curve at the given levels."""
        if levels.size == 1:
            return float(levels[0])
        strict_curve, loose_curve = self.curves(capacity, levels, mult)
        widths = np.diff(levels)
        # On [l_j, l_{j+1}] the survival curve is c(X > l_j) just right of the
        # left endpoint and c(X >= l_{j+1}) just left of the right one; using
        # those one-sided limits keeps atoms sitting on levels exact instead of
        # smearing their jump across the segment.
        total = float(np.dot(widths, 0.5 * (strict_curve[:-1] + loose_curve[1:])))
        # Below zero the integrand is c(X > x) - 1; zero is a level whenever the
        # range straddles it, so each segment lies entirely on one side.
        negative = levels[1:] <= 0.0
        total -= float(widths[negative].sum())
        # Regions between 0 and the range of the levels contribute exactly 1 or 0.
        total += max(float(levels[0]), 0.0) + min(float(levels[-1]), 0.0)
        return total


def _payoff_sample(payoff_values: np.ndarray, capacity: Capacity) -> np.ndarray:
    x = np.asarray(payoff_values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("payoff_values must be a nonempty 1-d array")
    if not np.all(np.isfinite(x)):
        raise ValueError("payoff_values must be finite")
    if x.size != capacity.n_paths:
        raise ValueError(
            f"payoff array length {x.size} does not match capacity paths {capacity.n_paths}"
        )
    return x


def _additive_integral(x: np.ndarray, weights: np.ndarray, total: float) -> float:
    # A one-member family makes the capacity additive, so the integral
    # collapses to the normalized weighted mean.  Computing it directly is
    # exact and keeps a degenerate family consistent with the plain Monte
    # Carlo estimate to the last bit.
    return float(np.mean(weights * x) * (x.size / float(total)))


def _quadrature_levels(sample: _SortedSample, quadrature: LevelQuadrature) -> np.ndarray:
    x = sample.values
    distinct = sample.distinct
    levels = quadrature.levels
    span_slack = 1e-12 * max(1.0, float(np.abs(x).max()))
    if levels[0] > distinct[0] + span_slack or levels[-1] < distinct[-1] - span_slack:
        raise ValueError(
            f"quadrature levels [{levels[0]:.6g}, {levels[-1]:.6g}] do not span "
            f"the payoff range [{distinct[0]:.6g}, {distinct[-1]:.6g}]"
        )
    if levels[0] < 0.0 < levels[-1] and not np.any(levels == 0.0):
        levels = np.insert(levels, np.searchsorted(levels, 0.0), 0.0)
    return levels


def choquet_integral(
    payoff_values: np.ndarray,
    capacity: Capacity,
    quadrature: LevelQuadrature | None = None,
) -> float:
    """Choquet integral of sampled payoff values against a capacity.

    The sampled capacity is a step function of the level, so the level-set
    integral is a finite sum over the distinct values.  Without a quadrature
    (the default) that sum is computed outright, with no discretization
    error at any sample size.  A payoff with a few distinct values is summed
    as a simple function through capacity.evaluate; otherwise the sample is
    sorted once (stably) and the tail capacity just left of every sorted
    sample comes from running sums of the weights in sorted order, O(n m)
    time for n paths and m controls.  The running sums are swept in blocks of
    PREFIX_BLOCK rows with the total carried between blocks, which is
    bitwise equal to one running sum over all rows but needs only
    O(PREFIX_BLOCK * m) extra memory instead of several (n, m) arrays.

    Passing a quadrature instead integrates the survival curve by the
    trapezoidal rule on the given levels, using one-sided limits so atoms
    sitting on a level integrate exactly; between levels the curve is
    endpoint-averaged, which overestimates on convex stretches such as far
    tails.  It shares the one sort and the blocked sweep, keeping only the
    running-sum rows at the levels.  It exists for resolution-controlled
    work (error bootstraps, level-placement studies) where a fixed level
    budget matters more than the last digits.
    """
    x = _payoff_sample(payoff_values, capacity)

    if capacity.weights.shape[1] == 1:
        return _additive_integral(x, capacity.weights[:, 0], capacity.totals[0])

    sample = _SortedSample(x)
    if quadrature is None:
        distinct = sample.distinct
        if distinct.size <= SIMPLE_FUNCTION_LIMIT:
            # The evaluate()-based loop keeps indicator payoffs bitwise
            # consistent with capacity.evaluate on the same event.
            total = float(distinct[0])
            for i in range(1, distinct.size):
                total += (distinct[i] - distinct[i - 1]) * capacity.evaluate(x >= distinct[i])
            return total
        return sample.exact_integral(capacity)
    return sample.quadrature_integral(capacity, _quadrature_levels(sample, quadrature))


class _PayoffBootstrap:
    """Payoff samples on one capacity's paths, integrated in-sample and under
    multinomial resamples of the paths.

    Each sample comes with the quadrature its integrals use and is sorted
    once for all resamples.  A resample draws path multiplicities exactly as
    rng.multinomial(n, [1/n] * n) and gives, bit for bit, what
    choquet_integral returns against the capacity with its weight rows
    scaled by them; one draw is shared by every sample.
    """

    def __init__(
        self,
        samples: Sequence[tuple[np.ndarray, LevelQuadrature]],
        capacity: Capacity,
    ) -> None:
        self.capacity = capacity
        self.additive = capacity.weights.shape[1] == 1
        self.samples = []
        for values, quadrature in samples:
            sample = _SortedSample(_payoff_sample(values, capacity))
            levels = None if self.additive else _quadrature_levels(sample, quadrature)
            self.samples.append((sample, levels))

    def integrals(self, mult: np.ndarray | None = None) -> list[float]:
        """Integral of every sample, under the given multiplicities if any."""
        cap = self.capacity
        if self.additive:
            if mult is None:
                weights, total = cap.weights[:, 0], cap.totals[0]
            else:
                weights, total = cap.weights[:, 0] * mult, (mult @ cap.weights)[0]
            return [_additive_integral(s.values, weights, total) for s, _ in self.samples]
        return [s.quadrature_integral(cap, levels, mult) for s, levels in self.samples]

    def resample(self, count: int, rng: np.random.Generator) -> list[list[float]]:
        """Integrals of every sample under `count` multinomial resamples."""
        n = self.capacity.n_paths
        return [
            self.integrals(rng.multinomial(n, np.full(n, 1.0 / n)).astype(float))
            for _ in range(count)
        ]


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def is_comonotone(
    x: np.ndarray, y: np.ndarray
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Whether (x_i - x_j)(y_i - y_j) >= 0 for all sample pairs.

    Returns (True, None) or (False, (i, j)) with a witnessing index pair.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    order = np.lexsort((ya, xa))
    xs = xa[order]
    ys = ya[order]
    drops = np.flatnonzero(np.diff(ys) < 0.0)
    for i in drops:
        # lexsort puts equal-x ties in y order, so a drop across distinct x
        # values is a genuine violation.
        if xs[i + 1] > xs[i]:
            return False, (int(order[i]), int(order[i + 1]))
    return True, None


@dataclass(frozen=True)
class SubmodularityReport:
    orientation: str
    count: int
    violations: np.ndarray  # positive entries are violations
    max_violation: float
    worst_index: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def submodularity_check(
    capacity: Capacity,
    event_pairs: Iterable[tuple[np.ndarray, np.ndarray]],
    chunk: int = 16,
    tolerance: float = 0.0,
) -> SubmodularityReport:
    """Evaluate the 2-alternating defect on each event pair.

    The four events of each pair are scored in stacks of `chunk` pairs, one
    float matrix of 4 * chunk rows by n paths at a time.

    For an upper capacity the defect is c(A|B) + c(A&B) - c(A) - c(B), which
    should be <= 0; for a lower capacity the inequality (and so the sign)
    flips.  The report's `violations` are oriented so positive means broken,
    and `passed` allows the given tolerance.
    """
    rows: list[np.ndarray] = []
    defects: list[np.ndarray] = []

    def flush() -> None:
        if not rows:
            return
        vals = capacity.evaluate_many(np.vstack(rows)).reshape(-1, 4)
        d = vals[:, 2] + vals[:, 3] - vals[:, 0] - vals[:, 1]
        defects.append(d if capacity.orientation == "upper" else -d)
        rows.clear()

    for a, b in event_pairs:
        a = np.asarray(a, dtype=bool)
        b = np.asarray(b, dtype=bool)
        rows.extend([a, b, a | b, a & b])
        if len(rows) >= 4 * chunk:
            flush()
    flush()
    if not defects:
        raise ValueError("no event pairs supplied")
    violations = np.concatenate(defects)
    worst = int(np.argmax(violations))
    return SubmodularityReport(
        orientation=capacity.orientation,
        count=violations.size,
        violations=violations,
        max_violation=float(violations[worst]),
        worst_index=worst,
        tolerance=float(tolerance),
    )


def random_threshold_pairs(
    values: np.ndarray,
    count: int,
    rng: np.random.Generator,
    nested_fraction: float = 0.3,
):
    """Yield (A, B) pairs of threshold events on the given sample values.

    Thresholds sit at random quantiles in [0.05, 0.95]; a `nested_fraction`
    share of pairs uses the same direction on both thresholds so that one
    event contains the other.
    """
    x = np.asarray(values, dtype=float)
    lo, hi = np.quantile(x, [0.05, 0.95])
    for _ in range(count):
        ta, tb = rng.uniform(lo, hi, size=2)
        same_direction = rng.uniform() < nested_fraction
        dir_a = rng.uniform() < 0.5
        dir_b = dir_a if same_direction else (rng.uniform() < 0.5)
        a = (x > ta) if dir_a else (x <= ta)
        b = (x > tb) if dir_b else (x <= tb)
        yield a, b


@dataclass(frozen=True)
class HolderReport:
    p: float
    q: float
    lhs: float
    factor_x: float
    factor_y: float
    rhs: float
    margin: float  # rhs - lhs, negative means violated
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tolerance


def choquet_holder_check(
    x_values: np.ndarray,
    y_values: np.ndarray,
    capacity: Capacity,
    p: float = 2.0,
    q: float = 2.0,
    quadrature_count: int = DEFAULT_LEVEL_COUNT,
    bootstrap: int = 12,
    rng: np.random.Generator | None = None,
    relative_slack: float = 1e-3,
) -> HolderReport:
    """Check integral of |XY| <= (integral |X|^p)^(1/p) (integral |Y|^q)^(1/q).

    The tolerance combines a bootstrap estimate of the sampling noise of the
    margin with a small relative slack for quadrature error.  Exponents must
    be conjugate: 1/p + 1/q = 1 with p, q > 1.
    """
    if not (p > 1.0 and q > 1.0) or abs(1.0 / p + 1.0 / q - 1.0) > 1e-9:
        raise ValueError(f"exponents must be conjugate with p, q > 1, got p={p}, q={q}")
    xa = np.abs(np.asarray(x_values, dtype=float))
    ya = np.abs(np.asarray(y_values, dtype=float))
    if xa.shape != ya.shape:
        raise ValueError("x and y must have equal length")

    boot = _PayoffBootstrap(
        [(a, LevelQuadrature.from_values(a, quadrature_count)) for a in (xa * ya, xa**p, ya**q)],
        capacity,
    )

    def margin_parts(lhs: float, fx: float, fy: float) -> tuple[float, float, float]:
        return lhs, max(fx, 0.0) ** (1.0 / p), max(fy, 0.0) ** (1.0 / q)

    lhs, factor_x, factor_y = margin_parts(*boot.integrals())
    rhs = factor_x * factor_y
    margin = rhs - lhs

    boot_sd = 0.0
    if bootstrap > 0:
        margins = np.empty(bootstrap)
        for b, parts in enumerate(boot.resample(bootstrap, rng or np.random.default_rng(0))):
            bl, bx, by = margin_parts(*parts)
            margins[b] = bx * by - bl
        boot_sd = float(margins.std(ddof=1))

    tolerance = 3.0 * boot_sd + relative_slack * max(abs(rhs), abs(lhs), 1e-12)
    return HolderReport(
        p=p, q=q, lhs=lhs, factor_x=factor_x, factor_y=factor_y,
        rhs=rhs, margin=margin, tolerance=tolerance,
    )
