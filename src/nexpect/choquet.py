"""Capacities induced by a measure family and Choquet integration against them.

The upper capacity of an event is the largest reweighted probability over the
family, the lower capacity the smallest.  Integration uses the survival-curve
form: integral of c(X > x) over positive levels plus integral of c(X > x) - 1
over negative levels.  Payoffs taking few distinct values are integrated
exactly as simple functions; everything else goes through running sums of
the weights in sorted order, evaluated at every sample, so the in-sample
integral is exact.  A sample is sorted once for the upper and the lower
capacity, and one sweep serves both, giving each integral and each path's
influence on it, hence its standard error (the infinitesimal jackknife).
Every capacity value is normalised by the capacity's own totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .measures import ThetaControl, weight_matrix
from .paths import ROW_BLOCK, PathBundle

# Payoffs with at most this many distinct values use the exact telescoping sum.
SIMPLE_FUNCTION_LIMIT = 64

# Rows per block of the running-sum sweep over a sorted sample; the sweep's
# extra memory is O(PREFIX_BLOCK * m).
PREFIX_BLOCK = ROW_BLOCK


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
    """A payoff sample sorted once, integrable against every capacity on
    that weight matrix in one sweep.

    The tail weight of {X > x} per control is a capacity's total minus a
    running sum of the weights in ascending order of X.  Those running sums
    come from a sweep over blocks of PREFIX_BLOCK sorted rows: each block
    gathers its weights, adds the total carried over from the previous block
    into its first row and takes its running sum.  Every sum is thus formed
    by the same additions in the same order as one running sum over all n
    rows, and is bitwise equal to it, while only one block is alive at a
    time.  The sums do not depend on the capacity, so each block serves
    every capacity before the next is gathered.
    """

    def __init__(self, values: np.ndarray, weights: np.ndarray) -> None:
        self.values, self.weights = values, weights
        self.order = np.argsort(values, kind="stable")
        self.gaps = np.diff(values[self.order])  # the sorted copy is not kept

    def _running_sums(self):
        """Yield (start, rows, sums) per block: rows[i] is the weight row of
        the (start + i + 1)-th smallest sample and sums[i] the weight per
        control of the start + i + 1 smallest samples.  Both are views of two
        buffers that every block reuses, so a caller may overwrite them."""
        n, m = self.weights.shape
        rows_buf = np.empty((min(n, PREFIX_BLOCK), m))
        sums_buf = np.empty_like(rows_buf)
        carry = None
        for start in range(0, n, PREFIX_BLOCK):
            idx = self.order[start:start + PREFIX_BLOCK]
            # The indices are in range; mode="clip" lets take write straight
            # into the buffer, which it would not under the default "raise".
            rows = self.weights.take(idx, axis=0, out=rows_buf[:idx.size], mode="clip")
            sums = sums_buf[:idx.size]
            if carry is None:
                np.cumsum(rows, axis=0, out=sums)
            else:
                # The carry enters the running sum through the first row,
                # which then gets its own weights back.
                first = rows[0].copy()
                rows[0] += carry
                np.cumsum(rows, axis=0, out=sums)
                rows[0] = first
            carry = sums[-1].copy()
            yield start, rows, sums

    def estimate(self, capacities: tuple[Capacity, ...]) -> list[tuple[float, np.ndarray]]:
        """The exact integral (the smallest sample plus each gap between
        consecutive sorted samples times the capacity of the tail above it)
        against each capacity, and each path's influence on it in the paths'
        own order, from one sweep whose every block serves each capacity.

        Scaling path l's weights by 1 + eps moves the tail capacity c_i above
        gap i by eps * w_lj / T_j * ([l lies above gap i] - c_i), taken at
        the control j = j*_i attaining c_i (Danskin's theorem).  Summed over
        the gaps and scaled by n:

            IF_l = n * sum_j w_lj / T_j * (A_j(l) - B_j),

        with A_j(l) the sum of the gaps below l where j attains and B_j the
        sum of gap_i * c_i over those gaps.  T is the capacity's totals, the
        normaliser of capacity.evaluate, and c_i, clipped to [0, 1], is also
        the integral's tail curve.  A / T is carried between blocks like the
        running sums; B is known only at the end, so its term is one product
        with the weight matrix.  Every result is bitwise that of a sweep
        against its capacity alone.
        """
        n, m = self.weights.shape
        curves = [np.empty(n - 1) for _ in capacities]
        below = [np.zeros(m) for _ in capacities]  # A / T at the next block's first row
        attained = [np.zeros(m) for _ in capacities]  # B so far
        outs = [np.empty(n) for _ in capacities]
        # A capacity's tails, then its A / T; only the last overwrites the sums.
        scratch = np.empty((min(n, PREFIX_BLOCK), m))
        column = np.empty(min(n, PREFIX_BLOCK))
        for start, rows, sums in self._running_sums():
            size = rows.shape[0]
            g = min(size, n - 1 - start)  # rows with a gap above them
            inner = min(g, size - 1)
            block_gaps = self.gaps[start:start + g]
            for s, capacity in enumerate(capacities):
                buf = sums if s == len(capacities) - 1 else scratch
                total = capacity.totals
                # Prefix rows 1 .. n-1: the last row is the total, whose tail
                # is empty.  Duplicate positions carry zero width in the dot
                # product, so they need no special case.  The tail capacities
                # against T, and the one attained above each gap.
                tails = np.subtract(total, sums[:g], out=buf[:g])
                tails /= total
                j = tails.argmax(axis=1) if capacity.orientation == "upper" else tails.argmin(axis=1)
                c = tails[np.arange(g), j]
                np.clip(c, 0.0, 1.0, out=curves[s][start:start + g])
                attained[s] += np.bincount(j, weights=block_gaps * c, minlength=m)
                # A / T at every position of the block: the carried value,
                # then each gap one row above its own.  Only the columns of
                # controls attaining in the block (often one) move.
                carried = buf[:size]
                carried[:] = below[s]
                rise = block_gaps[:inner] / total[j[:inner]]
                for col in np.flatnonzero(np.bincount(j[:inner], minlength=m)):
                    column[0] = below[s][col]
                    np.multiply(rise, j[:inner] == col, out=column[1:inner + 1])
                    np.cumsum(column[:inner + 1], out=carried[:inner + 1, col])
                below[s] = carried[-1].copy()
                if g == size:
                    below[s][j[-1]] += block_gaps[-1] / total[j[-1]]
                outs[s][self.order[start:start + size]] = np.einsum("ij,ij->i", rows, carried)
        values = [float(self.values[self.order[0]]) + float(np.dot(self.gaps, curve))
                  for curve in curves]
        del curves  # before the n-vectors below
        for capacity, b, out in zip(capacities, attained, outs):
            out -= self.weights @ (b / capacity.totals)
            out *= n
        return list(zip(values, outs))

    def simple_integral(self, capacity: Capacity) -> float:
        """The integral as a simple function: the smallest value plus each
        step between distinct values times the capacity of reaching it."""
        levels = self.values[self.order[np.concatenate(([0], np.flatnonzero(self.gaps) + 1))]]
        value = float(levels[0])
        for lo, hi in zip(levels[:-1], levels[1:]):
            value += (hi - lo) * capacity.evaluate(self.values >= hi)
        return float(value)


def choquet_estimates(payoff_values: np.ndarray, capacities: Iterable[Capacity]):
    """Yield (choquet_integral, choquet_influence) of one payoff sample
    against each capacity in turn.  The capacities share one weight matrix,
    as a family's upper and lower capacities do: the sample is sorted once
    and one sweep of running sums serves them all (_SortedSample.estimate)."""
    capacities = tuple(capacities)
    weights = capacities[0].weights
    if any(c.weights is not weights for c in capacities):
        raise ValueError("capacities must share one weight matrix")
    x = np.asarray(payoff_values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("payoff_values must be a nonempty 1-d array")
    if not np.all(np.isfinite(x)):
        raise ValueError("payoff_values must be finite")
    if x.size != weights.shape[0]:
        raise ValueError(f"payoff array length {x.size} does not match paths {weights.shape[0]}")
    if weights.shape[1] == 1:
        # A one-member family makes the capacity additive, so the integral
        # collapses to the normalized weighted mean.  Computing it directly
        # is exact and keeps a degenerate family consistent with the plain
        # Monte Carlo estimate to the last bit.
        for capacity in capacities:
            w, total = weights[:, 0], capacity.totals[0]
            value = float(np.mean(w * x) * (x.size / float(total)))
            yield value, x.size * w / total * (x - value)
        return
    sample = _SortedSample(x, weights)
    # Distinct finite values differ by a nonzero gap.
    simple = 1 + np.count_nonzero(sample.gaps) <= SIMPLE_FUNCTION_LIMIT
    estimates = sample.estimate(capacities)
    for capacity in capacities:
        value, influence = estimates.pop(0)
        yield (sample.simple_integral(capacity) if simple else value), influence
        del influence  # the caller may free it before the next one


def choquet_integral(payoff_values: np.ndarray, capacity: Capacity) -> float:
    """Choquet integral of sampled payoff values against a capacity.

    The sampled capacity is a step function of the level, so the level-set
    integral is a finite sum over the distinct values, computed outright
    with no discretization error at any sample size.  A one-member family
    gives the normalized weighted mean, a payoff with a few distinct values
    a simple-function sum through capacity.evaluate (bitwise consistent
    with it on indicators), and any other payoff a sweep of running sums
    over the stably sorted sample (see _SortedSample): O(n m) time for n
    paths and m controls, O(PREFIX_BLOCK * m) extra memory.
    """
    return next(choquet_estimates(payoff_values, (capacity,)))[0]


def choquet_influence(payoff_values: np.ndarray, capacity: Capacity) -> np.ndarray:
    """Influence of each path on choquet_integral(payoff_values, capacity).

    Entry l is n times the derivative of the integral when path l's weight
    row is scaled by 1 + eps (the infinitesimal jackknife).  The capacity
    self-normalises, so the entries sum to zero, and std(IF, ddof=1) / sqrt(n)
    is the integral's standard error.  A one-member family gives
    n * w_l / T * (x_l - integral); larger families differentiate the max
    (or min) at the attaining control, see _SortedSample.estimate.
    """
    return next(choquet_estimates(payoff_values, (capacity,)))[1]


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
    chunk: int = 2,
    tolerance: float = 0.0,
) -> SubmodularityReport:
    """Evaluate the 2-alternating defect on each event pair.

    The four events of each pair are scored in stacks of `chunk` pairs, one
    float matrix of 4 * chunk rows by n paths at a time, so the check's extra
    memory is about 4 * chunk * n * 8 bytes (6.4 MB at the default chunk on
    100k paths).  Every stack has at least four rows, so it goes through the
    BLAS matrix-matrix product; how the BLAS blocks that product can move a
    capacity by an ulp between stack heights, far below any tolerance the
    defects are read against.

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


def choquet_holder_check(x_values: np.ndarray, y_values: np.ndarray, capacity: Capacity,
                         p: float = 2.0, q: float = 2.0,
                         relative_slack: float = 1e-3) -> HolderReport:
    """Check integral of |XY| <= (integral |X|^p)^(1/p) (integral |Y|^q)^(1/q).

    All three integrals are exact.  The tolerance is three standard errors
    of the margin plus a small relative slack for rounding.  The standard
    error comes from the delta method on the integrals' influence
    functions: with Fx and Fy the integrals of |X|^p and |Y|^q, the margin
    rhs - lhs has influence rhs * (IF_Fx / (p Fx) + IF_Fy / (q Fy)) - IF_lhs
    (a factor whose integral is 0 contributes nothing).  Exponents must be
    conjugate: 1/p + 1/q = 1 with p, q > 1.
    """
    return choquet_holder_checks([(x_values, y_values)], capacity, p, q, relative_slack)[0]


def choquet_holder_checks(pairs: Iterable[tuple[np.ndarray, np.ndarray]], capacity: Capacity,
                          p: float = 2.0, q: float = 2.0,
                          relative_slack: float = 1e-3) -> list[HolderReport]:
    """choquet_holder_check on each (x, y) pair.  Pairs may share an array
    (the same Y; or X = Y, whose product and powers coincide): each distinct
    array, by its bytes, is integrated once."""
    if not (p > 1.0 and q > 1.0) or abs(1.0 / p + 1.0 / q - 1.0) > 1e-9:
        raise ValueError(f"exponents must be conjugate with p, q > 1, got p={p}, q={q}")
    estimates: dict[bytes, tuple[float, np.ndarray]] = {}

    def estimate(a: np.ndarray) -> tuple[float, np.ndarray]:
        key = a.tobytes()
        if key not in estimates:
            estimates[key] = next(choquet_estimates(a, (capacity,)))
        return estimates[key]

    reports = []
    for x_values, y_values in pairs:
        xa = np.abs(np.asarray(x_values, dtype=float))
        ya = np.abs(np.asarray(y_values, dtype=float))
        if xa.shape != ya.shape:
            raise ValueError("x and y must have equal length")
        (lhs, if_lhs), (fx, if_fx), (fy, if_fy) = (estimate(a) for a in (xa * ya, xa**p, ya**q))
        factor_x, factor_y = max(fx, 0.0) ** (1.0 / p), max(fy, 0.0) ** (1.0 / q)
        rhs = factor_x * factor_y
        influence = -if_lhs
        for e, integral, if_a in ((p, fx, if_fx), (q, fy, if_fy)):
            if integral > 0.0:
                influence += rhs / (e * integral) * if_a
        se = float(influence.std(ddof=1) / np.sqrt(influence.size))
        tolerance = 3.0 * se + relative_slack * max(abs(rhs), abs(lhs), 1e-12)
        reports.append(HolderReport(p=p, q=q, lhs=lhs, factor_x=factor_x, factor_y=factor_y,
                                    rhs=rhs, margin=rhs - lhs, tolerance=tolerance))
    return reports
