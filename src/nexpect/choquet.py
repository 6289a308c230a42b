"""Capacities induced by a measure family and Choquet integration against them.

The upper capacity of an event is the largest reweighted probability over the
family, the lower capacity the smallest.  Integration uses the survival-curve
form: integral of c(X > x) over positive levels plus integral of c(X > x) - 1
over negative levels.  Every payoff, tied or not, goes through running sums
of the weights in sorted order, evaluated at every sample, so the in-sample
integral is exact.  A sample is sorted once for the upper and the lower
capacity, and one sweep serves both, giving each integral and each path's
influence on it, hence its standard error (the infinitesimal jackknife);
one natural pass over the weights finishes the influences and serves any
other reductions the caller hands over (choquet_estimates).  Per path, an
estimate holds only the sort order and each capacity's influences: the
gaps and the tail curve are taken block by block, and each integral adds
up its blocks' dot products in block order, the rule of every weight pass.
The same sort and running sums weigh every threshold event of a sample, and
the union and intersection of two, for the submodularity check.  Every
capacity value is normalised by its weight rows' totals.  A capacity's
weights are a family's rows (measures.DensityRows), rebuilt block by block
for every pass; no weight matrix is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .measures import DensityRows, _require_rows, standard_error
from .paths import ROW_BLOCK


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

    # The kinds made from a strike, each by the classmethod of its name.
    BUILT_IN = ("call", "put", "digital")

    name: str
    kind: str  # one of BUILT_IN, or "custom"
    monotonicity: str  # "increasing" | "decreasing" | "none"
    fn: Callable[[np.ndarray], np.ndarray]
    strike: Optional[float] = None

    def __post_init__(self) -> None:
        if self.monotonicity not in ("increasing", "decreasing", "none"):
            raise ValueError(f"unknown monotonicity {self.monotonicity!r}")
        if self.kind not in (*self.BUILT_IN, "custom"):
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

    def check_monotonicity(self, samples: np.ndarray) -> None:
        """Spot-check the declared direction on a sample of states.

        Raises ValueError with a witnessing pair when the sampled values move
        against the declaration by more than 1e-9 of the largest |value|
        (at least 1).  A "none" declaration always passes.
        """
        if self.monotonicity == "none":
            return
        s = np.unique(np.asarray(samples, dtype=float))
        if s.size < 2:
            return
        v = self.map(s)
        d = np.diff(v)
        slack = 1e-9 * max(float(np.abs(v).max()), 1.0)
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
    """Upper or lower envelope of reweighted probabilities over a family,
    given by its weight rows (measures.DensityRows, or a head of them), one
    column per control.

    Weights are self-normalised per control by the rows' own totals, the
    reduction that evaluate() applies to an event, so evaluate() returns
    exactly 0 on the empty event and exactly 1 on the full event, and values
    are clipped to [0, 1] against last-ulp rounding.
    """

    orientation: str  # "upper" | "lower"
    weights: DensityRows  # (n_paths, n_controls)

    def __post_init__(self) -> None:
        if self.orientation not in ("upper", "lower"):
            raise ValueError(f"orientation must be 'upper' or 'lower', got {self.orientation!r}")
        _require_rows(self.weights)
        if not self.weights.shape[1]:
            raise ValueError("capacity requires at least one control")

    @property
    def totals(self) -> np.ndarray:
        """Each control's weight total, the normaliser: the rows' totals."""
        return self.weights.totals

    @property
    def n_paths(self) -> int:
        return self.weights.shape[0]

    def _reduce(self, per_control: np.ndarray) -> np.ndarray:
        if self.orientation == "upper":
            return per_control.max(axis=-1)
        return per_control.min(axis=-1)

    def evaluate(self, event: np.ndarray):
        """Capacity of one event given as a boolean path mask, a float; or of
        each event of a (k, n_paths) stack of masks, an array, from one pass
        over the weights with one `mask[block] @ rows` product per event."""
        ev = np.asarray(event)
        if ev.ndim not in (1, 2) or ev.shape[-1] != self.n_paths:
            raise ValueError(f"event shape {ev.shape} does not match paths {self.n_paths}")
        capacities = self.from_sums(self.weights.sums(ev))
        return float(capacities) if ev.ndim == 1 else capacities

    def from_sums(self, sums: np.ndarray):
        """Capacity of each event from its weight sums, `event @ weights`
        reduced as the totals are, along the last axis: a scalar for one
        event, an array for a stack.  Capacities that share their weights
        can share the sums."""
        return np.clip(self._reduce(sums / self.totals), 0.0, 1.0)


def build_capacity(orientation: str, weights: DensityRows) -> Capacity:
    """The capacity of a family's weight rows, so that upper and lower
    capacities and the minimax search share one set of densities."""
    return Capacity(orientation, weights)


# ---------------------------------------------------------------------------
# the integral
# ---------------------------------------------------------------------------

class _SortedSample:
    """A payoff sample sorted once, integrable in one sweep against every
    capacity on those weight rows, and the prefix engine of its events.

    The tail weight of {X > x} per control is a capacity's total minus a
    running sum of the weights in ascending order of X.  Those running sums
    come from a sweep over blocks of ROW_BLOCK sorted rows: each block
    rebuilds its weight rows, adds the total carried over from the previous
    block into its first row and takes its running sum.  Every sum is thus formed
    by the same additions in the same order as one running sum over all n
    rows, and is bitwise equal to it, while only one block is alive at a
    time.  The sample keeps only its stable sort order, an n-vector of
    indices: no sorted copy of the values, and no gaps.  A prefix needs
    every running sum, so this sweep carries its sums instead of adding up
    block products as every other weight pass does (measures._Rows); the
    full event is the totals themselves (prefix_sums).  The sums do not
    depend on the capacity, so each block's tails serve every capacity
    before the next is gathered.  Any event that is a run of consecutive
    ranks, such as a threshold event of X, takes its weight sums from two
    of those running sums (prefix_sums).
    """

    def __init__(self, values: np.ndarray, weights: DensityRows) -> None:
        self.values, self.weights = values, weights
        self.order = np.argsort(values, kind="stable")

    def _running_sums(self):
        """Yield (start, rows, sums) per block: rows[i] is the weight row of
        the (start + i + 1)-th smallest sample and sums[i] the weight per
        control of the start + i + 1 smallest samples.  Both are views of two
        buffers that every block reuses, so a caller may overwrite them."""
        n, m = self.weights.shape
        rows_buf = np.empty((min(n, ROW_BLOCK), m))
        sums_buf = np.empty_like(rows_buf)
        carry = None
        for start in range(0, n, ROW_BLOCK):
            idx = self.order[start:start + ROW_BLOCK]
            rows = self.weights.rows(idx, rows_buf[:idx.size])
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

    def prefix_sums(self, ranks: np.ndarray, totals: np.ndarray) -> np.ndarray:
        """Row i is P[ranks[i]], the weight per control of the ranks[i]
        smallest samples, for ascending distinct ranks in 0 .. n.  P[0] is 0
        and P[n] is `totals`, so the empty and the full event are exact; the
        rows between are running sums, gathered up to the largest rank."""
        n, m = self.weights.shape
        done, last = np.searchsorted(ranks, (1, n))
        out = np.zeros((ranks.size, m))
        out[last:] = totals
        blocks = self._running_sums()
        while done < last:
            start, _, sums = next(blocks)  # sums[i] is P[start + i + 1]
            stop = min(np.searchsorted(ranks, start + sums.shape[0], side="right"), last)
            out[done:stop] = sums[ranks[done:stop] - (start + 1)]
            done = stop
        return out

    def sweep(self, capacities: tuple[Capacity, ...]) -> tuple[list[float], "Influences"]:
        """The exact integral (the smallest sample plus each gap between
        consecutive sorted samples times the capacity of the tail above it)
        against each capacity, and each path's influence on it in the paths'
        own order, from one sweep whose every block serves each capacity;
        the influences' last term waits for a natural pass (Influences).
        Each block takes its own gaps from its sorted values and clips its
        tail curve into a block buffer, and each integral adds the block's
        `gaps @ curve` in block order, as every weight pass adds its
        blocks' products (measures._Rows).  So per path the sweep holds
        only the order and one influence array per capacity.

        Scaling path l's weights by 1 + eps moves the tail capacity c_i above
        gap i by eps * w_lj / T_j * ([l lies above gap i] - c_i), taken at
        the control j = j*_i attaining c_i (Danskin's theorem).  Summed over
        the gaps and scaled by n:

            IF_l = n * sum_j w_lj / T_j * (A_j(l) - B_j),

        with A_j(l) the sum of the gaps below l where j attains and B_j the
        sum of gap_i * c_i over those gaps.  T is the rows' totals, the
        normaliser of capacity.evaluate, and c_i, clipped to [0, 1], is also
        the integral's tail curve.  A / T is carried between blocks like the
        running sums; B is known only at the end, so its term takes a pass
        over the weight rows in natural order, for every capacity at once,
        which other reductions can share.  The capacities share their rows,
        hence their totals, so each block's tails are taken once, for all of
        them.
        Every result is bitwise that of a sweep against its capacity alone.
        """
        n, m = self.weights.shape
        total = capacities[0].totals
        integrals = [0.0 for _ in capacities]  # the gaps' part, block by block
        below = [np.zeros(m) for _ in capacities]  # A / T at the next block's first row
        attained = [np.zeros(m) for _ in capacities]  # B so far
        outs = [np.empty(n) for _ in capacities]
        column = np.empty(min(n, ROW_BLOCK))
        curve = np.empty_like(column)
        for start, rows, sums in self._running_sums():
            size = rows.shape[0]
            g = min(size, n - 1 - start)  # rows with a gap above them
            inner = min(g, size - 1)
            block_gaps = np.diff(self.values[self.order[start:start + g + 1]])
            # Prefix rows 1 .. n-1: the last row is the total, whose tail is
            # empty.  Duplicate positions carry zero width in the dot
            # product, so they need no special case.  The tail capacities
            # against T, written over the sums, and the one each capacity
            # attains above each gap.
            tails = np.subtract(total, sums[:g], out=sums[:g])
            tails /= total
            picks = []
            for capacity in capacities:
                j = tails.argmax(axis=1) if capacity.orientation == "upper" else tails.argmin(axis=1)
                picks.append((j, tails[np.arange(g), j]))
            for s, (j, c) in enumerate(picks):
                np.clip(c, 0.0, 1.0, out=curve[:g])
                integrals[s] += float(block_gaps @ curve[:g])
                attained[s] += np.bincount(j, weights=block_gaps * c, minlength=m)
                # A / T at every position of the block, written over the
                # sums: the carried value, then each gap one row above its
                # own.  Only the columns of controls attaining in the block
                # (often one) move.
                carried = sums
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
        values = [float(self.values[self.order[0]]) + integral for integral in integrals]
        scales = [b / total for b in attained]
        return values, Influences(outs, scales)


class Influences:
    """Each capacity's influences, left by the sorted sweep without their
    last term, the B term W @ (B / T), and finished as a reduction
    (measures._Rows.reduce): each block of rows in natural order takes
    `rows @ (B / T)` from its paths' entries for every capacity, which are
    then scaled by n.  `influences` holds the finished arrays after the
    pass; a one-member family's are finished from the start (`scales` is
    empty)."""

    def __init__(self, influences: list[np.ndarray], scales: list[np.ndarray]) -> None:
        self.influences, self.scales = influences, scales

    def __call__(self, index, rows: np.ndarray) -> None:
        for out, scale in zip(self.influences, self.scales):
            out[index] -= rows @ scale
            out[index] *= out.size


def choquet_estimates(payoff_values: np.ndarray, capacities: Iterable[Capacity],
                      *reductions) -> list[tuple[float, np.ndarray]]:
    """(integral, influence) of one payoff sample against each capacity.

    The integral is choquet_integral's.  Influence entry l is n times the
    derivative of the integral when path l's weight row is scaled by
    1 + eps (the infinitesimal jackknife).  The capacity self-normalises,
    so the entries sum to zero, and std(IF, ddof=1) / sqrt(n) is the
    integral's standard error.  A one-member family gives
    n * w_l / T * (x_l - integral); larger families differentiate the max
    (or min) at the attaining control (see _SortedSample.sweep).

    The capacities share one weight matrix, as a family's upper and lower
    capacities do, and so its totals: the sample is sorted once and one sweep
    of running sums serves them all.  One more pass over the weight rows in
    natural order finishes every influence, and the `reductions` given
    (measures._Rows.reduce), such as a payoff's Spread, share that pass;
    their results are bitwise those of a pass of their own.
    """
    capacities = tuple(capacities)
    weights = capacities[0].weights
    if any(c.weights is not weights for c in capacities[1:]):
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
        # Monte Carlo estimate to the last bit.  Its influences need no
        # further pass.
        w, total = weights.rows(slice(0, x.size))[:, 0], weights.totals[0]
        value = float(np.mean(w * x) * (x.size / float(total)))
        values = [value] * len(capacities)
        influences = Influences([x.size * w / total * (x - value) for _ in capacities], [])
    else:
        values, influences = _SortedSample(x, weights).sweep(capacities)
    if influences.scales or reductions:
        weights.reduce(influences, *reductions)
    return list(zip(values, influences.influences))


def choquet_integral(payoff_values: np.ndarray, capacity: Capacity) -> float:
    """Choquet integral of sampled payoff values against a capacity.

    The sampled capacity is a step function of the level, so the level-set
    integral is a finite sum over the distinct values, computed outright
    with no discretization error at any sample size.  A one-member family
    gives the normalized weighted mean, and any other a sweep of running
    sums over the stably sorted sample (see _SortedSample): O(n m) time for
    n paths and m controls; extra memory is the sort order and the
    influence array, two n-vectors, plus O(ROW_BLOCK * m) for the blocks.
    """
    return choquet_estimates(payoff_values, (capacity,))[0][0]


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def submodularity_check(
    capacity: Capacity,
    values: np.ndarray,
    pairs: Iterable[tuple[tuple[float, bool], tuple[float, bool]]],
) -> np.ndarray:
    """The 2-alternating defect on each pair of threshold events of the
    sample `values`, given as ((t_a, above_a), (t_b, above_b)) like
    random_threshold_pairs yields them (see threshold_event).

    For an upper capacity the defect is c(A|B) + c(A&B) - c(A) - c(B), which
    should be <= 0; for a lower capacity the inequality (and so the sign)
    flips.  The defects are oriented so positive means broken.  Every event
    comes from one sort of the sample and one sweep of running sums
    (_pair_capacities): O(n + ROW_BLOCK * m) extra memory, plus a few
    weight rows per pair.
    """
    vals = _pair_capacities(capacity, values, pairs)
    d = vals[:, 2] + vals[:, 3] - vals[:, 0] - vals[:, 1]
    return d if capacity.orientation == "upper" else -d


def _pair_capacities(
    capacity: Capacity,
    values: np.ndarray,
    pairs: Iterable[tuple[tuple[float, bool], tuple[float, bool]]],
) -> np.ndarray:
    """c(A), c(B), c(A|B) and c(A&B) for each pair of threshold events, one
    row per pair.

    In the stable rank order of the sample, {x <= t} is the rank run [0, k)
    and {x > t} is [k, n), with k the count of samples <= t (a sample tied
    with t falls in {x <= t}, as in threshold_event).  A & B is the overlap
    of two such runs, empty when they are apart.  A | B is the run spanning
    both when they overlap or touch; when they are apart, one starts at rank
    0 and the other ends at n, so it is everything but the gap between
    them.  A run [l, h) weighs P[h] - P[l] (_SortedSample.prefix_sums), and
    everything but it weighs the totals less that.
    """
    x = np.asarray(values, dtype=float)
    if x.shape != (capacity.n_paths,):
        raise ValueError(f"values shape {x.shape} does not match paths {capacity.n_paths}")
    if not np.all(np.isfinite(x)):
        raise ValueError("values must be finite")
    spec = np.array([(ta, above_a, tb, above_b) for (ta, above_a), (tb, above_b) in pairs],
                    dtype=float).reshape(-1, 4)
    if not spec.shape[0]:
        raise ValueError("no event pairs supplied")
    n = x.size
    sample = _SortedSample(x, capacity.weights)
    ranks = np.searchsorted(x[sample.order], spec[:, [0, 2]], side="right")
    above = spec[:, [1, 3]] != 0.0
    (la, lb), (ha, hb) = np.where(above, ranks, 0).T, np.where(above, n, ranks).T
    l_meet, h_meet = np.maximum(la, lb), np.minimum(ha, hb)
    apart = l_meet > h_meet
    lows = np.stack([la, lb, np.where(apart, h_meet, np.minimum(la, lb)), l_meet], axis=1)
    highs = np.stack([ha, hb, np.where(apart, l_meet, np.maximum(ha, hb)),
                      np.maximum(l_meet, h_meet)], axis=1)
    needed, where = np.unique(np.stack([lows, highs]), return_inverse=True)
    prefix = sample.prefix_sums(needed, capacity.totals)[where.reshape(2, *lows.shape)]
    sums = prefix[1] - prefix[0]
    sums[apart, 2] = capacity.totals - sums[apart, 2]
    return capacity.from_sums(sums)


def threshold_event(values: np.ndarray, threshold: float, above: bool) -> np.ndarray:
    """The event {x > threshold} if `above`, else {x <= threshold}, as a
    boolean mask over the sample."""
    return values > threshold if above else values <= threshold


def random_threshold_pairs(
    values: np.ndarray,
    count: int,
    rng: np.random.Generator,
):
    """Yield ((t_a, above_a), (t_b, above_b)) pairs of threshold events on
    the given sample values (threshold_event turns one into a mask).

    Thresholds sit at random quantiles in [0.05, 0.95]; about 30% of pairs
    use the same direction on both thresholds so that one event contains
    the other.
    """
    x = np.asarray(values, dtype=float)
    lo, hi = np.quantile(x, [0.05, 0.95])
    for _ in range(count):
        ta, tb = rng.uniform(lo, hi, size=2)
        same_direction = rng.uniform() < 0.3
        dir_a = rng.uniform() < 0.5
        dir_b = dir_a if same_direction else (rng.uniform() < 0.5)
        yield (float(ta), bool(dir_a)), (float(tb), bool(dir_b))


# Both exponents of the Hoelder check: p = q = 2, a conjugate pair (1/p + 1/q = 1).
HOLDER_EXPONENT = 2.0


@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    margin: float  # rhs - lhs, negative means violated
    tolerance: float  # the margin's error bar


def choquet_holder_check(x_values: np.ndarray, y_values: np.ndarray,
                         capacity: Capacity) -> HolderReport:
    """The margin of integral |XY| <= (integral |X|^p)^(1/p) (integral |Y|^p)^(1/p)
    with p = HOLDER_EXPONENT, and its error bar.

    All three integrals are exact.  The tolerance is three standard errors
    of the margin plus 1e-3 of the larger side, a slack for rounding.  The
    standard error comes from the delta method on the integrals' influence
    functions: with Fx and Fy the integrals of |X|^p and |Y|^p, the margin
    rhs - lhs has influence rhs * (IF_Fx / (p Fx) + IF_Fy / (p Fy)) - IF_lhs
    (a factor whose integral is 0 contributes nothing).
    """
    return choquet_holder_checks([(x_values, y_values)], capacity)[0]


def choquet_holder_checks(pairs: Iterable[tuple[np.ndarray, np.ndarray]],
                          capacity: Capacity) -> list[HolderReport]:
    """choquet_holder_check on each (x, y) pair.  Pairs may share an array
    (the same Y; or X = Y, whose product is its power, since p = 2):
    inputs equal in value are one input, and each integrand, |x y| or
    |x|^p, is named by its inputs and integrated once.  Only each
    integrand's (integral, influence) is kept, not its values."""
    p = HOLDER_EXPONENT
    inputs: list[np.ndarray] = []  # the caller's arrays, one per value
    estimates: dict[tuple[int, int], tuple[float, np.ndarray]] = {}

    def distinct(values: np.ndarray) -> int:
        a = np.asarray(values, dtype=float)
        for i, b in enumerate(inputs):
            if a is b or (a.shape == b.shape and np.array_equal(a, b)):
                return i
        inputs.append(a)
        return len(inputs) - 1

    def estimate(i: int, j: int) -> tuple[float, np.ndarray]:
        """The integral of |x_i x_j|, or of |x_i|^p when i == j: |x| |y|
        and |x y| round alike."""
        key = (min(i, j), max(i, j))
        if key not in estimates:
            if i == j:
                a = np.abs(inputs[i])
                a **= p
            else:
                a = np.multiply(inputs[i], inputs[j])
                np.abs(a, out=a)
            [estimates[key]] = choquet_estimates(a, (capacity,))
        return estimates[key]

    reports = []
    for x_values, y_values in pairs:
        if np.shape(x_values) != np.shape(y_values):
            raise ValueError("x and y must have equal length")
        i, j = distinct(x_values), distinct(y_values)
        (lhs, if_lhs), (fx, if_fx), (fy, if_fy) = (estimate(*key) for key in ((i, j), (i, i), (j, j)))
        rhs = max(fx, 0.0) ** (1.0 / p) * max(fy, 0.0) ** (1.0 / p)
        influence = -if_lhs
        for integral, if_a in ((fx, if_fx), (fy, if_fy)):
            if integral > 0.0:
                influence += rhs / (p * integral) * if_a
        tolerance = 3.0 * standard_error(influence) + 1e-3 * max(abs(rhs), abs(lhs), 1e-12)
        reports.append(HolderReport(lhs=lhs, rhs=rhs, margin=rhs - lhs, tolerance=tolerance))
    return reports
