"""Absolutely continuous measure changes driven by bounded drift controls.

Each control is a deterministic process theta with |theta| <= k.  Its density
against the reference measure on a discrete grid is

    w = exp( sum_i theta_i dB_i - 0.5 * sum_i theta_i^2 dt ),

a positive unit-mean weight per path.  Reweighting one common set of paths by
every control in a family gives all the family's expectations with shared
randomness, which is what makes the order relations between estimators hold
at sample level and not just in the limit.

The (n_paths, C) matrix of those weights is never stored: DensityRows
rebuilds any block of its rows from B_T and the kept bang-bang functionals,
and it is the one weight type that capacities, the integral, the profile
and the checks read.  Every reduction here reads the weights block by
block, through the row interface (_Rows), and adds up each block's
`x[block] @ rows` in block order.  weight_matrix and girsanov_weights make
the rows dense, as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidControlError
from .paths import ROW_BLOCK, PathBundle, TimeGrid, with_functionals

__all__ = [
    "ThetaControl",
    "DensityRows",
    "girsanov_weights",
    "Sums",
    "Spread",
    "weight_matrix",
    "expectation_profile",
    "standard_error",
    "default_control_family",
]


@dataclass(frozen=True)
class ThetaControl:
    """Deterministic drift-distortion process, constant or piecewise-constant.

    kind "constant": theta(t) = theta0.
    kind "bang_bang": theta(t) = signs[j] * level on the j-th segment cut by
    switch_times (fractions of the horizon in (0, 1), strictly increasing).
    In both cases |theta| <= bound is enforced at construction.
    """

    bound: float
    kind: str
    theta0: float = 0.0
    switch_times: tuple[float, ...] = ()
    signs: tuple[int, ...] = ()
    level: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.bound) or self.bound < 0.0:
            raise InvalidControlError(f"bound must be >= 0, got {self.bound}")
        if self.kind == "constant":
            if abs(self.theta0) > self.bound + 1e-15:
                raise InvalidControlError(
                    f"constant level {self.theta0} exceeds bound {self.bound}"
                )
        elif self.kind == "bang_bang":
            if abs(self.level) > self.bound + 1e-15:
                raise InvalidControlError(
                    f"bang-bang level {self.level} exceeds bound {self.bound}"
                )
            if len(self.signs) != len(self.switch_times) + 1:
                raise InvalidControlError(
                    f"need {len(self.switch_times) + 1} signs for "
                    f"{len(self.switch_times)} switch times, got {len(self.signs)}"
                )
            if any(s not in (-1, 1) for s in self.signs):
                raise InvalidControlError(f"signs must be +1 or -1, got {self.signs}")
            ts = self.switch_times
            if any(not (0.0 < t < 1.0) for t in ts):
                raise InvalidControlError(f"switch times must lie in (0, 1), got {ts}")
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise InvalidControlError(f"switch times must be strictly increasing, got {ts}")
        else:
            raise InvalidControlError(f"unknown control kind {self.kind!r}")

    @classmethod
    def constant(cls, theta0: float, bound: float) -> "ThetaControl":
        return cls(bound=float(bound), kind="constant", theta0=float(theta0))

    @classmethod
    def bang_bang(
        cls,
        switch_times: tuple[float, ...],
        signs: tuple[int, ...],
        level: float,
        bound: float,
    ) -> "ThetaControl":
        return cls(
            bound=float(bound),
            kind="bang_bang",
            switch_times=tuple(float(t) for t in switch_times),
            signs=tuple(int(s) for s in signs),
            level=float(level),
        )

    def negated(self) -> "ThetaControl":
        if self.kind == "constant":
            return ThetaControl.constant(-self.theta0, self.bound)
        return ThetaControl.bang_bang(
            self.switch_times, tuple(-s for s in self.signs), self.level, self.bound
        )

    def theta_on_grid(self, grid: TimeGrid) -> np.ndarray:
        """theta evaluated at the left endpoint of each grid interval."""
        if self.kind == "constant":
            return np.full(grid.steps, self.theta0)
        left = grid.times()[:-1] / grid.horizon
        cuts = np.asarray(self.switch_times)
        segment = np.searchsorted(cuts, left, side="right")
        return np.asarray(self.signs)[segment] * self.level

    def label(self) -> str:
        if self.kind == "constant":
            return f"theta={self.theta0:+.6g}"
        pattern = "".join("+" if s > 0 else "-" for s in self.signs)
        return f"bang_bang[{pattern}] level={self.level:+.6g}"


def girsanov_weights(control: ThetaControl, bundle: PathBundle) -> np.ndarray:
    """Density of the control's measure against the reference, path by path.

    The column weight_matrix builds for the one-member family (control,),
    with the same validation.  The pricing pipeline does not call it; it is
    kept as library API for one density, and the benchmark's tracer
    (perfbench/tracer.py) resolves it by name.
    """
    return weight_matrix((control,), bundle)[:, 0]


class _Rows:
    """Weight rows, read ROW_BLOCK rows at a time: what every pass over a
    family's densities needs.  A subclass gives `shape`, (n_paths, C),
    rows(index, out), which writes the weight rows `index`, a slice or an
    index array, into `out` (a new array when it is None) and returns it,
    and head(m), the rows of the first m paths.

    Every reduction of the weights takes one rule: each block's
    `x[block] @ rows`, added up in block order (Sums, Spread).  So the
    totals, the sums of any event, the profile's means and the spread's
    squared deviations are formed the same way whatever holds the rows,
    and whichever pass serves them (reduce).
    """

    def blocks(self):
        """(index, rows) per block of ROW_BLOCK rows in natural order, the
        rows in one buffer that every block reuses."""
        n, m = self.shape
        buffer = np.empty((min(n, ROW_BLOCK), m))
        for start in range(0, n, ROW_BLOCK):
            index = slice(start, min(start + ROW_BLOCK, n))
            yield index, self.rows(index, buffer[:index.stop - start])

    def reduce(self, *reductions) -> None:
        """One pass in natural order: each block of rows is read once and
        handed to every reduction, `reduction(index, rows)`, in turn.  No
        reduction writes to the rows, so several can share the pass."""
        for index, rows in self.blocks():
            for reduction in reductions:
                reduction(index, rows)

    @cached_property
    def totals(self) -> np.ndarray:
        """Each column's sum, the full event's sums: the normaliser of the
        family's capacities."""
        return self.sums(np.ones(self.shape[0], dtype=bool))

    def sums(self, x: np.ndarray) -> np.ndarray:
        """x @ W for one vector, or for each row of a stack of them in one
        pass."""
        sums = Sums(x, self.shape[1])
        self.reduce(sums)
        return sums.result

    def dense(self) -> np.ndarray:
        """The rows as one (n_paths, C) array."""
        return self.rows(slice(0, self.shape[0]))


def _require_rows(weights) -> None:
    """Raise TypeError unless `weights` are weight rows (_Rows): the one
    weight type of every consumer."""
    if not isinstance(weights, _Rows):
        raise TypeError(f"weights must be DensityRows, got {type(weights).__name__}")


class Sums:
    """A reduction (_Rows.reduce) of x @ W for one vector x, or for each row
    of a (k, n_paths) stack, boolean masks included: each block's
    `x[block] @ rows`, one product per row of the stack, added up in block
    order.  The stack is read as it is, never copied to floats.  `result`
    has x's leading shape and one entry per column."""

    def __init__(self, x: np.ndarray, width: int) -> None:
        self.stack = np.atleast_2d(x)
        self.shape = np.shape(x)[:-1] + (width,)
        self.totals = np.zeros((len(self.stack), width))

    def __call__(self, index, rows: np.ndarray) -> None:
        for total, x in zip(self.totals, self.stack):
            total += x[index] @ rows

    @property
    def result(self) -> np.ndarray:
        return self.totals.reshape(self.shape)


class Spread:
    """A reduction (_Rows.reduce) of the standard error of the mean of each
    column of W * x[:, None], std(ddof=1) / sqrt(n), from the squared
    deviations from `means`: each block's deviations are formed in a
    buffer of their own and reduced by the rule of the sums.  x None is
    the payoff 1, whose products are the rows themselves and take no
    multiply."""

    def __init__(self, shape: tuple[int, int], x: np.ndarray | None, means: np.ndarray) -> None:
        n, m = shape
        self.n, self.x, self.means = n, x, means
        self.buffer = np.empty((min(n, ROW_BLOCK), m))
        self.ones = np.ones(len(self.buffer))
        self.total = np.zeros(m)

    def __call__(self, index, rows: np.ndarray) -> None:
        squares = self.buffer[:len(rows)]
        if self.x is None:
            np.subtract(rows, self.means, out=squares)
        else:
            np.multiply(rows, self.x[index, None], out=squares)
            squares -= self.means
        np.square(squares, out=squares)
        self.total += self.ones[:len(rows)] @ squares

    @property
    def result(self) -> np.ndarray:
        return np.sqrt(self.total / (self.n - 1)) / np.sqrt(self.n)


class DensityRows(_Rows):
    """A family's density weights on a bundle's paths, rebuilt block by
    block from the paths' statistics instead of stored.

    Row i is exp(stats[i] @ coef - shift).  The statistics are the
    bundle's matrix of B_T and its kept functionals (PathBundle.statistics),
    adopted, not copied: shape (n_paths, 1 + F), with one functional per
    bang-bang pattern (a pattern and its negation share one).  coef is
    (1 + F, C), with theta0 in the B_T row for a constant control, +1 or -1
    in its functional's row for a bang-bang one and 0 in a row the family
    does not read; the shift is theta0^2 T / 2 or theta.theta dt / 2.  Each
    entry of the product has at most one nonzero term, so every row is
    bitwise the per-column formula, whatever order the product sums in.
    A block of rows is one small product and one exp, for a slice in natural
    order or an index array in sorted order alike; memory is the statistics
    (1 + F n-vectors) instead of C.

    Construction makes one natural pass that raises ValueError unless every
    weight is finite and strictly positive, and keeps each column's sum,
    `totals`, reduced by the rule of every pass (_Rows); the `reductions`
    given, such as a payoff's Sums, share that pass.  Functionals the
    bundle does not keep are made by one sequential redraw of its stream.
    """

    def __init__(self, family: tuple[ThetaControl, ...] | list[ThetaControl],
                 bundle: PathBundle, *reductions) -> None:
        family = tuple(family)
        if not family:
            raise ValueError("control family must be nonempty")
        grid = bundle.grid
        thetas = {j: c.theta_on_grid(grid) for j, c in enumerate(family) if c.kind != "constant"}
        bundle = with_functionals(bundle, thetas.values())
        # Each statistic's row of coef is its column of the bundle's
        # matrix, found by identity: a functional serves the pattern it was
        # kept for and that pattern's negation.
        kept = [bundle.brownian_terminal, *bundle.functionals.values()]
        column = {id(a): i for i, a in enumerate(kept)}
        entries, shift = [], np.empty(len(family))
        for j, control in enumerate(family):
            if control.kind == "constant":
                t = control.theta0
                entries.append((0, j, t))
                shift[j] = 0.5 * t * t * grid.horizon
            else:
                sign, functional = bundle.functional(thetas[j])
                entries.append((column[id(functional)], j, sign))
                shift[j] = 0.5 * float(thetas[j] @ thetas[j]) * grid.dt
        self.stats = bundle.statistics()
        self.coef = np.zeros((len(kept), len(family)))
        for row, j, value in entries:
            self.coef[row, j] = value
        self.shift = shift
        self.shape = (bundle.n_paths, len(family))

        def check(index, rows):
            # min > 0 fails on zeros and NaN, max < inf on overflow.
            if not (rows.min() > 0.0 and rows.max() < np.inf):
                raise ValueError("density weights must be finite and strictly positive")

        totals = Sums(np.ones(bundle.n_paths, dtype=bool), len(family))
        self.reduce(check, totals, *reductions)
        self.totals = totals.result

    def rows(self, index, out: np.ndarray | None = None) -> np.ndarray:
        # take gathers rows about twice as fast as fancy indexing.
        stats = self.stats[index] if isinstance(index, slice) else self.stats.take(index, axis=0)
        out = np.matmul(stats, self.coef, out=out)
        out -= self.shift
        return np.exp(out, out=out)

    def column(self, j: int) -> np.ndarray:
        """Column j of the weights, bitwise that column of the rows: each
        entry has one nonzero term, whatever product forms it."""
        out = self.stats @ self.coef[:, j]
        out -= self.shift[j]
        return np.exp(out, out=out)

    def head(self, m: int) -> "DensityRows":
        """The rows of the first m paths: a view of their statistics, whose
        totals are reduced over those m rows when first read."""
        head = object.__new__(DensityRows)
        head.stats, head.coef, head.shift = self.stats[:m], self.coef, self.shift
        head.shape = (m, self.shape[1])
        return head


def weight_matrix(
    family: tuple[ThetaControl, ...] | list[ThetaControl],
    bundle: PathBundle,
) -> np.ndarray:
    """Stack of density weights, one column per control, shape (n_paths, C):
    the family's DensityRows made dense.

    Each block is written into the result by the pass that builds the rows
    and checks them, so the matrix takes one natural pass.  Every entry is
    bitwise what the per-column formula on the dense increments gives.
    Raises ValueError unless every weight is finite and strictly positive.
    """
    out = np.empty((bundle.n_paths, len(family)))

    def fill(index, rows):
        out[index] = rows

    DensityRows(family, bundle, fill)
    return out


def expectation_profile(payoff_values: np.ndarray,
                        weights: DensityRows) -> tuple[np.ndarray, np.ndarray]:
    """Estimates and standard errors of E[payoff] under every family member,
    one per column of the family's weight rows.

    The estimates are sums(x) / n and the standard errors std(ddof=1) /
    sqrt(n) of each column of W * x[:, None], both reduced by the blocks'
    rule (_Rows) with O(ROW_BLOCK * C) extra memory instead of the
    (n_paths, C) products.  A one-member family takes the dense
    .mean(axis=0) and .std(axis=0, ddof=1) / sqrt(n), so with k = 0 the
    estimate is the plain Monte Carlo mean.
    """
    _require_rows(weights)
    x = np.asarray(payoff_values, dtype=float)
    if x.shape != weights.shape[:1]:
        raise ValueError(f"payoff array shape {x.shape} does not match "
                         f"the weight rows' shape {weights.shape}")
    n, m = weights.shape
    if m == 1:
        products = weights.rows(slice(0, n)) * x[:, None]
        return products.mean(axis=0), products.std(axis=0, ddof=1) / np.sqrt(n)
    means = weights.sums(x) / n
    spread = Spread(weights.shape, x, means)
    weights.reduce(spread)
    return means, spread.result


def standard_error(sample: np.ndarray) -> float:
    """The standard error of a sample's mean: its std(ddof=1) over sqrt(n)."""
    return float(sample.std(ddof=1) / np.sqrt(sample.size))


def default_control_family(
    k: float,
    grid_count: int = 21,
) -> tuple[ThetaControl, ...]:
    """Constants on a uniform grid over [-k, k] plus four bang-bang controls
    and their negations.

    The family is closed under negation, and contains theta = 0 when
    grid_count is odd.  With k = 0
    every member collapses to the zero control, so a single one is returned.
    """
    if k < 0.0:
        raise InvalidControlError(f"k must be >= 0, got {k}")
    if grid_count < 2:
        raise ValueError(f"grid_count must be >= 2, got {grid_count}")
    if k == 0.0:
        return (ThetaControl.constant(0.0, 0.0),)
    # Build the positive half and mirror it so negation closure is bitwise.
    half = grid_count // 2
    positive = np.linspace(0.0, k, half + 1)[1:]
    middle = [0.0] if grid_count % 2 == 1 else []
    levels = np.concatenate([-positive[::-1], middle, positive])
    constants = [ThetaControl.constant(t, k) for t in levels]
    patterns: list[tuple[tuple[float, ...], tuple[int, ...]]] = [
        ((0.5,), (1, -1)),
        ((1.0 / 3.0, 2.0 / 3.0), (1, -1, 1)),
        ((0.25, 0.75), (1, -1, 1)),
        ((0.2, 0.4, 0.6, 0.8), (1, -1, 1, -1, 1)),
    ]
    bang: list[ThetaControl] = []
    for times, signs in patterns:
        c = ThetaControl.bang_bang(times, signs, k, k)
        bang.extend([c, c.negated()])
    return tuple(constants) + tuple(bang)
