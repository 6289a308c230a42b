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
and every reduction here reads the weights block by block, through the
same row interface for a DensityRows and for a stored matrix (weight_rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidControlError
from .paths import ROW_BLOCK, PathBundle, TimeGrid, with_functionals

__all__ = [
    "ThetaControl",
    "DensityRows",
    "girsanov_weights",
    "weight_rows",
    "weight_matrix",
    "density_moments",
    "expectation_profile",
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


def _carried_sum(blocks) -> np.ndarray:
    """Column sums of a sequence of (rows, C) blocks, each block first
    adding the sums carried from the one before into its first row.

    numpy reduces axis 0 of a C-ordered (rows, C > 1) block with one running
    sum per column, so the result is bitwise the sum of the stacked blocks
    along axis 0.  The blocks are overwritten.
    """
    total = None
    for block in blocks:
        if total is not None:
            block[0] += total
        total = block.sum(axis=0)
    return total


class _Rows:
    """Weight rows, read ROW_BLOCK rows at a time: what every pass over a
    family's densities needs.  `shape` is (n_paths, C), and rows(index, out)
    writes the weight rows `index`, a slice or an index array, into `out`
    (a new array when it is None) and returns it."""

    ndim = 2

    def blocks(self, scratch: bool = False):
        """(index, rows) per block of ROW_BLOCK rows in natural order.  The
        rows are one buffer that every block reuses, or, for a stored matrix
        unless `scratch` asks for a buffer the caller may overwrite, a view
        of it."""
        n, m = self.shape
        buffer = np.empty((min(n, ROW_BLOCK), m))
        for start in range(0, n, ROW_BLOCK):
            index = slice(start, min(start + ROW_BLOCK, n))
            yield index, self.rows(index, buffer[:index.stop - start])

    def weighted_blocks(self, x: np.ndarray):
        """Each natural block of weight rows times x, row by row, in one
        buffer that every block reuses and a caller may overwrite."""
        for index, rows in self.blocks(scratch=True):
            rows *= x[index, None]
            yield rows


class DensityRows(_Rows):
    """A family's density weights on a bundle's paths, rebuilt block by
    block from the paths' statistics instead of stored.

    Row i is exp(stats[i] @ coef - shift).  The statistics are B_T and one
    kept functional per bang-bang pattern (a pattern and its negation share
    one), shape (n_paths, 1 + F); coef is (1 + F, C), with theta0 in the B_T
    row for a constant control and +1 or -1 in its functional's row for a
    bang-bang one; the shift is theta0^2 T / 2 or theta.theta dt / 2.  Each
    entry of the product has exactly one nonzero term, so every row is
    bitwise the per-column formula, whatever order the product sums in.
    A block of rows is one small product and one exp, for a slice in natural
    order or an index array in sorted order alike; memory is the statistics
    (1 + F n-vectors) instead of C.

    Construction makes one natural pass that raises ValueError unless every
    weight is finite and strictly positive, and keeps each column's sum,
    `totals`: the blocks' products `ones @ rows`, added up in block order.
    `sums(x)` reduces x @ W the same way, so the payoff 1 gives the totals
    bitwise.  Functionals the bundle does not keep are made by one
    sequential redraw of its stream.
    """

    def __init__(self, family: tuple[ThetaControl, ...] | list[ThetaControl],
                 bundle: PathBundle) -> None:
        family = tuple(family)
        if not family:
            raise ValueError("control family must be nonempty")
        grid = bundle.grid
        thetas = {j: c.theta_on_grid(grid) for j, c in enumerate(family) if c.kind != "constant"}
        bundle = with_functionals(bundle, thetas.values())
        # Each statistic's row of coef, by identity: a functional serves the
        # pattern it was kept for and that pattern's negation.
        stats = {id(bundle.brownian_terminal): (0, bundle.brownian_terminal)}
        entries, shift = [], np.empty(len(family))
        for j, control in enumerate(family):
            if control.kind == "constant":
                t = control.theta0
                entries.append((0, j, t))
                shift[j] = 0.5 * t * t * grid.horizon
            else:
                sign, functional = bundle.functional(thetas[j])
                row, _ = stats.setdefault(id(functional), (len(stats), functional))
                entries.append((row, j, sign))
                shift[j] = 0.5 * float(thetas[j] @ thetas[j]) * grid.dt
        self.stats = np.column_stack([a for _, a in sorted(stats.values(), key=lambda s: s[0])])
        self.coef = np.zeros((len(stats), len(family)))
        for row, j, value in entries:
            self.coef[row, j] = value
        self.shift = shift
        self.shape = (bundle.n_paths, len(family))
        [self.totals] = self._sums(np.ones((1, bundle.n_paths)), validate=True)

    def rows(self, index, out: np.ndarray | None = None) -> np.ndarray:
        # take gathers rows about twice as fast as fancy indexing.
        stats = self.stats[index] if isinstance(index, slice) else self.stats.take(index, axis=0)
        out = np.matmul(stats, self.coef, out=out)
        out -= self.shift
        return np.exp(out, out=out)

    def sums(self, x: np.ndarray) -> np.ndarray:
        """x @ W for one vector, or for each row of a stack of them in one
        pass, reduced like the totals."""
        return self._sums(np.atleast_2d(x)).reshape(np.shape(x)[:-1] + (self.shape[1],))

    def _sums(self, stack: np.ndarray, validate: bool = False) -> np.ndarray:
        sums = np.zeros((len(stack), self.shape[1]))
        for index, rows in self.blocks():
            # min > 0 fails on zeros and NaN, max < inf on overflow.
            if validate and not (rows.min() > 0.0 and rows.max() < np.inf):
                raise ValueError("density weights must be finite and strictly positive")
            for total, x in zip(sums, stack):
                total += x[index] @ rows
        return sums

    def dense(self, m: int | None = None, threads: int = 1) -> np.ndarray:
        """The first m rows (all by default) as one (m, C) array, filled in
        blocks of ROW_BLOCK rows; with threads > 1 a pool fills the same
        blocks, so the result does not depend on the thread count."""
        m = self.shape[0] if m is None else m
        out = np.empty((m, self.shape[1]))

        def fill(start: int) -> None:
            index = slice(start, min(start + ROW_BLOCK, m))
            self.rows(index, out[index])

        starts = range(0, m, ROW_BLOCK)
        if threads <= 1:
            for start in starts:
                fill(start)
        else:
            # Imported here: concurrent.futures pulls in logging, which a
            # single-threaded run has no use for.
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=int(threads)) as pool:
                list(pool.map(fill, starts))
        return out


class _StoredRows(_Rows):
    """A weight matrix held in memory, read through the row interface.  Its
    totals and sums are the matrix products `ones @ W` and `x @ W`, one
    per event."""

    def __init__(self, weights: np.ndarray) -> None:
        self.weights, self.shape = weights, weights.shape

    def rows(self, index, out: np.ndarray | None = None) -> np.ndarray:
        if not isinstance(index, slice):
            # mode="clip" lets take write straight into `out`, which it
            # would not under the default "raise"; the indices are in range.
            return self.weights.take(index, axis=0, out=out, mode="clip")
        if out is None:
            return self.weights[index].copy()
        out[...] = self.weights[index]
        return out

    def blocks(self, scratch: bool = False):
        if scratch:
            yield from super().blocks()
            return
        n = self.shape[0]
        for start in range(0, n, ROW_BLOCK):
            index = slice(start, min(start + ROW_BLOCK, n))
            yield index, self.weights[index]

    @property
    def totals(self) -> np.ndarray:
        return np.ones(self.shape[0]) @ self.weights

    def sums(self, x: np.ndarray) -> np.ndarray:
        if np.ndim(x) == 2:
            return np.array([event @ self.weights for event in x])
        return x @ self.weights

    def dense(self, m: int | None = None, threads: int = 1) -> np.ndarray:
        return self.weights[:m]


def weight_rows(weights: "DensityRows | np.ndarray") -> "DensityRows | _StoredRows":
    """The row interface of a family's weights: a DensityRows as it is, an
    (n_paths, C) matrix wrapped, such as weight_matrix returns or a crafted
    one (signed, zero) that a test feeds to a check."""
    return weights if isinstance(weights, DensityRows) else _StoredRows(weights)


def weight_matrix(
    family: tuple[ThetaControl, ...] | list[ThetaControl],
    bundle: PathBundle,
    threads: int = 1,
) -> np.ndarray:
    """Stack of density weights, one column per control, shape (n_paths, C):
    the family's DensityRows made dense.

    Every entry is bitwise what the per-column formula on the dense
    increments gives.  With threads > 1 a pool fills the blocks, so the
    result does not depend on the thread count.  Raises ValueError unless
    every weight is finite and strictly positive.
    """
    return DensityRows(family, bundle).dense(threads=threads)


def _spread(blocks, mean: np.ndarray, n: int) -> np.ndarray:
    """Standard error of the mean of each column of the stacked blocks,
    std(ddof=1) / sqrt(n), from one carried sum of squared deviations.  The
    blocks are overwritten."""

    def deviations():
        for block in blocks:
            block -= mean
            yield np.square(block, out=block)

    return np.sqrt(_carried_sum(deviations()) / (n - 1)) / np.sqrt(n)


def _column_moments(weights: "DensityRows | np.ndarray",
                    x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard error of weights * x[:, None].

    The results are bitwise equal to the dense products.mean(axis=0) and
    products.std(axis=0, ddof=1) / sqrt(n): one sweep over ROW_BLOCK rows
    sums the products and one their squared deviations from the mean, each
    carried from block to block (_carried_sum), so only one block is alive
    at a time and the extra memory is O(ROW_BLOCK * C).  numpy reduces an
    (n, 1) array pairwise instead, so a single column keeps the dense
    formula.
    """
    rows = weight_rows(weights)
    n, m = rows.shape
    if m == 1:
        products = rows.rows(slice(0, n)) * x[:, None]
        return products.mean(axis=0), products.std(axis=0, ddof=1) / np.sqrt(n)
    mean = _carried_sum(rows.weighted_blocks(x)) / n
    return mean, _spread(rows.weighted_blocks(x), mean, n)


def density_moments(weights: "DensityRows | np.ndarray") -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each density column.

    The means are totals / n, so they are bitwise what normalises the
    family's capacities, and one sweep takes the squared deviations from
    them.  expectation_profile of the payoff 1 adds the same weights in
    another order, so its means may differ in the last bits.
    """
    rows = weight_rows(weights)
    n = rows.shape[0]
    means = rows.totals / n
    return means, _spread((block for _, block in rows.blocks(scratch=True)), means, n)


def expectation_profile(payoff_values: np.ndarray,
                        weights: "DensityRows | np.ndarray") -> tuple[np.ndarray, np.ndarray]:
    """Estimates and standard errors of E[payoff] under every family member,
    one per column of the family's weights (a DensityRows, or a matrix such
    as weight_matrix returns).

    Bitwise equal to (W * x[:, None]).mean(axis=0) and
    .std(axis=0, ddof=1) / sqrt(n_paths), computed in two sweeps over
    ROW_BLOCK-row blocks with O(ROW_BLOCK * C) extra memory instead of the
    (n_paths, C) products; one-member families use that dense formula.
    """
    x = np.asarray(payoff_values, dtype=float)
    if weights.ndim != 2 or x.shape != weights.shape[:1]:
        raise ValueError(f"payoff array shape {x.shape} does not match "
                         f"the weight matrix's shape {weights.shape}")
    return _column_moments(weights, x)


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
