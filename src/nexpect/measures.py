"""Absolutely continuous measure changes driven by bounded drift controls.

Each control is a deterministic process theta with |theta| <= k.  Its density
against the reference measure on a discrete grid is

    w = exp( sum_i theta_i dB_i - 0.5 * sum_i theta_i^2 dt ),

a positive unit-mean weight per path.  Reweighting one common set of paths by
every control in a family gives all the family's expectations with shared
randomness, which is what makes the order relations between estimators hold
at sample level and not just in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidControlError
from .paths import ROW_BLOCK, PathBundle, TimeGrid, with_functionals

__all__ = [
    "ThetaControl",
    "girsanov_weights",
    "weight_matrix",
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


def _column_moments(weights: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard error of weights * x[:, None].

    The results are bitwise equal to the dense products.mean(axis=0) and
    products.std(axis=0, ddof=1) / sqrt(n).  numpy reduces axis 0 of a
    C-ordered (n, C > 1) array with one running sum per column, so two
    sweeps over ROW_BLOCK rows repeat those additions exactly when each
    block first adds the column totals carried from the block before into
    its first row: one sweep sums the products, the other their squared
    deviations from the mean.  Only one block is alive at a time, so the
    extra memory is O(ROW_BLOCK * C).  numpy reduces an (n, 1) array
    pairwise instead, so a single column keeps the dense formula.
    """
    n = weights.shape[0]
    if weights.shape[1] == 1:
        products = weights * x[:, None]
        return products.mean(axis=0), products.std(axis=0, ddof=1) / np.sqrt(n)

    def blocks():
        for start in range(0, n, ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            yield weights[rows] * x[rows, None]

    def carried_sum(block: np.ndarray, total: np.ndarray | None) -> np.ndarray:
        if total is not None:
            block[0] += total
        return block.sum(axis=0)

    total = None
    for block in blocks():
        total = carried_sum(block, total)
    mean = total / n
    total = None
    for block in blocks():
        block -= mean
        np.square(block, out=block)
        total = carried_sum(block, total)
    return mean, np.sqrt(total / (n - 1)) / np.sqrt(n)


def weight_matrix(
    family: tuple[ThetaControl, ...] | list[ThetaControl],
    bundle: PathBundle,
    threads: int = 1,
) -> np.ndarray:
    """Stack of density weights, one column per control, shape (n_paths, C).

    The matrix is filled in blocks of ROW_BLOCK contiguous rows.  In each
    block every constant control's log-density is theta0 * B_T - theta0^2 T / 2
    at once, every bang-bang control's is its functional `increments @ theta`
    (negated for a control whose negation's functional the bundle keeps)
    minus theta.theta dt / 2, and one exp then writes the block's rows.
    Every entry is bitwise what the per-column formula on the dense
    increments gives.  B_T and the functionals come from the bundle; those
    it does not keep are made by one sequential redraw of its stream before
    any block is filled.  With threads > 1 a pool fills the same blocks, so
    the result does not depend on the thread count.

    Raises ValueError unless every weight is finite and strictly positive.
    A column's sample mean, which the CLI's `martingale` check holds near 1,
    is its expectation_profile of the payoff 1.
    """
    family = tuple(family)
    if not family:
        raise ValueError("control family must be nonempty")
    grid = bundle.grid
    n = bundle.n_paths
    out = np.empty((n, len(family)))
    const_cols = [j for j, c in enumerate(family) if c.kind == "constant"]
    theta0 = np.array([family[j].theta0 for j in const_cols])
    const_shift = 0.5 * theta0 * theta0 * grid.horizon
    thetas = {j: c.theta_on_grid(grid) for j, c in enumerate(family) if c.kind != "constant"}
    bundle = with_functionals(bundle, thetas.values())
    bang = [(j, *bundle.functional(theta), 0.5 * float(theta @ theta) * grid.dt)
            for j, theta in thetas.items()]
    terminal = bundle.brownian_terminal

    def fill(start: int) -> None:
        rows = slice(start, start + ROW_BLOCK)
        block = out[rows]
        if const_cols:
            block[:, const_cols] = terminal[rows, None] * theta0 - const_shift
        for j, sign, functional, shift in bang:
            column = block[:, j]
            np.multiply(functional[rows], sign, out=column)
            column -= shift
        np.exp(block, out=block)
        # min > 0 fails on zeros and NaN, max < inf on overflow.
        if not (block.min() > 0.0 and block.max() < np.inf):
            raise ValueError("density weights must be finite and strictly positive")

    starts = range(0, n, ROW_BLOCK)
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


def expectation_profile(payoff_values: np.ndarray,
                        weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimates and standard errors of E[payoff] under every family member,
    one per column of the family's weight_matrix.

    Bitwise equal to (weights * x[:, None]).mean(axis=0) and
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
