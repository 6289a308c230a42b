"""Brownian path generation and forward SDE simulation on a uniform time grid.

Paths are simulated once under the reference measure and reused by every
downstream estimator, so all of them see common random numbers.  The
increments are streamed: drawn in row blocks, reduced to the per-path
values the estimators read, and never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import SimulationFailureError

__all__ = [
    "TimeGrid",
    "MarketModel",
    "PathBundle",
    "generate_brownian",
    "simulate_sde",
    "with_functionals",
]

# Coefficient signature: (t, states) -> per-path drift or volatility values.
# Callables must accept a numpy array of states and broadcast over it.
Coefficient = Callable[[float, np.ndarray], np.ndarray]

# Fraction of paths allowed to leave the positive half-line under the Euler
# scheme before the whole simulation is declared unusable.
_MAX_INVALID_FRACTION = 1e-3

# Rows per block of every row-blocked pass over the paths: the streamed
# draw and simulation here, the weight passes in `measures` and the sorted-prefix
# sweep in `choquet`.  A block of 4096 rows by a few dozen columns is about
# 1 MB and stays in cache; a pass's extra memory is O(ROW_BLOCK * columns).
ROW_BLOCK = 4096


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into `steps` intervals."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be a positive real, got {self.horizon}")
        if int(self.steps) != self.steps or self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        """Grid times t_0 = 0, ..., t_steps = horizon."""
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class MarketModel:
    """State dynamics dS = drift(t, S) dt + vol(t, S) dB plus the ambiguity bound.

    `k` bounds the absolute drift distortion applied by the measure family;
    estimators read it from here so a model fully determines the price band.
    When the coefficients are proportional (geometric Brownian motion),
    `gbm_constants` holds (mu, sigma) and enables exact simulation and
    closed-form pricing paths.
    """

    s0: float
    drift: Coefficient
    vol: Coefficient
    k: float = 0.0
    gbm_constants: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.s0) or self.s0 <= 0.0:
            raise ValueError(f"s0 must be a positive real, got {self.s0}")
        if not np.isfinite(self.k) or self.k < 0.0:
            raise ValueError(f"ambiguity bound k must be >= 0, got {self.k}")
        if self.gbm_constants is not None:
            mu, sigma = self.gbm_constants
            if not np.isfinite(mu) or not np.isfinite(sigma) or sigma < 0.0:
                raise ValueError(f"invalid gbm constants (mu={mu}, sigma={sigma})")

    @classmethod
    def gbm(cls, s0: float, mu: float, sigma: float, k: float = 0.0) -> "MarketModel":
        """Geometric Brownian motion dS = mu S dt + sigma S dB."""
        return cls(
            s0=s0,
            drift=lambda t, s: mu * s,
            vol=lambda t, s: sigma * s,
            k=k,
            gbm_constants=(float(mu), float(sigma)),
        )

    @classmethod
    def general(
        cls, s0: float, drift: Coefficient, vol: Coefficient, k: float = 0.0
    ) -> "MarketModel":
        """Arbitrary coefficient functions; simulation falls back to Euler."""
        return cls(s0=s0, drift=drift, vol=vol, k=k, gbm_constants=None)


@dataclass(frozen=True)
class PathBundle:
    """One Philox draw of Brownian increments on a grid and what is kept of it.

    The draw is named, not stored: (grid, n_paths, seed) fix the
    (n_paths, steps) matrix of increments bit for bit, and every pass that
    needs them draws them again ROW_BLOCK rows at a time.  `simulate_sde`
    keeps the per-path reductions the estimators read, each of shape
    (n_paths,): `states` is S_T (every claim priced here depends on the path
    only through it), `valid` flags the paths whose Euler iteration stayed
    positive (exact simulation leaves it all-True), `brownian_terminal` is
    B_T, and `functionals` maps each kept theta path (by its bytes) to
    `increments @ theta`.  `brownian_increments` is always None, since the
    increments are never stored; the field stays for code that sums a
    bundle's array sizes (perfbench/tracer.py).
    """

    grid: TimeGrid
    n_paths: int
    seed: int
    states: Optional[np.ndarray] = None
    valid: Optional[np.ndarray] = None
    brownian_terminal: Optional[np.ndarray] = None
    functionals: dict = field(default_factory=dict)
    brownian_increments: None = field(default=None, init=False, repr=False)

    def terminal(self) -> np.ndarray:
        """S_T per path."""
        if self.states is None:
            raise ValueError("bundle has no simulated states; call simulate_sde first")
        return self.states

    def functional(self, theta: np.ndarray) -> Optional[tuple[int, np.ndarray]]:
        """(sign, L) with `increments @ theta` bitwise `sign * L`, or None.

        L is the functional kept for theta, or the one kept for -theta: a
        product of the increments with -theta is the exact negation of the
        one with theta, term by term and so in every partial sum.
        """
        theta = np.asarray(theta, dtype=float)
        for sign, key in ((1, theta.tobytes()), (-1, (-theta).tobytes())):
            if key in self.functionals:
                return sign, self.functionals[key]
        return None

    def head(self, m: int) -> "PathBundle":
        """The draw of the first m paths: each kept array's first m entries."""
        if int(m) != m or not 1 <= m <= self.n_paths:
            raise ValueError(f"head needs 1 <= m <= {self.n_paths}, got {m}")
        kept = {name: getattr(self, name)[:m] for name in ("states", "valid", "brownian_terminal")
                if getattr(self, name) is not None}
        return replace(self, n_paths=int(m), **kept,
                       functionals={key: value[:m] for key, value in self.functionals.items()})


def generate_brownian(grid: TimeGrid, n_paths: int, seed: int) -> PathBundle:
    """Name a draw of i.i.d. Gaussian increments with variance dt on the grid.

    Validates the size and returns a bundle that holds no arrays.  The
    increments come from a counter-based generator (Philox) keyed on the
    seed, so a (grid, n_paths, seed) triple always yields bit-identical
    increments, however often and in whatever blocks they are drawn, and
    regardless of what else has been sampled in the process.
    """
    if int(n_paths) != n_paths or n_paths < 1:
        raise ValueError(f"n_paths must be an integer >= 1, got {n_paths}")
    return PathBundle(grid=grid, n_paths=int(n_paths), seed=int(seed))


def _increment_blocks(bundle: PathBundle) -> Iterator[tuple[slice, np.ndarray]]:
    """The bundle's increments ROW_BLOCK rows at a time, as (rows, block).

    Every block is a view of one buffer, overwritten by the next: the same
    bits as rows `rows` of standard_normal((n_paths, steps)) * sqrt(dt),
    since Philox fills the matrix in row-major order from one counter.
    """
    rng = np.random.Generator(np.random.Philox(key=bundle.seed & 0xFFFFFFFFFFFFFFFF))
    scale = np.sqrt(bundle.grid.dt)
    buffer = np.empty((min(bundle.n_paths, ROW_BLOCK), bundle.grid.steps))
    for start in range(0, bundle.n_paths, ROW_BLOCK):
        block = buffer[:min(ROW_BLOCK, bundle.n_paths - start)]
        rng.standard_normal(out=block)
        block *= scale
        yield slice(start, start + len(block)), block


def _one_per_sign(bundle: PathBundle, thetas: Iterable[np.ndarray]) -> dict:
    """The theta paths, keyed by their bytes, whose functional neither the
    bundle nor an earlier theta already gives up to sign."""
    new: dict = {}
    for theta in thetas:
        theta = np.ascontiguousarray(theta, dtype=float)
        if theta.shape != (bundle.grid.steps,):
            raise ValueError(f"theta path shape {theta.shape} does not match "
                             f"({bundle.grid.steps},)")
        if bundle.functional(theta) is None and (-theta).tobytes() not in new:
            new.setdefault(theta.tobytes(), theta)
    return new


def _sweep(
    bundle: PathBundle,
    thetas: dict,
    step: Optional[Callable[[slice, np.ndarray], None]] = None,
) -> tuple[np.ndarray, dict]:
    """One pass over the draw: B_T and `increments @ theta` for each theta.

    `step(rows, block)` sees each block of increments first.  A row sum
    is the same pairwise sum as on the full matrix.  A product with theta
    is taken per ROW_BLOCK rows, as every pass over the paths has taken it:
    BLAS can round a row differently in a call of another height, such as
    a short last block.
    """
    terminal = np.empty(bundle.n_paths)
    kept = {key: np.empty(bundle.n_paths) for key in thetas}
    for rows, block in _increment_blocks(bundle):
        if step is not None:
            step(rows, block)
        block.sum(axis=1, out=terminal[rows])
        # One product per theta: stacking the thetas into one matmul would
        # change the bits.
        for key, theta in thetas.items():
            np.matmul(block, theta, out=kept[key][rows])
    return terminal, kept


def with_functionals(bundle: PathBundle, thetas: Iterable[np.ndarray]) -> PathBundle:
    """The bundle with B_T and a functional, up to sign, for every theta path.

    Returns the bundle itself when it keeps them all; otherwise one
    sequential redraw of the stream adds the missing ones.
    """
    missing = _one_per_sign(bundle, thetas)
    if not missing and bundle.brownian_terminal is not None:
        return bundle
    terminal, kept = _sweep(bundle, missing)
    return replace(bundle, brownian_terminal=terminal,
                   functionals={**bundle.functionals, **kept})


def _exact_gbm_step(model: MarketModel, grid: TimeGrid, states: np.ndarray):
    # Per block, the same elementwise arithmetic as exponentiating the full
    # cumulative log path and keeping its last column; the running sum is
    # taken column by column in place, as cumsum adds along a row.
    mu, sigma = model.gbm_constants
    drift = (mu - 0.5 * sigma * sigma) * grid.dt
    scratch = np.empty((min(states.size, ROW_BLOCK), grid.steps))

    def step(rows: slice, block: np.ndarray) -> None:
        log = scratch[:len(block)]
        np.multiply(block, sigma, out=log)
        log += drift
        for i in range(1, grid.steps):
            log[:, i] += log[:, i - 1]
        out = states[rows]
        np.exp(log[:, -1], out=out)
        out *= model.s0

    return step


def _euler_step(model: MarketModel, grid: TimeGrid, states: np.ndarray, alive: np.ndarray):
    dt = grid.dt
    times = grid.times()

    def step(rows: slice, block: np.ndarray) -> None:
        s, ok = states[rows], alive[rows]
        s[:] = model.s0
        for i in range(grid.steps):
            nxt = s + (model.drift(times[i], s) * dt + model.vol(times[i], s) * block[:, i])
            # Paths that left the positive half-line are frozen at the
            # offending value and flagged; they are not clamped back.
            np.copyto(s, nxt, where=ok)
            ok &= (s > 0.0) & np.isfinite(s)

    return step


def _simulate(model: MarketModel, bundle: PathBundle,
              thetas: Iterable[np.ndarray] = ()) -> PathBundle:
    """simulate_sde without its limit on invalid paths."""
    n = bundle.n_paths
    states = np.empty(n)
    valid = np.ones(n, dtype=bool)
    if model.gbm_constants is not None:
        step = _exact_gbm_step(model, bundle.grid, states)
    else:
        step = _euler_step(model, bundle.grid, states, valid)
    draw = replace(bundle, states=None, valid=None, brownian_terminal=None, functionals={})
    terminal, functionals = _sweep(draw, _one_per_sign(draw, thetas), step)
    return replace(draw, states=states, valid=valid, brownian_terminal=terminal,
                   functionals=functionals)


def simulate_sde(model: MarketModel, bundle: PathBundle,
                 thetas: Iterable[np.ndarray] = ()) -> PathBundle:
    """Draw the bundle's increments once and keep S_T, `valid`, B_T and
    `increments @ theta` for each theta path named, one per theta and -theta.

    One pass over ROW_BLOCK-row blocks: each block is drawn into one reused
    buffer, advanced to S_T and reduced, so extra memory is
    O(n_paths + ROW_BLOCK * steps), never a (n_paths, steps) matrix, and
    every kept array is bitwise what the dense matrix gives (its products
    with theta taken per ROW_BLOCK rows).  GBM
    coefficients use the exact lognormal step, so the scheme introduces no
    discretisation bias.  Anything else is advanced by Euler steps on the
    block's column of current states; paths that hit a nonpositive or
    non-finite state are frozen there and flagged invalid, and the
    simulation fails outright when more than 0.1% of paths do so.
    """
    simulated = _simulate(model, bundle, thetas)
    invalid_fraction = 1.0 - simulated.valid.mean()
    if invalid_fraction > _MAX_INVALID_FRACTION:
        raise SimulationFailureError(
            f"{invalid_fraction:.4%} of paths left the positive domain "
            f"(limit {_MAX_INVALID_FRACTION:.1%}); refine the grid or fix the coefficients"
        )
    return simulated
