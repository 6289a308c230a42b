"""Brownian path generation and forward SDE simulation on a uniform time grid.

Paths are simulated once under the reference measure and reused by every
downstream estimator, so all of them see common random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import SimulationFailureError

__all__ = [
    "TimeGrid",
    "MarketModel",
    "PathBundle",
    "generate_brownian",
    "simulate_sde",
]

# Coefficient signature: (t, states) -> per-path drift or volatility values.
# Callables must accept a numpy array of states and broadcast over it.
Coefficient = Callable[[float, np.ndarray], np.ndarray]

# Fraction of paths allowed to leave the positive half-line under the Euler
# scheme before the whole simulation is declared unusable.
_MAX_INVALID_FRACTION = 1e-3

# Rows per block of every row-blocked pass over the paths: the terminal
# simulation here, the weight passes in `measures` and the sorted-prefix
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
    """A batch of Brownian increments and, once simulated, terminal states.

    `brownian_increments` has shape (n_paths, steps).  Every claim priced
    here depends on the path only through S_T, so `states` holds S_T alone,
    shape (n_paths,); the intermediate states are never stored.  `valid`
    flags the paths whose Euler iteration stayed positive; exact simulation
    leaves it all-True.
    """

    grid: TimeGrid
    n_paths: int
    seed: int
    brownian_increments: np.ndarray
    states: Optional[np.ndarray] = None
    valid: Optional[np.ndarray] = None

    def terminal(self) -> np.ndarray:
        """S_T per path."""
        if self.states is None:
            raise ValueError("bundle has no simulated states; call simulate_sde first")
        return self.states

    def terminal_brownian(self) -> np.ndarray:
        """B at the horizon, the sum of increments per path."""
        return self.brownian_increments.sum(axis=1)


def generate_brownian(grid: TimeGrid, n_paths: int, seed: int) -> PathBundle:
    """Draw i.i.d. Gaussian increments with variance dt on the given grid.

    Uses a counter-based generator keyed on the seed, so a (grid, n_paths,
    seed) triple always yields bit-identical increments regardless of what
    else has been sampled in the process.
    """
    if int(n_paths) != n_paths or n_paths < 1:
        raise ValueError(f"n_paths must be an integer >= 1, got {n_paths}")
    key = int(seed) & 0xFFFFFFFFFFFFFFFF
    rng = np.random.Generator(np.random.Philox(key=key))
    increments = rng.standard_normal((int(n_paths), grid.steps)) * np.sqrt(grid.dt)
    return PathBundle(
        grid=grid,
        n_paths=int(n_paths),
        seed=int(seed),
        brownian_increments=increments,
    )


def _simulate_exact_gbm(model: MarketModel, bundle: PathBundle) -> np.ndarray:
    # Block by block, the same elementwise arithmetic as exponentiating the
    # full cumulative log path and keeping its last column.
    mu, sigma = model.gbm_constants
    dt = bundle.grid.dt
    terminal = np.empty(bundle.n_paths)
    for start in range(0, bundle.n_paths, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        log_steps = (mu - 0.5 * sigma * sigma) * dt + sigma * bundle.brownian_increments[rows]
        terminal[rows] = model.s0 * np.exp(np.cumsum(log_steps, axis=1)[:, -1])
    return terminal


def _simulate_euler(model: MarketModel, bundle: PathBundle) -> tuple[np.ndarray, np.ndarray]:
    grid = bundle.grid
    dt = grid.dt
    times = grid.times()
    s = np.full(bundle.n_paths, model.s0)
    alive = np.ones(bundle.n_paths, dtype=bool)
    for i in range(grid.steps):
        step = model.drift(times[i], s) * dt + model.vol(times[i], s) * bundle.brownian_increments[:, i]
        nxt = s + step
        # Paths that left the positive half-line are frozen at the offending
        # value and flagged; they are not clamped back into the domain.
        s = np.where(alive, nxt, s)
        alive = alive & (s > 0.0) & np.isfinite(s)
    return s, alive


def simulate_sde(model: MarketModel, bundle: PathBundle) -> PathBundle:
    """Fill in the terminal states S_T for the bundle's increments under `model`.

    GBM coefficients use the exact lognormal step, so the scheme introduces
    no discretisation bias; the log steps are summed in blocks of ROW_BLOCK
    paths, bit for bit the running sum over the whole path matrix.  Anything
    else is advanced by Euler steps on one column of current states; paths
    that hit a nonpositive or non-finite state are frozen there and flagged
    invalid, and the simulation fails outright when more than 0.1% of paths
    do so.  Extra memory is O(n_paths + ROW_BLOCK * steps), never a
    (n_paths, steps) matrix.
    """
    if model.gbm_constants is not None:
        states = _simulate_exact_gbm(model, bundle)
        valid = np.ones(bundle.n_paths, dtype=bool)
    else:
        states, valid = _simulate_euler(model, bundle)
        invalid_fraction = 1.0 - valid.mean()
        if invalid_fraction > _MAX_INVALID_FRACTION:
            raise SimulationFailureError(
                f"{invalid_fraction:.4%} of paths left the positive domain "
                f"(limit {_MAX_INVALID_FRACTION:.1%}); refine the grid or fix the coefficients"
            )
    return replace(bundle, states=states, valid=valid)
