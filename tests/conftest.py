"""Shared fixtures: one simulated market reused across the module tests."""

from __future__ import annotations

import numpy as np
import pytest

from nexpect import (
    Capacity,
    ExtremalReport,
    MarketModel,
    ThetaControl,
    TimeGrid,
    default_control_family,
    generate_brownian,
    minimax_expectation,
    simulate_sde,
    weight_matrix,
)
from nexpect.measures import _Rows
from nexpect.paths import ROW_BLOCK

# Frozen oracle values, computed from the closed-form lognormal expectation
# E[(S_T - K)+] = s0 e^{mT} N(d1) - K N(d2) and cross-checked by quadrature
# of the lognormal density.  Market: s0 = K = 100, sigma = 0.2, T = 1.
CALL_ATM_DRIFT_UP = 9.096153179328205  # drift +0.02 (= +k*sigma, k = 0.1)
CALL_ATM_DRIFT_DOWN = 6.93590460924807  # drift -0.02
CALL_ATM_FLAT = 7.965567455405804  # drift 0
PUT_ATM_DRIFT_UP = 7.076019176652636
PUT_ATM_DRIFT_DOWN = 8.916037278572539
DIGITAL_ATM_DRIFT_UP = 0.5  # P(S_T > 100) at drift +0.02 is N(0) exactly
MEAN_ST_MU5 = 105.12710963760242  # E[S_T] = 100 e^{0.05}
MEAN_ST_DRIFT_UP = 102.02013400267558  # E[S_T] = 100 e^{0.02}
L2_BOUND_ST = 102.53151205244286  # sqrt(E[S_T^2]) e^{k^2 T / 2} at mu = 0, k = 0.1


class StoredRows(_Rows):
    """A weight matrix held in memory, read through the row interface that
    every weight consumer takes: the dense reference of the stored-versus-
    rebuilt comparisons, and the crafted (signed, zero, resampled) weights
    that no family's densities give.  `matrix` is the array itself; given
    `totals` replace the column sums the row interface reduces, so a
    capacity on these rows is normalised by them."""

    def __init__(self, matrix: np.ndarray, totals: np.ndarray | None = None) -> None:
        self.matrix, self.shape = matrix, matrix.shape
        if totals is not None:
            self.totals = totals

    def head(self, m: int) -> "StoredRows":
        return StoredRows(self.matrix[:m])

    def rows(self, index, out: np.ndarray | None = None) -> np.ndarray:
        if not isinstance(index, slice):
            # mode="clip" lets take write straight into `out`, which it
            # would not under the default "raise"; the indices are in range.
            return self.matrix.take(index, axis=0, out=out, mode="clip")
        if out is None:
            return self.matrix[index].copy()
        out[...] = self.matrix[index]
        return out


def stored_weights(family, bundle) -> StoredRows:
    """The family's weight_matrix on the bundle, as stored rows."""
    return StoredRows(weight_matrix(family, bundle))


def stored_capacity(orientation: str, matrix: np.ndarray) -> Capacity:
    """The capacity of a crafted weight matrix, normalised by its dense
    column sums."""
    return Capacity(orientation, StoredRows(matrix, np.ones(len(matrix)) @ matrix))


def dense_increments(grid: TimeGrid, n_paths: int, seed: int) -> np.ndarray:
    """The whole (n_paths, steps) matrix of a bundle's draw at once: the
    oracle for every blocked pass over its Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=int(seed) & 0xFFFFFFFFFFFFFFFF))
    return rng.standard_normal((n_paths, grid.steps)) * np.sqrt(grid.dt)


def blocked_products(inc: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """inc @ theta taken ROW_BLOCK rows at a time, as every pass over the
    paths has taken it: BLAS's matrix-vector product can round a row
    differently when the row sits in a call of another height (a short
    tail block), so the full product is not the oracle."""
    return np.concatenate([inc[start:start + ROW_BLOCK] @ theta
                           for start in range(0, inc.shape[0], ROW_BLOCK)])


def profile_band(monotonicity: str, values: np.ndarray, family, weights: np.ndarray):
    """The minimax profile of a payoff sample over a family of radius k, and
    the sampled extremal band read from its +k and -k entries
    (ExtremalReport.from_profile), as `price` reads a band without a closed
    form."""
    k = max(c.bound for c in family)
    at_k = [family.index(ThetaControl.constant(theta, k)) for theta in (k, -k)]
    mm = minimax_expectation(values, family, weights)
    return mm, ExtremalReport.from_profile(monotonicity, mm.estimates[at_k],
                                           mm.estimate_std_errors[at_k])


def block_moments(weights: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each column of weights * values[:, None]
    by the rule of every weight pass, on the dense matrix: each ROW_BLOCK
    block's values[block] @ weights[block] added up in block order, over n,
    then the squared deviations from those means summed the same way.  A
    block product can round a column differently in a matrix of another
    width, so the reference takes the family's whole matrix."""
    n, m = weights.shape
    blocks = [slice(start, start + ROW_BLOCK) for start in range(0, n, ROW_BLOCK)]
    sums, squares = np.zeros(m), np.zeros(m)
    for block in blocks:
        sums += values[block] @ weights[block]
    means = sums / n
    for block in blocks:
        deviations = (weights[block] * values[block, None] - means) ** 2
        squares += np.ones(len(deviations)) @ deviations
    return means, np.sqrt(squares / (n - 1)) / np.sqrt(n)


def dense_band(monotonicity: str, values: np.ndarray, weights: np.ndarray,
               family) -> tuple[float, float, float, float]:
    """(upper, upper_se, lower, lower_se) of the +-k band: the +k and -k
    columns of block_moments on the family's dense weight matrix."""
    k = max(c.bound for c in family)
    at_k = [family.index(ThetaControl.constant(theta, k)) for theta in (k, -k)]
    means, ses = block_moments(weights, values)
    (hi, lo), (hi_se, lo_se) = means[at_k].tolist(), ses[at_k].tolist()
    if monotonicity == "decreasing":
        (hi, hi_se), (lo, lo_se) = (lo, lo_se), (hi, hi_se)
    return hi, hi_se, lo, lo_se


@pytest.fixture(scope="session")
def acc_model() -> MarketModel:
    return MarketModel.gbm(100.0, 0.0, 0.2, k=0.1)


@pytest.fixture(scope="session")
def grid8() -> TimeGrid:
    return TimeGrid(1.0, 8)


@pytest.fixture(scope="session")
def bundle_200k(acc_model, grid8):
    return simulate_sde(acc_model, generate_brownian(grid8, 200_000, 1234))


@pytest.fixture(scope="session")
def bundle_50k(acc_model, grid8):
    return simulate_sde(acc_model, generate_brownian(grid8, 50_000, 99))


@pytest.fixture(scope="session")
def family_k01():
    return default_control_family(0.1)


@pytest.fixture(scope="session")
def weights_200k(family_k01, bundle_200k) -> StoredRows:
    return stored_weights(family_k01, bundle_200k)


@pytest.fixture(scope="session")
def weights_50k(family_k01, bundle_50k) -> StoredRows:
    return stored_weights(family_k01, bundle_50k)
