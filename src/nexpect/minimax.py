"""Best- and worst-case expectations over the drift-control family.

The upper value is the largest reweighted expectation over the family, the
lower value the smallest.  For claims monotone in the terminal state the
optimum sits at a constant control of maximal modulus, which gives a
closed-form price band under proportional coefficients; `attainment_check`
measures that boundary attainment empirically on a fine constant grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .choquet import Payoff
from .measures import DensityRows, ThetaControl, _require_rows, expectation_profile, standard_error
from .paths import MarketModel, PathBundle

def pooled_tolerance(std_errors: Sequence[float]) -> float:
    """Comparison tolerance for estimates with independent-ish noise terms:
    three times the root sum of squares of their standard errors."""
    return 3.0 * math.sqrt(sum(float(se) ** 2 for se in std_errors))


# ---------------------------------------------------------------------------
# closed-form lognormal prices (no discounting)
# ---------------------------------------------------------------------------

def _ndtr(a: float) -> float:
    """Standard normal CDF of a scalar, with cephes' branches: erf near the
    origin, erfc in the tails, so neither side loses digits to cancellation."""
    x = a * math.sqrt(0.5)
    if abs(x) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0.0 else y


def _d12(s0: float, drift: float, sigma: float, horizon: float, strike: float):
    width = sigma * math.sqrt(horizon)
    d1 = (math.log(s0 / strike) + (drift + 0.5 * sigma * sigma) * horizon) / width
    return d1, d1 - width


def lognormal_call_value(s0: float, drift: float, sigma: float, horizon: float, strike: float) -> float:
    """E[(S_T - strike)+] for S_T lognormal with the given drift, undiscounted."""
    forward = s0 * math.exp(drift * horizon)
    if strike <= 0.0:
        return forward - strike
    if sigma * math.sqrt(horizon) == 0.0:
        return max(forward - strike, 0.0)
    d1, d2 = _d12(s0, drift, sigma, horizon, strike)
    return forward * _ndtr(d1) - strike * _ndtr(d2)


def lognormal_put_value(s0: float, drift: float, sigma: float, horizon: float, strike: float) -> float:
    """E[(strike - S_T)+], undiscounted."""
    forward = s0 * math.exp(drift * horizon)
    if strike <= 0.0:
        return 0.0
    if sigma * math.sqrt(horizon) == 0.0:
        return max(strike - forward, 0.0)
    d1, d2 = _d12(s0, drift, sigma, horizon, strike)
    return strike * _ndtr(-d2) - forward * _ndtr(-d1)


def lognormal_digital_value(s0: float, drift: float, sigma: float, horizon: float, strike: float) -> float:
    """P(S_T > strike), undiscounted."""
    if strike <= 0.0:
        return 1.0
    if sigma * math.sqrt(horizon) == 0.0:
        return 1.0 if s0 * math.exp(drift * horizon) > strike else 0.0
    _, d2 = _d12(s0, drift, sigma, horizon, strike)
    return _ndtr(d2)


# The payoff kinds with a closed-form extremal band under proportional (GBM)
# coefficients, and each one's value function.
CLOSED_FORMS = {"call": lognormal_call_value, "put": lognormal_put_value}


def has_closed_form(payoff: Payoff, model: MarketModel) -> bool:
    """Whether extremal_price prices the claim under the model."""
    return model.gbm_constants is not None and payoff.kind in CLOSED_FORMS


# ---------------------------------------------------------------------------
# family search
# ---------------------------------------------------------------------------

def closed_under_negation(family: Sequence[ThetaControl]) -> bool:
    """Whether every control's negation is in the family, to within
    1e-12 * max(1, bound) in its level."""
    family = tuple(family)

    def matches(a: ThetaControl, b: ThetaControl) -> bool:
        if a.kind != b.kind:
            return False
        slack = 1e-12 * max(1.0, a.bound)
        if a.kind == "constant":
            return abs(a.theta0 - b.theta0) <= slack
        return (
            a.switch_times == b.switch_times
            and a.signs == b.signs
            and abs(a.level - b.level) <= slack
        )

    for control in family:
        wanted = control.negated()
        if not any(matches(wanted, member) for member in family):
            return False
    return True


@dataclass(frozen=True)
class MinimaxResult:
    """Extremes of the expectation profile over the family."""

    upper: float
    lower: float
    argmax_control: ThetaControl
    argmin_control: ThetaControl
    std_errors: tuple[float, float]  # (at argmax, at argmin)
    estimates: np.ndarray
    estimate_std_errors: np.ndarray


def minimax_expectation(
    payoff_values: np.ndarray,
    family: Sequence[ThetaControl],
    weights: DensityRows,
    profile: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> MinimaxResult:
    """Maximise and minimise the reweighted expectation of a payoff sample
    over the family, whose weights on the sample's paths are the rows
    `weights`.

    The profile is expectation_profile(payoff_values, weights), or
    `profile` when the caller has reduced it already, by the same Sums and
    Spread, in passes shared with other work (as run_scenario does).
    Every control is evaluated on the same paths, so upper >= lower holds by
    construction and the duality with the negated payoff is exact.  The
    family must be nonempty and closed under negation, which is what makes
    that duality meaningful.
    """
    family = tuple(family)
    if not family:
        raise ValueError("control family must be nonempty")
    if not closed_under_negation(family):
        raise ValueError("control family is not closed under negation")
    _require_rows(weights)
    if weights.shape[1] != len(family):
        raise ValueError(f"weight rows of shape {weights.shape} do not give one column "
                         f"to each of the family's {len(family)} controls")
    estimates, ses = expectation_profile(payoff_values, weights) if profile is None else profile
    hi = int(np.argmax(estimates))
    lo = int(np.argmin(estimates))
    return MinimaxResult(
        upper=float(estimates[hi]),
        lower=float(estimates[lo]),
        argmax_control=family[hi],
        argmin_control=family[lo],
        std_errors=(float(ses[hi]), float(ses[lo])),
        estimates=estimates,
        estimate_std_errors=ses,
    )


# ---------------------------------------------------------------------------
# extremal-measure prices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalReport:
    """Price band from the two constant controls of maximal modulus."""

    upper: float
    lower: float
    method: str  # "closed_form" | "reweighting"
    upper_se: float = 0.0
    lower_se: float = 0.0

    @classmethod
    def from_profile(cls, monotonicity: str, estimates: np.ndarray,
                     std_errors: np.ndarray) -> "ExtremalReport":
        """The sampled band from a profile's (+k, -k) entries and their
        standard errors, such as the minimax profile's; the payoff's
        direction decides which is the maximiser."""
        (plus, minus), (plus_se, minus_se) = estimates.tolist(), std_errors.tolist()
        if monotonicity == "increasing":
            return cls(upper=plus, lower=minus, method="reweighting",
                       upper_se=plus_se, lower_se=minus_se)
        return cls(upper=minus, lower=plus, method="reweighting",
                   upper_se=minus_se, lower_se=plus_se)


def extremal_price(payoff: Payoff, model: MarketModel, horizon: float) -> ExtremalReport:
    """Closed-form upper/lower prices at the extreme constant drift
    distortions +-k.

    Valid only for payoffs with declared monotone direction; the direction
    decides which extreme is the maximiser.  Requires has_closed_form.  Any
    other monotone claim takes its sampled band from the +k and -k entries
    of a minimax profile (ExtremalReport.from_profile).
    """
    mono = payoff.monotonicity
    if mono == "none":
        raise ValueError(
            "extremal pricing requires a monotone payoff; "
            "use minimax_expectation over a control family instead"
        )
    if not has_closed_form(payoff, model):
        raise ValueError(f"the closed form requires proportional (GBM) coefficients and a "
                         f"{'/'.join(CLOSED_FORMS)} payoff, not {payoff.kind!r}")
    k = model.k
    mu, sigma = model.gbm_constants
    value = CLOSED_FORMS[payoff.kind]
    hi_drift = mu + k * sigma if mono == "increasing" else mu - k * sigma
    lo_drift = mu - k * sigma if mono == "increasing" else mu + k * sigma
    upper = value(model.s0, hi_drift, sigma, horizon, payoff.strike)
    lower = value(model.s0, lo_drift, sigma, horizon, payoff.strike)
    return ExtremalReport(upper=upper, lower=lower, method="closed_form")


# ---------------------------------------------------------------------------
# attainment on a fine constant grid
# ---------------------------------------------------------------------------

# Constant controls, endpoints included, evenly spaced on [-k, k]; the
# distinct ones are those attainment_check profiles.
ATTAINMENT_GRID = 21


@dataclass(frozen=True)
class AttainmentReport:
    thetas: np.ndarray
    estimates: np.ndarray
    std_errors: np.ndarray
    argmax_index: int
    argmin_index: int
    diff_std_errors: np.ndarray  # paired, of each step estimates[j + 1] - estimates[j]
    boundary_index: int  # the endpoint with the larger estimate
    boundary_std_error: float  # paired, of the argmax against that endpoint


def attainment_check(payoff: Payoff, k: float, bundle: PathBundle) -> AttainmentReport:
    """Profile the expectation over the distinct constant controls of the
    ATTAINMENT_GRID evenly spaced on [-k, k]: all of them for k > 0, the
    one control 0 for k = 0.

    For monotone payoffs the profile should be monotone in the control level
    and attain its maximum at an endpoint of [-k, k], each within 3 paired
    standard errors (cli's `attainment` check judges it).  The profile's
    points share their paths, so the report carries the standard error of
    each step's difference and of the argmax's gap from the better
    endpoint (0 when they coincide), from the paired products of two
    rebuilt columns.
    """
    thetas = np.unique(np.linspace(-k, k, ATTAINMENT_GRID))
    family = tuple(ThetaControl.constant(t, k) for t in thetas)
    weights = DensityRows(family, bundle)
    values = payoff.map(bundle.terminal())
    estimates, ses = expectation_profile(values, weights)

    def paired_se(upper: np.ndarray, lower: np.ndarray) -> float:
        return standard_error((upper - lower) * values)

    # Two rebuilt columns alive at a time: each upper one is the next lower.
    columns = map(weights.column, range(thetas.size))
    below = next(columns)
    diff_ses = []
    for above in columns:
        diff_ses.append(paired_se(above, below))
        below = above
    hi = int(np.argmax(estimates))
    end = 0 if estimates[0] >= estimates[-1] else thetas.size - 1
    return AttainmentReport(
        thetas=thetas,
        estimates=estimates,
        std_errors=ses,
        argmax_index=hi,
        argmin_index=int(np.argmin(estimates)),
        diff_std_errors=np.array(diff_ses),
        boundary_index=end,
        boundary_std_error=(0.0 if hi == end
                            else paired_se(weights.column(hi), weights.column(end))),
    )
