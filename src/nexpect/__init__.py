"""Nonlinear expectations for claims under bounded drift ambiguity.

Four routes to the same upper/lower price band: a search over a family of
absolutely continuous measures, Choquet integration against the induced
capacities, a backward semilinear equation with drivers +-k|z|, and the
closed-form extremal-measure values for monotone claims.
"""

from .bsde import (
    Generator,
    GridSolution,
    ZSignReport,
    minimal_time_steps,
    solve_fd,
    solve_tree,
    z_sign_check,
)
from .choquet import (
    Capacity,
    HolderReport,
    Payoff,
    build_capacity,
    choquet_holder_check,
    choquet_integral,
    random_threshold_pairs,
    submodularity_check,
    threshold_event,
)
from .errors import (
    GridTooCoarseError,
    InvalidControlError,
    InvalidGeneratorError,
    ScenarioError,
    SimulationFailureError,
)
from .measures import (
    DensityRows,
    ThetaControl,
    default_control_family,
    expectation_profile,
    girsanov_weights,
    weight_matrix,
)
from .minimax import (
    AttainmentReport,
    ExtremalReport,
    MinimaxResult,
    attainment_check,
    closed_under_negation,
    extremal_price,
    lognormal_call_value,
    lognormal_digital_value,
    lognormal_put_value,
    minimax_expectation,
    pooled_tolerance,
)
from .paths import MarketModel, PathBundle, TimeGrid, generate_brownian, simulate_sde

__version__ = "0.1.0"

__all__ = [
    "TimeGrid", "MarketModel", "PathBundle", "generate_brownian", "simulate_sde",
    "ThetaControl", "girsanov_weights", "DensityRows",
    "weight_matrix", "expectation_profile", "default_control_family",
    "Payoff", "Capacity", "build_capacity", "choquet_integral",
    "submodularity_check", "random_threshold_pairs",
    "threshold_event", "choquet_holder_check", "HolderReport",
    "Generator", "GridSolution", "solve_fd", "solve_tree", "minimal_time_steps",
    "z_sign_check", "ZSignReport",
    "MinimaxResult", "ExtremalReport", "AttainmentReport", "minimax_expectation",
    "extremal_price", "attainment_check", "closed_under_negation", "pooled_tolerance",
    "lognormal_call_value", "lognormal_put_value", "lognormal_digital_value",
    "InvalidControlError", "SimulationFailureError", "InvalidGeneratorError",
    "GridTooCoarseError", "ScenarioError",
    "__version__",
]
