"""Capacity bounds for finite-state channels with sampled, cost-constrained feedback.

The package computes exact directed information over short blocks, runs an
alternating-maximization algorithm with a Lagrangian cost sweep to bracket
the capacity-cost tradeoff, evaluates single-letter analytic lower bounds,
and cross-checks everything against brute-force oracles at desk scale.
"""

from .actions import ActionSystem
from .baa import (
    BaaState,
    TradeoffCurve,
    TradeoffPoint,
    default_lambda_grid,
    lower_bound,
    run_baa,
    sandwich_bounds,
    sweep_lambda,
    update_q,
    update_r,
    upper_bound,
)
from .bounds import (
    SingleLetterProblem,
    single_letter_bounds,
    time_sharing_baseline,
)
from .fsc import FscKernel
from .oracle import (
    OracleReport,
    grid_capacity,
    grid_search_space,
    literal_directed_info,
    literal_joint,
    literal_r_update,
)
from .policy import CausalPolicy
from .trajectory import TrajectorySpace

__version__ = "0.1.0"

__all__ = [
    "ActionSystem",
    "BaaState",
    "CausalPolicy",
    "FscKernel",
    "OracleReport",
    "SingleLetterProblem",
    "TradeoffCurve",
    "TradeoffPoint",
    "TrajectorySpace",
    "default_lambda_grid",
    "grid_capacity",
    "grid_search_space",
    "literal_directed_info",
    "literal_joint",
    "literal_r_update",
    "lower_bound",
    "run_baa",
    "sandwich_bounds",
    "single_letter_bounds",
    "sweep_lambda",
    "time_sharing_baseline",
    "update_q",
    "update_r",
    "upper_bound",
    "__version__",
]
