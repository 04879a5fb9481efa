"""Capacity bounds for finite-state channels with sampled, cost-constrained feedback.

The package computes exact directed information over short blocks, runs an
alternating-maximization algorithm with a Lagrangian cost sweep to bracket
the capacity-cost tradeoff, evaluates single-letter analytic lower bounds,
and cross-checks everything against brute-force oracles at desk scale.
"""

from ._num import binary_entropy
from .actions import (
    ActionSystem,
    sample_feedback,
)
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
    gallager_exponent,
    single_letter_bounds,
    single_letter_curve,
    time_sharing_baseline,
    zero_unit_cost_capacity,
)
from .fsc import (
    Alphabet,
    FscKernel,
    StationaryInfo,
    causal_channel_prob,
    is_indecomposable,
    is_no_isi,
    stationary_distribution,
)
from .oracle import (
    OracleReport,
    grid_capacity,
    grid_search_space,
    literal_directed_info,
    literal_joint,
    literal_r_update,
)
from .policy import CausalPolicy, HistoryIndexer
from .trajectory import TrajectorySpace

__version__ = "0.1.0"

__all__ = [
    "ActionSystem",
    "Alphabet",
    "BaaState",
    "CausalPolicy",
    "FscKernel",
    "HistoryIndexer",
    "OracleReport",
    "SingleLetterProblem",
    "StationaryInfo",
    "TradeoffCurve",
    "TradeoffPoint",
    "TrajectorySpace",
    "binary_entropy",
    "causal_channel_prob",
    "default_lambda_grid",
    "gallager_exponent",
    "grid_capacity",
    "grid_search_space",
    "is_indecomposable",
    "is_no_isi",
    "literal_directed_info",
    "literal_joint",
    "literal_r_update",
    "lower_bound",
    "run_baa",
    "sample_feedback",
    "sandwich_bounds",
    "single_letter_bounds",
    "single_letter_curve",
    "stationary_distribution",
    "sweep_lambda",
    "time_sharing_baseline",
    "update_q",
    "update_r",
    "upper_bound",
    "zero_unit_cost_capacity",
    "__version__",
]
