"""Actions, feedback sampling and costs.

The encoder and decoder hold finite action alphabets; a deterministic
sampling function z = f(a_e, a_d, y) decides what feedback the encoder sees,
and a nonnegative cost Lambda(a_e, a_d) with per-block budget Gamma
constrains the time-averaged expected action cost

    E[(1/N) sum_i Lambda(A_{e,i}, A_{d,i})] <= Gamma.

Settings where only one side acts use a singleton alphabet for the other
side. The action alphabets are the axes of the sampling and cost tables;
only the feedback alphabet, which the sampled values need not fill, is
given as a size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._num import freeze, is_integer, non_finite, raise_first


@dataclass(frozen=True)
class ActionSystem:
    """Sampling table, cost table, feedback alphabet size, and budget.

    sampling_table [a_e][a_d][y] -> z has the encoder, decoder and channel
    output alphabets as its axes; cost_table [a_e][a_d] -> cost.
    Construction raises ValueError unless feedback_size is a positive
    integer and every axis nonempty, then with the first message of
    violations on the table's own axes.
    """

    sampling_table: np.ndarray
    cost_table: np.ndarray
    feedback_size: int
    budget: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sampling_table", freeze(self.sampling_table, dtype=int))
        object.__setattr__(self, "cost_table", freeze(self.cost_table))
        if not (is_integer(self.feedback_size) and self.feedback_size >= 1):
            raise ValueError("feedback_size: must be a positive integer")
        if 0 in self.sampling_table.shape:
            raise ValueError("sampling_table: every axis must be nonempty")
        # a table that is not 3-D fails the shape rule on any sizes
        enc, dec = (*self.sampling_table.shape, 1, 1)[:2]
        raise_first(self.violations(enc, dec, self.feedback_size,
                                    self.sampling_table, self.cost_table,
                                    self.budget))

    @staticmethod
    def violations(encoder_size: Optional[int], decoder_size: Optional[int],
                   feedback_size: Optional[int],
                   sampling_table: Optional[np.ndarray],
                   cost_table: Optional[np.ndarray], budget: Optional[float],
                   output_size: Optional[int] = None) -> list[str]:
        """Every rule the action system breaks; empty means valid.

        encoder_size and decoder_size are the declared alphabets the
        tables' first two axes must match. Each message starts with the
        JSON pointer of its field relative to the actions section. An
        argument given as None was rejected by the caller. Non-finite costs
        and a budget outside [0, inf) are reported first, each on its own;
        the table rules are checked only when neither is broken and nothing
        is None, in the order sampling table shape, sampling values, cost
        table shape, cost signs, and only the first broken one is reported.
        output_size, when given, is the channel output alphabet size that
        the sampling table's last axis must match.
        """
        found = non_finite(cost_table=cost_table)
        if budget is not None and not 0.0 <= budget < np.inf:
            found.append("budget: must be a finite nonnegative number")
        if found or any(v is None for v in (encoder_size, decoder_size,
                                            feedback_size, sampling_table,
                                            cost_table, budget)):
            return found
        axes = (encoder_size, decoder_size)
        if sampling_table.ndim != 3 or sampling_table.shape[:2] != axes or (
                output_size is not None
                and sampling_table.shape[2] != output_size):
            return ["sampling_table: must be indexed "
                    "[encoder action][decoder action][channel output]"]
        if np.any(sampling_table < 0) or np.any(sampling_table >= feedback_size):
            return ["sampling_table: values must lie in the feedback alphabet"]
        if cost_table.shape != axes:
            return ["cost_table: must be indexed [encoder action][decoder action]"]
        if np.any(cost_table < 0.0):
            return ["cost_table: costs must be nonnegative"]
        return []

    @property
    def encoder_size(self) -> int:
        return self.sampling_table.shape[0]

    @property
    def decoder_size(self) -> int:
        return self.sampling_table.shape[1]

    @property
    def output_size(self) -> int:
        return self.sampling_table.shape[2]

    @property
    def max_cost(self) -> float:
        return float(self.cost_table.max())


def decoder_violations(decoder_size: int) -> list[str]:
    """The rule the N-letter computations, optimized and brute-force, put on
    the decoder alphabet, by JSON pointer within the actions section."""
    if decoder_size != 1:
        return ["decoder_size: must be 1: the N-letter optimizer supports a "
                "singleton decoder alphabet only"]
    return []
