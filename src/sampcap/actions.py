"""Actions, feedback sampling and costs.

The encoder and decoder hold finite action alphabets; a deterministic
sampling function z = f(a_e, a_d, y) decides what feedback the encoder sees,
and a nonnegative cost Lambda(a_e, a_d) with per-block budget Gamma
constrains the time-averaged expected action cost

    E[(1/N) sum_i Lambda(A_{e,i}, A_{d,i})] <= Gamma.

Settings where only one side acts use a singleton alphabet for the other
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._num import freeze, non_finite, raise_first
from .fsc import Alphabet


@dataclass(frozen=True)
class ActionSystem:
    """Action alphabets, sampling table, cost table, and budget.

    sampling_table is indexed [a_e][a_d][y] -> z; cost_table [a_e][a_d] -> cost.
    """

    encoder_actions: Alphabet
    decoder_actions: Alphabet
    feedback_alphabet: Alphabet
    sampling_table: np.ndarray
    cost_table: np.ndarray
    budget: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sampling_table", freeze(self.sampling_table, dtype=int))
        object.__setattr__(self, "cost_table", freeze(self.cost_table))
        raise_first(self.violations(self.encoder_actions.size,
                                    self.decoder_actions.size,
                                    self.feedback_alphabet.size,
                                    self.sampling_table, self.cost_table,
                                    self.budget))

    @staticmethod
    def violations(encoder_size: Optional[int], decoder_size: Optional[int],
                   feedback_size: Optional[int],
                   sampling_table: Optional[np.ndarray],
                   cost_table: Optional[np.ndarray], budget: Optional[float],
                   output_size: Optional[int] = None) -> list[str]:
        """Every rule the action system breaks; empty means valid.

        Each message starts with the JSON pointer of its field relative to
        the actions section. An argument given as None was rejected by the
        caller. Non-finite costs and a budget outside [0, inf) are reported
        first, each on its own; the table rules are checked only when
        neither is broken and nothing is None, in the order sampling table
        shape, sampling values, cost table shape, cost signs, and only the
        first broken one is reported. output_size, when given, is the
        channel output alphabet size that the sampling table's last axis
        must match.
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
    def output_size(self) -> int:
        return int(self.sampling_table.shape[2])

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


def sample_feedback(sys: ActionSystem, a_e: int, a_d: int, y: int) -> int:
    """Deterministic feedback symbol z = f(a_e, a_d, y)."""
    if not 0 <= a_e < sys.encoder_actions.size:
        raise IndexError("encoder action out of range")
    if not 0 <= a_d < sys.decoder_actions.size:
        raise IndexError("decoder action out of range")
    if not 0 <= y < sys.output_size:
        raise IndexError("output symbol out of range")
    return int(sys.sampling_table[a_e, a_d, y])
