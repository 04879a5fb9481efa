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

import numpy as np

from ._num import freeze
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
        ae, ad = self.encoder_actions.size, self.decoder_actions.size
        if self.sampling_table.ndim != 3 or self.sampling_table.shape[:2] != (ae, ad):
            raise ValueError("sampling_table must be indexed [a_e][a_d][y]")
        if np.any(self.sampling_table < 0) or np.any(
            self.sampling_table >= self.feedback_alphabet.size
        ):
            raise ValueError("sampling_table values must lie in the feedback alphabet")
        if self.cost_table.shape != (ae, ad):
            raise ValueError("cost_table must be indexed [a_e][a_d]")
        if np.any(self.cost_table < 0.0) or not np.all(np.isfinite(self.cost_table)):
            raise ValueError("costs must be finite and nonnegative")
        if not 0.0 <= self.budget < np.inf:
            raise ValueError("budget must be finite and nonnegative")

    @property
    def output_size(self) -> int:
        return int(self.sampling_table.shape[2])

    @property
    def max_cost(self) -> float:
        return float(self.cost_table.max())


def sample_feedback(sys: ActionSystem, a_e: int, a_d: int, y: int) -> int:
    """Deterministic feedback symbol z = f(a_e, a_d, y)."""
    if not 0 <= a_e < sys.encoder_actions.size:
        raise IndexError("encoder action out of range")
    if not 0 <= a_d < sys.decoder_actions.size:
        raise IndexError("decoder action out of range")
    if not 0 <= y < sys.output_size:
        raise IndexError("output symbol out of range")
    return int(sys.sampling_table[a_e, a_d, y])
