"""Finite-state channel core.

Provides the channel representation P(y, s' | x, s) with an initial state
distribution, whose kernel axes are the state, input and output alphabets,
validation of its stochastic structure, and the start distribution of a
start state. The causal channel law P(y^N || x^N, s0) built on it is
evaluated where it is used: on the live trajectories of a TrajectorySpace
and, by its own enumeration, in the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._num import freeze, is_integer, non_finite, raise_first

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FscKernel:
    """Finite-state channel P(y, s' | x, s) with initial state distribution.

    kernel is indexed [s][x][y][s_next], and its axes are the state, input
    and output alphabets; initial_dist is P(s0). Construction raises
    ValueError if an axis is empty, else with the first message of
    violations on the kernel's own axes.
    """

    kernel: np.ndarray
    initial_dist: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kernel", freeze(self.kernel))
        object.__setattr__(self, "initial_dist", freeze(self.initial_dist))
        if 0 in self.kernel.shape:
            raise ValueError("kernel: every axis must be nonempty")
        # a kernel that is not 4-D fails the shape rule on any sizes
        s, x, y = (*self.kernel.shape, 1, 1, 1)[:3]
        raise_first(self.violations(s, x, y, self.kernel, self.initial_dist))

    @staticmethod
    def violations(state_size: int, input_size: int, output_size: int,
                   kernel: Optional[np.ndarray],
                   initial_dist: Optional[np.ndarray]) -> list[str]:
        """Every rule the channel breaks; empty means valid.

        The sizes are the declared alphabets the kernel's axes must match.
        Each message starts with the JSON pointer of its entry relative to
        the channel section. An array given as None was rejected by the
        caller, and only the other one's entries are checked. Non-finite
        entries are reported first and alone, since no sum over them means
        anything; then the first shape mismatch, alone; otherwise every
        (s, x) row whose sum is off 1 by more than ROW_SUM_TOL, every
        negative entry and a defective initial distribution.
        """
        found = non_finite(kernel=kernel, initial_dist=initial_dist)
        if found or kernel is None or initial_dist is None:
            return found
        s, x, y = state_size, input_size, output_size
        if kernel.shape != (s, x, y, s):
            return [f"kernel: shape {list(kernel.shape)} does not match "
                    f"[{s}][{x}][{y}][{s}]"]
        if initial_dist.shape != (s,):
            return [f"initial_dist: shape {list(initial_dist.shape)} does not "
                    f"match [{s}]"]
        row_sums = kernel.sum(axis=(2, 3))
        for si, xi in zip(*np.nonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL)):
            found.append(f"kernel/{si}/{xi}: row sums to "
                         f"{float(row_sums[si, xi])!r}, expected 1")
        for idx in zip(*np.nonzero(kernel < 0.0)):
            found.append(f"kernel/{'/'.join(map(str, idx))}: negative entry")
        if (abs(initial_dist.sum() - 1.0) > ROW_SUM_TOL
                or np.any(initial_dist < 0.0)):
            found.append("initial_dist: must be a probability vector")
        return found

    @property
    def state_size(self) -> int:
        return self.kernel.shape[0]

    @property
    def input_size(self) -> int:
        return self.kernel.shape[1]

    @property
    def output_size(self) -> int:
        return self.kernel.shape[2]

    def start_dist(self, s0: Optional[int] = None) -> np.ndarray:
        """P(s0) of a start: initial_dist for None, else the point mass on
        the integer state s0 in [0, state_size); ValueError otherwise (a
        bool, a float or a state out of range)."""
        if s0 is None:
            return self.initial_dist
        if not (is_integer(s0) and 0 <= s0 < self.state_size):
            raise ValueError(f"s0 out of range: must be None or an integer "
                             f"state in [0, {self.state_size})")
        return np.eye(self.state_size)[s0]

