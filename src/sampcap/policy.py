"""Causal policies, densely indexed by their feedback histories.

A causal policy is the collection of per-step conditionals
Q(x_i, a_i | x^{i-1}, a^{i-1}, z^{i-1}) for a block of length N; multiplying
them along a trajectory gives the causal conditioning Q(x^N, a^N || z^{N-1}).
A policy is its tables, one per step, and |Z|, which no table shows at
N = 1. The optimizer multiplies them on the live trajectories
(TrajectorySpace.policy_product), the brute-force oracle on the dense grid
(oracle.literal_joint); directed information is computed by each of those
two modules, and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._num import freeze, is_integer

POLICY_SLICE_TOL = 1e-12


@dataclass(frozen=True)
class CausalPolicy:
    """Per-step conditional tables Q_i(u_i | history), densely indexed.

    The block length is the number of tables; tables[i-1] has shape
    ((u_size z_size)^(i-1), u_size), one row per history (u^{i-1}, z^{i-1})
    at id code(u^{i-1}) z_size^(i-1) + code(z^{i-1}), mixed radix with the
    earliest step most significant; z_size must be a positive integer.
    Every slice sums to 1 within 1e-12, including slices for histories that
    are never reached. This is the public form of a policy, in which it
    enters and leaves a solve: the optimizer holds only the rows of the
    reachable histories (TrajectorySpace.reachable_rows takes them out,
    TrajectorySpace.dense_policy puts them back), and the oracles read the
    dense tables.
    """

    tables: tuple[np.ndarray, ...]
    z_size: int

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(freeze(t) for t in self.tables))
        if not (is_integer(self.z_size) and self.z_size >= 1):
            raise ValueError("z_size: must be a positive integer")
        if not self.tables or self.tables[0].ndim != 2:
            raise ValueError("need a [history][u] table per step, and at "
                             "least one step")
        for i, table in enumerate(self.tables, start=1):
            want = ((self.u_size * self.z_size) ** (i - 1), self.u_size)
            if table.shape != want:
                raise ValueError(f"step {i} table shape {table.shape}, expected {want}")
        # every table has u_size columns: check all steps' slices at once
        rows = np.concatenate(self.tables)
        gaps = np.abs(rows.sum(axis=1) - 1.0)
        if (rows.min() < 0.0 or rows.max() > 1.0 + POLICY_SLICE_TOL
                or gaps.max() > POLICY_SLICE_TOL):
            # report the first failing step: its range first, then its sums
            bad = ((rows < 0.0) | (rows > 1.0 + POLICY_SLICE_TOL)).any(axis=1)
            bad |= gaps > POLICY_SLICE_TOL
            ends = np.cumsum([t.shape[0] for t in self.tables])
            step = int(np.searchsorted(ends, bad.argmax(), side="right"))
            table = self.tables[step]
            if np.any(table < 0.0) or np.any(table > 1.0 + POLICY_SLICE_TOL):
                raise ValueError(f"step {step + 1} table entries must lie in [0, 1]")
            worst = int(gaps[ends[step] - table.shape[0]:ends[step]].argmax())
            raise ValueError(
                f"step {step + 1} slice {worst} sums to "
                f"{float(table.sum(axis=1)[worst])!r}"
            )

    @property
    def block_length(self) -> int:
        return len(self.tables)

    @property
    def u_size(self) -> int:
        return self.tables[0].shape[1]
