"""Causal policies and the ids of their feedback histories.

A causal policy is the collection of per-step conditionals
Q(x_i, a_i | x^{i-1}, a^{i-1}, z^{i-1}) for a block of length N; multiplying
them along a trajectory gives the causal conditioning Q(x^N, a^N || z^{N-1}).
The optimizer multiplies them on the live trajectories
(TrajectorySpace.policy_product), the brute-force oracle on the dense grid
(oracle.literal_joint); directed information is computed by each of those
two modules, and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._num import freeze
from .trajectory import TrajectorySpace

POLICY_SLICE_TOL = 1e-12


@dataclass(frozen=True)
class HistoryIndexer:
    """Bijection between histories (u^{i-1}, z^{i-1}) and flat indices.

    u = (x, a) joint symbols; codes are mixed radix with the earliest step
    most significant, history index = code(u prefix) * Z^{i-1} + code(z prefix).
    """

    u_size: int
    z_size: int

    def n_histories(self, step: int) -> int:
        return self.u_size ** (step - 1) * self.z_size ** (step - 1)

    def encode(self, u_hist: Sequence[int], z_hist: Sequence[int]) -> int:
        if len(u_hist) != len(z_hist):
            raise ValueError("u and z histories must have equal length")
        u_code = 0
        for u in u_hist:
            if not 0 <= u < self.u_size:
                raise ValueError("u symbol out of range")
            u_code = u_code * self.u_size + u
        z_code = 0
        for z in z_hist:
            if not 0 <= z < self.z_size:
                raise ValueError("z symbol out of range")
            z_code = z_code * self.z_size + z
        return u_code * self.z_size ** len(z_hist) + z_code

    def decode(self, step: int, index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        length = step - 1
        z_count = self.z_size ** length
        u_code, z_code = divmod(index, z_count)
        u_hist, z_hist = [], []
        for _ in range(length):
            u_code, u = divmod(u_code, self.u_size)
            z_code, z = divmod(z_code, self.z_size)
            u_hist.append(u)
            z_hist.append(z)
        return tuple(reversed(u_hist)), tuple(reversed(z_hist))


@dataclass(frozen=True)
class CausalPolicy:
    """Per-step conditional tables Q_i(u_i | history), densely indexed.

    tables[i-1] has shape (n_histories(i), u_size); every slice sums to 1
    within 1e-12, including slices for histories that are never reached.
    This is the public form of a policy, in which it enters and leaves a
    solve: the optimizer holds only the rows of the reachable histories
    (TrajectorySpace.reachable_rows takes them out, from_rows puts them
    back), and the oracles read the dense tables.
    """

    block_length: int
    u_size: int
    z_size: int
    tables: tuple[np.ndarray, ...]
    indexer: HistoryIndexer = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(freeze(t) for t in self.tables))
        object.__setattr__(self, "indexer", HistoryIndexer(self.u_size, self.z_size))
        if len(self.tables) != self.block_length:
            raise ValueError("need one conditional table per step")
        for i, table in enumerate(self.tables, start=1):
            want = (self.indexer.n_histories(i), self.u_size)
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

    @classmethod
    def uniform(cls, block_length: int, u_size: int, z_size: int) -> "CausalPolicy":
        indexer = HistoryIndexer(u_size, z_size)
        tables = [
            np.full((indexer.n_histories(i), u_size), 1.0 / u_size)
            for i in range(1, block_length + 1)
        ]
        return cls(block_length=block_length, u_size=u_size, z_size=z_size,
                   tables=tuple(tables))

    @classmethod
    def from_rows(cls, space: TrajectorySpace, rows) -> "CausalPolicy":
        """The policy with the given reachable rows per step (as
        space.reachable_rows returns them) and a uniform slice on every
        other history."""
        tables = []
        for reach, step_rows, n_hist in zip(space.reach, rows, space.n_hist):
            table = step_rows
            if len(reach) < n_hist:
                table = np.full((n_hist, space.u_size), 1.0 / space.u_size)
                table[reach] = step_rows
            tables.append(table)
        return cls(block_length=space.n, u_size=space.u_size,
                   z_size=space.z_size, tables=tuple(tables))
