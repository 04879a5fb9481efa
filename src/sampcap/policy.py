"""Causal policies, joint trajectory distributions, and information functionals.

A causal policy is the collection of per-step conditionals
Q(x_i, a_i | x^{i-1}, a^{i-1}, z^{i-1}) for a block of length N; multiplying
them along a trajectory gives the causal conditioning Q(x^N, a^N || z^{N-1}).
Combining a policy with a channel and an action system yields the dense joint
distribution over (x^N, a^N, y^N), from which directed information

    I(X^N -> Y^N) = sum_i I(X^i, A^i; Y_i | Y^{i-1})

and its variant conditioned on the start state are computed exactly (bits,
0 log 0 = 0, compensated summation). With a singleton action alphabet the sum
is literally sum_i I(X^i; Y_i | Y^{i-1}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ._num import freeze, weighted_log2_sum
from .actions import ActionSystem
from .fsc import FscKernel
from .trajectory import TrajectorySpace

POLICY_SLICE_TOL = 1e-12
JOINT_SUM_TOL = 1e-9
FUNCTIONAL_SUM_TOL = 1e-6


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


@dataclass(frozen=True)
class TrajectoryDistribution:
    """Dense joint probability over (x^N, a^N, y^N) with derived feedback.

    probs is indexed [row, col] where rows enumerate u^N = (x, a)^N and
    columns enumerate y^N (earliest step most significant); z digits are
    derived through the sampling table. s0 records conditioning on a start
    state, None for the initial-distribution average.
    """

    block_length: int
    x_size: int
    a_size: int
    y_size: int
    z_size: int
    probs: np.ndarray
    z_table: np.ndarray
    s0: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "probs", freeze(self.probs))
        object.__setattr__(self, "z_table", freeze(self.z_table, dtype=int))
        rows = (self.x_size * self.a_size) ** self.block_length
        cols = self.y_size ** self.block_length
        if self.probs.shape != (rows, cols):
            raise ValueError(f"probs shape {self.probs.shape}, expected {(rows, cols)}")
        if np.any(self.probs < 0.0):
            raise ValueError("probabilities must be nonnegative")
        total = self.probs.sum()
        if abs(total - 1.0) > JOINT_SUM_TOL:
            raise ValueError(
                f"joint sums to {float(total)!r}, expected 1 within {JOINT_SUM_TOL}"
            )

    @property
    def u_size(self) -> int:
        return self.x_size * self.a_size

    @cached_property
    def u_digits(self) -> np.ndarray:
        return TrajectorySpace._digits(self.probs.shape[0], self.u_size,
                                       self.block_length)

    @cached_property
    def x_digits(self) -> np.ndarray:
        return self.u_digits // self.a_size

    @cached_property
    def action_digits(self) -> np.ndarray:
        return self.u_digits % self.a_size

    @cached_property
    def y_digits(self) -> np.ndarray:
        return TrajectorySpace._digits(self.probs.shape[1], self.y_size,
                                       self.block_length)

    @cached_property
    def z_digits(self) -> np.ndarray:
        """Derived feedback digits per (row, col, step)."""
        out = np.empty((self.probs.shape[0], self.probs.shape[1], self.block_length),
                       dtype=np.int64)
        for i in range(self.block_length):
            out[:, :, i] = self.z_table[
                self.action_digits[:, i][:, None], self.y_digits[:, i][None, :]
            ]
        return out

    def reshaped(self) -> np.ndarray:
        """View shaped [U]*N + [Y]*N for per-axis marginalization."""
        n = self.block_length
        return self.probs.reshape([self.u_size] * n + [self.y_size] * n)

    def input_marginal(self, upto: int) -> np.ndarray:
        """P(u^i, y^i) for i = upto, shaped [U]*i + [Y]*i."""
        n = self.block_length
        r = self.reshaped()
        axes = tuple(range(upto, n)) + tuple(range(n + upto, 2 * n))
        return r.sum(axis=axes)


def build_joint(policy: CausalPolicy, kernel: FscKernel, sys: ActionSystem,
                s0: Optional[int] = None) -> TrajectoryDistribution:
    """Assemble the dense joint in the linear domain.

    Multiplies the policy conditionals of every step (each keyed by the
    feedback history derived from past actions and outputs) at every
    trajectory, then the dense channel law from the state-belief forward
    recursion; entries of zero channel law get zero mass.
    """
    space = TrajectorySpace(kernel, sys, policy.block_length, s0=s0)
    space.check_fits(policy)
    n, y = space.n, space.y_size
    probs = np.ones(space.view)
    for i in range(1, n + 1):
        probs *= space.spread(policy.tables[i - 1], i)
    probs = probs.reshape(space.rows, space.cols)
    probs *= space.channel_law()
    return TrajectoryDistribution(
        block_length=n,
        x_size=space.x_size,
        a_size=space.a_size,
        y_size=y,
        z_size=space.z_size,
        probs=probs,
        z_table=space.z_table,
        s0=s0,
    )


def _broadcast_like(a: np.ndarray, i: int, u_axes: int) -> np.ndarray:
    """Reshape an output-only marginal [Y]*k to broadcast against [U]*i + [Y]*i."""
    return a.reshape((1,) * u_axes + a.shape)


def directed_information(joint: TrajectoryDistribution) -> float:
    """I(X^N -> Y^N) in bits by the chain rule over steps.

    Each step contributes I(X^i, A^i; Y_i | Y^{i-1}); with a singleton action
    alphabet this is I(X^i; Y_i | Y^{i-1}).
    """
    total = joint.probs.sum()
    if abs(total - 1.0) > FUNCTIONAL_SUM_TOL:
        raise ValueError(f"joint sums to {float(total)!r}; not normalized within 1e-6")
    n = joint.block_length
    terms = []
    for i in range(1, n + 1):
        a = joint.input_marginal(i)                      # P(u^i, y^i)
        b = a.sum(axis=-1, keepdims=True)                # P(u^i, y^{i-1})
        c = a.sum(axis=tuple(range(i)))                  # P(y^i)
        d = c.sum(axis=-1, keepdims=True)                # P(y^{i-1})
        numer = a * _broadcast_like(d, i, i)
        denom = b * _broadcast_like(c, i, i)
        terms.append(weighted_log2_sum(a, numer, denom))
    return math.fsum(terms)


def conditional_directed_information(
    joints: Sequence[TrajectoryDistribution], weights: Sequence[float]
) -> tuple[tuple[float, ...], float]:
    """Directed information per start state and its P(s0)-weighted average."""
    if len(joints) != len(weights):
        raise ValueError("need one weight per conditional joint")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > FUNCTIONAL_SUM_TOL:
        raise ValueError("weights must form a probability vector")
    for j in joints:
        if j.s0 is None:
            raise ValueError("conditional joints must record their start state")
    values = tuple(directed_information(j) for j in joints)
    weighted = math.fsum(float(wi) * v for wi, v in zip(w, values))
    return values, weighted


def mutual_information(joint: TrajectoryDistribution) -> float:
    """Block mutual information I(X^N, A^N; Y^N) in bits."""
    m = joint.probs
    pr = m.sum(axis=1, keepdims=True)
    pc = m.sum(axis=0, keepdims=True)
    return weighted_log2_sum(m, m, pr * pc)
