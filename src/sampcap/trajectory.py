"""Trajectory tables for block-length-N computations.

A trajectory is a pair (u^N, y^N) with u = (x, a) the joint input/action
symbol. Rows enumerate u^N and columns enumerate y^N, both in mixed-radix
order with step 1 most significant, so a dense [rows, cols] array
reshapes for free to the view [U]*N + [Y]*N with one axis per step.

No table is held at full [rows, cols] size, and none on every history.
Everything lives on the live prefixes: level k holds the pairs (u^k, y^k)
of positive past law P(y^k || x^k), in row-major order, and level N holds
the live trajectories. No step-i factor depends on y_i, so step i works on
its parents, the pairs (u_i, c) of an input u_i and a level-(i-1) prefix
c, laid out [U, prefixes] with flat id u_i * len(prefixes) + c; a
level-i prefix's parent is its u_i with its (u^{i-1}, y^{i-1}) prefix.
Per step i (index i-1 of each list):

  - measure: the past law P(y^{i-1} || x^{i-1}) of each level-(i-1) prefix,
  - up and cond: for each level-i prefix, the id of its step-i parent and
    the step conditional p(y_i | x^i, y^{i-1}),
  - reach: the reachable feedback histories (u^{i-1}, z^{i-1}), those with
    positive past law, by their HistoryIndexer ids, ascending; z_j =
    f(a_j, y_j). The optimizer holds a policy as its reachable rows, one
    [len(reach), U] array per step; reachable_rows takes them out of a
    CausalPolicy and CausalPolicy.from_rows puts them back,
  - denom: per reachable history, the past law summed over its prefixes,
  - slot: per step-i parent, [U, prefixes], the flat slot h * U + u_i of
    the step's reachable rows that it reads, h being the rank of the
    prefix's history in reach.

The step-N quantities are named for the live trajectories:

  - p_live and log2_p_live: the channel law p(y^N || x^N) of each live
    entry and its log; cond[N-1] holds its step-N conditional,
  - parent (up[N-1]): the entry's step-N parent, col: its output column
    y^N; live_per_row: the number of live entries of each row,
  - past_law (measure[N-1]) and plogp_sum: per step-N parent, the sums
    over y_N of p and of p log2 p; the first depends on the prefix only,
  - lineage: for each step i, the step-i slot of the reachable rows that
    each step-N parent reads, [U, prefixes] at step N (slot[N-1] itself)
    and [prefixes] below (the same for every u_N), so that the policy
    product reads every factor directly.

The build goes level by level from digits. Its one full-size table is the
dense channel law at level N, dropped before the ids of the live entries
are derived; each lower level's dense law is at most 1/(|U||Y|) of it.
policy_product() builds the policy product r(u^N || z^{N-1})
at the step-N parents, per_row() sums per-parent values over each row
u^N, and expected_cost() the average action cost; nothing else computes
any of them. Everything here is plumbing shared by the policy, optimizer
and bounds modules; the brute-force oracle module deliberately neither
imports nor computes anything with it, and enumerates its own joint.
"""

from __future__ import annotations

import numpy as np

from ._num import fsum_array, is_integer, raise_first
from .actions import ActionSystem, decoder_violations
from .fsc import FscKernel


class TrajectorySpace:
    """Channel law on the live trajectories and per-step tables on the
    live prefixes and reachable histories."""

    def __init__(self, kernel: FscKernel, sys: ActionSystem, n: int,
                 s0: int | None = None):
        raise_first(self.violations(sys.decoder_actions.size, n))
        if sys.output_size != kernel.output_size:
            raise ValueError("action system output axis does not match the kernel")
        self.kernel = kernel
        self.sys = sys
        self.n = n
        self.s0 = s0
        self.x_size = kernel.input_size
        self.a_size = sys.encoder_actions.size
        self.u_size = u = self.x_size * self.a_size
        self.y_size = y = kernel.output_size
        self.z_size = z = sys.feedback_alphabet.size
        self.rows = u ** n
        self.cols = y ** n
        self.n_hist = [(u * z) ** (i - 1) for i in range(1, n + 1)]

        # u = x * |A| + a
        self.z_table = sys.sampling_table[:, 0, :]  # [a][y] -> z
        action_cost = sys.cost_table[:, 0]          # [a] -> cost
        a_digits = self._digits(self.rows, u, n) % self.a_size
        self.cost_row = action_cost[a_digits].sum(axis=1)  # [rows]

        prefix = self._channel_prefixes()
        self.measure, self.up, self.cond = [], [], []
        self.reach, self.denom, self.slot = [], [], []
        # level 0: the empty prefix, of past law 1 and feedback code 0
        cells = np.zeros(1, dtype=np.int64)
        law = np.ones(1)
        z_code = np.zeros(1, dtype=np.int64)
        for i in range(1, n + 1):
            # step i's histories, read at the level-(i-1) prefixes
            u_code = cells // y ** (i - 1)
            reach, rank = np.unique(u_code * z ** (i - 1) + z_code,
                                    return_inverse=True)
            self.measure.append(law)
            self.reach.append(reach)
            self.denom.append(np.bincount(rank, weights=law))
            self.slot.append(rank * u + np.arange(u)[:, None])
            # level i from its dense law; at i = N the one full-size table
            dense = self._law(i, prefix[i]).ravel()
            live = np.flatnonzero(dense)
            law_next = dense[live]
            del dense
            row, col = np.divmod(live, y ** i)
            del live
            rank_of = np.zeros((u * y) ** (i - 1), dtype=np.int64)
            rank_of[cells] = np.arange(len(cells))
            above = rank_of[(row // u) * y ** (i - 1) + col // y]
            del rank_of
            up = row % u * len(cells) + above
            self.cond.append(law_next / law[above])
            if i < n:
                z_code = (z_code[above] * z
                          + self.z_table[row % u % self.a_size, col % y])
                cells, law = row * y ** i + col, law_next
                self.up.append(up)
            del above

        # level N: the live trajectories, grouped by row in row-major order
        # (live_from_rows repeats per-row values over these runs)
        fits = max(self.slot[-1].size, self.cols) <= 2 ** 31
        ids = np.int32 if fits else np.int64
        self.p_live = law_next
        self.up.append(up.astype(ids))
        self.col = col.astype(ids)
        self.live_per_row = np.bincount(row, minlength=self.rows)
        del up, row, col
        self.log2_p_live = np.log2(self.p_live)
        self.plogp_sum = np.bincount(
            self.parent, weights=self.p_live * self.log2_p_live,
            minlength=self.slot[-1].size).reshape(u, -1)
        # row u^N = (u^{N-1}, u_N) owns the step-N parents (u_N, c) of the
        # level-(N-1) prefixes c of its u^{N-1}, a nonempty run (the past
        # law sums to 1 over y^{N-1})
        per_block = np.bincount(u_code, minlength=u ** (n - 1))
        self.row_starts = np.concatenate(([0], np.cumsum(per_block)[:-1]))
        # the slot of every step at the step-N parents
        self.lineage = [None] * n
        self.lineage[n - 1] = self.slot[n - 1]
        at = np.arange(len(self.past_law))
        for i in range(n - 1, 0, -1):
            parents = self.up[i - 1][at]
            self.lineage[i - 1] = self.slot[i - 1].ravel()[parents]
            at = parents % len(self.measure[i - 1])

    @staticmethod
    def violations(decoder_size: int = 1, n=1) -> list[str]:
        """The rules a decoder alphabet size and a block length n break, by
        JSON pointer within the actions and the exponent section."""
        found = decoder_violations(decoder_size)
        if not (is_integer(n) and n >= 1):
            found.append("block_length: must be a positive integer")
        return found

    @property
    def parent(self) -> np.ndarray:
        """Step-N parent id of each live entry (up[N-1])."""
        return self.up[-1]

    @property
    def past_law(self) -> np.ndarray:
        """Past law P(y^{N-1} || x^{N-1}) of each level-(N-1) prefix."""
        return self.measure[-1]

    @staticmethod
    def _digits(count: int, base: int, n: int) -> np.ndarray:
        codes = np.arange(count)
        out = np.empty((count, n), dtype=np.int64)
        for i in range(n - 1, -1, -1):
            out[:, i] = codes % base
            codes //= base
        return out

    def _channel_prefixes(self) -> list[np.ndarray]:
        """prefix[k]: [X^k, Y^k] = P(y^k || x^k, start), k = 0..N."""
        kern = self.kernel.kernel
        s_size = self.kernel.state_size
        if self.s0 is None:
            belief0 = self.kernel.initial_dist.copy()
        else:
            belief0 = np.zeros(s_size)
            belief0[self.s0] = 1.0

        x, y = self.x_size, self.y_size
        # beliefs[k]: [X^k, Y^k, S] unnormalized P(y^k, s_k || x^k, start)
        beliefs = [belief0.reshape(1, 1, s_size)]
        for _ in range(self.n):
            nxt = np.einsum("pqs,sxyt->pxqyt", beliefs[-1], kern)
            beliefs.append(nxt.reshape(nxt.shape[0] * x, nxt.shape[2] * y, s_size))
        return [b.sum(axis=2) for b in beliefs]

    def _law(self, k: int, prefix: np.ndarray) -> np.ndarray:
        """Channel law on the (u^k, y^k) grid, [U^k, Y^k]: prefix read at x^k."""
        u_dig = self._digits(self.u_size ** k, self.u_size, k)
        x_code = np.zeros(len(u_dig), dtype=np.int64)
        for j in range(k):
            x_code = x_code * self.x_size + u_dig[:, j] // self.a_size
        return prefix[x_code]

    def check_fits(self, policy) -> None:
        """Raise ValueError unless a causal policy has this space's block
        length and its |U| and |Z| alphabets."""
        got = (policy.block_length, policy.u_size, policy.z_size)
        expected = (self.n, self.u_size, self.z_size)
        if got != expected:
            raise ValueError(
                f"policy (block length, |U|, |Z|) = {got} does not fit the "
                f"space's alphabets {expected}"
            )

    def reachable_rows(self, policy) -> tuple[np.ndarray, ...]:
        """The reachable rows of each step's table of a causal policy that
        fits the space, [len(reach), U]: how a policy enters the optimizer."""
        self.check_fits(policy)
        rows = tuple(t.take(r, axis=0) for t, r in zip(policy.tables, self.reach))
        for t in rows:
            t.setflags(write=False)
        return rows

    def policy_product(self, rows) -> np.ndarray:
        """The causal conditioning product r(u^N || z^{N-1}) at the step-N
        parents, [U, level-(N-1) prefixes], from the per-step reachable rows.

        No step-i factor depends on y_N, so live entry k reads it at
        parent[k]; the factors are multiplied from step N down.
        """
        prod = rows[-1].take(self.lineage[-1])
        for i in range(self.n - 1, 0, -1):
            prod *= rows[i - 1].take(self.lineage[i - 1])
        return prod

    def per_row(self, on_parents: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Sums of on_parents * weights over each row's step-N parents, [rows].

        Both are laid out [U, level-(N-1) prefixes], or broadcast to it.
        """
        return np.add.reduceat(on_parents * weights, self.row_starts,
                               axis=1).T.ravel()

    def live_from_rows(self, values: np.ndarray) -> np.ndarray:
        """A per-row array [rows] read at every live entry."""
        return np.repeat(values, self.live_per_row)

    def to_dense(self, live: np.ndarray) -> np.ndarray:
        """Live-entry values scattered into a fresh [rows, cols] array, 0 elsewhere."""
        out = np.zeros((self.rows, self.cols))
        out[np.repeat(np.arange(self.rows), self.live_per_row), self.col] = live
        return out

    def expected_cost(self, row_mass: np.ndarray) -> float:
        """Per-step average action cost (1/N) E[sum_i Lambda(a_i)] of a joint.

        The cost depends on the row u^N only, so the joint enters as its
        mass per row, row_mass [rows], and the compensated sum runs over one
        product per row.
        """
        return fsum_array(row_mass * self.cost_row) / self.n
