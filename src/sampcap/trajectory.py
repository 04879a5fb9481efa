"""Trajectory tables for block-length-N computations.

A trajectory is a pair (u^N, y^N) with u = (x, a) the joint input/action
symbol. Rows enumerate u^N and columns enumerate y^N, both in mixed-radix
order with step 1 most significant, so a [rows, cols] array reshapes for
free to the view [U]*N + [Y]*N with one axis per step.

Only the channel law, its log and the per-row action costs are held at full
[rows, cols] size. Everything per step i lives on the smaller grid it
depends on, built once per (kernel, actions, N, start state):

  - measure[i-1] on the (u^{i-1}, y^{i-1}) grid: the past channel law
    P(y^{i-1} || x^{i-1}) of each cell,
  - slot[i-1] on the (u^i, y^{i-1}) grid: the flat slot hist * U + u_i of
    the per-step policy table Q_i(u_i | u^{i-1}, z^{i-1}) that the cell
    reads, hist being the id of its feedback history, z_j = f(a_j, y_j),
  - denom[i-1] per history: the past law summed over the output prefixes
    compatible with that history,
  - cond[i-1] on the (u^i, y^i) grid: the step conditional
    p(y_i | x^i, y^{i-1}) from the state-belief forward recursion.

spread() reads a per-step table at every trajectory and per_slot() sums
values into it; every policy gather and scatter goes through these two.
policy_log2() builds the policy log-product and expected_cost() the average
action cost; nothing else computes either. Everything here is plumbing
shared by the policy, optimizer and bounds modules; the brute-force oracle
module deliberately does not use it.
"""

from __future__ import annotations

import numpy as np

from ._num import fsum_array, log2_guarded
from .actions import ActionSystem
from .fsc import FscKernel


class TrajectorySpace:
    """Channel law and per-step history tables for dense trajectory work."""

    def __init__(self, kernel: FscKernel, sys: ActionSystem, n: int,
                 s0: int | None = None):
        if n < 1:
            raise ValueError("block length must be >= 1")
        if sys.decoder_actions.size != 1:
            raise ValueError(
                "trajectory enumeration uses a single action stream; represent "
                "one-sided settings with a singleton decoder alphabet"
            )
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
        self.z_size = sys.feedback_alphabet.size
        self.rows = u ** n
        self.cols = y ** n
        self.view = (u,) * n + (y,) * n

        # u = x * |A| + a
        self.z_table = sys.sampling_table[:, 0, :]  # [a][y] -> z
        action_cost = sys.cost_table[:, 0]          # [a] -> cost
        a_digits = self._digits(self.rows, u, n) % self.a_size
        self.cost_row = action_cost[a_digits].sum(axis=1)  # [rows]

        prefix = self._channel_prefixes()
        grids = [self._grid(k, prefix[k]) for k in range(n + 1)]
        self.p_full = grids[n][1]                           # [rows, cols]
        # 0, not -inf, where p = 0: readers weight it by r p or mask by p > 0
        self.log2_p_full = np.log2(self.p_full, out=np.zeros_like(self.p_full),
                                   where=self.p_full > 0.0)

        self.n_hist = [u ** (i - 1) * self.z_size ** (i - 1) for i in range(1, n + 1)]
        self.measure = [g[1] for g in grids[:n]]
        self.slot = []
        self.denom = []
        self.cond = []
        for i in range(1, n + 1):
            h, past = grids[i - 1]
            # stored with singleton axes so a gather broadcasts against the view
            slot = h[:, None, :] * u + np.arange(u)[:, None]
            self.slot.append(slot.reshape([u] * i + [1] * (n - i)
                                          + [y] * (i - 1) + [1] * (n - i + 1)))
            self.denom.append(np.bincount(h.ravel(), weights=past.ravel(),
                                          minlength=self.n_hist[i - 1]))
            # zero where the prefix died
            num = grids[i][1].reshape(u ** (i - 1), u, y ** (i - 1), y)
            den = past[:, None, :, None]
            c = np.zeros_like(num)
            np.divide(num, den, out=c, where=den > 0.0)
            self.cond.append(c.reshape([u] * i + [y] * i))

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

    def _grid(self, k: int, prefix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """History ids and channel law on the (u^k, y^k) grid, both [U^k, Y^k].

        The id of a cell is code(u^k) * Z^k + code(z^k), the HistoryIndexer
        encoding of its feedback history.
        """
        u_dig = self._digits(self.u_size ** k, self.u_size, k)
        y_dig = self._digits(self.y_size ** k, self.y_size, k)
        a_dig = u_dig % self.a_size
        x_code = np.zeros(len(u_dig), dtype=np.int64)
        z_code = np.zeros((len(u_dig), len(y_dig)), dtype=np.int64)
        for j in range(k):
            x_code = x_code * self.x_size + u_dig[:, j] // self.a_size
            z_code = z_code * self.z_size + self.z_table[a_dig[:, j, None], y_dig[:, j]]
        hist = np.arange(len(u_dig))[:, None] * self.z_size ** k + z_code
        return hist, prefix[x_code]

    def spread(self, slices: np.ndarray, i: int) -> np.ndarray:
        """Step-i table [n_hist, U] read at every trajectory, broadcastable to the view."""
        return slices.ravel()[self.slot[i - 1]]

    def per_slot(self, values: np.ndarray, i: int) -> np.ndarray:
        """Sums of values over each step-i slot, [n_hist, U].

        values are laid out on the (u^i, y^{i-1}) grid of slot[i-1].
        """
        return np.bincount(self.slot[i - 1].ravel(), weights=values.ravel(),
                           minlength=self.n_hist[i - 1] * self.u_size
                           ).reshape(-1, self.u_size)

    def policy_log2(self, tables: tuple[np.ndarray, ...]) -> np.ndarray:
        """log2 of the causal conditioning product r(u^N || z^{N-1}); [rows, cols]."""
        total = np.zeros(self.view)
        for i in range(self.n, 0, -1):
            total += self.spread(log2_guarded(tables[i - 1]), i)
        return total.reshape(self.rows, self.cols)

    def expected_cost(self, joint: np.ndarray) -> float:
        """Per-step average action cost (1/N) E[sum_i Lambda(a_i)] under a dense joint.

        The cost depends on the row u^N only, so the joint is summed over
        its columns first and the compensated sum runs over one product per
        row.
        """
        return fsum_array(joint.sum(axis=1) * self.cost_row) / self.n
