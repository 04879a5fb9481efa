"""Trajectory tables for block-length-N computations.

A trajectory is a pair (u^N, y^N) with u = (x, a) the joint input/action
symbol. Rows enumerate u^N and columns enumerate y^N, both in mixed-radix
order with step 1 most significant, so a [rows, cols] array reshapes for
free to the view [U]*N + [Y]*N with one axis per step.

No table is held at full [rows, cols] size. The step-N quantities live on
the live trajectories, those of positive channel law p, in row-major order:

  - p_live, log2_p_live and cond_live: the channel law p(y^N || x^N), its
    log and the step-N conditional p(y_N | x^N, y^{N-1}) of each entry,
  - parent: the entry's id on the parent grid (u^N, y^{N-1}), the flat
    index row * Y^{N-1} + code(y^{N-1}); col: its output column y^N;
    live_per_row: the number of live entries of each row,
  - past_law and plogp_sum on the parent grid: the sums over y_N of p
    (the past law P(y^{N-1} || x^{N-1})) and of p log2 p.

Everything per step i lives on the smaller grid it depends on, built once
per (kernel, actions, N, start state):

  - measure[i-1] on the (u^{i-1}, y^{i-1}) grid: the past channel law
    P(y^{i-1} || x^{i-1}) of each cell,
  - slot[i-1] on the (u^i, y^{i-1}) grid: the flat slot hist * U + u_i of
    the per-step policy table Q_i(u_i | u^{i-1}, z^{i-1}) that the cell
    reads, hist being the id of its feedback history, z_j = f(a_j, y_j),
  - denom[i-1] per history: the past law summed over the output prefixes
    compatible with that history,
  - cond[i-1] on the (u^i, y^i) grid for steps i < N: the step conditional
    p(y_i | x^i, y^{i-1}) from the state-belief forward recursion.

spread() reads a per-step table at every trajectory and per_slot() sums
values into it; every policy gather and scatter goes through these two.
policy_product() builds the policy product r(u^N || z^{N-1}) on the parent
grid and expected_cost() the average action cost; nothing else computes
either. Everything here is plumbing shared by the policy, optimizer and
bounds modules; the brute-force oracle module deliberately does not use it.
"""

from __future__ import annotations

import numpy as np

from ._num import fsum_array
from .actions import ActionSystem
from .fsc import FscKernel


class TrajectorySpace:
    """Channel law on the live trajectories and per-step history tables."""

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
        self.parents = self.rows * self.cols // y
        self.view = (u,) * n + (y,) * n

        # u = x * |A| + a
        self.z_table = sys.sampling_table[:, 0, :]  # [a][y] -> z
        action_cost = sys.cost_table[:, 0]          # [a] -> cost
        a_digits = self._digits(self.rows, u, n) % self.a_size
        self.cost_row = action_cost[a_digits].sum(axis=1)  # [rows]

        prefix = self._channel_prefixes()
        grids = [self._grid(k, prefix[k]) for k in range(n)]
        self.n_hist = [u ** (i - 1) * self.z_size ** (i - 1) for i in range(1, n + 1)]
        self.measure = [g[1] for g in grids]
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
            if i < n:
                # zero where the prefix died
                num = grids[i][1].reshape(u ** (i - 1), u, y ** (i - 1), y)
                den = past[:, None, :, None]
                c = np.zeros_like(num)
                np.divide(num, den, out=c, where=den > 0.0)
                self.cond.append(c.reshape([u] * i + [y] * i))

        # flat = row * cols + col = parent * Y + y_N: in row-major order the
        # live entries come grouped by row and by parent (live_from_rows
        # repeats per-row values over these runs)
        law = self._law(n, prefix[n]).ravel()
        flat = np.flatnonzero(law)
        self.p_live = law[flat]
        del law  # the one full-size table, dropped before the rest is built
        ids = np.int32 if max(self.parents, self.cols) <= 2 ** 31 else np.int64
        self.parent = (flat // y).astype(ids)
        self.col = (flat % self.cols).astype(ids)
        self.live_per_row = np.bincount(flat // self.cols, minlength=self.rows)
        self.log2_p_live = np.log2(self.p_live)
        self.past_law = np.broadcast_to(
            self.measure[n - 1][:, None, :], (u ** (n - 1), u, y ** (n - 1))
        ).ravel()
        self.cond_live = self.p_live / self.past_law[self.parent]
        self.plogp_sum = np.bincount(self.parent,
                                     weights=self.p_live * self.log2_p_live,
                                     minlength=self.parents)

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

    def _grid(self, k: int, prefix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """History ids and channel law on the (u^k, y^k) grid, both [U^k, Y^k].

        The id of a cell is code(u^k) * Z^k + code(z^k), the HistoryIndexer
        encoding of its feedback history.
        """
        u_dig = self._digits(self.u_size ** k, self.u_size, k)
        y_dig = self._digits(self.y_size ** k, self.y_size, k)
        a_dig = u_dig % self.a_size
        z_code = np.zeros((len(u_dig), len(y_dig)), dtype=np.int64)
        for j in range(k):
            z_code = z_code * self.z_size + self.z_table[a_dig[:, j, None], y_dig[:, j]]
        hist = np.arange(len(u_dig))[:, None] * self.z_size ** k + z_code
        return hist, self._law(k, prefix)

    def channel_law(self) -> np.ndarray:
        """The dense channel law p(y^N || x^N), [rows, cols], rebuilt per call.

        The optimizer never forms it; build_joint, the linear-domain
        reference, does.
        """
        return self._law(self.n, self._channel_prefixes()[self.n])

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

    def policy_product(self, tables: tuple[np.ndarray, ...]) -> np.ndarray:
        """The causal conditioning product r(u^N || z^{N-1}) on the parent grid.

        No step-i factor depends on y_N, so the product is formed on the
        (u^N, y^{N-1}) grid, flat [parents]; live entry k reads it at
        parent[k].
        """
        prod = self.spread(tables[self.n - 1], self.n)[..., 0]
        for i in range(self.n - 1, 0, -1):
            prod *= self.spread(tables[i - 1], i)[..., 0]
        return prod.reshape(-1)

    def per_row(self, on_parents: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Sums of on_parents * weights over each row's parents, [rows]."""
        return np.einsum("ij,ij->i", on_parents.reshape(self.rows, -1),
                         weights.reshape(self.rows, -1))

    def live_from_rows(self, values: np.ndarray) -> np.ndarray:
        """A per-row array [rows] read at every live entry."""
        return np.repeat(values, self.live_per_row)

    def to_dense(self, live: np.ndarray) -> np.ndarray:
        """Live-entry values scattered into a fresh [rows, cols] array, 0 elsewhere."""
        out = np.zeros(self.rows * self.cols)
        out[self.parent.astype(np.int64) * self.y_size
            + self.col % self.y_size] = live
        return out.reshape(self.rows, self.cols)

    def expected_cost(self, row_mass: np.ndarray) -> float:
        """Per-step average action cost (1/N) E[sum_i Lambda(a_i)] of a joint.

        The cost depends on the row u^N only, so the joint enters as its
        mass per row, row_mass [rows], and the compensated sum runs over one
        product per row.
        """
        return fsum_array(row_mass * self.cost_row) / self.n
