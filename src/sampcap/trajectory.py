"""Dense trajectory enumeration tables for block-length-N computations.

A trajectory is a pair (u^N, y^N) with u = (x, a) the joint input/action
symbol. Rows enumerate u^N and columns enumerate y^N, both in mixed-radix
order with step 1 most significant. This module precomputes, once per
(kernel, actions, N, start state):

  - digit and prefix-code arrays for rows and columns,
  - feedback digits z_i = f(a_i, y_i) and history codes (u^{i-1}, z^{i-1}),
  - flat slot indices into per-step policy tables Q_i(u_i | u^{i-1}, z^{i-1}),
  - the causal channel law per trajectory and its per-step conditionals
    p(y_i | x^i, y^{i-1}) from the state-belief forward recursion,
  - per-history sums of past-product channel probabilities over the
    feedback-compatible output prefixes, and the r-free weights of the
    policy update, the channel law divided by those sums,
  - reduced per-depth history ids and past-law measures on (u^{i-1}, y^{i-1})
    grids (the class structure of the deviation-policy upper-bound fold),
  - per-row accumulated action costs.

Everything here is plumbing shared by the policy and optimizer modules; the
brute-force oracle module deliberately does not use it.
"""

from __future__ import annotations

import numpy as np

from ._num import log2_guarded
from .actions import ActionSystem
from .fsc import FscKernel


class TrajectorySpace:
    """Precomputed index and probability tables for dense trajectory work."""

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
        self.u_size = self.x_size * self.a_size
        self.y_size = kernel.output_size
        self.z_size = sys.feedback_alphabet.size
        self.rows = self.u_size ** n
        self.cols = self.y_size ** n

        # u = x * |A| + a
        self.z_table = sys.sampling_table[:, 0, :]  # [a][y] -> z
        self.action_cost = sys.cost_table[:, 0]     # [a] -> cost

        self.u_digits = self._digits(self.rows, self.u_size, n)   # [rows, n]
        self.x_digits = self.u_digits // self.a_size
        self.a_digits = self.u_digits % self.a_size
        self.y_digits = self._digits(self.cols, self.y_size, n)   # [cols, n]

        self.cost_row = self.action_cost[self.a_digits].sum(axis=1)  # [rows]

        self._build_channel_tables()
        self._build_history_tables()

    @staticmethod
    def _digits(count: int, base: int, n: int) -> np.ndarray:
        codes = np.arange(count)
        out = np.empty((count, n), dtype=np.int64)
        for i in range(n - 1, -1, -1):
            out[:, i] = codes % base
            codes //= base
        return out

    @staticmethod
    def _prefix_codes(digits: np.ndarray, base: int) -> list[np.ndarray]:
        """codes[i][k] = mixed-radix code of the first i digits of item k."""
        count = digits.shape[0]
        codes = [np.zeros(count, dtype=np.int64)]
        for i in range(digits.shape[1]):
            codes.append(codes[-1] * base + digits[:, i])
        return codes

    def _build_channel_tables(self):
        kern = self.kernel.kernel
        s_size = self.kernel.state_size
        if self.s0 is None:
            belief0 = self.kernel.initial_dist.copy()
        else:
            belief0 = np.zeros(s_size)
            belief0[self.s0] = 1.0

        x, y, n = self.x_size, self.y_size, self.n
        # beliefs[i]: [X^i, Y^i, S] unnormalized P(y^i, s_i || x^i, start)
        beliefs = [belief0.reshape(1, 1, s_size)]
        for _ in range(n):
            nxt = np.einsum("pqs,sxyt->pxqyt", beliefs[-1], kern)
            beliefs.append(nxt.reshape(nxt.shape[0] * x, nxt.shape[2] * y, s_size))
        # prefix[i]: [X^i, Y^i] = P(y^i || x^i, start)
        self.prefix = [b.sum(axis=2) for b in beliefs]

        xp = self._prefix_codes(self.x_digits, x)   # per row, lengths 0..n
        yp = self._prefix_codes(self.y_digits, y)   # per col
        self._x_prefix_codes = xp
        self._y_prefix_codes = yp

        self.p_full = self.prefix[n][np.ix_(xp[n], yp[n])]          # [rows, cols]
        self.log2_p_full = log2_guarded(self.p_full)

        # cond[i-1][rows, cols] = p(y_i | x^i, y^{i-1}), zero where the prefix died
        self.cond = []
        for i in range(1, n + 1):
            num = self.prefix[i][np.ix_(xp[i], yp[i])]
            den = self.prefix[i - 1][np.ix_(xp[i - 1], yp[i - 1])]
            c = np.zeros_like(num)
            mask = den > 0.0
            c[mask] = num[mask] / den[mask]
            self.cond.append(c)

        # cond_reduced[i-1]: same conditional on the reduced tensor
        # [U]*i + [Y]*i used by the nested max/expectation fold
        self.cond_reduced = []
        for i in range(1, n + 1):
            u_i = self.u_size ** i
            y_i = self.y_size ** i
            u_dig = self._digits(u_i, self.u_size, i)
            y_dig = self._digits(y_i, self.y_size, i)
            x_dig = u_dig // self.a_size
            xc = self._prefix_codes(x_dig, x)
            yc = self._prefix_codes(y_dig, y)
            num = self.prefix[i][np.ix_(xc[i], yc[i])]
            den = self.prefix[i - 1][np.ix_(xc[i - 1], yc[i - 1])]
            c = np.zeros_like(num)
            mask = den > 0.0
            c[mask] = num[mask] / den[mask]
            self.cond_reduced.append(c.reshape([self.u_size] * i + [self.y_size] * i))

    def _build_history_tables(self):
        n, u, z = self.n, self.u_size, self.z_size
        rows, cols = self.rows, self.cols

        # z digit per (row, col, step) and running z-history codes
        z_hist = np.zeros((rows, cols), dtype=np.int64)
        u_pref = self._prefix_codes(self.u_digits, u)
        self.n_hist = [u ** (i - 1) * z ** (i - 1) for i in range(1, n + 1)]
        self.hist_index = []   # [rows, cols] flat history code per step
        self.slot_index = []   # [rows, cols] flat (history, u_i) slot per step
        for i in range(1, n + 1):
            h = u_pref[i - 1][:, None] * (z ** (i - 1)) + z_hist
            self.hist_index.append(h)
            self.slot_index.append(h * u + self.u_digits[:, i - 1][:, None])
            if i < n:
                z_dig = self.z_table[
                    self.a_digits[:, i - 1][:, None], self.y_digits[:, i - 1][None, :]
                ]
                z_hist = z_hist * z + z_dig

        # r-free denominators: for each step i and history (u^{i-1}, z^{i-1}),
        # the sum of P(y^{i-1} || x^{i-1}) over output prefixes compatible
        # with that feedback history; weight[i-1][rows, cols] is the channel
        # law over that sum, 0 where the history has no mass
        self.denom_tables = []
        self.weight = []
        for i in range(1, n + 1):
            up_count = u ** (i - 1)
            yp_count = self.y_size ** (i - 1)
            table = np.zeros(up_count * (z ** (i - 1)))
            u_dig = self._digits(up_count, u, i - 1)
            y_dig = self._digits(yp_count, self.y_size, i - 1)
            a_dig = u_dig % self.a_size
            x_codes = self._prefix_codes(u_dig // self.a_size, self.x_size)[i - 1]
            y_codes = self._prefix_codes(y_dig, self.y_size)[i - 1]
            for up in range(up_count):
                zc = np.zeros(yp_count, dtype=np.int64)
                for j in range(i - 1):
                    zc = zc * z + self.z_table[a_dig[up, j], y_dig[:, j]]
                np.add.at(
                    table,
                    up * (z ** (i - 1)) + zc,
                    self.prefix[i - 1][x_codes[up], y_codes],
                )
            self.denom_tables.append(table)
            denom = table[self.hist_index[i - 1]]
            weight = np.zeros_like(self.p_full)
            np.divide(self.p_full, denom, out=weight, where=denom > 0.0)
            self.weight.append(weight)

        # reduced grids over (u^{i-1}, y^{i-1}): the flat history id of each
        # cell and the past channel law P(y^{i-1} || x^{i-1}) weighting it;
        # cells sharing a history id must share one policy choice, and the
        # measure aggregates their contributions when that choice is scored
        self.hist_reduced = []
        self.measure_reduced = []
        for i in range(1, n + 1):
            up_count = u ** (i - 1)
            yp_count = self.y_size ** (i - 1)
            u_dig = self._digits(up_count, u, i - 1)
            y_dig = self._digits(yp_count, self.y_size, i - 1)
            a_dig = u_dig % self.a_size
            x_codes = self._prefix_codes(u_dig // self.a_size, self.x_size)[i - 1]
            y_codes = self._prefix_codes(y_dig, self.y_size)[i - 1]
            zc = np.zeros((up_count, yp_count), dtype=np.int64)
            for j in range(i - 1):
                zc = zc * z + self.z_table[a_dig[:, j][:, None], y_dig[:, j][None, :]]
            hist = np.arange(up_count, dtype=np.int64)[:, None] * (z ** (i - 1)) + zc
            self.hist_reduced.append(hist)
            self.measure_reduced.append(self.prefix[i - 1][np.ix_(x_codes, y_codes)])

    def gather_policy_log2(self, tables: list[np.ndarray]) -> np.ndarray:
        """log2 of each per-step policy factor along every trajectory; [n, rows, cols]."""
        out = np.empty((self.n, self.rows, self.cols))
        for i in range(self.n):
            out[i] = log2_guarded(tables[i]).ravel()[self.slot_index[i]]
        return out
