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
    positive past law, by their CausalPolicy table rows, ascending; z_j =
    f(a_j, y_j). The optimizer holds a policy as one read-only [H, U]
    array of reachable rows, the H reachable histories of all steps
    stacked in step order, of which steps[i-1] is step i's slice;
    reachable_rows takes them out of a CausalPolicy and dense_policy puts
    them back,
  - denom: per reachable history, the past law summed over its prefixes,
  - slot: per step-i parent, [U, prefixes], the flat slot h * U + u_i of
    the step's slice of the reachable rows that it reads, h being the rank
    of the prefix's history in reach.

These tables are the one layout: a solve walks them forward through up
and slot (the policy product) and backward through up and cond (the fold
of the optimizer's update and upper iterate). Only the iterate's own
fold, of log2(p / d) into the step-N parents, touches the live
trajectories; every later step of a solve starts from the parents.
step_cost, Lambda(a) per u as [U, 1], is the price a step adds at its
parents. The step-N quantities are named for the live trajectories:

  - p_live and log2_p_live: the channel law p(y^N || x^N) of each live
    entry and its log; cond[N-1] holds its step-N conditional,
  - parent (up[N-1]): the entry's step-N parent, col: its output column y^N,
  - past_law (measure[N-1]): per step-N parent, the sum over y_N of p,
    which depends on the prefix only,
  - row_starts: per row u^{N-1} of level N-1, its first prefix, so that
    row u^N = (u^{N-1}, u_N) owns the parents (u_N, c) of the run of c
    from there, and cost_row: the block cost sum_i Lambda(a_i) per row.

The build extends each level-(i-1) prefix's unnormalized state belief
P(y^{i-1}, s || x^{i-1}) by every (x_i, y_i), keeps those of positive law
and repeats them over the action digits, so no table is indexed by the
full (u^i, y^i) grid; live_counts() and footprint() count the live entries
and bytes from the kernel's support alone, before any build.
policy_product() builds the policy product r(u^N || z^{N-1})
at the step-N parents, per_row() sums per-parent values over each row
u^N, and expected_cost() the average action cost; nothing else computes
any of them. Everything here is plumbing shared by the optimizer, bounds
and command-line modules; the brute-force oracle module deliberately
neither imports nor computes anything with it, and enumerates its own joint.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ._num import fsum_array, is_integer, raise_first, read_only
from .actions import ActionSystem, decoder_violations
from .fsc import FscKernel
from .policy import CausalPolicy

# live-entry arrays a solve holds next to the space: update_q's joint, then
# its leaf, besides the parent-size prod and T of two iterates (markovian
# N = 6 at lambda 10 and 0.3: 2.37 at run_baa's tracemalloc peak); the
# build's own peak is 2.33 above the finished space, and gallager_exponent
# holds two live arrays and one product
SOLVE_LIVE_ARRAYS = 3


class TrajectorySpace:
    """Channel law on the live trajectories and per-step tables on the
    live prefixes and reachable histories."""

    def __init__(self, kernel: FscKernel, sys: ActionSystem, n: int,
                 s0: int | None = None):
        raise_first(self.violations(sys.decoder_size, n))
        if sys.output_size != kernel.output_size:
            raise ValueError("action system output axis does not match the kernel")
        self.kernel, self.sys, self.n = kernel, sys, n
        x_size = kernel.input_size
        self.a_size = sys.encoder_size
        self.u_size = u = x_size * self.a_size
        self.y_size = y = kernel.output_size
        self.z_size = z = sys.feedback_size
        self.rows, self.cols = u ** n, y ** n
        self.n_hist = [(u * z) ** (i - 1) for i in range(1, n + 1)]

        # u = x * |A| + a
        z_table = sys.sampling_table[:, 0, :]  # [a][y] -> z
        # [U, 1] -> Lambda(a); [rows] -> sum_i Lambda(a_i) of u^N
        self.step_cost = sys.cost_table[np.arange(u) % self.a_size, :1]
        self.cost_row = np.zeros(1)
        for _ in range(n):
            self.cost_row = np.add.outer(self.cost_row,
                                         self.step_cost[:, 0]).ravel()

        self.measure, self.up, self.cond = [], [], []
        self.reach, self.denom, self.slot = [], [], []
        # level 0: the empty prefix, of past law 1, feedback code 0 and the
        # start belief; per_row: the prefixes of each row u^k, a nonempty run
        # (the past law sums to 1 over y^k)
        law = np.ones(1)
        belief = kernel.start_dist(s0)[None, :]
        y_code = z_code = np.zeros(1, dtype=np.int64)
        per_row = np.ones(1, dtype=np.int64)
        for i in range(1, n + 1):
            # step i's histories, read at the level-(i-1) prefixes
            u_code = np.repeat(np.arange(len(per_row)), per_row)
            reach, rank = np.unique(u_code * z ** (i - 1) + z_code,
                                    return_inverse=True)
            self.measure.append(law)
            self.reach.append(reach)
            self.denom.append(np.bincount(rank, weights=law))
            self.slot.append(rank * u + np.arange(u)[:, None])
            # the live (x_i, c, y_i) of the level-(i-1) prefixes c, x-major
            block = np.einsum("cs,sxyt->xcyt", belief, kernel.kernel)
            on_x = block.sum(axis=3)
            live = np.flatnonzero(on_x)
            law_x = on_x.ravel()[live]
            belief = block.reshape(-1, block.shape[3])[live] if i < n else None
            del block, on_x
            # row u^i = (u^{i-1}, u_i) reads, for x_i, the run of live
            # entries of the prefixes of u^{i-1}
            p, edges = len(law), np.concatenate(([0], np.cumsum(per_row)))
            bounds = np.searchsorted(
                live, (np.arange(x_size)[:, None] * p + edges) * y)
            bounds = bounds[np.arange(u) // self.a_size].T  # [U^{i-1} + 1, U]
            per_row = (bounds[1:] - bounds[:-1]).ravel()
            ids = np.repeat(bounds[:-1].ravel() - np.cumsum(per_row) + per_row,
                            per_row)
            ids += np.arange(len(ids))
            c_x, y_x = np.divmod(live, y)
            c_x %= p
            del live
            self.cond.append((law_x / law.take(c_x)).take(ids))
            law = law_x.take(ids)
            del law_x
            col = (y_code.take(c_x) * y + y_x).take(ids)
            up = np.repeat(np.arange(u ** i) % u * p, per_row)
            up += c_x.take(ids)
            self.up.append(up)
            if i < n:
                z_code = (z_code.take(c_x).take(ids) * z
                          + z_table[up // p % self.a_size, y_x.take(ids)])
                belief, y_code = belief.take(ids, axis=0), col
            del ids, c_x, y_x

        # level N: the live trajectories, grouped by row in row-major order
        self.p_live, self.col = law, col
        self.log2_p_live = np.log2(self.p_live)
        # row u^N = (u^{N-1}, u_N) owns the step-N parents (u_N, c) of the
        # level-(N-1) prefixes c of its u^{N-1}
        self.row_starts = edges[:-1]
        ends = np.cumsum([len(reach) for reach in self.reach]).tolist()
        self.steps = tuple(map(slice, [0] + ends[:-1], ends))

    @staticmethod
    def violations(decoder_size: int = 1, n=1) -> list[str]:
        """The rules a decoder alphabet size and a block length n break, by
        JSON pointer within the actions and the exponent section."""
        found = decoder_violations(decoder_size)
        if not (is_integer(n) and n >= 1):
            found.append("block_length: must be a positive integer")
        return found

    @staticmethod
    def live_counts(kernel: FscKernel, sys: ActionSystem, n: int,
                    s0: int | None = None) -> list[int]:
        """Live entries per level 1..n (len(measure[k]) below n, len(p_live)
        at n), counted without a build. Whether (x_k, y_k) extends a prefix
        depends only on the support of its state belief, so the count runs
        over support sets; each live (x^k, y^k) occurs with every a^k. A
        build whose laws underflow to 0 has fewer."""
        moves = kernel.kernel > 0.0  # [S, X, Y, S]
        start = kernel.start_dist(s0) > 0.0
        counts, out = Counter({tuple(start): 1}), []
        for k in range(1, n + 1):
            nxt = Counter()
            for support, count in counts.items():
                ends = moves[np.array(support)].any(axis=0)
                for end in map(tuple, ends[ends.any(axis=2)]):
                    nxt[end] += count
            counts = nxt
            out.append(sys.encoder_size ** k * counts.total())
        return out

    @classmethod
    def footprint(cls, kernel: FscKernel, sys: ActionSystem, n: int,
                  s0: int | None = None) -> int:
        """Bytes of a space and of a solve's SOLVE_LIVE_ARRAYS on it, from
        live_counts: 8 bytes an entry, at most one reachable history per
        prefix."""
        u = kernel.input_size * sys.encoder_size
        live = [1] + cls.live_counts(kernel, sys, n, s0)
        # per step: measure, reach, denom and slot per prefix, up and cond per
        # entry; then p_live, log2_p_live and col, cost_row, row_starts and
        # step_cost
        words = sum((3 + u) * p + 2 * c for p, c in zip(live, live[1:]))
        words += ((3 + SOLVE_LIVE_ARRAYS) * live[n]
                  + u ** n + u ** (n - 1) + u)
        return 8 * words

    @property
    def parent(self) -> np.ndarray:
        """Step-N parent id of each live entry (up[N-1])."""
        return self.up[-1]

    @property
    def past_law(self) -> np.ndarray:
        """Past law P(y^{N-1} || x^{N-1}) of each level-(N-1) prefix."""
        return self.measure[-1]

    def reachable_rows(self, policy: CausalPolicy) -> np.ndarray:
        """The reachable rows of a causal policy, [H, U] and read-only, how
        a policy enters the optimizer; ValueError unless the policy has the
        space's block length, |U| and |Z|."""
        got = (policy.block_length, policy.u_size, policy.z_size)
        expected = (self.n, self.u_size, self.z_size)
        if got != expected:
            raise ValueError(f"policy (block length, |U|, |Z|) = {got} "
                             f"does not fit the space's alphabets {expected}")
        return read_only(np.concatenate(
            [t.take(r, axis=0) for t, r in zip(policy.tables, self.reach)]))

    def dense_policy(self, rows: np.ndarray) -> CausalPolicy:
        """The causal policy with the given reachable rows (as reachable_rows
        returns them) and a uniform slice on every other history, how a
        policy leaves the optimizer."""
        tables = []
        for reach, step, n_hist in zip(self.reach, self.steps, self.n_hist):
            table = rows[step]
            if len(reach) < n_hist:
                table = np.full((n_hist, self.u_size), 1.0 / self.u_size)
                table[reach] = rows[step]
            tables.append(table)
        return CausalPolicy(tuple(tables), self.z_size)

    def uniform_rows(self) -> np.ndarray:
        """The reachable rows of the uniform policy, read-only."""
        return read_only(np.full((self.steps[-1].stop, self.u_size),
                                 1.0 / self.u_size))

    def policy_product(self, rows: np.ndarray) -> np.ndarray:
        """The causal conditioning product r(u^N || z^{N-1}) at the step-N
        parents, [U, level-(N-1) prefixes], from the reachable rows.

        Walks forward: the product at the step-i parents is step i's factor,
        read from its slice through slot, times the product at each
        level-(i-1) prefix's step-(i-1) parent, read through up. No factor
        depends on y_N, so live entry k reads the result at parent[k].
        Raises ValueError unless rows is one [H, U] array.
        """
        want = (self.steps[-1].stop, self.u_size)
        got = getattr(rows, "shape", None)
        if got != want:
            raise ValueError(f"policy rows of shape {got} do not fit the "
                             f"space's reachable rows {want}")
        prod = rows[self.steps[0]].take(self.slot[0])
        for i in range(2, self.n + 1):
            step = rows[self.steps[i - 1]].take(self.slot[i - 1])
            step *= prod.take(self.up[i - 2])
            prod = step
        return prod

    def per_row(self, on_parents: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Sums of on_parents * weights over each row's step-N parents, [rows].

        Both are laid out [U, level-(N-1) prefixes], or broadcast to it.
        """
        return np.add.reduceat(on_parents * weights, self.row_starts,
                               axis=1).T.ravel()

    def expected_cost(self, row_mass: np.ndarray) -> float:
        """Per-step average action cost (1/N) E[sum_i Lambda(a_i)] of a joint.

        The cost depends on the row u^N only, so the joint enters as its
        mass per row, row_mass [rows], and the compensated sum runs over one
        product per row.
        """
        return fsum_array(row_mass * self.cost_row) / self.n
