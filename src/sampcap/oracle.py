"""Brute-force reference computations at desk scale.

Everything in this module is recomputed from first principles with plain
Python loops: channel probabilities by literal summation over state paths,
the dense joint over (u^N, y^N) as a product of policy conditionals read at
history codes built digit by digit, directed information as
E[log2 P(Y^N || X^N) / P(Y^N)] with the causal conditionals read off the
joint through prefix sums, capacity by exhaustive grid search over
conditional-slice simplices, and the inner policy update as a direct product
of powers. The optimized modules are never called and the trajectory module
is not imported; the only shared surface is the frozen data types, so
agreement between the two code paths is evidence for both.

Scale caps keep the literal enumerations tractable: joints up to 10^7
entries, grid searches up to 8 free policy dimensions, and the product-of-
powers update at block length <= 2 with binary inputs and encoder actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Optional, Union

import numpy as np

from ._num import raise_first
from .actions import ActionSystem, decoder_violations
from .baa import BaaState
from .fsc import FscKernel
from .policy import CausalPolicy

LITERAL_ENTRY_CAP = 10_000_000
GRID_FREE_DIM_CAP = 8
GRID_BLOCK_CAP = 2
R_UPDATE_BLOCK_CAP = 2
R_UPDATE_INPUT_CAP = 2
R_UPDATE_ACTION_CAP = 2
R_UPDATE_OUTPUT_CAP = 4
FEAS_SLACK = 1e-9

REPORT_METHODS = ("literal-sum", "grid-search", "deterministic-enumeration")


@dataclass(frozen=True)
class OracleReport:
    """One oracle/main comparison with the gap recomputed on access."""

    quantity: str
    oracle_value: float
    main_value: float
    search_space_size: int
    method: str
    tolerance: float

    def __post_init__(self):
        if self.method not in REPORT_METHODS:
            raise ValueError(f"unknown oracle method {self.method!r}")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.search_space_size < 1:
            raise ValueError("search_space_size must be at least 1")

    @property
    def absolute_gap(self) -> float:
        return abs(self.oracle_value - self.main_value)

    @property
    def passed(self) -> bool:
        return self.absolute_gap <= self.tolerance


def _seq_digits(code: int, base: int, length: int) -> tuple[int, ...]:
    """Digits of `code` in the given base, step 1 most significant."""
    out = []
    for _ in range(length):
        code, digit = divmod(code, base)
        out.append(digit)
    return tuple(reversed(out))


def _literal_channel_prob(kernel: FscKernel, x_seq, y_seq,
                          s0: Optional[int] = None) -> float:
    """P(y_seq || x_seq, s0) by summation over every state path.

    s0 = None averages the start state over the kernel's initial distribution.
    """
    k = kernel.kernel
    n_states = kernel.state_size
    if s0 is None:
        starts = [(s, float(kernel.initial_dist[s])) for s in range(n_states)]
    else:
        starts = [(int(s0), 1.0)]
    terms = []
    for start, w0 in starts:
        if w0 == 0.0:
            continue
        for path in product(range(n_states), repeat=len(x_seq)):
            w = w0
            s = start
            for x, y, nxt in zip(x_seq, y_seq, path):
                w *= float(k[s, x, y, nxt])
                s = nxt
            terms.append(w)
    return math.fsum(terms)


class _Trajectories(NamedTuple):
    """Every trajectory (u^N, y^N) of a block, by literal enumeration.

    Rows enumerate u^N and columns y^N, step 1 most significant. Per row: the
    u, x and a digits and the action cost sum_i Lambda(a_i); per row and
    column: the feedback z^N and, for the k-th requested start, the channel
    law P(y^N || x^N, start) at chan[k][row][col].
    """

    u: list
    x: list
    a: list
    cost: list
    z: list
    chan: list


def _trajectories(kernel: FscKernel, sys: ActionSystem, n: int,
                  starts) -> _Trajectories:
    """The trajectories of block length n; starts lists start states, None
    for the initial-distribution average."""
    raise_first(decoder_violations(sys.decoder_actions.size))
    a_size = sys.encoder_actions.size
    u_size = kernel.input_size * a_size
    y_size = kernel.output_size
    u = [_seq_digits(r, u_size, n) for r in range(u_size ** n)]
    y = [_seq_digits(c, y_size, n) for c in range(y_size ** n)]
    x = [tuple(v // a_size for v in row) for row in u]
    a = [tuple(v % a_size for v in row) for row in u]
    cost = [math.fsum(float(sys.cost_table[aj, 0]) for aj in row) for row in a]
    z = [
        [tuple(int(sys.sampling_table[aj, 0, yj]) for aj, yj in zip(row, ys))
         for ys in y]
        for row in a
    ]
    chan = []
    for s0 in starts:
        # rows that differ only in their actions share a channel law
        by_x = {xs: [_literal_channel_prob(kernel, xs, ys, s0) for ys in y]
                for xs in set(x)}
        chan.append([by_x[xs] for xs in x])
    return _Trajectories(u, x, a, cost, z, chan)


def _history_code(u_hist, z_hist, u_size: int, z_size: int) -> int:
    """The HistoryIndexer id code(u^{i-1}) Z^{i-1} + code(z^{i-1}) of a
    history, digit by digit."""
    u_code = 0
    for u in u_hist:
        u_code = u_code * u_size + u
    z_code = 0
    for z in z_hist:
        z_code = z_code * z_size + z
    return u_code * z_size ** len(z_hist) + z_code


def literal_violations(entries: int) -> list[str]:
    """The rule a dense joint of this many entries breaks, if any: no more
    than LITERAL_ENTRY_CAP are enumerated literally."""
    if entries > LITERAL_ENTRY_CAP:
        return ["joint too large to enumerate literally"]
    return []


def _literal_di_matrix(probs: np.ndarray, n: int, u_size: int,
                       y_size: int) -> float:
    """Directed information of a dense [u^N, y^N] joint, in total bits.

    Evaluates E[log2 P(Y^N || U^N) / P(Y^N)] directly: both causal factors
    are ratios of prefix marginals accumulated by explicit iteration, with
    no chain-rule decomposition into per-step informations.
    """
    rows, cols = probs.shape
    raise_first(literal_violations(rows * cols))
    uy: list[dict] = [{} for _ in range(n + 1)]   # P(u^i, y^i)
    uym: list[dict] = [{} for _ in range(n + 1)]  # P(u^i, y^{i-1})
    yy: list[dict] = [{} for _ in range(n + 1)]   # P(y^i)
    yym: list[dict] = [{} for _ in range(n + 1)]  # P(y^{i-1})
    for r in range(rows):
        for c in range(cols):
            p = float(probs[r, c])
            if p <= 0.0:
                continue
            for i in range(1, n + 1):
                up = r // u_size ** (n - i)
                yp = c // y_size ** (n - i)
                ypm = c // y_size ** (n - i + 1)
                uy[i][(up, yp)] = uy[i].get((up, yp), 0.0) + p
                uym[i][(up, ypm)] = uym[i].get((up, ypm), 0.0) + p
                yy[i][yp] = yy[i].get(yp, 0.0) + p
                yym[i][ypm] = yym[i].get(ypm, 0.0) + p
    terms = []
    for r in range(rows):
        for c in range(cols):
            p = float(probs[r, c])
            if p <= 0.0:
                continue
            log_ratio = 0.0
            for i in range(1, n + 1):
                up = r // u_size ** (n - i)
                yp = c // y_size ** (n - i)
                ypm = c // y_size ** (n - i + 1)
                log_ratio += math.log2(uy[i][(up, yp)]) - math.log2(uym[i][(up, ypm)])
                log_ratio -= math.log2(yy[i][yp]) - math.log2(yym[i][ypm])
            terms.append(p * log_ratio)
    return math.fsum(terms)


def literal_joint(policy: CausalPolicy, kernel: FscKernel, sys: ActionSystem,
                  s0: Optional[int] = None) -> np.ndarray:
    """The dense joint P(u^N, y^N) of a causal policy on a channel, [u^N, y^N].

    Each entry is prod_i Q_i(u_i | u^{i-1}, z^{i-1}) P(y^N || x^N, s0): the
    conditionals read at the history codes of the trajectory's own feedback,
    the channel law summed over state paths; s0 = None averages the start
    state over the initial distribution. Raises ValueError unless the
    policy's |U| and |Z| are those of the channel and action system and the
    joint is small enough to enumerate literally.
    """
    n = policy.block_length
    u_size = kernel.input_size * sys.encoder_actions.size
    z_size = sys.feedback_alphabet.size
    if (policy.u_size, policy.z_size) != (u_size, z_size):
        raise ValueError(
            f"policy (|U|, |Z|) = {(policy.u_size, policy.z_size)} does not "
            f"fit the alphabets {(u_size, z_size)} of the channel and actions"
        )
    raise_first(literal_violations(u_size ** n * kernel.output_size ** n))
    traj = _trajectories(kernel, sys, n, (s0,))
    probs = np.empty((len(traj.u), len(traj.z[0])))
    for r, us in enumerate(traj.u):
        for c, zs in enumerate(traj.z[r]):
            q = 1.0
            for i in range(n):
                h = _history_code(us[:i], zs[:i], u_size, z_size)
                q *= float(policy.tables[i][h, us[i]])
            probs[r, c] = q * traj.chan[0][r][c]
    return probs


def literal_directed_info(policy: CausalPolicy, kernel: FscKernel,
                          sys: ActionSystem, s0: Optional[int] = None) -> float:
    """I(U^N -> Y^N) in total bits of a causal policy on a channel, straight
    from the definition on its literal joint (see literal_joint)."""
    return _literal_di_matrix(literal_joint(policy, kernel, sys, s0),
                              policy.block_length, policy.u_size,
                              kernel.output_size)


def _grid_layout(kernel: FscKernel, sys: ActionSystem, n: int):
    """Reachable policy slices for the grid search.

    Returns (slices, slice_lookup) where slices is an ordered list of
    (step, u_prefix, z_prefix) triples -- only feedback prefixes that the
    sampling table can actually produce -- and slice_lookup maps the triple
    back to its position. Order follows ascending history code per step.
    """
    raise_first(decoder_violations(sys.decoder_actions.size))
    x_size = kernel.input_size
    a_size = sys.encoder_actions.size
    y_size = kernel.output_size
    u_size = x_size * a_size
    images = [
        sorted({int(sys.sampling_table[a, 0, y]) for y in range(y_size)})
        for a in range(a_size)
    ]
    slices = []
    for i in range(1, n + 1):
        for u_pref in product(range(u_size), repeat=i - 1):
            a_pref = [u % a_size for u in u_pref]
            for z_pref in product(*(images[a] for a in a_pref)):
                slices.append((i, u_pref, z_pref))
    lookup = {key: pos for pos, key in enumerate(slices)}
    return slices, lookup


def _simplex_grid_tuples(dim: int, steps: int) -> list[tuple[float, ...]]:
    """Probability vectors over `dim` bins with entries in multiples of 1/steps."""
    points = []
    for split in product(range(steps + 1), repeat=dim - 1):
        total = sum(split)
        if total <= steps:
            points.append(tuple(v / steps for v in split) + ((steps - total) / steps,))
    return points


def _simplex_grid_size(dim: int, steps: int) -> int:
    """len(_simplex_grid_tuples(dim, steps)), counted without building them:
    the ways to split steps units over dim bins."""
    return math.comb(steps + dim - 1, dim - 1)


def grid_search_space(kernel: FscKernel, sys: ActionSystem, n: int,
                      grid_step: float) -> int:
    """Number of policy grid points the exhaustive search will visit."""
    steps = round(1.0 / grid_step)
    if abs(steps * grid_step - 1.0) > 1e-9:
        raise ValueError("grid_step must divide 1 evenly")
    slices, _ = _grid_layout(kernel, sys, n)
    u_size = kernel.input_size * sys.encoder_actions.size
    free = len(slices) * (u_size - 1)
    if free > GRID_FREE_DIM_CAP:
        raise ValueError(
            f"{free} free policy dimensions exceed the grid cap of "
            f"{GRID_FREE_DIM_CAP}"
        )
    return _simplex_grid_size(u_size, steps) ** len(slices)


def grid_capacity(kernel: FscKernel, sys: ActionSystem, n: int,
                  grid_step: float = 0.05, objective: str = "average",
                  budget: Optional[float] = None) -> Union[float, tuple]:
    """Best per-letter directed information over an exhaustive policy grid.

    Enumerates every causal policy whose conditional slices lie on a uniform
    simplex grid, keeps the budget-feasible ones, and evaluates the directed
    information literally. objective 'average' uses the initial-distribution
    average of the channel law (one value), 'worst_state' the minimum over
    start states (one value), 'per_state' each start state separately (a
    tuple). Ties keep the first grid point in enumeration order.
    """
    if n > GRID_BLOCK_CAP:
        raise ValueError(f"grid search is capped at block length {GRID_BLOCK_CAP}")
    if objective not in ("average", "worst_state", "per_state"):
        raise ValueError(f"unknown objective {objective!r}")
    grid_search_space(kernel, sys, n, grid_step)  # checks step and size
    steps = round(1.0 / grid_step)
    if budget is None:
        budget = sys.budget
    slices, lookup = _grid_layout(kernel, sys, n)
    u_size = kernel.input_size * sys.encoder_actions.size
    y_size = kernel.output_size
    # one channel law per start the objective reads
    starts = (None,) if objective == "average" else range(kernel.state_size)
    traj = _trajectories(kernel, sys, n, starts)
    rows, cols = len(traj.u), len(traj.z[0])
    # per trajectory and step: which slice feeds it and with which symbol
    slice_refs = [
        [[(lookup[(i, us[: i - 1], zs[: i - 1])], us[i - 1])
          for i in range(1, n + 1)]
         for zs in traj.z[r]]
        for r, us in enumerate(traj.u)
    ]

    grid = _simplex_grid_tuples(u_size, steps)
    best = [-math.inf] * len(traj.chan)
    for assignment in product(range(len(grid)), repeat=len(slices)):
        policy_rows = [grid[g] for g in assignment]
        q_val = [
            [
                math.prod(policy_rows[pos][u] for pos, u in slice_refs[r][c])
                for c in range(cols)
            ]
            for r in range(rows)
        ]
        # per start: the rate, or None where the cost exceeds the budget
        values = []
        for chan in traj.chan:
            joint = np.array(
                [[q_val[r][c] * chan[r][c] for c in range(cols)]
                 for r in range(rows)]
            )
            cost = math.fsum(
                joint[r, c] * traj.cost[r]
                for r in range(rows) for c in range(cols)
            ) / n
            if cost > budget + FEAS_SLACK:
                values.append(None)
                if objective != "per_state":
                    break
                continue
            values.append(_literal_di_matrix(joint, n, u_size, y_size) / n)
        if objective == "per_state":
            for s0, value in enumerate(values):
                if value is not None and value > best[s0]:
                    best[s0] = value
        elif None not in values and min(values) > best[0]:
            best[0] = min(values)
    result = tuple(best) if objective == "per_state" else best[0]
    flat = result if isinstance(result, tuple) else (result,)
    if any(v == -math.inf for v in flat):
        raise ValueError("no grid point satisfies the cost budget")
    return result


def literal_r_update(state: BaaState) -> CausalPolicy:
    """Policy update evaluated as a direct product of powers, no log domain.

    Walks steps N down to 1; each slot (u^{i-1}, z^{i-1}, u_i) accumulates

        r'(slot) = prod over trajectories [ q(u^N | y^N) 2^(-lam cost(a^N))
                                            / prod_{j>i} r_j ] ^ w,

    with weights w = P(y^N || x^N) prod_{j>i} r_j over the feedback-
    compatible prefix mass, then normalizes each history slice. Channel
    probabilities, compatibility sums, and history codes are all recomputed
    here by literal enumeration. Slices with no weight (or that underflow to
    all-zero) become uniform, the same convention the optimized update uses.
    """
    lam = state.lam
    kernel, sys = state.space.kernel, state.space.sys
    n = state.space.n
    x_size = kernel.input_size
    a_size = sys.encoder_actions.size
    y_size = kernel.output_size
    if n > R_UPDATE_BLOCK_CAP:
        raise ValueError(f"literal update capped at block length {R_UPDATE_BLOCK_CAP}")
    if x_size > R_UPDATE_INPUT_CAP or a_size > R_UPDATE_ACTION_CAP:
        raise ValueError("literal update needs binary inputs and encoder actions")
    if y_size > R_UPDATE_OUTPUT_CAP:
        raise ValueError(f"literal update capped at {R_UPDATE_OUTPUT_CAP} outputs")
    u_size = x_size * a_size
    z_size = sys.feedback_alphabet.size
    s0 = state.space.s0
    q = np.asarray(state.q, dtype=float)
    traj = _trajectories(kernel, sys, n, (s0,))
    chan = traj.chan[0]
    rows, cols = len(traj.u), len(traj.z[0])

    denom_cache: dict = {}

    def compat_sum(i: int, r: int, c: int) -> float:
        # sum of P(y^{i-1} || x^{i-1}) over output prefixes whose sampled
        # feedback matches this trajectory's z^{i-1}
        if i == 1:
            return 1.0
        key = (i, traj.x[r][: i - 1], traj.a[r][: i - 1],
               traj.z[r][c][: i - 1])
        if key not in denom_cache:
            _, xs, a_pref, z_pref = key
            terms = []
            for y_hist in product(range(y_size), repeat=i - 1):
                if all(
                    int(sys.sampling_table[a_pref[j], 0, y_hist[j]]) == z_pref[j]
                    for j in range(i - 1)
                ):
                    terms.append(_literal_channel_prob(kernel, xs, y_hist, s0))
            denom_cache[key] = math.fsum(terms)
        return denom_cache[key]

    suffix = [[1.0] * cols for _ in range(rows)]
    tables: list[np.ndarray] = [np.empty(0)] * n
    for i in range(n, 0, -1):
        n_hist = (u_size * z_size) ** (i - 1)
        rprime = [[1.0] * u_size for _ in range(n_hist)]
        weight_in_slice = [0.0] * n_hist
        for r in range(rows):
            for c in range(cols):
                denom = compat_sum(i, r, c)
                if denom <= 0.0:
                    continue
                w = chan[r][c] * suffix[r][c] / denom
                if w <= 0.0:
                    continue
                h = _history_code(traj.u[r][: i - 1], traj.z[r][c][: i - 1],
                                  u_size, z_size)
                base = q[r, c] * 2.0 ** (-lam * traj.cost[r]) / suffix[r][c]
                rprime[h][traj.u[r][i - 1]] *= base ** w
                weight_in_slice[h] += w
        table = np.empty((n_hist, u_size))
        for h in range(n_hist):
            total = math.fsum(rprime[h])
            if weight_in_slice[h] == 0.0 or total == 0.0:
                table[h] = 1.0 / u_size
            else:
                table[h] = [v / total for v in rprime[h]]
        tables[i - 1] = table
        for r in range(rows):
            for c in range(cols):
                h = _history_code(traj.u[r][: i - 1], traj.z[r][c][: i - 1],
                                  u_size, z_size)
                suffix[r][c] *= float(table[h, traj.u[r][i - 1]])
    return CausalPolicy(block_length=n, u_size=u_size, z_size=z_size,
                        tables=tuple(tables))
