"""Alternating maximization of directed information under Lagrangian action costs.

For a block length N, a channel law p(y^N || x^N), a deterministic feedback
sampler and per-action costs, the algorithm alternates between

  - the reverse conditional q(x^N, a^N | y^N), whose optimum for fixed r is
    the Bayes posterior r * p / sum r * p; it is never formed as an array:
    the policy update reads only its sums over the last output, which
    every iterate folds once from the output marginal (update_q), and
  - the causal policy factors r_i(x_i, a_i | x^{i-1}, a^{i-1}, z^{i-1}),
    updated backward from step N with a weighted-geometric-mean formula whose
    weights combine the channel law, the already-updated later factors, and
    per-feedback-history sums of past channel products,

maximizing (1/N) I(X^N -> Y^N) - lambda E[Lambda]. Every iteration yields a
monotone lower bound I_L and an anytime upper bound I_U (the value of the
best deterministic causal deviation policy against the current output law,
found by a backward fold over feedback histories); the gap certifies
convergence. Each policy update is over-relaxed in the log domain and kept
only if the lower iterate does not fall (see run_baa). Sweeping lambda
traces the cost-capacity tradeoff, solved as one chain in ascending lambda,
each point started from the previous one's policy; the envelope of the
sweep's tangent lines lies above the constrained curve C_N(Gamma), and
shifting it by Lambda_max/N gives the computable side of the sandwich

    C_N(Gamma - Lambda_max/N) <= C(Gamma) <= C_N(Gamma).

The paper's upper and lower bounds coincide, and so give the capacity,
"for the case where the probability of initial state is positive for all
states"; the markovian config's initial_dist is [1, 0]. The shifted side
reads the envelope, not C_N, at Gamma - Lambda_max/N, so it meets the
left-hand term only up to the envelope's distance from C_N (up to 3.8e-4
bits at small budgets on the markovian config, N = 2 to 4).

All quantities are in bits; cost is the per-step average (1/N) sum Lambda.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._num import (fold_last, freeze, fsum_array, is_integer, is_number,
                   raise_first, read_only)
from .policy import CausalPolicy
from .trajectory import TrajectorySpace

DEFAULT_EPSILON = 1e-6
DEFAULT_MAX_ITERS = 10_000
DEFAULT_GAMMA_POINTS = 101
# budgets of the envelope grid: each is a CSV row, and a sweep solves every
# lambda before it builds the grid, so a misplaced exponent must fail early
MAX_GAMMA_POINTS = 10**6
ENVELOPE_SLACK = 1e-9
# weight of the uniform policy in a sweep point's warm start: the
# multiplicative update cannot regrow mass that is exactly zero
WARM_START_MIX = 1e-4
# over-relaxation of the policy update (see run_baa): the step size starts
# at RELAX_START, grows by RELAX_GROW after an accepted candidate (up to
# RELAX_MAX) and is divided by RELAX_CUT after a rejected one, never below
# RELAX_START, so it stays above 1, the plain step
RELAX_START = 2.0
RELAX_GROW = 1.5
RELAX_MAX = 64.0
RELAX_CUT = 16.0


def default_lambda_grid() -> np.ndarray:
    """25 geometric points on [1e-3, 10] plus the unconstrained point 0."""
    return np.concatenate([[0.0], np.geomspace(1e-3, 10.0, 25)])


def sweep_violations(eps=DEFAULT_EPSILON, max_iters=DEFAULT_MAX_ITERS,
                     lam_grid=None, gamma_points=DEFAULT_GAMMA_POINTS
                     ) -> list[str]:
    """The rules the run parameters of sweep_lambda break, by JSON pointer
    within the algorithm section; run_baa's lambda is a one-point grid, and
    None the default grid. An infinite eps would certify any gap."""
    found = []
    if not (is_number(eps) and 0.0 < eps < math.inf):
        found.append("epsilon: must be a finite positive number")
    if not (is_integer(max_iters) and max_iters >= 1):
        found.append("max_iters: must be a positive integer")
    if lam_grid is not None and not (
            isinstance(lam_grid, (Sequence, np.ndarray)) and len(lam_grid)
            and all(is_number(v) and 0.0 <= v < math.inf for v in lam_grid)):
        found.append("lambda_grid: must be a nonempty list of finite "
                     "nonnegative numbers")
    if not (is_integer(gamma_points) and gamma_points >= 1):
        found.append("gamma_points: must be a positive integer")
    elif gamma_points > MAX_GAMMA_POINTS:
        found.append(f"gamma_points: must be at most {MAX_GAMMA_POINTS}")
    return found


@dataclass(frozen=True, eq=False)
class BaaState:
    """One iterate of the alternating map: a policy r and what it determines.

    The policy is held as rows, its [H, U] reachable rows, the steps
    stacked in step order (see TrajectorySpace.reachable_rows and steps).
    update_q builds every iterate (initial goes through it): prod is r's
    policy product at the step-N parents, d the output marginal sum_u r p,
    and T, per step-N parent, the sum over y_N of cond log2(p / d), which
    is +inf at a parent with an output of d = 0; i_lower and
    gamma are r's Lagrangian lower iterate and per-step expected action
    cost. The reverse conditional q = r p / d is never formed: log2 q sums
    to log2 prod + T at each parent, which is all the policy update reads.
    r_flagged marks, per reachable row, the policy slices that received no
    weight in the update that produced r (None for a start policy).
    """

    space: TrajectorySpace
    lam: float
    rows: np.ndarray
    prod: np.ndarray
    T: np.ndarray
    d: np.ndarray
    i_lower: float
    gamma: float
    r_flagged: Optional[np.ndarray]

    @classmethod
    def initial(cls, space: TrajectorySpace, lam: float,
                start: Optional[np.ndarray] = None) -> "BaaState":
        """The iterate of the start policy on a space, which is shared, never
        modified: start holds its reachable rows (a CausalPolicy enters
        through space.reachable_rows), and None is the uniform policy."""
        return update_q(space, lam,
                        space.uniform_rows() if start is None else start)

    @property
    def r(self) -> CausalPolicy:
        """r as a dense CausalPolicy, built anew on each access, with a
        uniform slice on the histories that cannot occur. The optimizer
        reads rows and never builds it."""
        return self.space.dense_policy(self.rows)

    @property
    def dead_slices(self) -> int:
        return 0 if self.r_flagged is None else int(self.r_flagged.sum())

    @property
    def unreachable_outputs(self) -> int:
        """Output blocks of zero marginal, where q is a uniform slice."""
        return int((self.d <= 0.0).sum())


def update_q(space: TrajectorySpace, lam: float, rows: np.ndarray,
             flagged: Optional[np.ndarray] = None) -> BaaState:
    """The iterate of the policy r with the given reachable rows, flagged
    being the dead slices of its update.

    Forms the policy product at the step-N parents and the joint r p on the
    live entries, takes its output marginal d, releases the joint, and sums
    cond log2(p / d) over y_N into T at each parent: the one live-size
    fold of an iterate. Then prices the expected cost and I_L
    (lower_bound). Raises ValueError unless rows has the space's [H, U]
    shape (policy_product checks it).
    """
    prod = space.policy_product(rows)
    joint = prod.take(space.parent)
    joint *= space.p_live
    d = np.bincount(space.col, weights=joint, minlength=space.cols)
    del joint
    with np.errstate(divide="ignore"):  # log2 0 = -inf: T is +inf there
        leaf = np.log2(d).take(space.col)
    np.subtract(space.log2_p_live, leaf, out=leaf)
    leaf *= space.cond[-1]
    t = np.bincount(space.parent, weights=leaf,
                    minlength=prod.size).reshape(prod.shape)
    del leaf
    gamma = space.expected_cost(space.per_row(prod, space.past_law))
    return BaaState(space=space, lam=lam, rows=rows, prod=read_only(prod),
                    T=read_only(t), d=read_only(d),
                    i_lower=lower_bound(space, lam, prod, t, gamma),
                    gamma=gamma, r_flagged=flagged)


def _fold(space: TrajectorySpace, g: np.ndarray, lam: float,
          pick) -> float:
    """Backward fold from the step-N parent sums g, [U, level-(N-1)
    prefixes] (not modified); its value F_0.

    Step i = N..1 takes G_i = g_i - lam Lambda(a_i) at its parents, lets
    pick(slot sums of measure_i G_i, i) return the step's rows r_i on the
    reachable histories, and sets F_{i-1} = sum_{u_i} r_i (G_i - log2 r_i);
    terms with zero r_i count as 0. Below step N, g_i = sum_{y_i} cond_i
    F_i. With g_N = sum_{y_N} cond_N leaf, the weights p prod_{j>i} r_j
    factor into step conditionals that each sum to 1, so the slot scores
    are the slot sums of p prod_{j>i} r_j (leaf - lam sum_{j>=i}
    Lambda(a_j) - sum_{j>i} log2 r_j): the earlier steps' price is constant
    on a history, so the fold equals the one on leaf - lam sum_j
    Lambda(a_j). Every step runs on the live prefixes only, where cond is
    positive.
    """
    u = space.u_size
    price = lam * space.step_cost
    with np.errstate(divide="ignore", invalid="ignore"):  # covers pick too
        for i in range(space.n, 0, -1):
            g = g - price
            slot = space.slot[i - 1]
            scores = np.bincount(
                slot.ravel(), weights=(space.measure[i - 1] * g).ravel(),
                minlength=len(space.reach[i - 1]) * u).reshape(-1, u)
            table = pick(scores, i)
            r = table.take(slot)
            g -= np.log2(table).take(slot)
            g *= r
            g[r <= 0.0] = 0.0
            f = g.sum(axis=0)
            if i > 1:
                f *= space.cond[i - 2]
                g = np.bincount(space.up[i - 2], weights=f,
                                minlength=space.slot[i - 2].size
                                ).reshape(u, -1)
    return f.item()


def update_r(state: BaaState) -> tuple[np.ndarray, np.ndarray]:
    """Backward policy update (steps N down to 1) for the iterate's q.

    Step i uses the factors already updated at steps j > i. The new factor is
    the normalized weighted geometric mean

        log r'(u^i, z^{i-1}) = sum w * log[ q 2^(-lambda sum_j Lambda(a_j))
                                            / prod_{j>i} r_j ]

    with weights w = p(y^N || x^N) prod_{j>i} r_j divided by the
    feedback-compatible sum of past channel products; that sum is constant
    on a slot, so the slot sums (_fold's scores) are divided by it once;
    _fold charges each Lambda(a_j) at step j. q = r p / d is constant over
    u^N's own factor, so its step-N sum is log2 prod + T at each parent.
    An output of zero marginal has the uniform posterior q = 1 / |U|^N, so
    a parent of zero product reads -log2 |U|^N if every output below it
    has d = 0 and -inf otherwise. Zero-weight terms contribute exactly 0
    even when the log argument vanishes. The update runs on the reachable
    histories; slices that receive no weight at all become uniform.
    Returns the new policy's reachable rows and, per row, the flag of a
    slice that received no weight; both fresh and read-only, as an iterate
    keeps them.
    """
    space, prod = state.space, state.prod
    # log2 0 = -inf; the NaN of -inf + inf occurs only where d has a zero
    # and is overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.log2(prod) + state.T
    if state.d.min() <= 0.0:
        reached = np.bincount(space.parent, weights=state.d.take(space.col),
                              minlength=prod.size).reshape(prod.shape)
        g[prod <= 0.0] = -math.inf
        g[reached <= 0.0] = -math.log2(space.rows)
    rows = np.empty(state.rows.shape)
    flags = np.empty(len(rows), dtype=bool)

    def geometric_mean(scores, i):
        # every reachable history has denom > 0; a slice whose scores are
        # all -inf is flagged dead
        table, dead = rows[space.steps[i - 1]], flags[space.steps[i - 1]]
        scores /= space.denom[i - 1][:, None]
        mx = fold_last(np.maximum, scores)[:, None]
        np.logical_not(np.isfinite(mx[:, 0]), out=dead)
        np.subtract(scores, mx, out=table)
        np.exp2(table, out=table)
        table[dead] = 1.0
        table /= fold_last(np.add, table)[:, None]
        return table

    _fold(space, g, state.lam, geometric_mean)
    return read_only(rows), read_only(flags)


def _over_relax(previous: np.ndarray, plain: np.ndarray, relax: float,
                flagged: np.ndarray) -> np.ndarray:
    """Over-relaxed policy step from the reachable rows previous through
    their plain update plain, read-only.

    Per slice, log r~ = log T + (relax - 1)(log T - log r), normalized, with
    T the plain update of r. Entries where T is 0 stay 0; where r is 0 the
    entry takes T's log. Slices the plain update flagged dead keep its
    uniform slice.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_new = np.log2(plain)
        move = log_new - np.log2(previous)
    move[~np.isfinite(move)] = 0.0
    log_new += (relax - 1.0) * move
    log_new -= fold_last(np.maximum, log_new)[:, None]
    table = np.exp2(log_new)
    table /= fold_last(np.add, table)[:, None]
    if flagged.any():
        table[flagged] = plain[flagged]
    return read_only(table)


def lower_bound(space: TrajectorySpace, lam: float, prod: np.ndarray,
                t: np.ndarray, gamma: float) -> float:
    """Monotone Lagrangian lower iterate of a policy r, given its product
    prod and its sums T of cond log2(p / d) at the step-N parents
    (BaaState) and its expected cost gamma

    I_L = (1/N) sum r p log2(q / r) - lambda gamma.

    q is the posterior r p / d, so q / r = p / d wherever r p > 0. The
    joint at a live entry is prod times the past law times cond, and r is
    constant over y_N, so I_L is (1/N) sum over the parents of
    prod past_law T, summed per row, less lambda gamma: DI/N less the
    priced cost. A parent of zero product carries no weight, also where T
    is +inf.
    """
    weights = np.where(prod > 0.0, space.past_law * t, 0.0)
    return fsum_array(space.per_row(prod, weights)) / space.n - lam * gamma


def upper_bound(state: BaaState) -> float:
    """Anytime upper iterate: value of the best deterministic deviation policy

    I_U = (1/N) max over deterministic causal maps u_i = g(u^{i-1}, z^{i-1})
          of E_g[ log2( p(y^N || x^N) 2^(-lambda sum_j Lambda(a_j))
                        / sum_u r p ) ].

    Evaluated by _fold from the iterate's T, the step-N sums of
    cond log2(p / sum_u r p), pricing Lambda(a_j) at step j: expectation
    over y_i per step, with the max over u_i
    taken once per feedback history (u^{i-1}, z^{i-1}), its candidates scored
    by the past-law-weighted sum over the output prefixes the history cannot
    distinguish. Ties resolve to the lowest u index; the picked map's table
    takes its rows from one identity matrix per call. The deviation policies
    are the extreme points of the causal-policy polytope, so at a maximizing
    policy the fold value meets the Lagrangian maximum and the bracket
    closes; letting the max adapt to y^{i-1} itself would over-inform the
    deviator and leave a permanent gap wherever sampling is priced out.
    I_U is +inf if the best map reaches an output with p > 0 = sum_u r p.
    """
    space = state.space
    identity = np.eye(space.u_size)

    def argmax(scores, i):
        return identity.take(scores.argmax(axis=1), axis=0)

    return _fold(space, state.T, state.lam, argmax) / space.n


@dataclass(frozen=True)
class TradeoffPoint:
    """One Lagrangian sweep point: penalty, measured cost, value, convergence.

    rejected_steps counts the over-relaxed candidates that failed the guard
    (see run_baa); seconds is the wall time of the solve. dead_slices counts
    the slices the last update gave no weight, unreachable_outputs the output
    blocks of zero marginal under the final policy, whose reachable rows are
    rows (the next point's warm start; TrajectorySpace.dense_policy
    densifies)."""

    lam: float
    gamma: float
    i_lower: float
    i_upper: float
    iterations: int
    final_gap: float
    converged: bool
    rejected_steps: int = 0
    dead_slices: int = 0
    unreachable_outputs: int = 0
    seconds: float = field(default=0.0, compare=False)
    rows: Optional[np.ndarray] = field(default=None, repr=False,
                                       compare=False)


def _tangent_envelope(points: Sequence[TradeoffPoint], gammas) -> np.ndarray:
    """Least tangent line min_k (i_upper_k + lam_k * g) at each budget g, a
    running minimum over the points' lines."""
    gammas = np.asarray(gammas, dtype=float)
    envelope = np.full(gammas.shape, math.inf)
    for p in points:
        np.minimum(envelope, p.i_upper + p.lam * gammas, out=envelope)
    return envelope


@dataclass(frozen=True)
class TradeoffCurve:
    """Sweep points sorted by lambda plus the reconstructed cost envelope.

    The envelope value at budget g is min over points of (i_upper + lam * g):
    the least tangent line, an upper bound on the constrained optimum at any
    iterate. It is nondecreasing and concave by construction; both are
    validated at build time.
    """

    block_length: int
    max_cost: float
    points: tuple[TradeoffPoint, ...]
    gammas: np.ndarray
    envelope: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gammas", freeze(self.gammas))
        object.__setattr__(self, "envelope", freeze(self.envelope))
        lams = [p.lam for p in self.points]
        if lams != sorted(lams):
            raise ValueError("points must be sorted by lambda")
        env = self.envelope
        if env.size >= 2 and np.any(np.diff(env) < -ENVELOPE_SLACK):
            raise ValueError("envelope must be nondecreasing")
        if env.size >= 3:
            second = np.diff(env, 2)
            if np.any(second > ENVELOPE_SLACK):
                raise ValueError("envelope must be concave")

    def envelope_at(self, gamma: float) -> float:
        """Exact tangent-line envelope value at an arbitrary budget."""
        return float(_tangent_envelope(self.points, [gamma])[0])


def run_baa(space: TrajectorySpace, lam: float,
            eps: float = DEFAULT_EPSILON, max_iters: int = DEFAULT_MAX_ITERS,
            start: Optional[np.ndarray] = None) -> TradeoffPoint:
    """Iterate the two updates until the bound gap closes (or iterations run out).

    Starts from the iterate of the start policy (BaaState.initial), then
    repeats policy update, new iterate (update_q), upper iterate. Each
    policy update is over-relaxed (_over_relax) with step size relax; the
    candidate iterate is kept if its lower iterate is at least the current
    one, else it is dropped for the plain update's, which never lowers it.
    relax grows after an accepted candidate and is cut after a rejected one
    (RELAX_* constants). An iterate's q is its policy's posterior by
    construction, so I_L is that policy's exact Lagrangian, I_U bounds
    C_N(lambda) whatever the policy, and I_L is monotone: the bounds certify
    the point whatever the start. The space is shared, never modified.
    Nonconvergence within max_iters is reported on the point, not raised.
    The value C_N(lambda) is the final upper iterate; the measured cost is
    the per-step average action cost under the final policy. Raises
    ValueError with the first of sweep_violations.
    """
    raise_first(sweep_violations(eps, max_iters, [lam]))
    t0 = time.perf_counter()
    state = BaaState.initial(space, lam, start=start)
    converged = False
    iu = math.inf
    relax = RELAX_START
    rejected = iterations = 0
    for iterations in range(1, max_iters + 1):
        plain, flags = update_r(state)
        candidate = update_q(
            space, lam, _over_relax(state.rows, plain, relax, flags), flags)
        if candidate.i_lower >= state.i_lower:
            state = candidate
            relax = min(RELAX_GROW * relax, RELAX_MAX)
        else:
            rejected += 1
            relax = max(relax / RELAX_CUT, RELAX_START)
            del candidate  # release its arrays before the plain iterate's
            state = update_q(space, lam, plain, flags)
        iu = upper_bound(state)
        if iu - state.i_lower <= eps:
            converged = True
            break
    return TradeoffPoint(
        lam=lam,
        gamma=state.gamma,
        i_lower=state.i_lower,
        i_upper=iu,
        iterations=iterations,
        final_gap=iu - state.i_lower,
        converged=converged,
        rejected_steps=rejected,
        dead_slices=state.dead_slices,
        unreachable_outputs=state.unreachable_outputs,
        seconds=time.perf_counter() - t0,
        rows=state.rows,
    )


def _warm_start(rows: np.ndarray) -> np.ndarray:
    """Reachable policy rows mixed with uniform at weight WARM_START_MIX."""
    return read_only((1.0 - WARM_START_MIX) * rows
                     + WARM_START_MIX / rows.shape[1])


def sweep_lambda(space: TrajectorySpace,
                 lam_grid: Optional[Sequence[float]] = None,
                 eps: float = DEFAULT_EPSILON,
                 max_iters: int = DEFAULT_MAX_ITERS,
                 gamma_points: int = DEFAULT_GAMMA_POINTS) -> TradeoffCurve:
    """Run the optimizer across a lambda grid and rebuild the cost envelope.

    The points form one chain on the space, in ascending lambda: each point
    after the first starts from the previous point's final rows (see
    _warm_start). Neighbouring optima are close, and approaching each
    point from the side with more sampling avoids regrowing mass the
    multiplicative update has nearly emptied. The envelope is evaluated on
    a uniform budget grid [0, Lambda_max]. Nonconverged points propagate
    their flags. Raises ValueError with the first of sweep_violations.
    """
    raise_first(sweep_violations(eps, max_iters, lam_grid, gamma_points))
    if lam_grid is None:
        lam_grid = default_lambda_grid()
    lams = sorted(float(v) for v in lam_grid)
    points: list[TradeoffPoint] = []
    for lam in lams:
        start = _warm_start(points[-1].rows) if points else None
        points.append(run_baa(space, lam, eps=eps, max_iters=max_iters,
                              start=start))
    points = tuple(points)

    max_cost = space.sys.max_cost
    if max_cost > 0.0:
        gammas = np.linspace(0.0, max_cost, gamma_points)
    else:
        gammas = np.array([0.0])
    return TradeoffCurve(
        block_length=space.n,
        max_cost=max_cost,
        points=points,
        gammas=gammas,
        envelope=_tangent_envelope(points, gammas),
    )


def sandwich_bounds(curve: TradeoffCurve) -> np.ndarray:
    """The shifted side env(g - shift) of the sandwich on the curve's budgets g.

    The shift is Lambda_max/N (1/N on the unit-cost scale); the value is
    reported absent (NaN) for budgets below the shift. The other side is
    the curve's own envelope. The paper's upper and lower bounds coincide,
    and so give the capacity, when every initial state has positive
    probability. This reads the envelope, which lies above C_N, at
    g - shift, so it meets the paper's C_N(g - shift) only up to the
    envelope's distance from C_N.
    """
    shift = curve.max_cost / curve.block_length
    lower = np.full_like(curve.envelope, np.nan)
    above = curve.gammas >= shift - 1e-12
    lower[above] = _tangent_envelope(curve.points, curve.gammas[above] - shift)
    return lower
