"""Alternating maximization of directed information under Lagrangian action costs.

For a block length N, a channel law p(y^N || x^N), a deterministic feedback
sampler and per-action costs, the algorithm alternates between

  - the reverse conditional q(x^N, a^N | y^N), whose optimum for fixed r is
    the Bayes posterior r * p / sum r * p, and
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
sweep's tangent lines bounds the constrained curve from above, and shifting
it by Lambda_max/N gives the computable lower bound of the sandwich

    C_N(Gamma - Lambda_max/N) <= C(Gamma) <= C_N(Gamma).

All quantities are in bits; cost is the per-step average (1/N) sum Lambda.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._num import freeze, fsum_array, log2_guarded
from .policy import CausalPolicy
from .trajectory import TrajectorySpace

DEFAULT_EPSILON = 1e-6
DEFAULT_MAX_ITERS = 10_000
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


@dataclass(frozen=True, eq=False)
class BaaState:
    """One iterate of the alternating map: a policy r and what it determines.

    update_q builds every iterate (initial goes through it), so q is always
    r's Bayes posterior r p / d, with d the output marginal sum_u r p, and
    i_lower and gamma are r's Lagrangian lower iterate and per-step expected
    action cost. q_live holds q on the space's live entries. r_flagged marks
    the policy slices that received no weight in the update that produced r
    (none for a start policy).
    """

    space: TrajectorySpace
    lam: float
    r: CausalPolicy
    q_live: np.ndarray
    d: np.ndarray
    i_lower: float
    gamma: float
    r_flagged: tuple

    @classmethod
    def initial(cls, space: TrajectorySpace, lam: float,
                start: Optional[CausalPolicy] = None) -> "BaaState":
        """The iterate of the start policy (uniform by default) on a space,
        which is shared, never modified."""
        if start is None:
            start = CausalPolicy.uniform(space.n, space.u_size, space.z_size)
        else:
            space.check_fits(start)
        return update_q(space, lam, start)

    @property
    def dead_slices(self) -> int:
        return sum(int(f.sum()) for f in self.r_flagged)

    @property
    def unreachable_outputs(self) -> int:
        """Output blocks of zero marginal, where q is a uniform slice."""
        return int((self.d <= 0.0).sum())

    @property
    def q(self) -> np.ndarray:
        """q as a read-only [rows, cols] array, built anew on each access: 0
        on the entries of zero channel law, a uniform slice on unreachable
        output blocks. The optimizer reads q_live and never builds it."""
        q = self.space.to_dense(self.q_live)
        q[:, self.d <= 0.0] = 1.0 / self.space.rows
        q.setflags(write=False)
        return q


def update_q(space: TrajectorySpace, lam: float, r: CausalPolicy,
             flagged: tuple = ()) -> BaaState:
    """The iterate of policy r, flagged being the dead slices of its update.

    Forms the policy product on the parent grid and the joint r p on the
    live entries, takes its output marginal d, prices the expected cost and
    I_L (lower_bound) against the per-parent sums of p, then turns the joint
    in place into the Bayes posterior q(u^N | y^N) = r p / d. Output blocks
    with zero marginal get a uniform slice.
    """
    prod = space.policy_product(r.tables)
    joint = np.take(prod, space.parent)
    joint *= space.p_live
    d = np.bincount(space.col, weights=joint, minlength=space.cols)
    gamma = space.expected_cost(space.per_row(prod, space.past_law))
    i_lower = lower_bound(space, lam, prod, d, gamma)
    reachable = d > 0.0
    if reachable.all():
        joint /= np.take(d, space.col)
    else:
        live = reachable[space.col]
        np.divide(joint, np.take(d, space.col), out=joint, where=live)
        joint[~live] = 1.0 / space.rows
    joint.setflags(write=False)
    d.setflags(write=False)
    return BaaState(space=space, lam=lam, r=r, q_live=joint, d=d,
                    i_lower=i_lower, gamma=gamma, r_flagged=flagged)


def _fold(space: TrajectorySpace, leaf: np.ndarray, pick):
    """Backward fold of leaf (live entries, overwritten); (F_0, tables, flags).

    From F_N = leaf, step i = N..1 forms G_i = sum_{y_i} cond_i F_i, lets
    pick(per_slot(measure_i G_i), i) return the step table r_i and its dead
    flags, and sets F_{i-1} = sum_{u_i} r_i (G_i - log2 r_i); terms with zero
    cond or r_i count as 0. The weights p prod_{j>i} r_j factor into step
    conditionals that each sum to 1, so the slot scores are the slot sums of
    p prod_{j>i} r_j (leaf - sum_{j>i} log2 r_j). Step N sums the live
    entries into their parents; the steps below run on dense grids at most
    1/|Y| of the full one.
    """
    n, u, y = space.n, space.u_size, space.y_size
    tables, flags = [None] * n, [None] * n
    with np.errstate(divide="ignore", invalid="ignore"):  # covers pick too
        leaf *= space.cond_live
        g = np.bincount(space.parent, weights=leaf, minlength=space.parents)
        for i in range(n, 0, -1):
            if i < n:
                c = space.cond[i - 1]
                f = f.reshape(c.shape)
                f *= c
                f[c <= 0.0] = 0.0
                g = _reduce_last(np.add, f)
            # axes (u^{i-1}, u_i, y^{i-1}); g is 0 wherever the past law is,
            # because cond vanishes on dead prefixes
            g = g.reshape(u ** (i - 1), u, y ** (i - 1))
            table, flags[i - 1] = pick(
                space.per_slot(space.measure[i - 1][:, None, :] * g, i), i)
            r = space.spread(table, i).reshape(g.shape)
            g -= space.spread(np.log2(table), i).reshape(g.shape)
            g *= r
            g[r <= 0.0] = 0.0
            f = g.sum(axis=1)
            tables[i - 1] = table
    return f.item(), tables, flags


def _reduce_last(op, a: np.ndarray) -> np.ndarray:
    """op folded over the last axis of a, column by column: numpy's reduction
    is several times slower over a short one and, below 8 entries, adds in
    the same order."""
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        op(out, a[..., j], out=out)
    return out


def update_r(state: BaaState) -> tuple[CausalPolicy, tuple]:
    """Backward policy update (steps N down to 1) for the iterate's q.

    Step i uses the factors already updated at steps j > i. The new factor is
    the normalized weighted geometric mean

        log r'(u^i, z^{i-1}) = sum w * log[ q 2^(-lambda sum_j Lambda(a_j))
                                            / prod_{j>i} r_j ]

    with weights w = p(y^N || x^N) prod_{j>i} r_j divided by the
    feedback-compatible sum of past channel products; that sum is constant
    on a slot, so the slot sums (_fold's scores) are divided by it once.
    Zero-weight terms contribute exactly 0 even when the log argument
    vanishes. Slices that receive no weight at all become uniform; returns
    the new policy and, per step, the flags of those slices.
    """
    space = state.space
    with np.errstate(divide="ignore"):  # q vanishes where r does: log -inf
        leaf = np.log2(state.q_live)
    leaf -= space.live_from_rows(state.lam * space.cost_row)

    def geometric_mean(scores, i):
        # a history without past law has denom 0 and scores 0: it turns NaN
        # here and is flagged dead with the slices whose scores are all -inf
        scores /= space.denom[i - 1][:, None]
        mx = _reduce_last(np.maximum, scores)[:, None]
        dead = ~np.isfinite(mx[:, 0])
        table = np.exp2(scores - mx)
        table[dead] = 1.0
        table /= _reduce_last(np.add, table)[:, None]
        table.setflags(write=False)  # fresh and read-only: the policy keeps it
        dead.setflags(write=False)
        return table, dead

    _, tables, flags = _fold(space, leaf, geometric_mean)
    return CausalPolicy(block_length=space.n, u_size=space.u_size,
                        z_size=space.z_size, tables=tuple(tables)), tuple(flags)


def _over_relax(previous: CausalPolicy, plain: CausalPolicy, relax: float,
                flagged: tuple) -> CausalPolicy:
    """Over-relaxed policy step from previous through its plain update.

    Per slice, log r~ = log T + (relax - 1)(log T - log r), normalized, with
    T the plain update of r. Entries where T is 0 stay 0; where r is 0 the
    entry takes T's log. Slices the plain update flagged dead keep its
    uniform slice. Every step's table has u_size columns, so all steps are
    handled as one stacked array.
    """
    new = np.concatenate(plain.tables)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_new = np.log2(new)
        move = log_new - np.log2(np.concatenate(previous.tables))
    move[~np.isfinite(move)] = 0.0
    log_new += (relax - 1.0) * move
    log_new -= _reduce_last(np.maximum, log_new)[:, None]
    table = np.exp2(log_new)
    table /= _reduce_last(np.add, table)[:, None]
    dead = np.concatenate(flagged)
    if dead.any():
        table[dead] = new[dead]
    tables, start = [], 0
    for step in plain.tables:
        tables.append(table[start:start + step.shape[0]])
        start += step.shape[0]
    return CausalPolicy(block_length=plain.block_length, u_size=plain.u_size,
                        z_size=plain.z_size, tables=tuple(tables))


def lower_bound(space: TrajectorySpace, lam: float, prod: np.ndarray,
                d: np.ndarray, gamma: float) -> float:
    """Monotone Lagrangian lower iterate of a policy r, given its product
    prod on the parent grid (policy_product), its output marginal d and its
    expected cost gamma

    I_L = (1/N) sum r p log2(q / r) - lambda gamma.

    q is the posterior r p / d, so q / r = p / d wherever r p > 0 and I_L is
    (1/N) [sum r p log2 p - sum_{d > 0} d log2 d] - lambda gamma, DI/N less
    the priced cost. r is constant over y_N, so sum r p log2 p is prod
    against the per-parent sums of p log2 p, summed per row.
    """
    d = d[d > 0.0]
    info = (fsum_array(space.per_row(prod, space.plogp_sum))
            - fsum_array(d * np.log2(d)))
    return info / space.n - lam * gamma


def upper_bound(state: BaaState) -> float:
    """Anytime upper iterate: value of the best deterministic deviation policy

    I_U = (1/N) max over deterministic causal maps u_i = g(u^{i-1}, z^{i-1})
          of E_g[ log2( p(y^N || x^N) 2^(-lambda sum_j Lambda(a_j))
                        / sum_u r p ) ].

    Evaluated by _fold: expectation over y_i per step, with the max over u_i
    taken once per feedback history (u^{i-1}, z^{i-1}), its candidates scored
    by the past-law-weighted sum over the output prefixes the history cannot
    distinguish. Ties resolve to the lowest u index. The deviation policies
    are the extreme points of the causal-policy polytope, so at a maximizing
    policy the fold value meets the Lagrangian maximum and the bracket
    closes; letting the max adapt to y^{i-1} itself would over-inform the
    deviator and leave a permanent gap wherever sampling is priced out.
    I_U is +inf if the best map reaches an output with p > 0 = sum_u r p.
    """
    space = state.space
    leaf = space.log2_p_live - space.live_from_rows(state.lam * space.cost_row)
    leaf -= np.take(log2_guarded(state.d), space.col)

    def argmax(scores, i):
        return np.eye(space.u_size)[scores.argmax(axis=1)], None

    return _fold(space, leaf, argmax)[0] / space.n


@dataclass(frozen=True)
class TradeoffPoint:
    """One Lagrangian sweep point: penalty, measured cost, value, convergence.

    rejected_steps counts the over-relaxed candidates that failed the guard
    (see run_baa); seconds is the wall time of the solve. dead_slices counts
    the slices the last update gave no weight, unreachable_outputs the output
    blocks of zero marginal under policy, the final policy (the next point's
    warm start)."""

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
    policy: Optional[CausalPolicy] = field(default=None, repr=False,
                                           compare=False)


def _tangent_envelope(points: Sequence[TradeoffPoint],
                      gammas) -> tuple[np.ndarray, np.ndarray]:
    """Least tangent line min_k (i_upper_k + lam_k * g) at each budget g.

    Returns the minima and the index of the minimizing point per budget;
    ties go to the first point, the lowest lambda on a sorted sweep.
    """
    i_upper = np.array([p.i_upper for p in points])
    lam = np.array([p.lam for p in points])
    lines = i_upper[:, None] + lam[:, None] * np.asarray(gammas, dtype=float)
    return lines.min(axis=0), lines.argmin(axis=0)


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
        return float(_tangent_envelope(self.points, [gamma])[0][0])


def run_baa(space: TrajectorySpace, lam: float,
            eps: float = DEFAULT_EPSILON, max_iters: int = DEFAULT_MAX_ITERS,
            start: Optional[CausalPolicy] = None) -> TradeoffPoint:
    """Iterate the two updates until the bound gap closes (or iterations run out).

    Starts from the iterate of the start policy (uniform by default), then
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
    the per-step average action cost under the final policy.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    t0 = time.perf_counter()
    state = BaaState.initial(space, lam, start=start)
    converged = False
    iu = math.inf
    relax = RELAX_START
    rejected = iterations = 0
    for iterations in range(1, max_iters + 1):
        plain, flags = update_r(state)
        candidate = update_q(space, lam,
                             _over_relax(state.r, plain, relax, flags), flags)
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
        policy=state.r,
    )


def _warm_start(policy: CausalPolicy) -> CausalPolicy:
    """A policy mixed with uniform at weight WARM_START_MIX."""
    keep = 1.0 - WARM_START_MIX
    tables = tuple(keep * t + WARM_START_MIX / policy.u_size
                   for t in policy.tables)
    return CausalPolicy(block_length=policy.block_length, u_size=policy.u_size,
                        z_size=policy.z_size, tables=tables)


def sweep_lambda(space: TrajectorySpace,
                 lam_grid: Optional[Sequence[float]] = None,
                 eps: float = DEFAULT_EPSILON,
                 max_iters: int = DEFAULT_MAX_ITERS,
                 gamma_points: int = 101) -> TradeoffCurve:
    """Run the optimizer across a lambda grid and rebuild the cost envelope.

    The points form one chain on the space, in ascending lambda: each point
    after the first starts from the previous point's final policy (see
    _warm_start). Neighbouring optima are close, and approaching each
    point from the side with more sampling avoids regrowing mass the
    multiplicative update has nearly emptied. The envelope is evaluated on
    a uniform budget grid [0, Lambda_max]. Nonconverged points propagate
    their flags.
    """
    if lam_grid is None:
        lam_grid = default_lambda_grid()
    lams = sorted(float(v) for v in lam_grid)
    if not lams or lams[0] < 0.0:
        raise ValueError("lambda grid must be nonempty and nonnegative")
    points: list[TradeoffPoint] = []
    for lam in lams:
        start = _warm_start(points[-1].policy) if points else None
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
        envelope=_tangent_envelope(points, gammas)[0],
    )


def sandwich_bounds(curve: TradeoffCurve) -> np.ndarray:
    """The computable lower bound env(g - shift) on the curve's budgets g.

    The shift is Lambda_max/N (1/N on the unit-cost scale); the bound is
    reported absent (NaN) for budgets below the shift. The matching upper
    bound is the curve's own envelope.
    """
    shift = curve.max_cost / curve.block_length
    lower = np.full_like(curve.envelope, np.nan)
    above = curve.gammas >= shift - 1e-12
    lower[above] = _tangent_envelope(curve.points, curve.gammas[above] - shift)[0]
    return lower


def bisect_lambda_for_cost(space: TrajectorySpace, gamma_target: float,
                           lam_lo: float = 0.0, lam_hi: float = 10.0,
                           cost_tol: float = 1e-3,
                           eps: float = DEFAULT_EPSILON,
                           max_iters: int = DEFAULT_MAX_ITERS,
                           max_steps: int = 60) -> TradeoffPoint:
    """Bisect on lambda until the measured cost hits a target within cost_tol.

    Uses the monotone nonincreasing dependence of the measured cost on
    lambda. Every probe runs on the given space. Only converged probes are
    trusted: the first probe that stops at max_iters ends the search, and
    the closest converged probe is returned (the failed probe itself if it
    is the first). Returns the closest converged point found if
    the bracket cannot reach the target.
    """
    best: Optional[TradeoffPoint] = None

    def probe(lam: float) -> TradeoffPoint:
        nonlocal best
        point = run_baa(space, lam, eps=eps, max_iters=max_iters)
        if point.converged and (best is None or abs(point.gamma - gamma_target)
                                < abs(best.gamma - gamma_target)):
            best = point
        return point

    lo_point = probe(lam_lo)
    if not lo_point.converged or lo_point.gamma <= gamma_target + cost_tol:
        return lo_point
    hi_point = probe(lam_hi)
    if not hi_point.converged:
        return best
    if hi_point.gamma >= gamma_target - cost_tol:
        return hi_point  # on target, or even the strongest penalty spends above it
    for _ in range(max_steps):
        mid = 0.5 * (lam_lo + lam_hi)
        point = probe(mid)
        if not point.converged:
            return best
        if abs(point.gamma - gamma_target) <= cost_tol:
            return point
        if point.gamma > gamma_target:
            lam_lo = mid
        else:
            lam_hi = mid
    return best
