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

from ._num import freeze, log2_guarded
from .actions import ActionSystem
from .fsc import FscKernel
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


@dataclass
class BaaState:
    """Mutable optimizer state: current policy r and reverse conditional q.

    q_unreachable flags output blocks with zero probability under (r, p);
    r_flagged marks policy slices that received no weight in the last policy
    update. The policy product of r is cached per policy object (see
    _policy_product), so assigning a new policy to r invalidates it.
    """

    lam: float
    r: CausalPolicy
    q: np.ndarray
    space: TrajectorySpace
    q_unreachable: np.ndarray = field(default=None)
    r_flagged: tuple = ()
    # (policy, log-product, (joint, den) or None)
    _product: Optional[tuple] = field(default=None, init=False, repr=False)

    @classmethod
    def initial(cls, kernel: FscKernel, sys: ActionSystem, n: int,
                lam: float, space: Optional[TrajectorySpace] = None,
                start: Optional[CausalPolicy] = None) -> "BaaState":
        """Start policy (uniform by default) with its Bayes posterior.

        A given space must be the block-length-n space of kernel and sys; it
        is shared, never modified.
        """
        if space is None:
            space = TrajectorySpace(kernel, sys, n)
        elif space.n != n:
            raise ValueError(f"space has block length {space.n}, expected {n}")
        r = start if start is not None else CausalPolicy.uniform(
            n, space.u_size, space.z_size)
        state = cls(lam=lam, r=r, q=None, space=space)
        state.q, state.q_unreachable = _posterior(state)
        return state


def _policy_product(state: BaaState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log_sum, joint, den) for the state's policy.

    log_sum is log2 r(u^N || z^{N-1}) per trajectory, joint = r p, and den
    is the output marginal sum_u r p. They are computed once per policy
    object (policy tables are frozen), starting from the log-product update_r
    left for the policy it returned, or from the tables for any other policy.
    """
    policy, log_sum, product = state._product or (None, None, None)
    if policy is not state.r:
        log_sum, product = state.space.policy_log2(state.r.tables), None
    if product is None:
        joint = np.exp2(log_sum)
        joint *= state.space.p_full
        product = (joint, joint.sum(axis=0))
        state._product = (state.r, log_sum, product)
    return (log_sum, *product)


def _posterior(state: BaaState):
    _, joint, den = _policy_product(state)
    unreachable = den <= 0.0
    q = np.full_like(joint, 1.0 / state.space.rows)
    np.divide(joint, den, out=q, where=~unreachable)
    return q, unreachable


def update_q(state: BaaState) -> np.ndarray:
    """Bayes posterior q(u^N | y^N) = r p / sum_u r p for the state's policy.

    Output blocks with zero marginal get a uniform slice and are flagged
    unreachable on the state.
    """
    q, state.q_unreachable = _posterior(state)
    return q


def update_r(state: BaaState, lam: Optional[float] = None) -> CausalPolicy:
    """Backward policy update (steps N down to 1) for fixed q.

    Step i uses the factors already updated at steps j > i. The new factor is
    the normalized weighted geometric mean

        log r'(u^i, z^{i-1}) = sum w * log[ q 2^(-lambda sum_j Lambda(a_j))
                                            / prod_{j>i} r_j ]

    with weights w = p(y^N || x^N) prod_{j>i} r_j divided by the
    feedback-compatible sum of past channel products; that sum is constant
    on a slot, so the slot sums are divided by it once. Zero-weight terms
    contribute exactly 0 even when the log argument vanishes. Slices that
    receive no weight at all become uniform and are flagged on the state.
    The log-product of the returned policy is left on the state for the
    posterior and the bounds.
    """
    if lam is None:
        lam = state.lam
    space = state.space
    n, u, y = space.n, space.u_size, space.y_size
    state._product = None  # release the old policy's arrays before the temporaries
    # log q - N lambda Lambda(a^N), the log argument before the later factors
    logq_pen = log2_guarded(state.q) - lam * space.cost_row[:, None]
    suffix_log = np.zeros((space.rows, space.cols))
    suffix_view = suffix_log.reshape(space.view)
    new_tables: list[np.ndarray] = [None] * n
    flagged: list[np.ndarray] = [None] * n
    # full-size buffers reused by every step: fresh temporaries of this size
    # cost page faults each iteration
    w = np.empty_like(suffix_log)
    contrib = np.empty_like(suffix_log)
    for i in range(n, 0, -1):
        np.exp2(suffix_log, out=w)
        w *= space.p_full
        with np.errstate(invalid="ignore"):
            np.subtract(logq_pen, suffix_log, out=contrib)
            contrib *= w
        contrib[w <= 0.0] = 0.0
        # sum out the axes the step-i slot does not depend on (einsum: numpy's
        # reduction is several times slower over the short last axis at i = N)
        fold = (u ** i, u ** (n - i), y ** (i - 1), y ** (n - i + 1))
        wsum = space.per_slot(np.einsum("ijkl->ik", w.reshape(fold)), i)
        logr = space.per_slot(np.einsum("ijkl->ik", contrib.reshape(fold)), i)
        denom = space.denom[i - 1][:, None]
        np.divide(logr, denom, out=logr, where=denom > 0.0)
        got_weight = wsum.sum(axis=1) > 0.0
        mx = logr.max(axis=1, keepdims=True)
        dead = ~(np.isfinite(mx.ravel()) & got_weight)
        with np.errstate(invalid="ignore"):
            table = np.exp2(logr - mx)
        table[dead] = 1.0
        table /= table.sum(axis=1, keepdims=True)
        table.setflags(write=False)  # fresh and read-only: the policy keeps it
        dead.setflags(write=False)
        new_tables[i - 1] = table
        flagged[i - 1] = dead
        suffix_view += space.spread(log2_guarded(table), i)
    policy = CausalPolicy(block_length=n, u_size=u, z_size=space.z_size,
                          tables=tuple(new_tables))
    state.r_flagged = tuple(freeze(f, dtype=bool) for f in flagged)
    state._product = (policy, suffix_log, None)
    return policy


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
    log_new -= log_new.max(axis=1, keepdims=True)
    table = np.exp2(log_new)
    table /= table.sum(axis=1, keepdims=True)
    dead = np.concatenate(flagged)
    if dead.any():
        table[dead] = new[dead]
    tables, start = [], 0
    for step in plain.tables:
        tables.append(table[start:start + step.shape[0]])
        start += step.shape[0]
    return CausalPolicy(block_length=plain.block_length, u_size=plain.u_size,
                        z_size=plain.z_size, tables=tuple(tables))


def lower_bound(state: BaaState) -> float:
    """Monotone Lagrangian lower iterate

    I_L = (1/N) sum r p log2(q / r) - lambda E[Lambda] under r p,

    with log2 r taken from the cached log-product.
    """
    space = state.space
    log_sum, joint, _ = _policy_product(state)
    live = joint > 0.0
    terms = joint[live] * (np.log2(state.q[live]) - log_sum[live])
    info = math.fsum(terms.tolist())
    return info / space.n - state.lam * space.expected_cost(joint)


def upper_bound(state: BaaState) -> float:
    """Anytime upper iterate: value of the best deterministic deviation policy

    I_U = (1/N) max over deterministic causal maps u_i = g(u^{i-1}, z^{i-1})
          of E_g[ log2( p(y^N || x^N) 2^(-lambda sum_j Lambda(a_j))
                        / sum_u r p ) ].

    Evaluated backward: expectation over y_i per step, with the max over u_i
    taken once per feedback history (u^{i-1}, z^{i-1}), its candidates scored
    by the past-law-weighted sum over the output prefixes the history cannot
    distinguish. Ties resolve to the lowest u index. The deviation policies
    are the extreme points of the causal-policy polytope, so at a maximizing
    policy the fold value meets the Lagrangian maximum and the bracket
    closes; letting the max adapt to y^{i-1} itself would over-inform the
    deviator and leave a permanent gap wherever sampling is priced out.
    """
    space = state.space
    n, u_size, y_size = space.n, space.u_size, space.y_size
    _, _, d = _policy_product(state)
    leaf = space.log2_p_full - state.lam * space.cost_row[:, None]
    leaf -= log2_guarded(d)[None, :]
    v = leaf.reshape(space.view)
    for i in range(n, 0, -1):
        c = space.cond[i - 1]
        with np.errstate(invalid="ignore"):
            v = c * v
        v[c <= 0.0] = 0.0
        v = v.sum(axis=-1)
        # axes [U]*i + [Y]*(i-1): value-to-go given (u^i, y^{i-1});
        # pick u_i once per history class, weighted by the past law
        v = v.reshape(u_size ** (i - 1), u_size, y_size ** (i - 1))
        w = space.measure[i - 1][:, None, :]
        with np.errstate(invalid="ignore"):
            scored = np.where(w > 0.0, w * v, 0.0)
        best = space.per_slot(scored, i).argmax(axis=1)
        v = np.take_along_axis(v, best[space.hist[i - 1]][:, None, :], axis=1)
        v = v.reshape([u_size] * (i - 1) + [y_size] * (i - 1))
    return float(v) / n


@dataclass(frozen=True)
class TradeoffPoint:
    """One Lagrangian sweep point: penalty, measured cost, value, convergence.

    rejected_steps counts the over-relaxed candidates that failed the guard
    (see run_baa) and seconds the wall time of the solve. policy is the
    final policy, the warm start of the next sweep point.
    """

    lam: float
    gamma: float
    i_lower: float
    i_upper: float
    iterations: int
    final_gap: float
    converged: bool
    rejected_steps: int = 0
    seconds: float = field(default=0.0, compare=False)
    history: Optional[tuple[tuple[float, float], ...]] = None
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
    support_lambda: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gammas", freeze(self.gammas))
        object.__setattr__(self, "envelope", freeze(self.envelope))
        object.__setattr__(self, "support_lambda", freeze(self.support_lambda))
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


@dataclass(frozen=True)
class SandwichBounds:
    """Computable capacity brackets on a budget grid.

    lower_shifted[g] = envelope(g - Lambda_max/N), NaN (absent) below the
    shift; upper[g] = envelope(g).
    """

    block_length: int
    gammas: np.ndarray
    upper: np.ndarray
    lower_shifted: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gammas", freeze(self.gammas))
        object.__setattr__(self, "upper", freeze(self.upper))
        object.__setattr__(self, "lower_shifted", freeze(self.lower_shifted))


def run_baa(kernel: FscKernel, sys: ActionSystem, n: int, lam: float,
            eps: float = DEFAULT_EPSILON, max_iters: int = DEFAULT_MAX_ITERS,
            record_history: bool = False,
            space: Optional[TrajectorySpace] = None,
            start: Optional[CausalPolicy] = None) -> TradeoffPoint:
    """Iterate the two updates until the bound gap closes (or iterations run out).

    Starts from the start policy (uniform by default) with its Bayes
    posterior, then repeats policy update, posterior update, bound
    evaluation. Each policy update is over-relaxed (_over_relax) with step
    size relax; the candidate is kept if its lower iterate is at least the
    previous one, else the iteration falls back to the plain update, which
    never lowers it. relax grows after an accepted candidate and is cut
    after a rejected one (RELAX_* constants). q is always the posterior of
    the current policy, so I_L is that policy's exact Lagrangian, I_U bounds
    C_N(lambda) whatever the policy, and I_L is monotone: the bounds certify
    the point whatever the start. A shared space saves its rebuild.
    Nonconvergence within max_iters is reported on the point, not raised.
    The value C_N(lambda) is the final upper iterate; the measured cost is
    the per-step average action cost under the final policy.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if sys.decoder_actions.size != 1:
        raise ValueError(
            "the optimizer handles encoder-side actions only; represent "
            "the decoder side with a singleton alphabet"
        )
    t0 = time.perf_counter()
    state = BaaState.initial(kernel, sys, n, lam, space=space, start=start)
    history: list[tuple[float, float]] = []
    converged = False
    il = lower_bound(state)
    iu = math.inf
    relax = RELAX_START
    rejected = iterations = 0
    for iterations in range(1, max_iters + 1):
        previous = state.r
        plain = update_r(state)
        plain_product = state._product
        state.r = _over_relax(previous, plain, relax, state.r_flagged)
        state.q = update_q(state)
        candidate_il = lower_bound(state)
        if candidate_il >= il:
            il = candidate_il
            relax = min(RELAX_GROW * relax, RELAX_MAX)
        else:
            rejected += 1
            relax = max(relax / RELAX_CUT, RELAX_START)
            # the log-product update_r left for the plain policy is still valid
            state.r, state._product = plain, plain_product
            state.q = update_q(state)
            il = lower_bound(state)
        iu = upper_bound(state)
        if record_history:
            history.append((il, iu))
        if iu - il <= eps:
            converged = True
            break
    _, joint, _ = _policy_product(state)
    gamma = state.space.expected_cost(joint)
    return TradeoffPoint(
        lam=lam,
        gamma=gamma,
        i_lower=il,
        i_upper=iu,
        iterations=iterations,
        final_gap=iu - il,
        converged=converged,
        rejected_steps=rejected,
        seconds=time.perf_counter() - t0,
        history=tuple(history) if record_history else None,
        policy=state.r,
    )


def _warm_start(policy: CausalPolicy) -> CausalPolicy:
    """A policy mixed with uniform at weight WARM_START_MIX."""
    keep = 1.0 - WARM_START_MIX
    tables = tuple(keep * t + WARM_START_MIX / policy.u_size
                   for t in policy.tables)
    return CausalPolicy(block_length=policy.block_length, u_size=policy.u_size,
                        z_size=policy.z_size, tables=tables)


def sweep_lambda(kernel: FscKernel, sys: ActionSystem, n: int,
                 lam_grid: Optional[Sequence[float]] = None,
                 eps: float = DEFAULT_EPSILON,
                 max_iters: int = DEFAULT_MAX_ITERS,
                 gamma_points: int = 101,
                 record_history: bool = False) -> TradeoffCurve:
    """Run the optimizer across a lambda grid and rebuild the cost envelope.

    The points form one chain on one trajectory space, in ascending lambda:
    each point after the first starts from the previous point's final policy
    (see _warm_start). Neighbouring optima are close, and approaching each
    point from the side with more sampling avoids regrowing mass the
    multiplicative update has nearly emptied. The envelope is evaluated on
    a uniform budget grid [0, Lambda_max]; each budget records its
    supporting lambda (lowest lambda wins ties). Nonconverged points
    propagate their flags.
    """
    if lam_grid is None:
        lam_grid = default_lambda_grid()
    lams = sorted(float(v) for v in lam_grid)
    if not lams or lams[0] < 0.0:
        raise ValueError("lambda grid must be nonempty and nonnegative")
    space = TrajectorySpace(kernel, sys, n)
    points: list[TradeoffPoint] = []
    for lam in lams:
        start = _warm_start(points[-1].policy) if points else None
        points.append(run_baa(kernel, sys, n, lam, eps=eps,
                              max_iters=max_iters,
                              record_history=record_history,
                              space=space, start=start))
    points = tuple(points)

    max_cost = sys.max_cost
    if max_cost > 0.0:
        gammas = np.linspace(0.0, max_cost, gamma_points)
    else:
        gammas = np.array([0.0])
    envelope, best = _tangent_envelope(points, gammas)
    support = np.array([points[k].lam for k in best])
    return TradeoffCurve(
        block_length=n,
        max_cost=max_cost,
        points=points,
        gammas=gammas,
        envelope=envelope,
        support_lambda=support,
    )


def sandwich_bounds(curve: TradeoffCurve, n: Optional[int] = None) -> SandwichBounds:
    """Paired computable bounds from one curve: upper env(g), lower env(g - shift).

    The shift is Lambda_max/N (1/N on the unit-cost scale); the lower bound
    is reported absent (NaN) for budgets below the shift.
    """
    if n is None:
        n = curve.block_length
    shift = curve.max_cost / n
    lower = np.full_like(curve.envelope, np.nan)
    above = curve.gammas >= shift - 1e-12
    lower[above] = _tangent_envelope(curve.points, curve.gammas[above] - shift)[0]
    return SandwichBounds(block_length=n, gammas=curve.gammas,
                          upper=curve.envelope, lower_shifted=lower)


def bisect_lambda_for_cost(kernel: FscKernel, sys: ActionSystem, n: int,
                           gamma_target: float,
                           lam_lo: float = 0.0, lam_hi: float = 10.0,
                           cost_tol: float = 1e-3,
                           eps: float = DEFAULT_EPSILON,
                           max_iters: int = DEFAULT_MAX_ITERS,
                           max_steps: int = 60) -> TradeoffPoint:
    """Bisect on lambda until the measured cost hits a target within cost_tol.

    Uses the monotone nonincreasing dependence of the measured cost on
    lambda. Every probe runs on one shared trajectory space. Only converged
    probes are trusted: the first probe that stops at max_iters ends the
    search, and the closest converged probe is returned (the failed probe
    itself if it is the first). Returns the closest converged point found if
    the bracket cannot reach the target.
    """
    space = TrajectorySpace(kernel, sys, n)
    best: Optional[TradeoffPoint] = None

    def probe(lam: float) -> TradeoffPoint:
        nonlocal best
        point = run_baa(kernel, sys, n, lam, eps=eps, max_iters=max_iters,
                        space=space)
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
