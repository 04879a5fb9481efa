"""Single-letter capacity bounds and the block error-exponent functional.

The single-letter problems live on a stationary state distribution pi and a
per-state channel P(y|x,s). An action a samples the state through z = f(a, s)
at cost Lambda(a) within budget Gamma, and the objective is I(X;Y|S) under
one of three couplings:

  encoder       pi(s) P_A(a) 1{z=f(a,s)} P(x|z,a) P(y|x,s)
  decoder       pi(s) P_{A|S}(a|s) 1{z=f(a,s)} P(x|z,a) P(y|x,s)
  backward_link pi(s) P_{A|S}(a|s) P(x|a) P(y|x,s)

The action distribution is searched on an exhaustive simplex grid; for a
fixed action distribution the objective is concave in the family of input
conditionals, which is maximized by one projected-gradient ascent from the
uniform start. Zero-cost and unit-cost capacities use the same inner optimizer
with the common-input and per-state-input couplings, and the time-sharing
line between them is the baseline the sampled-feedback bounds beat.

The exponent functional evaluates, for a fixed causal policy and start state,

    E_N(rho) = -(1/N) log2 sum_{y^N} [ sum_{x^N,a^N} Q(x^N,a^N || z^{N-1})
                                       P(y^N || x^N, s0)^{1/(1+rho)} ]^{1+rho},

identically zero at rho = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from ._num import (freeze, is_integer, is_number, non_finite,
                   project_to_simplex, raise_first)
from .trajectory import TrajectorySpace

DIST_TOL = 1e-12
ASCENT_TOL = 1e-12
ASCENT_MAX_ITER = 50_000
ASCENT_CHUNK = 2_048  # instances per ascent batch
DEFAULT_RESOLUTION = 101
MIN_RESOLUTION = 10
MAX_DEFAULT_FREE_DIMS = 3
FEAS_SLACK = 1e-12
MODES = ("encoder", "decoder", "backward_link")


@dataclass(frozen=True)
class SingleLetterProblem:
    """Stationary single-letter setting: pi, per-state channel, sampling, cost.

    per_state_channel is indexed [s][x][y]; sampling [a][s] -> z; cost [a].
    The coupling is chosen per call, as one of MODES: 'encoder'
    (state-independent P_A), 'decoder' (P_{A|S}), or 'backward_link'
    (P_{A|S} with the action itself fed back, f(a, s) = a).
    """

    stationary_dist: np.ndarray
    per_state_channel: np.ndarray
    sampling: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "stationary_dist", freeze(self.stationary_dist))
        object.__setattr__(self, "per_state_channel", freeze(self.per_state_channel))
        object.__setattr__(self, "sampling", freeze(self.sampling, dtype=int))
        object.__setattr__(self, "cost", freeze(self.cost))
        raise_first(self.violations(self.stationary_dist,
                                    self.per_state_channel, self.sampling,
                                    self.cost))

    @staticmethod
    def violations(pi: Optional[np.ndarray], chan: Optional[np.ndarray],
                   samp: Optional[np.ndarray],
                   cost: Optional[np.ndarray]) -> list[str]:
        """Every rule the four arrays break; empty means valid.

        The arrays are stationary_dist, per_state_channel, sampling and
        cost. Each message starts with the JSON pointer of its field
        relative to the single_letter section. An array given as None was
        rejected by the caller. Non-finite entries are reported first and
        alone, since no sum over them means anything, and the other rules
        are checked only when no array is None.
        """
        found = non_finite(stationary_dist=pi, per_state_channel=chan,
                           cost=cost)
        if found or any(a is None for a in (pi, chan, samp, cost)):
            return found
        if pi.ndim != 1 or abs(pi.sum() - 1.0) > DIST_TOL or np.any(pi < 0.0):
            found.append("stationary_dist: must be a probability vector")
        if chan.ndim != 3 or (pi.ndim == 1 and chan.shape[0] != pi.shape[0]):
            found.append("per_state_channel: must be indexed [s][x][y] with one "
                         "slice per state")
        else:
            sums = chan.sum(axis=2)
            for s, x in zip(*np.nonzero(np.abs(sums - 1.0) > DIST_TOL)):
                found.append(f"per_state_channel/{s}/{x}: row sums to "
                             f"{float(sums[s, x])!r}, expected 1")
            if np.any(chan < 0.0):
                found.append("per_state_channel: negative entries")
        if samp.ndim != 2 or cost.ndim != 1 or samp.shape[0] != cost.shape[0]:
            found.append("sampling: must be indexed [a][s] with one cost per "
                         "action")
        elif pi.ndim == 1 and samp.shape[1] != pi.shape[0]:
            found.append("sampling: state axis does not match")
        if np.any(samp < 0):
            found.append("sampling: entries must be nonnegative")
        if np.any(cost < 0.0):
            found.append("cost: costs must be nonnegative")
        return found

    @property
    def state_size(self) -> int:
        return int(self.stationary_dist.shape[0])

    @property
    def input_size(self) -> int:
        return int(self.per_state_channel.shape[1])

    @property
    def action_size(self) -> int:
        return int(self.cost.shape[0])

    @property
    def feedback_size(self) -> int:
        return int(self.sampling.max()) + 1


def _channel_negentropy(w: np.ndarray) -> np.ndarray:
    """negh[s, x] = sum_y W(y|x,s) log2 W(y|x,s) of the fixed channel, 0 log 0 = 0."""
    logw = np.log2(w, out=np.zeros(w.shape), where=w > 0.0)
    return (w * logw).sum(axis=2)


def _objective_and_grad(pi: np.ndarray, w: np.ndarray, negh: np.ndarray,
                        mix: np.ndarray,
                        q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched I(X;Y|S) and its gradient in the input slices.

    mix[b, s, k] weights slice k in state s; q[b, k, x] are the slices;
    negh is `_channel_negentropy(w)`. Every product is a separate small
    matmul per row (value too: one matrix-vector product over the batch
    rounds differently with the batch size), so a row's result does not
    depend on the rows that share its batch, nor on zero-weight slices
    appended to it. Returns (value[b], grad[b, k, x]).
    """
    p_xs = mix @ q
    py = (p_xs[:, :, None, :] @ w)[:, :, 0, :]
    logpy = np.log2(np.maximum(py, 1e-300))
    # d[b, s, x] = sum_y W(y|x,s) log2(W / PY); the per-input information density
    d = negh - (logpy[:, :, None, :] @ w.transpose(0, 2, 1))[:, :, 0, :]
    value = ((p_xs * d).sum(axis=2)[:, None, :] @ pi)[:, 0]
    grad = (pi[:, None] * mix).transpose(0, 2, 1) @ d
    return value, grad


class AscentCapWarning(UserWarning):
    """Rows of an input-slice ascent stopped at the iteration cap.

    Those rows met neither the tol rule nor the step floor, so their values
    may lie below the maximum; `rows` is how many.
    """

    def __init__(self, rows: int, max_iter: int):
        super().__init__(f"{rows} ascent rows stopped at the iteration cap "
                         f"of {max_iter}")
        self.rows = rows


def _ascend_inputs(pi: np.ndarray, w: np.ndarray, mix: np.ndarray,
                   starts: np.ndarray, tol: float = ASCENT_TOL,
                   max_iter: int = ASCENT_MAX_ITER) -> tuple[np.ndarray, np.ndarray]:
    """Projected-gradient ascent on the concave input-slice objective.

    Batched over instances; per-instance adaptive step with accept/shrink.
    Slice k steps along its gradient divided by its weight
    w_k = sum_s pi(s) mix[s, k], the information density averaged over
    P(s | k), which the Blahut-Arimoto update exponentiates: the gradient
    is proportional to w_k, so one step size then fits light and heavy
    slices alike. A zero-weight slice has a zero gradient and stays put.
    Each iteration prices one candidate per instance, and the gradient that
    comes with its value is kept for the next step when the candidate is
    accepted. Every operation is row-independent, so converged instances
    leave the working arrays (on the iterations where some instance
    converges) without changing any other row's trajectory. Rows still
    running after `max_iter` iterations are reported by an
    `AscentCapWarning`.
    Returns (value[b], slices[b, k, x]).
    """
    negh = _channel_negentropy(w)
    weight = (pi[:, None] * mix).sum(axis=1)[:, :, None]
    weight[weight == 0.0] = 1.0
    rows = np.arange(starts.shape[0])
    q = starts.copy()
    value, grad = _objective_and_grad(pi, w, negh, mix, q)
    final_value, final_q = np.empty_like(value), np.empty_like(q)
    step = np.full(rows.size, 0.5)
    for _ in range(max_iter):
        cand = project_to_simplex(q + step[:, None, None] * (grad / weight))
        cand_value, cand_grad = _objective_and_grad(pi, w, negh, mix, cand)
        accept = cand_value >= value
        done = accept & (cand_value - value <= tol)
        step = step * np.where(accept, 1.2, 0.5)
        done |= step < 1e-13
        np.copyto(value, cand_value, where=accept)
        np.copyto(q, cand, where=accept[:, None, None])
        np.copyto(grad, cand_grad, where=accept[:, None, None])
        if done.any():
            final_value[rows[done]] = value[done]
            final_q[rows[done]] = q[done]
            keep = ~done
            rows, mix, weight, q, value, grad, step = (
                rows[keep], mix[keep], weight[keep], q[keep], value[keep],
                grad[keep], step[keep]
            )
            if rows.size == 0:
                break
    if rows.size:
        warnings.warn(AscentCapWarning(int(rows.size), max_iter), stacklevel=2)
    final_value[rows] = value
    final_q[rows] = q
    return final_value, final_q


def _action_mixture(prob: SingleLetterProblem, mode: str,
                    action_dists: np.ndarray) -> np.ndarray:
    """Slice mixture weights mix[b, s, k] for a batch of action distributions.

    Encoder/decoder modes use slices k = (z, a) with weight P(a|.) when
    z = f(a, s); backward_link uses slices k = a directly.
    """
    s_size = prob.state_size
    a_size = prob.action_size
    b = action_dists.shape[0]
    if mode == "backward_link":
        # action_dists[b, s, a]
        return action_dists.copy()
    z_size = prob.feedback_size
    mix = np.zeros((b, s_size, z_size * a_size))
    for a in range(a_size):
        for s in range(s_size):
            z = int(prob.sampling[a, s])
            if mode == "encoder":
                mix[:, s, z * a_size + a] = action_dists[:, a]
            else:
                mix[:, s, z * a_size + a] = action_dists[:, s, a]
    return mix


def _simplex_grid(dim: int, points_per_axis: int) -> np.ndarray:
    """All probability vectors over `dim` bins with entries on a uniform grid."""
    steps = points_per_axis - 1
    combos = []
    for split in product(range(steps + 1), repeat=dim - 1):
        total = sum(split)
        if total <= steps:
            combos.append(list(split) + [steps - total])
    return np.array(combos, dtype=float) / steps


def _expected_action_cost(prob: SingleLetterProblem, mode: str,
                          dists: np.ndarray) -> np.ndarray:
    if mode == "encoder":
        return dists @ prob.cost
    per_state = dists @ prob.cost  # [b, s]
    return per_state @ prob.stationary_dist


def curve_violations(prob: Optional[SingleLetterProblem] = None,
                     mode: str = "encoder",
                     resolution=DEFAULT_RESOLUTION) -> list[str]:
    """The rules the run parameters of a single-letter ascent in a mode
    break, by JSON pointer within the algorithm section.

    A problem's action-distribution grid is refused, before it is built, if
    it is larger than MAX_DEFAULT_FREE_DIMS free dimensions at the default
    resolution, so a coarser resolution admits more dimensions. A grid of
    P_{A|S} (every mode but encoder) has |S| times the free dimensions of
    the encoder's P_A. Raises ValueError on a mode not in MODES.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    found = []
    if not (is_integer(resolution) and resolution >= 1):
        found.append("resolution: must be a positive integer")
    elif resolution < MIN_RESOLUTION:
        found.append(f"resolution: must be at least {MIN_RESOLUTION} grid "
                     "points per dimension")
    elif prob is not None:
        a = prob.action_size
        s = 1 if mode == "encoder" else prob.state_size
        if (math.comb(resolution + a - 2, a - 1) ** s
                > DEFAULT_RESOLUTION ** MAX_DEFAULT_FREE_DIMS):
            found.append(f"resolution: {s * (a - 1)} free action dimensions "
                         "need a coarser resolution")
    return found


def _candidate_actions(prob: SingleLetterProblem, mode: str,
                       resolution: int) -> np.ndarray:
    """The action-distribution grid of a resolution that curve_violations
    admits."""
    a = prob.action_size
    rows = _simplex_grid(a, resolution)
    if mode == "encoder":
        return rows
    s = prob.state_size
    # one row per state, the last state's row varying fastest
    combos = np.indices((len(rows),) * s).reshape(s, -1).T
    return rows[combos]


def _optimize_slices(prob: SingleLetterProblem,
                     mix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inner maximization for every instance in the mixture batch.

    The objective is concave in the slices (mutual information is concave
    in the input law, which is linear in them), so one ascent from the
    uniform start reaches the maximum. Chunks of ASCENT_CHUNK instances go
    through one ascent each; since the ascent is row-independent, each
    instance follows the trajectory it would follow alone, and slices with
    zero weight change no value.
    """
    b, _, n_slices = mix.shape
    x = prob.input_size
    value = np.empty(b)
    q = np.empty((b, n_slices, x))
    for lo in range(0, b, ASCENT_CHUNK):
        hi = min(lo + ASCENT_CHUNK, b)
        value[lo:hi], q[lo:hi] = _ascend_inputs(
            prob.stationary_dist, prob.per_state_channel, mix[lo:hi],
            np.full((hi - lo, n_slices, x), 1.0 / x),
        )
    return value, q


def _optimize_mixtures(prob: SingleLetterProblem,
                       mixes: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Maxima of several mixture batches of one channel, from one ascent.

    The batches are padded with zero-weight slices to a common slice count
    and stacked; each value equals the one its batch would get alone.
    """
    width = max(m.shape[2] for m in mixes)
    mix = np.concatenate([np.pad(m, ((0, 0), (0, 0), (0, width - m.shape[2])))
                          for m in mixes])
    values, _ = _optimize_slices(prob, mix)
    return np.split(values, np.cumsum([m.shape[0] for m in mixes])[:-1])


def _curve_batch(prob: SingleLetterProblem, mode: str,
                 resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Expected costs and slice mixtures of the whole action-distribution grid."""
    candidates = _candidate_actions(prob, mode, resolution)
    return (_expected_action_cost(prob, mode, candidates),
            _action_mixture(prob, mode, candidates))


def _best_feasible(costs: np.ndarray, values: np.ndarray,
                   gammas: Sequence[float]) -> np.ndarray:
    """Per budget, the best value among candidates within it (NaN if none):
    the running maximum over the candidates sorted by cost, read after the
    last one of cost at most the budget plus FEAS_SLACK."""
    order = np.argsort(costs)
    best = np.concatenate(([np.nan], np.maximum.accumulate(values[order])))
    return best[np.searchsorted(costs[order],
                                np.asarray(gammas, dtype=float) + FEAS_SLACK,
                                side="right")]


def _endpoint_mixtures(prob: SingleLetterProblem) -> list[np.ndarray]:
    """Mixtures of the common-input (C(0)) and per-state-input (C(1)) maxima."""
    s = prob.state_size
    per_state = np.zeros((1, s, s))
    per_state[0, np.arange(s), np.arange(s)] = 1.0
    return [np.ones((1, s, 1)), per_state]


def single_letter_bounds(prob: SingleLetterProblem, gammas: Sequence[float],
                         resolution: int = DEFAULT_RESOLUTION,
                         modes: Sequence[str] = ("encoder", "decoder")
                         ) -> tuple:
    """(C(0), C(1), *curves) of one setting in one ascent, a curve per mode.

    C(0) and C(1) are the common-input and per-state-input maxima of
    I(X;Y|S); each curve holds the lower-bound values of one coupling of
    MODES over the budget grid. The inner maximization does not depend on
    the budget, only feasibility does, so every action-grid candidate is
    optimized once and each budget keeps its best feasible value; budgets
    with no feasible candidate get NaN. Each candidate is ascended once,
    from the uniform start, and the batches only share the ascent's
    iterations: each value equals the one its batch would get alone.
    Raises ValueError with the first of curve_violations, checked in every
    mode (and on the resolution alone) before anything is built.
    """
    found = curve_violations(resolution=resolution)
    for mode in modes:
        found += curve_violations(prob, mode, resolution)
    raise_first(found)
    batches = [_curve_batch(prob, mode, resolution) for mode in modes]
    *values, c0, c1 = _optimize_mixtures(
        prob, [mix for _, mix in batches] + _endpoint_mixtures(prob))
    return (float(c0[0]), float(c1[0]),
            *(_best_feasible(costs, v, gammas)
              for (costs, _), v in zip(batches, values)))


def time_sharing_baseline(c0: float, c1: float, gamma: float) -> float:
    """Linear interpolation (1 - gamma) C(0) + gamma C(1) on gamma in [0, 1]."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    return (1.0 - gamma) * c0 + gamma * c1


def exponent_violations(rho_grid) -> list[str]:
    """The rule a grid of exponent orders breaks, if any, by JSON pointer
    within the exponent section."""
    if (isinstance(rho_grid, (Sequence, np.ndarray)) and len(rho_grid)
            and all(is_number(v) and 0.0 <= v <= 1.0 for v in rho_grid)):
        return []
    return ["rho_grid: must be a nonempty list in [0, 1]"]


def gallager_exponent(space: TrajectorySpace, rows, rho: float) -> float:
    """Literal evaluation of the block exponent at order rho of the policy
    with the given reachable rows (space.reachable_rows of a CausalPolicy,
    space.uniform_rows), on the space's block length and start state.

    Inner channel powers are taken in the log domain; the value is exactly 0
    at rho = 0 (the bracketed sum is then the total probability mass, 1).
    rho is checked as a one-point grid of exponent_violations.
    """
    raise_first(exponent_violations([rho]))
    prod = space.policy_product(rows)
    if rho == 0.0:
        return 0.0
    scaled = space.log2_p_live / (1.0 + rho)
    np.exp2(scaled, out=scaled)
    scaled *= prod.take(space.parent)
    inner = np.bincount(space.col, weights=scaled, minlength=space.cols)
    total = float(np.sum(inner ** (1.0 + rho)))
    return -math.log2(total) / space.n
