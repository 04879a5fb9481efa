"""Single-letter lower bounds and the time-sharing baseline."""

import itertools
import math
import warnings

import numpy as np
import pytest

from sampcap import bounds
from sampcap import (
    SingleLetterProblem,
    single_letter_bounds,
    time_sharing_baseline,
)

from conftest import binary_entropy

INFORMED_CAPACITY = math.log2(5.0) - 2.0          # 0.321928...
COMMON_INPUT_CAPACITY = binary_entropy(0.25) - 0.5  # 0.311278...


def single_action_problem(cost):
    """One-state, one-action crossover problem with an adjustable price."""
    return SingleLetterProblem(
        stationary_dist=np.array([1.0]),
        per_state_channel=np.array([[[0.75, 0.25], [0.25, 0.75]]]),
        sampling=np.array([[0]]),
        cost=np.array([cost]),
    )


def random_three_state_problem():
    """A seeded 3-state problem with two priced actions."""
    rng = np.random.default_rng(5)
    return SingleLetterProblem(
        stationary_dist=rng.dirichlet(np.ones(3)),
        per_state_channel=rng.dirichlet(np.ones(3), size=(3, 2)),
        sampling=rng.integers(0, 3, size=(2, 3)),
        cost=np.array([0.0, 1.0]),
    )


def free_action_problem(states, actions):
    """A noiseless problem with the given numbers of states and free actions."""
    return SingleLetterProblem(
        stationary_dist=np.full(states, 1.0 / states),
        per_state_channel=np.tile(np.eye(2), (states, 1, 1)),
        sampling=np.zeros((actions, states), dtype=int),
        cost=np.zeros(actions),
    )


def encoder_curve(prob, gammas, **kwargs):
    """The encoder curve alone, from single_letter_bounds."""
    _, _, curve = single_letter_bounds(prob, gammas, modes=("encoder",),
                                       **kwargs)
    return curve


def reference_ascent(pi, w, mix, starts, tol=bounds.ASCENT_TOL,
                     max_iter=bounds.ASCENT_MAX_ITER):
    """The projected-gradient ascent that prices each iterate's gradient anew
    and steps each slice along its gradient divided by the slice's weight
    sum_s pi(s) mix[s, k] (by 1 where that weight is 0)."""
    negh = bounds._channel_negentropy(w)
    weight = np.einsum("s,bsk->bk", pi, mix)[:, :, None]
    weight = np.where(weight == 0.0, 1.0, weight)
    q = starts.copy()
    value, _ = bounds._objective_and_grad(pi, w, negh, mix, q)
    step = np.full(q.shape[0], 0.5)
    idx = np.arange(q.shape[0])
    for _ in range(max_iter):
        sub_q, sub_mix = q[idx], mix[idx]
        sub_value, sub_step = value[idx], step[idx]
        _, grad = bounds._objective_and_grad(pi, w, negh, sub_mix, sub_q)
        cand = bounds.project_to_simplex(
            sub_q + sub_step[:, None, None] * (grad / weight[idx])
        )
        cand_value, _ = bounds._objective_and_grad(pi, w, negh, sub_mix, cand)
        accept = cand_value >= sub_value
        gain = np.where(accept, cand_value - sub_value, np.inf)
        q[idx] = np.where(accept[:, None, None], cand, sub_q)
        value[idx] = np.where(accept, cand_value, sub_value)
        step[idx] = sub_step = np.where(accept, sub_step * 1.2, sub_step * 0.5)
        idx = idx[~((accept & (gain <= tol)) | (sub_step < 1e-13))]
        if idx.size == 0:
            break
    return value, q


def uniform_starts(prob, mix):
    """The uniform input slices of every instance of a mixture batch."""
    x = prob.input_size
    return np.full((mix.shape[0], mix.shape[2], x), 1.0 / x)


def multi_start_maximum(prob, mix, restarts=5):
    """Per instance, the best value of ascents at tol 0 from the uniform
    start and from `restarts` seeded random starts, stacked in one batch."""
    uniform = uniform_starts(prob, mix)
    raw = np.random.default_rng(0).exponential(
        1.0, size=(restarts, *uniform.shape))
    starts = np.concatenate([uniform, *(raw / raw.sum(axis=-1, keepdims=True))])
    value, _ = bounds._ascend_inputs(prob.stationary_dist,
                                     prob.per_state_channel,
                                     np.tile(mix, (restarts + 1, 1, 1)),
                                     starts, tol=0.0)
    return value.reshape(restarts + 1, -1).max(axis=0)


def sort_argmax_projection(v):
    """The simplex projection by the last index whose sorted entry exceeds
    its partial-sum threshold, the form the threshold maximum replaced."""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, n + 1, dtype=float)
    cond = u - css / idx > 0.0
    rho = n - 1 - np.argmax(cond[..., ::-1], axis=-1)
    theta = np.take_along_axis(css, rho[..., None], axis=-1) / (rho[..., None] + 1.0)
    return np.maximum(v - theta, 0.0)


def cumsum_projection(v):
    """The simplex projection as a sort, a cumulative sum, a division and a
    maximum over the last axis, the form the column walk replaced."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    theta = (css / np.arange(1.0, v.shape[-1] + 1.0)).max(axis=-1,
                                                          keepdims=True)
    return np.maximum(v - theta, 0.0)


def padded(mix, extra):
    """The mixture with `extra` zero-weight slices appended."""
    return np.pad(mix, ((0, 0), (0, 0), (0, extra)))


class TestSingleLetterLower:
    def test_zero_budget_forces_the_silent_action(self, markovian_single_letter):
        prob = markovian_single_letter
        costs, mix = bounds._curve_batch(prob, "encoder",
                                         bounds.DEFAULT_RESOLUTION)
        # the silent action 0 samples z = 2 in both states: slice (2, 0)
        silent = np.zeros((2, 6))
        silent[:, 4] = 1.0
        assert np.array_equal(mix[costs <= bounds.FEAS_SLACK], [silent])
        [value] = encoder_curve(prob, [0.0])
        assert value == pytest.approx(COMMON_INPUT_CAPACITY, abs=1e-4)

    def test_full_budget_reaches_the_informed_value(self, markovian_single_letter):
        [value] = encoder_curve(markovian_single_letter, [1.0])
        assert value == pytest.approx(INFORMED_CAPACITY, abs=1e-4)

    def test_value_saturates_at_one_fifth_of_the_budget(self,
                                                        markovian_single_letter):
        # mixing one fifth of informed signaling with the silent action
        # already synthesizes the per-state optimal inputs, so the curve is
        # flat from budget 0.2 on and still rising just below it
        curve = encoder_curve(markovian_single_letter, [0.19, 0.2, 0.25, 1.0],
                              resolution=101)
        assert curve[1] == pytest.approx(curve[3], abs=1e-9)
        assert curve[2] == pytest.approx(curve[3], abs=1e-9)
        gap_below = curve[1] - curve[0]
        assert 1e-5 <= gap_below <= 1e-3

    def test_curve_marks_infeasible_budgets(self):
        prob = single_action_problem(1.0)
        curve = encoder_curve(prob, [0.5, 1.0])
        assert np.isnan(curve[0])
        assert curve[1] == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-6)

    def test_resolution_floor(self, markovian_single_letter):
        with pytest.raises(ValueError, match="at least 10"):
            single_letter_bounds(markovian_single_letter, [0.5], resolution=5)
        with pytest.raises(ValueError, match="at least 10"):
            single_letter_bounds(markovian_single_letter, [0.5], resolution=5,
                                 modes=())

    def test_state_aware_actions_only_help(self, markovian_single_letter):
        _, _, [enc], [dec] = single_letter_bounds(markovian_single_letter,
                                                  [0.1])
        assert dec >= enc - 1e-6


class TestCandidateGrid:
    @pytest.mark.parametrize("states, actions, mode, free", [
        (1, 5, "encoder", 4),
        (2, 3, "decoder", 4),
        (4, 2, "backward_link", 4),
    ])
    def test_default_resolution_refuses_four_free_dimensions(
        self, monkeypatch, states, actions, mode, free
    ):
        monkeypatch.setattr(bounds, "_simplex_grid", pytest.fail)
        prob = free_action_problem(states, actions)
        assert bounds.curve_violations(prob, mode) == [
            f"resolution: {free} free action dimensions need a coarser "
            "resolution"]

    def test_non_default_resolution_is_refused_before_the_grid_is_built(
        self, monkeypatch
    ):
        # C(101, 2)^2 = 25.5 M candidates at resolution 100
        monkeypatch.setattr(bounds, "_simplex_grid", pytest.fail)
        prob = free_action_problem(2, 3)
        with pytest.raises(ValueError, match="4 free action dimensions"):
            single_letter_bounds(prob, [0.0], resolution=100,
                                 modes=("decoder",))

    def test_default_resolution_admits_three_free_dimensions(self):
        # one sampled symbol: the slices are the actions
        costs, mix = bounds._curve_batch(free_action_problem(3, 2), "decoder",
                                         bounds.DEFAULT_RESOLUTION)
        assert costs.shape == (bounds.DEFAULT_RESOLUTION ** 3,)
        assert mix.shape == (bounds.DEFAULT_RESOLUTION ** 3, 3, 2)

    def test_coarse_resolution_admits_four_free_dimensions(self):
        _, mix = bounds._curve_batch(free_action_problem(1, 5), "encoder", 11)
        assert mix.shape == (math.comb(14, 4), 1, 5)
        assert np.allclose(mix.sum(axis=2), 1.0)
        assert len(np.unique(mix, axis=0)) == len(mix)


def reference_curve_batch(prob, mode, resolution):
    """Expected costs and slice mixtures of a mode's action grid, written
    out over (b, s, a) from the module docstring's couplings: the encoder
    draws one P_A(a) for every state, the others P_{A|S}(a|s) per state with
    the last state's row varying fastest; the backward link weights slice a,
    the others slice (z, a) with z = f(a, s) ranked among the distinct
    sampled values."""
    s_size, a_size = prob.state_size, prob.action_size
    rows = bounds._simplex_grid(a_size, resolution)
    labels = sorted(set(prob.sampling.flat))
    if mode == "encoder":
        grid = [[row] * s_size for row in rows]
    else:
        grid = list(itertools.product(rows, repeat=s_size))
    fed_back = mode == "backward_link"
    width = a_size if fed_back else len(labels) * a_size
    costs = np.zeros(len(grid))
    mix = np.zeros((len(grid), s_size, width))
    for b, dist in enumerate(grid):
        for s in range(s_size):
            for a in range(a_size):
                if mode != "encoder":
                    costs[b] += prob.stationary_dist[s] * dist[s][a] * prob.cost[a]
                k = a if fed_back else (
                    labels.index(prob.sampling[a, s]) * a_size + a)
                mix[b, s, k] = dist[s][a]
        if mode == "encoder":
            costs[b] = sum(dist[0][a] * prob.cost[a] for a in range(a_size))
    return costs, mix


def relabeled(prob, old, new):
    """The problem with sampled value `old` renamed `new`."""
    return SingleLetterProblem(
        stationary_dist=prob.stationary_dist,
        per_state_channel=prob.per_state_channel,
        sampling=np.where(prob.sampling == old, new, prob.sampling),
        cost=prob.cost,
    )


class TestCouplingTable:
    @pytest.fixture(params=["markovian", "random"])
    def problem(self, request, markovian_single_letter):
        if request.param == "random":
            return random_three_state_problem(), 10
        return markovian_single_letter, 11

    @pytest.mark.parametrize("mode", bounds.MODES)
    def test_curve_batch_matches_the_written_out_couplings(self, problem,
                                                           mode):
        prob, resolution = problem
        costs, mix = bounds._curve_batch(prob, mode, resolution)
        ref_costs, ref_mix = reference_curve_batch(prob, mode, resolution)
        assert np.array_equal(mix, ref_mix)
        np.testing.assert_allclose(costs, ref_costs, rtol=1e-15, atol=0.0)

    def test_sparse_labels_give_the_same_curves_and_slices(
        self, markovian_single_letter
    ):
        # {0, 1, 200} and {0, 1, 2} have the same equalities, so the same
        # slices: the width follows the distinct values, not the largest
        for prob, resolution in [(markovian_single_letter, 11),
                                 (random_three_state_problem(), 10)]:
            sparse = relabeled(prob, 2, 200)
            assert set(sparse.sampling.flat) == {0, 1, 200}
            for mode in bounds.MODES:
                _, mix = bounds._curve_batch(prob, mode, resolution)
                _, sparse_mix = bounds._curve_batch(sparse, mode, resolution)
                assert sparse_mix.shape == mix.shape
            gammas = np.linspace(0.0, 1.0, 11)
            dense_job = single_letter_bounds(prob, gammas, resolution,
                                             modes=bounds.MODES)
            sparse_job = single_letter_bounds(sparse, gammas, resolution,
                                              modes=bounds.MODES)
            for want, got in zip(dense_job, sparse_job, strict=True):
                assert np.array_equal(got, want, equal_nan=True)


class TestBatchedAscent:
    @pytest.fixture(params=["encoder", "decoder", "random"])
    def batch(self, request, markovian_single_letter):
        if request.param == "random":
            prob, mode = random_three_state_problem(), "encoder"
        else:
            prob, mode = markovian_single_letter, request.param
        _, mix = bounds._curve_batch(prob, mode, 11)
        return prob, mix

    @pytest.mark.parametrize("chunk", [bounds.ASCENT_CHUNK, 7])
    def test_one_batch_matches_the_reference_ascent_from_the_uniform_start(
        self, monkeypatch, batch, chunk
    ):
        prob, mix = batch
        assert mix.shape[0] % 7 != 0
        monkeypatch.setattr(bounds, "ASCENT_CHUNK", chunk)
        values, slices = bounds._optimize_slices(prob, mix)
        ref_values, ref_slices = reference_ascent(
            prob.stationary_dist, prob.per_state_channel, mix,
            uniform_starts(prob, mix))
        assert np.array_equal(values, ref_values)
        assert np.array_equal(slices, ref_slices)

    def test_every_start_reaches_the_uniform_maximum(self, batch):
        # the objective is concave in the slices, so each candidate has one
        # maximum value, whatever the start of an exhaustive ascent
        prob, mix = batch
        uniform = uniform_starts(prob, mix)
        value, _ = bounds._ascend_inputs(prob.stationary_dist,
                                         prob.per_state_channel, mix, uniform,
                                         tol=0.0)
        raw = np.random.default_rng(0).exponential(1.0,
                                                   size=(3, *uniform.shape))
        starts = np.concatenate(raw / raw.sum(axis=-1, keepdims=True))
        random_value, _ = bounds._ascend_inputs(prob.stationary_dist,
                                                prob.per_state_channel,
                                                np.tile(mix, (3, 1, 1)),
                                                starts, tol=0.0)
        assert np.max(np.abs(random_value.reshape(3, -1) - value)) <= 1e-12

    def test_one_objective_evaluation_per_iteration(self, monkeypatch, batch):
        prob, mix = batch
        calls = {"objective": 0, "iterations": 0}
        objective = bounds._objective_and_grad
        project = bounds.project_to_simplex

        def counted_objective(*args):
            calls["objective"] += 1
            return objective(*args)

        def counted_project(v):
            calls["iterations"] += 1
            return project(v)

        monkeypatch.setattr(bounds, "_objective_and_grad", counted_objective)
        monkeypatch.setattr(bounds, "project_to_simplex", counted_project)
        bounds._ascend_inputs(prob.stationary_dist, prob.per_state_channel, mix,
                              uniform_starts(prob, mix))
        assert calls["iterations"] > 1
        assert calls["objective"] == calls["iterations"] + 1


class TestScaledStep:
    """Each slice steps along its gradient divided by its weight."""

    @staticmethod
    def uniform_ascent(prob, mode, resolution, **kwargs):
        _, mix = bounds._curve_batch(prob, mode, resolution)
        return bounds._ascend_inputs(prob.stationary_dist,
                                     prob.per_state_channel, mix,
                                     uniform_starts(prob, mix), **kwargs)

    def test_coarse_job_needs_few_iterations(self, monkeypatch,
                                             markovian_single_letter):
        calls = {"iterations": 0}
        project = bounds.project_to_simplex

        def counted_project(v):
            calls["iterations"] += 1
            return project(v)

        monkeypatch.setattr(bounds, "project_to_simplex", counted_project)
        single_letter_bounds(markovian_single_letter,
                             np.linspace(0.0, 1.0, 11), 11)
        assert 1 < calls["iterations"] <= 30

    @pytest.mark.parametrize("mode, atol", [
        ("random", 5e-11), ("encoder", 5e-11), ("decoder", 5e-11),
    ])
    def test_tol_stop_is_close_to_the_exhaustive_ascent(
        self, markovian_single_letter, mode, atol
    ):
        if mode == "random":
            prob, mode = random_three_state_problem(), "encoder"
        else:
            prob = markovian_single_letter
        values, _ = self.uniform_ascent(prob, mode, 11)
        exhaustive, _ = self.uniform_ascent(prob, mode, 11, tol=0.0)
        assert np.max(np.abs(values - exhaustive)) <= atol

    def test_zero_and_subnormal_weight_slices(self, markovian_single_letter):
        # slice 1 has weight 0, slice 2 weight 0.5 * 1e-320 (subnormal)
        prob = markovian_single_letter
        mix = np.array([[[1.0, 0.0, 1e-320], [1.0, 0.0, 0.0]]])
        starts = np.array([[[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, slices = bounds._ascend_inputs(
                prob.stationary_dist, prob.per_state_channel, mix, starts
            )
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(slices))
        assert np.array_equal(slices[0, 1], starts[0, 1])
        assert np.allclose(slices.sum(axis=-1), 1.0) and np.all(slices >= 0.0)

    def test_rows_stopped_at_the_cap_are_reported(self, markovian_single_letter):
        with pytest.warns(bounds.AscentCapWarning) as caught:
            self.uniform_ascent(markovian_single_letter, "decoder", 11,
                                max_iter=2)
        assert len(caught) == 1
        assert 0 < caught[0].message.rows <= 121
        assert f"{caught[0].message.rows} ascent rows" in str(caught[0].message)


class TestSimplexProjection:
    @staticmethod
    def rows(rng, n):
        """Random rows, rows with tied entries, rows with zeros and rows
        already on the simplex (some with zero entries), n entries each."""
        normal = rng.normal(size=(2_000, n))
        tied = normal.copy()
        tied[:, n // 2:] = tied[:, :1]
        zeros = rng.exponential(size=(2_000, n)) * (rng.random((2_000, n)) < 0.5)
        on_simplex = rng.dirichlet(np.ones(n), size=2_000)
        sparse = on_simplex * (rng.random((2_000, n)) < 0.6)
        sparse[sparse.sum(axis=1) == 0.0, 0] = 1.0
        sparse /= sparse.sum(axis=1, keepdims=True)
        corners = np.eye(n)
        return np.concatenate([normal, tied, zeros, on_simplex, sparse, corners,
                               np.zeros((1, n)), np.full((1, n), 1.0 / n)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_threshold_maximum_matches_the_sort_argmax_form(self, n):
        v = self.rows(np.random.default_rng(n), n)
        out = bounds.project_to_simplex(v)
        assert np.array_equal(out, sort_argmax_projection(v))
        assert np.all(out >= 0.0)
        # v - theta rounds at the scale of the row's entries
        scale = np.maximum(1.0, np.abs(v).max(axis=-1))
        assert np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-15 * scale * n)
        unit = scale == 1.0
        assert unit.sum() >= 4_000
        assert np.max(np.abs(out[unit].sum(axis=-1) - 1.0)) <= 1e-15

    @pytest.mark.parametrize("n", range(1, 8))
    def test_column_walk_matches_the_cumulative_sum_form(self, n):
        v = self.rows(np.random.default_rng(10 + n), n)
        assert np.array_equal(bounds.project_to_simplex(v),
                              cumsum_projection(v))

    @pytest.mark.parametrize("x", [2, 3, 7])
    @pytest.mark.parametrize("b", [1, bounds.ASCENT_CHUNK])
    def test_column_walk_matches_on_ascent_batches(self, b, x):
        # [rows, slices, inputs], as the ascent projects its candidates
        rng = np.random.default_rng(b + x)
        v = rng.normal(size=(b, 6, x)) * rng.exponential(size=(b, 1, 1))
        v[:, 1] = 1.0 / x
        assert np.array_equal(bounds.project_to_simplex(v),
                              cumsum_projection(v))

    def test_batched_axes_project_row_by_row(self):
        v = np.random.default_rng(9).normal(size=(4, 5, 3))
        out = bounds.project_to_simplex(v)
        assert np.array_equal(out.reshape(-1, 3),
                              bounds.project_to_simplex(v.reshape(-1, 3)))

    def test_an_entry_at_the_threshold_projects_to_exact_zero(self):
        # u_2 equals the threshold of its prefix: in floating point the
        # sort-argmax form counts it in and leaves a one-ulp residue, the
        # threshold maximum keeps the prefix threshold and gives exact 0
        v = np.array([[-2.0 / 3.0, 1.0 / 3.0]])
        assert np.array_equal(bounds.project_to_simplex(v), [[0.0, 1.0]])
        old = sort_argmax_projection(v)
        assert old[0, 0] == pytest.approx(0.0, abs=2.3e-16)


def per_budget_best(costs, values, gammas):
    """The best value among the candidates within each budget, one budget
    at a time (NaN if none)."""
    out = np.full(len(gammas), np.nan)
    for i, gamma in enumerate(gammas):
        feasible = costs <= gamma + bounds.FEAS_SLACK
        if feasible.any():
            out[i] = values[feasible].max()
    return out


class TestBestFeasible:
    def test_matches_the_per_budget_scan(self):
        # tied costs with different values, budgets below every cost, and
        # budgets on either side of a cost's slack boundary
        costs = np.array([0.5, 0.2, 0.5, 0.9, 0.2, 0.7])
        values = np.array([0.3, 0.1, 0.6, 0.4, 0.05, 0.2])
        slack = bounds.FEAS_SLACK
        gammas = [0.0, 0.1, 0.2, 0.2 - slack, 0.5 - 2 * slack, 0.5 - slack,
                  0.5, 0.6, 0.9 - 2 * slack, 0.9, 1.0]
        got = bounds._best_feasible(costs, values, gammas)
        want = per_budget_best(costs, values, gammas)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.isnan(got), [True] * 2 + [False] * 9)
        # one step below the boundary only the cost-0.2 pair fits
        assert got[4] == 0.1 and got[5] == 0.6 and got[8] == 0.6
        assert got[9] == 0.6

    def test_random_candidates(self):
        rng = np.random.default_rng(0)
        costs = rng.integers(0, 8, 200) / 8.0
        values = rng.random(200)
        gammas = np.concatenate([np.linspace(-0.1, 1.1, 97),
                                 np.unique(costs) + bounds.FEAS_SLACK,
                                 np.unique(costs) - 2 * bounds.FEAS_SLACK])
        np.testing.assert_array_equal(bounds._best_feasible(costs, values, gammas),
                                      per_budget_best(costs, values, gammas))


class TestOneAscentJob:
    GAMMAS = np.linspace(0.0, 1.0, 21)

    @pytest.fixture(scope="class", params=["markovian", "random"])
    def separate(self, request, markovian_single_letter):
        """A problem, a resolution, C(0) and C(1), and each mode's curve, each
        from an ascent of its own batch alone."""
        if request.param == "random":
            prob, resolution = random_three_state_problem(), 10
        else:
            prob, resolution = markovian_single_letter, 11

        def alone(mix):
            return bounds._optimize_slices(prob, mix)[0]

        ends = tuple(alone(mix)[0] for mix in bounds._endpoint_mixtures(prob))
        curves = {}
        for mode in bounds.MODES:
            costs, mix = bounds._curve_batch(prob, mode, resolution)
            curves[mode] = bounds._best_feasible(costs, alone(mix), self.GAMMAS)
        return prob, resolution, ends, curves

    @pytest.mark.parametrize("chunk", [bounds.ASCENT_CHUNK, 7])
    def test_each_mode_alone_or_together_equals_its_separate_ascent(
        self, monkeypatch, separate, chunk
    ):
        prob, resolution, ends, curves = separate
        monkeypatch.setattr(bounds, "ASCENT_CHUNK", chunk)
        for modes in [(), bounds.MODES, *((mode,) for mode in bounds.MODES)]:
            c0, c1, *job = single_letter_bounds(prob, self.GAMMAS, resolution,
                                                modes=modes)
            assert (c0, c1) == ends, modes
            for mode, curve in zip(modes, job, strict=True):
                assert np.array_equal(curve, curves[mode], equal_nan=True), (
                    modes, mode)
        # the default modes are the encoder and decoder curves of `bounds`
        assert np.array_equal(
            single_letter_bounds(prob, self.GAMMAS, resolution)[2:],
            [curves["encoder"], curves["decoder"]], equal_nan=True)

    def test_one_start_reaches_the_multi_start_maximum(self, separate):
        # the objective is concave in the slices, so no random start finds
        # a higher maximum than the uniform one
        prob, resolution, ends, curves = separate
        for mix, end in zip(bounds._endpoint_mixtures(prob), ends):
            assert multi_start_maximum(prob, mix)[0] - end <= 5e-11
        for mode in bounds.MODES:
            costs, mix = bounds._curve_batch(prob, mode, resolution)
            best = bounds._best_feasible(costs, multi_start_maximum(prob, mix),
                                         self.GAMMAS)
            assert np.array_equal(np.isnan(best), np.isnan(curves[mode]))
            assert np.nanmax(best - curves[mode]) <= 5e-11, mode

    def test_an_unknown_mode_is_rejected_before_any_ascent(
        self, monkeypatch, markovian_single_letter
    ):
        monkeypatch.setattr(bounds, "_ascend_inputs", pytest.fail)
        with pytest.raises(ValueError, match="unknown mode 'telepathy'"):
            single_letter_bounds(markovian_single_letter, [0.5],
                                 modes=(*bounds.MODES, "telepathy"))

    def test_zero_weight_slices_change_no_value(self, separate):
        prob, resolution, _, _ = separate
        _, mix = bounds._curve_batch(prob, "decoder", resolution)
        mix = mix[::9]
        k = mix.shape[2]
        values, slices = bounds._optimize_slices(prob, mix)
        wide_values, wide_slices = bounds._optimize_slices(prob,
                                                           padded(mix, 3))
        assert np.array_equal(wide_values, values)
        assert np.array_equal(wide_slices[:, :k], slices)

        pi, w = prob.stationary_dist, prob.per_state_channel
        negh = bounds._channel_negentropy(w)
        rng = np.random.default_rng(2)
        q = rng.dirichlet(np.ones(prob.input_size), size=(len(mix), k + 3))
        value, grad = bounds._objective_and_grad(pi, w, negh, mix, q[:, :k])
        wide_value, wide_grad = bounds._objective_and_grad(pi, w, negh,
                                                           padded(mix, 3), q)
        assert np.array_equal(wide_value, value)
        assert np.array_equal(wide_grad[:, :k], grad)
        assert np.all(wide_grad[:, k:] == 0.0)

    def test_objective_rows_do_not_depend_on_their_batch(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            s, x, y, k = rng.integers(1, 6, size=4)
            w = rng.dirichlet(np.ones(y), size=(s, x))
            pi = rng.dirichlet(np.ones(s))
            mix = rng.dirichlet(np.ones(k), size=(30, s))
            q = rng.dirichlet(np.ones(x), size=(30, k))
            negh = bounds._channel_negentropy(w)
            value, grad = bounds._objective_and_grad(pi, w, negh, mix, q)
            for size in (1, 7):
                for lo in range(0, 30, size):
                    rows = slice(lo, lo + size)
                    part_value, part_grad = bounds._objective_and_grad(
                        pi, w, negh, mix[rows].copy(), q[rows].copy()
                    )
                    assert np.array_equal(part_value, value[rows])
                    assert np.array_equal(part_grad, grad[rows])


class TestChannelConstant:
    def test_negentropy_of_a_channel_with_zeros(self, markovian_single_letter):
        w = markovian_single_letter.per_state_channel
        assert np.any(w == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            negh = bounds._channel_negentropy(w)
        assert np.array_equal(negh, [[0.0, -1.0], [-1.0, 0.0]])

    def test_ascent_on_a_channel_with_zeros_raises_no_warning(
        self, markovian_single_letter
    ):
        prob = markovian_single_letter
        _, mix = bounds._curve_batch(prob, "decoder", 11)
        starts = np.full((len(mix), mix.shape[2], prob.input_size), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, slices = bounds._ascend_inputs(
                prob.stationary_dist, prob.per_state_channel, mix, starts
            )
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(slices))
        assert values.max() == pytest.approx(INFORMED_CAPACITY, abs=1e-4)

    def test_unreached_outputs_keep_the_objective_finite(
        self, markovian_single_letter
    ):
        # every slice sends x = 0: state 0 then never emits y = 1 (py = 0)
        prob = markovian_single_letter
        pi, w = prob.stationary_dist, prob.per_state_channel
        mix = bounds._endpoint_mixtures(prob)[1]
        q = np.zeros((1, 2, 2))
        q[:, :, 0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = bounds._objective_and_grad(
                pi, w, bounds._channel_negentropy(w), mix, q
            )
        assert value[0] == 0.0
        assert np.all(np.isfinite(grad))


class TestEndpointCapacities:
    def test_closed_forms(self, markovian_single_letter):
        c0, c1 = single_letter_bounds(markovian_single_letter, [],
                                      modes=())
        assert c0 == pytest.approx(COMMON_INPUT_CAPACITY, abs=1e-4)
        assert c1 == pytest.approx(INFORMED_CAPACITY, abs=1e-4)

    def test_time_sharing_is_linear(self):
        assert time_sharing_baseline(0.3, 0.5, 0.0) == 0.3
        assert time_sharing_baseline(0.3, 0.5, 1.0) == 0.5
        assert time_sharing_baseline(0.3, 0.5, 0.25) == pytest.approx(0.35)

    def test_time_sharing_range_check(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            time_sharing_baseline(0.3, 0.5, 1.5)

    def test_curve_beats_time_sharing_in_the_middle(self, markovian_single_letter):
        c0, c1, [half] = single_letter_bounds(markovian_single_letter, [0.5],
                                              modes=("encoder",))
        assert half - time_sharing_baseline(c0, c1, 0.5) >= 1e-4


class TestBackwardLink:
    def test_free_backward_link_reaches_the_informed_value(
        self, markovian_single_letter
    ):
        # at budget 0 only the silent action is affordable, a common input;
        # at 0.5 the action can announce the state, whose inputs then match
        _, _, curve = single_letter_bounds(markovian_single_letter, [0.0, 0.5],
                                           resolution=11,
                                           modes=("backward_link",))
        assert curve[0] == pytest.approx(COMMON_INPUT_CAPACITY, abs=1e-6)
        assert curve[1] == pytest.approx(INFORMED_CAPACITY, abs=1e-6)

    def test_mode_guard(self, markovian_single_letter):
        with pytest.raises(ValueError, match="unknown mode 'backward'"):
            single_letter_bounds(markovian_single_letter, [0.5],
                                 modes=("backward_link", "backward"))


class TestProblemValidation:
    def test_unknown_mode_rejected(self, markovian_single_letter):
        with pytest.raises(ValueError, match="unknown mode 'telepathy'"):
            single_letter_bounds(markovian_single_letter, [0.5],
                                 modes=("telepathy",))

    def test_sampling_axes_checked(self):
        with pytest.raises(ValueError, match=r"\[a\]\[s\]"):
            SingleLetterProblem(
                stationary_dist=np.array([0.5, 0.5]),
                per_state_channel=np.array(
                    [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]
                ),
                sampling=np.array([[0], [1]]),
                cost=np.array([0.0]),
            )

    @pytest.mark.parametrize("field", ["stationary_dist", "per_state_channel"])
    def test_non_finite_entries_rejected(self, markovian_single_letter, field):
        # a NaN sums to NaN, which no tolerance comparison flags
        arrays = {"stationary_dist": markovian_single_letter.stationary_dist.copy(),
                  "per_state_channel":
                      markovian_single_letter.per_state_channel.copy()}
        arrays[field][0] = np.nan
        with pytest.raises(ValueError,
                           match=f"{field}: entries must be finite"):
            SingleLetterProblem(sampling=markovian_single_letter.sampling,
                                cost=markovian_single_letter.cost, **arrays)

    def test_negative_sampling_entries_rejected(self, markovian_single_letter):
        # sampled values are nonnegative labels, as in an action system's
        # sampling table, although only their equalities matter here
        with pytest.raises(ValueError, match="sampling: entries must be "
                                             "nonnegative"):
            SingleLetterProblem(
                stationary_dist=markovian_single_letter.stationary_dist,
                per_state_channel=markovian_single_letter.per_state_channel,
                sampling=np.array([[2, 2], [0, -1]]),
                cost=markovian_single_letter.cost,
            )
