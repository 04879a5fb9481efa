"""Alternating maximization: updates, bound iterates, sweeps, envelopes."""

import dataclasses
import math
import re
import warnings
from collections import defaultdict
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sampcap import (
    ActionSystem,
    CausalPolicy,
    FscKernel,
    TradeoffCurve,
    TradeoffPoint,
    default_lambda_grid,
    literal_directed_info,
    literal_joint,
    literal_r_update,
    run_baa,
    sandwich_bounds,
    sweep_lambda,
    update_q,
    update_r,
    upper_bound,
)
import sampcap.baa
from sampcap._num import fsum_array
from sampcap.baa import BaaState
from sampcap.oracle import _history_code
from sampcap.trajectory import TrajectorySpace

from conftest import (
    bound_histories,
    causal_channel_prob,
    live_index,
    make_random_kernel,
    make_random_policy,
    make_trivial_actions,
    uniform_policy,
    weighted_log2_sum,
)


def z_channel_kernel():
    # x = 0 passes clean, x = 1 flips to y = 0 with probability 1/4
    arr = np.zeros((1, 2, 2, 1))
    arr[0, 0, 0, 0] = 1.0
    arr[0, 1, 0, 0] = 0.25
    arr[0, 1, 1, 0] = 0.75
    return FscKernel(arr, np.array([1.0]))


class TestUpdates:
    def test_posterior_update_is_bayes(self, bsc_kernel, bsc_actions):
        space = TrajectorySpace(bsc_kernel, bsc_actions, 1)
        state = BaaState.initial(space, 0.0)
        # uniform prior: q(u | y) = p(y | u) / sum_u p(y | u), and the
        # update reads sum_y p(y | u) log2 q(u | y) as log2 prod + T
        p = bsc_kernel.kernel[0, :, :, 0]
        q = np.array([[0.75, 0.25], [0.25, 0.75]])
        np.testing.assert_allclose(q, p / p.sum(axis=0), atol=1e-12)
        np.testing.assert_allclose(
            np.log2(state.prod[:, 0]) + state.T[:, 0],
            (p * np.log2(q)).sum(axis=1), atol=1e-12)

    def test_policy_update_matches_the_classical_formula(self):
        # one step, no actions, no penalty: r'(x) proportional to
        # r(x) * 2^(sum_y p(y|x) log2 q(x|y)), the classical capacity update
        kernel = z_channel_kernel()
        state = BaaState.initial(TrajectorySpace(kernel, make_trivial_actions(2), 1),
                                 0.0)
        updated = state.space.dense_policy(update_r(state)[0])
        p = kernel.kernel[0, :, :, 0]
        q = p / p.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore"):
            logq = np.where(q > 0.0, np.log2(np.where(q > 0.0, q, 1.0)), 0.0)
        c = np.exp2((p * logq).sum(axis=1))
        np.testing.assert_allclose(updated.tables[0][0], c / c.sum(), atol=1e-12)

    def test_severe_penalty_empties_the_costly_action(self, markovian_kernel,
                                                      markovian_actions):
        state = iterated_state(markovian_kernel, markovian_actions, 2, 1000.0, 20)
        # u = (x, a) with a = 1 on odd symbols; sampling mass must vanish
        first_step = state.r.tables[0][0]
        assert first_step[1] + first_step[3] <= 1e-9

    def test_unreachable_output_blocks_are_flagged(self):
        kernel = z_channel_kernel()
        # pin the policy to x = 0; output y = 1 becomes unreachable
        pinned = CausalPolicy((np.array([[1.0, 0.0]]),), 1)
        space = TrajectorySpace(kernel, make_trivial_actions(2), 1)
        state = BaaState.initial(space, 0.0, start=space.reachable_rows(pinned))
        np.testing.assert_array_equal(state.d <= 0.0, [False, True])
        assert state.unreachable_outputs == 1
        # x = 1 reaches y = 1, of zero marginal, and y = 0, which x = 0
        # produces: its q vanishes on y = 0, so the update empties it
        np.testing.assert_array_equal(state.T[:, 0], [0.0, math.inf])
        np.testing.assert_array_equal(update_r(state)[0], [[1.0, 0.0]])


def two_phase_kernel():
    # from the start state, x = 0 gives y = 0 and x = 1 gives y = 3; then
    # x = 0 gives y in {0, 1} and x = 1 gives y in {1, 2}, half each
    arr = np.zeros((2, 2, 4, 2))
    arr[0, 0, 0, 1] = arr[0, 1, 3, 1] = 1.0
    arr[1, 0, :2, 1] = arr[1, 1, 1:3, 1] = 0.5
    return FscKernel(arr, np.array([1.0, 0.0]))


def pinned_policy(first, second):
    """x_1 = first and x_2 = second on every history, with feedback z = y."""
    return CausalPolicy((np.eye(2)[[first]], np.eye(2)[[second] * 8]), 4)


class TestZeroMarginal:
    """Outputs of zero marginal have the uniform posterior 1 / |U|^N. Below
    a parent of zero product, they make the update read -log2 |U|^N if
    every output there has d = 0, and -inf if some other output has d > 0;
    the deviator that reaches them makes I_U +inf."""

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("second", [0, 1])
    def test_update_and_upper_iterate(self, second, lam):
        # x_1 = 0 leaves y_1 = 3 unproduced, so every output below x_1 = 1
        # has d = 0; of the two outputs below the unused x_2 after y_1 = 0,
        # one is produced
        kernel = two_phase_kernel()
        actions = feedback_actions([0, 1, 2, 3], 0.5)
        policy = pinned_policy(0, second)
        space = TrajectorySpace(kernel, actions, 2)
        state = BaaState.initial(space, lam, start=space.reachable_rows(policy))
        # both kinds of zero-product parent reach an output of d = 0
        reached = np.bincount(space.parent, weights=state.d.take(space.col),
                              minlength=space.slot[-1].size)
        silent = np.bincount(space.parent,
                             weights=state.d.take(space.col) <= 0.0,
                             minlength=space.slot[-1].size)
        empty = state.prod.ravel() <= 0.0
        assert np.any(empty & (silent > 0) & (reached <= 0.0))
        assert np.any(empty & (silent > 0) & (reached > 0.0))
        literal = literal_r_update(policy, kernel, actions, lam)
        main = space.dense_policy(update_r(state)[0])
        for got, want in zip(main.tables, literal.tables, strict=True):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)
        assert upper_bound(state) == math.inf
        # the lower iterate weighs no parent of zero product
        assert state.i_lower == pytest.approx(
            literal_directed_info(policy, kernel, actions) / 2
            - lam * state.gamma, abs=1e-12)


def step(state):
    """The plain alternating map: the iterate of the updated policy."""
    return update_q(state.space, state.lam, *update_r(state))


def iterated_state(kernel, actions, n, lam, iterations):
    state = BaaState.initial(TrajectorySpace(kernel, actions, n), lam)
    for _ in range(iterations):
        state = step(state)
    return state


def log2_q_sums(state):
    """log2 prod + T of an iterate: per step-N parent, the sum over y_N of
    cond log2 q, which the policy update reads."""
    with np.errstate(divide="ignore"):
        return np.log2(state.prod) + state.T


def log2_q_sums_of(space, q):
    """The same sums of a dense posterior q [rows, cols], read at the live
    entries and summed per parent."""
    return np.bincount(space.parent,
                       weights=space.cond[-1] * np.log2(q[live_index(space)]),
                       minlength=space.slot[-1].size
                       ).reshape(space.slot[-1].shape)


def linear_policy_product(space, tables):
    """r(u^N || z^{N-1}) at every trajectory, [rows, cols], factor by factor,
    each read at its table row."""
    n, u_size, a_size = space.n, space.u_size, space.a_size
    prod = np.ones((space.rows, space.cols))
    for row, us in enumerate(product(range(u_size), repeat=n)):
        for col, ys in enumerate(product(range(space.y_size), repeat=n)):
            zs = [int(space.sys.sampling_table[uj % a_size, 0, yj])
                  for uj, yj in zip(us, ys)]
            for i in range(1, n + 1):
                prod[row, col] *= tables[i - 1][
                    _history_code(us[:i - 1], zs[:i - 1], u_size,
                                  space.z_size), us[i - 1]]
    return prod


LAYOUT_CASES = [("markovian", 3), ("bsc", 2), ("random", 2)]


def layout_case(request, channel):
    """(kernel, actions, rng) of a layout test case; the random channel has
    one state, so a zeroed kernel entry kills its trajectories."""
    rng = np.random.default_rng(3)
    if channel == "random":
        return (make_random_kernel(rng, 1, 2, 3, zero_share=0.3),
                make_trivial_actions(3), rng)
    return (request.getfixturevalue(f"{channel}_kernel"),
            request.getfixturevalue(f"{channel}_actions"), rng)


def live_prefixes(kernel, actions, k):
    """The (u^k, y^k) of positive past law in row-major order, each with its
    feedback z^k and its law P(y^k || x^k), by literal enumeration."""
    a_size = actions.encoder_size
    u_size = kernel.input_size * a_size
    out = []
    for us in product(range(u_size), repeat=k):
        for ys in product(range(kernel.output_size), repeat=k):
            law = (causal_channel_prob(kernel, [uj // a_size for uj in us], ys)
                   if k else 1.0)
            if law > 0.0:
                zs = tuple(int(actions.sampling_table[uj % a_size, 0, yj])
                           for uj, yj in zip(us, ys))
                out.append((us, ys, zs, law))
    return out


class TestPolicyProductCache:
    """The values an iterate stores against a recomputation from its policy."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_cached_values_match_a_fresh_recomputation(
        self, markovian_kernel, markovian_actions, n
    ):
        lam = 0.3
        state = iterated_state(markovian_kernel, markovian_actions, n, lam, 4)
        il = state.i_lower
        iu = upper_bound(state)
        # the posterior's sums, lower iterate and cost rebuilt from the
        # policy tables
        space = state.space
        r_prod = linear_policy_product(space, state.r.tables)
        joint = literal_joint(state.r, markovian_kernel, markovian_actions)
        q = joint / joint.sum(axis=0)
        np.testing.assert_allclose(log2_q_sums(state), log2_q_sums_of(space, q),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(state.d, joint.sum(axis=0), rtol=0.0,
                                   atol=1e-15)
        cost = fsum_array(joint * space.cost_row[:, None]) / n
        assert state.gamma == pytest.approx(cost, abs=1e-12)
        fresh_il = weighted_log2_sum(joint, q, r_prod) / n - lam * cost
        assert il == pytest.approx(fresh_il, abs=1e-12)
        # an equal policy under a new identity gives the same iterate
        r = state.r
        again = update_q(space, lam, space.reachable_rows(
            CausalPolicy(r.tables, r.z_size)))
        np.testing.assert_array_equal(again.prod, state.prod)
        np.testing.assert_array_equal(again.T, state.T)
        assert again.i_lower == il
        assert upper_bound(again) == iu
        # an iterate is a value: its fields cannot be reassigned, and its
        # arrays cannot be written
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, "rows", again.rows)
        for values in (state.prod, state.T, state.d):
            with pytest.raises(ValueError):
                values[0] = 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_policy_update_leaves_the_log_product_of_its_policy(
        self, markovian_kernel, markovian_actions, n
    ):
        lam = 0.3
        state = iterated_state(markovian_kernel, markovian_actions, n, lam, 3)
        rows, flags = update_r(state)
        state = update_q(state.space, lam, rows, flags)
        il = state.i_lower
        assert state.rows is rows
        # rebuilt from the returned rows alone
        space = state.space
        policy = space.dense_policy(rows)
        r_prod = linear_policy_product(space, policy.tables)
        joint = literal_joint(policy, markovian_kernel, markovian_actions)
        q = joint / joint.sum(axis=0)
        np.testing.assert_allclose(log2_q_sums(state), log2_q_sums_of(space, q),
                                   rtol=0.0, atol=1e-12)
        cost = fsum_array(joint * space.cost_row[:, None]) / n
        fresh_il = weighted_log2_sum(joint, q, r_prod) / n - lam * cost
        assert il == pytest.approx(fresh_il, abs=1e-12)

    @pytest.mark.parametrize("channel,n", LAYOUT_CASES)
    def test_live_joint_matches_the_linear_domain_joint(self, request, channel, n):
        # literal_joint multiplies the policy and channel factors on the
        # dense grid, by enumeration
        kernel, actions, rng = layout_case(request, channel)
        space = TrajectorySpace(kernel, actions, n)
        policy = make_random_policy(rng, n, space.u_size, space.z_size)
        rows = space.reachable_rows(policy)
        live = space.policy_product(rows).take(space.parent) * space.p_live
        reference = literal_joint(policy, kernel, actions)
        on_live = np.zeros((space.rows, space.cols), dtype=bool)
        on_live[live_index(space)] = True
        # the live entries are exactly those of positive channel law: the
        # policy is positive everywhere, so the joint is positive there too
        np.testing.assert_array_equal(on_live, reference > 0.0)
        if channel == "bsc":
            assert on_live.all()
        else:
            assert live.size == (12 ** n if channel == "markovian"
                                 else on_live.sum()) < on_live.size
        assert np.all(reference[~on_live] == 0.0)
        np.testing.assert_allclose(reference[on_live], live, rtol=0.0, atol=1e-14)
        # per_row sums the product against the past law into the row masses
        np.testing.assert_allclose(
            space.per_row(space.policy_product(rows), space.past_law),
            reference.sum(axis=1), rtol=0.0, atol=1e-14)


class TestTrajectoryLayout:
    def test_step_tables_follow_the_feedback_histories(self, request):
        for channel, n in LAYOUT_CASES:
            self.check_step_tables(*layout_case(request, channel)[:2], n)

    @staticmethod
    def check_step_tables(kernel, actions, n):
        space = TrajectorySpace(kernel, actions, n)
        u_size = space.u_size
        policy = make_random_policy(np.random.default_rng(0), n, u_size,
                                    space.z_size)
        tables = policy.tables
        level = live_prefixes(kernel, actions, 0)
        for i in range(1, n + 1):
            # the level-(i-1) prefixes, their past law and their histories
            np.testing.assert_allclose(space.measure[i - 1],
                                       [law for *_, law in level],
                                       rtol=0.0, atol=1e-14)
            ids = [_history_code(us, zs, u_size, space.z_size)
                   for us, _, zs, _ in level]
            np.testing.assert_array_equal(space.reach[i - 1], sorted(set(ids)))
            slot = space.slot[i - 1]
            np.testing.assert_array_equal(slot, slot[0] + np.arange(u_size)[:, None])
            np.testing.assert_array_equal(space.reach[i - 1][slot[0] // u_size], ids)
            # denom sums the past law over the prefixes of each history
            laws = defaultdict(list)
            for h, (*_, law) in zip(ids, level):
                laws[h].append(law)
            np.testing.assert_allclose(
                space.denom[i - 1], [math.fsum(laws[h]) for h in space.reach[i - 1]],
                rtol=0.0, atol=1e-14)
            # slot reads the reachable rows at (history, u_i)
            rows = space.reachable_rows(policy)[space.steps[i - 1]].ravel()
            for k, h in enumerate(ids):
                np.testing.assert_array_equal(rows[slot[:, k]], tables[i - 1][h])
            # each level-i prefix's step-i parent and step conditional
            nxt = live_prefixes(kernel, actions, i)
            rank = {(us, ys): k for k, (us, ys, _, _) in enumerate(level)}
            past = {(us, ys): law for us, ys, _, law in level}
            np.testing.assert_array_equal(
                space.up[i - 1],
                [us[-1] * len(level) + rank[us[:-1], ys[:-1]]
                 for us, ys, _, _ in nxt])
            np.testing.assert_allclose(
                space.cond[i - 1],
                [law / past[us[:-1], ys[:-1]] for us, ys, _, law in nxt],
                rtol=0.0, atol=1e-14)
            if i < n:
                level = nxt
        # the live entries are the level-N prefixes
        codes = [np.ravel_multi_index(ys, [space.y_size] * n) for _, ys, _, _ in nxt]
        np.testing.assert_array_equal(space.col, codes)
        np.testing.assert_allclose(space.p_live, [law for *_, law in nxt],
                                   rtol=0.0, atol=1e-14)
        # the policy product at the step-N parents (u_N, level-(N-1) prefix)
        dense = linear_policy_product(space, tables)
        prod = space.policy_product(space.reachable_rows(policy))
        for k, (us, ys, _, _) in enumerate(level):
            for u_n in range(u_size):
                row = np.ravel_multi_index(us + (u_n,), [u_size] * n)
                col = np.ravel_multi_index(ys + (0,), [space.y_size] * n)
                assert prod[u_n, k] == pytest.approx(dense[row, col], rel=0.0,
                                                     abs=1e-14)

    def test_step_slices_tile_the_reachable_rows(self, markovian_kernel,
                                                 markovian_actions):
        space = TrajectorySpace(markovian_kernel, markovian_actions, 3)
        rows = np.arange(space.steps[-1].stop)
        np.testing.assert_array_equal(
            np.concatenate([rows[step] for step in space.steps]), rows)
        assert [step.start for step in space.steps[1:]] == [
            step.stop for step in space.steps[:-1]]
        assert [len(rows[step]) for step in space.steps] == [
            len(reach) for reach in space.reach] == [1, 6, 36]

    def test_reachable_rows_round_trip(self, markovian_kernel,
                                       markovian_actions):
        space = TrajectorySpace(markovian_kernel, markovian_actions, 3)
        policy = make_random_policy(np.random.default_rng(7), 3, space.u_size,
                                    space.z_size)
        rows = space.reachable_rows(policy)
        assert rows.shape == (43, space.u_size)
        assert not rows.flags.writeable
        dense = space.dense_policy(rows)
        # steps 2 and 3 reach 6 of 12 and 36 of 144 histories
        assert space.n_hist == [1, 12, 144]
        for i, (step, reach) in enumerate(zip(space.steps, space.reach)):
            np.testing.assert_array_equal(rows[step], policy.tables[i][reach])
            np.testing.assert_array_equal(dense.tables[i][reach],
                                          policy.tables[i][reach])
            unreachable = np.ones(len(dense.tables[i]), dtype=bool)
            unreachable[reach] = False
            assert np.all(dense.tables[i][unreachable] == 1.0 / space.u_size)
        np.testing.assert_array_equal(space.reachable_rows(dense), rows)

    def test_policy_product_takes_one_array_of_rows(self, markovian_kernel,
                                                    markovian_actions):
        space = TrajectorySpace(markovian_kernel, markovian_actions, 3)
        rows = space.uniform_rows()
        per_step = tuple(rows[step] for step in space.steps)
        for misfit in (per_step, rows[:-1], rows[:, :-1], rows.ravel()):
            with pytest.raises(ValueError, match="do not fit the space's "
                               r"reachable rows \(43, 4\)"):
                space.policy_product(misfit)

    def test_update_r_returns_read_only_rows_and_flags(self, markovian_kernel,
                                                       markovian_actions):
        state = iterated_state(markovian_kernel, markovian_actions, 3, 0.3, 1)
        rows, flags = update_r(state)
        assert rows.shape == state.rows.shape == (43, state.space.u_size)
        assert flags.shape == (43,) and flags.dtype == bool
        assert not rows.flags.writeable and not flags.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0
        with pytest.raises(ValueError):
            flags[0] = True

    def test_reachable_histories_on_markovian(self, markovian_kernel,
                                              markovian_actions):
        space = TrajectorySpace(markovian_kernel, markovian_actions, 4)
        assert space.n_hist == [1, 12, 144, 1728]
        assert [len(r) for r in space.reach] == [1, 6, 36, 216]
        # the live parents: 4 * 12^3, 42% of the 4^4 * 4^3 (u^4, y^3)
        state = BaaState.initial(space, 0.0)
        assert (state.prod.shape == state.T.shape == space.slot[-1].shape
                == (4, 12 ** 3))

    @pytest.mark.parametrize("channel,n", LAYOUT_CASES)
    def test_unreachable_rows_of_an_update_are_uniform(self, request, channel, n):
        kernel, actions, _ = layout_case(request, channel)
        state = iterated_state(kernel, actions, n, 0.3, 2)
        rows, flags = update_r(state)
        space = state.space
        policy = space.dense_policy(rows)
        for table, reach in zip(policy.tables, space.reach):
            unreachable = np.ones(len(table), dtype=bool)
            unreachable[reach] = False
            assert np.all(table[unreachable] == 1.0 / space.u_size)
        assert flags.shape == (sum(len(reach) for reach in space.reach),)

    def test_tables_fit_in_four_dense_arrays(self, markovian_kernel,
                                                 markovian_actions):
        space = TrajectorySpace(markovian_kernel, markovian_actions, 4)
        arrays = []
        for value in vars(space).values():
            arrays.extend(value if isinstance(value, list) else [value])
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        total = sum(a.nbytes for a in arrays)
        assert total <= 4 * space.rows * space.cols * 8
        # no float table has the full [rows, cols] size: the step-N tables
        # hold the 12^4 live trajectories of the 16^4, indexed by intp ids,
        # which np.take and np.bincount read without a converted copy
        floats = [a for a in arrays if a.dtype.kind == "f"]
        assert all(a.size < space.rows * space.cols for a in floats)
        assert space.p_live.size == 12 ** 4
        assert space.parent.dtype == space.col.dtype == np.intp
        # everything else is smaller than the (u^4, y^3) parent grid
        parent_grid = space.rows * space.cols // space.y_size
        assert all(a.size < parent_grid for a in arrays
                   if a.size != space.p_live.size)


def space_nbytes(space):
    """Bytes of the distinct arrays a space holds, in lists too."""
    arrays = {}
    for value in vars(space).values():
        for a in value if isinstance(value, list) else [value]:
            if isinstance(a, np.ndarray):
                arrays[id(a)] = a
    return sum(a.nbytes for a in arrays.values())


class TestLiveCounts:
    """The pre-flight count of a space's live entries, made without a build."""

    @staticmethod
    def check(kernel, actions, n, s0=None):
        space = TrajectorySpace(kernel, actions, n, s0=s0)
        counts = TrajectorySpace.live_counts(kernel, actions, n, s0)
        assert counts == ([len(m) for m in space.measure[1:]]
                          + [len(space.p_live)])
        assert (TrajectorySpace.footprint(kernel, actions, n, s0)
                >= space_nbytes(space))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_markovian(self, markovian_kernel, markovian_actions, n):
        self.check(markovian_kernel, markovian_actions, n)
        # 12^N of the 16^N (u^N, y^N) are live
        assert TrajectorySpace.live_counts(markovian_kernel, markovian_actions,
                                           n)[-1] == 12 ** n

    @pytest.mark.parametrize("s0", [None, 0])
    def test_bsc(self, bsc_kernel, bsc_actions, s0):
        for n in (1, 2, 3):
            self.check(bsc_kernel, bsc_actions, n, s0)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           zero_share=st.sampled_from([0.0, 0.3, 0.6]), sampled=st.booleans(),
           start=st.integers(-1, 2))
    def test_random_channels(self, seed, n, zero_share, sampled, start):
        rng = np.random.default_rng(seed)
        s_size = int(rng.integers(1, 4))
        y_size = int(rng.integers(2, 4))
        kernel = make_random_kernel(rng, s_size, int(rng.integers(1, 4)),
                                    y_size, zero_share=zero_share)
        actions = sampling_actions(y_size) if sampled else make_trivial_actions(y_size)
        self.check(kernel, actions, n, None if start < 0 else start % s_size)


def feedback_actions(z_of_y, cost):
    """One action of the given cost whose feedback is z_of_y[y]."""
    return ActionSystem(
        feedback_size=max(z_of_y) + 1,
        sampling_table=np.array(z_of_y, dtype=int).reshape(1, 1, -1),
        cost_table=np.array([[cost]]),
    )


def deterministic_kernel():
    # y = x for x in {0, 1}; the third output y = 2 never occurs
    arr = np.zeros((1, 2, 3, 1))
    arr[0, 0, 0, 0] = arr[0, 1, 1, 0] = 1.0
    return FscKernel(arr, np.array([1.0]))


def brute_force_upper(kernel, actions, policy, lam):
    """max over every deterministic causal map u_i = g(u^{i-1}, z^{i-1}) of
    E[log2(p 2^(-lam Lambda) / d)] / N, with d the output law of policy.

    Single-action systems only: u = x, and each step costs cost_table[0, 0].
    """
    n, u_size = policy.block_length, policy.u_size
    y_size = kernel.output_size
    z_of = actions.sampling_table[0, 0]
    outputs = list(product(range(y_size), repeat=n))
    d = {}
    for ys in outputs:
        total = 0.0
        for us in product(range(u_size), repeat=n):
            weight = 1.0
            for i in range(n):
                h = _history_code(us[:i], [z_of[y] for y in ys[:i]], u_size,
                                  policy.z_size)
                weight *= policy.tables[i][h, us[i]]
            total += weight * causal_channel_prob(kernel, us, ys)
        d[ys] = total
    penalty = lam * n * actions.cost_table[0, 0]
    histories = [list(product(product(range(u_size), repeat=i),
                              product(range(policy.z_size), repeat=i)))
                 for i in range(n)]
    best = -math.inf
    for choice in product(*(product(range(u_size), repeat=len(h))
                            for h in histories)):
        maps = [dict(zip(h, c)) for h, c in zip(histories, choice)]
        value = 0.0
        for ys in outputs:
            us = ()
            for i in range(n):
                zs = tuple(z_of[y] for y in ys[:i])
                us += (maps[i][(us, zs)],)
            p = causal_channel_prob(kernel, us, ys)
            if p > 0.0:
                value += p * (math.log2(p) - penalty - math.log2(d[ys])
                              if d[ys] > 0.0 else math.inf)
        best = max(best, value / n)
    return best


class TestFold:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("channel", range(4))
    def test_upper_iterate_is_the_best_deterministic_map(self, channel, lam, n):
        rng = np.random.default_rng(channel)
        if channel == 0:
            kernel, z_of_y = deterministic_kernel(), [0, 1, 1]
        elif channel == 1:
            kernel, z_of_y = z_channel_kernel(), [0, 1]
        else:
            y_size = channel + 1
            kernel = make_random_kernel(rng, 2, 2, y_size, zero_share=0.5)
            z_of_y = [y % 2 for y in range(y_size)]
        assert np.any(kernel.kernel == 0.0)
        actions = feedback_actions(z_of_y, 0.5)
        policy = make_random_policy(rng, n, 2, 2)
        space = TrajectorySpace(kernel, actions, n)
        state = BaaState.initial(space, lam, start=space.reachable_rows(policy))
        assert upper_bound(state) == pytest.approx(
            brute_force_upper(kernel, actions, policy, lam), abs=1e-12)

    def test_upper_iterate_is_infinite_where_only_the_policy_kills_an_output(self):
        kernel, actions = z_channel_kernel(), feedback_actions([0, 1], 0.0)
        pinned = CausalPolicy((np.array([[1.0, 0.0]]),), 2)
        space = TrajectorySpace(kernel, actions, 1)
        state = BaaState.initial(space, 0.0, start=space.reachable_rows(pinned))
        # x = 1 reaches y = 1, which the pinned policy never produces
        assert brute_force_upper(kernel, actions, pinned, 0.0) == math.inf
        assert upper_bound(state) == math.inf

    def test_unused_output_raises_no_warning(self):
        # both p and d vanish on y = 2; the upper iterate's leaf is built
        # without an invalid subtraction
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 2, 3):
                curve = sweep_lambda(TrajectorySpace(deterministic_kernel(),
                                                     make_trivial_actions(3), n),
                                     lam_grid=[0.0, 0.1, 1.0])
                for point in curve.points:
                    assert point.converged
                    assert point.i_upper == pytest.approx(1.0, abs=1e-6)
                    assert point.unreachable_outputs == 3 ** n - 2 ** n


def sampled_priced_actions(y_size, costs):
    """sampling_actions with the given cost per action."""
    return dataclasses.replace(sampling_actions(y_size),
                               cost_table=np.reshape(costs, (2, 1)))


class TestStepPrice:
    """_fold prices each action at its own step. The reference prices the
    whole block at the step-N parents, lam sum_i Lambda(a_i) of each
    parent's row u^N, and folds at lam = 0: the earlier steps' price is
    constant on a history, so both folds pick the same tables and values."""

    @staticmethod
    def check(state):
        space, lam = state.space, state.lam
        # parent (u_N, c) of row (u^{N-1}, u_N), with prefix c in u^{N-1}'s run
        u_n, prefix = np.divmod(np.arange(space.slot[-1].size),
                                len(space.past_law))
        head = np.searchsorted(space.row_starts, prefix, side="right") - 1
        price = lam * space.cost_row[head * space.u_size + u_n].reshape(
            space.slot[-1].shape)
        fold = sampcap.baa._fold

        def priced_at_the_parents(space, g, lam, pick):
            # each caller's own sums and pick, so the reference writes into
            # fresh rows of its own
            return fold(space, g - price, 0.0, pick)

        rows, flags = update_r(state)
        i_upper = upper_bound(state)
        with mock.patch.object(sampcap.baa, "_fold", priced_at_the_parents):
            want_rows, want_flags = update_r(state)
            want = upper_bound(state)
        np.testing.assert_allclose(rows, want_rows, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(flags, want_flags)
        assert i_upper == pytest.approx(want, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.3, 10.0])
    def test_markovian(self, markovian_kernel, markovian_actions, lam):
        space = TrajectorySpace(markovian_kernel, markovian_actions, 3)
        policy = make_random_policy(np.random.default_rng(5), 3, space.u_size,
                                    space.z_size)
        state = BaaState.initial(space, lam, start=space.reachable_rows(policy))
        for _ in range(3):
            self.check(state)
            state = step(state)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3),
           zero_share=st.sampled_from([0.0, 0.3, 0.6]),
           lam=st.sampled_from([0.3, 10.0]))
    def test_random_channels(self, seed, n, zero_share, lam):
        rng = np.random.default_rng(seed)
        y_size = int(rng.integers(2, 4))
        kernel = make_random_kernel(rng, int(rng.integers(1, 4)),
                                    int(rng.integers(1, 3)), y_size,
                                    zero_share=zero_share)
        actions = sampled_priced_actions(y_size, rng.uniform(0.0, 2.0, 2))
        space = TrajectorySpace(kernel, actions, n)
        policy = make_random_policy(rng, n, space.u_size, space.z_size)
        state = BaaState.initial(space, lam, start=space.reachable_rows(policy))
        self.check(state)
        self.check(step(state))


class TestRunBaa:
    @pytest.mark.parametrize("eps", [0.0, -1e-6, math.inf, math.nan])
    def test_rejects_an_epsilon_that_is_not_positive_and_finite(
        self, bsc_kernel, bsc_actions, eps
    ):
        with pytest.raises(ValueError,
                           match="epsilon: must be a finite positive number"):
            run_baa(TrajectorySpace(bsc_kernel, bsc_actions, 1), 0.0, eps=eps)

    def test_lagrangian_decomposition_of_the_lower_iterate(
        self, markovian_kernel, markovian_actions
    ):
        lam = 0.3
        state = iterated_state(markovian_kernel, markovian_actions, 2, lam, 5)
        il = state.i_lower
        rate = literal_directed_info(state.r, markovian_kernel,
                                     markovian_actions) / 2.0
        joint = literal_joint(state.r, markovian_kernel, markovian_actions)
        # the action cost from the action digits a = u % 2, independent of
        # cost_row
        actions = np.array(list(product(range(4), repeat=2))) % 2
        per_row = markovian_actions.cost_table[actions, 0].sum(axis=1)
        cost = float(joint.sum(axis=1) @ per_row) / 2.0
        assert il == pytest.approx(rate - lam * cost, abs=1e-9)

    def test_fixed_point_is_stable(self, markovian_kernel, markovian_actions):
        space = TrajectorySpace(markovian_kernel, markovian_actions, 2)
        point = run_baa(space, 0.1)
        assert point.converged
        # one plain step from the final policy moves the lower iterate by no
        # more than a few epsilon
        state = BaaState.initial(space, 0.1, start=point.rows)
        assert state.i_lower == point.i_lower
        assert state.gamma == point.gamma
        assert abs(step(state).i_lower - point.i_lower) <= 10.0 * 1e-6

    def test_priced_sampling_regression(self, markovian_kernel, markovian_actions):
        # midrange penalty on the two-state channel: the bracket must close
        # and land on the midpoint of the free and forced values
        point = run_baa(TrajectorySpace(markovian_kernel, markovian_actions, 2), 0.5)
        assert point.converged
        assert point.final_gap <= 1e-6
        assert point.i_upper == pytest.approx(0.316603110, abs=5e-6)

    def test_memoryless_value_and_speed(self, bsc_kernel, bsc_actions):
        point = run_baa(TrajectorySpace(bsc_kernel, bsc_actions, 1), 0.0)
        assert point.converged
        assert point.gamma == 0.0
        assert point.i_upper == pytest.approx(0.188722, abs=1e-5)

    def test_dead_slices_count_only_reachable_histories(self, markovian_kernel,
                                                        markovian_actions):
        # markovian N=4 has 1 + 6 + 36 + 216 reachable histories of the
        # 1 + 12 + 144 + 1728; the other slices cannot occur and are not dead
        space = TrajectorySpace(markovian_kernel, markovian_actions, 4)
        point = run_baa(space, 10.0)
        assert point.converged
        assert point.dead_slices <= sum(len(r) for r in space.reach) == 259


def sampling_actions(y_size):
    """Action 1 costs 1 and feeds the output back; action 0 is free and blind."""
    table = np.zeros((2, 1, y_size), dtype=int)
    table[1, 0] = np.arange(1, y_size + 1)
    return ActionSystem(
        feedback_size=y_size + 1,
        sampling_table=table,
        cost_table=np.array([[0.0], [1.0]]),
    )


def plain_solve(space, lam, eps, max_iters):
    """The alternating map without over-relaxation, written out from its layers."""
    state = BaaState.initial(space, lam)
    for _ in range(max_iters):
        state = step(state)
        iu = upper_bound(state)
        if iu - state.i_lower <= eps:
            return iu, True
    return iu, False


class TestOverRelaxation:
    @settings(max_examples=12, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2),
           sampled=st.booleans(), lam=st.sampled_from([0.0, 0.1, 1.0]))
    def test_same_value_as_the_plain_map_with_a_certified_history(
        self, seed, n, sampled, lam
    ):
        rng = np.random.default_rng(seed)
        y_size = int(rng.integers(2, 4))
        kernel = make_random_kernel(rng, int(rng.integers(1, 3)),
                                    int(rng.integers(2, 4)), y_size)
        actions = sampling_actions(y_size) if sampled else make_trivial_actions(y_size)
        space = TrajectorySpace(kernel, actions, n)
        eps = 1e-6
        plain_upper, plain_converged = plain_solve(space, lam, eps, 20_000)
        assume(plain_converged)
        with bound_histories() as histories:
            point = sampcap.baa.run_baa(space, lam, eps=eps)
        assert point.converged
        # both upper iterates lie in [C_N(lambda), C_N(lambda) + eps]
        assert abs(point.i_upper - plain_upper) <= eps
        [history] = histories
        lows, ups = np.array(history).T
        assert lows.size == point.iterations
        assert np.all(lows <= ups + 1e-12)
        assert np.all(np.diff(lows) >= -1e-12)
        assert 0 <= point.rejected_steps <= point.iterations

    def test_default_grid_needs_a_sixth_of_the_plain_iterations(
        self, markovian_sweeps, markovian_config
    ):
        # the plain map took 12,466 (N=2) and 12,026 (N=3) iterations; the
        # guarded map takes 1,852 and 1,756, of which 241 and 229 are
        # rejected candidates
        limits = {2: 2040, 3: 1930}
        for n, limit in limits.items():
            points = markovian_sweeps[n].points
            iterations = sum(p.iterations for p in points)
            assert iterations <= limit
            assert sum(p.rejected_steps for p in points) <= 0.2 * iterations
            for point in points:
                assert point.converged
                assert point.iterations < 0.9 * markovian_config.max_iters
                assert 0 <= point.rejected_steps <= point.iterations


def stacked_over_relax(previous, plain, relax, flagged):
    """The over-relaxed step on the stacked rows, its row maxima and sums
    folded column by column."""
    def fold_columns(op, a):
        out = a[:, 0].copy()
        for j in range(1, a.shape[1]):
            out = op(out, a[:, j])
        return out

    with np.errstate(divide="ignore", invalid="ignore"):
        log_new = np.log2(plain)
        move = log_new - np.log2(previous)
    move[~np.isfinite(move)] = 0.0
    log_new += (relax - 1.0) * move
    log_new -= fold_columns(np.maximum, log_new)[:, None]
    table = np.exp2(log_new)
    table /= fold_columns(np.add, table)[:, None]
    table[flagged] = plain[flagged]
    return table


class TestOverRelaxStep:
    """_over_relax on an N=3 iterate, from the plain update of its policy."""

    @staticmethod
    def random_case():
        # a start policy that never plays u = 0 leaves zeros in the previous
        # rows and in the plain update, and slices that receive no weight
        rng = np.random.default_rng(4)
        kernel = make_random_kernel(rng, 2, 2, 3, zero_share=0.5)
        space = TrajectorySpace(kernel, sampling_actions(3), 3)
        rows = space.reachable_rows(
            make_random_policy(rng, 3, space.u_size, space.z_size)).copy()
        rows[:, 0] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        return BaaState.initial(space, 0.3, start=rows)

    @pytest.mark.parametrize("channel", ["markovian", "random"])
    @pytest.mark.parametrize("relax", [sampcap.baa.RELAX_START, 5.0,
                                       sampcap.baa.RELAX_MAX])
    def test_step(self, markovian_kernel, markovian_actions, channel, relax):
        if channel == "markovian":
            state = iterated_state(markovian_kernel, markovian_actions, 3,
                                   0.3, 3)
        else:
            state = self.random_case()
        plain, flags = update_r(state)
        got = sampcap.baa._over_relax(state.rows, plain, relax, flags)
        space = state.space
        assert got.shape == plain.shape == (space.steps[-1].stop, space.u_size)
        assert not got.flags.writeable
        np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(got[flags], plain[flags])
        want = stacked_over_relax(state.rows, plain, relax, flags)
        assert got.tobytes() == want.tobytes()
        if channel == "random":
            assert flags.sum() > 0
            assert (state.rows == 0.0).any()
            assert (plain == 0.0).any()


class TestSweep:
    def test_a_huge_budget_grid_is_refused_before_any_solve(
        self, bsc_kernel, bsc_actions, monkeypatch
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_baa ran")

        monkeypatch.setattr(sampcap.baa, "run_baa", no_solve)
        space = TrajectorySpace(bsc_kernel, bsc_actions, 1)
        limit = sampcap.baa.MAX_GAMMA_POINTS
        with pytest.raises(ValueError, match=f"^gamma_points: must be at "
                                             f"most {limit}$"):
            sweep_lambda(space, [0.0], gamma_points=10**12)
        assert sampcap.baa.sweep_violations(gamma_points=limit) == []
        assert sampcap.baa.sweep_violations(gamma_points=limit + 1) == [
            f"gamma_points: must be at most {limit}"]

    def test_default_grid_shape(self):
        grid = default_lambda_grid()
        assert grid[0] == 0.0
        assert len(grid) == 26
        assert grid[1] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(10.0)
        assert np.all(np.diff(grid) > 0.0)

    def test_points_sorted_by_lambda(self, markovian_sweeps):
        for curve in markovian_sweeps.values():
            lams = [p.lam for p in curve.points]
            assert lams == sorted(lams)
            assert len(lams) == 26

    def test_measured_cost_shrinks_with_the_penalty(self, markovian_sweeps):
        # near-flat optima leave a little numerical wobble in the measured
        # cost, but the trend over the penalty grid must be downward
        for curve in markovian_sweeps.values():
            gammas = np.array([p.gamma for p in curve.points])
            assert np.all(np.diff(gammas) <= 5e-3)
            assert gammas[-1] <= 1e-3
            assert gammas[0] >= gammas[-1]

    def test_envelope_monotone_and_concave(self, markovian_sweeps):
        for curve in markovian_sweeps.values():
            env = curve.envelope
            assert np.all(np.diff(env) >= -1e-9)
            assert np.all(np.diff(env, 2) <= 1e-9)

    def test_envelope_endpoint_is_the_free_value(self, markovian_sweeps):
        for curve in markovian_sweeps.values():
            free = curve.points[0]
            assert free.lam == 0.0
            assert curve.envelope_at(curve.max_cost) == pytest.approx(
                free.i_upper, abs=1e-9
            )
            # the lowest line at the top budget is the lambda = 0 point's
            lines = [p.i_upper + p.lam * curve.max_cost for p in curve.points]
            assert int(np.argmin(lines)) == 0

    def test_zero_cost_system_has_a_single_budget(self, bsc_sweeps):
        for curve in bsc_sweeps.values():
            np.testing.assert_array_equal(curve.gammas, [0.0])
            assert curve.max_cost == 0.0

    def test_curve_validation_rejects_a_decreasing_envelope(self):
        point = TradeoffPoint(
            lam=0.0, gamma=0.5, i_lower=0.3, i_upper=0.3,
            iterations=1, final_gap=0.0, converged=True,
        )
        with pytest.raises(ValueError, match="nondecreasing"):
            TradeoffCurve(
                block_length=1,
                max_cost=1.0,
                points=(point,),
                gammas=np.array([0.0, 0.5, 1.0]),
                envelope=np.array([0.3, 0.2, 0.1]),
            )

    def test_grid_must_be_nonempty_and_nonnegative(self, bsc_kernel, bsc_actions):
        space = TrajectorySpace(bsc_kernel, bsc_actions, 1)
        with pytest.raises(ValueError, match="nonempty"):
            sweep_lambda(space, lam_grid=[])
        with pytest.raises(ValueError, match="nonnegative"):
            sweep_lambda(space, lam_grid=[-0.5])



class TestContinuation:
    def test_ascending_chain_converges_away_from_the_cap(
        self, markovian_config
    ):
        # solved in descending order from lambda = 10, where sampling is
        # priced out, lambda = 0.1 at N=3 runs into the iteration cap
        cfg = markovian_config
        curve = sweep_lambda(TrajectorySpace(cfg.kernel, cfg.actions, 3),
                             lam_grid=[10.0, 0.146779926762, 0.0681292069058,
                                       0.1],
                             eps=cfg.epsilon, max_iters=cfg.max_iters)
        assert [p.lam for p in curve.points] == sorted(p.lam for p in curve.points)
        for point in curve.points:
            assert point.converged
            assert point.final_gap <= cfg.epsilon
            assert point.iterations < 0.9 * cfg.max_iters

    def test_chained_points_match_cold_starts(self, markovian_config):
        # both upper iterates lie in [C_N(lambda), C_N(lambda) + eps]
        cfg = markovian_config
        grid = [0.0, 0.01, 0.1, 1.0]
        space = TrajectorySpace(cfg.kernel, cfg.actions, 2)
        curve = sweep_lambda(space, lam_grid=grid, eps=cfg.epsilon,
                             max_iters=cfg.max_iters)
        for point in curve.points:
            cold = run_baa(space, point.lam, eps=cfg.epsilon,
                           max_iters=cfg.max_iters)
            assert point.converged and cold.converged
            assert abs(point.i_upper - cold.i_upper) <= cfg.epsilon
        # the first point has nothing to start from; later ones save work
        assert curve.points[0].iterations == run_baa(
            space, 0.0, eps=cfg.epsilon, max_iters=cfg.max_iters).iterations

    @pytest.mark.parametrize("solve", [
        lambda space: sweep_lambda(space, lam_grid=[0.0, 0.5, 1.0]),
    ], ids=["sweep"])
    def test_every_probe_receives_the_callers_space(
        self, markovian_kernel, markovian_actions, monkeypatch, solve
    ):
        import sampcap.baa as baa_module

        space = TrajectorySpace(markovian_kernel, markovian_actions, 2)
        built, probes = [], []
        init = TrajectorySpace.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def recording_run_baa(probe_space, *args, **kwargs):
            probes.append(probe_space)
            return run_baa(probe_space, *args, **kwargs)

        monkeypatch.setattr(TrajectorySpace, "__init__", counting_init)
        monkeypatch.setattr(baa_module, "run_baa", recording_run_baa)
        solve(space)
        assert len(probes) >= 3
        assert all(probe is space for probe in probes)
        assert built == []

    def test_start_policy_and_space_are_used(self, markovian_kernel,
                                             markovian_actions):
        space = TrajectorySpace(markovian_kernel, markovian_actions, 2)
        converged = run_baa(space, 0.5)
        state = BaaState.initial(space, 0.5, start=converged.rows)
        assert state.space is space
        final = space.dense_policy(converged.rows)
        for table, want in zip(state.r.tables, final.tables, strict=True):
            np.testing.assert_array_equal(table, want)
        # restarting at the optimum closes the bracket at once
        again = run_baa(space, 0.5, start=converged.rows)
        assert again.converged
        assert again.iterations < converged.iterations
        assert again.i_upper == pytest.approx(converged.i_upper, abs=1e-6)
        with pytest.raises(ValueError, match="do not fit"):
            BaaState.initial(TrajectorySpace(markovian_kernel,
                                             markovian_actions, 3),
                             0.5, start=converged.rows)

    def test_a_cold_start_builds_no_dense_policy(self, markovian_kernel,
                                                 markovian_actions,
                                                 monkeypatch):
        # the uniform start is formed on the reachable histories alone
        space = TrajectorySpace(markovian_kernel, markovian_actions, 3)
        dense = BaaState.initial(space, 0.3, start=space.reachable_rows(
            space.dense_policy(space.uniform_rows())))
        built = []
        check = CausalPolicy.__post_init__

        def counting_post_init(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(CausalPolicy, "__post_init__", counting_post_init)
        cold = BaaState.initial(space, 0.3)
        assert built == []
        assert cold.i_lower == dense.i_lower
        assert cold.gamma == dense.gamma
        for got, want in zip(cold.rows, dense.rows, strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(cold.prod, dense.prod)
        np.testing.assert_array_equal(cold.T, dense.T)
        np.testing.assert_array_equal(cold.d, dense.d)

    @pytest.mark.parametrize("shape", [(3, 4, 3), (2, 2, 3), (2, 4, 4),
                                       (2, 4, 2)],
                             ids=["block-length", "u", "z-larger", "z-smaller"])
    def test_a_start_policy_that_does_not_fit_the_space_is_rejected(
        self, markovian_kernel, markovian_actions, shape
    ):
        # markovian N=2: |U| = 4 input-action pairs, |Z| = 3 feedback symbols
        space = TrajectorySpace(markovian_kernel, markovian_actions, 2)
        policy = uniform_policy(*shape)
        expected = re.escape(f"{shape} does not fit the space's alphabets "
                             "(2, 4, 3)")
        with pytest.raises(ValueError, match=expected):
            space.reachable_rows(policy)

    @pytest.mark.parametrize("shape", [(43, 4), (8, 4), (7, 5)],
                             ids=["block-length", "rows", "columns"])
    def test_update_q_rejects_a_policy_that_does_not_fit_the_space(
        self, markovian_kernel, markovian_actions, shape
    ):
        # markovian N=2 has 1 + 6 reachable histories and |U| = 4, N=3 has
        # 1 + 6 + 36; every misfit indexes within the N=2 rows, so without
        # the check it would yield an iterate with a finite lower bound
        space = TrajectorySpace(markovian_kernel, markovian_actions, 2)
        rows = np.full(shape, 1.0 / shape[1])
        expected = re.escape(f"{shape} do not fit the space's reachable rows "
                             "(7, 4)")
        with pytest.raises(ValueError, match=expected):
            update_q(space, 0.1, rows)
        with pytest.raises(ValueError, match=expected):
            run_baa(space, 0.1, start=rows)

    def test_a_solve_and_a_sweep_build_no_dense_policy(
        self, markovian_kernel, markovian_actions, monkeypatch
    ):
        # a policy stays reachable rows from the start to the point, however
        # many iterations run, and from one sweep point to the next
        space = TrajectorySpace(markovian_kernel, markovian_actions, 2)
        built = []
        init = CausalPolicy.__post_init__

        def counting_init(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(CausalPolicy, "__post_init__", counting_init)
        for max_iters in (2, 6):
            point = run_baa(space, 1e-3, max_iters=max_iters)
            assert not point.converged and point.iterations == max_iters
        curve = sweep_lambda(space, lam_grid=[0.0, 0.1, 1.0])
        assert len(curve.points) == 3
        assert built == []

    @settings(max_examples=8)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2),
           sampled=st.booleans())
    def test_sweep_points_match_cold_starts_on_random_channels(self, seed, n,
                                                               sampled):
        # both upper iterates lie in [C_N(lambda), C_N(lambda) + eps]
        rng = np.random.default_rng(seed)
        y_size = int(rng.integers(2, 4))
        kernel = make_random_kernel(rng, int(rng.integers(1, 3)),
                                    int(rng.integers(2, 4)), y_size)
        actions = sampling_actions(y_size) if sampled else make_trivial_actions(y_size)
        space = TrajectorySpace(kernel, actions, n)
        eps = 1e-6
        curve = sweep_lambda(space, [0.0, 0.1, 1.0], eps=eps)
        for point in curve.points:
            assert point.converged
            cold = run_baa(space, point.lam, eps=eps)
            assert cold.converged
            assert abs(point.i_upper - cold.i_upper) <= eps


class TestSandwich:
    def test_lower_never_exceeds_upper(self, markovian_sweeps):
        for n, curve in markovian_sweeps.items():
            lower = sandwich_bounds(curve)
            finite = np.isfinite(lower)
            assert finite.any()
            assert np.all(curve.gammas[finite] >= curve.max_cost / n - 1e-12)
            assert np.all(lower[finite] <= curve.envelope[finite] + 1e-12)

    def test_shift_matches_the_block_length(self, markovian_sweeps):
        curve = markovian_sweeps[2]
        lower = sandwich_bounds(curve)
        shift = curve.max_cost / 2
        top = curve.gammas[-1]
        assert lower.shape == curve.gammas.shape
        assert lower[-1] == pytest.approx(curve.envelope_at(top - shift))
        # one tangent-line envelope serves the curve, the sandwich and
        # envelope_at
        assert [curve.envelope_at(g) for g in curve.gammas] == curve.envelope.tolist()

    def test_zero_cost_sandwich_collapses(self, bsc_sweeps):
        curve = bsc_sweeps[1]
        np.testing.assert_allclose(sandwich_bounds(curve), curve.envelope)


class TestBracketing:
    def test_bounds_bracket_and_lower_is_monotone(self, markovian_traced):
        curves, histories = markovian_traced
        for n, curve in curves.items():
            for point, history in zip(curve.points, histories[n], strict=True):
                lows, ups = history.T
                assert lows.size == point.iterations
                assert np.all(lows <= ups + 1e-12)
                assert np.all(np.diff(lows) >= -1e-12)

    def test_free_sampling_landmarks(self, markovian_sweeps):
        # with free sampling the per-letter value is the informed-encoder
        # capacity at every block length
        for n in (2, 3):
            free = markovian_sweeps[n].points[0]
            assert free.lam == 0.0
            assert free.i_upper == pytest.approx(math.log2(5.0) - 2.0, abs=2e-6)
