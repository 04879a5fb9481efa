"""Action systems, feedback sampling, expected costs."""

import math

import numpy as np
import pytest

from sampcap import (
    ActionSystem,
    Alphabet,
    CausalPolicy,
    HistoryIndexer,
    literal_joint,
    sample_feedback,
)
from sampcap.trajectory import TrajectorySpace

from conftest import make_random_kernel, make_random_policy


class TestActionSystemValidation:
    def test_sampling_values_must_be_feedback_symbols(self):
        with pytest.raises(ValueError, match="feedback alphabet"):
            ActionSystem(
                encoder_actions=Alphabet(1),
                decoder_actions=Alphabet(1),
                feedback_alphabet=Alphabet(1),
                sampling_table=np.full((1, 1, 2), 3, dtype=int),
                cost_table=np.zeros((1, 1)),
            )

    def test_sampling_axes_checked(self):
        with pytest.raises(ValueError, match=r"sampling_table: must be indexed "
                                             r"\[encoder action\]\[decoder action\]"
                                             r"\[channel output\]"):
            ActionSystem(
                encoder_actions=Alphabet(2),
                decoder_actions=Alphabet(1),
                feedback_alphabet=Alphabet(2),
                sampling_table=np.zeros((1, 1, 2), dtype=int),
                cost_table=np.zeros((2, 1)),
            )

    def test_cost_shape_checked(self):
        with pytest.raises(ValueError, match="cost_table"):
            ActionSystem(
                encoder_actions=Alphabet(2),
                decoder_actions=Alphabet(1),
                feedback_alphabet=Alphabet(2),
                sampling_table=np.zeros((2, 1, 2), dtype=int),
                cost_table=np.zeros((1, 1)),
            )

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ActionSystem(
                encoder_actions=Alphabet(1),
                decoder_actions=Alphabet(1),
                feedback_alphabet=Alphabet(1),
                sampling_table=np.zeros((1, 1, 2), dtype=int),
                cost_table=np.array([[-1.0]]),
            )

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            ActionSystem(
                encoder_actions=Alphabet(1),
                decoder_actions=Alphabet(1),
                feedback_alphabet=Alphabet(1),
                sampling_table=np.zeros((1, 1, 2), dtype=int),
                cost_table=np.zeros((1, 1)),
                budget=-0.5,
            )

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget: must be a finite nonnegative "
                                             "number"):
            ActionSystem(
                encoder_actions=Alphabet(1),
                decoder_actions=Alphabet(1),
                feedback_alphabet=Alphabet(1),
                sampling_table=np.zeros((1, 1, 2), dtype=int),
                cost_table=np.zeros((1, 1)),
                budget=budget,
            )

    def test_derived_properties(self, markovian_actions):
        assert markovian_actions.output_size == 4
        assert markovian_actions.max_cost == 1.0


class TestSampleFeedback:
    def test_idle_action_gives_the_constant_symbol(self, markovian_actions):
        assert all(sample_feedback(markovian_actions, 0, 0, y) == 2 for y in range(4))

    def test_sampling_action_reads_the_state_component(self, markovian_actions):
        got = [sample_feedback(markovian_actions, 1, 0, y) for y in range(4)]
        assert got == [0, 1, 0, 1]

    def test_range_checks(self, markovian_actions):
        with pytest.raises(IndexError, match="encoder action"):
            sample_feedback(markovian_actions, 2, 0, 0)
        with pytest.raises(IndexError, match="decoder action"):
            sample_feedback(markovian_actions, 0, 1, 0)
        with pytest.raises(IndexError, match="output symbol"):
            sample_feedback(markovian_actions, 0, 0, 4)


def priced_sampling_actions(rng, y_size):
    """Action 1 feeds the output back, action 0 is blind; both at random costs."""
    table = np.zeros((2, 1, y_size), dtype=int)
    table[1, 0] = np.arange(1, y_size + 1)
    return ActionSystem(
        encoder_actions=Alphabet(2),
        decoder_actions=Alphabet(1),
        feedback_alphabet=Alphabet(y_size + 1),
        sampling_table=table,
        cost_table=rng.random((2, 1)) * 3.0,
    )


def literal_expected_cost(joint, actions, n, u_size):
    """(1/N) sum over trajectories of joint * sum_i Lambda(a_i), one term each."""
    a_size = actions.encoder_actions.size
    terms = []
    for row in range(joint.shape[0]):
        code, cost = row, 0.0
        for _ in range(n):
            code, u = divmod(code, u_size)
            cost += float(actions.cost_table[u % a_size, 0])
        for col in range(joint.shape[1]):
            terms.append(float(joint[row, col]) * cost)
    return math.fsum(terms) / n


def expected_cost(kernel, actions, policy):
    space = TrajectorySpace(kernel, actions, policy.block_length)
    return space.expected_cost(
        literal_joint(policy, kernel, actions).sum(axis=1))


class TestExpectedCost:
    def test_uniform_policy_pays_half(self, markovian_kernel, markovian_actions):
        policy = CausalPolicy.uniform(2, 4, 3)
        assert expected_cost(markovian_kernel, markovian_actions,
                             policy) == pytest.approx(0.5, abs=1e-12)

    def test_always_sampling_pays_the_full_cost(self, markovian_kernel, markovian_actions):
        # u = (x, a) is coded x * 2 + a, so a = 1 lives on odd u symbols
        indexer = HistoryIndexer(4, 3)
        tables = []
        for i in (1, 2):
            t = np.zeros((indexer.n_histories(i), 4))
            t[:, 1] = 0.5
            t[:, 3] = 0.5
            tables.append(t)
        policy = CausalPolicy(2, 4, 3, tuple(tables))
        assert expected_cost(markovian_kernel, markovian_actions,
                             policy) == pytest.approx(1.0, abs=1e-12)

    def test_zero_cost_system_pays_nothing(self, bsc_kernel, bsc_actions):
        policy = CausalPolicy.uniform(2, 2, 1)
        assert expected_cost(bsc_kernel, bsc_actions, policy) == 0.0

    def test_decoder_side_must_be_singleton(self, bsc_kernel):
        two_sided = ActionSystem(
            encoder_actions=Alphabet(1),
            decoder_actions=Alphabet(2),
            feedback_alphabet=Alphabet(1),
            sampling_table=np.zeros((1, 2, 2), dtype=int),
            cost_table=np.zeros((1, 2)),
        )
        with pytest.raises(ValueError, match="singleton"):
            TrajectorySpace(bsc_kernel, two_sided, 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("channel", ["markovian", "random"])
    def test_row_sums_match_a_per_trajectory_sum(
        self, markovian_kernel, markovian_actions, channel, n
    ):
        rng = np.random.default_rng(n)
        if channel == "markovian":
            kernel, actions = markovian_kernel, markovian_actions
        else:
            kernel = make_random_kernel(rng, 2, 2, 3)
            actions = priced_sampling_actions(rng, 3)
        space = TrajectorySpace(kernel, actions, n)
        scale = actions.max_cost
        assert scale > 0.0

        def agrees(joint):
            literal = literal_expected_cost(joint, actions, n, space.u_size)
            return (abs(space.expected_cost(joint.sum(axis=1)) - literal)
                    <= 1e-15 * scale)

        for _ in range(3):
            policy = make_random_policy(rng, n, space.u_size, space.z_size)
            joint = literal_joint(policy, kernel, actions)
            assert agrees(joint)
        # rows that carry no mass at all contribute nothing
        joint = joint.copy()
        joint[rng.random(space.rows) < 0.5] = 0.0
        joint[-1] = 0.0
        assert agrees(joint)
