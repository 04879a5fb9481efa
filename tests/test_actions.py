"""Action systems, feedback sampling, expected costs."""

import numpy as np
import pytest

from sampcap import (
    ActionSystem,
    Alphabet,
    CausalPolicy,
    HistoryIndexer,
    build_joint,
    sample_feedback,
)
from sampcap.trajectory import TrajectorySpace


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
        with pytest.raises(ValueError, match=r"\[a_e\]\[a_d\]\[y\]"):
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


def expected_cost(kernel, actions, policy):
    space = TrajectorySpace(kernel, actions, policy.block_length)
    return space.expected_cost(build_joint(policy, kernel, actions).probs)


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

