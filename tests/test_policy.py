"""History indexing, causal policies, the literal joint, directed information."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampcap import (
    CausalPolicy,
    FscKernel,
    HistoryIndexer,
    binary_entropy,
    causal_channel_prob,
    literal_joint,
    sample_feedback,
)
from sampcap.trajectory import TrajectorySpace

from conftest import (
    live_directed_info,
    make_random_kernel,
    make_random_policy,
    make_trivial_actions,
    mutual_information,
)


class TestHistoryIndexer:
    @given(data=st.data())
    def test_encode_decode_roundtrip(self, data):
        u_size = data.draw(st.integers(1, 4), label="u_size")
        z_size = data.draw(st.integers(1, 3), label="z_size")
        step = data.draw(st.integers(1, 4), label="step")
        symbol = st.tuples(st.integers(0, u_size - 1), st.integers(0, z_size - 1))
        pairs = data.draw(
            st.lists(symbol, min_size=step - 1, max_size=step - 1), label="history"
        )
        u_hist = [u for u, _ in pairs]
        z_hist = [z for _, z in pairs]
        indexer = HistoryIndexer(u_size, z_size)
        code = indexer.encode(u_hist, z_hist)
        assert 0 <= code < indexer.n_histories(step)
        assert indexer.decode(step, code) == (tuple(u_hist), tuple(z_hist))

    def test_earliest_step_is_most_significant(self):
        indexer = HistoryIndexer(2, 2)
        # u code 0b10 = 2, z code 0b00 = 0 -> 2 * 4 + 0
        assert indexer.encode([1, 0], [0, 0]) == 8
        # u code 0b01 = 1, z code 0b01 = 1 -> 1 * 4 + 1
        assert indexer.encode([0, 1], [0, 1]) == 5

    def test_mismatched_history_lengths_raise(self):
        with pytest.raises(ValueError, match="equal length"):
            HistoryIndexer(2, 2).encode([0, 1], [0])

    def test_out_of_range_symbols_raise(self):
        with pytest.raises(ValueError, match="out of range"):
            HistoryIndexer(2, 2).encode([2], [0])


class TestCausalPolicy:
    def test_uniform_tables_normalize(self):
        policy = CausalPolicy.uniform(3, 4, 3)
        for i, table in enumerate(policy.tables, start=1):
            assert table.shape == (12 ** (i - 1), 4)
            np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)

    def test_bad_slice_sum_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            CausalPolicy(1, 2, 1, (np.array([[0.6, 0.6]]),))

    def test_table_count_checked(self):
        with pytest.raises(ValueError, match="one conditional table"):
            CausalPolicy(2, 2, 1, (np.full((1, 2), 0.5),))

    def test_table_shape_checked(self):
        with pytest.raises(ValueError, match="expected"):
            CausalPolicy(2, 2, 2, (np.full((1, 2), 0.5), np.full((3, 2), 0.5)))


def literal_and_live(kernel, actions, policy, s0=None):
    """A policy's literal joint and its live directed information."""
    space = TrajectorySpace(kernel, actions, policy.block_length, s0=s0)
    return (literal_joint(policy, kernel, actions, s0),
            live_directed_info(space, policy))


class TestLiteralJoint:
    def test_joint_normalizes(self, markovian_kernel, markovian_actions):
        rng = np.random.default_rng(0)
        policy = make_random_policy(rng, 2, 4, 3)
        joint = literal_joint(policy, markovian_kernel, markovian_actions)
        assert abs(joint.sum() - 1.0) <= 1e-9

    def test_causal_factorization(self, markovian_kernel, markovian_actions):
        # every trajectory probability is the policy product, read at the
        # sampled feedback, times the causal channel law of the belief
        # recursion, reconstructed here from the raw tables
        rng = np.random.default_rng(1)
        policy = make_random_policy(rng, 2, 4, 3)
        joint = literal_joint(policy, markovian_kernel, markovian_actions)
        for row, u_seq in enumerate(product(range(4), repeat=2)):
            x_seq = [u // 2 for u in u_seq]
            for col, y_seq in enumerate(product(range(4), repeat=2)):
                z_seq = [
                    sample_feedback(markovian_actions, u_seq[i] % 2, 0, y_seq[i])
                    for i in range(2)
                ]
                q = 1.0
                for i in range(2):
                    slot = policy.indexer.encode(u_seq[:i], z_seq[:i])
                    q *= policy.tables[i][slot, u_seq[i]]
                p = causal_channel_prob(markovian_kernel, x_seq, y_seq)
                assert joint[row, col] == pytest.approx(q * p, abs=1e-12)

    def test_alphabet_mismatch_raises(self, markovian_kernel, markovian_actions):
        policy = CausalPolicy.uniform(2, 2, 1)
        with pytest.raises(ValueError, match="alphabets"):
            literal_joint(policy, markovian_kernel, markovian_actions)


class TestDirectedInformation:
    """The optimizer's directed information, N I_L at lambda = 0."""

    def test_memoryless_uniform_input_rate(self, bsc_kernel):
        policy = CausalPolicy.uniform(3, 2, 1)
        space = TrajectorySpace(bsc_kernel, make_trivial_actions(2), 3)
        expected = 3.0 * (1.0 - binary_entropy(0.25))
        assert live_directed_info(space, policy) == pytest.approx(expected,
                                                                  abs=1e-12)

    def test_no_feedback_makes_it_mutual_information(self):
        rng = np.random.default_rng(11)
        k = make_random_kernel(rng, 2, 2, 2)
        policy = make_random_policy(rng, 2, 2, 1)
        joint, di = literal_and_live(k, make_trivial_actions(2), policy)
        assert di == pytest.approx(mutual_information(joint), abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_never_exceeds_mutual_information(self, seed):
        rng = np.random.default_rng(seed)
        k = make_random_kernel(rng, 2, 2, 2)
        policy = make_random_policy(rng, 2, 2, 1)
        joint, di = literal_and_live(k, make_trivial_actions(2), policy)
        assert 0.0 <= di <= mutual_information(joint) + 1e-12

    def test_conditional_average_and_state_bound(self, markovian_kernel,
                                                 markovian_actions):
        rng = np.random.default_rng(3)
        policy = make_random_policy(rng, 2, 4, 3)
        mixed = FscKernel(
            state_alphabet=markovian_kernel.state_alphabet,
            input_alphabet=markovian_kernel.input_alphabet,
            output_alphabet=markovian_kernel.output_alphabet,
            kernel=markovian_kernel.kernel,
            initial_dist=np.array([0.5, 0.5]),
        )
        per_state = [live_directed_info(
            TrajectorySpace(mixed, markovian_actions, 2, s0=s), policy)
            for s in (0, 1)]
        average = 0.5 * per_state[0] + 0.5 * per_state[1]
        unconditional = live_directed_info(
            TrajectorySpace(mixed, markovian_actions, 2), policy)
        # knowing the start state moves the value by at most log2 |S| = 1 bit
        assert abs(unconditional - average) <= 1.0 + 1e-12
