"""History codes, causal policies, the literal joint, directed information."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampcap import (
    CausalPolicy,
    FscKernel,
    literal_joint,
)
from sampcap.oracle import _history_code
from sampcap.trajectory import TrajectorySpace

from conftest import (
    binary_entropy,
    causal_channel_prob,
    live_directed_info,
    make_random_kernel,
    make_random_policy,
    make_trivial_actions,
    mutual_information,
    uniform_policy,
)


class TestHistoryCode:
    """The table row of a history (u^{i-1}, z^{i-1}) in a CausalPolicy, as
    the brute-force oracle computes it."""

    @settings(max_examples=20)
    @given(u_size=st.integers(1, 4), z_size=st.integers(1, 3),
           step=st.integers(1, 4))
    def test_histories_number_the_table_rows(self, u_size, z_size, step):
        # every history of a step has its own row of the step's table
        codes = sorted(
            _history_code(u_hist, z_hist, u_size, z_size)
            for u_hist in product(range(u_size), repeat=step - 1)
            for z_hist in product(range(z_size), repeat=step - 1))
        table = uniform_policy(step, u_size, z_size).tables[step - 1]
        assert codes == list(range(len(table)))

    def test_earliest_step_is_most_significant(self):
        # u code 0b10 = 2, z code 0b00 = 0 -> 2 * 4 + 0
        assert _history_code([1, 0], [0, 0], 2, 2) == 8
        # u code 0b01 = 1, z code 0b01 = 1 -> 1 * 4 + 1
        assert _history_code([0, 1], [0, 1], 2, 2) == 5


class TestCausalPolicy:
    def test_uniform_tables_normalize(self, markovian_kernel,
                                      markovian_actions):
        # the uniform slice fills every history the space does not reach
        space = TrajectorySpace(markovian_kernel, markovian_actions, 3)
        policy = space.dense_policy(space.uniform_rows())
        assert (policy.block_length, policy.u_size, policy.z_size) == (3, 4, 3)
        for i, table in enumerate(policy.tables, start=1):
            assert table.shape == (12 ** (i - 1), 4)
            np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)

    def test_bad_slice_sum_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            CausalPolicy((np.array([[0.6, 0.6]]),), 1)

    @pytest.mark.parametrize("tables", [(), (np.full(2, 0.5),)])
    def test_a_table_per_step_and_at_least_one_step(self, tables):
        with pytest.raises(ValueError, match="at least one step"):
            CausalPolicy(tables, 1)

    def test_table_shape_checked(self):
        with pytest.raises(ValueError, match="expected"):
            CausalPolicy((np.full((1, 2), 0.5), np.full((3, 2), 0.5)), 2)

    @pytest.mark.parametrize("z_size", [0, 1.5, True, 3.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_z_size_must_be_a_positive_integer(self, n, z_size):
        # at N = 2 the step-2 table has (2 * 3, 2) rows for |Z| = 3
        tables = tuple(np.full((6 ** i, 2), 0.5) for i in range(n))
        with pytest.raises(ValueError,
                           match="z_size: must be a positive integer"):
            CausalPolicy(tables, z_size)


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
                    int(markovian_actions.sampling_table[u_seq[i] % 2, 0, y_seq[i]])
                    for i in range(2)
                ]
                q = 1.0
                for i in range(2):
                    slot = _history_code(u_seq[:i], z_seq[:i], 4, 3)
                    q *= policy.tables[i][slot, u_seq[i]]
                p = causal_channel_prob(markovian_kernel, x_seq, y_seq)
                assert joint[row, col] == pytest.approx(q * p, abs=1e-12)

    def test_alphabet_mismatch_raises(self, markovian_kernel, markovian_actions):
        policy = CausalPolicy((np.full((1, 2), 0.5), np.full((2, 2), 0.5)), 1)
        with pytest.raises(ValueError, match="alphabets"):
            literal_joint(policy, markovian_kernel, markovian_actions)


class TestDirectedInformation:
    """The optimizer's directed information, N I_L at lambda = 0."""

    def test_memoryless_uniform_input_rate(self, bsc_kernel):
        space = TrajectorySpace(bsc_kernel, make_trivial_actions(2), 3)
        policy = space.dense_policy(space.uniform_rows())
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
