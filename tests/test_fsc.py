"""Channel representation, validation, causal law."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampcap import FscKernel, literal_joint
from sampcap.trajectory import TrajectorySpace

from conftest import causal_channel_prob, make_random_kernel, uniform_policy


def bsc_kernel_array(p):
    kernel = np.zeros((1, 2, 2, 1))
    kernel[0, 0, 0, 0] = 1.0 - p
    kernel[0, 0, 1, 0] = p
    kernel[0, 1, 0, 0] = p
    kernel[0, 1, 1, 0] = 1.0 - p
    return kernel


def bsc_violations(kernel, initial_dist):
    return FscKernel.violations(1, 2, 2, kernel, initial_dist)


def build_bsc(kernel, initial_dist):
    return FscKernel(kernel, initial_dist)


class TestKernelValidation:
    def test_bundled_kernels_are_valid(self, bsc_kernel, markovian_kernel):
        for k in (bsc_kernel, markovian_kernel):
            assert FscKernel.violations(k.state_size, k.input_size,
                                        k.output_size, k.kernel,
                                        k.initial_dist) == []

    def test_declared_sizes_must_match_the_axes(self):
        # a kernel whose rows are valid for its own axes, not the declared
        assert bsc_violations(np.ones((1, 1, 2, 1)) * 0.5, np.array([1.0])) \
            == ["kernel: shape [1, 1, 2, 1] does not match [1][2][2][1]"]

    def test_sizes_are_the_kernel_axes(self):
        k = FscKernel(np.full((2, 3, 4, 2), 1.0 / 8), np.array([0.5, 0.5]))
        assert (k.state_size, k.input_size, k.output_size) == (2, 3, 4)

    @pytest.mark.parametrize("shape, want", [
        ((1, 1, 2, 2), r"\[1, 1, 2, 2\] does not match \[1\]\[1\]\[2\]\[1\]"),
        ((1, 2, 2), r"\[1, 2, 2\] does not match"),
    ])
    def test_axes_that_are_no_channel_raise_the_shape_message(self, shape,
                                                              want):
        arr = np.full(shape, 1.0 / 2)
        with pytest.raises(ValueError, match="^kernel: shape " + want):
            FscKernel(arr, np.array([1.0]))

    @pytest.mark.parametrize("shape", [(1, 0, 2, 1), (0, 2, 2, 0),
                                       (1, 2, 0, 1)])
    def test_every_axis_must_be_nonempty(self, shape):
        # an empty axis leaves no row whose sum could be off
        with pytest.raises(ValueError, match="nonempty"):
            FscKernel(np.zeros(shape), np.ones(shape[0]))

    def test_row_sum_defect_is_located(self):
        arr = bsc_kernel_array(0.25)
        arr[0, 1] *= 2.0
        messages = bsc_violations(arr, np.array([1.0]))
        assert any(m.startswith("kernel/0/1:") for m in messages)
        assert not any(m.startswith("kernel/0/0") for m in messages)
        with pytest.raises(ValueError, match="^kernel/0/1: row sums to 2.0"):
            build_bsc(arr, np.array([1.0]))

    def test_negative_entry_is_located(self):
        arr = bsc_kernel_array(0.25)
        arr[0, 0, 0, 0] = -0.25
        arr[0, 0, 1, 0] = 1.25
        assert bsc_violations(arr, np.array([1.0])) == [
            "kernel/0/0/0/0: negative entry"]
        with pytest.raises(ValueError, match="^kernel/0/0/0/0: negative entry"):
            build_bsc(arr, np.array([1.0]))

    def test_initial_dist_violations_reported(self):
        arr = bsc_kernel_array(0.25)
        assert bsc_violations(arr, np.array([0.9])) == [
            "initial_dist: must be a probability vector"]
        with pytest.raises(ValueError, match="^initial_dist: must be"):
            build_bsc(arr, np.array([0.9]))

    def test_non_finite_entries_are_reported(self):
        # a NaN sums to NaN, which no tolerance comparison flags
        arr = bsc_kernel_array(0.25)
        arr[0, 1, 0, 0] = np.nan
        assert bsc_violations(arr, np.array([1.0])) == [
            "kernel: entries must be finite"]
        assert bsc_violations(bsc_kernel_array(0.25), np.array([np.nan])) == [
            "initial_dist: entries must be finite"]
        with pytest.raises(ValueError, match="^kernel: entries must be finite"):
            build_bsc(arr, np.array([np.nan]))

    @pytest.mark.parametrize("init, shape", [(1.0, "[]"), ([[1.0]], "[1, 1]")],
                             ids=["scalar", "matrix"])
    def test_initial_dist_of_another_rank_raises(self, init, shape):
        message = f"initial_dist: shape {shape} does not match [1]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_bsc(bsc_kernel_array(0.25), init)


class TestCausalLaw:
    def test_memoryless_law_is_a_per_step_product(self, bsc_kernel):
        for x_seq in itertools.product(range(2), repeat=3):
            for y_seq in itertools.product(range(2), repeat=3):
                expected = 1.0
                for x, y in zip(x_seq, y_seq):
                    expected *= 0.75 if x == y else 0.25
                got = causal_channel_prob(bsc_kernel, x_seq, y_seq)
                assert got == pytest.approx(expected, abs=1e-15)

    def test_point_mass_initial_matches_the_s0_argument(self, markovian_kernel):
        # the bundled initial distribution is a point mass on state 0
        x_seq, y_seq = (0, 1, 1), (0, 2, 3)
        assert causal_channel_prob(markovian_kernel, x_seq, y_seq) == pytest.approx(
            causal_channel_prob(markovian_kernel, x_seq, y_seq, s0=0), abs=1e-16
        )

    def test_default_is_the_initial_distribution_average(self):
        rng = np.random.default_rng(7)
        k = make_random_kernel(rng, 3, 2, 2)
        x_seq, y_seq = (1, 0, 1, 1), (0, 1, 1, 0)
        avg = sum(
            k.initial_dist[s] * causal_channel_prob(k, x_seq, y_seq, s0=s)
            for s in range(3)
        )
        assert causal_channel_prob(k, x_seq, y_seq) == pytest.approx(avg, abs=1e-15)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_output_normalization(self, seed):
        rng = np.random.default_rng(seed)
        s_size = int(rng.integers(1, 4))
        x_size = int(rng.integers(1, 3))
        y_size = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        k = make_random_kernel(rng, s_size, x_size, y_size)
        x_seq = tuple(int(v) for v in rng.integers(0, x_size, size=n))
        total = sum(
            causal_channel_prob(k, x_seq, y_seq)
            for y_seq in itertools.product(range(y_size), repeat=n)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch_raises(self, bsc_kernel):
        with pytest.raises(ValueError, match="equal length"):
            causal_channel_prob(bsc_kernel, (0, 1), (0,))


class TestStartState:
    """A start state s0 is None (the initial distribution) or an integer
    state in [0, |S|), by one rule at every entry point that takes one."""

    def test_start_dist(self, markovian_kernel):
        assert markovian_kernel.start_dist() is markovian_kernel.initial_dist
        np.testing.assert_array_equal(markovian_kernel.start_dist(1), [0, 1])
        np.testing.assert_array_equal(
            markovian_kernel.start_dist(np.int64(0)), [1, 0])

    # 2 is |S| of the markovian channel
    @pytest.mark.parametrize("s0", [-1, 2, 5, 1.0, True])
    @pytest.mark.parametrize("entry", ["start_dist", "TrajectorySpace",
                                       "footprint", "literal_joint",
                                       "causal_channel_prob"])
    def test_anything_else_is_rejected(self, markovian_kernel,
                                       markovian_actions, entry, s0):
        k, a = markovian_kernel, markovian_actions
        calls = {
            "start_dist": lambda: k.start_dist(s0),
            "TrajectorySpace": lambda: TrajectorySpace(k, a, 2, s0=s0),
            "footprint": lambda: TrajectorySpace.footprint(k, a, 2, s0),
            "literal_joint": lambda: literal_joint(
                uniform_policy(1, 4, a.feedback_size), k, a, s0),
            "causal_channel_prob": lambda: causal_channel_prob(
                k, [0, 1], [0, 1], s0=s0),
        }
        with pytest.raises(ValueError, match=re.escape(
                "s0 out of range: must be None or an integer state in "
                "[0, 2)")):
            calls[entry]()
