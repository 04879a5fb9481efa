"""Literal brute-force references against the optimized implementations.

Every comparison here runs two independent code paths: a plain-Python
enumeration from this module's targets and the vectorized main path. The
shared surface is only the frozen data types, so agreement is evidence for
both sides.
"""

import ast
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sampcap import (
    ActionSystem,
    CausalPolicy,
    FscKernel,
    OracleReport,
    grid_capacity,
    grid_search_space,
    literal_directed_info,
    literal_r_update,
    run_baa,
    update_q,
    update_r,
)
import sampcap.oracle
from sampcap.baa import BaaState
from sampcap.cli import DI_ORACLE_TOL
from sampcap.oracle import (
    _literal_channel_prob,
    _simplex_grid_size,
    _simplex_grid_tuples,
)
from sampcap.trajectory import TrajectorySpace

from conftest import (
    binary_entropy,
    causal_channel_prob,
    live_directed_info,
    make_random_kernel,
    make_random_policy,
    make_trivial_actions,
    uniform_policy,
)

INFORMED_CAPACITY = math.log2(5.0) - 2.0
COMMON_INPUT_CAPACITY = binary_entropy(0.25) - 0.5


def priced_silent_actions(y_size):
    """Singleton action system whose only action costs more than the budget."""
    return ActionSystem(
        feedback_size=1,
        sampling_table=np.zeros((1, 1, y_size), dtype=int),
        cost_table=np.full((1, 1), 1.0),
        budget=0.0,
    )


def two_sided_actions(y_size):
    """Action system with a two-letter decoder alphabet."""
    return ActionSystem(
        feedback_size=1,
        sampling_table=np.zeros((1, 2, y_size), dtype=int),
        cost_table=np.zeros((1, 2)),
        budget=0.0,
    )


class TestLiteralChannelProb:
    def test_state_path_sum_matches_the_belief_recursion(self):
        rng = np.random.default_rng(7)
        kernel = make_random_kernel(rng, 3, 2, 2)
        for s0 in (None, 0, 2):
            for x_seq in product(range(2), repeat=2):
                for y_seq in product(range(2), repeat=2):
                    literal = _literal_channel_prob(kernel, x_seq, y_seq, s0)
                    main = causal_channel_prob(kernel, x_seq, y_seq, s0=s0)
                    assert literal == pytest.approx(main, abs=1e-14)

    def test_literal_law_is_normalized(self):
        rng = np.random.default_rng(11)
        kernel = make_random_kernel(rng, 3, 2, 2)
        for x_seq in product(range(2), repeat=2):
            total = math.fsum(
                _literal_channel_prob(kernel, x_seq, y_seq)
                for y_seq in product(range(2), repeat=2)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestLiteralDirectedInfo:
    def test_matches_the_optimizer_on_random_policies(self, markovian_kernel,
                                                      markovian_actions):
        rng = np.random.default_rng(101)
        space = TrajectorySpace(markovian_kernel, markovian_actions, 2)
        for _ in range(10):
            policy = make_random_policy(rng, 2, 4, 3)
            literal = literal_directed_info(policy, markovian_kernel,
                                            markovian_actions)
            assert abs(literal - live_directed_info(space, policy)) <= 1e-9

    @pytest.mark.parametrize("channel", ["markovian", "random-three-state",
                                         "random-sparse"])
    def test_matches_the_optimizer_from_every_start_state(
        self, markovian_kernel, markovian_actions, channel
    ):
        # a space built from one start state gives that state's directed
        # information, as the definition does on the joint from s0; on the
        # sparse channel the start states reach different live entries
        rng = np.random.default_rng(103)
        kernel = {
            "markovian": lambda: markovian_kernel,
            "random-three-state": lambda: make_random_kernel(rng, 3, 2, 4),
            "random-sparse": lambda: make_random_kernel(rng, 3, 2, 4,
                                                        zero_share=0.6),
        }[channel]()
        for s0 in range(kernel.state_size):
            space = TrajectorySpace(kernel, markovian_actions, 2, s0=s0)
            for _ in range(5):
                policy = make_random_policy(rng, 2, 4, 3)
                literal = literal_directed_info(policy, kernel,
                                                markovian_actions, s0)
                assert abs(literal - live_directed_info(space, policy)) \
                    <= DI_ORACLE_TOL

    def test_memoryless_closed_form(self, bsc_kernel, bsc_actions):
        space = TrajectorySpace(bsc_kernel, bsc_actions, 3)
        uniform = space.dense_policy(space.uniform_rows())
        value = literal_directed_info(uniform, bsc_kernel, bsc_actions)
        assert value == pytest.approx(live_directed_info(space, uniform),
                                      abs=1e-9)
        assert value == pytest.approx(3.0 * (1.0 - binary_entropy(0.25)),
                                      abs=1e-9)


class TestGridSearchSpace:
    def test_counts(self, bsc_kernel, bsc_actions, markovian_kernel, markovian_actions):
        assert grid_search_space(bsc_kernel, bsc_actions, 1, 0.5) == 3
        assert grid_search_space(bsc_kernel, bsc_actions, 2, 0.5) == 27
        assert grid_search_space(markovian_kernel, markovian_actions, 1, 0.5) == 10

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("steps", [1, 2, 10, 20])
    def test_closed_form_counts_the_simplex_grid(self, dim, steps):
        assert _simplex_grid_size(dim, steps) == len(
            _simplex_grid_tuples(dim, steps))

    def test_step_must_divide_one(self, bsc_kernel, bsc_actions):
        with pytest.raises(ValueError, match="divide 1 evenly"):
            grid_search_space(bsc_kernel, bsc_actions, 1, 0.03)

    def test_free_dimension_cap(self, markovian_kernel, markovian_actions):
        with pytest.raises(ValueError, match="free policy dimensions"):
            grid_search_space(markovian_kernel, markovian_actions, 2, 0.5)

    def test_needs_singleton_decoder(self, bsc_kernel):
        with pytest.raises(ValueError, match="singleton decoder"):
            grid_search_space(bsc_kernel, two_sided_actions(2), 1, 0.5)


class TestGridCapacity:
    def test_memoryless_block_one(self, bsc_kernel, bsc_actions, bsc_sweeps):
        value = grid_capacity(bsc_kernel, bsc_actions, 1, grid_step=0.05)
        assert value == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-9)
        assert abs(value - bsc_sweeps[1].envelope_at(0.0)) <= 5e-3

    def test_memoryless_block_two(self, bsc_kernel, bsc_actions, bsc_sweeps):
        value = grid_capacity(bsc_kernel, bsc_actions, 2, grid_step=0.05)
        assert abs(value - bsc_sweeps[2].envelope_at(0.0)) <= 5e-3

    def test_two_state_block_one(self, markovian_kernel, markovian_actions):
        value = grid_capacity(markovian_kernel, markovian_actions, 1, grid_step=0.05)
        point = run_baa(TrajectorySpace(markovian_kernel, markovian_actions, 1),
                        0.0)
        assert value == pytest.approx(INFORMED_CAPACITY, abs=1e-12)
        assert abs(value - point.i_upper) <= 5e-3

    def test_start_state_objectives(self, markovian_kernel, markovian_actions):
        per = grid_capacity(markovian_kernel, markovian_actions, 1, grid_step=0.1,
                            objective="per_state")
        worst = grid_capacity(markovian_kernel, markovian_actions, 1, grid_step=0.1,
                              objective="worst_state")
        avg = grid_capacity(markovian_kernel, markovian_actions, 1, grid_step=0.1,
                            objective="average")
        assert len(per) == 2
        # the two start states are mirror images of each other
        assert per[0] == pytest.approx(per[1], abs=1e-12)
        assert per[0] == pytest.approx(INFORMED_CAPACITY, abs=1e-12)
        # a single policy must serve both states at once, which costs exactly
        # the gap between the informed and the common-input capacities
        assert worst == pytest.approx(COMMON_INPUT_CAPACITY, abs=1e-12)
        # the initial distribution is a point mass on state 0
        assert avg == pytest.approx(per[0], abs=1e-15)

    def test_infeasible_budget_raises(self, bsc_kernel):
        with pytest.raises(ValueError, match="no grid point satisfies"):
            grid_capacity(bsc_kernel, priced_silent_actions(2), 1,
                          grid_step=0.5)

    def test_block_length_cap(self, bsc_kernel, bsc_actions):
        with pytest.raises(ValueError, match="capped at block length"):
            grid_capacity(bsc_kernel, bsc_actions, 3, grid_step=0.5)

    def test_free_dimension_cap(self, markovian_kernel, markovian_actions):
        with pytest.raises(ValueError, match="free policy dimensions"):
            grid_capacity(markovian_kernel, markovian_actions, 2, grid_step=0.5)

    def test_unknown_objective(self, bsc_kernel, bsc_actions):
        with pytest.raises(ValueError, match="unknown objective"):
            grid_capacity(bsc_kernel, bsc_actions, 1, grid_step=0.5,
                          objective="mean")


class TestLiteralPolicyUpdate:
    @pytest.mark.parametrize("pair", ["bsc", "markovian"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("lam,iters", [(0.5, 0), (0.0, 3)])
    def test_matches_the_log_domain_update(self, request, pair, n, lam, iters):
        kernel = request.getfixturevalue(f"{pair}_kernel")
        sys = request.getfixturevalue(f"{pair}_actions")
        state = BaaState.initial(TrajectorySpace(kernel, sys, n), lam)
        for _ in range(iters):
            state = update_q(state.space, lam, *update_r(state))
        literal = literal_r_update(state.r, kernel, sys, lam)
        main = state.space.dense_policy(update_r(state)[0])
        assert literal.block_length == main.block_length
        for lit_table, main_table in zip(literal.tables, main.tables):
            assert np.max(np.abs(lit_table - main_table)) <= 1e-10

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           lam=st.sampled_from([0.0, 0.1, 1.0]))
    # two n = 3 channels whose step-2 and step-3 tables have unreachable
    # rows: 3 of 4 and 9 of 16, 10 of 12 and 99 of 144 rows are reachable
    @example(seed=11, n=3, lam=0.1)
    @example(seed=1, n=3, lam=0.1)
    def test_matches_on_sparse_kernels(self, seed, n, lam):
        # about half the kernel entries are zero, and the sampling table and
        # costs are random, so dead prefixes and zero posteriors occur; from
        # n = 3 on, the lower steps hold histories that cannot occur. The
        # literal update's block-length cap bounds oracle-check's runs; these
        # alphabets keep n = 3 at desk scale.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampcap.oracle, "R_UPDATE_BLOCK_CAP", 3)
            self.check_sparse_kernel(seed, n, lam)

    @staticmethod
    def check_sparse_kernel(seed, n, lam):
        rng = np.random.default_rng(seed)
        y_size = int(rng.integers(2, 5))
        kernel = make_random_kernel(rng, int(rng.integers(1, 3)),
                                    int(rng.integers(1, 3)), y_size,
                                    zero_share=0.5)
        a_size, z_size = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        sys = ActionSystem(
            feedback_size=z_size,
            sampling_table=rng.integers(0, z_size, (a_size, 1, y_size)),
            cost_table=rng.random((a_size, 1)),
        )
        state = BaaState.initial(TrajectorySpace(kernel, sys, n), lam)
        for _ in range(int(rng.integers(0, 3))):
            state = update_q(state.space, lam, *update_r(state))
        literal = literal_r_update(state.r, kernel, sys, lam)
        main = state.space.dense_policy(update_r(state)[0])
        for lit_table, main_table in zip(literal.tables, main.tables):
            assert np.max(np.abs(lit_table - main_table)) <= 1e-10

    def test_classical_update_on_an_asymmetric_channel(self):
        # one state, no actions, uniform prior: the update must reduce to
        # r'(x) proportional to exp2( sum_y p(y|x) log2 q(x|y) )
        arr = np.zeros((1, 2, 2, 1))
        arr[0, 0, 0, 0] = 1.0
        arr[0, 1, 0, 0] = 0.25
        arr[0, 1, 1, 0] = 0.75
        kernel = FscKernel(arr, np.array([1.0]))
        literal = literal_r_update(uniform_policy(1, 2, 1), kernel,
                                   make_trivial_actions(2), 0.0)
        p = arr[0, :, :, 0]
        q = p / p.sum(axis=0, keepdims=True)
        c = np.exp2(np.where(p > 0.0, p * np.log2(np.where(q > 0.0, q, 1.0)),
                             0.0).sum(axis=1))
        expected = c / c.sum()
        assert np.max(np.abs(literal.tables[0][0] - expected)) <= 1e-12

    def test_block_length_cap(self, bsc_kernel, bsc_actions):
        with pytest.raises(ValueError, match="capped at block length"):
            literal_r_update(uniform_policy(3, 2, 1), bsc_kernel,
                             bsc_actions, 0.0)

    def test_input_alphabet_cap(self):
        rng = np.random.default_rng(5)
        kernel = make_random_kernel(rng, 1, 3, 2)
        with pytest.raises(ValueError, match="binary inputs"):
            literal_r_update(uniform_policy(1, 3, 1), kernel,
                             make_trivial_actions(2), 0.0)

    def test_output_alphabet_cap(self):
        rng = np.random.default_rng(6)
        kernel = make_random_kernel(rng, 1, 2, 5)
        with pytest.raises(ValueError, match="outputs"):
            literal_r_update(uniform_policy(1, 2, 1), kernel,
                             make_trivial_actions(5), 0.0)

    def test_policy_alphabets_must_fit(self, markovian_kernel,
                                       markovian_actions):
        # markovian's |U| is 4 and its |Z| 3
        with pytest.raises(ValueError, match="alphabets"):
            literal_r_update(CausalPolicy((np.full((1, 4), 0.25),), 1),
                             markovian_kernel, markovian_actions, 0.0)


class TestOracleReport:
    def test_gap_and_verdict(self):
        report = OracleReport(
            quantity="capacity_n1", oracle_value=0.25, main_value=0.2501,
            search_space_size=21, method="grid-search", tolerance=5e-3,
        )
        assert report.absolute_gap == pytest.approx(1e-4, abs=1e-15)
        assert report.passed
        tight = OracleReport(
            quantity="capacity_n1", oracle_value=0.25, main_value=0.2501,
            search_space_size=21, method="grid-search", tolerance=1e-5,
        )
        assert not tight.passed

    def test_method_vocabulary_is_closed(self):
        with pytest.raises(ValueError, match="unknown oracle method"):
            OracleReport(quantity="x", oracle_value=0.0, main_value=0.0,
                         search_space_size=1, method="vibes", tolerance=1e-3)

    def test_tolerance_and_size_must_be_positive(self):
        with pytest.raises(ValueError, match="tolerance"):
            OracleReport(quantity="x", oracle_value=0.0, main_value=0.0,
                         search_space_size=1, method="literal-sum",
                         tolerance=0.0)
        with pytest.raises(ValueError, match="search_space_size"):
            OracleReport(quantity="x", oracle_value=0.0, main_value=0.0,
                         search_space_size=0, method="literal-sum",
                         tolerance=1e-3)


def package_imports(module):
    """The package modules a module of sampcap imports, directly or through
    the modules it imports, itself included, read off the source's relative
    imports; "from . import name" runs the package's __init__."""
    package = Path(sampcap.oracle.__file__).parent
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                todo.append(node.module or "__init__")
    return seen


def test_the_oracle_imports_only_the_data_types():
    # sampcap/__init__.py imports every module, so sys.modules cannot tell
    # what the oracle itself reaches
    assert package_imports("oracle") == {"oracle", "_num", "fsc", "actions",
                                         "policy"}
    # the walk does see the optimizer and the layout where they are imported
    assert {"baa", "trajectory"} <= package_imports("cli")


def test_the_single_letter_bounds_import_only_the_numerics():
    # the single-letter layer stands apart from the trajectory layout
    assert package_imports("bounds") == {"bounds", "_num"}
