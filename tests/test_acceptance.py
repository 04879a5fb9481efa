"""Acceptance gate: seven checks the package must pass end to end.

Each test pins one headline guarantee with explicit tolerances:

  1. the memoryless baseline value, its speed, and per-letter stability
  2. bracketing and convergence of the iterates on every bundled instance
  3. block envelopes saturating where the analytic curve saturates
  4. the analytic endpoint values and the strict gain over time sharing
  5. agreement between optimized code paths and brute-force references
  6. structural invariants of policies, joints, exponents, and envelopes
  7. the ordering of the sandwich bounds over the feasible budget range
"""

import time
from itertools import product

import numpy as np
import pytest

from sampcap import (
    CausalPolicy,
    FscKernel,
    causal_channel_prob,
    gallager_exponent,
    grid_capacity,
    literal_directed_info,
    literal_joint,
    literal_r_update,
    run_baa,
    sample_feedback,
    sandwich_bounds,
    single_letter_curve,
    sweep_lambda,
    time_sharing_baseline,
    update_r,
)
from sampcap.baa import BaaState
from sampcap.trajectory import TrajectorySpace

from conftest import live_directed_info, make_random_policy


def all_traced_points(*traced):
    """(label, point, its bound history) of every point of traced sweeps."""
    for label, (curves, histories) in zip(("bsc", "markovian"), traced):
        for n, curve in curves.items():
            for point, history in zip(curve.points, histories[n], strict=True):
                yield f"{label} n={n} lambda={point.lam}", point, history


def test_1_memoryless_reference_value_and_speed(bsc_kernel, bsc_actions,
                                                bsc_sweeps):
    start = time.perf_counter()
    point = run_baa(TrajectorySpace(bsc_kernel, bsc_actions, 1), 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert point.i_upper == pytest.approx(0.188722, abs=1e-5)
    for n in (2, 3):
        free = bsc_sweeps[n].points[0]
        assert free.lam == 0.0
        assert free.i_upper == pytest.approx(point.i_upper, abs=1e-4)


def test_2_iterates_bracket_and_converge_everywhere(bsc_traced,
                                                    markovian_traced):
    for where, point, history in all_traced_points(bsc_traced,
                                                   markovian_traced):
        assert point.converged, where
        assert point.iterations <= 10_000, where
        assert point.final_gap <= 1e-6, where
        lows, ups = history.T
        assert lows.size == point.iterations
        assert np.all(lows <= ups + 1e-12), where
        assert np.all(np.diff(lows) >= -1e-12), where


def test_3_block_envelopes_saturate_with_the_analytic_curve(
    markovian_single_letter, markovian_sweeps
):
    gammas = np.linspace(0.0, 1.0, 101)
    curve = single_letter_curve(markovian_single_letter, "encoder", gammas,
                                resolution=101, seed=0)
    saturated = curve >= curve[-1] - 1e-6
    first = int(np.argmax(saturated))
    gamma_star = float(gammas[first])
    assert abs(gamma_star - 0.2034) <= 0.03
    env2 = markovian_sweeps[2]
    env3 = markovian_sweeps[3]
    assert np.allclose(env2.gammas, env3.gammas, atol=1e-12)
    assert np.all(np.array(env3.envelope)
                  <= np.array(env2.envelope) + 1e-6)
    gap = env3.envelope_at(gamma_star) - float(curve[first])
    assert -1e-9 <= gap <= 1e-3


def test_4_analytic_endpoints_beat_time_sharing(markovian_single_letter):
    c0, half, c1 = single_letter_curve(markovian_single_letter, "encoder",
                                       [0.0, 0.5, 1.0], seed=0)
    assert c0 == pytest.approx(0.311278, abs=1e-4)
    assert c1 == pytest.approx(0.321928, abs=1e-4)
    assert half - time_sharing_baseline(c0, c1, 0.5) >= 1e-4


def test_5_brute_force_references_agree(bsc_kernel, bsc_actions, markovian_kernel,
                                        markovian_actions, bsc_sweeps):
    # literal product-of-powers policy update vs the log-domain update
    for kernel, sys_ in ((bsc_kernel, bsc_actions), (markovian_kernel, markovian_actions)):
        for n in (1, 2):
            state = BaaState.initial(TrajectorySpace(kernel, sys_, n), 0.5)
            literal = literal_r_update(state)
            main = CausalPolicy.from_rows(state.space, update_r(state)[0])
            for lit, opt in zip(literal.tables, main.tables):
                assert np.max(np.abs(lit - opt)) <= 1e-10

    # exhaustive policy grid vs the lambda-sweep envelope at the budget
    for n in (1, 2):
        value = grid_capacity(bsc_kernel, bsc_actions, n, grid_step=0.05)
        assert abs(value - bsc_sweeps[n].envelope_at(0.0)) <= 5e-3
    markovian_curve = sweep_lambda(TrajectorySpace(markovian_kernel,
                                                   markovian_actions, 1))
    value = grid_capacity(markovian_kernel, markovian_actions, 1, grid_step=0.05)
    assert abs(value - markovian_curve.envelope_at(1.0)) <= 5e-3

    # literal directed information vs the optimizer's on randomized policies
    rng = np.random.default_rng(20260818)
    cases = ((markovian_kernel, markovian_actions, 2, 4, 3),
             (bsc_kernel, bsc_actions, 3, 2, 1))
    spaces = [TrajectorySpace(kernel, sys_, n) for kernel, sys_, n, *_ in cases]
    worst = 0.0
    for i in range(100):
        (kernel, sys_, n, u, z), space = cases[i % 2], spaces[i % 2]
        policy = make_random_policy(rng, n, u, z)
        worst = max(worst, abs(literal_directed_info(policy, kernel, sys_)
                               - live_directed_info(space, policy)))
    assert worst <= 1e-9


def test_6_structural_invariants(bsc_kernel, bsc_actions, markovian_kernel,
                                 markovian_actions, markovian_sweeps):
    rng = np.random.default_rng(17)

    # policies stay normalized to 1e-12 and their joints to 1e-9
    for kernel, sys_, u, z in ((markovian_kernel, markovian_actions, 4, 3),
                               (bsc_kernel, bsc_actions, 2, 1)):
        for _ in range(5):
            policy = make_random_policy(rng, 2, u, z)
            for table in policy.tables:
                assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= 1e-12
            joint = literal_joint(policy, kernel, sys_)
            assert abs(float(joint.sum()) - 1.0) <= 1e-9

    # every joint cell factors into policy product times channel law
    policy = make_random_policy(rng, 2, 4, 3)
    joint = literal_joint(policy, markovian_kernel, markovian_actions)
    for row, u_seq in enumerate(product(range(4), repeat=2)):
        for col, y_seq in enumerate(product(range(4), repeat=2)):
            z_seq = [
                sample_feedback(markovian_actions, u_seq[i] % 2, 0, y_seq[i])
                for i in range(2)
            ]
            q = 1.0
            for i in range(2):
                slot = policy.indexer.encode(u_seq[:i], z_seq[:i])
                q *= policy.tables[i][slot, u_seq[i]]
            p = causal_channel_prob(markovian_kernel, [u // 2 for u in u_seq],
                                    y_seq)
            assert joint[row, col] == pytest.approx(q * p, abs=1e-12)

    # start-state knowledge moves the information by at most log2 |S|
    mixed = FscKernel(
        state_alphabet=markovian_kernel.state_alphabet,
        input_alphabet=markovian_kernel.input_alphabet,
        output_alphabet=markovian_kernel.output_alphabet,
        kernel=markovian_kernel.kernel,
        initial_dist=np.array([0.5, 0.5]),
    )
    average = 0.5 * sum(
        live_directed_info(TrajectorySpace(mixed, markovian_actions, 2, s0=s),
                           policy) for s in (0, 1))
    unconditional = live_directed_info(
        TrajectorySpace(mixed, markovian_actions, 2), policy)
    assert abs(unconditional - average) <= 1.0 + 1e-12

    # the exponent vanishes exactly at order zero and its finite-difference
    # slope at zero stays within the information rate
    uniform = CausalPolicy.uniform(2, 4, 3)
    from_state_0 = TrajectorySpace(markovian_kernel, markovian_actions, 2, s0=0)
    assert gallager_exponent(from_state_0, uniform, 0.0) == 0.0
    small = gallager_exponent(from_state_0, uniform, 0.001)
    slope = small / 0.001
    rate = live_directed_info(from_state_0, uniform) / 2.0
    assert 0.0 < slope <= rate + 1e-4

    # envelopes are nondecreasing and concave in the budget
    for curve in markovian_sweeps.values():
        env = np.array(curve.envelope)
        assert np.all(np.diff(env) >= -1e-9)
        assert np.all(np.diff(env, 2) <= 1e-9)


def test_7_sandwich_bounds_are_ordered(bsc_sweeps, markovian_sweeps):
    for n, curve in markovian_sweeps.items():
        gammas = curve.gammas
        lower = sandwich_bounds(curve)
        upper = curve.envelope
        feasible = gammas >= curve.max_cost / n - 1e-12
        assert np.all(np.isnan(lower[~feasible]))
        assert np.all(np.isfinite(lower[feasible]))
        assert np.all(lower[feasible] <= upper[feasible] + 1e-12)
    assert np.allclose(sandwich_bounds(bsc_sweeps[2]), bsc_sweeps[2].envelope,
                       atol=1e-12)
