"""Shared fixtures: bundled configurations, canonical channels, session sweeps.

The two bundled configurations double as the canonical test instances:

  - bsc.json: one-state crossover channel with singleton actions, the
    classical memoryless reduction whose capacity is known in closed form.
  - markovian.json: two-state channel whose state is an exogenous fair coin
    announced to the receiver through the second output factor; the encoder
    can pay unit cost to sample the upcoming state.

The Lagrangian sweeps over the default lambda grid are expensive for the
two-state channel, so they run once per session with recorded per-iteration
bound histories (see `bound_histories`), and every test that needs sweep
data reuses them.
"""

import contextlib
import json
import math
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from sampcap import ActionSystem, CausalPolicy, FscKernel
import sampcap.baa
from sampcap.baa import BaaState, sweep_lambda
from sampcap.cli import parse_config
from sampcap.trajectory import TrajectorySpace

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
BSC_CONFIG_PATH = CONFIG_DIR / "bsc.json"
MARKOVIAN_CONFIG_PATH = CONFIG_DIR / "markovian.json"

hypothesis.settings.register_profile("suite", deadline=None, max_examples=50)
hypothesis.settings.load_profile("suite")


def causal_channel_prob(k, x_seq, y_seq, s0=None):
    """Causal channel law P(y^N || x^N, s0), or P(y^N || x^N) when s0 is
    None, by a forward recursion over the unnormalized state belief
    b_i[s] = P(y^i, s_i || x^i, start); a third path to the law, besides
    the optimizer's live tables and the oracle's enumeration. With s0 None
    the recursion starts from the initial distribution, which by linearity
    yields the s0-average sum_s P(s0=s) P(y^N || x^N, s)."""
    if len(x_seq) != len(y_seq) or len(x_seq) < 1:
        raise ValueError("x_seq and y_seq must have equal length N >= 1")
    belief = k.start_dist(s0)
    for x, y in zip(x_seq, y_seq):
        belief = belief @ k.kernel[:, x, y, :]
    return float(belief.sum())


def binary_entropy(p):
    """h(p) in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def load_config(path):
    """Parse a bundled configuration; any violation fails the caller."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    config, violations = parse_config(doc)
    assert config is not None, violations
    return config


def make_random_kernel(rng, s_size, x_size, y_size, zero_share=0.0):
    """Random valid channel with a random initial state distribution.

    With zero_share > 0 about that share of the kernel entries is zeroed;
    every (state, input) row keeps at least one positive entry.
    """
    raw = rng.random((s_size, x_size, y_size, s_size))
    if zero_share > 0.0:
        raw[rng.random(raw.shape) < zero_share] = 0.0
        for s, x in zip(*np.nonzero(raw.sum(axis=(2, 3)) == 0.0)):
            raw[s, x, rng.integers(y_size), rng.integers(s_size)] = 1.0
    raw /= raw.sum(axis=(2, 3), keepdims=True)
    init = rng.random(s_size)
    init /= init.sum()
    return FscKernel(
        kernel=raw,
        initial_dist=init,
    )


def make_trivial_actions(y_size):
    """Singleton action system: one zero-cost action, constant feedback."""
    return ActionSystem(
        feedback_size=1,
        sampling_table=np.zeros((1, 1, y_size), dtype=int),
        cost_table=np.zeros((1, 1)),
        budget=0.0,
    )


def make_random_policy(rng, n, u_size, z_size):
    """Random causal policy with strictly positive conditional slices."""
    tables = []
    for i in range(1, n + 1):
        t = rng.random(((u_size * z_size) ** (i - 1), u_size)) + 1e-3
        t /= t.sum(axis=1, keepdims=True)
        tables.append(t)
    return CausalPolicy(tuple(tables), z_size)


def uniform_policy(n, u_size, z_size):
    """The causal policy with a uniform slice on every history."""
    return CausalPolicy(tuple(np.full(((u_size * z_size) ** i, u_size),
                                      1.0 / u_size) for i in range(n)), z_size)


def weighted_log2_sum(weights, numer, denom):
    """Compensated sum of w * log2(numer / denom) over the entries with w > 0."""
    w = np.asarray(weights, dtype=float).ravel()
    mask = w > 0.0
    n = np.asarray(numer, dtype=float).ravel()[mask]
    d = np.asarray(denom, dtype=float).ravel()[mask]
    return math.fsum((w[mask] * (np.log2(n) - np.log2(d))).tolist())


def mutual_information(joint):
    """Block mutual information I(U^N; Y^N) in bits of a dense [u^N, y^N]
    joint, such as oracle.literal_joint returns."""
    rows = joint.sum(axis=1, keepdims=True)
    cols = joint.sum(axis=0, keepdims=True)
    return weighted_log2_sum(joint, joint, rows * cols)


def live_index(space):
    """(rows, cols) of a space's live entries, in the order of its live
    arrays, to read or set them in a dense [rows, cols] array."""
    # parent (u_N, c) of row (u^{N-1}, u_N), with prefix c in u^{N-1}'s run
    u_n, prefix = np.divmod(space.parent, len(space.past_law))
    head = np.searchsorted(space.row_starts, prefix, side="right") - 1
    return head * space.u_size + u_n, space.col


def live_directed_info(space, policy):
    """The optimizer's directed information I(U^N -> Y^N) of a policy on a
    space, in total bits: N I_L of its iterate at lambda = 0."""
    rows = space.reachable_rows(policy)
    return space.n * BaaState.initial(space, 0.0, start=rows).i_lower


@pytest.fixture(scope="session")
def bsc_config():
    return load_config(BSC_CONFIG_PATH)


@pytest.fixture(scope="session")
def markovian_config():
    return load_config(MARKOVIAN_CONFIG_PATH)


@pytest.fixture(scope="session")
def bsc_kernel(bsc_config):
    return bsc_config.kernel


@pytest.fixture(scope="session")
def bsc_actions(bsc_config):
    return bsc_config.actions


@pytest.fixture(scope="session")
def markovian_kernel(markovian_config):
    return markovian_config.kernel


@pytest.fixture(scope="session")
def markovian_actions(markovian_config):
    return markovian_config.actions


@contextlib.contextmanager
def bound_histories():
    """Record the (I_L, I_U) pair of every optimizer iteration.

    Yields a list that gets one history per call of `sampcap.baa.run_baa`
    made through the module (as sweep_lambda makes them), each a list of
    (state.i_lower, upper_bound(state)) pairs. run_baa calls upper_bound
    once per iteration, on the iterate it keeps.
    """
    histories = []
    run_baa, upper_bound = sampcap.baa.run_baa, sampcap.baa.upper_bound

    def recording_run_baa(*args, **kwargs):
        histories.append([])
        return run_baa(*args, **kwargs)

    def recording_upper_bound(state):
        iu = upper_bound(state)
        histories[-1].append((state.i_lower, iu))
        return iu

    sampcap.baa.run_baa = recording_run_baa
    sampcap.baa.upper_bound = recording_upper_bound
    try:
        yield histories
    finally:
        sampcap.baa.run_baa = run_baa
        sampcap.baa.upper_bound = upper_bound


def traced_sweeps(config):
    """Default-grid sweeps per block length and each point's bound history."""
    curves, histories = {}, {}
    for n in config.block_lengths:
        with bound_histories() as runs:
            curves[n] = sweep_lambda(TrajectorySpace(config.kernel,
                                                     config.actions, n),
                                     eps=config.epsilon,
                                     max_iters=config.max_iters)
        histories[n] = [np.array(run) for run in runs]
    return curves, histories


@pytest.fixture(scope="session")
def markovian_single_letter(markovian_config):
    """The single-letter problem of the two-state example."""
    return markovian_config.single_letter


@pytest.fixture(scope="session")
def bsc_traced(bsc_config):
    """Default-grid sweeps with bound histories for the memoryless channel."""
    return traced_sweeps(bsc_config)


@pytest.fixture(scope="session")
def markovian_traced(markovian_config):
    """Default-grid sweeps with bound histories for the two-state channel."""
    return traced_sweeps(markovian_config)


@pytest.fixture(scope="session")
def bsc_sweeps(bsc_traced):
    return bsc_traced[0]


@pytest.fixture(scope="session")
def markovian_sweeps(markovian_traced):
    return markovian_traced[0]
