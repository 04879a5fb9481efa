"""Config-driven command line: validation, sweeps, bounds, oracle checks.

One JSON document describes the channel, the action system, and the
algorithm parameters; each subcommand reads it and emits CSV/JSON files.

  validate        check the config; violations printed with JSON pointers
  capacity-sweep  lambda sweep per block length -> sweep_N.csv, envelope_N.csv
  bounds          single-letter lower bounds over a budget grid -> bounds.csv
  oracle-check    brute-force cross-checks -> oracle_report.json
  exponent        block exponent over a rho grid -> exponent.csv

Exit codes: 0 success, 1 semantic config error (or failed oracle check),
2 parse error, 3 I/O error. All numbers are emitted with 12 significant
digits; identical config and seed give byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys as _sys
import time
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .actions import ActionSystem
from .baa import (
    BaaState,
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERS,
    default_lambda_grid,
    sandwich_bounds,
    sweep_lambda,
    update_q,
    update_r,
)
from .bounds import (
    AscentCapWarning,
    SingleLetterProblem,
    gallager_exponent,
    single_letter_bounds,
    time_sharing_baseline,
)
from .fsc import Alphabet, FscKernel
from .oracle import (
    OracleReport,
    grid_capacity,
    grid_search_space,
    literal_directed_info,
    literal_r_update,
)
from .policy import CausalPolicy, build_joint, directed_information
from .trajectory import TrajectorySpace

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2
EXIT_IO = 3

DI_ORACLE_TOL = 1e-9
GRID_ORACLE_TOL = 5e-3
R_UPDATE_ORACLE_TOL = 1e-10
ORACLE_BLOCKS = (1, 2)
GRID_POINT_BUDGET = 20_000
NEAR_CAP = 0.9  # share of max_iters from which report.json flags a point
# pre-flight memory check: a block length N is charged DENSE_ARRAYS float64
# arrays of (|X| |A| |Y|)^N entries; configs whose estimate exceeds
# MAX_DENSE_BYTES are rejected (markovian: N = 6 is charged 1.1 GiB and
# passes, N = 7 18 GiB). The charge still counts dense entries, though no
# table is held at that size any more: the build forms the dense channel law
# once, and the optimizer's arrays hold live entries (p > 0) or sit on the
# (u^N, y^{N-1}) grid, 1/|Y| of the dense one (markovian N = 6 peaks at
# about 0.5 GB). Counting live entries instead would admit larger N.
DENSE_ARRAYS = 9
MAX_DENSE_BYTES = 2 ** 31


@dataclass(frozen=True)
class ExponentSpec:
    rho_grid: tuple[float, ...]
    block_length: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a subcommand needs, parsed and validated."""

    kernel: FscKernel
    actions: ActionSystem
    block_lengths: tuple[int, ...]
    epsilon: float
    max_iters: int
    lambda_grid: Optional[tuple[float, ...]]
    gamma_points: int
    resolution: int
    seed: int
    single_letter: Optional[SingleLetterProblem] = None
    exponent: Optional[ExponentSpec] = None


def _fmt(x: float) -> str:
    return f"{float(x):.11e}"


def _as_float_array(node, pointer: str, violations: list[str]):
    try:
        arr = np.array(node, dtype=float)
    except (TypeError, ValueError):
        violations.append(f"{pointer}: entries must be numeric")
        return None
    if not np.all(np.isfinite(arr)):
        violations.append(f"{pointer}: entries must be finite")
        return None
    return arr


def _is_number(node) -> bool:
    return isinstance(node, (int, float)) and not isinstance(node, bool)


def _as_int_array(node, pointer: str, violations: list[str]):
    """Integer array of a nested list; a bool or a fractional entry is
    reported, not truncated."""
    try:
        leaves = np.array(node, dtype=object)
    except (TypeError, ValueError):
        leaves = None
    if leaves is None or not all(_is_number(v) and float(v).is_integer()
                                 for v in leaves.ravel()):
        violations.append(f"{pointer}: entries must be integers")
        return None
    return leaves.astype(int)


def _positive_int(node, pointer: str, violations: list[str], default=None):
    if node is None and default is not None:
        return default
    if not isinstance(node, int) or isinstance(node, bool) or node < 1:
        violations.append(f"{pointer}: must be a positive integer")
        return None
    return node


def _parse_channel(doc: dict, violations: list[str]) -> Optional[FscKernel]:
    ch = doc.get("channel")
    if ch is None:
        violations.append("/channel: missing required section")
        return None
    if not isinstance(ch, dict):
        violations.append("/channel: must be an object")
        return None
    s_size = _positive_int(ch.get("state_size"), "/channel/state_size", violations)
    x_size = _positive_int(ch.get("input_size"), "/channel/input_size", violations)
    y_size = _positive_int(ch.get("output_size"), "/channel/output_size", violations)
    if None in (s_size, x_size, y_size):
        return None
    factors = ch.get("output_factors")
    if factors is not None:
        if (not isinstance(factors, list)
                or not all(isinstance(f, int) and f >= 1 for f in factors)
                or math.prod(factors) != y_size):
            violations.append(
                "/channel/output_factors: must be positive integers whose "
                "product equals output_size"
            )
    arr = _as_float_array(ch.get("kernel"), "/channel/kernel", violations)
    init = _as_float_array(ch.get("initial_dist"), "/channel/initial_dist",
                           violations)
    if arr is None or init is None:
        return None
    if arr.shape != (s_size, x_size, y_size, s_size):
        violations.append(
            f"/channel/kernel: shape {list(arr.shape)} does not match "
            f"[{s_size}][{x_size}][{y_size}][{s_size}]"
        )
        return None
    if init.shape != (s_size,):
        violations.append(
            f"/channel/initial_dist: length {init.shape[0]} does not match "
            f"state_size {s_size}"
        )
        return None
    kernel = FscKernel(
        state_alphabet=Alphabet(s_size),
        input_alphabet=Alphabet(x_size),
        output_alphabet=Alphabet(y_size),
        kernel=arr,
        initial_dist=init,
    )
    found = []
    row_sums = arr.sum(axis=(2, 3))
    for s in range(s_size):
        for x in range(x_size):
            if abs(row_sums[s, x] - 1.0) > 1e-12:
                found.append(
                    f"/channel/kernel/{s}/{x}: row sums to "
                    f"{float(row_sums[s, x])!r}, expected 1"
                )
    for idx in zip(*np.nonzero(arr < 0.0)):
        s, x, y, sn = (int(i) for i in idx)
        found.append(f"/channel/kernel/{s}/{x}/{y}/{sn}: negative entry")
    if abs(init.sum() - 1.0) > 1e-12 or np.any(init < 0.0):
        found.append("/channel/initial_dist: must be a probability vector")
    violations.extend(found)
    return None if found else kernel


def _parse_actions(doc: dict, kernel: Optional[FscKernel],
                   violations: list[str]) -> Optional[ActionSystem]:
    ac = doc.get("actions")
    if ac is None:
        violations.append("/actions: missing required section")
        return None
    if not isinstance(ac, dict):
        violations.append("/actions: must be an object")
        return None
    enc = _positive_int(ac.get("encoder_size"), "/actions/encoder_size", violations)
    dec = _positive_int(ac.get("decoder_size"), "/actions/decoder_size", violations)
    fb = _positive_int(ac.get("feedback_size"), "/actions/feedback_size", violations)
    table = _as_int_array(ac.get("sampling_table"), "/actions/sampling_table",
                          violations)
    cost = _as_float_array(ac.get("cost_table"), "/actions/cost_table", violations)
    budget = ac.get("budget", 0.0)
    if not _is_number(budget) or not 0.0 <= budget < math.inf:
        violations.append("/actions/budget: must be a finite nonnegative number")
        return None
    if None in (enc, dec, fb) or table is None or cost is None:
        return None
    y_size = kernel.output_size if kernel is not None else None
    if table.ndim != 3 or table.shape[:2] != (enc, dec) or (
            y_size is not None and table.shape[2] != y_size):
        violations.append(
            "/actions/sampling_table: must be indexed "
            "[encoder action][decoder action][channel output]"
        )
        return None
    if np.any(table < 0) or np.any(table >= fb):
        violations.append(
            "/actions/sampling_table: values must lie in the feedback alphabet"
        )
        return None
    if cost.shape != (enc, dec):
        violations.append(
            "/actions/cost_table: must be indexed [encoder action][decoder action]"
        )
        return None
    if np.any(cost < 0.0):
        violations.append("/actions/cost_table: costs must be nonnegative")
        return None
    try:
        return ActionSystem(
            encoder_actions=Alphabet(enc),
            decoder_actions=Alphabet(dec),
            feedback_alphabet=Alphabet(fb),
            sampling_table=table,
            cost_table=cost,
            budget=float(budget),
        )
    except ValueError as exc:
        violations.append(f"/actions: {exc}")
        return None


def _parse_single_letter(doc: dict,
                         violations: list[str]) -> Optional[SingleLetterProblem]:
    sl = doc.get("single_letter")
    if sl is None:
        return None
    if not isinstance(sl, dict):
        violations.append("/single_letter: must be an object")
        return None
    pi = _as_float_array(sl.get("stationary_dist"),
                         "/single_letter/stationary_dist", violations)
    chan = _as_float_array(sl.get("per_state_channel"),
                           "/single_letter/per_state_channel", violations)
    samp = _as_int_array(sl.get("sampling"), "/single_letter/sampling", violations)
    cost = _as_float_array(sl.get("cost"), "/single_letter/cost", violations)
    if pi is None or chan is None or samp is None or cost is None:
        return None
    found = []
    if pi.ndim != 1 or abs(pi.sum() - 1.0) > 1e-12 or np.any(pi < 0.0):
        found.append("/single_letter/stationary_dist: must be a probability vector")
    if chan.ndim != 3 or (pi.ndim == 1 and chan.shape[0] != pi.shape[0]):
        found.append(
            "/single_letter/per_state_channel: must be indexed [s][x][y] with "
            "one slice per state"
        )
    else:
        sums = chan.sum(axis=2)
        for s in range(chan.shape[0]):
            for x in range(chan.shape[1]):
                if abs(sums[s, x] - 1.0) > 1e-12:
                    found.append(
                        f"/single_letter/per_state_channel/{s}/{x}: row sums to "
                        f"{float(sums[s, x])!r}, expected 1"
                    )
        if np.any(chan < 0.0):
            found.append("/single_letter/per_state_channel: negative entries")
    if samp.ndim != 2 or cost.ndim != 1 or samp.shape[0] != cost.shape[0]:
        found.append(
            "/single_letter/sampling: must be indexed [a][s] with one cost per "
            "action"
        )
    elif pi.ndim == 1 and samp.shape[1] != pi.shape[0]:
        found.append("/single_letter/sampling: state axis does not match")
    if np.any(samp < 0):
        found.append("/single_letter/sampling: entries must be nonnegative")
    if np.any(cost < 0.0):
        found.append("/single_letter/cost: costs must be nonnegative")
    violations.extend(found)
    if found:
        return None
    return SingleLetterProblem(stationary_dist=pi, per_state_channel=chan,
                               sampling=samp, cost=cost)


def _parse_exponent(doc: dict, violations: list[str]) -> Optional[ExponentSpec]:
    ex = doc.get("exponent")
    if ex is None:
        return None
    if not isinstance(ex, dict):
        violations.append("/exponent: must be an object")
        return None
    rho = ex.get("rho_grid")
    n = _positive_int(ex.get("block_length"), "/exponent/block_length", violations)
    ok = isinstance(rho, list) and rho and all(
        _is_number(v) and 0.0 <= v <= 1.0 for v in rho
    )
    if not ok:
        violations.append("/exponent/rho_grid: must be a nonempty list in [0, 1]")
    if not ok or n is None:
        return None
    return ExponentSpec(rho_grid=tuple(float(v) for v in rho), block_length=n)


def _check_footprint(kernel: FscKernel, actions: ActionSystem, n: int,
                     pointer: str, violations: list[str]) -> None:
    """Reject a block length whose dense tables would exceed MAX_DENSE_BYTES."""
    per_step = (kernel.input_size * actions.encoder_actions.size
                * kernel.output_size)
    need = DENSE_ARRAYS * 8 * per_step ** n
    if need > MAX_DENSE_BYTES:
        violations.append(
            f"{pointer}: block length {n} needs about {need / 2 ** 30:.3g} GiB "
            f"of dense tables, above the {MAX_DENSE_BYTES / 2 ** 30:g} GiB limit"
        )


def parse_config(doc) -> tuple[Optional[ExperimentConfig], list[str]]:
    """Validate a decoded JSON document; returns (config, violations)."""
    violations: list[str] = []
    if not isinstance(doc, dict):
        return None, ["/: config root must be a JSON object"]
    kernel = _parse_channel(doc, violations)
    actions = _parse_actions(doc, kernel, violations)
    blocks = doc.get("block_lengths")
    if (not isinstance(blocks, list) or not blocks
            or not all(isinstance(b, int) and not isinstance(b, bool) and b >= 1
                       for b in blocks)):
        violations.append("/block_lengths: must be a nonempty list of positive "
                          "integers")
        blocks = None
    alg = doc.get("algorithm", {})
    if not isinstance(alg, dict):
        violations.append("/algorithm: must be an object")
        alg = {}
    epsilon = alg.get("epsilon", DEFAULT_EPSILON)
    if not _is_number(epsilon) or not 0.0 < epsilon < math.inf:
        violations.append("/algorithm/epsilon: must be a finite positive number")
    max_iters = _positive_int(alg.get("max_iters"), "/algorithm/max_iters",
                              violations, default=DEFAULT_MAX_ITERS)
    lam_grid = alg.get("lambda_grid")
    lam_tuple: Optional[tuple[float, ...]] = None
    if lam_grid is not None:
        if (not isinstance(lam_grid, list) or not lam_grid
                or not all(_is_number(v) and 0.0 <= v < math.inf
                           for v in lam_grid)):
            violations.append(
                "/algorithm/lambda_grid: must be a nonempty list of finite "
                "nonnegative numbers"
            )
        else:
            lam_tuple = tuple(float(v) for v in lam_grid)
    gamma_points = _positive_int(alg.get("gamma_points"),
                                 "/algorithm/gamma_points", violations, default=101)
    resolution = _positive_int(alg.get("resolution"), "/algorithm/resolution",
                               violations, default=101)
    seed = alg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        violations.append("/algorithm/seed: must be a nonnegative integer")
    single = _parse_single_letter(doc, violations)
    exponent = _parse_exponent(doc, violations)
    if kernel is not None and actions is not None:
        for k, n in enumerate(blocks or ()):
            _check_footprint(kernel, actions, n, f"/block_lengths/{k}",
                             violations)
        if exponent is not None:
            _check_footprint(kernel, actions, exponent.block_length,
                             "/exponent/block_length", violations)
    if violations:
        return None, violations
    return ExperimentConfig(
        kernel=kernel,
        actions=actions,
        block_lengths=tuple(blocks),
        epsilon=float(epsilon),
        max_iters=max_iters,
        lambda_grid=lam_tuple,
        gamma_points=gamma_points,
        resolution=resolution,
        seed=seed,
        single_letter=single,
        exponent=exponent,
    ), []


def _read_config(path: str):
    """Load and validate; returns (config, exit_code, messages)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return None, EXIT_IO, [f"cannot read {path}: {exc}"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, EXIT_PARSE, [
            f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ]
    config, violations = parse_config(doc)
    if violations:
        return None, EXIT_SEMANTIC, violations
    return config, EXIT_OK, []


def _load_config(path: str):
    """(config, EXIT_OK), or (None, exit code) with the reasons on stderr."""
    config, code, messages = _read_config(path)
    for msg in messages:
        print(msg, file=_sys.stderr)
    return config, code


def cmd_validate(config_path: str, out_dir: str = ".") -> int:
    config, code, messages = _read_config(config_path)
    for msg in messages:
        print(msg)
    if config is not None:
        print(f"{config_path}: valid")
    return code


def _write_lines(path, lines: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def cmd_capacity_sweep(config_path: str, out_dir: str = ".") -> int:
    config, code = _load_config(config_path)
    if config is None:
        return code
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"cannot create {out_dir}: {exc}", file=_sys.stderr)
        return EXIT_IO
    report = {
        "epsilon": config.epsilon,
        "max_iters": config.max_iters,
        "lambda_grid": list(config.lambda_grid) if config.lambda_grid is not None
        else [float(v) for v in default_lambda_grid()],
        "block_lengths": list(config.block_lengths),
        "seed": config.seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "package": __version__,
        },
        "runs": [],
    }
    uncertified = 0  # points that did not converge or ran near the cap
    try:
        for n in config.block_lengths:
            t0 = time.perf_counter()
            curve = sweep_lambda(
                TrajectorySpace(config.kernel, config.actions, n),
                lam_grid=config.lambda_grid,
                eps=config.epsilon, max_iters=config.max_iters,
                gamma_points=config.gamma_points,
            )
            elapsed = time.perf_counter() - t0
            lines = ["lambda,gamma,c_lambda,i_lower,i_upper,iterations,converged"]
            for p in curve.points:
                lines.append(
                    f"{_fmt(p.lam)},{_fmt(p.gamma)},{_fmt(p.i_upper)},"
                    f"{_fmt(p.i_lower)},{_fmt(p.i_upper)},{p.iterations},"
                    f"{str(p.converged).lower()}"
                )
            _write_lines(os.path.join(out_dir, f"sweep_{n}.csv"), lines)
            env_lines = ["gamma,c_upper,c_lower_shifted"]
            for g, up, lo in zip(curve.gammas, curve.envelope,
                                 sandwich_bounds(curve)):
                env_lines.append(f"{_fmt(g)},{_fmt(up)},{_fmt(lo)}")
            _write_lines(os.path.join(out_dir, f"envelope_{n}.csv"), env_lines)
            bad = sum(1 for p in curve.points if not p.converged)
            points = [{
                "lam": p.lam,
                "gamma": p.gamma,
                "iterations": p.iterations,
                "rejected_steps": p.rejected_steps,
                "dead_slices": p.dead_slices,
                "unreachable_outputs": p.unreachable_outputs,
                "seconds": p.seconds,
                "final_gap": p.final_gap,
                "converged": p.converged,
                "near_cap": p.iterations >= NEAR_CAP * config.max_iters,
            } for p in curve.points]
            weak = sum(1 for p in points if not p["converged"] or p["near_cap"])
            uncertified += weak
            report["runs"].append({
                "block_length": n,
                "runtime_seconds": elapsed,
                "nonconverged_points": bad,
                "max_final_gap": max(p.final_gap for p in curve.points),
                "certified": weak == 0,
                "points": points,
            })
        with open(os.path.join(out_dir, "report.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"write failure: {exc}", file=_sys.stderr)
        return EXIT_IO
    if uncertified:
        print(f"warning: {uncertified} lambda points did not converge or ran "
              "near max_iters; their blocks are not certified",
              file=_sys.stderr)
    return EXIT_OK


def cmd_bounds(config_path: str, out_dir: str = ".") -> int:
    config, code = _load_config(config_path)
    if config is None:
        return code
    if config.single_letter is None:
        print("/single_letter: section required for the bounds command",
              file=_sys.stderr)
        return EXIT_SEMANTIC
    prob = config.single_letter
    max_cost = float(prob.cost.max())
    gammas = np.linspace(0.0, max_cost if max_cost > 0 else 1.0,
                         config.gamma_points)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AscentCapWarning)
        c0, c1, enc_curve, dec_curve = single_letter_bounds(
            prob, gammas, resolution=config.resolution, seed=config.seed
        )
    capped = 0
    for record in caught:
        if issubclass(record.category, AscentCapWarning):
            capped += record.message.rows
        else:
            warnings.showwarning(record.message, record.category,
                                 record.filename, record.lineno)
    span = max_cost if max_cost > 0 else 1.0
    lines = ["gamma,c_enc_lower,c_dec_lower,time_sharing,c0,c1"]
    infeasible = 0
    for i, g in enumerate(gammas):
        ts = time_sharing_baseline(c0, c1, float(g) / span)
        enc_field = _fmt(enc_curve[i]) if np.isfinite(enc_curve[i]) else ""
        dec_field = _fmt(dec_curve[i]) if np.isfinite(dec_curve[i]) else ""
        if not enc_field or not dec_field:
            infeasible += 1
        lines.append(
            f"{_fmt(g)},{enc_field},{dec_field},{_fmt(ts)},{_fmt(c0)},{_fmt(c1)}"
        )
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_lines(os.path.join(out_dir, "bounds.csv"), lines)
    except OSError as exc:
        print(f"write failure: {exc}", file=_sys.stderr)
        return EXIT_IO
    if infeasible:
        print(f"warning: {infeasible} infeasible budget rows emitted empty",
              file=_sys.stderr)
    if capped:
        print(f"warning: {capped} input-slice ascents stopped at the iteration "
              "cap; their values may lie below the maximum", file=_sys.stderr)
    return EXIT_OK


def _pick_grid_step(kernel: FscKernel, sys_: ActionSystem, n: int) -> float:
    """Finest step in {0.01, 0.02, 0.05, 0.1} within the search budget."""
    for step in (0.01, 0.02, 0.05, 0.1):
        if grid_search_space(kernel, sys_, n, step) <= GRID_POINT_BUDGET:
            return step
    return 0.1


def _report_dict(rep: OracleReport) -> dict:
    return {
        "quantity": rep.quantity,
        "oracle_value": rep.oracle_value,
        "main_value": rep.main_value,
        "absolute_gap": rep.absolute_gap,
        "tolerance": rep.tolerance,
        "search_space_size": rep.search_space_size,
        "method": rep.method,
        "passed": rep.passed,
    }


def _oracle_reports(config: ExperimentConfig) -> tuple[list, list]:
    """All applicable oracle comparisons plus skip notices."""
    kernel, sys_ = config.kernel, config.actions
    reports: list[OracleReport] = []
    skips: list[dict] = []
    for n in ORACLE_BLOCKS:
        # one space per block length serves every optimized computation
        space = TrajectorySpace(kernel, sys_, n)

        # directed information: definition vs chain rule
        for label, policy in (
            ("uniform", CausalPolicy.uniform(n, space.u_size, space.z_size)),
            ("optimized", None),
        ):
            if policy is None:
                state = BaaState.initial(space, 0.0)
                for _ in range(5):
                    state = update_q(state.space, state.lam, *update_r(state))
                policy = state.r
            joint = build_joint(policy, kernel, sys_)
            reports.append(OracleReport(
                quantity=f"directed_info_n{n}_{label}",
                oracle_value=literal_directed_info(joint),
                main_value=directed_information(joint),
                search_space_size=space.rows * space.cols,
                method="literal-sum",
                tolerance=DI_ORACLE_TOL,
            ))

        # grid search vs lambda envelope at the configured budget
        try:
            step = _pick_grid_step(kernel, sys_, n)
            size = grid_search_space(kernel, sys_, n, step)
            grid_value = grid_capacity(kernel, sys_, n, grid_step=step,
                                       objective="average",
                                       budget=sys_.budget)
            curve = sweep_lambda(space, lam_grid=config.lambda_grid,
                                 eps=config.epsilon, max_iters=config.max_iters)
            reports.append(OracleReport(
                quantity=f"grid_capacity_n{n}",
                oracle_value=float(grid_value),
                main_value=curve.envelope_at(sys_.budget),
                search_space_size=size,
                method="grid-search",
                tolerance=GRID_ORACLE_TOL,
            ))
        except ValueError as exc:
            skips.append({
                "quantity": f"grid_capacity_n{n}",
                "skipped": str(exc),
            })

        # literal product-of-powers policy update vs the optimized update
        for lam, iters, label in ((0.5, 0, "initial"), (0.0, 3, "midrun")):
            state = BaaState.initial(space, lam)
            for _ in range(iters):
                state = update_q(state.space, state.lam, *update_r(state))
            try:
                literal = literal_r_update(state)
            except ValueError as exc:
                skips.append({
                    "quantity": f"r_update_n{n}_{label}",
                    "skipped": str(exc),
                })
                continue
            main_policy, _ = update_r(state)
            lit_flat = np.concatenate([t.ravel() for t in literal.tables])
            main_flat = np.concatenate([t.ravel() for t in main_policy.tables])
            worst = int(np.argmax(np.abs(lit_flat - main_flat)))
            reports.append(OracleReport(
                quantity=f"r_update_n{n}_{label}",
                oracle_value=float(lit_flat[worst]),
                main_value=float(main_flat[worst]),
                search_space_size=lit_flat.size,
                method="deterministic-enumeration",
                tolerance=R_UPDATE_ORACLE_TOL,
            ))
    return reports, skips


def cmd_oracle_check(config_path: str, out_dir: str = ".") -> int:
    config, code = _load_config(config_path)
    if config is None:
        return code
    reports, skips = _oracle_reports(config)
    all_passed = all(r.passed for r in reports)
    doc = {
        "passed": all_passed,
        "checks": [_report_dict(r) for r in reports],
        "skipped": skips,
    }
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "oracle_report.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"write failure: {exc}", file=_sys.stderr)
        return EXIT_IO
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.quantity}: gap {rep.absolute_gap:.3e} "
              f"(tolerance {rep.tolerance:.0e})")
    for skip in skips:
        print(f"SKIP {skip['quantity']}: {skip['skipped']}")
    return EXIT_OK if all_passed else EXIT_SEMANTIC


def cmd_exponent(config_path: str, out_dir: str = ".") -> int:
    config, code = _load_config(config_path)
    if config is None:
        return code
    if config.exponent is None:
        print("/exponent: section required for the exponent command",
              file=_sys.stderr)
        return EXIT_SEMANTIC
    n = config.exponent.block_length
    spaces = [TrajectorySpace(config.kernel, config.actions, n, s0=s0)
              for s0 in range(config.kernel.state_size)]
    policy = CausalPolicy.uniform(n, spaces[0].u_size, spaces[0].z_size)
    lines = ["rho,s0,value"]
    for rho in config.exponent.rho_grid:
        for s0, space in enumerate(spaces):
            value = gallager_exponent(space, policy, rho)
            lines.append(f"{_fmt(rho)},{s0},{_fmt(value)}")
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_lines(os.path.join(out_dir, "exponent.csv"), lines)
    except OSError as exc:
        print(f"write failure: {exc}", file=_sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sampcap",
        description="capacity bounds for finite-state channels with "
                    "cost-constrained feedback sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "validate": cmd_validate,
        "capacity-sweep": cmd_capacity_sweep,
        "bounds": cmd_bounds,
        "oracle-check": cmd_oracle_check,
        "exponent": cmd_exponent,
    }
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
    args = parser.parse_args(argv)
    return commands[args.command](args.config, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
