"""Config-driven command line: validation, sweeps, bounds, oracle checks.

One JSON document describes the channel, the action system, and the
algorithm parameters; each subcommand reads it and emits CSV/JSON files.
parse_config checks only JSON types and the dense-table size; every other
rule is the violations(...) of the library call that enforces it, whose
messages it prefixes with their section, so validate accepts exactly what
every subcommand can run.

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
import os
import platform
import re
import sys as _sys
import time
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import __version__
from ._num import is_integer, is_number
from .actions import ActionSystem
from .baa import (
    BaaState,
    DEFAULT_EPSILON,
    DEFAULT_GAMMA_POINTS,
    DEFAULT_MAX_ITERS,
    default_lambda_grid,
    sandwich_bounds,
    sweep_lambda,
    sweep_violations,
    update_q,
    update_r,
)
from .bounds import (
    AscentCapWarning,
    DEFAULT_RESOLUTION,
    SingleLetterProblem,
    curve_violations,
    exponent_violations,
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
    literal_violations,
)
from .policy import CausalPolicy
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
# passes, N = 7 18 GiB). The limit stays because the build still forms the
# dense channel law once, but the other eight arrays are an over-count: the
# optimizer's arrays hold live entries (p > 0), live parents (past law > 0)
# or reachable history slots, and no policy table is read beyond its
# reachable rows (markovian N = 6 peaks at about 0.3 GB). Counting those
# instead would admit larger N.
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
    return arr


def _as_int_array(node, pointer: str, violations: list[str]):
    """Integer array of a nested list; a bool or a fractional entry is
    reported, not truncated."""
    try:
        leaves = np.array(node, dtype=object)
    except (TypeError, ValueError):
        leaves = None
    if leaves is None or not all(is_number(v) and float(v).is_integer()
                                 for v in leaves.ravel()):
        violations.append(f"{pointer}: entries must be integers")
        return None
    return leaves.astype(int)


def _positive_int(node, pointer: str, violations: list[str]):
    if not (is_integer(node) and node >= 1):
        violations.append(f"{pointer}: must be a positive integer")
        return None
    return node


def _parse_section(doc: dict, name: str, fields: tuple[str, ...], read,
                   violations: list[str], required: bool = True,
                   default: Optional[dict] = None):
    """Read one object section with read(node, found), which appends
    messages relative to the section to found. They are reported under
    /name/, ordered by field as listed in fields (stably), so that the JSON
    type faults and the library's messages come field by field. A missing
    or null section is reported if required, else read as default if one
    is given, else None."""
    node = doc.get(name)
    if node is None:
        if required:
            violations.append(f"/{name}: missing required section")
        if default is None:
            return None
        node = default
    if not isinstance(node, dict):
        violations.append(f"/{name}: must be an object")
        return None
    found: list[str] = []
    value = read(node, found)
    found.sort(key=lambda msg: fields.index(re.split("[/:]", msg, 1)[0]))
    violations.extend(f"/{name}/{msg}" for msg in found)
    return value


CHANNEL_FIELDS = ("state_size", "input_size", "output_size", "kernel",
                  "initial_dist")
ACTIONS_FIELDS = ("encoder_size", "decoder_size", "feedback_size",
                  "sampling_table", "cost_table", "budget")
ALGORITHM_FIELDS = ("epsilon", "max_iters", "lambda_grid", "gamma_points",
                    "resolution", "seed")
SINGLE_LETTER_FIELDS = ("stationary_dist", "per_state_channel", "sampling",
                        "cost")
EXPONENT_FIELDS = ("block_length", "rho_grid")


def _read_channel(ch: dict, found: list[str]) -> Optional[FscKernel]:
    s_size = _positive_int(ch.get("state_size"), "state_size", found)
    x_size = _positive_int(ch.get("input_size"), "input_size", found)
    y_size = _positive_int(ch.get("output_size"), "output_size", found)
    if None in (s_size, x_size, y_size):
        return None
    arr = _as_float_array(ch.get("kernel"), "kernel", found)
    init = _as_float_array(ch.get("initial_dist"), "initial_dist", found)
    found.extend(FscKernel.violations(s_size, x_size, y_size, arr, init))
    if found:
        return None
    return FscKernel(state_alphabet=Alphabet(s_size),
                     input_alphabet=Alphabet(x_size),
                     output_alphabet=Alphabet(y_size),
                     kernel=arr, initial_dist=init)


def _read_actions(ac: dict, kernel: Optional[FscKernel],
                  found: list[str]) -> Optional[ActionSystem]:
    enc = _positive_int(ac.get("encoder_size"), "encoder_size", found)
    dec = _positive_int(ac.get("decoder_size"), "decoder_size", found)
    fb = _positive_int(ac.get("feedback_size"), "feedback_size", found)
    table = _as_int_array(ac.get("sampling_table"), "sampling_table", found)
    cost = _as_float_array(ac.get("cost_table"), "cost_table", found)
    budget = ac.get("budget", 0.0)
    if not is_number(budget):
        found.append("budget: must be a finite nonnegative number")
        budget = None
    # the one rule across sections: the table's last axis is the channel's
    # output alphabet, checked only against a valid channel
    y_size = kernel.output_size if kernel is not None else None
    found.extend(ActionSystem.violations(enc, dec, fb, table, cost, budget,
                                         y_size))
    if dec is not None:
        found.extend(TrajectorySpace.violations(decoder_size=dec))
    if found:
        return None
    return ActionSystem(encoder_actions=Alphabet(enc),
                        decoder_actions=Alphabet(dec),
                        feedback_alphabet=Alphabet(fb), sampling_table=table,
                        cost_table=cost, budget=float(budget))


def _read_single_letter(sl: dict,
                        found: list[str]) -> Optional[SingleLetterProblem]:
    pi = _as_float_array(sl.get("stationary_dist"), "stationary_dist", found)
    chan = _as_float_array(sl.get("per_state_channel"), "per_state_channel",
                           found)
    samp = _as_int_array(sl.get("sampling"), "sampling", found)
    cost = _as_float_array(sl.get("cost"), "cost", found)
    found.extend(SingleLetterProblem.violations(pi, chan, samp, cost))
    if found:
        return None
    return SingleLetterProblem(stationary_dist=pi, per_state_channel=chan,
                               sampling=samp, cost=cost)


def _read_algorithm(alg: dict, single: Optional[SingleLetterProblem],
                    found: list[str]) -> Optional[dict]:
    """The run parameters, each missing or null one at its default, by the
    rules of sweep_lambda and of single_letter_bounds on the problem."""
    run = {"epsilon": DEFAULT_EPSILON, "max_iters": DEFAULT_MAX_ITERS,
           "lambda_grid": None, "gamma_points": DEFAULT_GAMMA_POINTS,
           "resolution": DEFAULT_RESOLUTION, "seed": 0}
    run.update((k, v) for k, v in alg.items() if k in run and v is not None)
    found.extend(sweep_violations(run["epsilon"], run["max_iters"],
                                  run["lambda_grid"], run["gamma_points"]))
    found.extend(curve_violations(single, "decoder", run["resolution"],
                                  run["seed"]))
    if found:
        return None
    grid = run["lambda_grid"]
    return {**run, "epsilon": float(run["epsilon"]),
            "lambda_grid": None if grid is None else tuple(map(float, grid))}


def _read_exponent(ex: dict, found: list[str]) -> Optional[ExponentSpec]:
    n, rho = ex.get("block_length"), ex.get("rho_grid")
    found.extend(TrajectorySpace.violations(n=n))
    found.extend(exponent_violations(rho))
    if found:
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
    kernel = _parse_section(doc, "channel", CHANNEL_FIELDS, _read_channel,
                            violations)
    actions = _parse_section(
        doc, "actions", ACTIONS_FIELDS,
        lambda node, found: _read_actions(node, kernel, found), violations)
    blocks = doc.get("block_lengths")
    # a broken entry is reported for the list as a whole
    if (not isinstance(blocks, list) or not blocks
            or any(TrajectorySpace.violations(n=b) for b in blocks)):
        violations.append("/block_lengths: must be a nonempty list of positive "
                          "integers")
        blocks = None
    # the single-letter problem is read first, since the size of its action
    # grid is an algorithm rule, and reported after the algorithm section
    single_found: list[str] = []
    single = _parse_section(doc, "single_letter", SINGLE_LETTER_FIELDS,
                            _read_single_letter, single_found, required=False)
    run = _parse_section(
        doc, "algorithm", ALGORITHM_FIELDS,
        lambda node, found: _read_algorithm(node, single, found), violations,
        required=False, default={})
    violations.extend(single_found)
    exponent = _parse_section(doc, "exponent", EXPONENT_FIELDS, _read_exponent,
                              violations, required=False)
    if kernel is not None and actions is not None:
        for k, n in enumerate(blocks or ()):
            _check_footprint(kernel, actions, n, f"/block_lengths/{k}",
                             violations)
        if exponent is not None:
            _check_footprint(kernel, actions, exponent.block_length,
                             "/exponent/block_length", violations)
    if violations:
        return None, violations
    return ExperimentConfig(kernel=kernel, actions=actions,
                            block_lengths=tuple(blocks), single_letter=single,
                            exponent=exponent, **run), []


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


def _pick_grid_step(kernel: FscKernel, sys_: ActionSystem,
                    n: int) -> tuple[float, int]:
    """Finest step in {0.01, 0.02, 0.05, 0.1} within the search budget, and
    its search space size."""
    for step in (0.01, 0.02, 0.05, 0.1):
        size = grid_search_space(kernel, sys_, n, step)
        if size <= GRID_POINT_BUDGET:
            break
    return step, size


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

    def skip(quantity: str, reason) -> None:
        skips.append({"quantity": quantity, "skipped": str(reason)})

    for n in ORACLE_BLOCKS:
        # one space per block length serves every optimized computation
        space = TrajectorySpace(kernel, sys_, n)

        # directed information: the definition on the literal joint vs the
        # optimizer's own N I_L at lambda = 0, skipped before anything is
        # built if the definition cannot enumerate the joint
        too_large = literal_violations(space.rows * space.cols)
        if too_large:
            for label in ("uniform", "optimized"):
                skip(f"directed_info_n{n}_{label}", too_large[0])
        else:
            state = BaaState.initial(space, 0.0)
            for label, iters in (("uniform", 0), ("optimized", 5)):
                for _ in range(iters):
                    state = update_q(state.space, state.lam, *update_r(state))
                reports.append(OracleReport(
                    quantity=f"directed_info_n{n}_{label}",
                    oracle_value=literal_directed_info(state.r, kernel, sys_),
                    main_value=n * state.i_lower,
                    search_space_size=space.rows * space.cols,
                    method="literal-sum",
                    tolerance=DI_ORACLE_TOL,
                ))

        # grid search vs lambda envelope at the configured budget
        try:
            step, size = _pick_grid_step(kernel, sys_, n)
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
            skip(f"grid_capacity_n{n}", exc)

        # literal product-of-powers policy update vs the optimized update
        for lam, iters, label in ((0.5, 0, "initial"), (0.0, 3, "midrun")):
            state = BaaState.initial(space, lam)
            for _ in range(iters):
                state = update_q(state.space, state.lam, *update_r(state))
            try:
                literal = literal_r_update(state)
            except ValueError as exc:
                skip(f"r_update_n{n}_{label}", exc)
                continue
            main_policy = CausalPolicy.from_rows(space, update_r(state)[0])
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
