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

Exit codes: 0 success, 1 semantic config error (or failed oracle check),
2 parse error, 3 I/O error. All numbers are emitted with 12 significant
digits; identical configs give byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import functools
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
    single_letter_bounds,
    time_sharing_baseline,
)
from .fsc import FscKernel
from .oracle import (
    OracleReport,
    grid_capacity,
    grid_search_space,
    literal_directed_info,
    literal_r_update,
    literal_violations,
)
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
# pre-flight memory check: a block length N is charged the bytes of its live
# tables and a solve's arrays (TrajectorySpace.footprint), from the kernel's
# support alone; above MAX_DENSE_BYTES it is rejected. Markovian N = 7 is
# charged 2.35 GiB (2,411 MiB) and passes (a solve peaks at 2,352 MiB RSS),
# N = 8 28.3 GiB; the limit leaves an 8 GB machine room for the estimate's
# error.
MAX_DENSE_BYTES = 3 * 2 ** 30


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
    single_letter: Optional[SingleLetterProblem] = None


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
                    "resolution")
SINGLE_LETTER_FIELDS = ("stationary_dist", "per_state_channel", "sampling",
                        "cost")


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
    return FscKernel(kernel=arr, initial_dist=init)


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
    return ActionSystem(sampling_table=table, cost_table=cost,
                        feedback_size=fb, budget=float(budget))


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
           "resolution": DEFAULT_RESOLUTION}
    run.update((k, v) for k, v in alg.items() if k in run and v is not None)
    found.extend(sweep_violations(run["epsilon"], run["max_iters"],
                                  run["lambda_grid"], run["gamma_points"]))
    found.extend(curve_violations(single, "decoder", run["resolution"]))
    if found:
        return None
    grid = run["lambda_grid"]
    return {**run, "epsilon": float(run["epsilon"]),
            "lambda_grid": None if grid is None else tuple(map(float, grid))}


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
    # reject a block length whose space would need more than MAX_DENSE_BYTES
    if kernel is not None and actions is not None:
        for k, n in enumerate(blocks or ()):
            need = TrajectorySpace.footprint(kernel, actions, n)
            if need > MAX_DENSE_BYTES:
                violations.append(
                    f"/block_lengths/{k}: block length {n} needs about "
                    f"{need / 2 ** 30:.3g} GiB of live tables, above the "
                    f"{MAX_DENSE_BYTES / 2 ** 30:g} GiB limit")
    if violations:
        return None, violations
    return ExperimentConfig(kernel=kernel, actions=actions,
                            block_lengths=tuple(blocks), single_letter=single,
                            **run), []


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


def cmd_validate(config_path: str, out_dir: str = ".") -> int:
    config, code, messages = _read_config(config_path)
    for msg in messages:
        print(msg)
    if config is not None:
        print(f"{config_path}: valid")
    return code


def _subcommand(name: str, section: Optional[str] = None):
    """The frame of a subcommand that writes files, around its body
    run(config, out_dir) -> exit code: read and validate the config, create
    out_dir, require the config section named section, if any, and only
    then run the body. Each failure is reported on stderr and ends the
    command with its exit code; an OSError out of the body, such as a
    failed write, is a write failure (EXIT_IO)."""
    def frame(run):
        @functools.wraps(run)
        def command(config_path: str, out_dir: str = ".") -> int:
            config, code, messages = _read_config(config_path)
            if config is not None:
                try:
                    os.makedirs(out_dir, exist_ok=True)
                except OSError as exc:
                    config, code = None, EXIT_IO
                    messages = [f"cannot create {out_dir}: {exc}"]
            if (config is not None and section is not None
                    and getattr(config, section) is None):
                config, code = None, EXIT_SEMANTIC
                messages = [f"/{section}: section required for the {name} "
                            "command"]
            for msg in messages:
                print(msg, file=_sys.stderr)
            if config is None:
                return code
            try:
                return run(config, out_dir)
            except OSError as exc:
                print(f"write failure: {exc}", file=_sys.stderr)
                return EXIT_IO
        return command
    return frame


def _write(out_dir: str, name: str, lines: Sequence[str]) -> None:
    """Write out_dir/name, each line ended by a newline: the rows of a CSV,
    or a JSON document as one line of json.dumps(doc, indent=2)."""
    with open(os.path.join(out_dir, name), "w", encoding="utf-8",
              newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


@_subcommand("capacity-sweep")
def cmd_capacity_sweep(config: ExperimentConfig, out_dir: str) -> int:
    report = {
        "epsilon": config.epsilon,
        "max_iters": config.max_iters,
        "lambda_grid": list(config.lambda_grid) if config.lambda_grid is not None
        else [float(v) for v in default_lambda_grid()],
        "block_lengths": list(config.block_lengths),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "package": __version__,
        },
        "runs": [],
    }
    uncertified = 0  # points that did not converge or ran near the cap
    # each block's CSVs are written as soon as it is done, so that an
    # interrupted sweep keeps those of the blocks before it
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
        _write(out_dir, f"sweep_{n}.csv", lines)
        env_lines = ["gamma,c_upper,c_lower_shifted"]
        for g, up, lo in zip(curve.gammas, curve.envelope,
                             sandwich_bounds(curve)):
            env_lines.append(f"{_fmt(g)},{_fmt(up)},{_fmt(lo)}")
        _write(out_dir, f"envelope_{n}.csv", env_lines)
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
    _write(out_dir, "report.json", [json.dumps(report, indent=2)])
    if uncertified:
        print(f"warning: {uncertified} lambda points did not converge or ran "
              "near max_iters; their blocks are not certified",
              file=_sys.stderr)
    return EXIT_OK


@_subcommand("bounds", "single_letter")
def cmd_bounds(config: ExperimentConfig, out_dir: str) -> int:
    prob = config.single_letter
    span = float(prob.cost.max()) or 1.0  # costs are nonnegative
    gammas = np.linspace(0.0, span, config.gamma_points)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AscentCapWarning)
        c0, c1, enc_curve, dec_curve = single_letter_bounds(
            prob, gammas, resolution=config.resolution
        )
    capped = 0
    for record in caught:
        if issubclass(record.category, AscentCapWarning):
            capped += record.message.rows
        else:
            warnings.showwarning(record.message, record.category,
                                 record.filename, record.lineno)
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
    _write(out_dir, "bounds.csv", lines)
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

        # literal product-of-powers policy update, against the posterior it
        # recomputes, vs the optimized update against update_q's
        for lam, iters, label in ((0.5, 0, "initial"), (0.0, 3, "midrun")):
            state = BaaState.initial(space, lam)
            for _ in range(iters):
                state = update_q(state.space, state.lam, *update_r(state))
            try:
                literal = literal_r_update(state.r, kernel, sys_, lam)
            except ValueError as exc:
                skip(f"r_update_n{n}_{label}", exc)
                continue
            main_policy = space.dense_policy(update_r(state)[0])
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


@_subcommand("oracle-check")
def cmd_oracle_check(config: ExperimentConfig, out_dir: str) -> int:
    reports, skips = _oracle_reports(config)
    all_passed = all(r.passed for r in reports)
    doc = {
        "passed": all_passed,
        "checks": [_report_dict(r) for r in reports],
        "skipped": skips,
    }
    _write(out_dir, "oracle_report.json", [json.dumps(doc, indent=2)])
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.quantity}: gap {rep.absolute_gap:.3e} "
              f"(tolerance {rep.tolerance:.0e})")
    for skip in skips:
        print(f"SKIP {skip['quantity']}: {skip['skipped']}")
    return EXIT_OK if all_passed else EXIT_SEMANTIC


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
