#!/usr/bin/env python3
"""Trace the capacity-cost tradeoff of a configured channel.

Runs the Lagrangian alternating-maximization sweep for every configured
block length, writes sweep_N.csv / envelope_N.csv / report.json into the
output directory, and prints one landmark line per block length: the
zero-budget value, the free-sampling value, and the smallest budget whose
envelope value is within a slack of free sampling.

Example:
    python3 scripts/tradeoff_sweep.py --config configs/markovian.json \
        --out results/sweep
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from sampcap.cli import cmd_capacity_sweep

REPO_ROOT = Path(__file__).resolve().parents[1]


def landmark_line(out_dir: Path, n: int, slack: float) -> str:
    data = np.genfromtxt(out_dir / f"envelope_{n}.csv", delimiter=",", names=True)
    gammas = np.atleast_1d(data["gamma"])
    upper = np.atleast_1d(data["c_upper"])
    free = float(upper[-1])
    hit = int(np.argmax(upper >= free - slack))
    return (
        f"N={n}: C(0) = {upper[0]:.6f} bits, C({gammas[-1]:g}) = {free:.6f} bits, "
        f"within {slack:g} of free sampling from budget {gammas[hit]:.4f} on"
    )


def main() -> int:
    parser = argparse.ArgumentParser(
        description="capacity-cost tradeoff sweep over the configured lambda grid"
    )
    parser.add_argument(
        "--config", default=str(REPO_ROOT / "configs" / "markovian.json")
    )
    parser.add_argument("--out", default="results/sweep")
    parser.add_argument("--slack", type=float, default=1e-3,
                        help="saturation slack in bits")
    args = parser.parse_args()

    code = cmd_capacity_sweep(args.config, args.out)
    if code != 0:
        return code
    out_dir = Path(args.out)
    with open(out_dir / "report.json", "r", encoding="utf-8") as fh:
        report = json.load(fh)
    for run in report["runs"]:
        print(landmark_line(out_dir, run["block_length"], args.slack))
        print(
            f"     {run['runtime_seconds']:.1f} s, max final gap "
            f"{run['max_final_gap']:.2e}, "
            f"{run['nonconverged_points']} nonconverged points"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
