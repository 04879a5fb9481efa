#!/usr/bin/env python3
"""Evaluate single-letter lower bounds against the time-sharing baseline.

Writes bounds.csv (budget grid, encoder and decoder lower bounds, the
time-sharing line, and the zero/unit-cost capacities) into the output
directory, then prints the endpoint capacities, the largest advantage of
the encoder bound over time sharing, and the smallest budget at which the
encoder bound reaches the unit-cost capacity within a slack.

Example:
    python3 scripts/analytic_bounds.py --config configs/markovian.json \
        --out results/bounds
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from sampcap.cli import cmd_bounds

REPO_ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(
        description="single-letter lower bounds over a budget grid"
    )
    parser.add_argument(
        "--config", default=str(REPO_ROOT / "configs" / "markovian.json")
    )
    parser.add_argument("--out", default="results/bounds")
    parser.add_argument("--slack", type=float, default=1e-6,
                        help="saturation slack in bits")
    args = parser.parse_args()

    code = cmd_bounds(args.config, args.out)
    if code != 0:
        return code
    data = np.genfromtxt(Path(args.out) / "bounds.csv", delimiter=",", names=True)
    gammas = np.atleast_1d(data["gamma"])
    enc = np.atleast_1d(data["c_enc_lower"])
    ts = np.atleast_1d(data["time_sharing"])
    c0 = float(np.atleast_1d(data["c0"])[0])
    c1 = float(np.atleast_1d(data["c1"])[0])
    print(f"C(0) = {c0:.6f} bits, C(max budget) = {c1:.6f} bits")
    advantage = enc - ts
    best = int(np.nanargmax(advantage))
    print(
        f"largest gain of the encoder bound over time sharing: "
        f"{advantage[best]:.6f} bits at budget {gammas[best]:.4f}"
    )
    saturated = np.nonzero(enc >= c1 - args.slack)[0]
    if saturated.size:
        print(
            f"encoder bound within {args.slack:g} bits of the unit-cost value "
            f"from budget {gammas[saturated[0]]:.4f} on"
        )
    else:
        print("encoder bound does not reach the unit-cost value on this grid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
