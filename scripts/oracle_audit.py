#!/usr/bin/env python3
"""Run the brute-force oracle battery on bundled configurations.

For each configuration the oracle comparisons (literal directed information
vs the optimizer's N I_L at lambda = 0, exhaustive policy grid vs the
Lagrangian envelope, and the literal product-of-powers policy update vs the
optimized one) are
written to <out>/<config stem>/oracle_report.json and summarized on one
line. The exit status is nonzero when any comparison exceeds its tolerance.

Example:
    python3 scripts/oracle_audit.py --out results/oracle
"""

import argparse
import json
import sys
from pathlib import Path

from sampcap.cli import cmd_oracle_check

REPO_ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(
        description="brute-force oracle cross-checks per configuration"
    )
    parser.add_argument(
        "--configs",
        nargs="*",
        default=[
            str(REPO_ROOT / "configs" / "bsc.json"),
            str(REPO_ROOT / "configs" / "markovian.json"),
        ],
    )
    parser.add_argument("--out", default="results/oracle")
    args = parser.parse_args()

    failures = 0
    for cfg in args.configs:
        stem = Path(cfg).stem
        target = Path(args.out) / stem
        code = cmd_oracle_check(cfg, str(target))
        report_path = target / "oracle_report.json"
        if not report_path.exists():
            print(f"{stem}: ERROR (exit {code}, no report written)")
            failures += 1
            continue
        with open(report_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        worst = max((c["absolute_gap"] for c in doc["checks"]), default=0.0)
        verdict = "PASS" if doc["passed"] else "FAIL"
        print(
            f"{stem}: {verdict} ({len(doc['checks'])} checks, "
            f"{len(doc['skipped'])} skipped, worst gap {worst:.3e})"
        )
        failures += int(code != 0)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
