#!/usr/bin/env python3
"""Checks that the benchmark itself works, in a few seconds.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs the ``smoke`` workload (configs/bsc.json at N=1) and checks that

  - both modes print exactly the metric names and units BENCHMARK.json lists,
    with every point correct;
  - a deliberately wrong reference (``--reference-offset 1e-3``) fails every
    point and still exits 0, so the correctness gate is live;
  - in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--workload", "smoke", "--seed", "7", "--seconds", "0.5"]


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAILED: {message}")


def run(extra: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    done = subprocess.run([sys.executable, *RUN, *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout


def result(stdout: str) -> dict:
    doc = json.loads(stdout.strip().splitlines()[-1])
    require(set(doc) == {"correct", "attempted", "failed", "metrics"},
            f"result keys {sorted(doc)}")
    return doc


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        code, out = run(["--trace", trace])
        require(code == 0, f"--trace {trace} exited {code}")
        doc = result(out)
        require(doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0,
                f"--trace {trace}: {doc['failed']} of {doc['attempted']} failed")
        want = {m["name"]: m["unit"] for m in bench[section]}
        got = {name: m["unit"] for name, m in doc["metrics"].items()}
        require(got == want, f"--trace {trace}: metrics {got} != {want}")

    code, out = run(["--trace", "0", "--reference-offset", "1e-3"])
    doc = result(out)
    require(code == 0, f"wrong reference exited {code}")
    require(not doc["correct"] and doc["failed"] == doc["attempted"] > 0
            and doc["metrics"]["ok_frac"]["value"] == 0.0,
            f"wrong reference not caught: {doc}")

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run(["--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    require(code != 0 and '"correct"' not in out,
            f"bare directory exited {code} with output {out!r}")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
