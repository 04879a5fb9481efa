#!/usr/bin/env python3
"""sampcap benchmark: batch workloads run through ``sampcap.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-n2-band --seed 1 --seconds 42 --trace 0

Each workload is a closed loop with one client: one batch job (one call of
``sampcap.cli.main`` with ``--threads 1``) runs to completion, its outputs are
checked against recorded reference values, then the next job starts. Jobs run
while the next one, judged by the median job so far, would end within
``--seconds``, and at least ``MIN_JOBS`` jobs run. With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` the jobs
alternate untraced and traced and the line carries the per-layer metrics (see
perfbench/README.md). The ``smoke`` workload runs the same path on
``configs/bsc.json`` at N=1 in milliseconds per job.

The program receives only the configs generated here from the bundled
markovian/bsc configs. Each job gets its own ``algorithm.seed``, drawn from a
generator seeded with ``--seed``, so a run's median covers many draws of the
random restarts that the ``bounds`` jobs make.
Scratch files go to ``.perfbench_work/<workload>/`` and are replaced per run.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy is imported (here or in a child)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import CLI_SPAN, TRAJECTORY_SPAN, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE_PATH = BENCH_DIR / "reference.json"

MARKOVIAN = "configs/markovian.json"
BSC = "configs/bsc.json"

# name -> (base config, cli subcommand, block length, algorithm overrides).
# The first three are the ones BENCHMARK.json lists. Their jobs take about
# 1 s, so a run holds 30 or more of them, and a run of fixed length ends
# within one short job of --seconds. The next three are the full-size jobs they are cut
# from: 15-20 s each, two per run, so one slow stretch of the shared machine
# moves their median. They reproduce the ROADMAP baseline counts with
# --trace 1.
LAMBDA_BAND = [0.0, 0.01, 0.0146779926762, 10.0]
WORKLOADS = {
    "sweep-n2-band": (MARKOVIAN, "capacity-sweep", 2, {"lambda_grid": LAMBDA_BAND}),
    "sweep-n4": (MARKOVIAN, "capacity-sweep", 4, {"lambda_grid": [10.0]}),
    "single-letter-coarse": (MARKOVIAN, "bounds", None, {"resolution": 11}),
    "sweep-n2": (MARKOVIAN, "capacity-sweep", 2, {"lambda_grid": None}),
    "sweep-n5": (MARKOVIAN, "capacity-sweep", 5, {"lambda_grid": [10.0]}),
    "single-letter": (MARKOVIAN, "bounds", None, {}),
    "smoke": (BSC, "capacity-sweep", 1, {"lambda_grid": None}),
}
CLI_FUNCTIONS = {"capacity-sweep": "cmd_capacity_sweep", "bounds": "cmd_bounds"}

SETUP_PROBES = 9
MIN_JOBS = 2           # a run reports the median of at least two jobs
BOUNDS_TOL = 1e-6      # bits, bounds.csv against its reference
CSV_ROUNDING = 1e-11   # the CLI writes 12 significant digits
NEAR_CAP = 0.9         # share of max_iters that marks a point near the cap

END_TO_END_UNITS = {"job_cal": "cal", "points_per_cal": "1/cal",
                    "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "ratio"}
PER_LAYER_UNITS = {
    "baa.iterations": "count", "baa.iterations_max": "count",
    "baa.near_cap_points": "count", "baa.iter_ms": "ms",
    "baa.update_r_ms": "ms", "baa.update_q_ms": "ms",
    "baa.lower_bound_ms": "ms", "baa.upper_bound_ms": "ms",
    "baa.run_baa_self_s": "s", "baa.sweep_self_s": "s", "cli.self_s": "s",
    "trajectory.build_s": "s", "trajectory.builds": "count",
    "trajectory.table_mb": "MB", "bounds.curve_s": "s",
    "bounds.endpoints_s": "s", "bounds.rows": "count",
    "baa.converged_ratio": "ratio", "bounds.feasible_ratio": "ratio",
    "trace.overhead_s": "s",
}
ITERATION_SPANS = ("baa.update_r", "baa.update_q", "baa.lower_bound",
                   "baa.upper_bound")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def calibrate() -> float:
    """Seconds for a fixed loop of numpy work that runs no sampcap code.

    The loop mixes many calls on small arrays, as the N=2 sweeps make, with a
    few on a 256x256 array. It runs before every untraced job, so its median
    sees the same stretch of the shared host as the jobs' median does. A job
    time divided by it is a job time in units of this loop ("cal"), which the
    host's speed drift moves far less than it moves seconds.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.random((16, 16))
    large = rng.random((256, 256))
    start = time.perf_counter()
    for _ in range(600):
        p = np.exp(small - small.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        np.einsum("ij,jk->ik", p, small).sum()
    for _ in range(40):
        (np.log1p(large) * large).sum(axis=0).max()
    return time.perf_counter() - start


def environment() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cli_threads": 1,
    }


def prepare(workload: str, seed: int, work: Path) -> Path:
    """Write the workload's config, derived from a bundled one, and parse it."""
    from sampcap.cli import parse_config

    base, _, block_length, overrides = WORKLOADS[workload]
    with open(ROOT / base, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["algorithm"].update(overrides, seed=seed)
    if block_length is not None:
        doc["block_lengths"] = [block_length]
    work.mkdir(parents=True, exist_ok=True)
    path = work / "config.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    with open(path, encoding="utf-8") as fh:
        config, violations = parse_config(json.load(fh))
    if config is None:
        raise ValueError(f"generated config is invalid: {violations}")
    return path


def measure_setup(workload: str, seed: int, work: Path) -> float:
    """Seconds from spawning a fresh interpreter until its workload is ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(seed), "--setup-probe", str(work)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child
    return float(done.stdout.split()[-1]) - start


def read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def close(value: str, ref, tol: float) -> bool:
    """A CSV field against its reference; empty and nan fields must match."""
    if ref is None or value in ("", "nan"):
        return (ref is None) == (value in ("", "nan"))
    return abs(float(value) - ref) <= tol


def check_sweep(out: Path, ref: dict, offset: float, n: int,
                eps: float, max_iters: int) -> dict:
    """Per-lambda checks of one capacity-sweep job.

    A point passes when it converged with gap <= eps, I_L <= I_U and
    C_N(lambda) within eps of its reference. The envelope and report.json are
    job-level checks: if either fails, every point of the job fails.
    """
    tol = eps + CSV_ROUNDING
    points = len(ref["c_lambda"])
    result = {"points": points, "failed": points, "iterations": [],
              "converged": 0, "near_cap": 0}
    try:
        rows = read_csv(out / f"sweep_{n}.csv")
        envelope = read_csv(out / f"envelope_{n}.csv")
        with open(out / "report.json", encoding="utf-8") as fh:
            run = json.load(fh)["runs"][0]
        if len(rows) != points or any(
                abs(float(row[0]) - lam) > CSV_ROUNDING * max(1.0, lam)
                for row, lam in zip(rows, ref["lambda"])):
            raise ValueError("lambda column differs from the reference grid")
        job_ok = (
            len(envelope) == len(ref["envelope"])
            and all(close(v, None if r is None else r + offset, tol)
                    for row, ref_row in zip(envelope, ref["envelope"])
                    for v, r in zip(row, ref_row))
            and run["nonconverged_points"] == 0
            and run["max_final_gap"] <= eps
        )
        values = [(float(row[2]), float(row[3]), float(row[4]), int(row[5]),
                   row[6] == "true") for row in rows]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        result["error"] = f"unreadable output: {exc}"
        return result
    failed = 0
    for (c, i_lower, i_upper, iterations, converged), c_ref in zip(
            values, ref["c_lambda"]):
        result["iterations"].append(iterations)
        result["converged"] += converged
        result["near_cap"] += iterations >= NEAR_CAP * max_iters
        failed += not (job_ok and converged and i_lower <= i_upper
                       and i_upper - i_lower <= tol
                       and abs(c - (c_ref + offset)) <= tol)
    result["failed"] = failed
    if not job_ok:
        result["error"] = "envelope or report.json differs from the reference"
    return result


def check_bounds(out: Path, ref: dict, offset: float) -> dict:
    """Per-row checks of one bounds job against its reference within 1e-6."""
    ref_rows = ref["rows"]
    result = {"points": len(ref_rows), "failed": len(ref_rows), "feasible": 0}
    try:
        rows = read_csv(out / "bounds.csv")
    except OSError as exc:
        result["error"] = f"unreadable output: {exc}"
        return result
    if len(rows) != len(ref_rows):
        result["error"] = "row count differs from the reference"
        return result
    failed = 0
    for row, ref_row in zip(rows, ref_rows):
        try:
            ok = len(row) == len(ref_row) and all(
                close(v, None if r is None else r + offset, BOUNDS_TOL)
                for v, r in zip(row, ref_row))
        except ValueError:
            ok = False
        failed += not ok
        result["feasible"] += all(v not in ("", "nan") for v in row)
    result["failed"] = failed
    return result


def run_job(workload: str, config: Path, out: Path) -> tuple[float, object]:
    """One timed call of sampcap.cli.main; returns (seconds, exit code)."""
    from sampcap import cli

    shutil.rmtree(out, ignore_errors=True)
    argv = [WORKLOADS[workload][1], "--config", str(config), "--out", str(out),
            "--threads", "1"]
    captured = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crashing job is a failed job, never a crashed run
        traceback.print_exc()
        code = "exception"
    seconds = time.perf_counter() - start
    out.mkdir(parents=True, exist_ok=True)
    (out / "stdout.txt").write_text(captured.getvalue(), encoding="utf-8")
    return seconds, code


def check_job(workload: str, out: Path, code, reference: dict,
              offset: float, config: Path) -> dict:
    ref = reference[workload]
    if WORKLOADS[workload][1] == "bounds":
        result = check_bounds(out, ref, offset)
    else:
        with open(config, encoding="utf-8") as fh:
            alg = json.load(fh)["algorithm"]
        result = check_sweep(out, ref, offset, WORKLOADS[workload][2],
                             alg["epsilon"], alg["max_iters"])
    if code != 0:
        result["failed"] = result["points"]
        result["error"] = f"exit code {code}"
    return result


def layer_metrics(tracer, run_id: int, check: dict) -> dict:
    """Per-layer numbers of one traced job, from its spans and outputs."""
    times = tracer.self_times(run_id)

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return times.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    def per_call_ms(name):
        return 1e3 * own(name) / calls(name) if calls(name) else 0.0

    iterations = check.get("iterations", [])
    total_iters = sum(iterations)
    points = check["points"]
    table = [b for rid, b in tracer.table_bytes if rid == run_id]
    is_bounds = "feasible" in check
    return {
        "baa.iterations": total_iters,
        "baa.iterations_max": max(iterations, default=0),
        "baa.near_cap_points": check.get("near_cap", 0),
        "baa.iter_ms": (1e3 * sum(own(n) for n in ITERATION_SPANS) / total_iters
                        if total_iters else 0.0),
        "baa.update_r_ms": per_call_ms("baa.update_r"),
        "baa.update_q_ms": per_call_ms("baa.update_q"),
        "baa.lower_bound_ms": per_call_ms("baa.lower_bound"),
        "baa.upper_bound_ms": per_call_ms("baa.upper_bound"),
        "baa.run_baa_self_s": own("baa.run_baa"),
        "baa.sweep_self_s": own("baa.sweep_lambda") + own("baa.sandwich_bounds"),
        "cli.self_s": own(CLI_SPAN),
        "trajectory.build_s": inclusive(TRAJECTORY_SPAN),
        "trajectory.builds": calls(TRAJECTORY_SPAN),
        "trajectory.table_mb": max(table, default=0) / 1e6,
        "bounds.curve_s": inclusive("bounds.single_letter_curve"),
        "bounds.endpoints_s": inclusive("bounds.zero_unit_cost_capacity"),
        "bounds.rows": points if is_bounds else 0,
        "baa.converged_ratio": (check.get("converged", 0) / points
                                if not is_bounds else 0.0),
        "bounds.feasible_ratio": check["feasible"] / points if is_bounds else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference-offset", type=float, default=0.0,
                        help="add this to every reference value; a nonzero "
                             "offset must show up as failed points")
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    base = WORKLOADS[args.workload][0]
    if not (ROOT / "src" / "sampcap" / "cli.py").is_file() \
            or not (ROOT / base).is_file():
        return fail(f"no sampcap sources or {base} under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import sampcap.cli  # the import is part of set-up

    if Path(sampcap.cli.__file__).resolve().parents[2] != ROOT:
        return fail(f"imported sampcap from {sampcap.cli.__file__}, not {ROOT}")
    seed = args.seed % 2**32  # algorithm.seed must be a nonnegative integer
    if args.setup_probe:
        prepare(args.workload, seed, Path(args.setup_probe))
        print(time.perf_counter())
        return 0

    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    job_seeds = random.Random(seed)
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)

    tracer = Tracer() if args.trace else None
    cli_function = CLI_FUNCTIONS[WORKLOADS[args.workload][1]]
    jobs = []  # (traced, seconds, check)
    setup_times = []
    cal_times = []
    probes = 0 if tracer else SETUP_PROBES
    start = time.perf_counter()
    while True:
        # set-up probes are spread over the run, between jobs, so that their
        # median sees the same stretch of machine speed as the jobs do
        if (len(setup_times) < probes and time.perf_counter() - start
                >= len(setup_times) * args.seconds / probes):
            setup_times.append(measure_setup(
                args.workload, seed, work / f"probe{len(setup_times)}"))
        traced = tracer is not None and len(jobs) % 2 == 1
        job_seed = job_seeds.randrange(2**32)
        config = prepare(args.workload, job_seed, work)
        out = work / "out"
        if traced:
            with tracer.job(len(jobs), cli_function):
                seconds, code = run_job(args.workload, config, out)
        else:
            cal_times.append(calibrate())
            seconds, code = run_job(args.workload, config, out)
        check = check_job(args.workload, out, code, reference,
                          args.reference_offset, config)
        check["seed"] = job_seed
        if "error" in check:
            print(f"perfbench: job {len(jobs)}: {check['error']}", file=sys.stderr)
        jobs.append((traced, seconds, check))
        # start no job that would end past --seconds, judged by the median
        # job so far, so a run lasts about --seconds whatever the job length
        expected = statistics.median(s for _, s, _ in jobs)
        if (len(jobs) >= MIN_JOBS and time.perf_counter() - start
                + expected > args.seconds):
            break
    while len(setup_times) < probes:
        setup_times.append(measure_setup(
            args.workload, seed, work / f"probe{len(setup_times)}"))

    attempted = sum(c["points"] for _, _, c in jobs)
    failed = sum(c["failed"] for _, _, c in jobs)
    plain = [(s, c) for t, s, c in jobs if not t]
    if tracer is None:
        cal = statistics.median(cal_times)
        metrics = {
            "job_cal": statistics.median(s for s, _ in plain) / cal,
            "points_per_cal": statistics.median(
                (c["points"] - c["failed"]) / s for s, c in plain) * cal,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            * 1024 / 1e6,
            "setup_s": statistics.median(setup_times),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    else:
        traced_jobs = [(i, s, c) for i, (t, s, c) in enumerate(jobs) if t]
        per_job = [layer_metrics(tracer, i, c) for i, _, c in traced_jobs]
        metrics = {name: statistics.median(m[name] for m in per_job)
                   for name in per_job[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(s for _, s, _ in traced_jobs)
            - statistics.median(s for s, _ in plain))
        units = PER_LAYER_UNITS
        tracer.write(work / "spans.json")

    record = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "environment": environment(),
        "jobs": [{"traced": t, "seconds": s, "seed": c["seed"],
                  "points": c["points"],
                  "failed": c["failed"], "error": c.get("error")}
                 for t, s, c in jobs],
        "setup_seconds": setup_times,
        "calibration_seconds": cal_times,
    }
    with open(work / "run.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": record["environment"],
                      "job_seconds": [s for _, s, _ in jobs],
                      "calibration_seconds": cal_times}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
