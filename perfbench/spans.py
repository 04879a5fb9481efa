"""In-memory spans around the public layer functions of sampcap.

A traced job swaps each target function for a wrapper that records one span
per call: (name, start, end, parent span index, run id). The wrapper is
installed at every sampcap module attribute that refers to the original
function, so callers find it under whatever name they look up (``sampcap.cli``
imports ``sweep_lambda`` by name, ``run_baa`` finds ``update_r`` in
``sampcap.baa``). Everything is restored when the job ends, so untraced jobs
run the program unmodified. Calls nest on one thread, which the benchmark pins.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (module, attribute) of the function the span wraps; the cli
# subcommand is added per job
TARGETS = {
    "baa.sweep_lambda": ("sampcap.baa", "sweep_lambda"),
    "baa.sandwich_bounds": ("sampcap.baa", "sandwich_bounds"),
    "baa.run_baa": ("sampcap.baa", "run_baa"),
    "baa.update_r": ("sampcap.baa", "update_r"),
    "baa.update_q": ("sampcap.baa", "update_q"),
    "baa.lower_bound": ("sampcap.baa", "lower_bound"),
    "baa.upper_bound": ("sampcap.baa", "upper_bound"),
    "bounds.single_letter_curve": ("sampcap.bounds", "single_letter_curve"),
    "bounds.zero_unit_cost_capacity": ("sampcap.bounds", "zero_unit_cost_capacity"),
}
CLI_SPAN = "cli.command"
TRAJECTORY_SPAN = "trajectory.build"


def array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds, directly or in lists/tuples."""
    seen = set()
    total = 0
    stack = list(vars(obj).values())
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            if id(item) not in seen:
                seen.add(id(item))
                total += item.nbytes
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return total


class Tracer:
    """Collects spans, and the table bytes of each TrajectorySpace, per job."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, run_id); None while open
        self.table_bytes: list[tuple[int, int]] = []  # (run_id, bytes)
        self._stack: list[int] = []
        self._run_id = 0

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._run_id)
            if after is not None:
                after(args)
            return result

        return wrapper

    @contextlib.contextmanager
    def job(self, run_id: int, cli_command: str):
        """Trace one job; ``cli_command`` names the sampcap.cli function it runs."""
        from sampcap.trajectory import TrajectorySpace

        self._run_id = run_id
        patched = []
        targets = dict(TARGETS)
        targets[CLI_SPAN] = ("sampcap.cli", cli_command)
        for name, (module_name, attr) in targets.items():
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "sampcap" or mod_name.startswith("sampcap."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
        init = TrajectorySpace.__init__
        patched.append((TrajectorySpace, "__init__", init))

        def record_bytes(args):
            self.table_bytes.append((run_id, array_bytes(args[0])))

        TrajectorySpace.__init__ = self._wrap(TRAJECTORY_SPAN, init, record_bytes)
        try:
            yield
        finally:
            for owner, key, original in reversed(patched):
                setattr(owner, key, original)
            self._stack.clear()

    def self_times(self, run_id: int) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds), summed.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span[4] == run_id and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, span in enumerate(self.spans):
            if span[4] != run_id:
                continue
            dur = span[2] - span[1]
            row = out[span[0]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_time[index]
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path) -> None:
        """Write every span as a [name, start, end, parent, run_id] row."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": [list(s) for s in self.spans]},
                      fh, separators=(",", ":"))
            fh.write("\n")
