"""End-to-end command line runs: validation, sweeps, bounds, oracle checks."""

import copy
import csv
import dataclasses
import functools
import json
import math
import re
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from sampcap import (ActionSystem, SingleLetterProblem,
                     cli, gallager_exponent, run_baa,
                     single_letter_bounds, sweep_lambda)
from sampcap import baa, bounds, oracle
from sampcap.trajectory import TrajectorySpace

from conftest import (BSC_CONFIG_PATH, MARKOVIAN_CONFIG_PATH, binary_entropy,
                      load_config)

DATA_DIR = Path(__file__).resolve().parent / "data"

INFORMED_CAPACITY = math.log2(5.0) - 2.0
COMMON_INPUT_CAPACITY = binary_entropy(0.25) - 0.5


def write_variant(tmp_path, base_path, mutate, name="variant.json"):
    """Copy a bundled config, apply an in-place mutation, write it back."""
    with open(base_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    mutate(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def assert_bounds_match_the_committed(out, config):
    """out/bounds.csv reproduces tests/data/<config>/bounds/bounds.csv,
    written by the bounds command: every value within 1e-10 relative, an
    empty (infeasible) field still empty."""
    header, want_rows = read_rows(DATA_DIR / config.stem / "bounds"
                                  / "bounds.csv")
    got_header, got_rows = read_rows(out / "bounds.csv")
    assert got_header == header
    assert len(got_rows) == len(want_rows)
    for got_row, want_row in zip(got_rows, want_rows):
        for column, got, want in zip(header, got_row, want_row):
            if want == "":
                assert got == "", column
            else:
                assert float(got) == pytest.approx(
                    float(want), rel=1e-10, abs=0.0), column


ORACLE_EXACT = ("quantity", "method", "tolerance", "search_space_size",
                "passed")


SWEEP_REPORT_UNPINNED = ("seconds", "runtime_seconds", "versions")
SWEEP_REPORT_RELATIVE = ("lam", "gamma")
SWEEP_REPORT_ABSOLUTE = ("final_gap", "max_final_gap")


def assert_sweep_report_matches_the_committed(out, config):
    """out/report.json reproduces tests/data/<config>/capacity-sweep/
    report.json, written by the capacity-sweep command less its
    SWEEP_REPORT_UNPINNED keys: every other key and every count, flag and
    list exactly, lam and gamma within 1e-10 relative and the final gaps
    within 1e-12 absolute."""
    with open(DATA_DIR / config.stem / "capacity-sweep" / "report.json",
              encoding="utf-8") as fh:
        want = json.load(fh)
    with open(out / "report.json", encoding="utf-8") as fh:
        got = json.load(fh)

    def match(got, want, key, where):
        if isinstance(want, dict):
            got = {k: v for k, v in got.items()
                   if k not in SWEEP_REPORT_UNPINNED}
            assert list(got) == list(want), where
            for k in want:
                match(got[k], want[k], k, f"{where}/{k}")
        elif isinstance(want, list) and want and isinstance(want[0], dict):
            assert len(got) == len(want), where
            for i, (g, w) in enumerate(zip(got, want)):
                match(g, w, None, f"{where}/{i}")
        elif key in SWEEP_REPORT_RELATIVE:
            assert got == pytest.approx(want, rel=1e-10, abs=0.0), where
        elif key in SWEEP_REPORT_ABSOLUTE:
            assert got == pytest.approx(want, rel=0.0, abs=1e-12), where
        else:
            assert got == want, where

    match(got, want, None, "")


def assert_report_matches_the_committed(report, config):
    """An oracle report reproduces tests/data/<config>/oracle-check/
    oracle_report.json, written by the oracle-check command: the skips and
    each check's ORACLE_EXACT fields exactly, its two values within 1e-10
    relative."""
    with open(DATA_DIR / config.stem / "oracle-check" / "oracle_report.json",
              encoding="utf-8") as fh:
        want = json.load(fh)
    assert report["skipped"] == want["skipped"]
    assert len(report["checks"]) == len(want["checks"])
    for got, expected in zip(report["checks"], want["checks"]):
        for key in ORACLE_EXACT:
            assert got[key] == expected[key], (expected["quantity"], key)
        for key in ("oracle_value", "main_value"):
            assert got[key] == pytest.approx(
                expected[key], rel=1e-10, abs=0.0), (expected["quantity"], key)


class TestValidate:
    def test_bundled_configs_are_valid(self, capsys):
        for path in (BSC_CONFIG_PATH, MARKOVIAN_CONFIG_PATH):
            assert cli.cmd_validate(str(path)) == cli.EXIT_OK
            assert f"{path}: valid" in capsys.readouterr().out

    def test_kernel_defect_is_located_by_pointer(self, tmp_path, capsys):
        def mutate(doc):
            doc["channel"]["kernel"][0][0][0][0] = 0.6

        path = write_variant(tmp_path, BSC_CONFIG_PATH, mutate)
        assert cli.cmd_validate(path) == cli.EXIT_SEMANTIC
        out = capsys.readouterr().out
        assert "/channel/kernel/0/0" in out
        assert "row sums to" in out
        assert "valid" not in out

    def test_malformed_json_reports_the_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"channel": [,]}', encoding="utf-8")
        assert cli.cmd_validate(str(path)) == cli.EXIT_PARSE
        out = capsys.readouterr().out
        assert "parse error at line 1" in out

    def test_oversized_block_length_is_rejected_before_allocation(
        self, tmp_path, capsys, monkeypatch
    ):
        def mutate(doc):
            doc["block_lengths"] = [2, 8]

        path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate)
        assert cli.cmd_validate(path) == cli.EXIT_SEMANTIC
        out = capsys.readouterr().out
        assert "/block_lengths/1" in out
        assert "/block_lengths/0" not in out
        # a sweep stops at the same check, before any table is built
        import sampcap.baa

        def refuse(*args, **kwargs):
            raise AssertionError("a trajectory space was built")

        monkeypatch.setattr(sampcap.baa, "TrajectorySpace", refuse)
        assert cli.cmd_capacity_sweep(path, str(tmp_path / "out")) \
            == cli.EXIT_SEMANTIC
        assert "/block_lengths/1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oversized_exponent_block_length_is_rejected(self, tmp_path, capsys):
        def mutate(doc):
            doc["exponent"]["block_length"] = 8

        path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate)
        assert cli.cmd_validate(path) == cli.EXIT_SEMANTIC
        assert "/exponent/block_length" in capsys.readouterr().out

    def test_size_limit_sits_between_seven_and_eight(self):
        # markovian: 12^N (u^N, y^N) live of the 16^N, 2.35 GiB at N = 7
        # and 28.3 GiB at N = 8; the exponent builds one space per start
        # state in turn, so it is charged the largest one
        with open(MARKOVIAN_CONFIG_PATH, encoding="utf-8") as fh:
            doc = json.load(fh)
        for blocks, exponent, ok in (([2, 3], 2, True), ([7], 2, True),
                                     ([8], 2, False), ([2], 7, True),
                                     ([2], 8, False)):
            doc["block_lengths"] = blocks
            doc["exponent"]["block_length"] = exponent
            config, violations = cli.parse_config(doc)
            assert (config is not None) == ok, violations

    def test_missing_file(self, tmp_path, capsys):
        assert cli.cmd_validate(str(tmp_path / "nope.json")) == cli.EXIT_IO
        assert "cannot read" in capsys.readouterr().out

    @pytest.mark.parametrize("section, key, value", [
        ("algorithm", "epsilon", math.inf),
        ("algorithm", "epsilon", math.nan),
        ("algorithm", "lambda_grid", [0.0, math.inf]),
        ("actions", "budget", math.nan),
        ("actions", "budget", math.inf),
    ], ids=["epsilon-inf", "epsilon-nan", "lambda-inf", "budget-nan",
            "budget-inf"])
    def test_non_finite_scalars_are_rejected(self, tmp_path, capsys, section,
                                             key, value):
        # json.loads reads NaN and Infinity; an infinite epsilon would
        # certify any gap after one iteration, a NaN one none ever
        def mutate(doc):
            doc[section][key] = value

        path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate)
        assert cli.cmd_validate(path) == cli.EXIT_SEMANTIC
        out = capsys.readouterr().out
        assert f"/{section}/{key}: must be" in out
        assert "finite" in out

    @pytest.mark.parametrize("init, shape", [(1.0, "[]"), ([[1.0]], "[1, 1]")],
                             ids=["scalar", "matrix"])
    def test_initial_dist_of_another_rank_is_reported(self, tmp_path, capsys,
                                                      init, shape):
        def mutate(doc):
            doc["channel"]["initial_dist"] = init

        path = write_variant(tmp_path, BSC_CONFIG_PATH, mutate)
        assert cli.cmd_validate(path) == cli.EXIT_SEMANTIC
        captured = capsys.readouterr()
        assert captured.out == (f"/channel/initial_dist: shape {shape} does not "
                                "match [1]\n")
        assert "Traceback" not in captured.err

    def test_negative_single_letter_sampling_is_rejected(self, tmp_path,
                                                         capsys):
        def mutate(doc):
            doc["single_letter"]["sampling"] = [[2, 2], [0, -1]]

        path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate)
        assert cli.cmd_validate(path) == cli.EXIT_SEMANTIC
        assert ("/single_letter/sampling: entries must be nonnegative"
                in capsys.readouterr().out)
        assert cli.cmd_bounds(path, str(tmp_path / "out")) == cli.EXIT_SEMANTIC
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("section, key, value", [
        ("single_letter", "sampling", [[2.9, 2], [0, 1.5]]),
        ("actions", "sampling_table", [[[2, 2, 2, 2]], [[0.5, 1.7, 2.2, 0]]]),
        ("single_letter", "sampling", [[2, 2], [0, True]]),
        ("actions", "sampling_table", [[[2, 2, 2, 2]], [[0, True, 0, 1]]]),
    ], ids=["single-letter-fraction", "table-fraction", "single-letter-bool",
            "table-bool"])
    def test_non_integer_indices_are_rejected(self, tmp_path, capsys, section,
                                              key, value):
        # truncating 2.9 to 2 or reading true as 1 would silently pick
        # another feedback symbol
        def mutate(doc):
            doc[section][key] = value

        path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate)
        assert cli.cmd_validate(path) == cli.EXIT_SEMANTIC
        assert (f"/{section}/{key}: entries must be integers"
                in capsys.readouterr().out)

    def test_integral_float_indices_are_accepted(self):
        with open(MARKOVIAN_CONFIG_PATH, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["single_letter"]["sampling"] = [[2.0, 2], [0, 1.0]]
        config, violations = cli.parse_config(doc)
        assert config is not None, violations
        np.testing.assert_array_equal(config.single_letter.sampling,
                                      [[2, 2], [0, 1]])


DROP = object()
CONFIG_PATHS = {"markovian": MARKOVIAN_CONFIG_PATH, "bsc": BSC_CONFIG_PATH}


def apply_edits(doc, edits):
    """Set, or with DROP delete, the node at each JSON pointer; the empty
    pointer replaces the whole document."""
    for pointer, value in edits.items():
        if not pointer:
            return value
        *path, last = (int(k) if k.isdigit() else k
                       for k in pointer[1:].split("/"))
        node = doc
        for key in path:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = copy.deepcopy(value)
    return doc


def pinned(name, base, edits, expected):
    return pytest.param(base, edits, expected, id=name)


# markovian's action system with a two-letter decoder alphabet that changes
# nothing, and a three-state, three-action single-letter problem
TWO_SIDED = {"/actions/decoder_size": 2,
             "/actions/sampling_table": [[[2, 2, 2, 2], [2, 2, 2, 2]],
                                         [[0, 1, 0, 1], [0, 1, 0, 1]]],
             "/actions/cost_table": [[0.0, 0.0], [1.0, 1.0]]}
THREE_BY_THREE = {"/single_letter": {
    "stationary_dist": [0.25, 0.25, 0.5],
    "per_state_channel": [[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.0, 1.0]],
                          [[0.5, 0.5], [0.5, 0.5]]],
    "sampling": [[3, 3, 3], [0, 1, 2], [0, 0, 1]],
    "cost": [0.0, 1.0, 0.5]}}
DECODER_RULE = ("/actions/decoder_size: must be 1: the N-letter optimizer "
                "supports a singleton decoder alphabet only")


# Single- and multi-fault mutations of a bundled config covering every rule of
# every section, each with the exact list parse_config reports.
PINNED = [
    pinned("channel-missing", "markovian",
           {"/channel": DROP},
           ["/channel: missing required section"]),
    pinned("channel-not-object", "markovian",
           {"/channel": [1]},
           ["/channel: must be an object"]),
    pinned("channel-sizes", "markovian",
           {"/channel/state_size": 0, "/channel/output_size": True},
           ["/channel/state_size: must be a positive integer",
            "/channel/output_size: must be a positive integer"]),
    pinned("kernel-non-numeric", "markovian",
           {"/channel/kernel/0/0/0/0": "a"},
           ["/channel/kernel: entries must be numeric"]),
    pinned("kernel-nan", "markovian",
           {"/channel/kernel/0/0/0/0": math.nan},
           ["/channel/kernel: entries must be finite"]),
    pinned("kernel-inf", "markovian",
           {"/channel/kernel/1/1/2/0": math.inf},
           ["/channel/kernel: entries must be finite"]),
    pinned("init-nan", "markovian",
           {"/channel/initial_dist/1": math.nan},
           ["/channel/initial_dist: entries must be finite"]),
    pinned("kernel-and-init-nan", "markovian",
           {"/channel/kernel/0/0/0/0": math.nan,
            "/channel/initial_dist/1": math.nan},
           ["/channel/kernel: entries must be finite",
            "/channel/initial_dist: entries must be finite"]),
    pinned("kernel-nan-init-sum", "markovian",
           {"/channel/kernel/0/0/0/0": math.nan, "/channel/initial_dist/1": 0.5},
           ["/channel/kernel: entries must be finite"]),
    pinned("kernel-shape", "markovian",
           {"/channel/kernel/1": DROP},
           ["/channel/kernel: shape [1, 2, 4, 2] does not match [2][2][4][2]"]),
    pinned("kernel-shape-4d", "bsc",
           {"/channel/kernel": [[[0.75, 0.25], [0.25, 0.75]]]},
           ["/channel/kernel: shape [1, 2, 2] does not match [1][2][2][1]"]),
    pinned("init-length", "markovian",
           {"/channel/initial_dist": [1.0, 0.0, 0.0]},
           ["/channel/initial_dist: shape [3] does not match [2]"]),
    pinned("init-matrix", "bsc",
           {"/channel/initial_dist": [[1.0]]},
           ["/channel/initial_dist: shape [1, 1] does not match [1]"]),
    pinned("kernel-shape-and-init-length", "markovian",
           {"/channel/kernel/1": DROP, "/channel/initial_dist": [1.0]},
           ["/channel/kernel: shape [1, 2, 4, 2] does not match [2][2][4][2]"]),
    pinned("kernel-nan-and-shape", "markovian",
           {"/channel/kernel/1": DROP, "/channel/kernel/0/0/0/0": math.nan},
           ["/channel/kernel: entries must be finite"]),
    pinned("kernel-nan-init-non-numeric", "markovian",
           {"/channel/kernel/0/0/0/0": math.nan,
            "/channel/initial_dist": ["a", 1]},
           ["/channel/kernel: entries must be finite",
            "/channel/initial_dist: entries must be numeric"]),
    pinned("init-scalar", "bsc",
           {"/channel/initial_dist": 1.0},
           ["/channel/initial_dist: shape [] does not match [1]"]),
    pinned("kernel-row-sum", "markovian",
           {"/channel/kernel/0/1/0/0": 0.5},
           ["/channel/kernel/0/1: row sums to 1.25, expected 1"]),
    pinned("kernel-negative", "markovian",
           {"/channel/kernel/0/1/0/0": -0.25, "/channel/kernel/0/1/2/0": 0.75},
           ["/channel/kernel/0/1/0/0: negative entry"]),
    pinned("init-sum", "markovian",
           {"/channel/initial_dist": [0.5, 0.4]},
           ["/channel/initial_dist: must be a probability vector"]),
    pinned("init-negative", "markovian",
           {"/channel/initial_dist": [1.5, -0.5]},
           ["/channel/initial_dist: must be a probability vector"]),
    pinned("kernel-every-defect", "markovian",
           {"/channel/kernel/0/0/0/0": 0.25,
            "/channel/kernel/1/1/2/0": -0.5,
            "/channel/initial_dist": [0.5, 0.4]},
           ["/channel/kernel/0/0: row sums to 0.75, expected 1",
            "/channel/kernel/1/1: row sums to 0.0, expected 1",
            "/channel/kernel/1/1/2/0: negative entry",
            "/channel/initial_dist: must be a probability vector"]),
    pinned("actions-missing", "markovian",
           {"/actions": DROP},
           ["/actions: missing required section"]),
    pinned("actions-not-object", "markovian",
           {"/actions": "x"},
           ["/actions: must be an object"]),
    pinned("actions-sizes", "markovian",
           {"/actions/encoder_size": 0, "/actions/feedback_size": 1.5},
           ["/actions/encoder_size: must be a positive integer",
            "/actions/feedback_size: must be a positive integer"]),
    pinned("table-fraction", "markovian",
           {"/actions/sampling_table/1/0/1": 0.5},
           ["/actions/sampling_table: entries must be integers"]),
    pinned("cost-non-numeric", "markovian",
           {"/actions/cost_table/0/0": "free"},
           ["/actions/cost_table: entries must be numeric"]),
    pinned("cost-nan", "markovian",
           {"/actions/cost_table/1/0": math.nan},
           ["/actions/cost_table: entries must be finite"]),
    pinned("budget-string", "markovian",
           {"/actions/budget": "1"},
           ["/actions/budget: must be a finite nonnegative number"]),
    pinned("budget-negative", "markovian",
           {"/actions/budget": -1.0},
           ["/actions/budget: must be a finite nonnegative number"]),
    pinned("budget-bool", "markovian",
           {"/actions/budget": True},
           ["/actions/budget: must be a finite nonnegative number"]),
    pinned("table-output-axis", "markovian",
           {"/actions/sampling_table": [[[2, 2, 2]], [[0, 1, 0]]]},
           ["/actions/sampling_table: must be indexed "
            "[encoder action][decoder action][channel output]"]),
    pinned("table-output-axis-2d", "markovian",
           {"/actions/sampling_table": [[2, 2], [0, 1]]},
           ["/actions/sampling_table: must be indexed "
            "[encoder action][decoder action][channel output]"]),
    pinned("table-output-axis-and-value", "markovian",
           {"/actions/sampling_table": [[[2, 2, 2]], [[0, 1, 5]]]},
           ["/actions/sampling_table: must be indexed "
            "[encoder action][decoder action][channel output]"]),
    pinned("table-output-axis-and-budget", "markovian",
           {"/actions/sampling_table": [[[2, 2, 2]], [[0, 1, 0]]],
            "/actions/budget": -1.0},
           ["/actions/budget: must be a finite nonnegative number"]),
    pinned("table-output-axis-and-cost-nan", "markovian",
           {"/actions/sampling_table": [[[2, 2, 2]], [[0, 1, 0]]],
            "/actions/cost_table/1/0": math.nan},
           ["/actions/cost_table: entries must be finite"]),
    pinned("table-encoder-axis", "markovian",
           {"/actions/sampling_table": [[[2, 2, 2, 2]]]},
           ["/actions/sampling_table: must be indexed "
            "[encoder action][decoder action][channel output]"]),
    pinned("table-value-high", "markovian",
           {"/actions/sampling_table/1/0/0": 3},
           ["/actions/sampling_table: values must lie in the feedback alphabet"]),
    pinned("table-value-negative", "markovian",
           {"/actions/sampling_table/1/0/0": -1},
           ["/actions/sampling_table: values must lie in the feedback alphabet"]),
    pinned("cost-shape", "markovian",
           {"/actions/cost_table": [[0.0, 1.0]]},
           ["/actions/cost_table: must be indexed "
            "[encoder action][decoder action]"]),
    pinned("cost-negative", "markovian",
           {"/actions/cost_table/1/0": -1.0},
           ["/actions/cost_table: costs must be nonnegative"]),
    pinned("table-value-and-cost-negative", "markovian",
           {"/actions/sampling_table/1/0/0": 3, "/actions/cost_table/1/0": -1.0},
           ["/actions/sampling_table: values must lie in the feedback alphabet"]),
    pinned("actions-types-and-budget", "markovian",
           {"/actions/encoder_size": 0, "/actions/budget": "1"},
           ["/actions/encoder_size: must be a positive integer",
            "/actions/budget: must be a finite nonnegative number"]),
    pinned("actions-sizes-and-budget-negative", "markovian",
           {"/actions/encoder_size": 0, "/actions/budget": -1.0},
           ["/actions/encoder_size: must be a positive integer",
            "/actions/budget: must be a finite nonnegative number"]),
    pinned("cost-nan-and-budget-negative", "markovian",
           {"/actions/cost_table/1/0": math.nan, "/actions/budget": -1.0},
           ["/actions/cost_table: entries must be finite",
            "/actions/budget: must be a finite nonnegative number"]),
    pinned("cost-nan-and-budget-string", "markovian",
           {"/actions/cost_table/1/0": math.nan, "/actions/budget": "x"},
           ["/actions/cost_table: entries must be finite",
            "/actions/budget: must be a finite nonnegative number"]),
    pinned("budget-and-table-value", "markovian",
           {"/actions/budget": -1.0, "/actions/sampling_table/1/0/0": 3},
           ["/actions/budget: must be a finite nonnegative number"]),
    pinned("cost-nan-and-table-axis", "markovian",
           {"/actions/cost_table/1/0": math.nan,
            "/actions/sampling_table": [[[2, 2, 2, 2]]]},
           ["/actions/cost_table: entries must be finite"]),
    pinned("bad-channel-unchecked-output-axis", "markovian",
           {"/channel/kernel/0/1/0/0": 0.5,
            "/actions/sampling_table": [[[2, 2, 2]], [[0, 1, 0]]]},
           ["/channel/kernel/0/1: row sums to 1.25, expected 1"]),
    # an unknown key, such as output_factors, is ignored
    pinned("factors-and-table-output-axis", "markovian",
           {"/channel/output_factors": [3, 2],
            "/actions/sampling_table": [[[2, 2, 2]], [[0, 1, 0]]]},
           ["/actions/sampling_table: must be indexed "
            "[encoder action][decoder action][channel output]"]),
    pinned("blocks-empty", "markovian",
           {"/block_lengths": []},
           ["/block_lengths: must be a nonempty list of positive integers"]),
    pinned("blocks-zero", "markovian",
           {"/block_lengths": [2, 0]},
           ["/block_lengths: must be a nonempty list of positive integers"]),
    pinned("blocks-oversized", "markovian",
           {"/block_lengths": [2, 8]},
           ["/block_lengths/1: block length 8 needs about 28.3 GiB of live "
            "tables, above the 3 GiB limit"]),
    pinned("algorithm-not-object", "markovian",
           {"/algorithm": []},
           ["/algorithm: must be an object"]),
    pinned("algorithm-values", "markovian",
           {"/algorithm/epsilon": 0,
            "/algorithm/max_iters": 0,
            "/algorithm/lambda_grid": [-1.0],
            "/algorithm/gamma_points": 0,
            "/algorithm/resolution": 0},
           ["/algorithm/epsilon: must be a finite positive number",
            "/algorithm/max_iters: must be a positive integer",
            "/algorithm/lambda_grid: must be a nonempty list of finite "
            "nonnegative numbers",
            "/algorithm/gamma_points: must be a positive integer",
            "/algorithm/resolution: must be a positive integer"]),
    pinned("single-letter-not-object", "markovian",
           {"/single_letter": 3},
           ["/single_letter: must be an object"]),
    pinned("pi-nan", "markovian",
           {"/single_letter/stationary_dist/0": math.nan},
           ["/single_letter/stationary_dist: entries must be finite"]),
    pinned("chan-inf", "markovian",
           {"/single_letter/per_state_channel/1/1/1": math.inf},
           ["/single_letter/per_state_channel: entries must be finite"]),
    pinned("sl-cost-nan", "markovian",
           {"/single_letter/cost/1": math.nan},
           ["/single_letter/cost: entries must be finite"]),
    pinned("sl-every-non-finite", "markovian",
           {"/single_letter/stationary_dist/0": math.nan,
            "/single_letter/per_state_channel/1/1/1": math.inf,
            "/single_letter/cost/1": math.nan},
           ["/single_letter/stationary_dist: entries must be finite",
            "/single_letter/per_state_channel: entries must be finite",
            "/single_letter/cost: entries must be finite"]),
    pinned("pi-nan-and-chan-sum", "markovian",
           {"/single_letter/stationary_dist/0": math.nan,
            "/single_letter/per_state_channel/1/0/0": 0.25},
           ["/single_letter/stationary_dist: entries must be finite"]),
    pinned("pi-non-numeric", "markovian",
           {"/single_letter/stationary_dist": ["a", 0.5]},
           ["/single_letter/stationary_dist: entries must be numeric"]),
    pinned("sl-sampling-fraction", "markovian",
           {"/single_letter/sampling/1/1": 1.5},
           ["/single_letter/sampling: entries must be integers"]),
    pinned("pi-nan-and-sampling-fraction", "markovian",
           {"/single_letter/stationary_dist/0": math.nan,
            "/single_letter/sampling/1/1": 1.5},
           ["/single_letter/stationary_dist: entries must be finite",
            "/single_letter/sampling: entries must be integers"]),
    pinned("pi-sum", "markovian",
           {"/single_letter/stationary_dist": [0.6, 0.6]},
           ["/single_letter/stationary_dist: must be a probability vector"]),
    pinned("pi-negative", "markovian",
           {"/single_letter/stationary_dist": [1.5, -0.5]},
           ["/single_letter/stationary_dist: must be a probability vector"]),
    pinned("pi-matrix", "markovian",
           {"/single_letter/stationary_dist": [[0.5, 0.5]]},
           ["/single_letter/stationary_dist: must be a probability vector"]),
    pinned("chan-ndim", "markovian",
           {"/single_letter/per_state_channel": [[1.0, 0.0], [0.0, 1.0]]},
           ["/single_letter/per_state_channel: must be indexed [s][x][y] with "
            "one slice per state"]),
    pinned("chan-states", "markovian",
           {"/single_letter/per_state_channel/1": DROP},
           ["/single_letter/per_state_channel: must be indexed [s][x][y] with "
            "one slice per state"]),
    pinned("chan-row-sum", "markovian",
           {"/single_letter/per_state_channel/1/0/0": 0.25},
           ["/single_letter/per_state_channel/1/0: row sums to 0.75, expected 1"]),
    pinned("chan-negative", "markovian",
           {"/single_letter/per_state_channel/1/0": [1.5, -0.5]},
           ["/single_letter/per_state_channel: negative entries"]),
    pinned("sl-sampling-ndim", "markovian",
           {"/single_letter/sampling": [2, 0]},
           ["/single_letter/sampling: must be indexed [a][s] with one cost per "
            "action"]),
    pinned("sl-cost-count", "markovian",
           {"/single_letter/cost": [0.0, 1.0, 2.0]},
           ["/single_letter/sampling: must be indexed [a][s] with one cost per "
            "action"]),
    pinned("sl-cost-ndim", "markovian",
           {"/single_letter/cost": [[0.0, 1.0]]},
           ["/single_letter/sampling: must be indexed [a][s] with one cost per "
            "action"]),
    pinned("sl-sampling-states", "markovian",
           {"/single_letter/sampling": [[2], [0]]},
           ["/single_letter/sampling: state axis does not match"]),
    pinned("sl-sampling-negative", "markovian",
           {"/single_letter/sampling/1/1": -1},
           ["/single_letter/sampling: entries must be nonnegative"]),
    pinned("sl-cost-negative", "markovian",
           {"/single_letter/cost/1": -1.0},
           ["/single_letter/cost: costs must be nonnegative"]),
    pinned("sl-every-defect", "markovian",
           {"/single_letter/stationary_dist": [0.6, 0.6],
            "/single_letter/per_state_channel/1/0/0": 0.25,
            "/single_letter/per_state_channel/0/1/1": -0.5,
            "/single_letter/sampling/1/1": -1,
            "/single_letter/cost/1": -1.0},
           ["/single_letter/stationary_dist: must be a probability vector",
            "/single_letter/per_state_channel/0/1: row sums to 0.0, expected 1",
            "/single_letter/per_state_channel/1/0: row sums to 0.75, expected 1",
            "/single_letter/per_state_channel: negative entries",
            "/single_letter/sampling: entries must be nonnegative",
            "/single_letter/cost: costs must be nonnegative"]),
    pinned("pi-matrix-and-chan-states", "markovian",
           {"/single_letter/stationary_dist": [[0.5, 0.5]],
            "/single_letter/per_state_channel/1": DROP,
            "/single_letter/sampling": [[2], [0]]},
           ["/single_letter/stationary_dist: must be a probability vector"]),
    pinned("exponent-not-object", "markovian",
           {"/exponent": 1},
           ["/exponent: must be an object"]),
    pinned("exponent-values", "markovian",
           {"/exponent/rho_grid": [0.5, 1.5], "/exponent/block_length": 0},
           ["/exponent/block_length: must be a positive integer",
            "/exponent/rho_grid: must be a nonempty list in [0, 1]"]),
    pinned("exponent-oversized", "markovian",
           {"/exponent/block_length": 8},
           ["/exponent/block_length: block length 8 needs about 28.3 GiB of "
            "live tables, above the 3 GiB limit"]),
    pinned("every-section", "markovian",
           {"/channel/kernel/0/1/0/0": 0.5,
            "/actions/budget": -1.0,
            "/block_lengths": [],
            "/algorithm/gamma_points": 0,
            "/single_letter/cost/1": -1.0,
            "/exponent/block_length": 0},
           ["/channel/kernel/0/1: row sums to 1.25, expected 1",
            "/actions/budget: must be a finite nonnegative number",
            "/block_lengths: must be a nonempty list of positive integers",
            "/algorithm/gamma_points: must be a positive integer",
            "/single_letter/cost: costs must be nonnegative",
            "/exponent/block_length: must be a positive integer"]),
    pinned("root-not-object", "markovian",
           {"": [1, 2]},
           ["/: config root must be a JSON object"]),
    pinned("decoder-two-sided", "markovian", TWO_SIDED, [DECODER_RULE]),
    pinned("decoder-two-sided-and-table-axis", "markovian",
           {**TWO_SIDED, "/actions/sampling_table": [[[2, 2, 2, 2]],
                                                     [[0, 1, 0, 1]]]},
           [DECODER_RULE,
            "/actions/sampling_table: must be indexed "
            "[encoder action][decoder action][channel output]"]),
    pinned("resolution-below-floor", "markovian",
           {"/algorithm/resolution": 5},
           ["/algorithm/resolution: must be at least 10 grid points per "
            "dimension"]),
    pinned("single-letter-grid-too-large", "markovian", THREE_BY_THREE,
           ["/algorithm/resolution: 6 free action dimensions need a coarser "
            "resolution"]),
    pinned("gamma-points-huge", "markovian",
           {"/algorithm/gamma_points": 10**12},
           ["/algorithm/gamma_points: must be at most 1000000"]),
    pinned("single-letter-grid-and-defect", "markovian",
           {**THREE_BY_THREE, "/algorithm/gamma_points": 0,
            "/single_letter/cost/2": -0.5},
           ["/algorithm/gamma_points: must be a positive integer",
            "/single_letter/cost: costs must be nonnegative"]),
    pinned("algorithm-types", "markovian",
           {"/algorithm/epsilon": "1e-6", "/algorithm/max_iters": 1.5,
            "/algorithm/lambda_grid": 0.5, "/algorithm/gamma_points": True,
            "/algorithm/resolution": 11.0},
           ["/algorithm/epsilon: must be a finite positive number",
            "/algorithm/max_iters: must be a positive integer",
            "/algorithm/lambda_grid: must be a nonempty list of finite "
            "nonnegative numbers",
            "/algorithm/gamma_points: must be a positive integer",
            "/algorithm/resolution: must be a positive integer"]),
    pinned("blocks-bool", "markovian",
           {"/block_lengths": [2, True]},
           ["/block_lengths: must be a nonempty list of positive integers"]),
    pinned("exponent-types", "markovian",
           {"/exponent/rho_grid": "0.5", "/exponent/block_length": 2.0},
           ["/exponent/block_length: must be a positive integer",
            "/exponent/rho_grid: must be a nonempty list in [0, 1]"]),
]


class TestViolationMessages:
    @pytest.mark.parametrize("base, edits, expected", PINNED)
    def test_parse_config_reports_exactly(self, base, edits, expected):
        with open(CONFIG_PATHS[base], encoding="utf-8") as fh:
            doc = json.load(fh)
        config, violations = cli.parse_config(apply_edits(doc, edits))
        assert config is None
        assert violations == expected


# the short sweeps of the battery below; a mutation may override them
SHORT_RUN = {"/algorithm/lambda_grid": [0.0, 1.0]}
COARSE = {"/algorithm/resolution": 11}
# configs that validate accepts, at the edges of its rules
ACCEPTED = [
    pytest.param("markovian", {"/algorithm/resolution": 10}, cli.EXIT_OK,
                 id="resolution-floor"),
    pytest.param("markovian",
                 {**COARSE, "/algorithm/max_iters": 1,
                  "/algorithm/gamma_points": 1},
                 cli.EXIT_OK, id="one-iteration-one-budget"),
    pytest.param("markovian",
                 {**COARSE, "/block_lengths": [1], "/exponent/block_length": 1,
                  "/exponent/rho_grid": [0.0, 1.0]},
                 cli.EXIT_OK, id="block-length-one"),
    # unknown keys are ignored, whatever their value: output_factors, and a
    # seed, which older configs carry and the benchmark still writes
    pytest.param("markovian",
                 {**COARSE, "/channel/output_factors": [True, 4],
                  "/algorithm/epsilon": 1.0, "/algorithm/seed": -1},
                 cli.EXIT_OK, id="ignored-key-loose-epsilon"),
    pytest.param("bsc", {"/algorithm": DROP}, cli.EXIT_OK,
                 id="algorithm-missing"),
    pytest.param("bsc", {"/algorithm": None}, cli.EXIT_OK,
                 id="algorithm-null"),
    pytest.param("bsc", {"/single_letter": DROP, "/exponent": DROP},
                 cli.EXIT_OK, id="optional-sections-missing"),
]
BATTERY = [pytest.param(*p.values[:2], cli.EXIT_SEMANTIC, id=p.id)
           for p in PINNED] + ACCEPTED


class TestSubcommandsRunWhatValidateAccepts:
    @pytest.mark.parametrize("base, edits, code", BATTERY)
    def test_validate_rejects_or_every_subcommand_returns(self, tmp_path,
                                                         base, edits, code):
        with open(CONFIG_PATHS[base], encoding="utf-8") as fh:
            doc = apply_edits(apply_edits(json.load(fh), SHORT_RUN), edits)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["validate", "--config", str(path)]) == code
        if code != cli.EXIT_OK:
            return
        for command in ("capacity-sweep", "bounds", "oracle-check",
                        "exponent"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) \
                in (cli.EXIT_OK, cli.EXIT_SEMANTIC)


def two_sided_space(doc, space):
    actions = doc["actions"]
    system = ActionSystem(np.array(actions["sampling_table"]),
                          np.array(actions["cost_table"]), 3)
    return TrajectorySpace(space.kernel, system, 2)


def single_letter_of(doc):
    return SingleLetterProblem(**{key: np.array(value) for key, value
                                  in doc["single_letter"].items()})


def uniform_exponent(space, rho):
    return gallager_exponent(space, space.uniform_rows(), rho)


# a config mutation with one violation, and the library call that breaks
# the same rule, given the mutated document and markovian's N = 2 space
LIBRARY_RULES = [
    pytest.param({"/algorithm/lambda_grid": [math.inf]},
                 lambda doc, space: run_baa(space, math.inf), id="lambda-inf"),
    pytest.param({"/algorithm/lambda_grid": [0.0, math.inf]},
                 lambda doc, space: sweep_lambda(space, [0.0, math.inf]),
                 id="lambda-inf-sweep"),
    pytest.param({"/algorithm/lambda_grid": [-1.0]},
                 lambda doc, space: run_baa(space, -1.0),
                 id="lambda-negative"),
    pytest.param({"/algorithm/lambda_grid": [-1.0]},
                 lambda doc, space: sweep_lambda(space, [-1.0]),
                 id="lambda-negative-sweep"),
    pytest.param({"/algorithm/epsilon": 0.0},
                 lambda doc, space: sweep_lambda(space, [0.0], eps=0.0),
                 id="epsilon-zero"),
    pytest.param({"/algorithm/max_iters": 0},
                 lambda doc, space: run_baa(space, 0.0, max_iters=0),
                 id="max-iters-zero"),
    pytest.param({"/algorithm/gamma_points": 0},
                 lambda doc, space: sweep_lambda(space, [0.0], gamma_points=0),
                 id="gamma-points-zero"),
    pytest.param({"/algorithm/gamma_points": 10**12},
                 lambda doc, space: sweep_lambda(space, [0.0],
                                                 gamma_points=10**12),
                 id="gamma-points-huge"),
    pytest.param({"/exponent/rho_grid": [1.5]},
                 lambda doc, space: uniform_exponent(space, 1.5),
                 id="rho-above-one"),
    pytest.param({"/exponent/rho_grid": [-0.5]},
                 lambda doc, space: uniform_exponent(space, -0.5),
                 id="rho-negative"),
    pytest.param({"/exponent/block_length": 0},
                 lambda doc, space: TrajectorySpace(space.kernel, space.sys, 0),
                 id="block-length-zero"),
    pytest.param(TWO_SIDED, two_sided_space, id="decoder-two-sided"),
    pytest.param({"/algorithm/resolution": 5},
                 lambda doc, space: single_letter_bounds(
                     single_letter_of(doc), [0.5], resolution=5),
                 id="resolution-below-floor"),
    pytest.param(THREE_BY_THREE,
                 lambda doc, space: single_letter_bounds(
                     single_letter_of(doc), [0.5]),
                 id="single-letter-grid-too-large"),
]


class TestLibraryMessages:
    @pytest.mark.parametrize("edits, call", LIBRARY_RULES)
    def test_the_library_raises_what_validate_prints(self, edits, call):
        with open(MARKOVIAN_CONFIG_PATH, encoding="utf-8") as fh:
            doc = apply_edits(json.load(fh), edits)
        _, [message] = cli.parse_config(doc)
        config = load_config(MARKOVIAN_CONFIG_PATH)
        space = TrajectorySpace(config.kernel, config.actions, 2)
        with pytest.raises(ValueError) as raised:
            call(doc, space)
        # the message less its section: /algorithm/max_iters: ... -> max_iters: ...
        assert str(raised.value) == message.split("/", 2)[2]


class TestCapacitySweep:
    def test_outputs_are_deterministic_across_runs(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert cli.cmd_capacity_sweep(str(BSC_CONFIG_PATH),
                                      str(out1)) == cli.EXIT_OK
        assert cli.cmd_capacity_sweep(str(BSC_CONFIG_PATH),
                                      str(out2)) == cli.EXIT_OK
        for n in (1, 2, 3):
            for stem in (f"sweep_{n}.csv", f"envelope_{n}.csv"):
                assert (out1 / stem).read_bytes() == (out2 / stem).read_bytes()
        header, rows = read_rows(out1 / "sweep_1.csv")
        assert header == ["lambda", "gamma", "c_lambda", "i_lower", "i_upper",
                          "iterations", "converged"]
        assert len(rows) == 26
        assert all(row[-1] == "true" for row in rows)
        with open(out1 / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert [run["block_length"] for run in report["runs"]] == [1, 2, 3]
        for run in report["runs"]:
            assert run["nonconverged_points"] == 0
            assert run["max_final_gap"] <= report["epsilon"]
            assert run["certified"] is True
            assert [p["lam"] for p in run["points"]] == pytest.approx(
                [float(row[0]) for row in rows], rel=1e-11)
            for point, row in zip(run["points"], rows):
                assert set(point) == {"lam", "gamma", "iterations",
                                      "rejected_steps", "dead_slices",
                                      "unreachable_outputs", "seconds",
                                      "final_gap", "converged", "near_cap"}
                assert point["converged"] and not point["near_cap"]
                assert point["final_gap"] <= report["epsilon"]
                assert 1 <= point["iterations"] < 0.9 * report["max_iters"]
                assert 0 <= point["rejected_steps"] <= point["iterations"]
                assert 0.0 <= point["seconds"] <= run["runtime_seconds"]
                assert point["gamma"] == pytest.approx(float(row[1]), rel=1e-11,
                                                       abs=1e-300)

    def test_markovian_outputs_match_across_runs(self, tmp_path):
        # each point starts from the previous point's policy, and the chain
        # runs in the same order every time, so reruns match byte for byte
        def mutate(doc):
            doc["block_lengths"] = [2]
            doc["algorithm"]["lambda_grid"] = [0.5, 1.0, 10.0]

        path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert cli.cmd_capacity_sweep(path, str(out1)) == cli.EXIT_OK
        assert cli.cmd_capacity_sweep(path, str(out2)) == cli.EXIT_OK
        for stem in ("sweep_2.csv", "envelope_2.csv"):
            assert (out1 / stem).read_bytes() == (out2 / stem).read_bytes()
        _, rows = read_rows(out1 / "sweep_2.csv")
        with open(out1 / "report.json", encoding="utf-8") as fh:
            (run,) = json.load(fh)["runs"]
        assert [p["iterations"] for p in run["points"]] == [
            int(row[5]) for row in rows
        ]

    def test_a_block_near_the_cap_is_not_certified(self, tmp_path, capsys):
        # an uncertified sweep still writes its outputs and exits 0, with a
        # warning on stderr
        def run(max_iters, name):
            def mutate(doc):
                doc["block_lengths"] = [2]
                doc["algorithm"]["lambda_grid"] = [0.001, 10.0]
                doc["algorithm"]["max_iters"] = max_iters

            path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate,
                                 name=f"{name}.json")
            out = tmp_path / name
            assert cli.cmd_capacity_sweep(path, str(out)) == cli.EXIT_OK
            with open(out / "report.json", encoding="utf-8") as fh:
                (block,) = json.load(fh)["runs"]
            return block, capsys.readouterr().err

        full, err = run(10_000, "full")
        assert full["certified"] is True
        assert err == ""
        # too few iterations: the low-lambda point stops unconverged
        short, err = run(50, "short")
        assert short["nonconverged_points"] >= 1
        assert short["certified"] is False
        assert "not certified" in err
        # converged, but at the cap: certified needs both
        capped, err = run(full["points"][0]["iterations"], "capped")
        assert capped["nonconverged_points"] == 0
        assert capped["points"][0]["near_cap"]
        assert capped["certified"] is False
        assert "not certified" in err

    def test_single_lambda_point(self, tmp_path):
        def mutate(doc):
            doc["block_lengths"] = [2]
            doc["algorithm"]["lambda_grid"] = [0.0]
            doc["algorithm"]["gamma_points"] = 11

        path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate)
        out = tmp_path / "out"
        assert cli.cmd_capacity_sweep(path, str(out)) == cli.EXIT_OK
        header, rows = read_rows(out / "sweep_2.csv")
        assert len(rows) == 1
        lam, gamma, _, _, i_upper, _, converged = rows[0]
        assert float(lam) == 0.0
        assert 0.0 <= float(gamma) <= 1.0
        # lambda = 0 leaves sampling free, so the bound hits the known value
        assert float(i_upper) == pytest.approx(INFORMED_CAPACITY, abs=5e-6)
        assert converged == "true"
        _, env_rows = read_rows(out / "envelope_2.csv")
        assert len(env_rows) == 11

    @pytest.mark.parametrize("case", ["unused-output", "zero-cost",
                                      "lambda-zero", "three-actions"])
    def test_edge_case_config_is_certified_without_warnings(
        self, tmp_path, capsys, case
    ):
        def unused_output(doc):
            # y = x, and the third output never occurs
            doc["channel"]["output_size"] = 3
            doc["channel"]["kernel"] = [[[[1.0], [0.0], [0.0]],
                                         [[0.0], [1.0], [0.0]]]]
            doc["actions"]["sampling_table"] = [[[0, 0, 0]]]
            doc["algorithm"]["lambda_grid"] = [0.0, 0.1, 1.0]

        def zero_cost(doc):
            doc["actions"]["cost_table"] = [[0.0], [0.0]]
            doc["block_lengths"] = [2]
            doc["algorithm"]["lambda_grid"] = [0.0, 1.0, 10.0]

        def lambda_zero(doc):
            doc["algorithm"]["lambda_grid"] = [0.0]

        def three_actions(doc):
            # one state, three priced actions; two of them see the output,
            # which cannot help on a memoryless channel
            doc["actions"].update(
                encoder_size=3, feedback_size=3,
                sampling_table=[[[0, 0]], [[1, 2]], [[1, 2]]],
                cost_table=[[0.0], [0.5], [1.0]])
            doc["algorithm"]["lambda_grid"] = [0.0, 0.1, 1.0]

        base, mutate, value = {
            "unused-output": (BSC_CONFIG_PATH, unused_output, 1.0),
            "zero-cost": (MARKOVIAN_CONFIG_PATH, zero_cost, INFORMED_CAPACITY),
            "lambda-zero": (BSC_CONFIG_PATH, lambda_zero,
                            1.0 - binary_entropy(0.25)),
            "three-actions": (BSC_CONFIG_PATH, three_actions,
                              1.0 - binary_entropy(0.25)),
        }[case]

        def drop_sections(doc):
            for key in ("single_letter", "exponent"):
                doc.pop(key)
            mutate(doc)

        path = write_variant(tmp_path, base, drop_sections)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.cmd_capacity_sweep(path, str(out)) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        with open(out / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        for run in report["runs"]:
            assert run["certified"] is True
            _, rows = read_rows(out / f"sweep_{run['block_length']}.csv")
            assert len(rows) == len(run["points"])
            for row, point in zip(rows, run["points"]):
                assert row[-1] == "true"
                assert float(row[4]) - float(row[3]) <= report["epsilon"]
                assert abs(float(row[4]) - value) <= report["epsilon"] + 1e-11
                if case == "unused-output":
                    assert point["unreachable_outputs"] > 0

    def test_empty_block_lengths_are_rejected(self, tmp_path, capsys):
        def mutate(doc):
            doc["block_lengths"] = []

        path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate)
        assert cli.cmd_capacity_sweep(path, str(tmp_path / "out")) \
            == cli.EXIT_SEMANTIC
        assert "/block_lengths" in capsys.readouterr().err


class TestBounds:
    def test_outputs_are_deterministic_across_runs(self, tmp_path):
        def mutate(doc):
            doc["algorithm"]["resolution"] = 11

        path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate)
        tables = []
        for run in ("run1", "run2"):
            assert cli.cmd_bounds(path, str(tmp_path / run)) == cli.EXIT_OK
            tables.append((tmp_path / run / "bounds.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_a_stale_seed_changes_no_output(self, tmp_path):
        # older configs carry algorithm.seed; it is ignored like any
        # unknown key, and no value of it reaches the single-letter ascent
        tables = []
        for seed in (None, 0, 7):
            def mutate(doc, seed=seed):
                doc["algorithm"]["resolution"] = 11
                if seed is not None:
                    doc["algorithm"]["seed"] = seed

            path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate,
                                 name=f"seed-{seed}.json")
            out = tmp_path / f"seed-{seed}"
            assert cli.cmd_bounds(path, str(out)) == cli.EXIT_OK
            tables.append((out / "bounds.csv").read_bytes())
        assert tables[0] == tables[1] == tables[2]

    def test_budget_table(self, tmp_path):
        def mutate(doc):
            doc["algorithm"]["resolution"] = 21
            doc["algorithm"]["gamma_points"] = 11

        path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate)
        out = tmp_path / "out"
        assert cli.cmd_bounds(path, str(out)) == cli.EXIT_OK
        header, rows = read_rows(out / "bounds.csv")
        assert header == ["gamma", "c_enc_lower", "c_dec_lower",
                          "time_sharing", "c0", "c1"]
        assert len(rows) == 11
        c0 = float(rows[0][4])
        c1 = float(rows[0][5])
        assert c0 == pytest.approx(COMMON_INPUT_CAPACITY, abs=1e-4)
        assert c1 == pytest.approx(INFORMED_CAPACITY, abs=1e-4)
        first, last = rows[0], rows[-1]
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(c0, abs=1e-6)
        assert float(first[3]) == pytest.approx(c0, abs=1e-12)
        assert float(last[0]) == 1.0
        for col in (1, 2, 3):
            assert float(last[col]) == pytest.approx(c1, abs=1e-4)
        for row in rows:
            assert float(row[2]) >= float(row[1]) - 1e-6

    def test_ascents_at_the_iteration_cap_print_one_warning(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(bounds, "_ascend_inputs",
                            functools.partial(bounds._ascend_inputs, max_iter=2))

        def mutate(doc):
            doc["algorithm"]["resolution"] = 11

        path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate)
        assert cli.cmd_bounds(path, str(tmp_path / "out")) == cli.EXIT_OK
        err = capsys.readouterr().err.splitlines()
        capped = [line for line in err if "iteration cap" in line]
        assert len(capped) == 1
        match = re.fullmatch(r"warning: (\d+) input-slice ascents stopped at "
                             r"the iteration cap; .*", capped[0])
        assert match and int(match.group(1)) > 0

    @pytest.mark.parametrize("config", [BSC_CONFIG_PATH, MARKOVIAN_CONFIG_PATH],
                             ids=["bsc", "markovian"])
    def test_bundled_configs_reach_no_iteration_cap(self, tmp_path, capsys,
                                                    config):
        assert cli.cmd_bounds(str(config), str(tmp_path / "out")) == cli.EXIT_OK
        assert "iteration cap" not in capsys.readouterr().err
        assert_bounds_match_the_committed(tmp_path / "out", config)

    def test_requires_the_single_letter_section(self, tmp_path, capsys):
        def mutate(doc):
            del doc["single_letter"]

        path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate)
        assert cli.cmd_bounds(path, str(tmp_path / "out")) == cli.EXIT_SEMANTIC
        assert "/single_letter" in capsys.readouterr().err


class TestOracleCheck:
    def test_memoryless_config_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.cmd_oracle_check(str(BSC_CONFIG_PATH), str(out)) \
            == cli.EXIT_OK
        with open(out / "oracle_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["passed"] is True
        assert len(report["checks"]) == 10
        assert all(check["passed"] for check in report["checks"])
        assert report["skipped"] == []
        assert_report_matches_the_committed(report, BSC_CONFIG_PATH)
        stdout = capsys.readouterr().out
        assert "PASS directed_info_n1_uniform" in stdout
        assert "FAIL" not in stdout

    def test_two_state_config_skips_the_oversized_grid(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.cmd_oracle_check(str(MARKOVIAN_CONFIG_PATH), str(out)) \
            == cli.EXIT_OK
        with open(out / "oracle_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["passed"] is True
        assert all(check["passed"] for check in report["checks"])
        skipped = {skip["quantity"] for skip in report["skipped"]}
        assert "grid_capacity_n2" in skipped
        assert "SKIP grid_capacity_n2" in capsys.readouterr().out
        assert_report_matches_the_committed(report, MARKOVIAN_CONFIG_PATH)

    def test_a_joint_above_the_literal_cap_is_skipped_before_it_is_built(
        self, tmp_path, capsys, monkeypatch
    ):
        # markovian's joint has 16 entries at N = 1 and 256 at N = 2
        monkeypatch.setattr(oracle, "LITERAL_ENTRY_CAP", 100)
        built = []
        true_build = oracle.literal_joint

        def counting_build(policy, *args, **kwargs):
            built.append(policy.block_length)
            return true_build(policy, *args, **kwargs)

        monkeypatch.setattr(oracle, "literal_joint", counting_build)
        out = tmp_path / "out"
        assert cli.cmd_oracle_check(str(MARKOVIAN_CONFIG_PATH), str(out)) \
            == cli.EXIT_OK
        assert built == [1, 1]
        with open(out / "oracle_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        skipped = {skip["quantity"]: skip["skipped"]
                   for skip in report["skipped"]}
        for label in ("uniform", "optimized"):
            assert (skipped[f"directed_info_n2_{label}"]
                    == "joint too large to enumerate literally")
        assert report["passed"] is True
        assert ("SKIP directed_info_n2_uniform: joint too large to enumerate "
                "literally") in capsys.readouterr().out

    def test_corrupted_policy_update_is_caught(self, tmp_path, monkeypatch):
        # the negative control: nudge every updated policy slice toward
        # uniform by one part in a thousand and the literal product-of-powers
        # reference must flag the mismatch
        true_update = cli.update_r

        def crooked_update(state):
            rows, flags = true_update(state)
            return 0.999 * rows + 0.001 / rows.shape[1], flags

        monkeypatch.setattr(cli, "update_r", crooked_update)
        monkeypatch.setattr(cli, "ORACLE_BLOCKS", (1,))
        out = tmp_path / "out"
        assert cli.cmd_oracle_check(str(MARKOVIAN_CONFIG_PATH), str(out)) \
            == cli.EXIT_SEMANTIC
        with open(out / "oracle_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["passed"] is False
        failing = [check["quantity"] for check in report["checks"]
                   if not check["passed"]]
        assert failing
        assert all(name.startswith("r_update") for name in failing)

    def test_corrupted_directed_information_is_caught(self, tmp_path,
                                                      monkeypatch):
        # the negative control of the shipped value: raise the optimizer's
        # lower iterate by 1e-6 bits and the literal directed information
        # must flag every directed_info check, and nothing else
        true_bound = baa.lower_bound

        def crooked_bound(*args):
            return true_bound(*args) + 1e-6

        monkeypatch.setattr(baa, "lower_bound", crooked_bound)
        out = tmp_path / "out"
        assert cli.cmd_oracle_check(str(MARKOVIAN_CONFIG_PATH), str(out)) \
            == cli.EXIT_SEMANTIC
        with open(out / "oracle_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["passed"] is False
        failing = [check["quantity"] for check in report["checks"]
                   if not check["passed"]]
        assert failing == [f"directed_info_n{n}_{label}"
                           for n in cli.ORACLE_BLOCKS
                           for label in ("uniform", "optimized")]

    def test_corrupted_posterior_is_caught(self, tmp_path, monkeypatch):
        # the negative control of the posterior: scale every iterate's sums
        # T of cond log2(p / d) by 1.001 where the optimizer and the oracle
        # check build iterates, and the literal update, which recomputes q
        # from the policy, must flag every r_update check, and nothing else
        true_update = baa.update_q

        def crooked_update(*args, **kwargs):
            state = true_update(*args, **kwargs)
            return dataclasses.replace(state, T=state.T * 1.001)

        monkeypatch.setattr(baa, "update_q", crooked_update)
        monkeypatch.setattr(cli, "update_q", crooked_update)

        def cap(doc):
            # the crooked sweep never certifies a point, and each would run
            # to the default 10,000 iterations; its map settles within 50,
            # where the grid gap is 3.5e-4 at any cap
            doc["algorithm"]["max_iters"] = 200

        path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, cap)
        out = tmp_path / "out"
        assert cli.cmd_oracle_check(path, str(out)) == cli.EXIT_SEMANTIC
        with open(out / "oracle_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["passed"] is False
        verdicts = {check["quantity"]: check["passed"]
                    for check in report["checks"]}
        assert [name for name, passed in verdicts.items() if not passed] \
            == [f"r_update_n{n}_{label}" for n in cli.ORACLE_BLOCKS
                for label in ("initial", "midrun")]
        assert {"directed_info_n1_uniform",
                "grid_capacity_n1"} <= set(verdicts)

    @pytest.mark.parametrize("path", [BSC_CONFIG_PATH, MARKOVIAN_CONFIG_PATH],
                             ids=["bsc", "markovian"])
    def test_one_trajectory_space_per_block_length(self, tmp_path, monkeypatch,
                                                   path):
        # the optimized iterates and the sweep of a block length share one
        # space, and the literal references build none
        built = []
        init = TrajectorySpace.__init__

        def counting_init(self, kernel, sys, n, s0=None):
            built.append(n)
            init(self, kernel, sys, n, s0)

        monkeypatch.setattr(TrajectorySpace, "__init__", counting_init)
        assert cli.cmd_oracle_check(str(path), str(tmp_path / "out")) \
            == cli.EXIT_OK
        assert built == list(cli.ORACLE_BLOCKS)


class TestExponent:
    def test_exponent_table(self, tmp_path):
        out = tmp_path / "out"
        assert cli.cmd_exponent(str(MARKOVIAN_CONFIG_PATH), str(out)) \
            == cli.EXIT_OK
        header, rows = read_rows(out / "exponent.csv")
        assert header == ["rho", "s0", "value"]
        assert len(rows) == 14
        by_state = {0: [], 1: []}
        for rho, s0, value in rows:
            by_state[int(s0)].append((float(rho), float(value)))
        for s0, series in by_state.items():
            assert len(series) == 7
            assert series[0] == (0.0, 0.0)
            values = [v for _, v in series]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        # the two start states are mirror images, so the exponents agree
        for (_, v0), (_, v1) in zip(by_state[0], by_state[1]):
            assert abs(v0 - v1) <= 1e-12

    @pytest.mark.parametrize("path", [BSC_CONFIG_PATH, MARKOVIAN_CONFIG_PATH],
                             ids=["bsc", "markovian"])
    def test_one_trajectory_space_per_start_state(self, tmp_path, monkeypatch,
                                                  path):
        # reference: a fresh space per (rho, s0) query
        config = load_config(path)
        spec = config.exponent
        lines = ["rho,s0,value"]
        for rho in spec.rho_grid:
            for s0 in range(config.kernel.state_size):
                space = TrajectorySpace(config.kernel, config.actions,
                                        spec.block_length, s0=s0)
                value = gallager_exponent(space, space.uniform_rows(), rho)
                lines.append(f"{cli._fmt(rho)},{s0},{cli._fmt(value)}")
        import sampcap.bounds

        built, alive = [], []

        class Counting(TrajectorySpace):
            def __init__(self, *args, **kwargs):
                # the space of the previous start state is released
                assert all(ref() is None for ref in alive)
                built.append(kwargs.get("s0"))
                alive.append(weakref.ref(self))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "TrajectorySpace", Counting)
        monkeypatch.setattr(sampcap.bounds, "TrajectorySpace", Counting)
        out = tmp_path / "out"
        assert cli.cmd_exponent(str(path), str(out)) == cli.EXIT_OK
        assert built == list(range(config.kernel.state_size))
        assert (out / "exponent.csv").read_text(encoding="utf-8") \
            == "\n".join(lines) + "\n"

    def test_requires_the_exponent_section(self, tmp_path, capsys):
        def mutate(doc):
            del doc["exponent"]

        path = write_variant(tmp_path, MARKOVIAN_CONFIG_PATH, mutate)
        assert cli.cmd_exponent(path, str(tmp_path / "out")) \
            == cli.EXIT_SEMANTIC
        assert "/exponent" in capsys.readouterr().err


class TestOutputDirectory:
    """Every subcommand that writes files creates --out before it computes
    anything, and stops at once if it cannot."""

    @pytest.mark.parametrize("command, computation", [
        ("capacity-sweep", "sweep_lambda"),
        ("bounds", "single_letter_bounds"),
        ("oracle-check", "_oracle_reports"),
        ("exponent", "gallager_exponent"),
    ])
    def test_an_out_under_a_regular_file_fails_before_computing(
        self, tmp_path, capsys, monkeypatch, command, computation
    ):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{computation} ran")

        monkeypatch.setattr(cli, computation, refuse)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        assert cli.main([command, "--config", str(MARKOVIAN_CONFIG_PATH),
                         "--out", str(blocker / "out")]) == cli.EXIT_IO
        assert f"cannot create {blocker / 'out'}" in capsys.readouterr().err


class TestWriteFailure:
    """A subcommand that cannot write one of its files exits 3 with a
    write failure, not a traceback."""

    @pytest.mark.parametrize("command, target", [
        ("capacity-sweep", "report.json"),
        ("bounds", "bounds.csv"),
        ("oracle-check", "oracle_report.json"),
        ("exponent", "exponent.csv"),
    ])
    def test_an_output_that_is_a_directory_is_a_write_failure(
        self, tmp_path, capsys, command, target
    ):
        out = tmp_path / "out"
        (out / target).mkdir(parents=True)
        assert cli.main([command, "--config", str(BSC_CONFIG_PATH),
                         "--out", str(out)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("write failure: ") and str(out / target) in err


class TestBundledOutputs:
    """capacity-sweep and exponent on the bundled configs reproduce the CSVs
    under tests/data/<config>/, written by those two commands: the
    iterations and converged columns exactly, every other value within 1e-10
    relative (absent values, nan, stay absent); and capacity-sweep's
    report.json, as assert_sweep_report_matches_the_committed checks it."""

    EXACT = ("iterations", "converged")

    @pytest.mark.parametrize("path", [BSC_CONFIG_PATH, MARKOVIAN_CONFIG_PATH],
                             ids=["bsc", "markovian"])
    def test_outputs_match_the_committed_csvs(self, tmp_path, path):
        out = tmp_path / "out"
        assert cli.cmd_capacity_sweep(str(path), str(out)) == cli.EXIT_OK
        assert cli.cmd_exponent(str(path), str(out)) == cli.EXIT_OK
        expected = DATA_DIR / path.stem
        names = sorted(p.name for p in expected.glob("*.csv"))
        assert names == sorted(p.name for p in out.glob("*.csv"))
        for name in names:
            header, want_rows = read_rows(expected / name)
            got_header, got_rows = read_rows(out / name)
            assert got_header == header
            assert len(got_rows) == len(want_rows)
            for got_row, want_row in zip(got_rows, want_rows):
                for column, got, want in zip(header, got_row, want_row):
                    if column in self.EXACT:
                        assert got == want, (name, column)
                    elif math.isnan(float(want)):
                        assert math.isnan(float(got)), (name, column)
                    else:
                        assert float(got) == pytest.approx(
                            float(want), rel=1e-10, abs=0.0), (name, column)
        assert_sweep_report_matches_the_committed(out, path)


class TestMain:
    def test_dispatch(self, capsys):
        code = cli.main(["validate", "--config", str(BSC_CONFIG_PATH)])
        assert code == cli.EXIT_OK
        assert "valid" in capsys.readouterr().out

    def test_unknown_command_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["transmogrify", "--config", "x.json"])
        assert excinfo.value.code == 2

    def test_config_flag_is_required(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["validate"])
        assert excinfo.value.code == 2
