"""The README's library example runs as documented, and names every export
and every subcommand."""

import re
from pathlib import Path

import pytest

import sampcap
from sampcap.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme,
                      re.S | re.M)
    assert block is not None, "README.md has no python block under ## Library"
    # the example opens configs/ by a path relative to the repo root
    monkeypatch.chdir(ROOT)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert "True" in capsys.readouterr().out  # the point converged


def test_every_export_is_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [name for name in sampcap.__all__
               if not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert missing == []


def test_subcommand_table_names_every_subcommand(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = re.search(r"^\| subcommand \| outputs \|\n\| --- \| --- \|\n"
                      r"((?:\|.*\n)+)", readme, re.M)
    assert table is not None, "README.md has no subcommand table"
    documented = re.findall(r"^\| `([^`]+)` \|", table.group(1), re.M)
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = re.search(r"\{([^}]*)\}", capsys.readouterr().out)
    assert documented == usage.group(1).split(",")
