"""The README's library example runs as documented, and names every export."""

import re
from pathlib import Path

import sampcap

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
