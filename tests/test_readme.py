"""The README's Python API example runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_python_api_example_runs(monkeypatch, capsys):
    section = (ROOT / "README.md").read_text().split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the example loads a bundled scenario by relative path
    exec(compile(block, "README.md", "exec"), {})
    assert "GraphMetrics(" in capsys.readouterr().out
