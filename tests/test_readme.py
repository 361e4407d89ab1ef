"""The README's Python API example runs as written, and its CSV header is the one written."""

import re
from pathlib import Path

from rngswarm.reporting import METRICS_COLUMNS

ROOT = Path(__file__).resolve().parents[1]


def test_python_api_example_runs(monkeypatch, capsys):
    section = (ROOT / "README.md").read_text().split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the example loads a bundled scenario by relative path
    exec(compile(block, "README.md", "exec"), {})
    assert "GraphMetrics(" in capsys.readouterr().out


def test_documented_csv_header():
    section = (ROOT / "README.md").read_text().split("## Output", 1)[1]
    header = re.search(r"```\n(.*?)\n```", section, re.S).group(1)
    assert header == ",".join(METRICS_COLUMNS)
