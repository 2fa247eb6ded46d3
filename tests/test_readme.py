"""The README's examples run as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section: str) -> str:
    text = README.read_text()
    body = text[text.index(f"## {section}\n"):]
    return re.search(r"```python\n(.*?)```", body, re.DOTALL).group(1)


def test_quickstart_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_python_block("Quickstart (Python)"), str(README), "exec"), {})
    assert (tmp_path / "counts.json").exists()
    assert capsys.readouterr().out.splitlines()[-1] == "entangled element detected: True"
