"""The README's examples run as written against the current API."""

import re
import shlex
from pathlib import Path

from detomo.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, lang: str) -> str:
    """The first fenced `lang` block of a README section."""
    text = README.read_text()
    body = text[text.index(f"## {section}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", body, re.DOTALL).group(1)


def test_quickstart_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("Quickstart (Python)", "python"), str(README), "exec"), {})
    assert (tmp_path / "counts.json").exists()
    assert capsys.readouterr().out.splitlines()[-1] == "entangled element detected: True"


def test_command_line_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _block("Command line", "sh").splitlines()
    assert [shlex.split(line)[:2] for line in lines] == [
        ["detomo", "simulate"], ["detomo", "reconstruct"], ["detomo", "analyze"], ["detomo", "report"]
    ]
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    written = [
        "counts.json", "counts.truth.json", "povm.json", "povm.diag.json",
        "report.crosstalk.json", "report.crosstalk.csv", "report.ppt.json", "report.ppt.csv",
    ]
    assert all((tmp_path / name).is_file() for name in written)
    out = capsys.readouterr().out
    assert "Crosstalk report, qubits [0, 1]" in out
    assert "Partial-transpose report, qubits [0, 1]" in out
