"""README.md runs as written: its Python quick start executes, and the
[PASS]/[INFO] lines its CLI transcript shows appear verbatim in the text
output of those commands."""

import re
import shlex
from pathlib import Path

import pytest

from matpi.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def _transcript():
    """Each `$ matpi ...` command of the CLI quick start, mapped to the
    [PASS]/[INFO] lines shown under it."""
    shown, lines = {}, None
    for line in _blocks("text")[0].splitlines():
        if line.startswith("$ matpi "):
            lines = shown.setdefault(line[len("$ matpi "):].split("#")[0].strip(), [])
        elif line.startswith(("[PASS]", "[INFO]")):
            lines.append(line)
    return shown


def test_readme_python_quick_start_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    assert "FullBlockTriangular" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    "verify-al --n 3",
    "identity-space --n 2 --t 4",
    "classify --spec two_block.yaml",
])
def test_readme_cli_transcript_matches(capsys, monkeypatch, tmp_path, command):
    shown = _transcript()[command]
    assert shown
    (spec,) = [b for b in _blocks("yaml") if b.startswith("label: two-block\n")]
    (tmp_path / "two_block.yaml").write_text(spec)
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in shown if line not in out] == []
