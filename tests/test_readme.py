"""The README's CLI and Library examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from rootmaps.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def block_after(heading: str) -> str:
    """The first fenced block after the heading line."""
    return re.search(rf"^{re.escape(heading)}\n.*?^```\w*\n(.*?)^```", README, re.M | re.S).group(1)


COMMANDS = [
    words
    for line in block_after("## CLI").replace("\\\n", " ").splitlines()
    if (words := shlex.split(line, comments=True))
]


def test_the_cli_block_is_found():
    assert COMMANDS


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_example_runs(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert command[0] == "rootmaps"
    assert main(command[1:]) == 0
    capsys.readouterr()


def test_library_example_runs():
    exec(block_after("## Library"), {})
