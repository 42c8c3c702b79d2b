"""The README's CLI and Library examples run as written."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

import rootmaps
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


def test_the_exports_are_the_imports_and_are_documented():
    # the package surface cannot drift from __init__.py's imports or from the README
    tree = ast.parse(Path(rootmaps.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert sorted(rootmaps.__all__) == sorted(imported)
    assert [name for name in rootmaps.__all__ if not re.search(rf"\b{name}\b", README)] == []


def test_the_module_names_listed_exist():
    # each `rootmaps.<module>` item under "Everything else is imported from its module"
    # names only attributes that module has, so a deleted name cannot stay documented
    section = re.search(r"Everything else\s+is imported from its module:\n\n(.*?)\n\n", README, re.S).group(1)
    items = re.findall(r"^- `rootmaps\.(\w+)`:(.*?)(?=^- |\Z)", section, re.M | re.S)
    assert items
    missing = [f"{module}.{name}" for module, names in items for name in re.findall(r"`(\w+)`", names)
               if not hasattr(importlib.import_module(f"rootmaps.{module}"), name)]
    assert missing == []


def test_quoted_work_counts_are_the_pinned_ones():
    # the J / f / solve points per reproduce example that the README quotes are the
    # ones TestWorkCounters pins, from one table, so the prose cannot drift from them
    from test_capture import REPRODUCE_WORK

    quoted = re.findall(r"(example[\w-]+)(?:\s+\(one map\))?\s+(\d+)\s+/\s+(\d+)\s+/\s+(\d+)", README)
    pinned = {example: (w["jacobian"], w["f"], w["solves"]) for example, w in REPRODUCE_WORK.items()}
    assert sorted({example for example, *_ in quoted}) == sorted(pinned)
    assert [(example, tuple(map(int, counts))) for example, *counts in quoted] == [
        (example, pinned[example]) for example, *_ in quoted
    ]
