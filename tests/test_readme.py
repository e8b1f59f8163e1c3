"""The README documents the public surface: every name it imports and every
command line it shows must exist."""

from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path

from faultcast import cli

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```([^\n]*)\n(.*?)^```", re.MULTILINE | re.DOTALL)
IMPORT = re.compile(r"^\s*from (faultcast(?:\.\w+)*) import (.+)$", re.MULTILINE)


def _blocks(language: str | None = None) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return [body for info, body in FENCE.findall(text) if language in (None, info.strip())]


def _documented_imports() -> list[tuple[str, str]]:
    found = []
    for block in _blocks():
        for module, names in IMPORT.findall(block):
            for name in names.split(","):
                found.append((module, name.split(" as ")[0].strip()))
    return found


def _documented_commands() -> list[str]:
    """Each ``faultcast ...`` line of the ``sh`` blocks, continuation lines joined."""
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("faultcast "):
                commands.append(line)
    return commands


def test_readme_code_blocks_import_only_existing_names():
    imports = _documented_imports()
    assert ("faultcast.classifier", "score") in imports
    missing = [
        f"from {module} import {name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_readme_command_lines_parse_with_the_cli():
    commands = _documented_commands()
    assert {line.split()[1] for line in commands} >= {"simulate", "train", "evaluate", "kb"}
    assert [line for line in commands if "$" in line] == []
    parser = cli.build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except cli.UsageError as exc:
            raise AssertionError(f"{line}: {exc}") from None
