"""The README documents the public surface: every name it imports and every
command line it shows must exist."""

from __future__ import annotations

import glob
import importlib
import re
import shlex
import shutil
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


def _quick_start() -> str:
    """The ``sh`` block of the README's quick start section."""
    section = README.read_text(encoding="utf-8").split("## Quick start\n", 1)[1].split("\n## ", 1)[0]
    return next(body for info, body in FENCE.findall(section) if info.strip() == "sh")


def test_readme_quick_start_runs_end_to_end(fixtures_dir, tmp_path, monkeypatch, capsys):
    """Each python heredoc is executed and each ``faultcast`` line run, in order; every one succeeds."""
    (tmp_path / "manuals").mkdir()
    for manual in fixtures_dir.glob("*.md"):
        shutil.copy(manual, tmp_path / "manuals")
    monkeypatch.chdir(tmp_path)
    lines = iter(_quick_start().replace("\\\n", " ").splitlines())
    commands = []
    for line in lines:
        if line == "python3 - <<'EOF'":
            exec("\n".join(iter(lines.__next__, "EOF")), {})
        elif line.startswith("faultcast "):
            argv = [name for arg in shlex.split(line)[1:] for name in sorted(glob.glob(arg)) or [arg]]
            assert cli.main(argv) == 0, f"{line}: {capsys.readouterr().err}"
            commands.append(argv[0])
        else:
            assert line == "" or line.startswith("#"), line
    assert commands[-2:] == ["kb", "troubleshoot"]
    assert re.search(r"^answered from [1-9]\d* sources", capsys.readouterr().out, re.MULTILINE)
