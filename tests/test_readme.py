"""The README documents the public surface: every name it imports must exist."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
IMPORT = re.compile(r"^\s*from (faultcast(?:\.\w+)*) import (.+)$", re.MULTILINE)


def _documented_imports() -> list[tuple[str, str]]:
    text = README.read_text(encoding="utf-8")
    found = []
    for block in FENCE.findall(text):
        for module, names in IMPORT.findall(block):
            for name in names.split(","):
                found.append((module, name.split(" as ")[0].strip()))
    return found


def test_readme_code_blocks_import_only_existing_names():
    imports = _documented_imports()
    assert ("faultcast.classifier", "score") in imports
    missing = [
        f"from {module} import {name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
