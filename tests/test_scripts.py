"""Smoke checks that the experiment scripts stay runnable."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize(
    "script", ["run_evaluation.py", "run_localization.py", "demo_troubleshoot.py"]
)
def test_help_exits_cleanly(script: str) -> None:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--help"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()


def test_troubleshoot_demo_runs_offline(manuals, tmp_path) -> None:
    proc = subprocess.run(
        [
            sys.executable,
            str(SCRIPTS / "demo_troubleshoot.py"),
            *[str(m) for m in manuals],
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ingested 3 manuals" in proc.stdout
    assert "question: What is the cause of anomalous values regarding " in proc.stdout
    assert "retrieved chunks:" in proc.stdout
    assert "answer:" in proc.stdout


def test_kb_benchmark_smoke_matches_its_golden_outputs() -> None:
    """Tiny kb-large run: ingest, save, load and retrieval checked against references."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", "kb-large"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert result["correct"] is True
