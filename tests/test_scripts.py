"""Smoke check that the benchmark runs and matches its golden outputs."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("workload", ["kb-large", "plant-12", "wide-50"])
def test_kb_benchmark_smoke_matches_its_golden_outputs(workload: str) -> None:
    """Tiny benchmark run checked against references and golden outputs.

    kb-large covers ingest, save, load and retrieval; plant-12 covers
    training, ``faultcast detect`` (config resolution and model loading),
    ranking and troubleshooting; wide-50 checks every graph of a 50-KPI
    ``analyze`` against pairwise ``lstsq`` Granger tests.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", workload],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert result["correct"] is True
