"""Tests of the benchmark itself, at the tiny size (``--smoke``), with no timing bounds.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["plant-12", "wide-50", "kb-large"])
def test_smoke_run_prints_the_declared_metrics(workload: str, trace: str) -> None:
    proc = _run(ROOT, "--smoke", "--workload", workload, "--seed", "3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "1":
        assert result["metrics"]["endpoints.attempts"]["value"] == 0


def test_golden_mismatch_fails_the_run(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    golden = tmp_path / "perfbench" / "golden" / "kb-large.json"
    data = json.loads(golden.read_text(encoding="utf-8"))
    data["answers"][0]["retrieved"][0][1] *= 1.001
    golden.write_text(json.dumps(data), encoding="utf-8")
    proc = _run(tmp_path, "--smoke", "--workload", "kb-large")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_run_without_the_package_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "plant-12", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout


def test_tracer_reports_absent_entry_points(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (
        ("faultcast.classifier", "score_removed_later", "classifier.score", None),
        ("faultcast.no_such_module", "anything", "nothing", None),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["faultcast.classifier.score_removed_later", "faultcast.no_such_module.anything"]
    finally:
        tracer.uninstall()
    import faultcast.ranker

    assert not hasattr(faultcast.ranker.analyze, "__wrapped__")


def test_self_time_subtracts_direct_children() -> None:
    spans = [
        tracing.Span(1, "ranker.analyze", 0.0, 10.0, None, 1),
        tracing.Span(2, "granger", 1.0, 7.0, 1, 1, {"granger.pairs": 6, "granger.edges": 3}),
        tracing.Span(3, "autoencoder.forward", 7.0, 8.0, 1, 1, {"autoencoder.forward_rows": 1}),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["ranker.self_s"] == pytest.approx(3.0)
    assert metrics["granger.edge_ratio"] == pytest.approx(0.5)
    assert metrics["autoencoder.forward_rows"] == 1


def test_compare_uses_a_relative_tolerance_for_floats_only() -> None:
    assert checks.compare({"f": [1.0, "a"]}, {"f": [1.0 + 1e-9, "a"]}) == []
    assert checks.compare({"f": [1.0]}, {"f": [1.001]})
    assert checks.compare({"edges": [["a", "b"]]}, {"edges": [["b", "a"]]})
    assert checks.compare({"n": 3}, {"n": 3.0}) == []
