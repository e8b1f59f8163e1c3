"""faultcast benchmark: three operator workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload plant-12 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one table
    python3 perfbench/run.py --smoke                        # tiny sizes, a few seconds

The workloads are closed loops with one client (see ``workloads.py``).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` the same
passes alternate untraced and traced and the object carries the per-layer
metrics plus the tracing overhead.  The lines before it print every metric
of the workload by name, with its unit and sample count.

Every run checks its outputs against independent references and against the
golden outputs stored in ``golden/`` for the tiny size at seed 0.  A mismatch
counts as a failed operation and makes the command exit with code 1.  The
benchmark imports faultcast from ``src/`` next to this directory and exits
with code 2 when it is not there.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threading before numpy is imported: load comes from one process
# with no extra threads, whatever the machine's core count.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
GOLDEN_SEED = 0
# Set-up repeats: at least three, more while they take under two seconds in
# total, so that a set-up of tens of milliseconds still has a steady median.
SETUP_REPEATS = (3, 9)
SETUP_BUDGET_S = 2.0
MIN_REQUESTS = 100  # p90 needs at least ten samples beyond it
MEASURE_CAP_S = 120.0
WORKLOAD_NAMES = ("plant-12", "wide-50", "kb-large")

# Operator-facing metrics, printed by name wherever the workload has samples:
# (name, unit, sample family, percentile).
NAMED = (
    ("train_s", "s", "train_s", 50),
    ("detect_rows_per_s", "rows/s", "detect_rows_per_s", 50),
    ("verdict_ms_p50", "ms", "verdict_s", 50),
    ("verdict_ms_p99", "ms", "verdict_s", 99),
    ("report_ms_p50", "ms", "report_s", 50),
    ("report_ms_p90", "ms", "report_s", 90),
    ("rank_s", "s", "rank_s", 50),
    ("ingest_chunks_per_s", "chunks/s", "ingest_chunks_per_s", 50),
    ("store_load_s", "s", "store_load_s", 50),
    ("troubleshoot_ms_p50", "ms", "troubleshoot_s", 50),
    ("troubleshoot_ms_p90", "ms", "troubleshoot_s", 90),
)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(n: int, q: float) -> int:
    """Samples strictly above the q-th percentile's interpolation interval."""
    return n - 1 - int((n - 1) * q / 100.0)


def highest_supported(n: int) -> float:
    """Highest of the usual percentiles that has at least ten samples beyond it."""
    return next((q for q in (99.9, 99.0, 95.0, 90.0, 75.0) if beyond(n, q) >= 10), 50.0)


def machine() -> dict:
    import numpy
    import scipy

    import faultcast

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "faultcast": getattr(faultcast, "__version__", "unknown"),
    }


class EndpointGuard:
    """Counts calls to ``endpoints.post_json`` and refuses them: the benchmark is offline."""

    def __init__(self) -> None:
        from faultcast import endpoints

        self.module = endpoints
        self.original = endpoints.post_json
        self.attempts = 0

    def __enter__(self) -> EndpointGuard:
        def refuse(url: str, *args: object, **kwargs: object) -> dict:
            self.attempts += 1
            raise RuntimeError(f"offline benchmark refused a request to {url}")

        self.module.post_json = refuse
        return self

    def __exit__(self, *exc: object) -> None:
        self.module.post_json = self.original


@dataclass
class Measurement:
    """Samples of the untraced passes and, in a traced run, spans of the traced ones."""

    rec: Any
    outputs: dict = field(default_factory=dict)
    attempted: int = 0
    walls: dict[str, list[float]] = field(default_factory=lambda: {"untraced": [], "traced": []})
    layers: list[dict[str, float]] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)


def measure(workload: Any, state: dict, args: argparse.Namespace, tracer: Any) -> Measurement:
    """Repeat the workload's pass until the run's time and sample count are reached.

    In a traced run every untraced pass is followed by the same pass traced,
    so the traced minus untraced pass time is the tracing overhead.
    """
    import tracing
    from workloads import Recorder

    m = Measurement(rec=Recorder())
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        m.outputs = workload.run_pass(state, m.rec)
        m.walls["untraced"].append(time.perf_counter() - began)
        if args.trace:
            traced = Recorder(tracer)
            tracer.reset()
            tracer.install()
            try:
                began = time.perf_counter()
                m.outputs = workload.run_pass(state, traced)
                m.walls["traced"].append(time.perf_counter() - began)
            finally:
                tracer.uninstall()
            m.attempted += traced.attempted
            m.layers.append(tracing.layer_metrics(tracer.spans))
            m.spans.append(tracer.spans)
        elapsed = time.perf_counter() - start
        if args.smoke or elapsed >= MEASURE_CAP_S:
            break
        if elapsed >= args.seconds and (args.trace or len(m.rec.samples[workload.request]) >= MIN_REQUESTS):
            break
    m.attempted += m.rec.attempted
    return m


def golden_problems(workload: Any, work: Path, write: bool) -> list[str]:
    """Run the tiny size at the golden seed; compare with (or store) ``golden/<workload>.json``."""
    import checks
    from workloads import Recorder

    work.mkdir(parents=True)
    state = workload.setup(GOLDEN_SEED, workload.tiny, work)
    outputs = workload.run_pass(state, Recorder())
    problems = [f"golden run: {p}" for p in workload.verify(state, outputs)]
    path = HERE / "golden" / f"{workload.name}.json"
    if write:
        path.write_text(json.dumps(outputs, sort_keys=True) + "\n", encoding="utf-8")
        return problems
    expected = json.loads(path.read_text(encoding="utf-8"))
    return problems + [f"golden: {d}" for d in checks.compare(expected, outputs)]


def print_named(name: str, samples: dict[str, list[float]], extra: dict[str, tuple[float, str, str]]) -> None:
    """Every metric the workload has, by its operator-facing name, with unit and sample count."""
    named = dict(extra)
    for metric, unit, family, q in NAMED:
        values = samples.get(family)
        if values:
            scale = 1e3 if unit == "ms" else 1.0
            named[metric] = (percentile(values, q) * scale, unit, f"n={len(values)} beyond={beyond(len(values), q)}")
    for metric, (value, unit, note) in named.items():
        print(f"{name:9s} {metric:22s} {value:14.6g} {unit:9s} {note}")
    for family, values in sorted(samples.items()):
        if family.endswith("_s") and not family.endswith("_per_s") and len(values) > 1:
            q = highest_supported(len(values))
            print(f"{name:9s} {family[:-2] + '_ms':22s} p50={percentile(values, 50) * 1e3:.6g} "
                  f"p{q:g}={percentile(values, q) * 1e3:.6g} n={len(values)}")


def layer_report(name: str, m: Measurement, endpoint_attempts: int, tracer: Any,
                 seed: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (median over traced passes), printed, with the spans written out."""
    import tracing

    untraced, traced = statistics.median(m.walls["untraced"]), statistics.median(m.walls["traced"])
    values = {key: statistics.median(layer[key] for layer in m.layers) for key in m.layers[0]}
    values["endpoints.attempts"] = endpoint_attempts
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_ratio"] = (traced - untraced) / untraced
    metrics = {key: (value, tracing.unit(key)) for key, value in values.items()}
    for metric, (value, unit) in metrics.items():
        print(f"{name:9s} {metric:28s} {value:14.6g} {unit}")
    all_spans = [s for pass_spans in m.spans for s in pass_spans]
    for parent in ("ranker.analyze", "troubleshoot", "cli.detect"):
        shares = tracing.breakdown(all_spans, parent)
        if shares:
            print(f"# time in {parent}: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    if tracer.absent:
        print(f"# absent entry points: {', '.join(tracer.absent)}")
    if tracer.count_errors:
        print(f"# {tracer.count_errors} spans without counts: a wrapped call's arguments or result changed shape")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for pass_no, pass_spans in enumerate(m.spans, start=1):
            for s in pass_spans:
                handle.write(json.dumps({"pass": pass_no, "id": s.span_id, "name": s.name, "start": s.start,
                                         "end": s.end, "parent": s.parent, "request": s.request}) + "\n")
    print(f"# spans: {path.relative_to(ROOT)}")
    return metrics


def run_workload(args: argparse.Namespace) -> int:
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    size = workload.tiny if args.smoke else workload.full
    work = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    print(f"# perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"smoke={int(args.smoke)}")
    print(f"# machine {json.dumps(machine(), sort_keys=True)}")

    tracer = tracing.Tracer()
    setup_times: list[float] = []
    try:
        with EndpointGuard() as guard:
            # The golden run goes first: it also warms every code path the
            # measured passes take.
            problems = golden_problems(workload, work / "golden", args.write_golden)
            fewest, most = (1, 1) if args.smoke else SETUP_REPEATS
            while len(setup_times) < fewest or (len(setup_times) < most and sum(setup_times) < SETUP_BUDGET_S):
                target = work / f"setup-{len(setup_times)}"
                target.mkdir(parents=True)
                start = time.perf_counter()
                state = workload.setup(args.seed, size, target)
                setup_times.append(time.perf_counter() - start)
            m = measure(workload, state, args, tracer)
            # The high-water mark before the checks below load reference
            # copies of the outputs.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            problems += workload.verify(state, m.outputs)
            quality = workload.quality(state, m.outputs)
    except Exception:  # the run's boundary: report the failure, print no result
        traceback.print_exc()
        print(f"perfbench: {workload.name} failed", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if guard.attempts:
        problems.append(f"{guard.attempts} endpoint attempts in an offline run")
    for problem in problems[:50]:
        print(f"# MISMATCH {problem}")
    failed = len(problems)
    attempted = max(len(setup_times) + m.attempted + 2, failed)  # + the two output checks

    samples = m.rec.samples
    setup_s = statistics.median(setup_times)
    print_named(workload.name, samples, {
        "setup_s": (setup_s, "s", f"n={len(setup_times)}"),
        **{k: (v, "share", "last pass") for k, v in quality.items()},
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss"),
        "error_rate": (failed / attempted, "share", f"{failed} of {attempted}"),
        "endpoints.attempts": (guard.attempts, "count", "refused by the offline guard"),
    })
    if args.trace:
        metrics = layer_report(workload.name, m, guard.attempts, tracer, args.seed)
    else:
        # Means, not medians: on a shared machine a run's calls fall into fast
        # and slow phases, and the median jumps between them from run to run.
        # With one client in a closed loop the mean latency is also the
        # inverse of the request rate. Batch calls carry equal work, so the
        # harmonic mean of their rates is items over total time.
        request = samples[workload.request]
        metrics = {
            "setup_s": (setup_s, "s"),
            "batch_per_s": (statistics.harmonic_mean(samples[workload.batch]), "1/s"),
            "request_ms_mean": (statistics.fmean(request) * 1e3, "ms"),
            "request_ms_p90": (percentile(request, 90) * 1e3, "ms"),
            "oneshot_s": (statistics.fmean(samples[workload.oneshot]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        argv += ["--smoke"] if args.smoke else []
        argv += ["--write-golden"] if args.write_golden else []
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="faultcast benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0, help="measured time per run")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass, no timing bounds")
    parser.add_argument("--write-golden", action="store_true",
                        help="store the golden outputs instead of checking them")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import faultcast
    except ImportError as exc:
        print(f"perfbench: cannot import faultcast from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(faultcast.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: faultcast imported from {faultcast.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
