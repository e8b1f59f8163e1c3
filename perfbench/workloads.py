"""The three operator workloads: plant-12, wide-50 and kb-large.

Each workload builds its inputs from a seed in ``setup`` and then runs
passes.  A pass is a fixed amount of work on those inputs, issued as a closed
loop with one client: each call starts when the previous one returned.  The
recorder times every call from outside the package.  A pass returns its
structural outputs (verdict flags, anomalous KPI sets, graph edges, top
components, retrieved chunks), which ``verify`` checks against independent
references and which the golden check compares with the outputs stored for
the tiny size at seed 0.

The package is called only through module attributes looked up at call time
(``fc_ranker.analyze``, never a name imported once), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from faultcast.autoencoder import TrainingConfig
from faultcast.classifier import DEFAULT_SIGMA, select_elbow
from faultcast.granger import GrangerConfig
from faultcast.kpi import KpiDescriptor, KpiId, write_dataset
from faultcast.simulate import FaultSpec, generate_normal, inject_fault, make_chain_spec

import checks
from tracing import Tracer

# The package re-exports functions under some module names (``troubleshoot``),
# so the modules are fetched from the import system, not as attributes.
fc_classifier = importlib.import_module("faultcast.classifier")
fc_cli = importlib.import_module("faultcast.cli")
fc_knowledge = importlib.import_module("faultcast.knowledge")
fc_ranker = importlib.import_module("faultcast.ranker")
fc_troubleshoot = importlib.import_module("faultcast.troubleshoot")

MANUALS = sorted((Path(__file__).resolve().parent / "manuals").glob("*.md"))
WINDOW = GrangerConfig().window
FAULTY_COMPONENT = "component-1"


class Recorder:
    """Timed calls into the package and their samples."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.tracer = tracer

    def call(self, span: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
        """Run one request; returns (result, seconds).  Exceptions propagate."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.request += 1
            token = tracer.begin()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end(span, token)
        return result, seconds

    def add(self, family: str, value: float) -> None:
        self.samples[family].append(value)


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def run_cli(argv: list[str]) -> str:
    """``faultcast <argv>`` in-process; returns its stdout, raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fc_cli.main(argv)
    if code != 0:
        raise RuntimeError(f"faultcast {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def report_structure(report: Any, row: int) -> dict:
    """Structural content of a report, read from its JSON artifact."""
    payload = json.loads(fc_ranker.report_to_json(report))
    return report_json_structure(payload, row)


def report_json_structure(payload: dict, row: int) -> dict:
    return {
        "row": row,
        "anomalous": payload["verdict"]["anomalous"],
        "kpis": sorted(a["id"] for a in payload["anomalous_kpis"]),
        "edges": sorted([e["cause"], e["effect"], e["f"], e["p_value"]] for e in payload["graph"]["edges"]),
        "top3": [c["node"] for c in payload["top_components"]],
    }


def _normalized_window(model_path: str, history: np.ndarray) -> np.ndarray:
    with open(model_path, encoding="utf-8") as handle:
        stats = json.load(handle)["normalization"]
    std = np.asarray(stats["std"])
    return (history[-WINDOW:] - np.asarray(stats["mean"])) / np.where(std == 0.0, 1.0, std)


def _check_reports(reports: list[dict], values: np.ndarray, kpis: list[str], model: str,
                   limit: int) -> list[str]:
    """Reference Granger tests for the first ``limit`` localized reports."""
    problems = []
    for report in [r for r in reports if r["kpis"]][:limit]:
        window = _normalized_window(model, values[: report["row"] + 1])
        problems += [f"report at row {report['row']}: {p}" for p in checks.check_report(report, window, kpis)]
    return problems


def _top3_hit_rate(reports: list[dict], onset: int) -> float:
    post = [r for r in reports if r["row"] >= onset and r["anomalous"]]
    return sum(FAULTY_COMPONENT in r["top3"] for r in post) / len(post) if post else float("nan")


@dataclass(frozen=True)
class PlantSize:
    train_rows: int
    epochs: int
    sweep_runs: int
    sweep_rows: int
    faulty_rows: int
    onset: int
    detect_calls: int


class Plant12:
    """README quick-start plant, 4 components x 3 KPIs: train, tune, detect, stream."""

    name = "plant-12"
    request = "verdict_s"
    batch = "detect_rows_per_s"
    oneshot = "train_s"
    full = PlantSize(train_rows=2000, epochs=200, sweep_runs=3, sweep_rows=600,
                     faulty_rows=600, onset=400, detect_calls=20)
    tiny = PlantSize(train_rows=300, epochs=3, sweep_runs=2, sweep_rows=200,
                     faulty_rows=160, onset=120, detect_calls=1)

    def setup(self, seed: int, size: PlantSize, workdir: Path) -> dict:
        seeds = _seeds(seed, 2 + size.sweep_runs)
        spec = make_chain_spec(length=size.train_rows, seed=seeds[0])
        train = generate_normal(spec, seeds[0])
        quiet = [generate_normal(replace(spec, length=size.sweep_rows), s) for s in seeds[2:]]
        run_spec = replace(spec, length=size.faulty_rows)
        fault = FaultSpec(onset=size.onset, kind="offset",
                          target=KpiId("load", FAULTY_COMPONENT), magnitude=8.0)
        faulty, _ = inject_fault(generate_normal(run_spec, seeds[1]), run_spec, fault)
        write_dataset(faulty, workdir / "faulty.csv")
        store = fc_knowledge.VectorStore()
        fc_knowledge.ingest_files(store, MANUALS, fc_knowledge.OfflineEmbedder(store.dimension))
        store.save(workdir / "kb.json")
        return {"size": size, "dir": workdir, "train": train, "quiet": quiet, "faulty": faulty,
                "store": store, "descriptors": spec.descriptor_table()}

    def run_pass(self, st: dict, rec: Recorder) -> dict:
        size, faulty, work = st["size"], st["faulty"], st["dir"]
        model, verdicts = str(work / "model.json"), str(work / "verdicts.csv")
        (clf, _), seconds = rec.call("request.train", fc_classifier.fit_classifier,
                                     st["train"], TrainingConfig(epochs=size.epochs))
        rec.add("train_s", seconds)
        fc_classifier.save_classifier(clf, model)

        points, seconds = rec.call("request.sweep", lambda: [fc_classifier.sigma_sweep(clf, q) for q in st["quiet"]])
        rec.add("sweep_s", seconds)
        curve: dict[float, int] = defaultdict(int)
        for run in points:
            for point in run:
                curve[point.sigma] += point.fp_count

        # Batch detect calls are spread over the stream, so that slow phases of
        # a shared machine touch few of them.
        detect_every = faulty.n_rows // size.detect_calls
        history = fc_ranker.RollingHistory(faulty.n_kpis, WINDOW)
        flags, reports, answers = [], [], []
        for row in range(faulty.n_rows):
            if row % detect_every == 0 and row // detect_every < size.detect_calls:
                _, seconds = rec.call("cli.detect", run_cli, ["detect", "--data", str(work / "faulty.csv"),
                                                              "--model", model, "--out", verdicts])
                rec.add("detect_s", seconds)
                rec.add("detect_rows_per_s", faulty.n_rows / seconds)
            values = faulty.values[row]
            if row < WINDOW - 1:
                history.push(values)
                continue

            def step() -> Any:
                history.push(values)
                return fc_ranker.analyze(clf, values, history, int(faulty.timestamps[row]))

            report, seconds = rec.call("request.state", step)
            anomalous = report.verdict.anomalous
            flags.append("1" if anomalous else "0")
            rec.add("report_s" if anomalous else "verdict_s", seconds)
            if not anomalous:
                continue
            reports.append(report_structure(report, row))
            if report.anomalous_kpis:
                answer, seconds = rec.call("request.troubleshoot", fc_troubleshoot.troubleshoot,
                                           report.anomalous_kpis, st["descriptors"], st["store"])
                rec.add("troubleshoot_s", seconds)
                answers.append({"prompt": answer.prompt, "retrieved": [list(r) for r in answer.retrieved]})

        detect_flags, errors, _ = checks.read_verdicts(verdicts)
        return {
            "sweep": sorted([s, fp] for s, fp in curve.items()),
            "elbow": select_elbow(sorted(curve.items())),
            "detect": {"flags": detect_flags, "state_error": errors},
            "stream": "".join(flags),
            "reports": reports,
            "answers": answers,
        }

    def verify(self, st: dict, out: dict) -> list[str]:
        faulty, work = st["faulty"], st["dir"]
        model = str(work / "model.json")
        problems = checks.check_verdicts(model, faulty.values, str(work / "verdicts.csv"), DEFAULT_SIGMA)
        if out["stream"] != out["detect"]["flags"][WINDOW - 1:]:
            problems.append("streamed verdicts differ from the detect CSV")
        kpis = [str(k) for k in faulty.kpis]
        problems += _check_reports(out["reports"], faulty.values, kpis, model, limit=5)
        ids, matrix, dimension = checks.load_store_matrix(str(work / "kb.json"))
        for answer in out["answers"][:50]:
            problems += checks.check_retrieval(ids, matrix, dimension, answer["prompt"], answer["retrieved"])
        return problems

    def quality(self, st: dict, out: dict) -> dict[str, float]:
        onset = st["size"].onset
        before = out["stream"][: onset - (WINDOW - 1)]
        return {
            "top3_hit_rate": _top3_hit_rate(out["reports"], onset),
            "false_alarm_rate": before.count("1") / len(before),
        }


@dataclass(frozen=True)
class WideSize:
    components: int
    rows: int
    onset: int
    epochs: int
    reports: int


class Wide50:
    """10 components x 5 KPIs, 5k rows: batch detect, rank, full-prefix analyze."""

    name = "wide-50"
    request = "report_s"
    batch = "detect_rows_per_s"
    oneshot = "rank_s"
    full = WideSize(components=10, rows=5000, onset=2500, epochs=10, reports=8)
    tiny = WideSize(components=10, rows=300, onset=150, epochs=2, reports=2)

    def setup(self, seed: int, size: WideSize, workdir: Path) -> dict:
        seeds = _seeds(seed, 3)
        spec = make_chain_spec(components=size.components, kpis_per_component=5,
                               length=size.rows, seed=seeds[0])
        train = generate_normal(spec, seeds[0])
        clf, _ = fc_classifier.fit_classifier(train, TrainingConfig(epochs=size.epochs))
        fc_classifier.save_classifier(clf, workdir / "model.json")
        fault = FaultSpec(onset=size.onset, kind="offset",
                          target=KpiId("load", FAULTY_COMPONENT), magnitude=8.0)
        faulty, _ = inject_fault(generate_normal(spec, seeds[1]), spec, fault)
        write_dataset(faulty, workdir / "faulty.csv")
        rows = sorted(random.Random(seeds[2]).sample(range(size.onset + 100, size.rows), size.reports))
        return {"size": size, "dir": workdir, "clf": clf, "faulty": faulty, "rows": rows}

    def run_pass(self, st: dict, rec: Recorder) -> dict:
        faulty, work, clf = st["faulty"], st["dir"], st["clf"]
        data, model = str(work / "faulty.csv"), str(work / "model.json")
        verdicts, ranked = str(work / "verdicts.csv"), str(work / "report.json")
        _, seconds = rec.call("cli.detect", run_cli, ["detect", "--data", data, "--model", model, "--out", verdicts])
        rec.add("detect_s", seconds)
        rec.add("detect_rows_per_s", faulty.n_rows / seconds)
        reports = []
        for i, row in enumerate(st["rows"]):
            if i == len(st["rows"]) // 2:
                _, seconds = rec.call("cli.rank", run_cli, ["rank", "--data", data, "--model", model, "--out", ranked])
                rec.add("rank_s", seconds)
            report, seconds = rec.call("request.report", fc_ranker.analyze, clf, faulty.values[row],
                                       faulty.values[: row + 1], int(faulty.timestamps[row]))
            rec.add("report_s" if report.verdict.anomalous else "verdict_s", seconds)
            reports.append(report_structure(report, row))

        flags, errors, _ = checks.read_verdicts(verdicts)
        with open(ranked, encoding="utf-8") as handle:
            rank = report_json_structure(json.load(handle), faulty.n_rows - 1)
        return {"detect": {"flags": flags, "state_error": errors}, "rank": rank, "reports": reports}

    def verify(self, st: dict, out: dict) -> list[str]:
        faulty, work = st["faulty"], st["dir"]
        model = str(work / "model.json")
        problems = checks.check_verdicts(model, faulty.values, str(work / "verdicts.csv"), DEFAULT_SIGMA)
        flags = out["detect"]["flags"]
        for report in out["reports"] + [out["rank"]]:
            if report["anomalous"] != (flags[report["row"]] == "1"):
                problems.append(f"report at row {report['row']}: verdict differs from the detect CSV")
        kpis = [str(k) for k in faulty.kpis]
        problems += _check_reports(out["reports"], faulty.values, kpis, model, limit=1)
        return problems

    def quality(self, st: dict, out: dict) -> dict[str, float]:
        return {"top3_hit_rate": _top3_hit_rate(out["reports"], st["size"].onset)}


@dataclass(frozen=True)
class KbSize:
    documents: int
    doc_chars: int
    queries: int
    queries_per_pass: int
    loads_per_pass: int


METRICS = ("load", "temperature", "vibration", "current", "flow", "speed", "pressure", "torque")
WORDS = (
    "inspect replace bearing valve seal filter pump motor shaft coupling sensor cable relay "
    "breaker fuse insulation winding rotor stator impeller nozzle gasket lubricant oil coolant "
    "fan belt gear housing mount bolt alignment calibration drift offset spike stuck noise "
    "alarm threshold limit trend rising falling steady reading gauge transmitter controller "
    "setpoint loop feedback overload overheating leak blockage wear crack corrosion fouling "
    "cavitation imbalance misalignment resonance surge trip restart isolate verify measure "
    "record report check clean tighten adjust drain refill purge vent operator technician "
    "maintenance shutdown startup nominal abnormal high low upstream downstream supply return"
).split()


class KbLarge:
    """A ~2 MB synthetic manual corpus: ingest, save, load, then troubleshoot queries."""

    name = "kb-large"
    request = "troubleshoot_s"
    batch = "ingest_chunks_per_s"
    oneshot = "store_load_s"
    full = KbSize(documents=40, doc_chars=45_000, queries=300, queries_per_pass=50, loads_per_pass=5)
    tiny = KbSize(documents=4, doc_chars=4_000, queries=6, queries_per_pass=6, loads_per_pass=1)

    @staticmethod
    def _document(rng: random.Random, index: int, chars: int, components: int) -> str:
        lines = [f"# Manual {index}: {rng.choice(METRICS)} systems", ""]
        size = 0
        while size < chars:
            metric = rng.choice(METRICS)
            node = f"component-{rng.randint(1, components)}"
            lines += [f"## {metric.capitalize()} on {node}: {rng.choice(WORDS)} {rng.choice(WORDS)}", ""]
            for _ in range(rng.randint(1, 3)):
                words = [rng.choice(WORDS) if rng.random() > 0.15 else rng.choice([metric, node, "on"])
                         for _ in range(rng.randint(40, 120))]
                text = " ".join(words)
                lines += [text[i: i + 72].strip() for i in range(0, len(text), 72)] + [""]
                size += len(text)
        return "\n".join(lines) + "\n"

    def setup(self, seed: int, size: KbSize, workdir: Path) -> dict:
        rng = random.Random(seed)
        components = 10
        corpus = workdir / "corpus"
        corpus.mkdir(exist_ok=True)
        paths = []
        for index in range(size.documents):
            path = corpus / f"manual-{index:03d}.md"
            path.write_text(self._document(rng, index, size.doc_chars, components), encoding="utf-8")
            paths.append(str(path))
        descriptors: dict[KpiId, KpiDescriptor] = {}
        queries = []
        for _ in range(size.queries):
            anomalies = []
            for metric, node in rng.sample([(m, f"component-{c}") for m in METRICS
                                            for c in range(1, components + 1)], rng.randint(2, 4)):
                kpi = KpiId(metric, node)
                descriptors[kpi] = KpiDescriptor(kpi=kpi, description=f"{metric} on {node}")
                anomalies.append(fc_ranker.KpiAnomaly(kpi=kpi, score=rng.uniform(1.0, 20.0), kpi_threshold=1.0))
            queries.append(tuple(anomalies))
        return {"size": size, "dir": workdir, "paths": paths, "queries": queries,
                "descriptors": descriptors, "passes": 0}

    def run_pass(self, st: dict, rec: Recorder) -> dict:
        size, store_path = st["size"], str(st["dir"] / "kb.json")

        def ingest_and_save() -> int:
            store = fc_knowledge.VectorStore()
            added = fc_knowledge.ingest_files(store, st["paths"], fc_knowledge.OfflineEmbedder(store.dimension))
            store.save(store_path)
            return added

        added, seconds = rec.call("request.ingest", ingest_and_save)
        rec.add("ingest_s", seconds)
        rec.add("ingest_chunks_per_s", added / seconds)
        first = st["passes"] * size.queries_per_pass
        st["passes"] += 1
        load_every = size.queries_per_pass // size.loads_per_pass
        answers = []
        for i in range(first, first + size.queries_per_pass):
            if (i - first) % load_every == 0:
                store, seconds = rec.call("request.load", fc_knowledge.VectorStore.load, store_path)
                rec.add("store_load_s", seconds)
            anomalies = st["queries"][i % len(st["queries"])]
            answer, seconds = rec.call("request.troubleshoot", fc_troubleshoot.troubleshoot,
                                       anomalies, st["descriptors"], store)
            rec.add("troubleshoot_s", seconds)
            answers.append({"prompt": answer.prompt, "retrieved": [list(r) for r in answer.retrieved]})
        return {"chunks": added, "answers": answers}

    def verify(self, st: dict, out: dict) -> list[str]:
        ids, matrix, dimension = checks.load_store_matrix(str(st["dir"] / "kb.json"))
        problems = [] if len(ids) == out["chunks"] else [f"store holds {len(ids)} chunks, ingest added {out['chunks']}"]
        for answer in out["answers"]:
            problems += checks.check_retrieval(ids, matrix, dimension, answer["prompt"], answer["retrieved"])
        return problems

    def quality(self, st: dict, out: dict) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (Plant12(), Wide50(), KbLarge())}
