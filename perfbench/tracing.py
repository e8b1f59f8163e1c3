"""In-memory spans around the layer entry points of faultcast.

The tracer patches the names that callers look up at call time (for example
``faultcast.ranker.build_causality_graph``, which ``analyze`` calls through
its module globals) with wrappers that record a span: name, start, end,
parent span and request id.  Counts come from the wrapped call's arguments
or result where possible, never from counting calls to helpers that a later
refactor may delete.  A name that no longer exists is reported as absent and
skipped, so the traced run survives the refactors it is meant to measure.

Nothing is patched while the tracer is not installed; the untraced run pays
no tracing cost.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable


def _rows(args: tuple, kwargs: dict, result: Any, key: str) -> dict[str, int]:
    """Row count of the array argument after ``self``/model: 1-D counts as one row."""
    array = args[-1] if args else next(iter(kwargs.values()))
    shape = getattr(array, "shape", ())
    return {key: int(shape[0]) if len(shape) == 2 else 1}


def _graph_counts(args: tuple, kwargs: dict, graph: Any) -> dict[str, int]:
    m = len(graph.nodes)
    return {"granger.pairs": m * (m - 1), "granger.edges": len(graph.edges)}


def _pagerank_counts(args: tuple, kwargs: dict, rank: Any) -> dict[str, int]:
    edges = args[1] if len(args) > 1 else kwargs["edges"]
    return {"pagerank.nodes": len(rank), "pagerank.edges": len(edges)}


def _analyze_counts(args: tuple, kwargs: dict, report: Any) -> dict[str, int]:
    return {"ranker.localized": int(len(report.anomalous_kpis) > 0)}


def _ingest_counts(args: tuple, kwargs: dict, added: Any) -> dict[str, int]:
    paths = args[1] if len(args) > 1 else kwargs["paths"]
    return {"knowledge.bytes_in": sum(os.path.getsize(p) for p in paths)}


def _store_file_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    path = args[-1] if args else kwargs["path"]
    return {"knowledge.store_bytes": os.path.getsize(path)}


def _chunks_scored(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    store = args[0] if args else kwargs["store"]
    return {"troubleshoot.chunks_scored": len(store)}


# (owner, attribute, span name, counts from (args, kwargs, result)).
# The owner is a module or a class inside one; every namespace a caller
# imports a name into is listed, since patching the defining module alone
# does not reach a caller that imported the name directly.
WRAPPED: tuple[tuple[str, str, str, Callable[..., dict[str, int]] | None], ...] = (
    ("faultcast.classifier", "train", "autoencoder.train",
     lambda a, k, r: {"autoencoder.epochs": len(r[1])}),
    ("faultcast.autoencoder", "forward", "autoencoder.forward",
     lambda a, k, r: _rows(a, k, r, "autoencoder.forward_rows")),
    ("faultcast.classifier", "forward", "autoencoder.forward",
     lambda a, k, r: _rows(a, k, r, "autoencoder.forward_rows")),
    ("faultcast.ranker", "forward", "autoencoder.forward",
     lambda a, k, r: _rows(a, k, r, "autoencoder.forward_rows")),
    ("faultcast.cli", "classify_state", "classifier.classify", None),
    ("faultcast.ranker", "classify_state", "classifier.classify", None),
    ("faultcast.cli", "load_classifier", "classifier.model_load", None),
    ("faultcast.classifier", "sigma_sweep", "classifier.sweep", None),
    ("faultcast.cli", "load_dataset", "kpi.load_dataset",
     lambda a, k, r: {"kpi.csv_rows": r.n_rows}),
    ("faultcast.kpi:NormalizationStats", "transform", "kpi.transform",
     lambda a, k, r: _rows(a, k, r, "kpi.transform_rows")),
    ("faultcast.ranker", "build_causality_graph", "granger", _graph_counts),
    ("faultcast.ranker", "pagerank", "pagerank", _pagerank_counts),
    ("faultcast.ranker", "analyze", "ranker.analyze", _analyze_counts),
    ("faultcast.cli", "analyze", "ranker.analyze", _analyze_counts),
    ("faultcast.knowledge", "ingest_files", "knowledge.ingest", _ingest_counts),
    ("faultcast.knowledge", "chunk_document", "knowledge.chunk", None),
    ("faultcast.knowledge:OfflineEmbedder", "embed", "knowledge.embed", None),
    ("faultcast.knowledge:VectorStore", "save", "knowledge.save", _store_file_bytes),
    ("faultcast.knowledge:VectorStore", "load", "knowledge.load", _store_file_bytes),
    ("faultcast.troubleshoot", "troubleshoot", "troubleshoot", None),
    ("faultcast.troubleshoot", "retrieve", "troubleshoot.retrieve", _chunks_scored),
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None) if class_name else module


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.count_errors = 0
        self.absent: list[str] = []
        self.request = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.spans = []

    def begin(self) -> tuple[int, float, int | None]:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(self._next_id)
        return self._next_id, time.perf_counter(), parent

    def end(self, name: str, token: tuple[int, float, int | None]) -> Span:
        end = time.perf_counter()
        span_id, start, parent = token
        self._stack.pop()
        span = Span(span_id, name, start, end, parent, self.request)
        self.spans.append(span)
        return span

    def _wrap(self, fn: Callable, name: str, count: Callable | None) -> Callable:
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.end(name, token)
            if count is not None:
                try:
                    span.counts = count(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, OSError, StopIteration):
                    tracer.count_errors += 1
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        """Patch every entry point in :data:`WRAPPED` that still exists."""
        self.absent = []
        for owner_name, attr, name, count in WRAPPED:
            owner = _resolve(owner_name)
            original = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{owner_name}.{attr}")
                continue
            if isinstance(original, classmethod):
                patched: Any = classmethod(self._wrap(original.__func__, name, count))
            elif isinstance(original, staticmethod):
                patched = staticmethod(self._wrap(original.__func__, name, count))
            elif callable(original):
                patched = self._wrap(original, name, count)
            else:
                self.absent.append(f"{owner_name}.{attr}")
                continue
            setattr(owner, attr, patched)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "bytes" if metric.endswith("bytes_in") or metric.endswith("_bytes") else "count"


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the time its direct children cover."""
    child_time: Counter[int] = Counter()
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return {span.span_id: span.duration - child_time[span.span_id] for span in spans}


def _inside(span: Span, ancestor_name: str, by_id: dict[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        above = by_id.get(parent)
        if above is None:
            return False
        if above.name == ancestor_name:
            return True
        parent = above.parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans."""
    by_id = {s.span_id: s for s in spans}
    self_time = _self_times(spans)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str) -> float:
        return sum(s.duration for s in named(name))

    def self_total(name: str) -> float:
        return sum(self_time[s.span_id] for s in named(name))

    def count(key: str, among: list[Span] = spans) -> int:
        return sum(s.counts.get(key, 0) for s in among)

    def largest(key: str) -> int:
        return max((s.counts.get(key, 0) for s in spans), default=0)

    # Forward passes inside training belong to autoencoder.train_s.
    scoring = [s for s in named("autoencoder.forward") if not _inside(s, "autoencoder.train", by_id)]
    analyze_calls = len(named("ranker.analyze"))
    pairs = count("granger.pairs")
    edges = count("granger.edges")
    return {
        "autoencoder.train_s": total("autoencoder.train"),
        "autoencoder.epochs": count("autoencoder.epochs"),
        "autoencoder.forward_calls": len(scoring),
        "autoencoder.forward_rows": count("autoencoder.forward_rows", scoring),
        "autoencoder.forward_s": sum(s.duration for s in scoring),
        "classifier.classify_calls": len(named("classifier.classify")),
        "classifier.classify_s": total("classifier.classify"),
        "classifier.model_load_s": total("classifier.model_load"),
        "classifier.sweep_s": total("classifier.sweep"),
        "cli.detect_self_s": self_total("cli.detect"),
        "kpi.load_dataset_s": total("kpi.load_dataset"),
        "kpi.csv_rows": count("kpi.csv_rows"),
        "kpi.transform_rows": count("kpi.transform_rows"),
        "kpi.transform_s": total("kpi.transform"),
        "granger.s": total("granger"),
        "granger.pairs": pairs,
        "granger.edges": edges,
        "granger.edge_ratio": edges / pairs if pairs else 0.0,
        "pagerank.s": total("pagerank"),
        "pagerank.nodes": count("pagerank.nodes"),
        "pagerank.edges": count("pagerank.edges"),
        "ranker.analyze_calls": analyze_calls,
        "ranker.self_s": self_total("ranker.analyze"),
        "ranker.localize_ratio": count("ranker.localized") / analyze_calls if analyze_calls else 0.0,
        "knowledge.chunk_s": total("knowledge.chunk"),
        "knowledge.embed_s": total("knowledge.embed"),
        "knowledge.embed_calls": len(named("knowledge.embed")),
        "knowledge.bytes_in": count("knowledge.bytes_in"),
        "knowledge.save_s": total("knowledge.save"),
        "knowledge.load_s": total("knowledge.load"),
        "knowledge.store_bytes": largest("knowledge.store_bytes"),
        "troubleshoot.retrieve_s": total("troubleshoot.retrieve"),
        "troubleshoot.chunks_scored": count("troubleshoot.chunks_scored"),
        "troubleshoot.self_s": self_total("troubleshoot"),
    }


def breakdown(spans: list[Span], name: str) -> dict[str, float]:
    """Share of the time in spans called ``name`` spent in each direct child layer, and in itself."""
    ids = {s.span_id for s in spans if s.name == name}
    total = sum(s.duration for s in spans if s.span_id in ids)
    if not total:
        return {}
    shares: Counter[str] = Counter()
    for span in spans:
        if span.parent in ids:
            shares[span.name] += span.duration / total
    shares["self"] = 1.0 - sum(shares.values())
    return dict(shares.most_common())
