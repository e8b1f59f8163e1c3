"""Root-cause localization for anomalous system states.

:func:`analyze` scores a raw state once with :func:`faultcast.classifier.score`:
the state error gives the verdict, and for an anomalous state the per-KPI
squared residuals of the same pass flag the anomalous KPIs.  Pairwise Granger
tests over the last ``granger.window`` history rows connect them into a
causality graph, and PageRank against the edge direction concentrates rank on
likely origins.  KPIs are ranked by that centrality and the components
hosting the most central KPIs are named.  Everything downstream of the
verdict is gated: a normal state yields an empty report body.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .classifier import StateVerdict, TrainedClassifier, score, threshold
from .config import ClassifierConfig, GrangerConfig, PageRankConfig
from .errors import DataError, InsufficientHistory, load_json
from .granger import granger_tests
from .kpi import KpiDescriptor, KpiId, from_json, to_json
from .pagerank import pagerank


@dataclass(frozen=True)
class KpiAnomaly:
    """One KPI whose squared residual exceeded its own threshold."""

    kpi: KpiId = field(metadata={"json": "id"})
    score: float
    kpi_threshold: float


@dataclass(frozen=True)
class CausalEdge:
    """Directed edge cause -> effect with the test statistics behind it."""

    cause: KpiId
    effect: KpiId
    f_stat: float = field(metadata={"json": "f"})
    p_value: float


@dataclass(frozen=True)
class CausalityGraph:
    nodes: tuple[KpiId, ...]
    edges: tuple[CausalEdge, ...]

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        for edge in self.edges:
            if edge.cause == edge.effect:
                raise ValueError(f"self-loop on {edge.cause}")
            if edge.cause not in node_set or edge.effect not in node_set:
                raise ValueError("edge endpoints must be graph nodes")


@dataclass(frozen=True)
class RankedCause:
    kpi: KpiId = field(metadata={"json": "id"})
    centrality: float
    score: float


@dataclass(frozen=True)
class ComponentAttribution:
    node: str
    central_kpi_count: int


@dataclass(frozen=True)
class AnomalyReport:
    """Verdict plus localization results (empty unless anomalous)."""

    verdict: StateVerdict
    anomalous_kpis: tuple[KpiAnomaly, ...] = ()
    graph: CausalityGraph = CausalityGraph(nodes=(), edges=())
    centrality: dict[KpiId, float] = field(default_factory=dict)
    root_cause_kpis: tuple[RankedCause, ...] = ()
    top_components: tuple[ComponentAttribution, ...] = ()
    descriptions: dict[KpiId, str] = field(default_factory=dict)


def detect_anomalous_kpis(
    kpis: list[KpiId],
    residuals: np.ndarray,
    kpi_mu: np.ndarray,
    kpi_std: np.ndarray,
    sigma_kpi: float,
) -> list[KpiAnomaly]:
    """KPIs whose residual strictly exceeds mu_j + sigma_kpi * std_j, in column order."""
    limits = kpi_mu + sigma_kpi * kpi_std
    over = np.flatnonzero(residuals > limits)
    return [KpiAnomaly(kpi=kpis[j], score=float(residuals[j]), kpi_threshold=float(limits[j])) for j in over]


def build_causality_graph(
    window: np.ndarray,
    kpis: list[KpiId],
    anomalies: list[KpiAnomaly],
    config: GrangerConfig = GrangerConfig(),
) -> CausalityGraph:
    """Granger-test every ordered pair of anomalous KPIs over the window.

    ``window`` holds the most recent normalized samples (rows oldest to
    newest, one column per KPI in ``kpis``); only its last ``config.window``
    rows are used.  Edges come cause-major in anomaly order; degenerate
    regressions contribute no edge.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2 or window.shape[1] != len(kpis):
        raise ValueError("window must be 2-D with one column per KPI")
    if window.shape[0] < config.window:
        raise InsufficientHistory(
            f"need {config.window} samples, have {window.shape[0]}"
        )
    nodes = tuple(a.kpi for a in anomalies)
    column = {kpi: i for i, kpi in enumerate(kpis)}
    recent = window[-config.window :, [column[kpi] for kpi in nodes]]
    f_stat, p_value, degenerate = granger_tests(recent, config.lag)
    edges = tuple(
        CausalEdge(nodes[c], nodes[e], float(f_stat[c, e]), float(p_value[c, e]))
        for c, e in zip(*np.nonzero(~degenerate & (p_value <= config.alpha)))
    )
    return CausalityGraph(nodes=nodes, edges=edges)


def rank_root_causes(
    graph: CausalityGraph,
    centrality: dict[KpiId, float],
    anomalies: list[KpiAnomaly],
) -> list[RankedCause]:
    """Order candidate root causes.

    KPIs touching at least one edge come first, by descending centrality,
    then descending anomaly score, then KPI name.  Isolated KPIs follow,
    by descending score then name.
    """
    score = {a.kpi: a.score for a in anomalies}
    connected_set = {e.cause for e in graph.edges} | {e.effect for e in graph.edges}
    connected = [k for k in graph.nodes if k in connected_set]
    isolated = [k for k in graph.nodes if k not in connected_set]
    connected.sort(key=lambda k: (-centrality[k], -score[k], str(k)))
    isolated.sort(key=lambda k: (-score[k], str(k)))
    return [
        RankedCause(kpi=k, centrality=centrality[k], score=score[k])
        for k in connected + isolated
    ]


def attribute_components(ranked: list[RankedCause]) -> list[ComponentAttribution]:
    """Top 3 components by number of hosted central KPIs.

    A KPI is central when its centrality is at least the mean centrality of
    all ranked KPIs.  Ties break on summed centrality, then component name.
    """
    if not ranked:
        return []
    mean_centrality = sum(r.centrality for r in ranked) / len(ranked)
    central = [r for r in ranked if r.centrality >= mean_centrality]
    counts: dict[str, int] = {}
    weight: dict[str, float] = {}
    for r in central:
        counts[r.kpi.node] = counts.get(r.kpi.node, 0) + 1
        weight[r.kpi.node] = weight.get(r.kpi.node, 0.0) + r.centrality
    ordered = sorted(counts, key=lambda node: (-counts[node], -weight[node], node))
    return [ComponentAttribution(node=node, central_kpi_count=counts[node]) for node in ordered[:3]]


class RollingHistory:
    """Fixed-capacity ring buffer of raw KPI rows (single writer)."""

    def __init__(self, n_kpis: int, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._buffer = np.zeros((capacity, n_kpis))
        self._capacity = capacity
        self._count = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._count

    def push(self, row: np.ndarray) -> None:
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (self._buffer.shape[1],):
            raise ValueError(f"row must have shape ({self._buffer.shape[1]},)")
        self._buffer[self._cursor] = row
        self._cursor = (self._cursor + 1) % self._capacity
        self._count = min(self._count + 1, self._capacity)

    def window(self, length: int) -> np.ndarray:
        """Copy of the most recent ``length`` rows, oldest first."""
        if length > self._count:
            raise InsufficientHistory(f"need {length} samples, have {self._count}")
        return self._buffer.take(range(self._cursor - length, self._cursor), axis=0, mode="wrap")


def analyze(
    classifier: TrainedClassifier,
    state: np.ndarray,
    history: np.ndarray | RollingHistory,
    timestamp: int,
    *,
    classifier_config: ClassifierConfig = ClassifierConfig(),
    granger_config: GrangerConfig = GrangerConfig(),
    pagerank_config: PageRankConfig = PageRankConfig(),
    descriptors: dict[KpiId, KpiDescriptor] | None = None,
) -> AnomalyReport:
    """Classify one raw state and localize root causes if it is anomalous.

    ``state`` and ``history`` are raw engineering values; normalization with
    the classifier's training statistics happens here.  ``history`` holds the
    most recent rows (including the current state) and must cover the Granger
    window; only its last ``granger_config.window`` rows are read.  For a
    normal verdict every downstream field stays empty.  A non-finite value in
    the state, or in the window of an anomalous state, raises
    :class:`DataError`, as does a finite one that overflows when normalized.

    A too-short history raises :class:`InsufficientHistory` before the state
    is scored, but the window is read (and copied out of a
    :class:`RollingHistory`) only when there are anomalous KPIs to localize.
    """
    if isinstance(history, RollingHistory):
        rows = len(history)
    else:
        history = np.asarray(history, dtype=np.float64)
        rows = len(history) if history.ndim == 2 else 0
    if rows < granger_config.window:
        raise InsufficientHistory(f"analysis needs {granger_config.window} history rows, have {rows}")

    state_errors, residuals = score(classifier, state)
    error = float(state_errors)
    limit = threshold(classifier.baseline, classifier_config.sigma)
    verdict = StateVerdict(
        timestamp=int(timestamp), state_error=error, threshold=limit, anomalous=error > limit
    )
    if not verdict.anomalous:
        return AnomalyReport(verdict=verdict)

    anomalies = detect_anomalous_kpis(
        classifier.kpis,
        residuals,
        classifier.baseline.kpi_mu,
        classifier.baseline.kpi_std,
        classifier_config.effective_sigma_kpi,
    )
    descriptions = {
        a.kpi: descriptors[a.kpi].description
        for a in anomalies
        if descriptors is not None and a.kpi in descriptors
    }
    if not anomalies:
        return AnomalyReport(verdict=verdict, descriptions=descriptions)

    if isinstance(history, RollingHistory):
        history = history.window(granger_config.window)
    normalized_history = classifier.normalization.transform(history[-granger_config.window :])
    if not np.isfinite(normalized_history).all():
        raise DataError("history window must hold KPI values that stay finite when normalized")
    graph = build_causality_graph(normalized_history, classifier.kpis, anomalies, granger_config)
    centrality = pagerank(graph.nodes, [(e.cause, e.effect) for e in graph.edges], pagerank_config)
    ranked = rank_root_causes(graph, centrality, anomalies)
    components = attribute_components(ranked)
    return AnomalyReport(
        verdict=verdict,
        anomalous_kpis=tuple(anomalies),
        graph=graph,
        centrality=centrality,
        root_cause_kpis=tuple(ranked),
        top_components=tuple(components),
        descriptions=descriptions,
    )


def analyze_series(
    classifier: TrainedClassifier,
    values: np.ndarray,
    timestamps: np.ndarray,
    analysis_rows: list[int],
    **kwargs,
) -> list[AnomalyReport]:
    """Run :func:`analyze` at selected row indices of a raw series."""
    reports = []
    for row in analysis_rows:
        reports.append(
            analyze(
                classifier,
                values[row],
                values[: row + 1],
                int(timestamps[row]),
                **kwargs,
            )
        )
    return reports


def report_to_json(report: AnomalyReport) -> str:
    """Serialize a report to JSON (KPIs rendered as ``metric@node``)."""
    return json.dumps(to_json(report), indent=2, sort_keys=True)


def load_report(path: str | os.PathLike[str]) -> AnomalyReport:
    """Inverse of :func:`report_to_json`, read from a file."""
    return load_json(lambda payload: from_json(payload, AnomalyReport, "report"), "report", path=path)
