from __future__ import annotations

import json

import numpy as np
import pytest

from faultcast.classifier import ClassifierConfig, ErrorBaseline, score
from faultcast.errors import DataError, InsufficientHistory, SchemaError
from faultcast.granger import GrangerConfig, granger_test
from faultcast.kpi import KpiDescriptor, parse_kpi_id
from faultcast.ranker import (
    CausalEdge,
    CausalityGraph,
    KpiAnomaly,
    RankedCause,
    RollingHistory,
    analyze,
    analyze_series,
    attribute_components,
    build_causality_graph,
    detect_anomalous_kpis,
    load_report,
    rank_root_causes,
    report_to_json,
)
from helpers import linear_model, load_text, make_classifier, unit_baseline, zero_model

DRIVE = parse_kpi_id("drive@alpha")
FOLLOW = parse_kpi_id("follow@beta")


def _coupled_history(length: int = 60, seed: int = 8) -> np.ndarray:
    """Two columns where the first drives the second at lag one."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, length)
    noise = rng.normal(0.0, 1.0, length)
    y = np.zeros(length)
    for t in range(1, length):
        y[t] = 1.2 * x[t - 1] + 0.05 * noise[t]
    history = np.column_stack([x, y])
    history[-1] = [3.0, 2.5]
    return history


def _anomalous_classifier():
    """Zero model over (drive, follow) wired to always report an anomaly.

    The state baseline sits below any possible error and the per-KPI limits
    sit below any possible residual, so every call takes the full path.
    """
    baseline = ErrorBaseline(
        state_mu=-1.0, state_std=0.0, kpi_mu=-np.ones(2), kpi_std=np.zeros(2)
    )
    return make_classifier(zero_model(2), baseline, [DRIVE, FOLLOW])


def test_kpi_residuals_zero_model():
    kpis = [parse_kpi_id(f"k{i}@n") for i in range(3)]
    baseline = ErrorBaseline(state_mu=0.0, state_std=1.0, kpi_mu=np.zeros(3), kpi_std=np.ones(3))
    classifier = make_classifier(zero_model(3), baseline, kpis)
    _, residuals = score(classifier, np.array([1.0, -2.0, 0.5]))
    np.testing.assert_allclose(residuals, [1.0, 4.0, 0.25])


def test_detect_anomalous_kpis_strictly_above_limit():
    kpis = [parse_kpi_id("a@n"), parse_kpi_id("b@n")]
    found = detect_anomalous_kpis(
        kpis, np.array([0.5, 0.01]), np.array([0.1, 0.1]), np.array([0.1, 0.1]), 3.0
    )
    assert len(found) == 1
    assert found[0].kpi == kpis[0]
    assert found[0].score == pytest.approx(0.5)
    assert found[0].kpi_threshold == pytest.approx(0.4)

    # exactly on the limit does not count
    exact = detect_anomalous_kpis(
        kpis, np.array([4.0, 4.000001]), np.ones(2), np.ones(2), 3.0
    )
    assert [a.kpi for a in exact] == [kpis[1]]


def test_causality_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        CausalityGraph(nodes=(DRIVE,), edges=(CausalEdge(DRIVE, DRIVE, 1.0, 0.01),))
    with pytest.raises(ValueError, match="graph nodes"):
        CausalityGraph(nodes=(DRIVE,), edges=(CausalEdge(DRIVE, FOLLOW, 1.0, 0.01),))


def _ranked_fixture(centrality_values, scores):
    kpis = [parse_kpi_id(f"m{i}@n{i}") for i in range(len(scores))]
    graph = CausalityGraph(
        nodes=tuple(kpis), edges=(CausalEdge(kpis[0], kpis[1], 50.0, 0.001),)
    )
    centrality = dict(zip(kpis, centrality_values))
    anomalies = [
        KpiAnomaly(kpi=k, score=s, kpi_threshold=0.0) for k, s in zip(kpis, scores)
    ]
    return kpis, graph, centrality, anomalies


def test_rank_root_causes_connected_before_isolated():
    kpis, graph, centrality, anomalies = _ranked_fixture(
        [0.4, 0.3, 0.2, 0.1], [5.0, 9.0, 2.0, 7.0]
    )
    ranked = rank_root_causes(graph, centrality, anomalies)
    assert [r.kpi for r in ranked] == [kpis[0], kpis[1], kpis[3], kpis[2]]
    assert ranked[0].centrality == 0.4
    assert ranked[0].score == 5.0


def test_rank_root_causes_tie_breaks():
    # equal centrality among connected nodes falls back to the anomaly score
    kpis, graph, centrality, anomalies = _ranked_fixture(
        [0.35, 0.35, 0.2, 0.1], [5.0, 9.0, 2.0, 7.0]
    )
    ranked = rank_root_causes(graph, centrality, anomalies)
    assert [r.kpi for r in ranked[:2]] == [kpis[1], kpis[0]]

    # equal centrality and score falls back to the name
    kpis, graph, centrality, anomalies = _ranked_fixture(
        [0.35, 0.35, 0.2, 0.1], [5.0, 5.0, 2.0, 7.0]
    )
    ranked = rank_root_causes(graph, centrality, anomalies)
    assert [r.kpi for r in ranked[:2]] == [kpis[0], kpis[1]]


def _cause(metric: str, node: str, centrality: float) -> RankedCause:
    return RankedCause(kpi=parse_kpi_id(f"{metric}@{node}"), centrality=centrality, score=1.0)


def test_attribute_components_counts_central_kpis():
    ranked = [
        _cause("a", "c1", 0.5),
        _cause("b", "c1", 0.3),
        _cause("a", "c2", 0.15),
        _cause("a", "c3", 0.05),
    ]
    # mean centrality 0.25: only the two c1 KPIs qualify
    assert [(c.node, c.central_kpi_count) for c in attribute_components(ranked)] == [("c1", 2)]


def test_attribute_components_ties_and_cap():
    # four equally central components: capped to three, name order decides
    ranked = [_cause("a", node, 0.25) for node in ("d", "b", "c", "a")]
    top = attribute_components(ranked)
    assert [c.node for c in top] == ["a", "b", "c"]

    # equal counts of central KPIs break on summed centrality, not name; c is below the mean 0.3
    ranked = [_cause("a", "a", 0.3), _cause("a", "b", 0.5), _cause("a", "c", 0.1)]
    top = attribute_components(ranked)
    assert [(c.node, c.central_kpi_count) for c in top] == [("b", 1), ("a", 1)]

    assert attribute_components([]) == []


def test_rolling_history_ring_buffer():
    history = RollingHistory(n_kpis=2, capacity=3)
    assert len(history) == 0
    with pytest.raises(InsufficientHistory):
        history.window(1)
    rows = [np.array([float(i), float(-i)]) for i in range(5)]
    for row in rows[:2]:
        history.push(row)
    assert len(history) == 2
    with pytest.raises(InsufficientHistory):
        history.window(3)
    for row in rows[2:]:
        history.push(row)
    assert len(history) == 3
    np.testing.assert_array_equal(history.window(3), np.vstack(rows[2:]))
    np.testing.assert_array_equal(history.window(2), np.vstack(rows[3:]))
    assert history.window(0).shape == (0, 2)

    window = history.window(1)
    window[0, 0] = 999.0
    assert history.window(1)[0, 0] == 4.0

    with pytest.raises(ValueError):
        history.push(np.zeros(3))
    with pytest.raises(ValueError):
        RollingHistory(n_kpis=2, capacity=0)


def test_build_causality_graph_finds_the_planted_edge():
    history = _coupled_history()
    anomalies = [
        KpiAnomaly(kpi=DRIVE, score=9.0, kpi_threshold=0.0),
        KpiAnomaly(kpi=FOLLOW, score=6.25, kpi_threshold=0.0),
    ]
    graph = build_causality_graph(history, [DRIVE, FOLLOW], anomalies)
    assert graph.nodes == (DRIVE, FOLLOW)
    pairs = [(e.cause, e.effect) for e in graph.edges]
    assert (DRIVE, FOLLOW) in pairs
    assert all(e.p_value <= 0.05 for e in graph.edges)

    # only the trailing window rows matter
    config = GrangerConfig()
    padded = np.vstack([np.full((7, 2), 1e6), history])
    same = build_causality_graph(padded, [DRIVE, FOLLOW], anomalies, config)
    trimmed = build_causality_graph(history[-config.window :], [DRIVE, FOLLOW], anomalies, config)
    assert same == trimmed


def test_build_causality_graph_degenerate_pairs_add_no_edges():
    rng = np.random.default_rng(1)
    history = np.column_stack([np.ones(60), rng.normal(size=60)])
    anomalies = [
        KpiAnomaly(kpi=DRIVE, score=1.0, kpi_threshold=0.0),
        KpiAnomaly(kpi=FOLLOW, score=1.0, kpi_threshold=0.0),
    ]
    graph = build_causality_graph(history, [DRIVE, FOLLOW], anomalies)
    assert graph.nodes == (DRIVE, FOLLOW)
    assert graph.edges == ()


@pytest.mark.parametrize("count", [0, 1])
def test_build_causality_graph_with_fewer_than_two_anomalies_has_no_edges(count):
    anomalies = [KpiAnomaly(kpi=DRIVE, score=9.0, kpi_threshold=0.0)][:count]
    graph = build_causality_graph(_coupled_history(), [DRIVE, FOLLOW], anomalies)
    assert graph.nodes == (DRIVE,)[:count]
    assert graph.edges == ()


def test_build_causality_graph_edges_are_the_significant_pairs_cause_major():
    """Edges equal a per-pair loop of ``granger_test``, in anomaly order."""
    rng = np.random.default_rng(4)
    kpis = [parse_kpi_id(f"m{i}@n{i % 3}") for i in range(6)]
    history = rng.normal(size=(50, 6))
    for t in range(1, 50):
        history[t, 1:] += 0.9 * history[t - 1, :-1]
    anomalies = [KpiAnomaly(kpi=kpis[i], score=1.0, kpi_threshold=0.0) for i in (4, 0, 2, 1, 3)]
    graph = build_causality_graph(history, kpis, anomalies)
    recent = history[-GrangerConfig().window :]
    expected = []
    for cause in graph.nodes:
        for effect in graph.nodes:
            result = granger_test(recent[:, kpis.index(cause)], recent[:, kpis.index(effect)])
            if cause != effect and result.significant:
                expected.append(CausalEdge(cause, effect, result.f_stat, result.p_value))
    assert len(expected) >= 4
    assert graph.edges == tuple(expected)


def test_build_causality_graph_validation():
    anomalies = [KpiAnomaly(kpi=DRIVE, score=1.0, kpi_threshold=0.0)]
    with pytest.raises(InsufficientHistory):
        build_causality_graph(np.zeros((10, 2)), [DRIVE, FOLLOW], anomalies)
    with pytest.raises(ValueError):
        build_causality_graph(np.zeros((40, 3)), [DRIVE, FOLLOW], anomalies)
    with pytest.raises(ValueError):
        build_causality_graph(np.zeros(40), [DRIVE, FOLLOW], anomalies)


def test_analyze_normal_state_reports_nothing_downstream():
    baseline = ErrorBaseline(state_mu=1e9, state_std=0.0, kpi_mu=np.zeros(2), kpi_std=np.ones(2))
    classifier = make_classifier(zero_model(2), baseline, [DRIVE, FOLLOW])
    report = analyze(classifier, np.array([3.0, 2.5]), _coupled_history(), 59)
    assert not report.verdict.anomalous
    assert report.anomalous_kpis == ()
    assert report.graph.nodes == ()
    assert report.centrality == {}
    assert report.root_cause_kpis == ()
    assert report.top_components == ()
    assert report.descriptions == {}


def test_analyze_requires_history_even_for_normal_states():
    baseline = ErrorBaseline(state_mu=1e9, state_std=0.0, kpi_mu=np.zeros(2), kpi_std=np.ones(2))
    classifier = make_classifier(zero_model(2), baseline, [DRIVE, FOLLOW])
    with pytest.raises(InsufficientHistory):
        analyze(classifier, np.array([0.0, 0.0]), np.zeros((5, 2)), 4)


def test_analyze_strict_boundary():
    """A state error exactly on the threshold is still normal."""
    def verdict(state_mu: float):
        baseline = ErrorBaseline(
            state_mu=state_mu, state_std=0.0, kpi_mu=np.zeros(2), kpi_std=np.ones(2)
        )
        classifier = make_classifier(zero_model(2), baseline, [DRIVE, FOLLOW])
        config = ClassifierConfig(sigma=4.5)
        state, history = np.array([1.0, 1.0]), np.zeros((40, 2))
        return analyze(classifier, state, history, 7, classifier_config=config).verdict

    on_line = verdict(1.0)
    assert on_line.state_error == pytest.approx(1.0)
    assert on_line.threshold == pytest.approx(1.0)
    assert not on_line.anomalous
    assert on_line.timestamp == 7
    assert verdict(0.5).anomalous


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_analyze_rejects_non_finite_state(bad):
    """Even a normal-threshold classifier must not score NaN as a normal state."""
    baseline = ErrorBaseline(state_mu=1e9, state_std=0.0, kpi_mu=np.zeros(2), kpi_std=np.ones(2))
    classifier = make_classifier(zero_model(2), baseline, [DRIVE, FOLLOW])
    with pytest.raises(DataError):
        analyze(classifier, np.array([bad, 0.0]), _coupled_history(), 59)


def test_analyze_rejects_non_finite_granger_window():
    classifier = _anomalous_classifier()
    history = _coupled_history()
    history[-10, 1] = np.nan
    with pytest.raises(DataError, match="window"):
        analyze(classifier, history[-1], history, 59)
    # rows older than the window are not read
    history = _coupled_history()
    history[0, 0] = np.nan
    assert analyze(classifier, history[-1], history, 59).verdict.anomalous


def _overflowing_classifier():
    """A std of 1e-300 turns finite raw values of 1e10 into inf when normalized."""
    return make_classifier(
        linear_model(np.ones((2, 2)), np.zeros(2)), unit_baseline(2), [DRIVE, FOLLOW], std=[1e-300, 1e-300]
    )


def test_analyze_rejects_a_state_that_overflows_when_normalized():
    """Its error would be NaN, and NaN > threshold would call the state normal."""
    with np.errstate(over="ignore"), pytest.raises(DataError, match="normalized"):
        analyze(_overflowing_classifier(), np.array([1e10, -1e10]), np.zeros((40, 2)), 0)


def test_analyze_rejects_a_window_that_overflows_when_normalized():
    history = np.zeros((40, 2))
    history[-2] = [1e10, -1e10]
    history[-1] = [1e-290, -1e-290]  # normalized to [1e10, -1e10]: finite, and anomalous
    with np.errstate(over="ignore"), pytest.raises(DataError, match="window"):
        analyze(_overflowing_classifier(), history[-1], history, 0)


def test_analyze_full_prefix_equals_last_window():
    baseline = ErrorBaseline(state_mu=-1.0, state_std=0.0, kpi_mu=-np.ones(2), kpi_std=np.zeros(2))
    classifier = make_classifier(
        zero_model(2),
        baseline,
        [DRIVE, FOLLOW],
        mean=np.array([0.3, -1.7]),
        std=np.array([1.3, 0.6]),
    )
    history = _coupled_history(length=200)
    granger = GrangerConfig(window=40)
    full = analyze(classifier, history[-1], history, 199, granger_config=granger)
    last = analyze(classifier, history[-1], history[-40:], 199, granger_config=granger)
    assert full.graph.edges
    assert report_to_json(full) == report_to_json(last)


def test_analyze_anomalous_state_without_anomalous_kpis():
    baseline = ErrorBaseline(
        state_mu=-1.0, state_std=0.0, kpi_mu=np.full(2, 1e9), kpi_std=np.zeros(2)
    )
    classifier = make_classifier(zero_model(2), baseline, [DRIVE, FOLLOW])
    report = analyze(classifier, np.array([3.0, 2.5]), _coupled_history(), 59)
    assert report.verdict.anomalous
    assert report.anomalous_kpis == ()
    assert report.graph.nodes == ()
    assert report.root_cause_kpis == ()


def test_analyze_localizes_the_driving_kpi():
    classifier = _anomalous_classifier()
    history = _coupled_history()
    descriptors = {
        DRIVE: KpiDescriptor(kpi=DRIVE, description="drive level"),
        parse_kpi_id("other@zeta"): KpiDescriptor(
            kpi=parse_kpi_id("other@zeta"), description="unrelated"
        ),
    }
    report = analyze(classifier, history[-1], history, 59, descriptors=descriptors)
    assert report.verdict.anomalous
    assert [a.kpi for a in report.anomalous_kpis] == [DRIVE, FOLLOW]
    assert report.graph.nodes == (DRIVE, FOLLOW)
    assert (DRIVE, FOLLOW) in [(e.cause, e.effect) for e in report.graph.edges]
    assert sum(report.centrality.values()) == pytest.approx(1.0, abs=1e-9)
    assert report.root_cause_kpis[0].kpi == DRIVE
    assert report.top_components[0].node == "alpha"
    assert report.descriptions == {DRIVE: "drive level"}


def test_analyze_accepts_rolling_history():
    classifier = _anomalous_classifier()
    history = _coupled_history()
    ring = RollingHistory(n_kpis=2, capacity=64)
    for row in history:
        ring.push(row)
    from_array = analyze(classifier, history[-1], history, 59)
    from_ring = analyze(classifier, history[-1], ring, 59)
    assert report_to_json(from_array) == report_to_json(from_ring)


def test_analyze_normalizes_raw_state_with_training_stats():
    kpi = parse_kpi_id("a@n")
    classifier = make_classifier(
        zero_model(1),
        ErrorBaseline(state_mu=0.0, state_std=1.0, kpi_mu=np.zeros(1), kpi_std=np.ones(1)),
        [kpi],
        mean=np.array([10.0]),
        std=np.array([2.0]),
    )
    config = ClassifierConfig(sigma=1.0)
    history = np.full((40, 1), 10.0)
    centered = analyze(classifier, np.array([10.0]), history, 0, classifier_config=config)
    assert not centered.verdict.anomalous
    assert centered.verdict.state_error == pytest.approx(0.0)
    shifted = analyze(classifier, np.array([14.0]), history, 1, classifier_config=config)
    assert shifted.verdict.anomalous
    assert shifted.verdict.state_error == pytest.approx(4.0)


def test_analyze_series_matches_analyze():
    classifier = _anomalous_classifier()
    history = _coupled_history()
    timestamps = np.arange(len(history))
    reports = analyze_series(classifier, history, timestamps, [45, 59])
    assert len(reports) == 2
    direct = analyze(classifier, history[45], history[:46], 45)
    assert report_to_json(reports[0]) == report_to_json(direct)
    assert reports[1].verdict.timestamp == 59


def test_report_json_round_trip(tmp_path):
    classifier = _anomalous_classifier()
    history = _coupled_history()
    descriptors = {DRIVE: KpiDescriptor(kpi=DRIVE, description="drive level")}
    report = analyze(classifier, history[-1], history, 59, descriptors=descriptors)
    text = report_to_json(report)
    assert load_text(load_report, text, tmp_path) == report
    assert text.endswith("}")
    # normal reports survive the trip too
    baseline = ErrorBaseline(state_mu=1e9, state_std=0.0, kpi_mu=np.zeros(2), kpi_std=np.ones(2))
    quiet = analyze(
        make_classifier(zero_model(2), baseline, [DRIVE, FOLLOW]),
        history[-1],
        history,
        59,
    )
    assert load_text(load_report, report_to_json(quiet), tmp_path) == quiet


def test_report_from_json_rejects_bad_payloads(tmp_path):
    with pytest.raises(SchemaError):
        load_text(load_report, "{broken", tmp_path)
    with pytest.raises(SchemaError):
        load_text(load_report, "{}", tmp_path)
    with pytest.raises(SchemaError):
        load_text(load_report, "[]", tmp_path)


# case -> (where in a full report, the value put there)
MALFORMED_REPORTS = {
    "numeric anomalous KPI id": (("anomalous_kpis", 0, "id"), 7),
    "numeric graph node": (("graph", "nodes", 0), 7),
    "numeric edge cause": (("graph", "edges", 0, "cause"), 7),
    "object root cause id": (("root_cause_kpis", 0, "id"), {"metric": "drive"}),
    "non-numeric anomaly score": (("anomalous_kpis", 0, "score"), "high"),
    "non-numeric edge F": (("graph", "edges", 0, "f"), "big"),
    "non-numeric centrality": (("centrality", str(DRIVE)), "most"),
    "non-numeric timestamp": (("verdict", "timestamp"), "noon"),
    "fractional timestamp": (("verdict", "timestamp"), 59.5),
    "boolean timestamp": (("verdict", "timestamp"), True),
    "numeric-string anomaly score": (("anomalous_kpis", 0, "score"), "1.5"),
    "boolean state error": (("verdict", "state_error"), False),
    "numeric-string centrality": (("centrality", str(DRIVE)), "0.5"),
    "fractional component count": (("top_components", 0, "central_kpi_count"), 1.5),
    "numeric description": (("descriptions", str(DRIVE)), 5),
    "numeric component node": (("top_components", 0, "node"), 5),
    "unknown verdict key": (("verdict", "comment"), "extra"),
    "unknown top-level key": (("comment",), "extra"),
    "string verdict": (("verdict", "anomalous"), "false"),
    "non-numeric component count": (("top_components", 0, "central_kpi_count"), "two"),
    "self-loop edge": (("graph", "edges", 0, "effect"), str(DRIVE)),
    "anomaly is not an object": (("anomalous_kpis", 0), "drive@alpha"),
    **{
        f"null {'.'.join(keys)}": (keys, None)
        for keys in (
            ("verdict",),
            ("anomalous_kpis",),
            ("graph",),
            ("graph", "nodes"),
            ("graph", "edges"),
            ("centrality",),
            ("root_cause_kpis",),
            ("top_components",),
            ("descriptions",),
        )
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_report_from_json_rejects_malformed_fields(case, tmp_path):
    classifier = _anomalous_classifier()
    history = _coupled_history()
    report = analyze(classifier, history[-1], history, 59)
    payload = json.loads(report_to_json(report))
    assert payload["graph"]["edges"][0]["cause"] == str(DRIVE)
    assert payload["root_cause_kpis"] and payload["top_components"]
    keys, value = MALFORMED_REPORTS[case]
    target = payload
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(SchemaError):
        load_text(load_report, json.dumps(payload), tmp_path)
