from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultcast.errors import NoNodes
from faultcast.pagerank import PageRankConfig, pagerank

from helpers import reference_pagerank


def _eig_reference(nodes, edges, damping=0.85, reverse=True):
    """Stationary distribution from a dense eigendecomposition.

    Builds the full Google matrix (deduplicated edges, optional reversal,
    dangling columns spread uniformly) and extracts the eigenvector for the
    eigenvalue closest to 1, normalized to sum to one.
    """
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    unique = set()
    for source, target in edges:
        if reverse:
            source, target = target, source
        unique.add((index[source], index[target]))
    transition = np.zeros((n, n))
    out_degree = np.zeros(n)
    for s, _ in unique:
        out_degree[s] += 1
    for s, t in unique:
        transition[t, s] = 1.0 / out_degree[s]
    for j in range(n):
        if out_degree[j] == 0:
            transition[:, j] = 1.0 / n
    google = damping * transition + (1.0 - damping) / n
    eigvals, eigvecs = np.linalg.eig(google)
    lead = np.argmin(np.abs(eigvals - 1.0))
    vec = np.real(eigvecs[:, lead])
    vec = vec / vec.sum()
    return {node: vec[i] for node, i in index.items()}


def test_config_validation():
    with pytest.raises(ValueError):
        PageRankConfig(damping=0.0)
    with pytest.raises(ValueError):
        PageRankConfig(damping=1.0)
    with pytest.raises(ValueError):
        PageRankConfig(damping=0.995)
    with pytest.raises(ValueError):
        PageRankConfig(damping=float("nan"))
    assert PageRankConfig(damping=0.99).damping == 0.99


def test_two_node_chain_ranks_the_cause():
    """a -> b walked in reverse has closed-form scores 37/57 and 20/57."""
    scores = pagerank(["a", "b"], [("a", "b")])
    assert scores["a"] == pytest.approx(37 / 57, abs=1e-8)
    assert scores["b"] == pytest.approx(20 / 57, abs=1e-8)
    assert scores["a"] > scores["b"]


def test_two_node_chain_without_reversal_ranks_the_sink():
    config = PageRankConfig(reverse_edges=False)
    scores = pagerank(["a", "b"], [("a", "b")], config)
    assert scores["b"] == pytest.approx(37 / 57, abs=1e-8)
    assert scores["a"] == pytest.approx(20 / 57, abs=1e-8)


def test_single_node_gets_all_the_rank():
    assert pagerank(["solo"], []) == {"solo": 1.0}


def test_cycle_is_uniform():
    scores = pagerank(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert scores["a"] == scores["b"] == scores["c"]
    assert scores["a"] == pytest.approx(1 / 3, abs=1e-12)


def test_matches_dense_eigenvector_on_a_branching_graph():
    nodes = ["a", "b", "c", "d", "e"]
    edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "e")]
    for reverse in (True, False):
        config = PageRankConfig(reverse_edges=reverse)
        scores = pagerank(nodes, edges, config)
        reference = _eig_reference(nodes, edges, reverse=reverse)
        for node in nodes:
            assert scores[node] == pytest.approx(reference[node], abs=1e-8)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)


def test_duplicate_edges_do_not_change_the_result():
    nodes = ["a", "b", "c"]
    once = pagerank(nodes, [("a", "b"), ("a", "c")])
    repeated = pagerank(nodes, [("a", "b"), ("a", "c"), ("a", "b"), ("a", "b")])
    assert once == repeated


def test_input_validation():
    with pytest.raises(NoNodes):
        pagerank([], [])
    with pytest.raises(ValueError, match="duplicate"):
        pagerank(["a", "a"], [])
    with pytest.raises(ValueError, match="unknown node"):
        pagerank(["a", "b"], [("a", "z")])
    with pytest.raises(ValueError, match="self-loop"):
        pagerank(["a", "b"], [("a", "a")])


def test_converges_where_a_1000_sweep_cap_stopped_early():
    """At damping 0.99 this graph needs more than 1000 sweeps to settle within 1e-9."""
    nodes = [0, 1, 2, 3]
    edges = [(2, 3), (3, 0), (3, 1), (3, 2)]
    reference = _eig_reference(nodes, edges, damping=0.99)
    capped = reference_pagerank(nodes, edges, 0.99, reverse_edges=True)
    assert max(abs(capped[node] - reference[node]) for node in nodes) > 1e-6
    scores = pagerank(nodes, edges, PageRankConfig(damping=0.99))
    assert max(abs(scores[node] - reference[node]) for node in nodes) <= 1e-9


@st.composite
def _graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    nodes = list(range(n))
    pairs = [(i, j) for i in nodes for j in nodes if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12))
    return nodes, edges


@given(_graphs())
def test_scores_are_a_probability_distribution(graph):
    nodes, edges = graph
    scores = pagerank(nodes, edges)
    assert set(scores) == set(nodes)
    assert all(value > 0 for value in scores.values())
    assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
    assert pagerank(nodes, edges) == scores


@given(_graphs(), st.randoms(use_true_random=False))
def test_relabeling_nodes_permutes_the_scores(graph, rand):
    nodes, edges = graph
    labels = [f"node-{i}" for i in nodes]
    rand.shuffle(labels)
    mapping = dict(zip(nodes, labels))
    order = list(nodes)
    rand.shuffle(order)
    relabeled_nodes = [mapping[n] for n in order]
    relabeled_edges = [(mapping[a], mapping[b]) for a, b in edges]
    base = pagerank(nodes, edges)
    shuffled = pagerank(relabeled_nodes, relabeled_edges)
    for node in nodes:
        assert shuffled[mapping[node]] == pytest.approx(base[node], abs=1e-9)


@settings(max_examples=200)
@given(
    _graphs(),
    st.floats(min_value=0.0, max_value=0.95, exclude_min=True),
    st.booleans(),
)
def test_equals_the_reference_loop_bit_for_bit(graph, damping, reverse):
    """Up to damping 0.95 the sweep bound (419) is below the reference's 1000-sweep cap."""
    nodes, edges = graph
    expected = reference_pagerank(nodes, edges, damping, reverse_edges=reverse)
    assert pagerank(nodes, edges, PageRankConfig(damping=damping, reverse_edges=reverse)) == expected
