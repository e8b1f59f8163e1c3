"""PageRank power iteration for small directed graphs.

Root-cause ranking walks the causality graph against the arrows: an edge
cause -> effect is followed effect -> cause, so rank accumulates on causes.
That reversal is the default and can be disabled for comparison.

The transition matrix is column-stochastic; nodes without outgoing edges
(dangling) spread their rank uniformly.  Iteration stops when the L1 change
between sweeps drops below 1e-9.  That change is at most 2 and each sweep
multiplies it by at most the damping ``d`` (Langville & Meyer, "Deeper Inside
PageRank", 2004), so the loop ends within ``ceil(log(5e-10) / log(d)) + 1``
sweeps: 2,132 at 0.99, the largest damping allowed.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Sequence, TypeVar

import numpy as np

from .config import PageRankConfig
from .errors import NoNodes

Node = TypeVar("Node", bound=Hashable)

_TOLERANCE = 1e-9


def pagerank(
    nodes: Sequence[Node],
    edges: Iterable[tuple[Node, Node]],
    config: PageRankConfig = PageRankConfig(),
) -> dict[Node, float]:
    """Rank per node; values are positive and sum to 1."""
    if len(nodes) == 0:
        raise NoNodes("pagerank needs at least one node")
    index = {node: i for i, node in enumerate(nodes)}
    if len(index) != len(nodes):
        raise ValueError("duplicate nodes")
    n = len(nodes)

    unique_edges = set()
    for source, target in edges:
        if source not in index or target not in index:
            raise ValueError(f"edge ({source}, {target}) references an unknown node")
        if source == target:
            raise ValueError(f"self-loop on {source}")
        if config.reverse_edges:
            source, target = target, source
        unique_edges.add((index[source], index[target]))

    out_degree = np.zeros(n)
    for source, _ in unique_edges:
        out_degree[source] += 1
    transition = np.zeros((n, n))
    for source, target in unique_edges:
        transition[target, source] = 1.0 / out_degree[source]
    dangling = out_degree == 0

    damping = config.damping
    rank = np.full(n, 1.0 / n)
    for _ in range(math.ceil(math.log(_TOLERANCE / 2) / math.log(damping)) + 1):
        dangling_mass = rank[dangling].sum()
        updated = damping * (transition @ rank + dangling_mass / n) + (1.0 - damping) / n
        if np.abs(updated - rank).sum() < _TOLERANCE:
            rank = updated
            break
        rank = updated
    return {node: float(rank[i]) for node, i in index.items()}
