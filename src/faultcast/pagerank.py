"""PageRank power iteration for small directed graphs.

Root-cause ranking walks the causality graph against the arrows: an edge
cause -> effect is followed effect -> cause, so rank accumulates on causes.
That reversal is the default and can be disabled for comparison.

The transition matrix is column-stochastic; nodes without outgoing edges
(dangling) spread their rank uniformly.  Iteration stops when the L1 change
drops below the tolerance or after ``max_iters`` sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import NoNodes

Node = TypeVar("Node", bound=Hashable)


@dataclass(frozen=True)
class PageRankConfig:
    damping: float = 0.85
    tolerance: float = 1e-9
    max_iters: int = 1000
    reverse_edges: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.damping < 1:
            raise ValueError("damping must lie in (0, 1)")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


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
    for _ in range(config.max_iters):
        dangling_mass = rank[dangling].sum()
        updated = damping * (transition @ rank + dangling_mass / n) + (1.0 - damping) / n
        if np.abs(updated - rank).sum() < config.tolerance:
            rank = updated
            break
        rank = updated
    return {node: float(rank[i]) for node, i in index.items()}
