"""Retrieval-augmented troubleshooting for anomalous KPI sets.

Pipeline: phrase a question from the highest-scoring anomalous KPIs, embed
it, retrieve the most similar knowledge chunks, compose an augmented prompt,
and ask a completion client.  The answer keeps links to every chunk it was
grounded on.  Callers enforce the gate: this module is only reached when the
current state was classified anomalous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from . import endpoints
from .errors import DimensionMismatch, EmptyStore, EndpointError, MissingDescriptor
from .kpi import KpiDescriptor, KpiId
from .knowledge import Embedder, KnowledgeChunk, VectorStore, embed_text
from .ranker import KpiAnomaly

QUESTION_PREFIX = "What is the cause of anomalous values regarding "
CONTEXT_HEADER = "Use the following context to answer."
# A query with fewer nonzero entries than this share of the dimension is
# scored on the store's columns at those entries alone.  On 2426 x 512
# (2 cores, 1 BLAS thread) the gather and the full product broke even near
# 160 nonzero entries; an offline query has about 14.
_SPARSE_SHARE = 0.25


@dataclass(frozen=True)
class PromptSpec:
    """How many KPI descriptions go into the question."""

    kpi_count: int = 3

    def __post_init__(self) -> None:
        if not 2 <= self.kpi_count <= 4:
            raise ValueError("kpi_count must lie in [2, 4]")


@dataclass(frozen=True)
class RetrievalConfig:
    top_k: int = 4
    min_similarity: float = 0.0

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not -1.0 <= self.min_similarity <= 1.0:
            raise ValueError("min_similarity must lie in [-1, 1]")


@dataclass(frozen=True)
class TroubleshootingAnswer:
    prompt: str
    retrieved: tuple[tuple[str, float], ...]
    augmented_prompt: str
    answer_text: str
    sources: tuple[tuple[str, str | None, str], ...]


def build_prompt(
    anomalies: Sequence[KpiAnomaly],
    descriptors: dict[KpiId, KpiDescriptor],
    spec: PromptSpec = PromptSpec(),
) -> str:
    """Phrase the troubleshooting question from the top-scoring KPIs.

    Selects up to ``spec.kpi_count`` anomalies by descending score (name as
    tiebreak), deduplicates identical descriptions preserving order, and
    joins them with ``", "`` after the fixed question prefix.
    """
    if not anomalies:
        raise ValueError("anomalies must be non-empty")
    selected = sorted(anomalies, key=lambda a: (-a.score, str(a.kpi)))[: spec.kpi_count]
    descriptions: list[str] = []
    for anomaly in selected:
        descriptor = descriptors.get(anomaly.kpi)
        if descriptor is None:
            raise MissingDescriptor(f"no description for KPI {anomaly.kpi}")
        if descriptor.description not in descriptions:
            descriptions.append(descriptor.description)
    return QUESTION_PREFIX + ", ".join(descriptions)


def retrieve(
    store: VectorStore,
    query_embedding: np.ndarray,
    config: RetrievalConfig = RetrievalConfig(),
) -> list[tuple[KnowledgeChunk, float]]:
    """Most similar chunks, descending; ties broken by ascending chunk_id.

    Scores every chunk against the query.  A sparse query (an offline
    embedding sets a few buckets of many) reads only the store's columns
    at its nonzero entries, one contiguous gather from the column-major
    matrix; a denser query takes the full matrix-vector product.  A tie
    means equal computed similarity: chunks at the same true angle to the
    query rank by chunk_id when their scores round alike, which a sum of a
    few nonzero terms does more often than a sum over every entry, and
    otherwise by the last bits of their rounding.

    A finite row and query whose product or norms overflow (values near
    1e308) are scaled by their largest magnitudes and scored again, as
    ``knowledge._row_norms`` scales a row, so no such chunk is dropped.
    """
    if len(store) == 0:
        raise EmptyStore("cannot retrieve from an empty store")
    query_embedding = np.asarray(query_embedding, dtype=np.float64)
    if len(query_embedding) != store.dimension:
        raise DimensionMismatch(
            f"query has {len(query_embedding)} dimensions, store expects {store.dimension}"
        )
    nonzero = np.flatnonzero(query_embedding)
    with np.errstate(over="ignore", invalid="ignore"):
        if len(nonzero) < _SPARSE_SHARE * store.dimension:
            products = store.matrix[:, nonzero] @ query_embedding[nonzero]
        else:
            products = store.matrix @ query_embedding
        denominators = store.norms * np.linalg.norm(query_embedding)
        similarities = np.divide(
            products,
            denominators,
            out=np.zeros(len(denominators)),
            where=denominators != 0.0,
        )
        # Any overflow leaves an inf or NaN in a similarity or a denominator,
        # and so in this one dot product, far cheaper than the mask below.
        if not math.isfinite(similarities @ denominators):
            overflowed = ~np.isfinite(products) | ~np.isfinite(denominators)
            # A zero row scores 0, though its norm times an overflowed query norm is NaN.
            similarities[overflowed] = 0.0
            query = query_embedding / np.abs(query_embedding).max()
            for i in np.flatnonzero(overflowed & (store.norms != 0.0)):
                row = store.matrix[i] / np.abs(store.matrix[i]).max()
                similarities[i] = (row @ query) / (np.linalg.norm(row) * np.linalg.norm(query))
    hits = np.flatnonzero(similarities >= config.min_similarity)
    if len(hits) > config.top_k:
        # Keep every hit tied with the k-th best: chunk_id decides among them.
        kth = np.partition(similarities[hits], -config.top_k)[-config.top_k]
        hits = hits[similarities[hits] >= kth]
    ranked = sorted(hits, key=lambda i: (-similarities[i], store.chunks[i].chunk_id))
    return [(store.chunks[i], float(similarities[i])) for i in ranked[: config.top_k]]


def compose_augmented_prompt(
    prompt: str, retrieved: Sequence[tuple[KnowledgeChunk, float]]
) -> str:
    """Deterministic byte-exact prompt layout.

    Header line, blank line, one ``[source: id]`` block per chunk (text
    followed by a blank line), then ``Question: <prompt>``.
    """
    parts = [CONTEXT_HEADER, "\n\n"]
    for chunk, _ in retrieved:
        parts.append(f"[source: {chunk.chunk_id}]\n{chunk.text}\n\n")
    parts.append(f"Question: {prompt}")
    return "".join(parts)


class CompletionClient(Protocol):
    def complete(self, augmented_prompt: str) -> str: ...


class EchoClient:
    """Offline test double: answers with the context portion of the prompt."""

    def complete(self, augmented_prompt: str) -> str:
        body = augmented_prompt
        header = CONTEXT_HEADER + "\n\n"
        if body.startswith(header):
            body = body[len(header) :]
        question_at = body.rfind("Question: ")
        return body[:question_at] if question_at >= 0 else body


class HttpCompletionClient:
    """Completion endpoint client: POST {base_url}/complete."""

    def __init__(self, endpoint: endpoints.EndpointsConfig):
        self.endpoint = endpoint

    def complete(self, augmented_prompt: str) -> str:
        body = endpoints.post_json(
            self.endpoint,
            "complete",
            {"model": self.endpoint.completion_model, "prompt": augmented_prompt},
        )
        response = body.get("response")
        if not isinstance(response, str):
            raise EndpointError("completion response needs a string 'response' field")
        return response


def troubleshoot(
    anomalies: Sequence[KpiAnomaly],
    descriptors: dict[KpiId, KpiDescriptor],
    store: VectorStore,
    spec: PromptSpec = PromptSpec(),
    config: RetrievalConfig = RetrievalConfig(),
    llm: CompletionClient | None = None,
    embedder: Embedder | None = None,
) -> TroubleshootingAnswer:
    """Full question -> retrieve -> augment -> answer pipeline.

    With no explicit ``embedder`` the store must have been built with the
    offline embedder; with no ``llm`` the offline echo client is used.
    """
    if embedder is None:
        embedder = store.embedder()
    if llm is None:
        llm = EchoClient()
    prompt = build_prompt(anomalies, descriptors, spec)
    query = embed_text(prompt, embedder)
    retrieved = retrieve(store, query, config)
    augmented = compose_augmented_prompt(prompt, retrieved)
    answer = llm.complete(augmented)
    return TroubleshootingAnswer(
        prompt=prompt,
        retrieved=tuple((chunk.chunk_id, similarity) for chunk, similarity in retrieved),
        augmented_prompt=augmented,
        answer_text=answer,
        sources=tuple((chunk.doc_id, chunk.section, chunk.chunk_id) for chunk, _ in retrieved),
    )
