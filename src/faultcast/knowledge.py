"""Troubleshooting knowledge base: chunking, embedding, vector store.

Documents are cut into overlapping character windows aligned to whitespace so
no word is split.  Each chunk is embedded either by the deterministic offline
embedder (hashed bag of words, no network) or by a remote embedding endpoint.
The store keeps every chunk with its vector in a single JSON file.

In memory the store holds all embeddings in one read-only
``(n_embedded, dimension)`` float64 matrix beside the norm of each row.  Each
chunk's ``embedding`` is a view of its row, so no vector is stored twice;
chunks without an embedding have no row.  Only ``add_document`` and ``load``
change the matrix, and retrieval is one matrix-vector product.

The offline embedder hashes each lowercase alphanumeric token with FNV-1a
(64 bit), buckets the hash modulo the dimension, counts, and L2-normalizes.
It needs no model download, is stable across runs and machines, and two
texts sharing no token are orthogonal unless buckets collide.  Manuals reuse
a small vocabulary, so the hash of each token (not its bucket, which depends
on the dimension) is kept in a bounded process-wide LRU cache.

``VectorStore.save`` writes the file itself, one chunk at a time, because
``json.dump`` with an indent runs pure Python for every embedding float.  The
bytes are exactly those of ``json.dump(payload, indent=1, sort_keys=True)``
followed by a newline; floats are written with ``float.__repr__`` as
``json`` does, and ``add_document`` refuses non-finite embeddings, which
``json`` would write as the non-standard ``NaN``/``Infinity``.
"""

from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import numpy as np

from . import endpoints
from .errors import DimensionMismatch, EmptyDocument, EndpointError, IoError, SchemaError

DEFAULT_DIMENSION = 512
DEFAULT_MAX_CHARS = 1000
DEFAULT_OVERLAP_CHARS = 200

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_TOKEN_RE = re.compile(r"[a-z0-9]+")
_HEADING_RE = re.compile(r"^(#{1,6})[ \t]+(.+?)\s*$", re.MULTILINE)


@dataclass(eq=False)
class KnowledgeChunk:
    """One retrievable span of a document."""

    chunk_id: str
    doc_id: str
    text: str
    char_start: int
    char_end: int
    section: str | None = None
    embedding: np.ndarray | None = None


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


@functools.lru_cache(maxsize=1 << 16)
def _token_hash(token: str) -> int:
    """FNV-1a hash of a token's UTF-8 bytes, cached across embedders."""
    return fnv1a_64(token.encode("utf-8"))


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric runs; everything else separates tokens."""
    return _TOKEN_RE.findall(text.lower())


class Embedder(Protocol):
    dimension: int

    def embed(self, text: str) -> np.ndarray: ...


class OfflineEmbedder:
    """Hashed bag-of-words embedding, deterministic and network-free."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed empty text")
        buckets = [_token_hash(token) % self.dimension for token in tokenize(text)]
        counts = np.bincount(np.array(buckets, dtype=np.intp), minlength=self.dimension)
        vector = counts.astype(np.float64)
        norm = np.linalg.norm(vector)
        return vector / norm if norm > 0 else vector


class RemoteEmbedder:
    """Embedding endpoint client: POST {base_url}/embed, one input per call."""

    def __init__(
        self,
        base_url: str,
        model: str,
        dimension: int | None = None,
        timeout: float = endpoints.DEFAULT_TIMEOUT,
        retries: int = endpoints.DEFAULT_RETRIES,
        backoff: float = endpoints.DEFAULT_BACKOFF,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.dimension = dimension if dimension is not None else 0
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed empty text")
        body = endpoints.post_json(
            f"{self.base_url}/embed",
            {"model": self.model, "input": [text]},
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
        )
        try:
            vector = np.asarray(body["embeddings"][0], dtype=np.float64)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise EndpointError(f"malformed embedding response: {exc}") from exc
        if self.dimension == 0:
            self.dimension = len(vector)
        if len(vector) != self.dimension:
            raise DimensionMismatch(
                f"endpoint returned {len(vector)} dimensions, expected {self.dimension}"
            )
        return vector


def embed_text(text: str, embedder: Embedder) -> np.ndarray:
    """Embed one text with whichever embedder is configured."""
    return embedder.embed(text)


def _snap_back(text: str, position: int, low: int) -> int:
    """Largest boundary in (low, position] sitting right after whitespace.

    Falls back to ``position`` (a hard cut) when the window has none.
    """
    for candidate in range(position, low, -1):
        if text[candidate - 1].isspace():
            return candidate
    return position


def chunk_document(
    doc_id: str,
    text: str,
    max_chars: int = DEFAULT_MAX_CHARS,
    overlap_chars: int = DEFAULT_OVERLAP_CHARS,
) -> list[KnowledgeChunk]:
    """Cut a document into overlapping windows of at most ``max_chars``.

    Window starts advance by ``max_chars - overlap_chars``; both cut
    positions are snapped backward to whitespace when the window contains
    any, so words are never split.  Dropping each chunk's overlap-covered
    prefix and concatenating reproduces the document exactly
    (:func:`reconstruct_document`).
    """
    if not text:
        raise EmptyDocument(f"document {doc_id!r} is empty")
    if max_chars < 1:
        raise ValueError("max_chars must be >= 1")
    if not 0 <= overlap_chars < max_chars:
        raise ValueError("overlap_chars must satisfy 0 <= overlap < max_chars")

    stride = max_chars - overlap_chars
    length = len(text)
    chunks: list[KnowledgeChunk] = []
    start = 0
    while True:
        if start + max_chars >= length:
            end = length
        else:
            end = _snap_back(text, start + max_chars, start)
        chunks.append(
            KnowledgeChunk(
                chunk_id=f"{doc_id}#{len(chunks):04d}",
                doc_id=doc_id,
                text=text[start:end],
                char_start=start,
                char_end=end,
            )
        )
        if start + stride >= length:
            break
        start = _snap_back(text, start + stride, start)
    return chunks


def reconstruct_document(chunks: Sequence[KnowledgeChunk]) -> str:
    """Invert :func:`chunk_document` by dropping overlap-covered prefixes."""
    parts: list[str] = []
    previous_end = 0
    for chunk in chunks:
        parts.append(chunk.text[previous_end - chunk.char_start :])
        previous_end = chunk.char_end
    return "".join(parts)


def sections_for_chunks(text: str, chunks: Iterable[KnowledgeChunk]) -> None:
    """Assign each chunk the nearest markdown heading at or before its start."""
    headings = [(m.start(), m.group(2)) for m in _HEADING_RE.finditer(text)]
    for chunk in chunks:
        section = None
        for offset, title in headings:
            if offset <= chunk.char_start:
                section = title
            else:
                break
        chunk.section = section


class VectorStore:
    """All chunks of all ingested documents plus a document manifest.

    ``matrix`` row ``i`` is the embedding of ``rows[i]`` and ``norms[i]`` its
    Euclidean norm.  ``rows`` lists the embedded chunks; chunks that share an
    id keep their relative order from ``chunks``, which retrieval's tie-break
    on chunk_id relies on.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION, embedder_name: str = "offline"):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.embedder_name = embedder_name
        self.chunks: list[KnowledgeChunk] = []
        self.manifest: dict[str, dict[str, str]] = {}
        self._set_rows([], np.empty((0, dimension)), np.empty(0))

    def __len__(self) -> int:
        return len(self.chunks)

    def _set_rows(self, rows: list[KnowledgeChunk], buffer: np.ndarray, norms: np.ndarray) -> None:
        """Make the first ``len(rows)`` rows of ``buffer`` the embeddings of ``rows``."""
        self._buffer = buffer
        self.matrix = buffer[: len(rows)]
        self.matrix.flags.writeable = False
        for chunk, vector in zip(rows, self.matrix):
            chunk.embedding = vector
        self.rows = rows
        self.norms = norms

    def add_document(
        self, doc_id: str, title: str, source: str, chunks: Sequence[KnowledgeChunk]
    ) -> None:
        """Register a document, replacing any previous version of it."""
        for chunk in chunks:
            if chunk.embedding is None:
                raise ValueError(f"chunk {chunk.chunk_id} has no embedding")
            if len(chunk.embedding) != self.dimension:
                raise DimensionMismatch(
                    f"chunk {chunk.chunk_id}: embedding has {len(chunk.embedding)} "
                    f"dimensions, store expects {self.dimension}"
                )
        vectors = np.array([c.embedding for c in chunks], dtype=np.float64).reshape(
            len(chunks), self.dimension
        )
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            bad = chunks[int(np.argmin(finite))].chunk_id
            raise SchemaError(f"chunk {bad}: embedding values are not finite")
        keep = [i for i, c in enumerate(self.rows) if c.doc_id != doc_id]
        rows = [self.rows[i] for i in keep] + list(chunks)
        buffer = self._buffer
        if len(keep) < len(self.rows) or len(rows) > len(buffer):
            # Rows to drop or no room left: copy the kept rows to a buffer with
            # room for as many again, so that appending costs amortised O(rows).
            buffer = np.empty((2 * len(rows), self.dimension))
            buffer[: len(keep)] = self.matrix[keep]
        buffer[len(keep) : len(rows)] = vectors
        self._set_rows(rows, buffer, np.concatenate((self.norms[keep], _row_norms(vectors))))
        self.chunks = [c for c in self.chunks if c.doc_id != doc_id] + list(chunks)
        self.chunks.sort(key=lambda c: c.chunk_id)
        self.manifest[doc_id] = {"title": title, "source": source}

    def save(self, path: str | os.PathLike[str]) -> None:
        """Write the store as ``json.dump(payload, indent=1, sort_keys=True)`` would.

        Chunks are written one at a time, so the file is never held in memory.
        """
        tail = {
            "dimension": self.dimension,
            "embedder": self.embedder_name,
            "manifest": self.manifest,
            "version": 1,
        }
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write('{\n "chunks": [')
                separator = "\n"
                for chunk in self.chunks:
                    handle.write(separator + _chunk_json(chunk))
                    separator = ",\n"
                handle.write("\n ],\n" if self.chunks else "],\n")
                # The tail's keys sort after "chunks" and sit at the same depth.
                handle.write(json.dumps(tail, indent=1, sort_keys=True)[2:] + "\n")
        except OSError as exc:
            raise IoError(f"cannot write store: {path}") from exc

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> VectorStore:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise IoError(f"cannot read store: {path}") from exc
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON") from exc
        if not isinstance(payload, dict):
            raise SchemaError(f"{path}: not a store object")
        if payload.get("version") != 1:
            raise SchemaError(f"{path}: unsupported store version {payload.get('version')!r}")
        try:
            store = cls(dimension=int(payload["dimension"]), embedder_name=payload["embedder"])
            store.manifest = dict(payload["manifest"])
            entries = payload["chunks"]
            store.chunks = [
                KnowledgeChunk(
                    chunk_id=entry["chunk_id"],
                    doc_id=entry["doc_id"],
                    section=entry["section"],
                    text=entry["text"],
                    char_start=int(entry["char_start"]),
                    char_end=int(entry["char_end"]),
                )
                for entry in entries
            ]
            vectors = [entry["embedding"] for entry in entries]
        except KeyError as exc:
            raise SchemaError(f"{path}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: malformed store: {exc}") from exc
        rows = [chunk for chunk, vector in zip(store.chunks, vectors) if vector is not None]
        matrix = _embedding_matrix(
            [vector for vector in vectors if vector is not None], store.dimension, path
        )
        store._set_rows(rows, matrix, _row_norms(matrix))
        return store


def _chunk_json(chunk: KnowledgeChunk) -> str:
    """One chunk as ``json.dumps(..., indent=1, sort_keys=True)`` prints it in a store."""
    if chunk.embedding is None:
        embedding = "null"
    else:
        values = ",\n    ".join(map(float.__repr__, chunk.embedding.tolist()))
        embedding = f"[\n    {values}\n   ]"
    return (
        "  {\n"
        f'   "char_end": {json.dumps(chunk.char_end)},\n'
        f'   "char_start": {json.dumps(chunk.char_start)},\n'
        f'   "chunk_id": {json.dumps(chunk.chunk_id)},\n'
        f'   "doc_id": {json.dumps(chunk.doc_id)},\n'
        f'   "embedding": {embedding},\n'
        f'   "section": {json.dumps(chunk.section)},\n'
        f'   "text": {json.dumps(chunk.text)}\n'
        "  }"
    )


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, computed row by row.

    ``np.linalg.norm(matrix, axis=1)`` sums in another order, and its last
    bits can reorder near-tied similarities.
    """
    return np.array([np.linalg.norm(row) for row in matrix], dtype=np.float64)


def _embedding_matrix(vectors: list, dimension: int, path: str | os.PathLike[str]) -> np.ndarray:
    """Stack parsed embedding lists into a finite ``(len, dimension)`` matrix."""
    for vector in vectors:
        if not isinstance(vector, list):
            raise SchemaError(f"{path}: embedding is not a list")
        if len(vector) != dimension:
            raise DimensionMismatch(
                f"{path}: embedding has {len(vector)} dimensions, store expects {dimension}"
            )
    if not vectors:
        return np.empty((0, dimension))
    try:
        matrix = np.array(vectors)
    except ValueError as exc:
        raise SchemaError(f"{path}: embedding values are not numbers") from exc
    if matrix.dtype.kind not in "iuf" or matrix.shape != (len(vectors), dimension):
        raise SchemaError(f"{path}: embedding values are not numbers")
    if not np.isfinite(matrix).all():
        raise SchemaError(f"{path}: embedding values are not finite")
    return matrix.astype(np.float64, copy=False)


def document_title(text: str, fallback: str) -> str:
    """First markdown heading, or the fallback name."""
    match = _HEADING_RE.search(text)
    return match.group(2) if match else fallback


def ingest_files(
    store: VectorStore,
    paths: Sequence[str | os.PathLike[str]],
    embedder: Embedder,
    max_chars: int = DEFAULT_MAX_CHARS,
    overlap_chars: int = DEFAULT_OVERLAP_CHARS,
) -> int:
    """Chunk, embed, and register documents; returns the new chunk count.

    Markdown files get per-chunk section labels from their headings; plain
    text files get none.  Re-ingesting a document replaces its chunks, so
    ingestion is idempotent for unchanged files.
    """
    added = 0
    for raw_path in paths:
        path = Path(raw_path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot read document: {path}") from exc
        doc_id = path.stem
        chunks = chunk_document(doc_id, text, max_chars=max_chars, overlap_chars=overlap_chars)
        if path.suffix.lower() in (".md", ".markdown"):
            sections_for_chunks(text, chunks)
        for chunk in chunks:
            chunk.embedding = embed_text(chunk.text, embedder)
        store.add_document(doc_id, document_title(text, doc_id), str(path), chunks)
        added += len(chunks)
    return added
