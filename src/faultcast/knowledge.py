"""Troubleshooting knowledge base: chunking, embedding, vector store.

Documents are cut into overlapping character windows aligned to whitespace so
no word is split.  Each chunk is embedded either by the deterministic offline
embedder (hashed bag of words, no network) or by a remote embedding endpoint.
The store keeps every chunk with its vector in a single JSON file.

In memory the store keeps its chunks in one order, by chunk_id, and row
``i`` of its read-only ``(n_chunks, dimension)`` float64 matrix is the
embedding of chunk ``i``, so no vector is stored twice.  Ingest is
all-or-nothing: every file is read and embedded, then the matrix is rebuilt
once.  The matrix is column-major, so the column of one embedding bucket
over all chunks is contiguous: retrieval reads only the columns where the
query is nonzero, a few of many for an offline query.
``VectorStore.load`` turns each chunk's embedding into a float64 row as the
JSON parser closes that chunk, so the Python floats of one chunk exist at a
time, not those of the whole parse tree: its peak is about the file's text
plus twice the matrix.

The offline embedder hashes each lowercase alphanumeric token with FNV-1a
(64 bit), buckets the hash modulo the dimension, counts, and L2-normalizes.
It needs no model download, is stable across runs and machines, and two
texts sharing no token are orthogonal unless buckets collide.  Manuals reuse
a small vocabulary, so the hash of each token (not its bucket, which depends
on the dimension) is kept in a bounded process-wide LRU cache.  The hashes
of a text are bucketed in one unsigned 64-bit numpy modulo.

``VectorStore.save`` writes the file itself, one chunk at a time, because
``json.dump`` with an indent runs pure Python for every embedding float.  The
bytes are exactly those of ``json.dump(payload, indent=1, sort_keys=True)``
followed by a newline; floats are written with ``float.__repr__`` as
``json`` does, and the store refuses non-finite embeddings, which
``json`` would write as the non-standard ``NaN``/``Infinity``.  An offline
row is mostly ``0.0`` and a few counts over one norm, so a block of rows
holds few distinct values: each is formatted once, keyed by its bits so that
``-0.0`` keeps its sign, and every row is joined from those strings.  Blocks
of about 2**17 values, taken in write order, bound the strings held at once;
dense remote rows gain nothing from this and pay for one extra sort.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import numpy as np

from . import endpoints
from .errors import DimensionMismatch, EmptyDocument, EndpointError, IoError, SchemaError, load_json
from .kpi import Vector, from_json, read_utf8

DEFAULT_DIMENSION = 512
DEFAULT_MAX_CHARS = 1000
DEFAULT_OVERLAP_CHARS = 200
_FORMAT_BLOCK = 1 << 17  # embedding values formatted per block by VectorStore.save
EMBEDDER_MODES = ("offline", "remote")

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
        tokens = tokenize(text)
        # Hashes reach 2**64 - 1; uint64 mixed with a signed integer type
        # promotes to float64, which drops their low bits.
        hashes = np.fromiter(map(_token_hash, tokens), np.uint64, len(tokens))
        buckets = (hashes % np.uint64(self.dimension)).astype(np.intp)
        counts = np.bincount(buckets, minlength=self.dimension)
        vector = counts.astype(np.float64)
        norm = np.linalg.norm(vector)
        return vector / norm if norm > 0 else vector


class RemoteEmbedder:
    """Embedding endpoint client: POST {base_url}/embed, one input per call."""

    def __init__(self, endpoint: endpoints.EndpointsConfig, dimension: int):
        self.endpoint = endpoint
        self.dimension = dimension

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed empty text")
        body = endpoints.post_json(
            self.endpoint, "embed", {"model": self.endpoint.embed_model, "input": [text]}
        )
        try:
            vector = from_json(body["embeddings"][0], Vector, "embedding response", "embeddings[0]")
        except (KeyError, IndexError, TypeError, SchemaError) as exc:
            raise EndpointError(f"malformed embedding response: {exc}") from exc
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

    Row ``i`` of ``matrix`` is the embedding of ``chunks[i]`` and
    ``norms[i]`` its Euclidean norm.  ``matrix`` is column-major
    (``order="F"``): a chunk's embedding is a strided view of its row, and
    each bucket's column is contiguous for retrieval.  Each
    ``add_document`` or :func:`ingest_files` call sorts the chunks by
    chunk_id and rebuilds the matrix once, or fails and leaves the store as
    it was; ``load`` keeps the file's order.  Every chunk carries an
    embedding.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION, embedder_name: str = "offline"):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.embedder_name = embedder_name
        self.manifest: dict[str, dict[str, str]] = {}
        self._set_chunks([], [])

    def __len__(self) -> int:
        return len(self.chunks)

    def _set_chunks(self, chunks: list[KnowledgeChunk], vectors: Sequence) -> None:
        """Make ``vectors[i]`` the read-only embedding of ``chunks[i]``, in row ``i`` of ``matrix``.

        The first vector that is not a list or array of ``dimension`` finite
        numbers, or whose norm exceeds the largest float (so that no cosine
        with it can be computed), raises a :class:`DataError` naming its
        chunk; the store is left as it was.
        """
        for chunk, vector in zip(chunks, vectors):
            if not isinstance(vector, (list, np.ndarray)):
                raise SchemaError(f"chunk {chunk.chunk_id}: embedding is not a list or array")
            if len(vector) != self.dimension:
                raise DimensionMismatch(
                    f"chunk {chunk.chunk_id}: embedding has {len(vector)} "
                    f"dimensions, store expects {self.dimension}"
                )
        # An empty list would make a 1-D array.
        matrix = _numbers(vectors or np.empty((0, self.dimension)), (len(chunks), self.dimension))
        if matrix is None:
            bad = next(chunk for chunk, vector in zip(chunks, vectors) if _numbers(vector, (self.dimension,)) is None)
            raise SchemaError(f"chunk {bad.chunk_id}: embedding values are not numbers")
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            raise SchemaError(f"chunk {chunks[int(np.argmin(finite))].chunk_id}: embedding values are not finite")
        matrix = matrix.astype(np.float64, copy=False)
        norms = _row_norms(matrix)
        finite = np.isfinite(norms)
        if not finite.all():
            raise SchemaError(f"chunk {chunks[int(np.argmin(finite))].chunk_id}: embedding norm exceeds the largest float")
        matrix.flags.writeable = False
        for chunk, vector in zip(chunks, matrix):
            chunk.embedding = vector
        self.chunks = chunks
        self.matrix = matrix
        self.norms = norms

    def add_document(
        self, doc_id: str, title: str, source: str, chunks: Sequence[KnowledgeChunk]
    ) -> None:
        """Register a document, replacing any previous version of it."""
        self._add_documents({doc_id: (title, source, chunks)})

    def _add_documents(self, documents: dict[str, tuple[str, str, Sequence[KnowledgeChunk]]]) -> None:
        """Register each doc_id's title, source and chunks, replacing any previous version."""
        chunks = [c for c in self.chunks if c.doc_id not in documents]
        chunks += [chunk for *_, new in documents.values() for chunk in new]
        chunks.sort(key=lambda c: c.chunk_id)
        self._set_chunks(chunks, [chunk.embedding for chunk in chunks])
        for doc_id, (title, source, _) in documents.items():
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
        # A block of rows at a time: a dense store, whose values are all
        # distinct, never holds all their strings at once.
        step = max(1, _FORMAT_BLOCK // self.dimension)
        values = itertools.chain.from_iterable(
            _row_values(self.matrix[i : i + step]) for i in range(0, len(self.chunks), step)
        )
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write('{\n "chunks": [')
                separator = "\n"
                for chunk, row_values in zip(self.chunks, values):
                    handle.write(separator + _chunk_json(chunk, ",\n    ".join(row_values.tolist())))
                    separator = ",\n"
                handle.write("\n ],\n" if self.chunks else "],\n")
                # The tail's keys sort after "chunks" and sit at the same depth.
                handle.write(json.dumps(tail, indent=1, sort_keys=True)[2:] + "\n")
        except OSError as exc:
            raise IoError(f"cannot write store: {path}") from exc

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> VectorStore:
        return load_json(cls._from_payload, "store", path=path, version=1, object_hook=_embedding_row)

    @classmethod
    def _from_payload(cls, payload: dict) -> VectorStore:
        dimension = from_json(payload["dimension"], int, "store", "dimension")
        embedder = payload["embedder"]
        if embedder not in EMBEDDER_MODES:
            raise SchemaError(f"store embedder must be one of {EMBEDDER_MODES}, not {embedder!r}")
        manifest = from_json(payload["manifest"], dict[str, dict[str, str]], "store", "manifest")
        if any(entry.keys() != {"title", "source"} for entry in manifest.values()):
            raise SchemaError("store manifest entries must hold exactly a title and a source")
        store = cls(dimension=dimension, embedder_name=embedder)
        store.manifest = manifest
        entries = payload["chunks"]
        store._set_chunks([_chunk_from_json(entry) for entry in entries], [entry["embedding"] for entry in entries])
        return store


# The JSON types of a stored chunk's fields other than its embedding.
_CHUNK_FIELDS = {
    "chunk_id": str,
    "doc_id": str,
    "text": str,
    "section": (str, type(None)),
    "char_start": int,
    "char_end": int,
}


def _embedding_row(entry: dict) -> dict:
    """``json.load``'s object hook for a store: an embedding numpy reads as float64 becomes that row.

    Any other embedding, a list of ints included, stays the list the parser
    made, for :meth:`VectorStore._set_chunks` to convert or refuse.  This
    never raises: inside the parser an error would read as text that is not JSON.
    """
    vector = entry.get("embedding")
    if type(vector) is list:
        row = _numbers(vector, (len(vector),))
        if row is not None and row.dtype == np.float64:
            entry["embedding"] = row
    return entry


def _chunk_from_json(entry: dict) -> KnowledgeChunk:
    """A stored chunk without its embedding; a field of the wrong type is a :class:`SchemaError`."""
    for key, kind in _CHUNK_FIELDS.items():
        value = entry[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise SchemaError(f"store chunk field {key} has the wrong type: {value!r}")
    return KnowledgeChunk(**{key: entry[key] for key in _CHUNK_FIELDS})


def _row_values(matrix: np.ndarray) -> np.ndarray:
    """Each entry of ``matrix`` as ``float.__repr__`` writes it, in an object array.

    Each distinct value is formatted once.  Values are told apart by their
    bits, so ``-0.0`` keeps its sign; all-zero bits (exact ``+0.0``, most of
    an offline row) are code 0 and never reach the sort.
    """
    bits = matrix.view(np.uint64)
    nonzero = bits != 0
    distinct, inverse = np.unique(bits[nonzero], return_inverse=True)
    codes = np.zeros(bits.shape, dtype=np.intp)
    codes[nonzero] = inverse + 1
    reprs = ["0.0", *map(float.__repr__, distinct.view(np.float64).tolist())]
    return np.array(reprs, dtype=object)[codes]


def _chunk_json(chunk: KnowledgeChunk, values: str) -> str:
    """One chunk as ``json.dumps(..., indent=1, sort_keys=True)`` prints it in a store.

    ``values`` is its embedding's entries joined as they are written.
    """
    return (
        "  {\n"
        f'   "char_end": {json.dumps(chunk.char_end)},\n'
        f'   "char_start": {json.dumps(chunk.char_start)},\n'
        f'   "chunk_id": {json.dumps(chunk.chunk_id)},\n'
        f'   "doc_id": {json.dumps(chunk.doc_id)},\n'
        f'   "embedding": [\n    {values}\n   ],\n'
        f'   "section": {json.dumps(chunk.section)},\n'
        f'   "text": {json.dumps(chunk.text)}\n'
        "  }"
    )


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, computed row by row.

    ``np.linalg.norm(matrix, axis=1)`` sums in another order, and its last
    bits can reorder near-tied similarities.  Each norm is ``sqrt(row @ row)``,
    which is how ``np.linalg.norm(row)`` computes it, over a contiguous row
    of a C-ordered copy of a 128-row block: a column-major matrix is not
    copied row by row, and the copy stays small.  A finite row whose squares
    overflow (values near 1e300) or a nonzero row whose squares underflow
    (values near 1e-200) is scaled by its largest magnitude first; every
    other norm keeps the bits of the plain computation.  A norm beyond the
    largest float (two values near 1.7e308) is ``inf``.
    """
    squares = np.empty(len(matrix))
    with np.errstate(over="ignore"):
        for start in range(0, len(matrix), 128):
            block = np.ascontiguousarray(matrix[start : start + 128])
            squares[start : start + len(block)] = [row.dot(row) for row in block]
        norms = np.sqrt(squares)
        for i in np.flatnonzero(~np.isfinite(norms) | ((norms == 0.0) & matrix.any(axis=1))):
            scale = np.abs(matrix[i]).max()
            norms[i] = scale * np.linalg.norm(matrix[i] / scale)
    return norms


def _numbers(values: Sequence, shape: tuple[int, ...]) -> np.ndarray | None:
    """``values`` as a column-major array of numbers of ``shape``, or None if they are not that."""
    try:
        array = np.array(values, order="F")
    except ValueError:  # a nested value makes rows of unequal depth
        return None
    return array if array.dtype.kind in "iuf" and array.shape == shape else None


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
    """Chunk, embed, and register documents; returns the count of chunks registered.

    Markdown files get per-chunk section labels from their headings; plain
    text files get none.  Re-ingesting a document replaces its chunks, so
    ingestion is idempotent for unchanged files; of two files with one stem
    the later wins.  A file that cannot be read or is not UTF-8 (a
    :class:`DataError` naming it) or an embedding failure changes nothing.
    """
    documents = {}
    for raw_path in paths:
        path = Path(raw_path)
        text = read_utf8(path, "document")
        doc_id = path.stem
        chunks = chunk_document(doc_id, text, max_chars=max_chars, overlap_chars=overlap_chars)
        if path.suffix.lower() in (".md", ".markdown"):
            sections_for_chunks(text, chunks)
        for chunk in chunks:
            chunk.embedding = embed_text(chunk.text, embedder)
        documents[doc_id] = (document_title(text, doc_id), str(path), chunks)
    store._add_documents(documents)
    return sum(len(chunks) for *_, chunks in documents.values())
