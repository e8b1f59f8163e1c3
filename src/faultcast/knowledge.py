"""Troubleshooting knowledge base: chunking, embedding, vector store.

Documents are cut into overlapping character windows aligned to whitespace so
no word is split.  Each chunk is embedded either by the deterministic offline
embedder (hashed bag of words, no network) or by a remote embedding endpoint.
The store keeps every chunk with its vector in a single JSON file.  Beside
it (beside its target, if it is a symlink), ``VectorStore.save`` writes a
derived cache of two files, which ``VectorStore.load`` reads instead when
they match the store file.

In memory the store keeps its chunks in one order, by chunk_id, and row
``i`` of its read-only ``(n_chunks, dimension)`` float64 matrix is the
embedding of chunk ``i``, so no vector is stored twice.  Ingest is
all-or-nothing: every file is read and embedded, then the matrix is rebuilt
once.  The matrix is column-major, so the column of one embedding bucket
over all chunks is contiguous: retrieval reads only the columns where the
query is nonzero, a few of many for an offline query.

Parsing the ~1.24 M embedding floats of a large store is most of reading
it, so the cache keeps the matrix as raw bytes, as Python's hash-checked
``.pyc`` files keep compiled code (PEP 552).  ``<store>.cache.f64`` holds
the matrix as little-endian float64, column-major, exactly rows ×
dimension values.  ``<store>.cache.json`` holds the store's fields without
the embeddings, the sha256 of the store file and the sha256 of the matrix
file.  ``load`` hashes the store file and the matrix as it reads them; a
missing file, a digest that differs, a matrix of the wrong size or a head
that does not load sends it to the store file itself, with no error.  Both
sources pass the same checks.  A cache that cannot be written is left out.

Without a cache, ``VectorStore.load`` turns each chunk's embedding into a
float64 row as the JSON parser closes that chunk, so the Python floats of
one chunk exist at a time, not those of the whole parse tree: its peak is
about the file's text plus twice the matrix.

The offline embedder hashes each lowercase ``a-z0-9`` token with FNV-1a
(64 bit), buckets the hash modulo the dimension, counts, and L2-normalizes.
It needs no model download, is stable across runs and machines, and two
texts sharing no token are orthogonal unless buckets collide.  Tokens are
cut from the lowercased text's UTF-8 bytes with one ``bytes.translate``,
so they are the bytes that are hashed.  Manuals reuse a small vocabulary,
so the hash of each token (not its bucket, which depends on the dimension)
is kept in a bounded process-wide LRU cache.  The hashes of a text are
bucketed in one unsigned 64-bit numpy modulo.

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
dense remote rows gain nothing from this and pay for one extra sort.  The
file's bytes are hashed as they are written, for the cache's head.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from . import endpoints
from .errors import (
    DimensionMismatch,
    EmptyDocument,
    EndpointError,
    FaultcastError,
    IoError,
    SchemaError,
    load_json,
    write_file,
)
from .kpi import Vector, from_json, read_utf8

DEFAULT_DIMENSION = 512
DEFAULT_MAX_CHARS = 1000
DEFAULT_OVERLAP_CHARS = 200
_FORMAT_BLOCK = 1 << 17  # embedding values formatted per block by VectorStore.save
_json_string = json.encoder.encode_basestring_ascii
_BOOLEANS = {bool, np.bool_}
EMBEDDER_MODES = ("offline", "remote")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# Keeps the bytes of a-z and 0-9 and maps every other byte to a space.
_TOKEN_BYTES = bytes(byte if chr(byte) in "abcdefghijklmnopqrstuvwxyz0123456789" else 0x20 for byte in range(256))
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


# The FNV-1a hash of a token, cached across embedders.
_token_hash = functools.lru_cache(maxsize=1 << 16)(fnv1a_64)


def tokenize(text: str) -> list[bytes]:
    """Runs of ``a-z0-9`` in the lowercased text, as ASCII bytes; everything else separates tokens.

    A character outside ASCII encodes to bytes at or above 0x80, which
    separate tokens as it would; ``surrogatepass`` encodes a lone surrogate
    the same way.
    """
    return text.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES).split()


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
        norm = math.sqrt(vector @ vector)  # np.linalg.norm's arithmetic
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


def _headings(text: str) -> Iterator[re.Match[str]]:
    """The matches of ``_HEADING_RE.finditer(text)``, tried only where a line starts with ``#``.

    A match never runs into a later line that starts with ``#``, so trying
    only these positions finds what trying every character finds.
    """
    starts = itertools.chain((0,), (match.start() + 1 for match in re.finditer("\n#", text)))
    return filter(None, (_HEADING_RE.match(text, start) for start in starts))


def sections_for_chunks(text: str, chunks: Iterable[KnowledgeChunk]) -> None:
    """Assign each chunk the nearest markdown heading at or before its start."""
    matches = list(_headings(text))
    offsets = [match.start() for match in matches]
    for chunk in chunks:
        index = bisect.bisect_right(offsets, chunk.char_start)
        chunk.section = matches[index - 1].group(2) if index else None


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

    def embedder(self, endpoint: endpoints.EndpointsConfig | None = None) -> Embedder:
        """The embedder of this store's vectors: offline, or remote through ``endpoint``; else ``ValueError``."""
        if self.embedder_name == "offline":
            return OfflineEmbedder(self.dimension)
        if self.embedder_name == "remote" and endpoint is not None:
            return RemoteEmbedder(endpoint, self.dimension)
        raise ValueError(f"store was embedded with {self.embedder_name!r}; pass a matching embedder")

    def _set_chunks(self, chunks: list[KnowledgeChunk], vectors: Sequence) -> None:
        """Make ``vectors[i]`` the read-only embedding of ``chunks[i]``, in row ``i`` of ``matrix``.

        The first vector that is not a list or array of ``dimension`` finite
        numbers (a boolean is not one), or whose norm exceeds the largest
        float (so that no cosine with it can be computed), raises a
        :class:`DataError` naming its chunk; the store is left as it was.
        """
        for chunk, vector in zip(chunks, vectors):
            if not isinstance(vector, (list, np.ndarray)):
                raise SchemaError(f"chunk {chunk.chunk_id}: embedding is not a list or array")
            if len(vector) != self.dimension:
                raise DimensionMismatch(
                    f"chunk {chunk.chunk_id}: embedding has {len(vector)} "
                    f"dimensions, store expects {self.dimension}"
                )
            # numpy reads a boolean beside a number as that number.
            if type(vector) is list and not _BOOLEANS.isdisjoint(map(type, vector)):
                raise SchemaError(f"chunk {chunk.chunk_id}: embedding values are not numbers")
        # An empty list would make a 1-D array.
        matrix = _numbers(vectors if len(vectors) else np.empty((0, self.dimension)), (len(chunks), self.dimension))
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
        """Write the store as ``json.dump(payload, indent=1, sort_keys=True)`` would, then its cache.

        Chunks are written one at a time, so the file is never held in
        memory, and hashed as they are written.  A cache that cannot be
        written is left out: ``load`` then reads the store itself.
        """
        digest = hashlib.sha256()

        def blocks() -> Iterator[bytes]:
            for text in self._store_text():
                data = text.encode("utf-8")
                digest.update(data)
                yield data

        write_file(path, "store", blocks())
        with contextlib.suppress(OSError, IoError):
            self._save_cache(path, digest.hexdigest())

    def _header(self) -> dict:
        """The fields beside the chunks that the store file and its cache head both hold, less their versions."""
        return {"dimension": self.dimension, "embedder": self.embedder_name, "manifest": self.manifest}

    def _store_text(self) -> Iterator[str]:
        """The store file's text, a chunk at a time."""
        tail = {**self._header(), "version": 1}
        # A block of rows at a time: a dense store, whose values are all
        # distinct, never holds all their strings at once.
        step = max(1, _FORMAT_BLOCK // self.dimension)
        values = itertools.chain.from_iterable(
            _row_values(self.matrix[i : i + step]) for i in range(0, len(self.chunks), step)
        )
        yield '{\n "chunks": ['
        separator = "\n"
        for chunk, row_values in zip(self.chunks, values):
            yield separator + _chunk_json(chunk, ",\n    ".join(row_values.tolist()))
            separator = ",\n"
        yield "\n ],\n" if self.chunks else "],\n"
        # The tail's keys sort after "chunks" and sit at the same depth.
        yield json.dumps(tail, indent=1, sort_keys=True)[2:] + "\n"

    def _save_cache(self, path: str | os.PathLike[str], store_sha256: str) -> None:
        """Write the matrix file, then the head that ties it to the store file of digest ``store_sha256``."""
        head_path, matrix_path = _cache_paths(path)
        columns = np.asfortranarray(self.matrix, dtype="<f8").T  # C-ordered: the column-major bytes
        head = {
            **self._header(),
            "chunks": [{key: getattr(chunk, key) for key in _CHUNK_FIELDS} for chunk in self.chunks],
            "matrix_sha256": hashlib.sha256(columns).hexdigest(),
            "store_sha256": store_sha256,
            "version": 1,
        }
        # With the store's permissions, whoever may read the store may read its cache.
        mode = stat.S_IMODE(os.stat(path).st_mode)
        write_file(matrix_path, "store cache", [columns], mode)
        write_file(head_path, "store cache", json.dumps(head, sort_keys=True, separators=(",", ":")).encode("utf-8"), mode)

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> VectorStore:
        """Read the store's cache if it matches the store file, else the store file itself.

        Both sources pass the same checks (:meth:`_from_payload`).  A
        missing, stale or damaged cache is no error.
        """
        head_path, matrix_path = _cache_paths(path)
        try:
            return load_json(
                functools.partial(cls._from_cache, path, matrix_path), "store cache", path=head_path, version=1
            )
        except FaultcastError:
            pass
        return load_json(cls._from_payload, "store", path=path, version=1, object_hook=_embedding_row)

    @classmethod
    def _from_cache(cls, path: str | os.PathLike[str], matrix_path: str, head: dict) -> VectorStore:
        """The store of ``head`` and the matrix file, if both match the store file at ``path``."""
        if _file_sha256(path) != head["store_sha256"]:
            raise SchemaError("store cache does not match the store")
        rows, dimension = len(head["chunks"]), from_json(head["dimension"], int, "store cache", "dimension")
        try:
            with open(matrix_path, "rb") as handle:
                if os.fstat(handle.fileno()).st_size != 8 * rows * dimension:
                    raise SchemaError("store cache matrix has the wrong size")
                matrix = np.empty((rows, dimension), dtype="<f8", order="F")
                if handle.readinto(matrix.T) != matrix.nbytes:
                    raise SchemaError("store cache matrix has the wrong size")
        except OSError as exc:
            raise IoError(f"cannot read store cache matrix: {matrix_path}") from exc
        if hashlib.sha256(matrix.T).hexdigest() != head["matrix_sha256"]:
            raise SchemaError("store cache matrix does not match its head")
        return cls._from_payload(head, matrix)

    @classmethod
    def _from_payload(cls, payload: dict, matrix: np.ndarray | None = None) -> VectorStore:
        """The store of a decoded store file, or of a cache head and its ``matrix``, checked alike."""
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
        vectors = [entry["embedding"] for entry in entries] if matrix is None else matrix
        store._set_chunks([_chunk_from_json(entry) for entry in entries], vectors)
        return store


def _cache_paths(path: str | os.PathLike[str]) -> tuple[str, str]:
    """The store cache's head and matrix files beside the store file at ``path``, or beside its symlink's target."""
    path = os.path.realpath(path)
    return path + ".cache.json", path + ".cache.f64"


def _file_sha256(path: str | os.PathLike[str]) -> str:
    """sha256 of a file, read a block at a time."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            while block := handle.read(1 << 20):
                digest.update(block)
    except OSError as exc:
        raise IoError(f"cannot read store: {path}") from exc
    return digest.hexdigest()


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

    Any other embedding, a list of ints or one holding a boolean included,
    stays the list the parser made, for :meth:`VectorStore._set_chunks` to
    convert or refuse.  This never raises: inside the parser an error would
    read as text that is not JSON.
    """
    vector = entry.get("embedding")
    if type(vector) is list and _BOOLEANS.isdisjoint(map(type, vector)):
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

    ``values`` is its embedding's entries joined as they are written.  An
    int is written by ``int.__repr__`` and a str by
    ``encode_basestring_ascii``, as ``json.dumps`` does.
    """
    section = "null" if chunk.section is None else _json_string(chunk.section)
    return (
        "  {\n"
        f'   "char_end": {int.__repr__(chunk.char_end)},\n'
        f'   "char_start": {int.__repr__(chunk.char_start)},\n'
        f'   "chunk_id": {_json_string(chunk.chunk_id)},\n'
        f'   "doc_id": {_json_string(chunk.doc_id)},\n'
        f'   "embedding": [\n    {values}\n   ],\n'
        f'   "section": {section},\n'
        f'   "text": {_json_string(chunk.text)}\n'
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
    """``values`` as a column-major array of numbers of ``shape``, or None if they are not that.

    A column-major array is returned as it is, not copied.
    """
    try:
        array = np.asarray(values, order="F")
    except ValueError:  # a nested value makes rows of unequal depth
        return None
    return array if array.dtype.kind in "iuf" and array.shape == shape else None


def document_title(text: str, fallback: str) -> str:
    """First markdown heading, or the fallback name."""
    match = next(_headings(text), None)
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
