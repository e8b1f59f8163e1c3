from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import shutil
import stat
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from faultcast import cli, knowledge

from faultcast.errors import DataError, DimensionMismatch, EmptyDocument, EndpointError, IoError, SchemaError
from faultcast.knowledge import (
    DEFAULT_DIMENSION,
    EMBEDDER_MODES,
    KnowledgeChunk,
    OfflineEmbedder,
    VectorStore,
    _row_norms,
    chunk_document,
    document_title,
    fnv1a_64,
    ingest_files,
    reconstruct_document,
    sections_for_chunks,
    tokenize,
)
from faultcast.troubleshoot import RetrievalConfig, retrieve
from helpers import cosine_similarity, reference_sections_for_chunks, store_file_parses


def test_fnv1a_64_reference_vectors():
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_fnv1a_64_token_buckets_are_distinct():
    tokens = ["compressor", "recharge", "diesel", "torque", "pressure", "tank"]
    buckets = {t: fnv1a_64(t.encode("utf-8")) % 512 for t in tokens}
    assert buckets == {
        "compressor": 220,
        "recharge": 124,
        "diesel": 207,
        "torque": 163,
        "pressure": 162,
        "tank": 41,
    }
    assert len(set(buckets.values())) == len(tokens)


def test_tokenize_lowercases_and_splits_on_non_alphanumerics():
    assert tokenize("Tank-pressure 2.5 bar!") == [b"tank", b"pressure", b"2", b"5", b"bar"]
    assert tokenize("   ") == []
    assert tokenize("A_B") == [b"a", b"b"]


# The tokenizer's rule as a regular expression over the lowercased text.
_REFERENCE_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _reference_tokens(text: str) -> list[bytes]:
    return [token.encode("ascii") for token in _REFERENCE_TOKEN_RE.findall(text.lower())]


@given(text=st.text())
@example(text="\ud800tank\udfff")  # lone surrogates
@example(text="\u0130stanbul")  # "İ" lowercases to "i" and a combining dot
@example(text="\u212aelvin")  # the Kelvin sign lowercases to "k"
@example(text="a\x0bb\x1cc\x85d\u00a0e\u2028f")  # separators that str.split would also cut at
def test_tokenize_matches_the_regex_over_any_text(text):
    assert tokenize(text) == _reference_tokens(text)


class TestOfflineEmbedder:
    def test_unit_norm_and_determinism(self):
        embedder = OfflineEmbedder(128)
        first = embedder.embed("tank pressure dropping")
        second = embedder.embed("tank pressure dropping")
        np.testing.assert_array_equal(first, second)
        assert np.linalg.norm(first) == pytest.approx(1.0, abs=1e-12)
        assert first.shape == (128,)

    def test_single_token_hits_its_bucket(self):
        embedder = OfflineEmbedder(512)
        vector = embedder.embed("tank")
        assert vector[41] == pytest.approx(1.0)
        assert np.count_nonzero(vector) == 1

    def test_repetition_does_not_change_direction(self):
        embedder = OfflineEmbedder(512)
        np.testing.assert_allclose(
            embedder.embed("tank tank tank"), embedder.embed("tank"), atol=1e-12
        )

    def test_shared_vocabulary_scores_higher(self):
        embedder = OfflineEmbedder(512)
        query = embedder.embed("tank pressure")
        assert float(query @ embedder.embed("tank levels")) > float(
            query @ embedder.embed("diesel torque")
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            OfflineEmbedder(0)
        with pytest.raises(ValueError):
            OfflineEmbedder(128).embed("")
        assert OfflineEmbedder().dimension == DEFAULT_DIMENSION

    @given(
        text=st.text(alphabet=st.sampled_from("ab9Z é-.\n"), min_size=1, max_size=80),
        dimension=st.sampled_from([1, 3, 64, 512]),
    )
    @example(text="---", dimension=512)
    @example(text="Tank-pressure 2.5 bar! tank", dimension=512)
    def test_matches_the_per_token_reference_loop(self, text, dimension):
        expected = _reference_embed(text, dimension)
        actual = OfflineEmbedder(dimension).embed(text)
        assert actual.dtype == np.float64
        np.testing.assert_array_equal(actual, expected)

    def test_text_without_tokens_is_the_zero_vector(self):
        vector = OfflineEmbedder(16).embed("--- !?")
        assert vector.dtype == np.float64
        np.testing.assert_array_equal(vector, np.zeros(16))

    @pytest.mark.parametrize("dimension", [1, 7, 512, 1000])
    def test_buckets_are_the_unsigned_hash_modulo_the_dimension(self, dimension):
        text = "Tank diesel, torque; compressor z q pressure valve tank"
        hashes = [fnv1a_64(token) for token in _reference_tokens(text)]
        assert any(h >= 2**63 for h in hashes)
        if dimension > 1:
            # Hashes above 2**53 lose bits as floats: a float modulo moves a bucket.
            assert any(int(float(h) % dimension) != h % dimension for h in hashes)
        embedder = OfflineEmbedder(dimension)
        assert embedder.embed(text).tobytes() == _reference_embed(text, dimension).tobytes()
        assert embedder.embed("--- !?").tobytes() == np.zeros(dimension).tobytes()


def _reference_embed(text: str, dimension: int) -> np.ndarray:
    """The offline embedding, one FNV-1a hash and one increment per token."""
    vector = np.zeros(dimension)
    for token in _reference_tokens(text):
        vector[fnv1a_64(token) % dimension] += 1.0
    norm = np.linalg.norm(vector)
    return vector / norm if norm > 0 else vector


class TestChunking:
    def test_short_document_is_one_chunk(self):
        chunks = chunk_document("doc", "x" * 800)
        assert len(chunks) == 1
        assert chunks[0].chunk_id == "doc#0000"
        assert (chunks[0].char_start, chunks[0].char_end) == (0, 800)

    def test_hard_text_advances_by_the_stride(self):
        text = "x" * 2500
        chunks = chunk_document("doc", text)
        assert [c.char_start for c in chunks] == [0, 800, 1600, 2400]
        assert [c.char_end for c in chunks] == [1000, 1800, 2500, 2500]
        assert [c.chunk_id for c in chunks] == [f"doc#{i:04d}" for i in range(4)]
        assert all(c.text == text[c.char_start : c.char_end] for c in chunks)

    def test_five_thousand_hard_characters_make_seven_chunks(self):
        assert len(chunk_document("doc", "x" * 5000)) == 7

    def test_word_grid_snaps_exactly_to_the_stride(self):
        chunks = chunk_document("doc", "word " * 500)
        assert [c.char_start for c in chunks] == [0, 800, 1600, 2400]

    def test_whitespace_snapping_never_splits_words(self):
        text = ("alpha bravo charlie delta echo " * 200).strip()
        chunks = chunk_document("doc", text)
        assert len(chunks) > 1
        for chunk in chunks[:-1]:
            if chunk.char_end < len(text):
                assert text[chunk.char_end - 1].isspace()

    def test_reconstruction_is_byte_exact_on_awkward_text(self):
        text = "a" * 990 + " " + "b" * 1009
        assert reconstruct_document(chunk_document("doc", text)) == text

    @given(
        text=st.text(
            alphabet=st.sampled_from(list("ab \n")), min_size=1, max_size=400
        ),
        max_chars=st.integers(min_value=2, max_value=30),
        overlap=st.integers(min_value=0, max_value=29),
    )
    def test_reconstruction_property(self, text, max_chars, overlap):
        overlap = min(overlap, max_chars - 1)
        chunks = chunk_document("doc", text, max_chars=max_chars, overlap_chars=overlap)
        assert reconstruct_document(chunks) == text
        assert all(c.text == text[c.char_start : c.char_end] for c in chunks)
        starts = [c.char_start for c in chunks]
        assert starts == sorted(starts)
        assert all(len(c.text) <= max_chars for c in chunks)

    def test_validation(self):
        with pytest.raises(EmptyDocument):
            chunk_document("doc", "")
        with pytest.raises(ValueError):
            chunk_document("doc", "x", max_chars=0)
        with pytest.raises(ValueError):
            chunk_document("doc", "x", max_chars=10, overlap_chars=10)
        with pytest.raises(ValueError):
            chunk_document("doc", "x", max_chars=10, overlap_chars=-1)


def test_sections_follow_the_nearest_heading():
    text = "intro\n# First\nbody1\n## Sub\nbody2"

    def chunk_at(start):
        return KnowledgeChunk(
            chunk_id=f"d#{start:04d}", doc_id="d", text="x", char_start=start, char_end=start + 1
        )

    chunks = [chunk_at(0), chunk_at(6), chunk_at(14), chunk_at(20), chunk_at(27)]
    sections_for_chunks(text, chunks)
    assert [c.section for c in chunks] == [None, "First", "First", "Sub", "Sub"]


@given(
    text=st.text(alphabet=st.sampled_from("# \t\nab"), min_size=1, max_size=120),
    max_chars=st.integers(2, 30),
)
@example(text="# a\n# a\n## b\n", max_chars=4)
def test_sections_are_those_of_the_linear_heading_scan(text, max_chars):
    chunks = chunk_document("d", text, max_chars=max_chars, overlap_chars=1)
    expected = chunk_document("d", text, max_chars=max_chars, overlap_chars=1)
    sections_for_chunks(text, chunks)
    reference_sections_for_chunks(text, expected)
    assert [c.section for c in chunks] == [c.section for c in expected]


def test_document_title():
    assert document_title("prose\n# Tank Manual\nmore", "fallback") == "Tank Manual"
    assert document_title("no headings here", "fallback") == "fallback"


def _embedded_chunks(doc_id: str, text: str, embedder: OfflineEmbedder):
    chunks = chunk_document(doc_id, text, max_chars=60, overlap_chars=10)
    for chunk in chunks:
        chunk.embedding = embedder.embed(chunk.text)
    return chunks


class TestVectorStore:
    def test_add_document_requires_embeddings(self):
        store = VectorStore(dimension=16)
        bare = chunk_document("doc", "some text")
        with pytest.raises(SchemaError, match=r"^chunk doc#0000: embedding is not a list or array$"):
            store.add_documents({"doc": ("Doc", "doc.txt", bare)})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_add_document_rejects_non_finite_embeddings(self, value):
        store = VectorStore(dimension=16)
        chunks = _embedded_chunks("doc", "tank pressure " * 10, OfflineEmbedder(16))
        chunks[-1].embedding = chunks[-1].embedding.copy()
        chunks[-1].embedding[3] = value
        with pytest.raises(SchemaError, match=f"chunk {chunks[-1].chunk_id}: .*not finite"):
            store.add_documents({"doc": ("Doc", "doc.txt", chunks)})
        assert len(store) == 0 and store.manifest == {} and len(store.matrix) == 0

    def test_add_document_refuses_a_numpy_boolean_beside_numbers(self):
        chunks = _embedded_chunks("doc", "tank pressure " * 10, OfflineEmbedder(4))
        chunks[-1].embedding = [np.True_, 0.5, 0.0, 0.0]
        with pytest.raises(SchemaError, match=f"^chunk {chunks[-1].chunk_id}: embedding values are not numbers$"):
            VectorStore(dimension=4).add_documents({"doc": ("Doc", "doc.txt", chunks)})

    def test_add_document_checks_dimension(self):
        store = VectorStore(dimension=16)
        chunks = _embedded_chunks("doc", "some text", OfflineEmbedder(8))
        with pytest.raises(DimensionMismatch):
            store.add_documents({"doc": ("Doc", "doc.txt", chunks)})

    def test_reingesting_replaces_and_keeps_chunk_order(self):
        embedder = OfflineEmbedder(16)
        store = VectorStore(dimension=16)
        b_chunks = _embedded_chunks("b", "bravo " * 30, embedder)
        store.add_documents({"b": ("B", "b.txt", b_chunks)})
        assert len(store) == len(b_chunks)
        a_chunks = _embedded_chunks("a", "alfa " * 30, embedder)
        store.add_documents({"a": ("A", "a.txt", a_chunks)})
        store.add_documents({"b": ("B", "b.txt", _embedded_chunks("b", "bravo " * 30, embedder))})
        assert len(store) == len(a_chunks) + len(b_chunks)
        ids = [c.chunk_id for c in store.chunks]
        assert ids == sorted(ids)
        assert set(store.manifest) == {"a", "b"}

    def test_save_load_round_trip(self, tmp_path):
        embedder = OfflineEmbedder(16)
        store = VectorStore(dimension=16, embedder_name="offline")
        store.add_documents({"doc": ("Doc", "doc.md", _embedded_chunks("doc", "tank " * 40, embedder))})
        path = tmp_path / "store.json"
        store.save(path)

        raw = path.read_text(encoding="utf-8")
        assert raw.endswith("}\n")
        payload = json.loads(raw)
        assert payload["version"] == 1
        assert payload["dimension"] == 16
        assert payload["embedder"] == "offline"
        assert list(payload) == sorted(payload)

        loaded = VectorStore.load(path)
        assert loaded.dimension == store.dimension
        assert loaded.embedder_name == store.embedder_name
        assert loaded.manifest == store.manifest
        assert len(loaded) == len(store)
        for mine, theirs in zip(store.chunks, loaded.chunks):
            assert mine.chunk_id == theirs.chunk_id
            assert mine.doc_id == theirs.doc_id
            assert mine.text == theirs.text
            assert (mine.char_start, mine.char_end) == (theirs.char_start, theirs.char_end)
            assert mine.section == theirs.section
            np.testing.assert_array_equal(mine.embedding, theirs.embedding)

    def test_load_rejects_bad_files(self, tmp_path):
        with pytest.raises(IoError):
            VectorStore.load(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("nope", encoding="utf-8")
        with pytest.raises(SchemaError):
            VectorStore.load(bad)
        versioned = tmp_path / "versioned.json"
        versioned.write_text('{"version": 2}', encoding="utf-8")
        with pytest.raises(SchemaError, match="version"):
            VectorStore.load(versioned)

    def test_validation(self):
        with pytest.raises(ValueError):
            VectorStore(dimension=0)

    def test_embeddings_are_read_only_rows_of_one_matrix(self, manuals, tmp_path):
        embedder = OfflineEmbedder(16)
        added = VectorStore(dimension=16)
        added.add_documents({"b": ("B", "b.txt", _embedded_chunks("b", "bravo tank " * 20, embedder))})
        added.add_documents({"a": ("A", "a.txt", _embedded_chunks("a", "alfa valve " * 20, embedder))})
        ingested = VectorStore(dimension=16)
        ingest_files(ingested, manuals, embedder)
        ingested.save(tmp_path / "store.json")
        loaded = VectorStore.load(tmp_path / "store.json")
        for store in (added, ingested, loaded, VectorStore(dimension=16)):
            # Column-major: retrieval gathers the columns of a query's buckets.
            assert store.matrix.flags.f_contiguous and not store.matrix.flags.writeable
            assert store.matrix.shape == (len(store), 16)
            for row, chunk in enumerate(store.chunks):
                assert chunk.embedding.base is store.matrix
                assert np.shares_memory(chunk.embedding, store.matrix[row])
                np.testing.assert_array_equal(chunk.embedding, store.matrix[row])
                np.testing.assert_array_equal(chunk.embedding, embedder.embed(chunk.text))
                assert store.norms[row] == np.linalg.norm(embedder.embed(chunk.text))
        with pytest.raises(ValueError):
            added.chunks[0].embedding[0] = 1.0


_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé€😀'), st.characters()), max_size=12
)
_VALUE = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e300, 3.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _store_payloads(draw, max_dimension=4, max_chunks=4, values=_VALUE, text=_TEXT):
    dimension = draw(st.integers(1, max_dimension))
    chunk = st.fixed_dictionaries(
        {
            "chunk_id": text,
            "doc_id": text,
            "section": st.none() | text,
            "text": text,
            "char_start": st.integers(0, 10**6),
            "char_end": st.integers(0, 10**6),
            # A store refuses a row whose norm exceeds the largest float.
            "embedding": st.lists(values, min_size=dimension, max_size=dimension).filter(
                lambda row: math.isfinite(math.hypot(*row))
            ),
        }
    )
    entry = st.fixed_dictionaries({"title": text, "source": text})
    return {
        "version": 1,
        "dimension": dimension,
        "embedder": draw(st.sampled_from(EMBEDDER_MODES)),
        "manifest": draw(st.dictionaries(text, entry, max_size=3)),
        "chunks": draw(st.lists(chunk, max_size=max_chunks)),
    }


_EDGE_CASE_STORE = {
    "version": 1,
    "dimension": 4,
    "embedder": "offline",
    "manifest": {"d\u00e9": {"title": 'say "hi"\\', "source": "m\u00e9/\x01.md"}},
    "chunks": [
        {
            "chunk_id": "d\u00e9#0000",
            "doc_id": "d\u00e9",
            "section": None,
            "text": 'quote " backslash \\ tab \t nul \x00 \u20ac \U0001f600',
            "char_start": 0,
            "char_end": 9,
            "embedding": [-0.0, 5e-324, 1e300, 3.0],
        },
        {
            "chunk_id": "d\u00e9#0001",
            "doc_id": "d\u00e9",
            "section": "S\u00e9ction \"1\"\n",
            "text": "x",
            "char_start": 5,
            "char_end": 6,
            "embedding": [0.0, 0.0, 0.0, 0.0],
        },
    ],
}


@given(payload=_store_payloads())
@example(payload=_EDGE_CASE_STORE)
@example(payload={**_EDGE_CASE_STORE, "chunks": [], "manifest": {}})
def test_save_writes_the_bytes_of_json_dump(tmp_path_factory, payload):
    directory = tmp_path_factory.mktemp("store")
    source = directory / "source.json"
    source.write_text(json.dumps(payload), encoding="utf-8")
    saved = directory / "saved.json"
    VectorStore.load(source).save(saved)
    oracle = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    assert saved.read_bytes() == oracle.encode("utf-8")


# Few distinct values, so rows share them as offline rows do, with both zeros
# and the extremes of float.__repr__ among them.
_POOLED_VALUE = st.sampled_from([0.0, -0.0, 5e-324, 1e300, 0.25, 0.7071067811865476])


def _with_embeddings(*embeddings):
    chunk = _EDGE_CASE_STORE["chunks"][0]
    chunks = [{**chunk, "chunk_id": f"c{i}", "embedding": e} for i, e in enumerate(embeddings)]
    return {**_EDGE_CASE_STORE, "chunks": chunks}


@given(
    payload=_store_payloads(
        max_dimension=16, max_chunks=8, values=_POOLED_VALUE, text=st.text('a"\\é', max_size=3)
    )
)
@example(payload=_with_embeddings([0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, 0.25, 0.0]))
@example(payload=_with_embeddings([-0.0, -0.0, -0.0, -0.0], [0.0, 0.0, 0.0, 0.0]))
def test_save_writes_the_bytes_of_json_dump_when_values_repeat(tmp_path_factory, payload):
    directory = tmp_path_factory.mktemp("store")
    source = directory / "source.json"
    source.write_text(json.dumps(payload), encoding="utf-8")
    saved = directory / "saved.json"
    VectorStore.load(source).save(saved)
    oracle = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    assert saved.read_bytes() == oracle.encode("utf-8")


@pytest.mark.parametrize("block", [1, 8, 12])
def test_save_writes_rows_in_chunk_order_across_format_blocks(tmp_path, monkeypatch, block):
    monkeypatch.setattr(knowledge, "_FORMAT_BLOCK", block)  # rows per block: 1, 2 and 3
    store = VectorStore(dimension=4)
    # Document "b" first, so the store must sort the chunks it was given.
    documents = {"b": [[0.5, -0.0, 0.0, 0.25], [1.0] * 4], "a": [[0.25, 0.0, -0.0, 1.0]] * 3}
    for doc_id, rows in documents.items():
        chunks = chunk_document(doc_id, "word " * 5 * len(rows), max_chars=25, overlap_chars=0)
        for chunk, row in zip(chunks, rows, strict=True):
            chunk.embedding = np.array(row)
        store.add_documents({doc_id: (doc_id, f"{doc_id}.md", chunks)})
    store.save(tmp_path / "saved.json")
    chunks = [{**vars(c), "embedding": c.embedding.tolist()} for c in store.chunks]
    payload = {
        "chunks": chunks,
        "dimension": 4,
        "embedder": "offline",
        "manifest": store.manifest,
        "version": 1,
    }
    oracle = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    assert (tmp_path / "saved.json").read_bytes() == oracle.encode("utf-8")


FIXTURE_STORE_SHA256 = "73e3091f0ff14d63a27412b108406e6f99e26694d7013545d94cbe2224e1189e"
FIXTURE_FILES = [f"tests/fixtures/{name}.md" for name in ("electrical", "engine", "tank_pressure")]


def _kb_ingest_sha256(fixtures_dir, tmp_path, monkeypatch, capsys, *runs) -> str:
    """sha256 of the store left by one ``faultcast kb ingest`` per run, from the repository root."""
    shutil.copytree(fixtures_dir, tmp_path / "tests" / "fixtures", dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    for files in runs:
        assert cli.main(["kb", "ingest", *files]) == 0
    capsys.readouterr()
    return hashlib.sha256((tmp_path / "artifacts" / "knowledge.json").read_bytes()).hexdigest()


def test_kb_ingest_of_the_fixtures_keeps_its_bytes(fixtures_dir, tmp_path, monkeypatch, capsys):
    """Store of ``faultcast kb ingest tests/fixtures/*.md`` run from the repository root."""
    assert _kb_ingest_sha256(fixtures_dir, tmp_path, monkeypatch, capsys, FIXTURE_FILES) == FIXTURE_STORE_SHA256


@pytest.mark.parametrize(
    "runs",
    [
        [FIXTURE_FILES[::-1]],
        [FIXTURE_FILES[1:] + FIXTURE_FILES[:1]],
        [FIXTURE_FILES, FIXTURE_FILES[1:2]],
        [["tests/fixtures/old/engine.md", *FIXTURE_FILES]],
    ],
    ids=["reversed", "rotated", "then-one-again", "same-stem-last-wins"],
)
def test_store_bytes_do_not_depend_on_ingest_order_or_history(fixtures_dir, tmp_path, monkeypatch, capsys, runs):
    old = tmp_path / "tests" / "fixtures" / "old" / "engine.md"
    old.parent.mkdir(parents=True)
    old.write_text("# Old Engine Manual\n\n" + "retired gearbox notes " * 80, encoding="utf-8")
    assert _kb_ingest_sha256(fixtures_dir, tmp_path, monkeypatch, capsys, *runs) == FIXTURE_STORE_SHA256


def _valid_store_payload(tmp_path):
    store = VectorStore(dimension=4, embedder_name="offline")
    chunks = _embedded_chunks("doc", "tank " * 30, OfflineEmbedder(4))
    store.add_documents({"doc": ("Doc", "doc.md", chunks)})
    path = tmp_path / "store.json"
    store.save(path)
    return path, json.loads(path.read_text(encoding="utf-8"))


MISSING = object()
FIRST_CHUNK = ("chunks", 0)
FIRST_VALUE = ("chunks", 0, "embedding", 0)

# case -> (where in the payload, the value put there or MISSING, expected error)
MALFORMED_STORES = {
    "no chunks": (("chunks",), MISSING, SchemaError),
    "no dimension": (("dimension",), MISSING, SchemaError),
    "no embedder": (("embedder",), MISSING, SchemaError),
    "no manifest": (("manifest",), MISSING, SchemaError),
    **{
        f"chunk without {key}": ((*FIRST_CHUNK, key), MISSING, SchemaError)
        for key in ("chunk_id", "doc_id", "section", "text", "char_start", "char_end", "embedding")
    },
    "chunk is not an object": (FIRST_CHUNK, "chunk", SchemaError),
    "numeric text": ((*FIRST_CHUNK, "text"), 5, SchemaError),
    "numeric chunk_id": ((*FIRST_CHUNK, "chunk_id"), 5, SchemaError),
    "list section": ((*FIRST_CHUNK, "section"), [1], SchemaError),
    "null doc_id": ((*FIRST_CHUNK, "doc_id"), None, SchemaError),
    "string char_start": ((*FIRST_CHUNK, "char_start"), "0", SchemaError),
    "boolean char_start": ((*FIRST_CHUNK, "char_start"), False, SchemaError),
    "fractional char_end": ((*FIRST_CHUNK, "char_end"), 10.5, SchemaError),
    "dimension is not a number": (("dimension",), "wide", SchemaError),
    "dimension is zero": (("dimension",), 0, SchemaError),
    "dimension is a string": (("dimension",), "4", SchemaError),
    "dimension is fractional": (("dimension",), 4.7, SchemaError),
    "dimension is a boolean": (("dimension",), True, SchemaError),
    "numeric embedder": (("embedder",), 5, SchemaError),
    "unknown embedder": (("embedder",), "remote:model", SchemaError),
    "manifest is a list": (("manifest",), [], SchemaError),
    "numeric manifest entry": (("manifest", "doc"), 3, SchemaError),
    "manifest entry without source": (("manifest", "doc", "source"), MISSING, SchemaError),
    "numeric manifest title": (("manifest", "doc", "title"), 3, SchemaError),
    "short embedding": ((*FIRST_CHUNK, "embedding"), [0.5] * 3, DimensionMismatch),
    "long embedding": ((*FIRST_CHUNK, "embedding"), [0.5] * 5, DimensionMismatch),
    "embedding is not a list": ((*FIRST_CHUNK, "embedding"), 0.5, SchemaError),
    "null embedding": ((*FIRST_CHUNK, "embedding"), None, SchemaError),
    "string value": (FIRST_VALUE, "0.5", SchemaError),
    "null value": (FIRST_VALUE, None, SchemaError),
    "nested value": (FIRST_VALUE, [0.5], SchemaError),
    "object value": (FIRST_VALUE, {"x": 0.5}, SchemaError),
    "NaN value": (FIRST_VALUE, float("nan"), SchemaError),
    "infinite value": (FIRST_VALUE, float("-inf"), SchemaError),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STORES))
def test_load_rejects_malformed_store(tmp_path, case):
    path, payload = _valid_store_payload(tmp_path)
    keys, value, error = MALFORMED_STORES[case]
    target = payload
    for key in keys[:-1]:
        target = target[key]
    if value is MISSING:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(error):
        VectorStore.load(path)


# case -> (the embedding of the first chunk, the error and message that refuse it)
BAD_EMBEDDINGS = {
    "null": (None, SchemaError, "embedding is not a list or array"),
    "string": ("0.5 0.5 0.5 0.5", SchemaError, "embedding is not a list or array"),
    "wrong length": ([0.5] * 3, DimensionMismatch, "embedding has 3 dimensions, store expects 4"),
    "numeric strings": (["0.5"] * 4, SchemaError, "embedding values are not numbers"),
    "infinite value": ([0.5, 0.5, math.inf, 0.5], SchemaError, "embedding values are not finite"),
    "empty": ([], DimensionMismatch, "embedding has 0 dimensions, store expects 4"),
    "nested values": ([[1], [2], [3], [4]], SchemaError, "embedding values are not numbers"),
    "integer beyond int64 beside floats": ([10**30, 0.5, 0.5, 0.5], SchemaError, "embedding values are not numbers"),
    "integer beyond uint64": ([2**64, 1, 1, 1], SchemaError, "embedding values are not numbers"),
    "booleans": ([True, False, True, True], SchemaError, "embedding values are not numbers"),
    "boolean beside a number": ([True, 0.5, 0.0, 0.0], SchemaError, "embedding values are not numbers"),
    "boolean beside integers": ([0, 1, False, 2], SchemaError, "embedding values are not numbers"),
    "norm beyond float64": ([1.7e308, -1.7e308, 0.0, 0.0], SchemaError, "embedding norm exceeds the largest float"),
}


@pytest.mark.parametrize("case", sorted(BAD_EMBEDDINGS))
def test_add_and_load_refuse_a_bad_embedding_alike(tmp_path, case):
    """The same check refuses an embedding handed to ``add_documents`` and one read from a file.

    The first chunk's embedding is bad; both paths see the same chunks.
    """
    embedding, error, message = BAD_EMBEDDINGS[case]
    path, payload = _valid_store_payload(tmp_path)
    entries = payload["chunks"]
    entries[0]["embedding"] = embedding
    path.write_text(json.dumps(payload), encoding="utf-8")
    chunks = [KnowledgeChunk(**entry) for entry in entries]
    with pytest.raises(error) as added:
        VectorStore(dimension=4).add_documents({"doc": ("Doc", "doc.md", chunks)})
    with pytest.raises(error) as loaded:
        VectorStore.load(path)
    assert type(added.value) is type(loaded.value) is error
    assert str(added.value) == f"chunk {entries[0]['chunk_id']}: {message}"
    assert str(loaded.value) == f"{added.value} (in {path})"


def _store_file(tmp_path, *embeddings):
    """A saved store file of one chunk per embedding, with the dimension of the first."""
    chunk = {"doc_id": "d", "section": None, "text": "x", "char_start": 0, "char_end": 1}
    payload = {
        "version": 1,
        "dimension": len(embeddings[0]),
        "embedder": "offline",
        "manifest": {},
        "chunks": [{**chunk, "chunk_id": f"d#{i:04d}", "embedding": e} for i, e in enumerate(embeddings)],
    }
    path = tmp_path / "store.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# case -> the embeddings of a store that loads
GOOD_EMBEDDINGS = {
    "integers": ([1, 0, 0, 0], [0, 3, -2, 2**53 + 1]),
    "integers and floats": ([1, 0.5, 0, 2**53 + 1], [0.25, -1, 0.0, 3]),
    "negative zero": ([-0.0, 0.0, -0.0, 0.0], [0.0, 0.0, 0.0, -0.0]),
    "smallest subnormal": ([5e-324, -5e-324, 0.0, 1.0], [0.0, 5e-324, 0.0, 0.0]),
    "largest magnitudes": ([1.7e308, 0.0, 1e-300, 0.0], [0.0, -1.7976931348623157e308, 0.0, 1.0]),
    "rows of floats beside rows of integers": (
        [0.25, 0.5, -0.0, 1.0],
        [1, 2, 3, 4],
        [0.125, 1, 2, 3],
        [0, 0, 0, 0],
        [1e-300, 1e300, 0.5, -0.5],
    ),
}


@pytest.mark.parametrize("case", sorted(GOOD_EMBEDDINGS))
def test_load_keeps_the_bits_of_a_plain_json_load(tmp_path, case):
    """Each chunk's embedding is a read-only view of its row, whose bits are numpy's of the parsed lists."""
    path = _store_file(tmp_path, *GOOD_EMBEDDINGS[case])
    parsed = [entry["embedding"] for entry in json.loads(path.read_text(encoding="utf-8"))["chunks"]]
    loaded = VectorStore.load(path)
    assert loaded.matrix.dtype == np.float64
    assert loaded.matrix.flags.f_contiguous and not loaded.matrix.flags.writeable
    assert loaded.matrix.tobytes() == np.array(parsed, order="F").astype(np.float64).tobytes()
    for chunk in loaded.chunks:
        assert np.shares_memory(chunk.embedding, loaded.matrix) and not chunk.embedding.flags.writeable


@pytest.mark.parametrize(
    "embedding",
    [[1, 2], [10**30, 0.5], [2**64, 1], [True, False], [True, 0.5], [0.25, False], ["a", 1.0], [[1], [2]], [None, 0.5]]
    + [0.5, None, {"x": 1}],
    ids=repr,
)
def test_embedding_row_leaves_all_but_float_rows_as_parsed(embedding):
    entry = {"chunk_id": "d#0000", "embedding": embedding}
    assert knowledge._embedding_row(entry)["embedding"] is embedding


@pytest.mark.parametrize("cache", ["cache kept", "cache deleted"])
def test_load_peak_memory_stays_near_the_file_and_the_matrix(tmp_path, cache):
    """``load`` converts each chunk's embedding as it is parsed, not after the whole parse tree is built.

    Parsing every embedding before converting any peaks at the file plus 4.4
    to 4.8 times the matrix; converting each as it is parsed, at about 1.8 times.
    The cache is hashed a block at a time and its matrix read in place.
    """
    rng = random.Random(11)
    vocabulary = ["".join(rng.choices("abcdefghijk", k=rng.randint(3, 9))) for _ in range(400)]
    manual = tmp_path / "manual.txt"
    manual.write_text(" ".join(rng.choices(vocabulary, k=25000)), encoding="utf-8")
    store = VectorStore()
    ingest_files(store, [manual], OfflineEmbedder())
    path = tmp_path / "store.json"
    store.save(path)
    del store
    if cache == "cache deleted":
        _delete_cache(path)
    tracemalloc.start()
    try:
        loaded = VectorStore.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) > 200
    assert peak < path.stat().st_size + 2.5 * loaded.matrix.nbytes


def _cache_files(path):
    return path.with_name(path.name + ".cache.json"), path.with_name(path.name + ".cache.f64")


def _delete_cache(path):
    for cache_file in _cache_files(path):
        cache_file.unlink()


def _assert_same_store(actual, expected):
    """Equal chunk fields and order, matrix bits and layout, norm bits, manifest, dimension and embedder."""
    assert (actual.dimension, actual.embedder_name, actual.manifest) == (
        expected.dimension,
        expected.embedder_name,
        expected.manifest,
    )
    fields = [[getattr(c, key) for key in knowledge._CHUNK_FIELDS] for c in expected.chunks]
    assert [[getattr(c, key) for key in knowledge._CHUNK_FIELDS] for c in actual.chunks] == fields
    assert actual.matrix.tobytes() == expected.matrix.tobytes()
    assert actual.matrix.dtype == np.float64 and actual.matrix.shape == expected.matrix.shape
    assert actual.matrix.flags.f_contiguous and not actual.matrix.flags.writeable
    assert actual.norms.tobytes() == expected.norms.tobytes()
    for row, chunk in enumerate(actual.chunks):
        assert chunk.embedding.base is actual.matrix and np.shares_memory(chunk.embedding, actual.matrix[row])


@given(payload=_store_payloads())
@example(payload=_EDGE_CASE_STORE)
@example(payload={**_EDGE_CASE_STORE, "chunks": [], "manifest": {}})
@example(payload=_with_embeddings([1e300, -1e300, 1e-300, -0.0], [5e-324, -5e-324, 2.2250738585072014e-308, 0.0]))
def test_load_reads_from_the_cache_the_store_it_reads_from_the_file(tmp_path_factory, payload):
    directory = tmp_path_factory.mktemp("store")
    path = directory / "store.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    VectorStore.load(path).save(path)
    head, matrix = _cache_files(path)
    cached_bytes = head.read_bytes(), matrix.read_bytes()
    with store_file_parses() as parsed:
        cached = VectorStore.load(path)
    assert parsed == []
    cached.save(directory / "again.json")
    assert _cache_files(directory / "again.json")[1].read_bytes() == cached_bytes[1]
    _delete_cache(path)
    _assert_same_store(cached, VectorStore.load(path))
    VectorStore.load(path).save(path)
    assert (head.read_bytes(), matrix.read_bytes()) == cached_bytes


def test_an_ingested_store_loads_from_its_cache_as_from_its_file(manuals, tmp_path):
    store = VectorStore()
    ingest_files(store, manuals, OfflineEmbedder())
    path = tmp_path / "store.json"
    store.save(path)
    with store_file_parses() as parsed:
        cached = VectorStore.load(path)
    assert parsed == []
    _assert_same_store(cached, store)
    _delete_cache(path)
    _assert_same_store(VectorStore.load(path), store)


@given(
    dimension=st.integers(1, 8),
    embedder_name=st.sampled_from(EMBEDDER_MODES),
    texts=st.lists(st.text("tank valve é\n", min_size=1, max_size=80), max_size=3),
)
def test_every_store_the_constructor_accepts_saves_and_loads_back(tmp_path_factory, dimension, embedder_name, texts):
    """The header is checked where a store is built, so no store saves that ``load`` then refuses."""
    store = VectorStore(dimension=dimension, embedder_name=embedder_name)
    embedder = OfflineEmbedder(dimension)
    store.add_documents(
        {f"doc{i}": (f"Doc {i}", f"doc{i}.md", _embedded_chunks(f"doc{i}", text, embedder)) for i, text in enumerate(texts)}
    )
    path = tmp_path_factory.mktemp("store") / "store.json"
    store.save(path)
    with store_file_parses() as parsed:
        cached = VectorStore.load(path)
    assert parsed == []
    _assert_same_store(cached, store)
    _delete_cache(path)
    _assert_same_store(VectorStore.load(path), store)


@pytest.mark.parametrize(
    "dimension, embedder_name, message",
    [
        (4, "remote:model", r"^store embedder must be one of \('offline', 'remote'\), not 'remote:model'$"),
        (True, "offline", r"^store dimension must be an integer >= 1, not True$"),
        (np.int64(4), "offline", r"^store dimension must be an integer >= 1, not (np\.int64\(4\)|4)$"),
        (0, "offline", r"^store dimension must be an integer >= 1, not 0$"),
    ],
    ids=["embedder with a model", "boolean dimension", "numpy integer dimension", "zero dimension"],
)
def test_the_constructor_refuses_a_header_that_would_not_load(dimension, embedder_name, message):
    with pytest.raises(ValueError, match=message):
        VectorStore(dimension=dimension, embedder_name=embedder_name)


def _corrupt_store_byte(path, other):
    data = path.read_bytes()
    assert b"tank" in data
    path.write_bytes(data.replace(b"tank", b"tanq", 1))


def _truncate_matrix(path, other):
    matrix = _cache_files(path)[1]
    matrix.write_bytes(matrix.read_bytes()[:-8])


def _lengthen_matrix(path, other):
    matrix = _cache_files(path)[1]
    matrix.write_bytes(matrix.read_bytes() + bytes(8))


def _matrix_of_another_store(path, other):
    theirs, mine = _cache_files(other)[1], _cache_files(path)[1]
    assert theirs.stat().st_size == mine.stat().st_size and theirs.read_bytes() != mine.read_bytes()
    shutil.copyfile(theirs, mine)


def _garbage_head(path, other):
    _cache_files(path)[0].write_bytes(b"\x00not json")


def _head_of_another_version(path, other):
    head = _cache_files(path)[0]
    head.write_text(json.dumps({**json.loads(head.read_text(encoding="utf-8")), "version": 2}), encoding="utf-8")


# case -> how the store or its cache is changed after save
STALE_CACHES = {
    "store changed by one byte": _corrupt_store_byte,
    "matrix truncated": _truncate_matrix,
    "matrix lengthened": _lengthen_matrix,
    "matrix of another store": _matrix_of_another_store,
    "garbage head": _garbage_head,
    "head of another version": _head_of_another_version,
    "head missing": lambda path, other: _cache_files(path)[0].unlink(),
    "matrix missing": lambda path, other: _cache_files(path)[1].unlink(),
}


@pytest.mark.parametrize("case", sorted(STALE_CACHES))
def test_load_ignores_a_cache_that_does_not_match_the_store(tmp_path, case):
    """Load returns what the store file holds, with no error and no warning."""
    embedder = OfflineEmbedder(16)
    for name, text in (("store", "tank pressure " * 30), ("other", "pump pressure " * 30)):
        store = VectorStore(dimension=16)
        store.add_documents({"doc": ("Doc", "doc.md", _embedded_chunks("doc", text, embedder))})
        (tmp_path / name).mkdir()
        store.save(tmp_path / name / "store.json")
    path = tmp_path / "store" / "store.json"
    STALE_CACHES[case](path, tmp_path / "other" / "store.json")
    uncached = tmp_path / "uncached.json"
    shutil.copyfile(path, uncached)
    with warnings.catch_warnings(), store_file_parses() as parsed:
        warnings.simplefilter("error")
        loaded = VectorStore.load(path)
    assert parsed
    _assert_same_store(loaded, VectorStore.load(uncached))


@pytest.mark.parametrize("mode", [0o600, 0o644], ids=oct)
def test_the_cache_is_as_readable_as_the_store(tmp_path, mode):
    path = tmp_path / "store.json"
    path.touch(mode)
    path.chmod(mode)
    VectorStore(dimension=4).save(path)
    assert [stat.S_IMODE(p.stat().st_mode) for p in (path, *_cache_files(path))] == [mode] * 3


def test_save_leaves_no_temporary_file_when_the_cache_cannot_be_written(tmp_path, monkeypatch):
    store = VectorStore(dimension=16)
    store.add_documents({"doc": ("Doc", "doc.md", _embedded_chunks("doc", "tank " * 30, OfflineEmbedder(16)))})

    replace = os.replace

    def refuse(source, target):
        if target.endswith((".cache.json", ".cache.f64")):
            raise OSError(28, "No space left on device")
        replace(source, target)

    monkeypatch.setattr(knowledge.os, "replace", refuse)
    store.save(tmp_path / "store.json")
    assert [p.name for p in tmp_path.iterdir()] == ["store.json"]
    monkeypatch.undo()
    _assert_same_store(VectorStore.load(tmp_path / "store.json"), store)


def test_huge_embedding_scores_its_true_cosine(tmp_path):
    path = _store_file(tmp_path, [1e300, 1e300], [1.0, 0.0])
    store = VectorStore.load(path)
    assert store.norms[1] == np.linalg.norm([1.0, 0.0])
    ranked = retrieve(store, np.array([1.0, 1.0]), RetrievalConfig(top_k=2))
    hits = {chunk.chunk_id: similarity for chunk, similarity in ranked}
    assert abs(hits["d#0000"] - 1.0) <= 1e-12
    assert abs(hits["d#0001"] - math.sqrt(0.5)) <= 1e-12


# case -> (stored rows, query); every row's norm is finite
OVERFLOWING_SCORES = {
    "the product overflows": ([[1e308, 1e308], [1.0, 0.0], [0.0, 0.0]], [1.0, 1.0]),
    "the query overflows": ([[1e308, 1e308], [1.0, 0.0], [0.0, 0.0]], [1e308, 1e308]),
    "only the norms' product overflows": ([[1e308, 0.0], [1.0, 0.0], [0.0, 0.0]], [1.0, 1.6]),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_SCORES))
def test_a_score_that_overflows_is_the_true_cosine(tmp_path, case):
    rows, query = OVERFLOWING_SCORES[case]
    store = VectorStore.load(_store_file(tmp_path, *rows))
    ranked = retrieve(store, np.array(query), RetrievalConfig(top_k=3))
    hits = {chunk.chunk_id: similarity for chunk, similarity in ranked}
    assert hits.keys() == {"d#0000", "d#0001", "d#0002"}
    assert ranked[0][0].chunk_id == "d#0000"
    for i, row in enumerate(rows):
        # Scaled copies have the same cosine and no overflow.
        expected = cosine_similarity(np.array(row) / max(max(row), 1.0), np.array(query) / max(query))
        assert abs(hits[f"d#{i:04d}"] - expected) <= 1e-12


def test_tiny_embedding_scores_its_true_cosine(tmp_path):
    path = _store_file(tmp_path, [1e-200, 1e-200], [1e-200, 0.0], [0.0, 0.0])
    store = VectorStore.load(path)
    assert store.norms[2] == 0.0
    ranked = retrieve(store, np.array([1.0, 1.0]), RetrievalConfig(top_k=3))
    hits = {chunk.chunk_id: similarity for chunk, similarity in ranked}
    assert abs(hits["d#0000"] - 1.0) <= 1e-12
    assert abs(hits["d#0001"] - math.sqrt(0.5)) <= 1e-12
    assert hits["d#0002"] == 0.0


def test_row_norms_keep_the_bits_of_the_plain_norm():
    rows = np.random.default_rng(3).normal(size=(20, 7)) * np.logspace(-150, 150, 20)[:, None]
    expected = [np.linalg.norm(row) for row in rows]
    assert _row_norms(rows).tolist() == expected
    assert _row_norms(np.asfortranarray(rows)).tolist() == expected
    assert _row_norms(np.asfortranarray(np.tile(rows, (15, 1)))).tolist() == expected * 15


def test_row_norms_beyond_the_largest_float_are_infinite():
    rows = np.array([[1.7e308, -1.7e308], [1.7976931348623157e308, 1.0]])
    assert _row_norms(rows).tolist() == [math.inf, 1.7976931348623157e308]


class TestIngestFiles:
    def test_ingests_markdown_with_sections(self, manuals):
        store = VectorStore(dimension=64)
        added = ingest_files(store, manuals, OfflineEmbedder(64))
        assert added == len(store) > 0
        assert set(store.manifest) == {"tank_pressure", "engine", "electrical"}
        assert store.manifest["tank_pressure"]["title"] == "Compressed Air Tank Manual"
        assert store.manifest["tank_pressure"]["source"].endswith("tank_pressure.md")
        assert all(c.section is not None for c in store.chunks)
        assert all(c.embedding is not None for c in store.chunks)

    def test_reingesting_changed_text_leaves_no_stale_chunks(self, manuals, tmp_path):
        embedder = OfflineEmbedder(64)
        store = VectorStore(dimension=64)
        doc = tmp_path / "doc.md"
        doc.write_text("# Old\n" + "zorblat quimble " * 150, encoding="utf-8")
        ingest_files(store, [manuals[0], doc], embedder)
        before = len(store)
        old_count = sum(c.doc_id == "doc" for c in store.chunks)
        doc.write_text("# New\n" + "battery fuse cell " * 30, encoding="utf-8")
        ingest_files(store, [doc], embedder)
        new_count = sum(c.doc_id == "doc" for c in store.chunks)
        assert 0 < new_count < old_count
        assert len(store.chunks) == len(store) == len(store.matrix) == before - old_count + new_count
        assert all("zorblat" not in c.text for c in store.chunks)
        for row, chunk in enumerate(store.chunks):
            np.testing.assert_array_equal(store.matrix[row], embedder.embed(chunk.text))
            np.testing.assert_array_equal(chunk.embedding, embedder.embed(chunk.text))
        hits = retrieve(store, embedder.embed("zorblat quimble"), RetrievalConfig(top_k=100))
        assert all("zorblat" not in chunk.text for chunk, _ in hits)

    def test_ingest_rebuilds_the_matrix_once_per_call(self, manuals, monkeypatch):
        store = VectorStore(dimension=64)
        rebuilds = []
        set_chunks = VectorStore._set_chunks
        monkeypatch.setattr(VectorStore, "_set_chunks", lambda *args: rebuilds.append(set_chunks(*args)))
        ingest_files(store, manuals, OfflineEmbedder(64))
        assert len(rebuilds) == 1 and len(store.manifest) == len(manuals)

    @pytest.mark.parametrize("failure", ["missing", "not utf-8", "embedder"])
    def test_a_failing_file_leaves_the_store_unchanged(self, manuals, tmp_path, failure):
        embedder = OfflineEmbedder(64)
        store = VectorStore(dimension=64)
        ingest_files(store, manuals[:2], embedder)
        size, manifest, matrix = len(store), dict(store.manifest), store.matrix
        good = tmp_path / "pump.md"
        good.write_text("# Pump\n" + "impeller seal " * 90, encoding="utf-8")
        bad = tmp_path / "bad.md"
        if failure == "not utf-8":
            bad.write_bytes(b"# Bad\ncaf\xe9\n")
        elif failure == "embedder":
            bad.write_text("# Bad\nunreachable endpoint\n", encoding="utf-8")

            class Failing(OfflineEmbedder):
                def embed(self, text):
                    if "unreachable" in text:
                        raise EndpointError("embedding endpoint unreachable")
                    return super().embed(text)

            embedder = Failing(64)
        with pytest.raises((DataError, EndpointError)):
            ingest_files(store, [manuals[2], good, bad], embedder)
        assert len(store) == size and store.manifest == manifest and store.matrix is matrix
        assert all(chunk.embedding.base is matrix for chunk in store.chunks)

    def test_reingest_is_idempotent(self, manuals):
        store = VectorStore(dimension=64)
        embedder = OfflineEmbedder(64)
        ingest_files(store, manuals, embedder)
        size = len(store)
        ingest_files(store, manuals, embedder)
        assert len(store) == size

    def test_plain_text_gets_no_sections(self, tmp_path):
        note = tmp_path / "note.txt"
        note.write_text("plain body about valves " * 20, encoding="utf-8")
        store = VectorStore(dimension=32)
        ingest_files(store, [note], OfflineEmbedder(32))
        assert set(store.manifest) == {"note"}
        assert all(c.section is None for c in store.chunks)

    def test_missing_file_raises_io_error(self, tmp_path):
        store = VectorStore(dimension=32)
        with pytest.raises(IoError):
            ingest_files(store, [tmp_path / "ghost.md"], OfflineEmbedder(32))
