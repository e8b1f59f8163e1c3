from __future__ import annotations

import http.server
import itertools
import json
import math
import threading
import time
import tracemalloc
import urllib.error
import urllib.request

import numpy as np
import pytest

import faultcast.endpoints as endpoints
from faultcast import cli
from faultcast.endpoints import EndpointsConfig
from faultcast.errors import (
    DimensionMismatch,
    EmptyStore,
    EndpointError,
    MissingDescriptor,
    Timeout,
)
from faultcast.knowledge import (
    KnowledgeChunk,
    OfflineEmbedder,
    RemoteEmbedder,
    VectorStore,
    ingest_files,
)
from faultcast.kpi import KpiDescriptor, parse_kpi_id
from faultcast.ranker import KpiAnomaly
from faultcast.troubleshoot import (
    _SPARSE_SHARE,
    CONTEXT_HEADER,
    QUESTION_PREFIX,
    EchoClient,
    HttpCompletionClient,
    PromptSpec,
    RetrievalConfig,
    build_prompt,
    compose_augmented_prompt,
    retrieve,
    troubleshoot,
)

from helpers import cosine_similarity

PRESSURE = parse_kpi_id("pressure@tank-1")
RECHARGE = parse_kpi_id("recharge-time@compressor-1")
TORQUE = parse_kpi_id("torque@engine-1")

DESCRIPTORS = {
    PRESSURE: KpiDescriptor(kpi=PRESSURE, description="tank pressure"),
    RECHARGE: KpiDescriptor(kpi=RECHARGE, description="recharge duration"),
    TORQUE: KpiDescriptor(kpi=TORQUE, description="engine torque"),
}


def _anomaly(kpi, score):
    return KpiAnomaly(kpi=kpi, score=score, kpi_threshold=0.0)


class TestBuildPrompt:
    def test_orders_by_score_and_caps_the_count(self):
        anomalies = [_anomaly(TORQUE, 2.0), _anomaly(PRESSURE, 9.0), _anomaly(RECHARGE, 5.0)]
        prompt = build_prompt(anomalies, DESCRIPTORS, PromptSpec(kpi_count=2))
        assert prompt == QUESTION_PREFIX + "tank pressure, recharge duration"

    def test_score_ties_break_on_the_kpi_name(self):
        anomalies = [_anomaly(RECHARGE, 5.0), _anomaly(PRESSURE, 5.0)]
        prompt = build_prompt(anomalies, DESCRIPTORS, PromptSpec(kpi_count=2))
        # "pressure@tank-1" sorts before "recharge-time@compressor-1"
        assert prompt == QUESTION_PREFIX + "tank pressure, recharge duration"

    def test_duplicate_descriptions_appear_once(self):
        twin = parse_kpi_id("pressure@tank-2")
        descriptors = dict(DESCRIPTORS)
        descriptors[twin] = KpiDescriptor(kpi=twin, description="tank pressure")
        anomalies = [_anomaly(PRESSURE, 9.0), _anomaly(twin, 8.0), _anomaly(RECHARGE, 7.0)]
        prompt = build_prompt(anomalies, descriptors, PromptSpec(kpi_count=3))
        assert prompt == QUESTION_PREFIX + "tank pressure, recharge duration"

    def test_missing_descriptor_raises(self):
        with pytest.raises(MissingDescriptor):
            build_prompt([_anomaly(parse_kpi_id("ghost@x"), 1.0)], DESCRIPTORS)

    def test_empty_anomalies_raise(self):
        with pytest.raises(ValueError):
            build_prompt([], DESCRIPTORS)

    def test_spec_bounds(self):
        with pytest.raises(ValueError):
            PromptSpec(kpi_count=1)
        with pytest.raises(ValueError):
            PromptSpec(kpi_count=5)
        assert PromptSpec().kpi_count == 3


class TestCosineSimilarity:
    def test_reference_angles(self):
        e0 = np.array([1.0, 0.0])
        assert cosine_similarity(e0, np.array([2.0, 0.0])) == pytest.approx(1.0)
        assert cosine_similarity(e0, np.array([0.0, 3.0])) == pytest.approx(0.0)
        assert cosine_similarity(e0, np.array([-1.0, 0.0])) == pytest.approx(-1.0)
        assert cosine_similarity(e0, np.array([1.0, 1.0])) == pytest.approx(1 / np.sqrt(2))

    def test_zero_vector_scores_zero(self):
        assert cosine_similarity(np.zeros(2), np.array([1.0, 0.0])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_similarity(np.zeros(2), np.zeros(3))


def _axis_chunk(chunk_id: str, direction: np.ndarray) -> KnowledgeChunk:
    return KnowledgeChunk(
        chunk_id=chunk_id,
        doc_id=chunk_id.split("#")[0],
        text=f"text of {chunk_id}",
        char_start=0,
        char_end=10,
        embedding=np.asarray(direction, dtype=np.float64),
    )


@pytest.fixture
def axis_store():
    store = VectorStore(dimension=3, embedder_name="offline")
    store.add_documents(
        {
            "m": (
                "M",
                "m.txt",
                [
                    _axis_chunk("m#0000", [1.0, 0.0, 0.0]),
                    _axis_chunk("m#0001", [1.0, 1.0, 0.0]),
                    _axis_chunk("m#0002", [0.0, 1.0, 0.0]),
                ],
            )
        }
    )
    return store


class TestRetrieve:
    def test_orders_by_similarity(self, axis_store):
        query = np.array([1.0, 0.0, 0.0])
        result = retrieve(axis_store, query, RetrievalConfig(top_k=3, min_similarity=-1.0))
        assert [c.chunk_id for c, _ in result] == ["m#0000", "m#0001", "m#0002"]
        sims = [s for _, s in result]
        assert sims[0] == pytest.approx(1.0)
        assert sims[1] == pytest.approx(1 / np.sqrt(2))
        assert sims[2] == pytest.approx(0.0)

    def test_top_k_caps_results(self, axis_store):
        result = retrieve(axis_store, np.array([1.0, 0.0, 0.0]), RetrievalConfig(top_k=2))
        assert len(result) == 2

    def test_min_similarity_is_inclusive(self, axis_store):
        result = retrieve(
            axis_store, np.array([1.0, 0.0, 0.0]), RetrievalConfig(top_k=3, min_similarity=1.0)
        )
        assert [c.chunk_id for c, _ in result] == ["m#0000"]

    def test_ties_break_on_chunk_id(self):
        # Parallel chunks, and chunks at the same angle to each query, through
        # the gather and the full product; every product and sum here is
        # exact, so equal true similarities compute equal.
        def padded(values):
            return np.pad(values, (0, 64 - len(values)))

        pairs = [([1.0], [2.0]), ([1.0, 3.0, 2.0, 0.0], [3.0, 1.0, 0.0, 2.0])]
        for (first, second), query in itertools.product(pairs, [[1.0, 1.0], [1.0] * 64]):
            store = VectorStore(dimension=64, embedder_name="offline")
            store.add_documents(
                {
                    "m": (
                        "M",
                        "m.txt",
                        [_axis_chunk("m#0001", padded(second)), _axis_chunk("m#0000", padded(first))],
                    )
                }
            )
            result = retrieve(store, padded(query), RetrievalConfig(top_k=2))
            assert [c.chunk_id for c, _ in result] == ["m#0000", "m#0001"]
            assert result[0][1] == result[1][1]

    def test_empty_store_raises(self):
        with pytest.raises(EmptyStore):
            retrieve(VectorStore(dimension=2), np.array([1.0, 0.0]))

    def test_wrong_query_dimension(self, axis_store):
        with pytest.raises(DimensionMismatch):
            retrieve(axis_store, np.array([1.0, 0.0]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RetrievalConfig(top_k=0)
        with pytest.raises(ValueError):
            RetrievalConfig(min_similarity=1.5)


def _brute_force(store, query, config):
    """The reference ranking: one cosine_similarity call per chunk."""
    scored = [(chunk, cosine_similarity(query, chunk.embedding)) for chunk in store.chunks]
    scored.sort(key=lambda pair: (-pair[1], pair[0].chunk_id))
    return [pair for pair in scored if pair[1] >= config.min_similarity][: config.top_k]


@pytest.fixture
def multi_doc_store(manuals, tmp_path):
    """Small chunks in 64 dimensions, two documents with identical text."""
    twin_text = "Drain the condensate, then check the tank pressure switch.\n" * 8
    for name in ("twin_a.txt", "twin_b.txt"):
        (tmp_path / name).write_text(twin_text, encoding="utf-8")
    store = VectorStore(dimension=64, embedder_name="offline")
    paths = [*manuals, tmp_path / "twin_a.txt", tmp_path / "twin_b.txt"]
    ingest_files(store, paths, OfflineEmbedder(64), max_chars=160, overlap_chars=40)
    return store


def _sparse_query(dimension, nonzero, rng):
    query = np.zeros(dimension)
    query[rng.choice(dimension, nonzero, replace=False)] = rng.standard_normal(nonzero)
    return query


def _queries(dimension):
    """Offline, one-hot, dense and all-zero queries, and both sides of the gather cutoff."""
    embedder = OfflineEmbedder(dimension)
    texts = ["tank pressure switch", "engine shaft torque", "battery current fuse", "zzz"]
    rng = np.random.default_rng(7)
    cutoff = math.ceil(_SPARSE_SHARE * dimension)
    return [embedder.embed(t) for t in texts] + [
        np.eye(dimension)[5],
        _sparse_query(dimension, cutoff - 1, rng),
        _sparse_query(dimension, cutoff, rng),
        rng.standard_normal(dimension),
        np.zeros(dimension),
    ]


class TestMatrixRetrieval:
    @pytest.mark.parametrize(
        "config",
        [
            RetrievalConfig(),
            RetrievalConfig(top_k=1),
            RetrievalConfig(top_k=1000, min_similarity=-1.0),
            RetrievalConfig(top_k=7, min_similarity=0.3),
        ],
    )
    def test_agrees_with_brute_force_cosine(self, multi_doc_store, config):
        store = multi_doc_store
        assert len(store.manifest) == 5 and len(store) > 50
        for query in _queries(store.dimension):
            reference = _brute_force(store, query, config)
            exact = {c.chunk_id: cosine_similarity(query, c.embedding) for c in store.chunks}
            result = retrieve(store, query, config)
            assert len(result) == len(reference)
            for (chunk, similarity), (expected, expected_similarity) in zip(result, reference):
                assert abs(similarity - expected_similarity) <= 1e-12
                if chunk.chunk_id != expected.chunk_id:
                    assert abs(exact[chunk.chunk_id] - expected_similarity) <= 1e-12

    def test_identical_chunks_tie_on_chunk_id(self, multi_doc_store):
        query = OfflineEmbedder(64).embed("condensate tank pressure switch")
        result = retrieve(multi_doc_store, query, RetrievalConfig(top_k=2))
        (first, first_similarity), (second, second_similarity) = result
        assert (first.doc_id, second.doc_id) == ("twin_a", "twin_b")
        assert first.text == second.text
        assert first_similarity == second_similarity

    def test_an_offline_query_copies_no_large_share_of_the_matrix(self):
        rng = np.random.default_rng(11)
        words = ["tank", "pressure", "valve", "engine", "torque", "fuse", "battery", "seal", "pump"]
        embedder = OfflineEmbedder(512)
        chunks = [
            _axis_chunk(f"m#{i:04d}", embedder.embed(" ".join(rng.choice(words, 40)) + f" part{i}"))
            for i in range(1200)
        ]
        store = VectorStore(dimension=512)
        store.add_documents({"m": ("M", "m.txt", chunks)})
        query = embedder.embed("tank pressure valve")
        retrieve(store, query)
        tracemalloc.start()
        try:
            retrieve(store, query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < store.matrix.nbytes / 8

    def test_loaded_store_retrieves_like_the_in_memory_store(self, multi_doc_store, tmp_path):
        path = tmp_path / "store.json"
        multi_doc_store.save(path)
        loaded = VectorStore.load(path)
        config = RetrievalConfig(top_k=1000, min_similarity=-1.0)
        for query in _queries(multi_doc_store.dimension):
            mine = [(c.chunk_id, s) for c, s in retrieve(multi_doc_store, query, config)]
            theirs = [(c.chunk_id, s) for c, s in retrieve(loaded, query, config)]
            assert theirs == mine


def test_compose_augmented_prompt_exact_layout(axis_store):
    retrieved = [(axis_store.chunks[0], 1.0), (axis_store.chunks[1], 0.7)]
    augmented = compose_augmented_prompt("Why?", retrieved)
    assert augmented == (
        "Use the following context to answer.\n\n"
        "[source: m#0000]\ntext of m#0000\n\n"
        "[source: m#0001]\ntext of m#0001\n\n"
        "Question: Why?"
    )
    assert compose_augmented_prompt("Why?", []) == (
        "Use the following context to answer.\n\nQuestion: Why?"
    )


class TestEchoClient:
    def test_returns_the_context_portion(self):
        augmented = (
            CONTEXT_HEADER + "\n\n" + "[source: a#0000]\nalpha\n\n" + "Question: Why?"
        )
        assert EchoClient().complete(augmented) == "[source: a#0000]\nalpha\n\n"

    def test_without_markers_returns_everything(self):
        assert EchoClient().complete("freeform") == "freeform"


class TestTroubleshootOffline:
    def test_full_pipeline_against_the_manuals(self, kb_store):
        anomalies = [_anomaly(PRESSURE, 9.0), _anomaly(RECHARGE, 5.0)]
        result = troubleshoot(
            anomalies, DESCRIPTORS, kb_store, spec=PromptSpec(kpi_count=2)
        )
        assert result.prompt == QUESTION_PREFIX + "tank pressure, recharge duration"
        assert 1 <= len(result.retrieved) <= 4
        sims = [s for _, s in result.retrieved]
        assert sims == sorted(sims, reverse=True)
        assert result.sources[0][0] == "tank_pressure"
        assert [chunk_id for _, _, chunk_id in result.sources] == [
            chunk_id for chunk_id, _ in result.retrieved
        ]
        assert all(section is not None for _, section, _ in result.sources)
        # the echo client returns exactly the context between header and question
        assert result.augmented_prompt == (
            CONTEXT_HEADER + "\n\n" + result.answer_text + "Question: " + result.prompt
        )

    def test_retrieval_config_is_honored(self, kb_store):
        anomalies = [_anomaly(PRESSURE, 9.0), _anomaly(RECHARGE, 5.0)]
        result = troubleshoot(
            anomalies,
            DESCRIPTORS,
            kb_store,
            spec=PromptSpec(kpi_count=2),
            config=RetrievalConfig(top_k=1),
        )
        assert len(result.retrieved) == 1

    def test_non_offline_store_needs_an_explicit_embedder(self):
        store = VectorStore(dimension=4, embedder_name="remote")
        store.add_documents({"m": ("M", "m.txt", [_axis_chunk("m#0000", [1.0, 0.0, 0.0, 0.0])])})
        with pytest.raises(ValueError, match="embedder"):
            troubleshoot([_anomaly(PRESSURE, 1.0)], DESCRIPTORS, store, spec=PromptSpec(kpi_count=2))
        # with a matching embedder it runs
        result = troubleshoot(
            [_anomaly(PRESSURE, 1.0)],
            DESCRIPTORS,
            store,
            spec=PromptSpec(kpi_count=2),
            embedder=OfflineEmbedder(4),
        )
        assert result.answer_text

    def test_empty_store_raises(self):
        with pytest.raises(EmptyStore):
            troubleshoot(
                [_anomaly(PRESSURE, 1.0)],
                DESCRIPTORS,
                VectorStore(dimension=8),
                spec=PromptSpec(kpi_count=2),
            )


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except ValueError:
            body = None
        self.server.requests.append((self.path, body))
        self.server.received.append((self.command, self.headers, raw))
        status, payload = self.server.behavior(self.path, body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        try:
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client stopped waiting (the timeout test): nobody is left to answer

    def log_message(self, fmt, *args):
        return


@pytest.fixture
def endpoint_server(monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
    monkeypatch.setenv("no_proxy", "127.0.0.1,localhost")
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.requests = []
    server.received = []
    server.behavior = lambda path, body: (200, b"{}")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def recorded_sleeps(monkeypatch):
    delays = []
    monkeypatch.setattr(endpoints.time, "sleep", delays.append)
    return delays


def _endpoint(server, **policy) -> EndpointsConfig:
    return EndpointsConfig(base_url=server.url, completion_model="helper", embed_model="embed", **policy)


class TestPostJson:
    def test_retries_until_success_with_doubling_backoff(self, endpoint_server, recorded_sleeps):
        def flaky(path, body):
            if len(endpoint_server.requests) < 3:
                return 500, b"{}"
            return 200, json.dumps({"ok": True}).encode()

        endpoint_server.behavior = flaky
        body = endpoints.post_json(_endpoint(endpoint_server, retries=2, backoff=0.1), "x", {"a": 1})
        assert body == {"ok": True}
        assert len(endpoint_server.requests) == 3
        assert recorded_sleeps == [0.1, 0.2]

    def test_exhausted_retries_raise_endpoint_error(self, endpoint_server, recorded_sleeps):
        endpoint_server.behavior = lambda path, body: (500, b"{}")
        with pytest.raises(EndpointError):
            endpoints.post_json(_endpoint(endpoint_server, retries=2, backoff=0.1), "x", {})
        assert len(endpoint_server.requests) == 3
        assert recorded_sleeps == [0.1, 0.2]

    def test_zero_retries_fail_fast(self, endpoint_server, recorded_sleeps):
        endpoint_server.behavior = lambda path, body: (500, b"{}")
        with pytest.raises(EndpointError):
            endpoints.post_json(_endpoint(endpoint_server, retries=0), "x", {})
        assert len(endpoint_server.requests) == 1
        assert recorded_sleeps == []

    def test_invalid_json_body_is_retried(self, endpoint_server, recorded_sleeps):
        endpoint_server.behavior = lambda path, body: (200, b"not json")
        with pytest.raises(EndpointError):
            endpoints.post_json(_endpoint(endpoint_server, retries=1, backoff=0.1), "x", {})
        assert len(endpoint_server.requests) == 2

    def test_non_object_json_fails_without_retry(self, endpoint_server, recorded_sleeps):
        endpoint_server.behavior = lambda path, body: (200, b"[1, 2]")
        with pytest.raises(EndpointError, match="JSON object"):
            endpoints.post_json(_endpoint(endpoint_server, retries=2), "x", {})
        assert len(endpoint_server.requests) == 1
        assert recorded_sleeps == []

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_a_non_finite_literal_fails_without_retry(self, endpoint_server, recorded_sleeps, literal):
        endpoint_server.behavior = lambda path, body: (200, f'{{"embeddings": [[{literal}]]}}'.encode())
        with pytest.raises(EndpointError, match=f"JSON literal {literal}, which is not a finite number"):
            endpoints.post_json(_endpoint(endpoint_server, retries=2), "x", {})
        assert len(endpoint_server.requests) == 1
        assert recorded_sleeps == []

    def test_timeout_raises_the_timeout_subclass(self, endpoint_server):
        def slow(path, body):
            time.sleep(0.5)
            return 200, b"{}"

        endpoint_server.behavior = slow
        with pytest.raises(Timeout):
            endpoints.post_json(_endpoint(endpoint_server, timeout=0.05, retries=0), "x", {})

    @pytest.mark.parametrize(
        "error", [TimeoutError("timed out"), urllib.error.URLError(TimeoutError("timed out"))], ids=["read", "connect"]
    )
    def test_a_read_or_connect_timeout_is_the_timeout_subclass(self, monkeypatch, recorded_sleeps, error):
        def urlopen(request, timeout):
            raise error

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)  # post_json imports it when called
        with pytest.raises(Timeout, match="no answer within 30.0s"):
            endpoints.post_json(EndpointsConfig(retries=1, backoff=0.1), "x", {})
        assert recorded_sleeps == [0.1]

    @pytest.mark.parametrize("base_url", ["localhost:11434", "ftp://x", "data:,{}", "file"])
    def test_a_base_url_that_is_not_http_fails_before_any_attempt(
        self, endpoint_server, recorded_sleeps, tmp_path, base_url
    ):
        if base_url == "file":
            (tmp_path / "x").write_text("{}", encoding="utf-8")
            base_url = tmp_path.as_uri()
        endpoint = EndpointsConfig(base_url=base_url, retries=2, backoff=0.1)
        with pytest.raises(EndpointError, match="base URL must be an http:// or https:// URL"):
            endpoints.post_json(endpoint, "x", {})
        assert endpoint_server.requests == []
        assert recorded_sleeps == []


class TestHttpCompletionClient:
    def test_sends_model_and_prompt(self, endpoint_server):
        endpoint_server.behavior = lambda path, body: (
            200,
            json.dumps({"response": "drain the tank"}).encode(),
        )
        endpoint = EndpointsConfig(base_url=endpoint_server.url + "/", completion_model="helper")
        client = HttpCompletionClient(endpoint)
        assert client.complete("augmented text") == "drain the tank"
        path, body = endpoint_server.requests[0]
        assert path == "/complete"
        assert body == {"model": "helper", "prompt": "augmented text"}

    def test_posts_utf8_json_with_its_content_type(self, endpoint_server):
        endpoint_server.behavior = lambda path, body: (200, json.dumps({"response": "ok"}).encode())
        HttpCompletionClient(_endpoint(endpoint_server)).complete("é€😀 tank")
        method, headers, raw = endpoint_server.received[0]
        assert method == "POST"
        assert headers["Content-Type"] == "application/json"
        assert raw == json.dumps({"model": "helper", "prompt": "é€😀 tank"}).encode()

    def test_missing_response_field(self, endpoint_server):
        endpoint_server.behavior = lambda path, body: (200, b"{}")
        client = HttpCompletionClient(_endpoint(endpoint_server, retries=0))
        with pytest.raises(EndpointError, match="response"):
            client.complete("x")

    @pytest.mark.parametrize("response", [None, 5, ["drain"]], ids=repr)
    def test_non_string_response_is_an_endpoint_error(self, endpoint_server, response):
        endpoint_server.behavior = lambda path, body: (200, json.dumps({"response": response}).encode())
        client = HttpCompletionClient(_endpoint(endpoint_server, retries=0))
        with pytest.raises(EndpointError, match="string 'response'"):
            client.complete("x")


class TestRemoteEmbedder:
    def test_sends_one_input_per_call(self, endpoint_server):
        endpoint_server.behavior = lambda path, body: (
            200,
            json.dumps({"embeddings": [[0.1, 0.2]]}).encode(),
        )
        embedder = RemoteEmbedder(_endpoint(endpoint_server), 2)
        vector = embedder.embed("tank pressure")
        np.testing.assert_allclose(vector, [0.1, 0.2])
        path, body = endpoint_server.requests[0]
        assert path == "/embed"
        assert body == {"model": "embed", "input": ["tank pressure"]}

    def test_posts_utf8_json_with_its_content_type(self, endpoint_server):
        endpoint_server.behavior = lambda path, body: (200, json.dumps({"embeddings": [[0.1, 0.2]]}).encode())
        RemoteEmbedder(_endpoint(endpoint_server), 2).embed("é€😀 tank")
        method, headers, raw = endpoint_server.received[0]
        assert method == "POST"
        assert headers["Content-Type"] == "application/json"
        assert raw == json.dumps({"model": "embed", "input": ["é€😀 tank"]}).encode()

    def test_dimension_drift_is_rejected(self, endpoint_server):
        responses = [[[0.1, 0.2]], [[0.1, 0.2, 0.3]]]

        def shifting(path, body):
            payload = {"embeddings": responses[len(endpoint_server.requests) - 1]}
            return 200, json.dumps(payload).encode()

        endpoint_server.behavior = shifting
        embedder = RemoteEmbedder(_endpoint(endpoint_server), 2)
        embedder.embed("first")
        with pytest.raises(DimensionMismatch):
            embedder.embed("second")

    def test_declared_dimension_is_enforced(self, endpoint_server):
        endpoint_server.behavior = lambda path, body: (
            200,
            json.dumps({"embeddings": [[0.1, 0.2]]}).encode(),
        )
        embedder = RemoteEmbedder(_endpoint(endpoint_server), dimension=3)
        with pytest.raises(DimensionMismatch):
            embedder.embed("text")

    def test_malformed_payload(self, endpoint_server):
        endpoint_server.behavior = lambda path, body: (200, b'{"foo": 1}')
        embedder = RemoteEmbedder(_endpoint(endpoint_server, retries=0), 2)
        with pytest.raises(EndpointError, match="malformed"):
            embedder.embed("text")

    @pytest.mark.parametrize(
        "embeddings",
        [[5], [["0.5", "0.25"]], [[0.5, True]], [[[0.5]]], [[0.5, None]], [], "ab"],
        ids=repr,
    )
    def test_an_embedding_that_is_not_a_vector_of_numbers_is_malformed(
        self, endpoint_server, embeddings
    ):
        endpoint_server.behavior = lambda path, body: (
            200,
            json.dumps({"embeddings": embeddings}).encode(),
        )
        embedder = RemoteEmbedder(_endpoint(endpoint_server, retries=0), dimension=2)
        with pytest.raises(EndpointError, match="malformed"):
            embedder.embed("text")

    def test_kb_ingest_exits_three_on_a_malformed_embedding(
        self, endpoint_server, manuals, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        endpoint_server.behavior = lambda path, body: (200, b'{"embeddings": [5]}')
        argv = ["kb", "ingest", str(manuals[0]), "--embedder", "remote", "--endpoints.retries", "0"]
        assert cli.main([*argv, "--endpoints.base_url", endpoint_server.url]) == 3
        assert capsys.readouterr().err.startswith("endpoint error: malformed embedding response")

    def test_empty_text_never_reaches_the_network(self, endpoint_server):
        embedder = RemoteEmbedder(_endpoint(endpoint_server), 2)
        with pytest.raises(ValueError):
            embedder.embed("")
        assert endpoint_server.requests == []
