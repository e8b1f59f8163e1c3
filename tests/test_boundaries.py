"""Boundary fuzzers: mutated JSON either loads or fails with a typed error.

Each test starts from a valid model, store, report, config, simulation spec
or fault spec, applies one mutation anywhere in it (drop a key or a list
item, or put a string, ``null``, a list, a boolean or the literal ``1e400``
in place of a value) and loads the result from a file.  The loaders must
return or raise a :class:`FaultcastError`; the command line must exit 0, or
exit 2 with one error line and no traceback.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faultcast
from faultcast import cli
from faultcast.classifier import StateVerdict, load_classifier, save_classifier
from faultcast.config import ToolConfig, config_to_json, load_config
from faultcast.errors import DataError, FaultcastError, SchemaError
from faultcast.knowledge import OfflineEmbedder, VectorStore, ingest_files
from faultcast.kpi import KpiId, TimeSeriesDataset, load_dataset, load_descriptors, write_dataset
from faultcast.ranker import (
    AnomalyReport,
    CausalEdge,
    CausalityGraph,
    ComponentAttribution,
    KpiAnomaly,
    RankedCause,
    load_report,
    report_to_json,
)
from faultcast.simulate import (
    FaultSpec,
    fault_to_json,
    load_fault,
    load_spec,
    make_chain_spec,
    spec_to_json,
)

from helpers import load_text, make_classifier, unit_baseline, zero_model

LOAD = KpiId("load", "pump")
TEMP = KpiId("temp", "pump")

# Sentinel written out as the JSON number literal 1e400, which decodes to inf.
HUGE = "<1e400>"
MUTATIONS = {"drop": None, "text": "x", "null": None, "list": [1], "bool": True, "1e400": HUGE}


def _paths(node: object, prefix: tuple = ()) -> list[tuple]:
    """Every key and list index under ``node``, as paths from the root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, child in items:
        paths.append((*prefix, key))
        paths.extend(_paths(child, (*prefix, key)))
    return paths


def _mutated(payload: dict, data: st.DataObject) -> str:
    path = data.draw(st.sampled_from(_paths(payload)), label="path")
    mutation = data.draw(st.sampled_from(sorted(MUTATIONS)), label="mutation")
    payload = copy.deepcopy(payload)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(MUTATIONS[mutation])
    return json.dumps(payload).replace(json.dumps(HUGE), "1e400")


def _report() -> AnomalyReport:
    return AnomalyReport(
        verdict=StateVerdict(timestamp=9, state_error=9.0, threshold=0.5, anomalous=True),
        anomalous_kpis=(
            KpiAnomaly(kpi=LOAD, score=8.0, kpi_threshold=1.0),
            KpiAnomaly(kpi=TEMP, score=4.0, kpi_threshold=1.0),
        ),
        graph=CausalityGraph(
            nodes=(LOAD, TEMP),
            edges=(CausalEdge(cause=LOAD, effect=TEMP, f_stat=12.0, p_value=0.001),),
        ),
        centrality={LOAD: 0.6, TEMP: 0.4},
        root_cause_kpis=(
            RankedCause(kpi=LOAD, centrality=0.6, score=8.0),
            RankedCause(kpi=TEMP, centrality=0.4, score=4.0),
        ),
        top_components=(ComponentAttribution(node="pump", central_kpi_count=2),),
        descriptions={LOAD: "air pressure in the starting tank", TEMP: "pump temperature"},
    )


def _model_bytes(path) -> bytes:
    save_classifier(make_classifier(zero_model(2), unit_baseline(2), [LOAD, TEMP]), path)
    return path.read_bytes()


README_FAULT = FaultSpec(onset=400, kind="offset", target=KpiId("load", "component-1"), magnitude=8.0)

# artifact -> (its bytes, given a temporary file path; sha256 of the bytes the
# hand-written encoders wrote before the dataclass codec replaced them, less
# the config's "paths.model" line since that unused field was deleted)
PINNED = {
    "spec": (
        lambda _path: spec_to_json(make_chain_spec()).encode(),
        "18a2d0f45e0caa2d78be34c608d12f6d32673489dd89f53977f908f77c4c3c9b",
    ),
    "fault": (
        lambda _path: fault_to_json(README_FAULT).encode(),
        "c514e0e8f49e626eb33953e405373f90b1424de6c81e0ef52c4b901902644fad",
    ),
    "config": (
        lambda _path: config_to_json(ToolConfig()).encode(),
        "8fade868fd9d1c4c079e6dae5363b15e1934d220b386dc136453e8af8e7167ba",
    ),
    "report": (
        lambda _path: report_to_json(_report()).encode(),
        "f6b74219f81834385bdb1a8fb7d5264f4a00ba329564c1a4d8be6f0dbe4e572b",
    ),
    "model": (
        _model_bytes,
        "4ea7a85d6424be43b54f7f14bf83c2454653622625a94c0ecfb9ad03e6d72ebf",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_the_codec_keeps_the_bytes_of_every_artifact(kind, tmp_path):
    """No trained weights are involved, so the bytes hold on any host."""
    write, expected = PINNED[kind]
    assert hashlib.sha256(write(tmp_path / "artifact.json")).hexdigest() == expected


def _json_decoding_calls() -> set[tuple[str, str]]:
    """(module, function) of every call in the package that decodes JSON text."""
    sites = set()
    for path in sorted(Path(faultcast.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                    continue
                owner = node.func.value
                decodes = node.func.attr == "json" or (
                    node.func.attr in ("load", "loads", "JSONDecoder", "raw_decode")
                    and isinstance(owner, ast.Name)
                    and owner.id == "json"
                )
                if decodes:
                    sites.add((path.stem, function.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                sites.add((path.stem, "from json import"))
    return sites


def test_outside_json_is_decoded_only_by_load_json_and_the_endpoint_client():
    """Every JSON artifact goes through ``errors.load_json``; endpoint bodies through ``post_json``."""
    assert _json_decoding_calls() == {("errors", "load_json"), ("endpoints", "post_json")}


@pytest.fixture(scope="module")
def valid(tmp_path_factory, manuals) -> dict[str, dict]:
    """One valid payload of each kind, as decoded JSON."""
    root = tmp_path_factory.mktemp("valid")
    save_classifier(
        make_classifier(zero_model(2), unit_baseline(2), [LOAD, TEMP]), root / "model.json"
    )
    store = VectorStore(dimension=16, embedder_name="offline")
    ingest_files(store, manuals[:1], OfflineEmbedder(16), max_chars=400, overlap_chars=80)
    store.save(root / "store.json")
    spec = make_chain_spec(components=2, kpis_per_component=2, noise_std=1.0, length=30, seed=0)
    fault = FaultSpec(onset=10, kind="offset", target=KpiId("load", "component-1"), magnitude=3.0)
    return {
        "model": json.loads((root / "model.json").read_text(encoding="utf-8")),
        "store": json.loads((root / "store.json").read_text(encoding="utf-8")),
        "report": json.loads(report_to_json(_report())),
        "config": json.loads(config_to_json(ToolConfig())),
        "spec": json.loads(spec_to_json(spec)),
        "fault": json.loads(fault_to_json(fault)),
    }


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


LOADERS = {
    "model": load_classifier,
    "store": VectorStore.load,
    "report": load_report,
    "config": load_config,
    "spec": load_spec,
    "fault": load_fault,
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=100)
@given(data=st.data())
def test_mutated_payload_loads_or_raises_a_faultcast_error(kind, valid, scratch, data):
    text = _mutated(valid[kind], data)
    try:
        load_text(LOADERS[kind], text, scratch)
    except FaultcastError:
        pass


@pytest.mark.parametrize("loader", LOADERS.values())
def test_a_file_that_is_not_utf8_is_a_schema_error_naming_it(loader, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"version": 1, "\xff": 0}')
    with pytest.raises(SchemaError, match="not valid JSON") as caught:
        loader(path)
    assert str(path) in str(caught.value)


@pytest.mark.parametrize(
    "loader, text",
    [
        (load_dataset, b"timestamp,a@n\n0,1\n1,\xff\n"),
        (load_descriptors, b"kpi,description\na@n,x\nb@n,\xff\n"),
    ],
)
def test_a_csv_that_is_not_utf8_is_a_schema_error_naming_it(loader, text, tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(text)
    with pytest.raises(SchemaError, match="row 3 is not valid UTF-8") as caught:
        loader(path)
    assert str(path) in str(caught.value)


@pytest.mark.parametrize(
    "command, name, text, row",
    [
        ("detect", "data", "timestamp,load@pump,bad\n0,1,2\n", 1),
        ("rank", "data", "timestamp,load@pump,bad\n0,1,2\n", 1),
        ("rank", "descriptors", "kpi,description\nload@pump,x\nbad,y\n", 3),
    ],
)
def test_cli_names_the_file_and_row_of_a_malformed_kpi_id(
    command, name, text, row, workspace, tmp_path
):
    bad = tmp_path / f"{name}.csv"
    bad.write_text(text, encoding="utf-8")
    data = bad if name == "data" else workspace / "data.csv"
    argv = [command, "--data", str(data), "--model", str(workspace / "model.json")]
    if name == "descriptors":
        argv += ["--paths.descriptors", str(bad)]
    code, err = _run([*argv, "--out", str(tmp_path / "out")])
    assert code == 2
    assert err == f"data error: {bad}: row {row}: expected exactly one '@' in KPI id: 'bad'\n"


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


CLI_INPUTS = ("model", "store", "report", "spec", "fault")


@pytest.fixture(scope="module")
def workspace(valid, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    for kind in CLI_INPUTS:
        (root / f"{kind}.json").write_text(json.dumps(valid[kind]), encoding="utf-8")
    rows = np.random.default_rng(0).normal(size=(20, 2))
    dataset = TimeSeriesDataset(timestamps=np.arange(20), kpis=[LOAD, TEMP], values=rows)
    write_dataset(dataset, str(root / "data.csv"))
    return root


# command -> (the input that is mutated, the arguments after the command)
COMMANDS = {
    "simulate spec": ("spec", ["--spec", "{spec}", "--seed", "1", "--fault", "{fault}"]),
    "simulate fault": ("fault", ["--spec", "{spec}", "--seed", "1", "--fault", "{fault}"]),
    "detect model": ("model", ["--data", "{data}", "--model", "{model}"]),
    "troubleshoot report": ("report", ["--report", "{report}", "--paths.kb_store", "{store}"]),
    "troubleshoot store": ("store", ["--report", "{report}", "--paths.kb_store", "{store}"]),
}


@pytest.mark.parametrize("case", sorted(COMMANDS))
@settings(max_examples=40)
@given(data=st.data())
def test_cli_exits_zero_or_two_with_one_error_line(case, valid, workspace, scratch, data):
    kind, arguments = COMMANDS[case]
    (scratch / f"{kind}.json").write_text(_mutated(valid[kind], data), encoding="utf-8")
    files = {name: str(workspace / f"{name}.json") for name in CLI_INPUTS}
    files.update({"data": str(workspace / "data.csv"), kind: str(scratch / f"{kind}.json")})
    argv = [case.split()[0], *(a.format(**files) for a in arguments), "--out", str(scratch / "out")]
    code, err = _run(argv)
    if code == 0:
        assert err == ""
    else:
        assert code == 2, err
        assert len(err.splitlines()) == 1, err
        # "error: " is a typed failure that is not a data problem, such as
        # an anomalous KPI without a description (MissingDescriptor).
        assert err.startswith(("data error: ", "error: ")), err


# case -> (the input that is edited, the edit, the message of its refusal)
REFUSED = {
    "null embedding": (
        "store",
        lambda store: store["chunks"][0].update(embedding=None),
        "embedding is not a list",
    ),
    "store version 1.0": ("store", lambda store: store.update(version=1.0), "unsupported store version 1.0"),
    "store version true": ("store", lambda store: store.update(version=True), "unsupported store version True"),
    "NaN anomaly score": (
        "report",
        lambda report: report["anomalous_kpis"][0].update(score=math.nan),
        "report holds the JSON literal NaN, which is not a number",
    ),
}


def _edited(valid, case, directory) -> tuple[str, Path]:
    kind, edit, _ = REFUSED[case]
    payload = copy.deepcopy(valid[kind])
    edit(payload)
    path = directory / f"{kind}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return kind, path


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_troubleshoot_exits_two_with_one_line_naming_the_file(case, valid, workspace, tmp_path):
    kind, bad = _edited(valid, case, tmp_path)
    files = {name: workspace / f"{name}.json" for name in ("report", "store")}
    files[kind] = bad
    argv = ["troubleshoot", "--report", str(files["report"]), "--paths.kb_store", str(files["store"])]
    code, err = _run([*argv, "--out", str(tmp_path / "answer.md")])
    assert code == 2
    assert err == f"data error: {REFUSED[case][2]} (in {bad})\n"


def test_kb_ingest_exits_two_on_a_chunk_without_embedding(valid, manuals, tmp_path):
    _, bad = _edited(valid, "null embedding", tmp_path)
    code, err = _run(["kb", "ingest", str(manuals[0]), "--paths.kb_store", str(bad)])
    assert code == 2
    assert err == f"data error: embedding is not a list (in {bad})\n"


def test_a_report_with_an_infinite_f_statistic_loads(tmp_path):
    """An exact unrestricted Granger fit gives F = inf, written as the literal Infinity."""
    report = _report()
    edge = dataclasses.replace(report.graph.edges[0], f_stat=math.inf)
    report = dataclasses.replace(report, graph=dataclasses.replace(report.graph, edges=(edge,)))
    text = report_to_json(report)
    assert '"f": Infinity' in text
    assert load_text(load_report, text, tmp_path) == report


DESCRIPTOR_TABLE = [b"kpi,description,unit", b"load@pump,pump load,kW", b"temp@pump,pump temperature,C"]


def _short_row(lines, i):
    lines[i] = lines[i].split(b",")[0]


def _blank_row(lines, i):
    lines.insert(i, b"")


def _empty_kpi_cell(lines, i):
    lines[i] = b"," + lines[i].partition(b",")[2]


def _missing_header(lines, i):
    del lines[0]


def _reordered_header(lines, i):
    lines[0] = b"description,kpi,unit"


def _duplicate_kpi(lines, i):
    lines.insert(i, lines[i])


def _not_utf8(lines, i):
    lines[i] += b"\xe9"


# Each edits the table's lines in place; ``i`` indexes a data row.
DESCRIPTOR_MUTATIONS = {
    f.__name__[1:]: f
    for f in (_short_row, _blank_row, _empty_kpi_cell, _missing_header, _reordered_header, _duplicate_kpi, _not_utf8)
}


@pytest.fixture(scope="module")
def rank_workspace(tmp_path_factory):
    """A model and a dataset long enough for ``rank``'s Granger window."""
    root = tmp_path_factory.mktemp("rank-descriptors")
    save_classifier(make_classifier(zero_model(2), unit_baseline(2), [LOAD, TEMP]), root / "model.json")
    rows = np.random.default_rng(1).normal(size=(60, 2))
    write_dataset(TimeSeriesDataset(timestamps=np.arange(60), kpis=[LOAD, TEMP], values=rows), str(root / "data.csv"))
    return root


def _rank_with_descriptors(workspace, directory, lines, crlf) -> tuple[int, str, Path]:
    """Write the table and load it; then ``faultcast rank`` with it."""
    table = directory / "descriptors.csv"
    table.write_bytes((b"\r\n" if crlf else b"\n").join(lines) + b"\n")
    try:
        load_descriptors(table)
    except DataError:
        pass
    argv = ["rank", "--data", str(workspace / "data.csv"), "--model", str(workspace / "model.json")]
    code, err = _run([*argv, "--paths.descriptors", str(table), "--out", str(directory / "report.json")])
    if code == 0:
        assert err == ""
    else:
        assert code == 2, err
        assert len(err.splitlines()) == 1 and err.startswith(f"data error: {table}: "), err
    return code, err, table


@pytest.mark.parametrize(
    "name, crlf, code",
    [(name, False, 0 if name == "blank_row" else 2) for name in sorted(DESCRIPTOR_MUTATIONS)] + [(None, True, 0)],
)
def test_each_descriptor_table_mutation_has_its_exit_code(rank_workspace, tmp_path, name, crlf, code):
    lines = list(DESCRIPTOR_TABLE)
    if name is not None:
        DESCRIPTOR_MUTATIONS[name](lines, 2)
    assert _rank_with_descriptors(rank_workspace, tmp_path, lines, crlf)[0] == code


@settings(max_examples=40)
@given(
    edits=st.lists(st.tuples(st.sampled_from(sorted(DESCRIPTOR_MUTATIONS)), st.integers(1, 2)), max_size=3),
    crlf=st.booleans(),
)
def test_a_mutated_descriptor_table_loads_or_fails_with_one_line(rank_workspace, scratch, edits, crlf):
    lines = list(DESCRIPTOR_TABLE)
    for name, i in edits:
        if len(lines) > i:
            DESCRIPTOR_MUTATIONS[name](lines, i)
    _rank_with_descriptors(rank_workspace, scratch, lines, crlf)
