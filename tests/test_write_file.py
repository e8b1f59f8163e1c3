"""``errors.write_file``: every artifact is replaced whole, or left as it was.

A failed write is made in process by a file that takes part of the new bytes
and then fails as a full disk does (``helpers.disk_fills_up``).  The command
line tests in ``test_cli.py`` add a ``detect --out`` over an existing file and
a real ``kb ingest`` cut short by the file size limit.
"""

from __future__ import annotations

import os
import re
import stat

import numpy as np
import pytest

from faultcast.classifier import load_classifier, save_classifier
from faultcast.errors import IoError, write_file
from faultcast.knowledge import OfflineEmbedder, VectorStore, chunk_document
from faultcast.kpi import KpiId, TimeSeriesDataset, load_dataset, write_dataset

from helpers import disk_fills_up, make_classifier, store_file_parses, unit_baseline, zero_model

KPIS = [KpiId("load", "pump"), KpiId("temp", "pump")]


def _store(documents: int) -> VectorStore:
    embedder = OfflineEmbedder(16)
    store = VectorStore(dimension=16)
    for index in range(documents):
        chunks = chunk_document(f"doc{index}", f"tank pressure valve {index} " * 40, max_chars=80, overlap_chars=10)
        for chunk in chunks:
            chunk.embedding = embedder.embed(chunk.text)
        store.add_documents({f"doc{index}": chunks})
    return store


def _classifier(state_mu: float):
    baseline = unit_baseline(2)
    baseline.state_mu = state_mu
    return make_classifier(zero_model(2), baseline, KPIS)


def _dataset(rows: int) -> TimeSeriesDataset:
    return TimeSeriesDataset(np.arange(rows), KPIS, np.linspace(-1.0, 1.0, 2 * rows).reshape(rows, 2))


# kind -> (what the error names, write the old or the new artifact, what reading it back gives)
ARTIFACTS = {
    "store": (
        "store",
        lambda new, path: _store(3 if new else 1).save(path),
        lambda path: [(c.chunk_id, c.embedding.tobytes()) for c in VectorStore.load(path).chunks],
    ),
    "model": (
        "model",
        lambda new, path: save_classifier(_classifier(5.0 if new else 0.0), path),
        lambda path: load_classifier(path).baseline.state_mu,
    ),
    "dataset": (
        "dataset",
        lambda new, path: write_dataset(_dataset(200 if new else 3), path),
        lambda path: load_dataset(path).values.tolist(),
    ),
}


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_a_write_that_fails_midway_leaves_the_previous_file(kind, tmp_path, monkeypatch):
    what, write, read = ARTIFACTS[kind]
    path = tmp_path / f"{kind}.out"
    write(False, path)
    old_bytes, old_value = path.read_bytes(), read(path)
    sized = tmp_path / "sized" / f"{kind}.out"
    sized.parent.mkdir()
    write(True, sized)
    assert sized.read_bytes() != old_bytes
    with disk_fills_up(monkeypatch, sized.stat().st_size // 2):
        with pytest.raises(IoError, match=f"^cannot write {what}: {re.escape(str(path))}$"):
            write(True, path)
    assert path.read_bytes() == old_bytes
    assert not list(tmp_path.rglob("*.tmp"))
    assert read(path) == old_value


@pytest.mark.parametrize("mode", [0o600, 0o640], ids=oct)
def test_a_replaced_file_keeps_its_permissions(tmp_path, mode):
    path = tmp_path / "model.json"
    path.write_bytes(b"old")
    path.chmod(mode)
    write_file(path, "model", b"new")
    assert path.read_bytes() == b"new"
    assert stat.S_IMODE(path.stat().st_mode) == mode


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
def test_a_new_file_gets_the_permissions_open_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        with open(tmp_path / "opened", "w", encoding="utf-8"):
            pass
        write_file(tmp_path / "written", "report", b"{}")
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "written").stat().st_mode) == stat.S_IMODE((tmp_path / "opened").stat().st_mode)


def test_a_symlinked_store_stays_a_link_and_its_target_gets_the_new_bytes(tmp_path):
    target = tmp_path / "real" / "store.json"
    target.parent.mkdir()
    _store(1).save(target)
    link = tmp_path / "store.json"
    link.symlink_to(target)
    new = _store(3)
    new.save(link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    for path in (link, target):
        assert [c.chunk_id for c in VectorStore.load(path).chunks] == [c.chunk_id for c in new.chunks]
    assert not list(tmp_path.rglob("*.tmp"))


def test_a_store_saved_through_a_symlink_keeps_its_cache_beside_the_target(tmp_path):
    target = tmp_path / "real" / "store.json"
    target.parent.mkdir()
    _store(1).save(target)
    link = tmp_path / "store.json"
    link.symlink_to(target)
    _store(3).save(link)
    beside_target = sorted(p.name for p in target.parent.iterdir())
    assert beside_target == ["store.json", "store.json.cache.f64", "store.json.cache.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["real", "store.json"]
    for path in (link, target):
        with store_file_parses() as parsed:
            assert len(VectorStore.load(path)) == len(_store(3))
        assert parsed == []


def test_a_hard_link_to_the_old_file_keeps_the_old_bytes(tmp_path):
    path = tmp_path / "verdicts.csv"
    path.write_bytes(b"old")
    os.link(path, tmp_path / "kept.csv")
    write_file(path, "verdicts", [b"n", b"ew"])
    assert path.read_bytes() == b"new"
    assert (tmp_path / "kept.csv").read_bytes() == b"old"


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_exception_from_the_data_leaves_no_temporary_file(tmp_path, error):
    path = tmp_path / "store.json"
    path.write_bytes(b"old")

    def blocks():
        yield b"new"
        raise error("stopped")

    with pytest.raises(error, match="^stopped$"):
        write_file(path, "store", blocks())
    assert path.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [path]


def test_a_target_that_is_not_a_regular_file_is_an_io_error(tmp_path):
    directory = tmp_path / "verdicts.csv"
    directory.mkdir()
    with pytest.raises(IoError, match=f"^cannot write verdicts: {re.escape(str(directory))} is not a regular file$"):
        write_file(directory, "verdicts", b"x")
    assert list(tmp_path.iterdir()) == [directory] and not list(directory.iterdir())


def test_a_missing_directory_is_an_io_error(tmp_path):
    path = tmp_path / "absent" / "model.json"
    with pytest.raises(IoError, match=f"^cannot write model: {re.escape(str(path))}$") as raised:
        write_file(path, "model", b"{}")
    assert isinstance(raised.value.__cause__, FileNotFoundError)
