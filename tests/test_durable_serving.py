"""Durable stores behind the serving layer.

A :class:`QueryService` given a durable store logs every acknowledged
update to the WAL, checkpoints, and closes the store's file handles on
``close()`` — and a fresh process recovering from the same directory
sees the updates. A generation that fails to prepare is never logged.
"""

import pytest

from repro.core.hopi import HopiIndex
from repro.service import QueryService
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.storage.wal import DurableIndexStore
from repro.xmlmodel.generator import dblp_like

INSERT = {
    "op": "insert_document", "doc_id": "fresh", "root_tag": "article",
    "children": [{"ref": "a", "tag": "authors"},
                 {"ref": "b", "parent": "a", "tag": "author"}],
    "links": [],
}


def durable_index(root):
    index = HopiIndex.build(dblp_like(8, seed=3))
    store = DurableIndexStore(str(root))
    store.initialize(index)
    return index, store


def test_query_service_close_closes_durable_store(tmp_path):
    index, store = durable_index(tmp_path)
    service = QueryService(index, durable_store=store)
    service.update([dict(INSERT)])
    live = canonical_snapshot_bytes(service.index.cover)
    service.close()
    assert store.wal._fh is None

    recovered_store = DurableIndexStore(str(tmp_path))
    recovered = recovered_store.recover()
    recovered_store.close()
    assert "fresh" in recovered.collection.documents
    assert canonical_snapshot_bytes(recovered.cover) == live


def test_failed_prepare_is_never_logged(tmp_path):
    """A batch whose generation cannot be prepared raises to its caller
    and leaves no WAL record: recovery returns the previous epoch, and
    the next acknowledged batch takes that epoch's successor and
    survives recovery."""
    index, store = durable_index(tmp_path)
    service = QueryService(index, durable_store=store)
    prepare = service._make_state

    def refuse_once(epoch, index):
        service._make_state = prepare
        raise RuntimeError("generation refused")

    service._make_state = refuse_once
    with pytest.raises(RuntimeError, match="generation refused"):
        service.update([dict(INSERT, doc_id="lost")])
    assert store.wal.record_count() == 0
    assert service.epoch == 0

    probe = DurableIndexStore(str(tmp_path))
    try:
        before = probe.recover()
    finally:
        probe.close()
    assert before.epoch == 0
    assert "lost" not in before.collection.documents

    assert service.update([dict(INSERT, doc_id="kept")])["epoch"] == 1
    live_docs = set(service.index.collection.documents)
    live = canonical_snapshot_bytes(service.index.cover)
    service.close()
    assert "kept" in live_docs and "lost" not in live_docs

    recovered_store = DurableIndexStore(str(tmp_path))
    recovered = recovered_store.recover()
    recovered_store.close()
    assert recovered.epoch == 1
    assert set(recovered.collection.documents) == live_docs
    assert canonical_snapshot_bytes(recovered.cover) == live
