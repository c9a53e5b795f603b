"""Durable stores behind the serving layer — sharded and single.

``repro serve --shards N --store DIR`` used to accept the flags and
silently drop durability on the floor. These tests pin the repaired
contract: a :class:`ShardRouter` given a durable store logs every
acknowledged update to the WAL, checkpoints, and closes the store's
file handles on ``close()`` — and a fresh process recovering from the
same directory sees the updates. Same for :class:`QueryService`. A
generation that fails to install on a shard is never logged.
"""

import pytest

from repro.core.hopi import HopiIndex
from repro.service import QueryService, ShardRouter, ShardUnavailableError
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


def test_shard_router_persists_updates_and_closes_store(tmp_path):
    index, store = durable_index(tmp_path)
    router = ShardRouter(index, 3, durable_store=store)
    result = router.update([dict(INSERT)])
    assert result["applied"] == 1
    live = canonical_snapshot_bytes(router.index.cover)
    router.close()
    # close() must release the WAL file handle — serving daemons are
    # long-lived and a leaked fd per swap adds up
    assert store.wal._fh is None

    recovered_store = DurableIndexStore(str(tmp_path))
    recovered = recovered_store.recover()
    recovered_store.close()
    assert "fresh" in recovered.collection.documents
    assert canonical_snapshot_bytes(recovered.cover) == live


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


def test_shard_router_and_single_service_recover_identically(tmp_path):
    base = HopiIndex.build(dblp_like(8, seed=3))

    single_store = DurableIndexStore(str(tmp_path / "single"))
    single_store.initialize(base.copy())
    single = QueryService(base.copy(), durable_store=single_store)
    single.update([dict(INSERT)])
    single.close()

    shard_store = DurableIndexStore(str(tmp_path / "sharded"))
    shard_store.initialize(base.copy())
    router = ShardRouter(base.copy(), 3, durable_store=shard_store)
    router.update([dict(INSERT)])
    router.close()

    a = DurableIndexStore(str(tmp_path / "single"))
    b = DurableIndexStore(str(tmp_path / "sharded"))
    try:
        assert canonical_snapshot_bytes(
            a.recover().cover
        ) == canonical_snapshot_bytes(b.recover().cover)
    finally:
        a.close()
        b.close()


def test_failed_shard_install_is_never_logged(tmp_path):
    """A batch whose generation cannot be installed on every shard
    answers 503 and must leave no WAL record: the next acknowledged
    batch takes the same epoch, and recovery returns what the live
    router serves — not the refused batch."""
    index, store = durable_index(tmp_path)
    router = ShardRouter(index, 3, durable_store=store)

    def refuse(*args, **kwargs):
        raise ShardUnavailableError([1], "shard 1 refused the install")

    router._clients[1].install = refuse
    with pytest.raises(ShardUnavailableError):
        router.update([dict(INSERT, doc_id="lost")])
    del router._clients[1].install  # the shard is back
    assert router.update([dict(INSERT, doc_id="kept")])["epoch"] == 1
    live_docs = set(router.index.collection.documents)
    live = canonical_snapshot_bytes(router.index.cover)
    router.close()
    assert "kept" in live_docs and "lost" not in live_docs

    recovered_store = DurableIndexStore(str(tmp_path))
    recovered = recovered_store.recover()
    recovered_store.close()
    assert set(recovered.collection.documents) == live_docs
    assert canonical_snapshot_bytes(recovered.cover) == live
