"""Delta checkpoints: a delta-maintained ``index.db`` equals a fresh write.

A checkpoint writes only what changed since the last one: the label rows
whose arrays are not the base fork's own objects, and the collection
rows that differ by key or object identity
(:meth:`repro.storage.db.SQLiteCoverStore.write_index`). The oracle is
``persist_index`` of the same live index into an empty file: after
every checkpoint both files hold the same rows in every table, and they
load to the same canonical snapshot bytes.
"""

import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import pytest
from harness import fresh_tables, stored_tables
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.hopi import HopiIndex
from repro.service.service import QueryService, UpdateError
from repro.storage.db import load_index
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.storage.wal import DurableIndexStore
from repro.xmlmodel.generator import dblp_like

def assert_snapshot_is_fresh(store, index, directory):
    """``store``'s file holds exactly what a from-scratch write of
    ``index`` holds."""
    assert stored_tables(store.db_path) == fresh_tables(index, directory)
    loaded = load_index(store.db_path)
    assert loaded.epoch == index.epoch
    assert canonical_snapshot_bytes(loaded.cover) == canonical_snapshot_bytes(
        load_index(os.path.join(directory, "fresh.db")).cover
    )


@lru_cache(maxsize=None)
def _built(distance):
    return HopiIndex.build(dblp_like(8, seed=4), distance=distance)


def small_index(distance=False):
    return _built(distance).copy()


def roots(index):
    documents = index.collection.documents
    return [documents[d].root for d in sorted(documents)]


# ---------------------------------------------------------------------------
# differential oracle over random op sequences
# ---------------------------------------------------------------------------

KINDS = (
    "insert_element", "insert_edge", "insert_document", "delete_sep",
    "delete_nonsep", "delete_edge", "rebuild", "apply",
)

#: ``(op kind, element/document pick, checkpoint after this step?)``
STEP = st.tuples(st.sampled_from(KINDS), st.integers(0, 10 ** 6), st.booleans())


def make_op(index, kind, pick, serial):
    """A wire op of ``kind`` against ``index``, falling back to an
    element insert when nothing qualifies."""
    collection = index.collection
    elements = sorted(collection.elements)
    docs = sorted(collection.documents)
    fallback = {
        "op": "insert_element", "parent": elements[pick % len(elements)],
        "tag": "note",
    }
    if kind == "insert_edge":
        r = roots(index)
        return {
            "op": "insert_edge", "source": r[pick % len(r)],
            "target": elements[(pick // 7) % len(elements)],
        }
    if kind == "insert_document":
        links = [["c", elements[pick % len(elements)]]]
        if pick % 2:
            links.append([elements[(pick // 3) % len(elements)], "root"])
        return {
            "op": "insert_document", "doc_id": f"new{serial}",
            "root_tag": "article",
            "children": [{"tag": "citations", "ref": "c"}],
            "links": links,
        }
    if kind in ("delete_sep", "delete_nonsep") and len(docs) > 3:
        wanted = kind == "delete_sep"
        victims = [d for d in docs if index.document_separates(d) == wanted]
        if victims:
            return {"op": "delete_document", "doc_id": victims[pick % len(victims)]}
    if kind == "delete_edge":
        links = sorted(collection.all_links())
        if links:
            source, target = links[pick % len(links)]
            return {"op": "delete_edge", "source": source, "target": target}
    if kind == "rebuild":
        return {"op": "rebuild"}
    return fallback


@pytest.mark.parametrize("distance", [False, True], ids=["reach", "distance"])
@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=st.lists(STEP, min_size=1, max_size=8))
def test_delta_checkpoints_equal_a_fresh_write(distance, steps):
    index = small_index(distance)
    with tempfile.TemporaryDirectory() as directory:
        store = DurableIndexStore(
            os.path.join(directory, "store"), checkpoint_interval=3
        )
        store.initialize(index)
        service = QueryService(index, durable_store=store)
        try:
            for serial, (kind, pick, checkpoint) in enumerate(steps):
                if kind == "apply":
                    elements = sorted(service.index.collection.elements)
                    parent = elements[pick % len(elements)]
                    service.apply(
                        lambda shadow: shadow.insert_element(parent, "applied")
                    )  # forces a checkpoint
                    assert_snapshot_is_fresh(store, service.index, directory)
                    continue
                try:
                    service.update([make_op(service.index, kind, pick, serial)])
                except UpdateError:
                    pass  # a rejected batch publishes nothing
                if checkpoint:
                    store.checkpoint(service.index)
                    assert_snapshot_is_fresh(store, service.index, directory)
            store.checkpoint(service.index)
            assert_snapshot_is_fresh(store, service.index, directory)
        finally:
            service.close()


@pytest.mark.parametrize("distance", [False, True], ids=["reach", "distance"])
def test_in_place_mutation_after_a_checkpoint_is_written(tmp_path, distance):
    """No service and no fork: the caller mutates the very index it
    checkpointed. The store's base fork made that index copy-on-write,
    so the rows it touches are new objects and the next delta has
    them."""
    index = small_index(distance)
    store = DurableIndexStore(str(tmp_path / "store"))
    store.initialize(index)
    r = roots(index)
    index.insert_element(r[0], "in-place")
    index.insert_edge(r[-1], r[1])
    index.delete_document(sorted(index.collection.documents)[2])
    store.checkpoint(index)
    assert_snapshot_is_fresh(store, index, str(tmp_path))
    index.insert_element(r[3], "again")
    index.delete_edge(r[-1], r[1])
    store.checkpoint(index)
    assert_snapshot_is_fresh(store, index, str(tmp_path))
    store.close()


def test_checkpoints_from_two_threads(tmp_path):
    """The asyncio front end commits on executor threads: checkpoints
    must work from a thread other than the one that opened the
    snapshot connection."""
    index = small_index()
    store = DurableIndexStore(str(tmp_path / "store"), checkpoint_interval=1)
    store.initialize(index)  # opens the connection on this thread
    service = QueryService(index, durable_store=store)
    r = roots(index)
    with ThreadPoolExecutor(1) as first, ThreadPoolExecutor(1) as second:
        for i in range(4):
            pool = (first, second)[i % 2]
            pool.submit(
                service.update,
                [{"op": "insert_element", "parent": r[i], "tag": "threaded"}],
            ).result()
    assert store.wal.record_count() == 0  # every update checkpointed
    assert_snapshot_is_fresh(store, service.index, str(tmp_path))
    service.close()


# ---------------------------------------------------------------------------
# restart and resume: the first checkpoint after recover() is a delta
# ---------------------------------------------------------------------------


def spy_checkpoints(monkeypatch):
    """Record ``(rows written, index)`` for every checkpoint."""
    calls = []
    real = DurableIndexStore.checkpoint

    def checkpoint(self, index):
        written = real(self, index)
        calls.append((written, index))
        return written

    monkeypatch.setattr(DurableIndexStore, "checkpoint", checkpoint)
    return calls


def label_entries(index):
    """``{(table, node, center)}`` over every label entry."""
    cover = index.cover
    return {
        (table, node, center)
        for node in cover.nodes
        for table, label in (("LIN", cover.lin_of(node)), ("LOUT", cover.lout_of(node)))
        for center in label
    }


def test_first_checkpoint_after_recover_writes_only_replayed_rows(
    tmp_path, monkeypatch
):
    """``serve --store`` restart: recover() keeps the loaded snapshot as
    the base, so the next interval checkpoint writes exactly the label
    entries the WAL replay and the new batch changed, not the whole
    cover."""
    root = str(tmp_path / "store")
    index = HopiIndex.build(dblp_like(12, seed=2))
    store = DurableIndexStore(root, checkpoint_interval=4)
    full = store.initialize(index)
    service = QueryService(index, durable_store=store)
    r = roots(index)
    for i in range(3):  # a three-record WAL tail
        service.update([{"op": "insert_element", "parent": r[i], "tag": "tail"}])
    snapshot = load_index(store.db_path)

    restarted = DurableIndexStore(root, checkpoint_interval=4)
    recovered = restarted.recover()
    calls = spy_checkpoints(monkeypatch)
    QueryService(recovered, durable_store=restarted).update(
        [{"op": "insert_element", "parent": r[3], "tag": "tail"}]
    )
    [(written, checkpointed)] = calls
    changed = label_entries(snapshot) ^ label_entries(checkpointed)
    for table in ("LIN", "LOUT"):
        assert written[table] == sum(1 for entry in changed if entry[0] == table)
    assert 0 < written["LIN"] + written["LOUT"] < (full["LIN"] + full["LOUT"]) / 10
    assert written["ELEMENTS"] == 4 and written["DOCUMENTS"] == 0
    assert_snapshot_is_fresh(restarted, checkpointed, str(tmp_path))
    restarted.close()


def test_first_checkpoint_after_ingest_resume_is_a_delta(tmp_path, monkeypatch):
    """``ingest --resume``: the resumed run's first checkpoint writes
    the documents ingested since the snapshot, not the stored ones."""
    store = str(tmp_path / "store")
    argv = [
        "ingest", "--source", "deep-tree:40", "--store", store, "--seed", "5",
        "--batch-docs", "4", "--checkpoint-interval", "2",
    ]
    assert main(argv + ["--max-docs", "14"]) == 0
    assert DurableIndexStore(store).wal.record_count() == 1  # a WAL tail
    snapshot = load_index(os.path.join(store, "index.db"))
    calls = spy_checkpoints(monkeypatch)
    assert main(argv + ["--resume"]) == 0
    written, checkpointed = calls[0]
    new_docs = checkpointed.collection.documents.keys() - snapshot.collection.documents.keys()
    assert written["DOCUMENTS"] == len(new_docs) > 0
    assert written["ELEMENTS"] == (
        checkpointed.collection.num_elements - snapshot.collection.num_elements
    )
    assert written["LIN"] + written["LOUT"] < checkpointed.cover.size
