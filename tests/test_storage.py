"""Tests for the SQLite-backed store (Section 3.4's database layout)."""

import os
import sqlite3

import pytest

from repro.core import HopiIndex
from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.storage import SQLiteCoverStore, load_index, persist_index
from random_collections import random_collection
from repro.xmlmodel import dblp_like


@pytest.fixture
def chain_cover():
    cover = TwoHopCover([1, 2, 3])
    cover.add_lout(1, 2)
    cover.add_lin(3, 2)
    return cover


@pytest.fixture
def store(chain_cover):
    s = SQLiteCoverStore(":memory:")
    s.save_cover(chain_cover)
    return s


def test_connection_sql(store):
    assert store.connected(1, 3)  # via the LIN/LOUT join
    assert store.connected(1, 2)  # via the self-out query
    assert store.connected(2, 3)  # via the self-in query
    assert store.connected(1, 1)  # reflexive
    assert not store.connected(3, 1)
    assert not store.connected(2, 1)


def test_connected_unknown_node(store):
    assert not store.connected(99, 99)
    assert not store.connected(1, 99)


def test_descendants_ancestors_sql(store):
    assert store.descendants(1) == {1, 2, 3}
    assert store.descendants(2) == {2, 3}
    assert store.ancestors(3) == {1, 2, 3}
    assert store.ancestors(1) == {1}


def test_cover_size_and_roundtrip(store, chain_cover):
    assert store.cover_size() == 2
    loaded = store.load_cover()
    assert isinstance(loaded, TwoHopCover)
    assert sorted(loaded.entries()) == sorted(chain_cover.entries())
    assert loaded.nodes == chain_cover.nodes


def test_distance_requires_distance_cover(store):
    with pytest.raises(TypeError):
        store.distance(1, 3)


def test_distance_store_roundtrip():
    cover = DistanceTwoHopCover([1, 2, 3, 4])
    cover.add_lout(1, 2, 1)
    cover.add_lin(3, 2, 1)
    cover.add_lin(4, 2, 3)
    s = SQLiteCoverStore(":memory:")
    s.save_cover(cover)
    assert s.distance(1, 3) == 2  # MIN(LOUT.DIST + LIN.DIST)
    assert s.distance(1, 2) == 1  # self-out variant
    assert s.distance(2, 3) == 1  # self-in variant
    assert s.distance(1, 4) == 4
    assert s.distance(3, 1) is None
    assert s.distance(2, 2) == 0
    loaded = s.load_cover()
    assert isinstance(loaded, DistanceTwoHopCover)
    assert sorted(loaded.entries()) == sorted(cover.entries())
    assert loaded.distance(1, 4) == 4


def test_save_cover_overwrites(store):
    new = TwoHopCover([7, 8])
    new.add_lout(7, 8)
    store.save_cover(new)
    assert store.cover_size() == 1
    assert store.connected(7, 8)
    assert not store.connected(1, 3)


def test_collection_roundtrip():
    original = dblp_like(10, seed=4)
    s = SQLiteCoverStore(":memory:")
    s.write_index(HopiIndex(original, TwoHopCover()))
    loaded = s.load_collection()
    assert loaded.num_documents == original.num_documents
    assert loaded.num_elements == original.num_elements
    assert loaded.inter_links == original.inter_links
    for eid, element in original.elements.items():
        assert loaded.elements[eid].tag == element.tag
        assert loaded.elements[eid].doc == element.doc
        assert loaded.elements[eid].parent == element.parent
    # tree structure preserved
    for doc_id, doc in original.documents.items():
        assert loaded.documents[doc_id].children == doc.children


def test_collection_roundtrip_intra_links():
    original = random_collection(
        n_docs=3, intra_link_probability=0.8, inter_links=3, seed=6
    )
    s = SQLiteCoverStore(":memory:")
    s.write_index(HopiIndex(original, TwoHopCover()))
    loaded = s.load_collection()
    for doc_id in original.documents:
        assert (
            loaded.documents[doc_id].intra_links
            == original.documents[doc_id].intra_links
        )


def test_persist_and_load_index(tmp_path):
    collection = dblp_like(12, seed=8)
    index = HopiIndex.build(collection, strategy="recursive", partitioner="closure")
    path = os.path.join(tmp_path, "hopi.db")
    store = persist_index(index, path)
    store.close()
    loaded = load_index(path)
    loaded.verify()
    (u, v) = sorted(collection.inter_links)[0]
    assert loaded.connected(u, v) == index.connected(u, v)


def test_sql_store_agrees_with_index_everywhere():
    collection = random_collection(n_docs=4, inter_links=5, seed=17)
    index = HopiIndex.build(collection, strategy="unpartitioned")
    store = SQLiteCoverStore(":memory:")
    store.write_index(index)
    nodes = sorted(collection.elements)
    for u in nodes:
        for v in nodes:
            assert store.connected(u, v) == index.connected(u, v), (u, v)
    for u in nodes:
        assert store.descendants(u) == index.descendants(u)
        assert store.ancestors(u) == index.ancestors(u)


def test_sql_distance_store_agrees_with_index():
    collection = random_collection(n_docs=3, inter_links=4, seed=23)
    index = HopiIndex.build(collection, strategy="unpartitioned", distance=True)
    store = SQLiteCoverStore(":memory:")
    store.write_index(index)
    nodes = sorted(collection.elements)
    for u in nodes:
        for v in nodes:
            assert store.distance(u, v) == index.distance(u, v), (u, v)


def test_context_manager(tmp_path):
    path = os.path.join(tmp_path, "ctx.db")
    cover = TwoHopCover([1, 2])
    cover.add_lout(1, 2)
    with SQLiteCoverStore(path) as s:
        s.save_cover(cover)
    # file persisted; reopen works
    with SQLiteCoverStore(path) as s:
        assert s.connected(1, 2)


def test_file_backed_store_uses_wal(tmp_path):
    path = os.path.join(tmp_path, "wal.db")
    with SQLiteCoverStore(path) as s:
        (mode,) = s._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
        (sync,) = s._conn.execute("PRAGMA synchronous").fetchone()
        assert sync == 1  # NORMAL


def test_memory_store_keeps_default_journal():
    s = SQLiteCoverStore(":memory:")
    (mode,) = s._conn.execute("PRAGMA journal_mode").fetchone()
    assert mode == "memory"


def test_save_cover_accepts_array_backend(tmp_path):
    """``save_cover`` only streams ``entries()``: the array cover with
    its batch-probe caches populated and the oracle both persist, and
    both load as the cover."""
    from cover_oracle import oracle_cover

    cover = TwoHopCover([1, 2, 3])
    cover.add_lout(1, 2)
    cover.add_lin(3, 2)
    assert cover.connected_many(1, (2, 3)) == [True, True]
    assert cover._probe_cache is not None
    for saved in (cover, oracle_cover(cover)):
        store = SQLiteCoverStore(":memory:")
        store.save_cover(saved)
        assert store.cover_size() == 2
        assert store.connected(1, 3)
        loaded = store.load_cover()
        assert type(loaded) is TwoHopCover
        assert loaded.connected(1, 3)


def test_save_cover_batches_large_covers():
    """A cover larger than one executemany batch persists completely."""
    from repro.storage.db import BATCH_ROWS

    cover = TwoHopCover(range(2, BATCH_ROWS + 1000))
    for node in range(2, BATCH_ROWS + 1000):
        cover.add_lout(node, 1)
    store = SQLiteCoverStore(":memory:")
    store.save_cover(cover)
    assert store.cover_size() == cover.size


def test_load_index_array_backend(tmp_path):
    collection = dblp_like(8, seed=4)
    index = HopiIndex.build(collection)
    path = os.path.join(tmp_path, "arr.db")
    persist_index(index, path).close()
    loaded = load_index(path, backend="arrays")  # accepted, ignored
    assert type(loaded.cover) is TwoHopCover
    assert canonical_snapshot_bytes(loaded.cover) == canonical_snapshot_bytes(
        index.cover
    )
    nodes = sorted(collection.elements)
    for u in nodes[:30]:
        assert loaded.descendants(u) == index.descendants(u)
    assert loaded.connected_many(nodes[0], nodes) == index.connected_many(
        nodes[0], nodes
    )


def test_load_index_restores_saved_backend(tmp_path):
    """Old files still load — what restoring a file with a saved
    backend means now: every index persisted before the ``backend``
    option was retired carries a ``META.backend`` row (``sets`` for a
    default build). New files do not write it; found in an old file it
    is ignored, as is a ``backend=`` argument."""
    collection = dblp_like(6, seed=4)
    for distance in (False, True):
        index = HopiIndex.build(collection, distance=distance)
        path = os.path.join(tmp_path, f"old-{distance}.db")
        persist_index(index, path).close()
        with sqlite3.connect(path) as conn:
            assert conn.execute(
                "SELECT COUNT(*) FROM META WHERE KEY = 'backend'"
            ).fetchone() == (0,)
            conn.execute("INSERT INTO META (KEY, VALUE) VALUES ('backend', 'sets')")
        for kwargs in ({}, {"backend": "sets"}, {"backend": "vector"}):
            loaded = load_index(path, **kwargs)
            assert type(loaded.cover) is type(index.cover)
            assert canonical_snapshot_bytes(
                loaded.cover
            ) == canonical_snapshot_bytes(index.cover)
        loaded.verify()
