"""Tests for the SQLite-backed store: the file holds the collection,
and a load rebuilds the cover."""

import os
import sqlite3
import tempfile
from contextlib import closing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HopiIndex
from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.core.ops import apply_update_op
from repro.graph.traversal import bfs_distances
from repro.service.service import UpdateError
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.storage import SQLiteCoverStore, load_index, persist_index
from repro.storage.wal import DurableIndexStore
from random_collections import random_collection
from repro.xmlmodel import Collection, dblp_like


def chain_collection():
    """One document ``r -> a -> b`` and a second one ``s`` that ``b``
    links to: ids 0, 1, 2 and 3."""
    collection = Collection()
    root = collection.new_document("d0", "r").eid
    b = collection.add_child(collection.add_child(root, "a").eid, "b").eid
    collection.add_link(b, collection.new_document("d1", "s").eid)
    return collection


def reload(index, tmp_path, name="index.db"):
    path = os.path.join(tmp_path, name)
    persist_index(index, path).close()
    return load_index(path)


def snap(index):
    return canonical_snapshot_bytes(index.cover)


def test_connected_unknown_node(tmp_path):
    loaded = reload(HopiIndex.build(chain_collection()), tmp_path)
    assert loaded.connected(0, 3) and loaded.connected(1, 1)
    assert not loaded.connected(99, 99)
    assert not loaded.connected(1, 99)


def test_cover_size_and_roundtrip(tmp_path):
    index = HopiIndex.build(chain_collection())
    loaded = reload(index, tmp_path)
    assert type(loaded.cover) is TwoHopCover
    assert loaded.cover.size == index.cover.size
    assert sorted(loaded.cover.entries()) == sorted(index.cover.entries())
    assert loaded.cover.nodes == index.cover.nodes == {0, 1, 2, 3}


def test_distance_requires_distance_cover(tmp_path):
    loaded = reload(HopiIndex.build(chain_collection()), tmp_path)
    with pytest.raises(TypeError):
        loaded.distance(0, 3)


def test_distance_store_roundtrip(tmp_path):
    index = HopiIndex.build(chain_collection(), distance=True)
    loaded = reload(index, tmp_path)
    assert type(loaded.cover) is DistanceTwoHopCover
    assert sorted(loaded.cover.entries()) == sorted(index.cover.entries())
    assert [loaded.distance(0, v) for v in range(4)] == [0, 1, 2, 3]
    assert loaded.distance(3, 0) is None


def test_full_write_overwrites(tmp_path):
    path = os.path.join(tmp_path, "over.db")
    with SQLiteCoverStore(path) as store:
        store.write_index(HopiIndex.build(dblp_like(6, seed=1)))
        replacement = HopiIndex.build(chain_collection(), distance=True)
        replacement.epoch = 7
        store.write_index(replacement)
    loaded = load_index(path)
    assert loaded.epoch == 7 and loaded.is_distance_aware
    assert sorted(loaded.collection.documents) == ["d0", "d1"]
    assert snap(loaded) == snap(replacement)


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


def test_loaded_index_agrees_with_index_everywhere(tmp_path):
    collection = random_collection(n_docs=4, inter_links=5, seed=17)
    index = HopiIndex.build(collection, strategy="unpartitioned")
    loaded = reload(index, tmp_path)
    nodes = sorted(collection.elements)
    for u in nodes:
        for v in nodes:
            assert loaded.connected(u, v) == index.connected(u, v), (u, v)
    for u in nodes:
        assert loaded.descendants(u) == index.descendants(u)
        assert loaded.ancestors(u) == index.ancestors(u)


def test_loaded_distance_index_agrees_with_index(tmp_path):
    collection = random_collection(n_docs=3, inter_links=4, seed=23)
    index = HopiIndex.build(collection, strategy="unpartitioned", distance=True)
    loaded = reload(index, tmp_path)
    nodes = sorted(collection.elements)
    for u in nodes:
        for v in nodes:
            assert loaded.distance(u, v) == index.distance(u, v), (u, v)


def test_context_manager(tmp_path):
    path = os.path.join(tmp_path, "ctx.db")
    with SQLiteCoverStore(path) as s:
        s.write_index(HopiIndex.build(chain_collection()))
    # file persisted; reopen works
    with SQLiteCoverStore(path) as s:
        assert sorted(s.load_collection().elements) == [0, 1, 2, 3]


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


# ---------------------------------------------------------------------------
# files written before the cover became derived state
# ---------------------------------------------------------------------------

#: the DDL such files were written with: the collection tables plus the
#: Section-3.4 label tables, their backward indexes and two element
#: indexes
PARENT_SCHEMA = """
CREATE TABLE META (KEY TEXT PRIMARY KEY, VALUE TEXT NOT NULL);
CREATE TABLE LIN (
    ID INTEGER NOT NULL, INID INTEGER NOT NULL, DIST INTEGER,
    PRIMARY KEY (ID, INID)
) WITHOUT ROWID;
CREATE TABLE LOUT (
    ID INTEGER NOT NULL, OUTID INTEGER NOT NULL, DIST INTEGER,
    PRIMARY KEY (ID, OUTID)
) WITHOUT ROWID;
CREATE INDEX LIN_BACKWARD  ON LIN  (INID, ID);
CREATE INDEX LOUT_BACKWARD ON LOUT (OUTID, ID);
CREATE TABLE DOCUMENTS (DOC_ID TEXT PRIMARY KEY, ROOT INTEGER NOT NULL);
CREATE TABLE ELEMENTS (
    EID INTEGER PRIMARY KEY, DOC_ID TEXT NOT NULL, TAG TEXT NOT NULL,
    PARENT INTEGER, TEXT TEXT NOT NULL DEFAULT ''
);
CREATE INDEX ELEMENTS_BY_DOC ON ELEMENTS (DOC_ID);
CREATE INDEX ELEMENTS_BY_TAG ON ELEMENTS (TAG);
CREATE TABLE LINKS (
    SOURCE INTEGER NOT NULL, TARGET INTEGER NOT NULL,
    KIND TEXT NOT NULL CHECK (KIND IN ('intra', 'inter')),
    PRIMARY KEY (SOURCE, TARGET)
) WITHOUT ROWID;
"""

STALE_NAMES = {
    "LIN", "LOUT", "LIN_BACKWARD", "LOUT_BACKWARD", "ELEMENTS_BY_DOC",
    "ELEMENTS_BY_TAG",
}


def write_parent_format(path, index):
    """``index`` written the way files were before the cover became
    derived: label rows, the ``nodes`` META key, the element indexes."""
    collection, cover = index.collection, index.cover
    links = [(u, v, "inter") for u, v in collection.inter_links] + [
        (u, v, "intra")
        for doc in collection.documents.values() for u, v in doc.intra_links
    ]
    with closing(sqlite3.connect(path)) as conn:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.executescript(PARENT_SCHEMA)
        conn.executemany("INSERT INTO DOCUMENTS VALUES (?, ?)", [
            (key, doc.root) for key, doc in collection.documents.items()
        ])
        conn.executemany("INSERT INTO ELEMENTS VALUES (?, ?, ?, ?, ?)", [
            (e.eid, e.doc, e.tag, e.parent, e.text)
            for e in collection.elements.values()
        ])
        conn.executemany("INSERT INTO LINKS VALUES (?, ?, ?)", links)
        for kind, node, center, *dist in cover.entries():
            table, column = ("LIN", "INID") if kind == "in" else ("LOUT", "OUTID")
            conn.execute(
                f"INSERT INTO {table} (ID, {column}, DIST) VALUES (?, ?, ?)",
                (node, center, dist[0] if dist else None),
            )
        conn.executemany("INSERT INTO META VALUES (?, ?)", [
            ("distance", "1" if index.is_distance_aware else "0"),
            ("nodes", ",".join(map(str, sorted(cover.nodes)))),
            ("epoch", str(index.epoch)),
        ])
        conn.commit()


def schema_names_and_meta_keys(path):
    with closing(sqlite3.connect(path)) as conn:
        names = {name for (name,) in conn.execute("SELECT name FROM sqlite_master")}
        keys = {key for (key,) in conn.execute("SELECT KEY FROM META")}
    return names, keys


@pytest.mark.parametrize("distance", [False, True], ids=["reach", "distance"])
def test_parent_format_file_loads_by_rebuilding_and_a_rewrite_drops_the_labels(
    tmp_path, distance
):
    built = HopiIndex.build(dblp_like(20, seed=3), distance=distance)
    built.epoch = 5
    path = str(tmp_path / "parent.db")
    write_parent_format(path, built)
    with closing(sqlite3.connect(path)) as conn:
        conn.execute("DELETE FROM LOUT")  # the stored labels are not read
        conn.commit()
    loaded = load_index(path)
    assert loaded.epoch == 5 and loaded.is_distance_aware == distance
    assert snap(loaded) == snap(
        HopiIndex.build(built.collection, distance=distance)
    )
    before = os.path.getsize(path)
    with SQLiteCoverStore(path) as store:
        assert store.stale()
        store.write_index(loaded)
        assert not store.stale()
    names, keys = schema_names_and_meta_keys(path)
    assert names.isdisjoint(STALE_NAMES)
    assert keys == {"distance", "epoch", "next_id"}
    assert os.path.getsize(path) < before
    assert snap(load_index(path)) == snap(loaded)


def test_store_recovered_from_a_parent_format_file_rewrites_it_at_its_first_checkpoint(
    tmp_path,
):
    built = HopiIndex.build(dblp_like(10, seed=3))
    root = tmp_path / "store"
    root.mkdir()
    write_parent_format(str(root / "index.db"), built)
    store = DurableIndexStore(str(root))
    recovered = store.recover()
    assert snap(recovered) == snap(HopiIndex.build(built.collection))
    first = sorted(recovered.collection.documents)[0]
    apply_update_op(recovered, {
        "op": "insert_element", "tag": "note",
        "parent": recovered.collection.documents[first].root,
    })
    written = store.checkpoint(recovered)
    assert written["ELEMENTS"] == recovered.collection.num_elements
    names, keys = schema_names_and_meta_keys(store.db_path)
    assert names.isdisjoint(STALE_NAMES)
    assert keys == {"distance", "epoch", "next_id"}
    store.close()
    again = DurableIndexStore(str(root)).recover()
    assert again.epoch == recovered.epoch
    assert snap(again) == snap(recovered)


# ---------------------------------------------------------------------------
# oracle: a load is a function of the collection
# ---------------------------------------------------------------------------

OP_KINDS = (
    "insert_element", "insert_edge", "insert_document", "delete_document",
    "delete_edge",
)


def wire_op(index, kind, pick, serial):
    """A wire op of ``kind`` against ``index``; an element insert when
    nothing qualifies."""
    collection = index.collection
    elements = sorted(collection.elements)
    docs = sorted(collection.documents)
    links = sorted(collection.all_links())
    if kind == "insert_edge":
        return {
            "op": "insert_edge", "source": elements[pick % len(elements)],
            "target": elements[(pick // 7) % len(elements)],
        }
    if kind == "insert_document":
        return {
            "op": "insert_document", "doc_id": f"new{serial}", "root_tag": "a",
            "children": [{"tag": "b", "ref": "c"}],
            "links": [
                ["c", elements[pick % len(elements)]],
                [elements[(pick // 3) % len(elements)], "root"],
            ],
        }
    if kind == "delete_document" and len(docs) > 1:
        return {"op": "delete_document", "doc_id": docs[pick % len(docs)]}
    if kind == "delete_edge" and links:
        source, target = links[pick % len(links)]
        return {"op": "delete_edge", "source": source, "target": target}
    return {
        "op": "insert_element", "parent": elements[pick % len(elements)],
        "tag": "e",
    }


@pytest.mark.parametrize("distance", [False, True], ids=["reach", "distance"])
@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10 ** 6),
    n_docs=st.integers(2, 4),
    steps=st.lists(
        st.tuples(st.sampled_from(OP_KINDS), st.integers(0, 10 ** 6)),
        max_size=8,
    ),
)
def test_a_load_is_a_function_of_the_collection(distance, seed, n_docs, steps):
    """Random collections with document-level cycles, maintained through
    random ops (deletes leave id gaps): the reloaded cover is the fresh
    build of the collection, byte for byte, and answers like BFS."""
    collection = random_collection(
        n_docs=n_docs, inter_links=4, allow_cycles=True, seed=seed
    )
    index = HopiIndex.build(collection, distance=distance)
    for serial, (kind, pick) in enumerate(steps):
        trial = index.cow_copy()
        try:
            apply_update_op(trial, wire_op(index, kind, pick, serial))
        except (UpdateError, KeyError, ValueError):
            continue
        index = trial
    with tempfile.TemporaryDirectory() as directory:
        loaded = reload(index, directory)
    assert loaded.epoch == index.epoch
    assert loaded.collection._next_id == index.collection._next_id
    assert snap(loaded) == snap(
        HopiIndex.build(index.collection, distance=distance)
    )
    graph = index.collection.element_graph()
    nodes = sorted(index.collection.elements)
    for u in nodes:
        reached = bfs_distances(graph, u)
        for v in nodes:
            if distance:
                assert loaded.distance(u, v) == reached.get(v), (u, v)
            else:
                assert loaded.connected(u, v) == (v in reached), (u, v)
