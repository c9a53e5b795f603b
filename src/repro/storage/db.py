"""SQLite-backed HOPI store: the collection, not the labels.

:class:`SQLiteCoverStore` writes the collection a HOPI index covers
(documents, elements, links), its epoch and its distance flag into one
database file. The 2-hop cover is derived state: the product build
(pruned landmark labelling) is deterministic and takes about as long
as reading stored labels back, so :func:`load_index` rebuilds it from
the loaded collection. A reload therefore drops whatever labels
maintenance had grown beyond a fresh build's; the durable store
(:mod:`repro.storage.wal`) keeps its maintained cover in a snapshot
beside the file. ``:memory:`` databases are supported for tests.
"""

from __future__ import annotations

import errno
import os
import sqlite3
from typing import Dict, List, Optional, Tuple, Union

from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.core.hopi import HopiIndex
from repro.storage import schema
from repro.xmlmodel.model import Collection

Cover = Union[TwoHopCover, DistanceTwoHopCover]

_COLLECTION_TABLES = ("DOCUMENTS", "ELEMENTS", "LINKS")

_META_UPSERT = "INSERT OR REPLACE INTO META (KEY, VALUE) VALUES (?, ?)"


class SQLiteCoverStore:
    """An index file: the collection a HOPI index covers, its epoch and
    its distance flag, but not its 2-hop cover.

    The labels are derived state: :func:`load_index` rebuilds them by
    the product build. File-backed databases are opened with
    ``journal_mode=WAL`` and ``synchronous=NORMAL`` — the standard
    bulk-write/point-read tuning (readers never block the writer, fsync
    only at checkpoints). ``:memory:`` databases keep SQLite's defaults.
    The connection may be used from any thread, one at a time: the
    durable store checkpoints on whichever executor thread holds the
    service's write lock.

    Args:
        path: database file path, or ``":memory:"``.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._conn = sqlite3.connect(path, check_same_thread=False)
        if path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(schema.SCHEMA)
        self._conn.commit()

    def load_collection(self) -> Collection:
        cur = self._conn.cursor()
        collection = Collection()
        roots: Dict[str, int] = dict(
            cur.execute("SELECT DOC_ID, ROOT FROM DOCUMENTS")
        )
        elements = list(
            cur.execute(
                "SELECT EID, DOC_ID, TAG, PARENT, TEXT FROM ELEMENTS ORDER BY EID"
            )
        )
        # rebuild in eid order: parents always have smaller ids than
        # their children by construction, so one pass suffices
        for eid, doc_id, tag, parent, text in elements:
            if parent is None:
                if eid != roots[doc_id]:
                    raise ValueError(
                        f"corrupt store: root mismatch for {doc_id!r}"
                    )
                # allocate with the exact same id
                collection._next_id = eid
                element = collection.new_document(doc_id, tag)
            else:
                collection._next_id = eid
                element = collection.add_child(parent, tag)
            if element.eid != eid:
                raise ValueError("corrupt store: non-contiguous element ids")
            element.text = text
        # ids are never reused: deleted elements may sit above the
        # highest stored one
        max_eid = max((e[0] for e in elements), default=-1)
        collection._next_id = max(max_eid + 1, int(self._meta("next_id") or 0))
        for source, target, _kind in cur.execute(
            "SELECT SOURCE, TARGET, KIND FROM LINKS"
        ):
            collection.add_link(source, target)
        return collection

    def write_index(
        self, index: HopiIndex, base: Optional[Collection] = None
    ) -> Dict[str, int]:
        """Bring the stored collection to ``index``'s in one
        transaction, rewriting only what differs from ``base``.

        ``base`` must be exactly what the file holds: a copy-on-write
        fork (:meth:`Collection.fork`) of the collection written last,
        so that any later in-place change to that collection privatised
        the documents it touched. Documents, elements and links are
        diffed by key and object identity; ``META`` ``distance``,
        ``epoch`` and ``next_id`` are rewritten. Without a base every table is cleared,
        what older files hold beside the collection (label tables,
        their indexes, the ``nodes`` META key) is dropped, and the diff
        runs against an empty collection: a full rewrite is the
        empty-base case of this writer. Any failure rolls the
        transaction back.

        Returns:
            SQL rows deleted or inserted, per collection table.
        """
        cur = self._conn.cursor()
        stale = []
        try:
            if base is None:
                for table in ("META",) + _COLLECTION_TABLES:
                    cur.execute(f"DELETE FROM {table}")
                stale = self._stale_objects()
                for kind, name in stale:
                    cur.execute(f"DROP {kind} {name}")
                base = Collection()
            written = _write_collection_delta(cur, index.collection, base)
            cur.executemany(_META_UPSERT, [
                ("distance", "1" if index.is_distance_aware else "0"),
                ("epoch", str(index.epoch)),
                ("next_id", str(index.collection._next_id)),
            ])
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise
        if stale:
            self._conn.execute("VACUUM")  # return the dropped pages
        return written

    def load_index(self, cover: Optional[Cover] = None) -> HopiIndex:
        """The stored collection at the stored epoch, covered by
        ``cover`` or, without one, by :meth:`HopiIndex.build` with the
        stored distance flag. Label tables an older file holds are not
        read."""
        collection = self.load_collection()
        if cover is None:
            distance = self._meta("distance") == "1"
            index = HopiIndex.build(collection, distance=distance)
        else:
            index = HopiIndex(collection, cover)
        index.epoch = int(self._meta("epoch") or "0")
        return index

    def stale(self) -> bool:
        """Whether the file holds what an older version wrote beside
        the collection; the next full :meth:`write_index` drops it."""
        return bool(self._stale_objects()) or self._meta("nodes") is not None

    def _stale_objects(self) -> List[Tuple[str, str]]:
        """``(type, name)`` of the older tables and indexes present."""
        return self._conn.execute(
            "SELECT type, name FROM sqlite_master WHERE name IN "
            f"({', '.join('?' * len(schema.STALE))})", schema.STALE,
        ).fetchall()

    def _meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT VALUE FROM META WHERE KEY = ?", (key,)
        ).fetchone()
        return row[0] if row else None

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SQLiteCoverStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _write_collection_delta(
    cur: sqlite3.Cursor, new: Collection, old: Collection
) -> Dict[str, int]:
    """Delete the collection rows of ``old`` that ``new`` lacks, then
    insert the rows of ``new`` that ``old`` lacks (all deletes first: a
    link may change kind between the two). Inserts follow the
    collection's own iteration order: against an empty base that fixes
    the page layout, and so the file size, of a persisted build."""
    old_roots = {key: d.root for key, d in old.documents.items()}
    new_roots = {key: d.root for key, d in new.documents.items()}
    dropped = [link for link in old.inter_links if link not in new.inter_links]
    added = [
        (u, v, "inter") for u, v in new.inter_links
        if (u, v) not in old.inter_links
    ]
    for key, doc in old.documents.items():
        if key not in new.documents:
            dropped.extend(doc.intra_links)
    for key, doc in new.documents.items():
        before = old.documents.get(key)
        if before is doc:
            continue  # a forked document is privatised before it changes
        links = before.intra_links if before is not None else set()
        dropped.extend(link for link in links if link not in doc.intra_links)
        added.extend(
            (u, v, "intra") for u, v in doc.intra_links if (u, v) not in links
        )
    # Element objects are never changed in place, only added or removed
    statements = (
        ("DOCUMENTS", "DELETE FROM DOCUMENTS WHERE DOC_ID = ?", (
            (key,) for key, r in old_roots.items() if new_roots.get(key) != r
        )),
        ("ELEMENTS", "DELETE FROM ELEMENTS WHERE EID = ?", (
            (eid,) for eid, e in old.elements.items()
            if new.elements.get(eid) is not e
        )),
        ("LINKS", "DELETE FROM LINKS WHERE SOURCE = ? AND TARGET = ?", dropped),
        ("DOCUMENTS", "INSERT INTO DOCUMENTS (DOC_ID, ROOT) VALUES (?, ?)", (
            (key, r) for key, r in new_roots.items() if old_roots.get(key) != r
        )),
        ("ELEMENTS", "INSERT INTO ELEMENTS (EID, DOC_ID, TAG, PARENT, TEXT) "
            "VALUES (?, ?, ?, ?, ?)", (
            (e.eid, e.doc, e.tag, e.parent, e.text)
            for eid, e in new.elements.items() if old.elements.get(eid) is not e
        )),
        ("LINKS", "INSERT INTO LINKS (SOURCE, TARGET, KIND) VALUES (?, ?, ?)",
            added),
    )
    written = dict.fromkeys(_COLLECTION_TABLES, 0)
    for table, sql, rows in statements:
        # executemany consumes the generators lazily and sums the
        # changed rows into rowcount
        cur.executemany(sql, rows)
        written[table] += cur.rowcount
    return written


def persist_index(index: HopiIndex, path: str) -> SQLiteCoverStore:
    """Write a built index's collection to a database file:
    :meth:`SQLiteCoverStore.write_index` with no base.

    The index's epoch is stored alongside (META key ``epoch``), so a
    reload — and the update WAL's replay-on-restart, which skips logged
    records at or below the checkpointed epoch — can resume the epoch
    sequence instead of restarting from zero.
    """
    store = SQLiteCoverStore(path)
    store.write_index(index)
    return store


def load_index(path: str, *, backend: Optional[str] = None) -> HopiIndex:
    """Load a previously persisted index back into memory: the stored
    collection, covered by :meth:`HopiIndex.build` with the stored
    distance flag, at the stored epoch. A file that also holds label
    tables (written before the cover became derived) loads the same
    way; its labels are not read.

    Args:
        path: the database file.
        backend: accepted and ignored — there is one label
            representation; ``perf/`` still passes the argument and may
            not be edited in the PR that retired the option.

    Raises:
        FileNotFoundError: no file at ``path`` (opening one would
            create an empty database and load it as an empty index).
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(errno.ENOENT, "no index database", path)
    with SQLiteCoverStore(path) as store:
        return store.load_index()
