"""SQLite-backed HOPI store (Section 3.4 on SQLite instead of Oracle).

:class:`SQLiteCoverStore` persists a 2-hop cover (and optionally the
collection it indexes) into a single database file and answers queries
with the paper's SQL statements. ``:memory:`` databases are supported
for tests and benchmarks.
"""

from __future__ import annotations

import sqlite3
from itertools import chain
from typing import Dict, List, Optional, Set, Union

from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.core.hopi import HopiIndex
from repro.storage import schema
from repro.storage.base import CoverStore
from repro.xmlmodel.model import Collection

Cover = Union[TwoHopCover, DistanceTwoHopCover]

#: rows per ``executemany`` flush — large enough to amortise the SQL
#: statement dispatch, small enough to bound peak row-buffer memory.
BATCH_ROWS = 10_000


class SQLiteCoverStore(CoverStore):
    """A 2-hop cover stored in LIN/LOUT tables with forward + backward
    indexes.

    File-backed databases are opened with ``journal_mode=WAL`` and
    ``synchronous=NORMAL`` — the standard bulk-write/point-read tuning
    (readers never block the writer, fsync only at checkpoints).
    ``:memory:`` databases keep SQLite's defaults.

    Args:
        path: database file path, or ``":memory:"``.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._conn = sqlite3.connect(path)
        if path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(schema.SCHEMA)
        self._conn.commit()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _insert_batched_keyed(
        self, cur: sqlite3.Cursor, sql_by_key: Dict[str, str], keyed_rows
    ) -> None:
        """Stream ``(key, row)`` pairs into per-key ``executemany``
        batches of :data:`BATCH_ROWS` — the single flush policy for all
        bulk writes."""
        batches: Dict[str, List[tuple]] = {key: [] for key in sql_by_key}
        for key, row in keyed_rows:
            batch = batches[key]
            batch.append(row)
            if len(batch) >= BATCH_ROWS:
                cur.executemany(sql_by_key[key], batch)
                batch.clear()
        for key, batch in batches.items():
            if batch:
                cur.executemany(sql_by_key[key], batch)


    def save_cover(self, cover: Cover) -> None:
        """(Re)write the LIN/LOUT tables from an in-memory cover.

        Rows are streamed from ``cover.entries()`` in
        :data:`BATCH_ROWS`-sized ``executemany`` batches.
        """
        distance = cover.is_distance_aware
        cur = self._conn.cursor()
        cur.execute("DELETE FROM LIN")
        cur.execute("DELETE FROM LOUT")
        cur.execute(
            "INSERT OR REPLACE INTO META (KEY, VALUE) VALUES ('distance', ?)",
            ("1" if distance else "0",),
        )
        cur.execute(
            "INSERT OR REPLACE INTO META (KEY, VALUE) VALUES ('nodes', ?)",
            (",".join(str(n) for n in sorted(cover.nodes)),),
        )
        if distance:
            sql = {
                "in": "INSERT INTO LIN (ID, INID, DIST) VALUES (?, ?, ?)",
                "out": "INSERT INTO LOUT (ID, OUTID, DIST) VALUES (?, ?, ?)",
            }
        else:
            sql = {
                "in": "INSERT INTO LIN (ID, INID) VALUES (?, ?)",
                "out": "INSERT INTO LOUT (ID, OUTID) VALUES (?, ?)",
            }
        # one pass over entries(), dispatching rows into per-table batches
        self._insert_batched_keyed(
            cur, sql, ((kind, tuple(row)) for kind, *row in cover.entries())
        )
        self._conn.commit()

    def load_cover(self) -> Cover:
        """Materialise the stored cover back into memory.

        Rows stream out of the primary-key indexes already grouped by
        node and sorted by center, straight into the cover's batch
        constructor (a ``backend`` META row written by older versions
        is ignored — there is one representation)."""
        distance = self._meta("distance") == "1"
        nodes_blob = self._meta("nodes") or ""
        nodes = [int(x) for x in nodes_blob.split(",") if x]
        dist = ", DIST" if distance else ""
        rows = chain(
            (("in",) + row for row in self._conn.execute(
                f"SELECT ID, INID{dist} FROM LIN ORDER BY ID, INID")),
            (("out",) + row for row in self._conn.execute(
                f"SELECT ID, OUTID{dist} FROM LOUT ORDER BY ID, OUTID")),
        )
        factory = DistanceTwoHopCover if distance else TwoHopCover
        return factory.from_entries(nodes, rows)

    def save_collection(self, collection: Collection) -> None:
        cur = self._conn.cursor()
        cur.execute("DELETE FROM DOCUMENTS")
        cur.execute("DELETE FROM ELEMENTS")
        cur.execute("DELETE FROM LINKS")
        # executemany consumes generators lazily with one statement
        # compile — no extra batching layer needed for single-table
        # streams (save_cover needs the keyed variant because one
        # entries() stream feeds two INSERT statements)
        cur.executemany(
            "INSERT INTO DOCUMENTS (DOC_ID, ROOT) VALUES (?, ?)",
            ((d.doc_id, d.root) for d in collection.documents.values()),
        )
        cur.executemany(
            "INSERT INTO ELEMENTS (EID, DOC_ID, TAG, PARENT, TEXT) "
            "VALUES (?, ?, ?, ?, ?)",
            (
                (e.eid, e.doc, e.tag, e.parent, e.text)
                for e in collection.elements.values()
            ),
        )
        links = [
            (u, v, "inter") for (u, v) in collection.inter_links
        ] + [
            (u, v, "intra")
            for d in collection.documents.values()
            for (u, v) in d.intra_links
        ]
        cur.executemany(
            "INSERT INTO LINKS (SOURCE, TARGET, KIND) VALUES (?, ?, ?)", links
        )
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
        max_eid = max((e[0] for e in elements), default=-1)
        collection._next_id = max_eid + 1
        for source, target, _kind in cur.execute(
            "SELECT SOURCE, TARGET, KIND FROM LINKS"
        ):
            collection.add_link(source, target)
        return collection

    # ------------------------------------------------------------------
    # queries (the paper's SQL)
    # ------------------------------------------------------------------
    def _meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT VALUE FROM META WHERE KEY = ?", (key,)
        ).fetchone()
        return row[0] if row else None

    def _node_known(self, v: int) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM ELEMENTS WHERE EID = ? LIMIT 1", (v,)
        ).fetchone()
        if row:
            return True
        # fall back to label presence when no collection is stored
        for q in (
            "SELECT 1 FROM LIN WHERE ID = ? LIMIT 1",
            "SELECT 1 FROM LOUT WHERE ID = ? LIMIT 1",
            "SELECT 1 FROM LIN WHERE INID = ? LIMIT 1",
            "SELECT 1 FROM LOUT WHERE OUTID = ? LIMIT 1",
        ):
            if self._conn.execute(q, (v,)).fetchone():
                return True
        nodes_blob = self._meta("nodes") or ""
        return str(v) in nodes_blob.split(",") if nodes_blob else False

    def connected(self, u: int, v: int) -> bool:
        if u == v:
            return self._node_known(u)
        cur = self._conn.cursor()
        if cur.execute(schema.SELF_OUT_QUERY, (u, v)).fetchone():
            return True
        if cur.execute(schema.SELF_IN_QUERY, (v, u)).fetchone():
            return True
        (count,) = cur.execute(schema.CONNECTION_QUERY, (u, v)).fetchone()
        return count > 0

    def distance(self, u: int, v: int) -> Optional[int]:
        if self._meta("distance") != "1":
            raise TypeError("store does not hold a distance-aware cover")
        if u == v:
            return 0 if self._node_known(u) else None
        cur = self._conn.cursor()
        best: Optional[int] = None
        (d,) = cur.execute(schema.SELF_OUT_DISTANCE_QUERY, (u, v)).fetchone()
        if d is not None:
            best = d
        (d,) = cur.execute(schema.SELF_IN_DISTANCE_QUERY, (v, u)).fetchone()
        if d is not None and (best is None or d < best):
            best = d
        (d,) = cur.execute(schema.DISTANCE_QUERY, (u, v)).fetchone()
        if d is not None and (best is None or d < best):
            best = d
        return best

    def descendants(self, u: int) -> Set[int]:
        result = {
            row[0]
            for row in self._conn.execute(schema.DESCENDANTS_QUERY, (u, u, u))
        }
        result.add(u)
        return result

    def ancestors(self, v: int) -> Set[int]:
        result = {
            row[0]
            for row in self._conn.execute(schema.ANCESTORS_QUERY, (v, v, v))
        }
        result.add(v)
        return result

    def cover_size(self) -> int:
        (n_in,) = self._conn.execute("SELECT COUNT(*) FROM LIN").fetchone()
        (n_out,) = self._conn.execute("SELECT COUNT(*) FROM LOUT").fetchone()
        return n_in + n_out

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SQLiteCoverStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def persist_index(index: HopiIndex, path: str) -> SQLiteCoverStore:
    """Write a built index (cover + collection) to a database file.

    The index's epoch is stored alongside (META key ``epoch``), so a
    reload — and the update WAL's replay-on-restart, which skips logged
    records at or below the checkpointed epoch — can resume the epoch
    sequence instead of restarting from zero.
    """
    store = SQLiteCoverStore(path)
    store.save_collection(index.collection)
    store.save_cover(index.cover)
    store._conn.execute(
        "INSERT OR REPLACE INTO META (KEY, VALUE) VALUES ('epoch', ?)",
        (str(index.epoch),),
    )
    store._conn.commit()
    return store


def load_index(path: str, *, backend: Optional[str] = None) -> HopiIndex:
    """Load a previously persisted index back into memory.

    Args:
        path: the database file.
        backend: accepted and ignored — there is one label
            representation; ``perf/`` still passes the argument and may
            not be edited in the PR that retired the option.
    """
    with SQLiteCoverStore(path) as store:
        collection = store.load_collection()
        cover = store.load_cover()
        epoch = int(store._meta("epoch") or "0")
    cover.add_nodes(collection.elements)
    index = HopiIndex(collection, cover)
    index.epoch = epoch
    return index
