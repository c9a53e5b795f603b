"""SQLite-backed HOPI store (Section 3.4 on SQLite instead of Oracle).

:class:`SQLiteCoverStore` persists a 2-hop cover (and optionally the
collection it indexes) into a single database file and answers queries
with the paper's SQL statements. ``:memory:`` databases are supported
for tests and benchmarks.
"""

from __future__ import annotations

import sqlite3
from array import array
from itertools import chain, compress, count
from operator import is_not
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.core.cover import DistanceTwoHopCover, TwoHopCover
from repro.core.hopi import HopiIndex
from repro.storage import schema
from repro.storage.base import CoverStore
from repro.xmlmodel.model import Collection

Cover = Union[TwoHopCover, DistanceTwoHopCover]

#: rows per ``executemany`` flush — large enough to amortise the SQL
#: statement dispatch, small enough to bound peak row-buffer memory.
BATCH_ROWS = 10_000

_COLLECTION_TABLES = ("DOCUMENTS", "ELEMENTS", "LINKS")

_META_UPSERT = "INSERT OR REPLACE INTO META (KEY, VALUE) VALUES (?, ?)"


class SQLiteCoverStore(CoverStore):
    """A 2-hop cover stored in LIN/LOUT tables with forward + backward
    indexes.

    File-backed databases are opened with ``journal_mode=WAL`` and
    ``synchronous=NORMAL`` — the standard bulk-write/point-read tuning
    (readers never block the writer, fsync only at checkpoints).
    ``:memory:`` databases keep SQLite's defaults. The connection may be
    used from any thread, one at a time: the durable store checkpoints
    on whichever executor thread holds the service's write lock.

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

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save_cover(self, cover: Cover) -> None:
        """(Re)write the LIN/LOUT tables from any in-memory cover.

        Rows are streamed from ``cover.entries()`` in
        :data:`BATCH_ROWS`-sized ``executemany`` batches.
        """
        cur = self._conn.cursor()
        cur.execute("DELETE FROM LIN")
        cur.execute("DELETE FROM LOUT")
        cur.executemany(_META_UPSERT, _cover_meta(cover))
        # one pass over entries(), dispatching rows into per-table batches
        _execute_batched(
            cur,
            _label_inserts(cover.is_distance_aware),
            ((kind, tuple(row)) for kind, *row in cover.entries()),
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
        """(Re)write the DOCUMENTS/ELEMENTS/LINKS tables: the collection
        half of :meth:`write_index` against an empty base."""
        cur = self._conn.cursor()
        for table in _COLLECTION_TABLES:
            cur.execute(f"DELETE FROM {table}")
        _write_collection_delta(cur, collection, Collection())
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

    def write_index(
        self, index: HopiIndex, base: Optional[HopiIndex] = None
    ) -> Dict[str, int]:
        """Bring the stored index to ``index`` in one transaction,
        rewriting only what differs from ``base``.

        ``base`` must be exactly what the file holds: a copy-on-write
        fork (:meth:`HopiIndex.cow_copy`) of the index written last, so
        that any later in-place change to that index privatised the rows
        it touched. A label row whose array *is* the base's object is
        therefore unchanged; every other row is compared with the
        base's entry by entry. Documents, elements and links are diffed
        by key and object identity (a forked collection privatises a
        document before changing it); ``META`` ``nodes`` and ``epoch``
        are rewritten. Without a base, or when the cover's interner
        does not extend the base's, every table is cleared and the diff
        runs against an empty index: a full rewrite is the empty-base
        case of this writer. Any failure rolls the transaction back.

        Returns:
            SQL rows deleted or inserted, per table.
        """
        cover = index.cover
        cur = self._conn.cursor()
        try:
            if (
                base is None
                or type(base.cover) is not type(cover)
                or not cover.interner.extends(base.cover.interner)
            ):
                for table in _COLLECTION_TABLES + ("LIN", "LOUT"):
                    cur.execute(f"DELETE FROM {table}")
                base = HopiIndex(Collection(), type(cover)())
            written = _write_collection_delta(
                cur, index.collection, base.collection
            )
            written.update(_write_cover_delta(cur, cover, base.cover))
            cur.executemany(
                _META_UPSERT,
                _cover_meta(cover) + [("epoch", str(index.epoch))],
            )
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise
        return written

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


def _execute_batched(
    cur: sqlite3.Cursor, sql_by_key: Dict[str, str], keyed_rows: Iterable
) -> Dict[str, int]:
    """Stream ``(key, row)`` pairs into per-key ``executemany`` batches
    of :data:`BATCH_ROWS` — the single flush policy for all bulk writes.

    Returns:
        rows executed per key.
    """
    batches: Dict[str, List[tuple]] = {key: [] for key in sql_by_key}
    executed = dict.fromkeys(sql_by_key, 0)
    for key, row in keyed_rows:
        batch = batches[key]
        batch.append(row)
        if len(batch) >= BATCH_ROWS:
            cur.executemany(sql_by_key[key], batch)
            executed[key] += len(batch)
            batch.clear()
    for key, batch in batches.items():
        if batch:
            cur.executemany(sql_by_key[key], batch)
            executed[key] += len(batch)
    return executed


def _label_inserts(distance: bool) -> Dict[str, str]:
    """LIN/LOUT ``INSERT`` statements keyed ``"in"`` / ``"out"``."""
    dist, values = (", DIST", "?, ?, ?") if distance else ("", "?, ?")
    return {
        "in": f"INSERT INTO LIN (ID, INID{dist}) VALUES ({values})",
        "out": f"INSERT INTO LOUT (ID, OUTID{dist}) VALUES ({values})",
    }


def _cover_meta(cover: Cover) -> List[Tuple[str, str]]:
    """The ``META`` rows that describe ``cover``."""
    return [
        ("distance", "1" if cover.is_distance_aware else "0"),
        ("nodes", ",".join(map(str, sorted(cover.nodes)))),
    ]


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


def _changed_ids(now: List[Optional[array]], was: List[Optional[array]]) -> Set[int]:
    """Ids whose row in ``now`` is not the very object ``was`` holds."""
    ids = set(compress(count(), map(is_not, now, was)))
    ids.update(i for i in range(len(was), len(now)) if now[i] is not None)
    return ids


def _row_entries(tables: List[List[Optional[array]]], iid: int) -> Sequence:
    """Row ``iid`` of aligned label tables: its center ids, or on a
    distance cover its ``(center id, distance)`` pairs."""
    row = tables[0][iid] if iid < len(tables[0]) else None
    if not row:
        return ()
    return row if len(tables) == 1 else list(zip(row, tables[1][iid]))


def _label_rows(new: Cover, old: Cover, inserting: bool) -> Iterator:
    """Keyed ``("in" | "out", row)`` LIN/LOUT rows that take the stored
    labels from ``old`` to ``new``: the entries ``new`` lacks (to
    delete), or with ``inserting`` the entries ``old`` lacks (to
    insert). Only label rows whose arrays (or distance arrays) are not
    ``old``'s objects are compared, entry by entry: a maintained row
    usually keeps most of its entries. A changed distance is both a
    delete and an insert."""
    label = new.interner.label
    distance = new.is_distance_aware
    for kind, attr in (("in", "_lin"), ("out", "_lout")):
        names = (attr, attr + "_dist") if distance else (attr,)
        now = [getattr(new, name) for name in names]
        was = [getattr(old, name) for name in names]
        for i in sorted(set().union(*map(_changed_ids, now, was))):
            mine, theirs = _row_entries(was, i), _row_entries(now, i)
            if inserting:
                mine, theirs = theirs, mine
            if not mine:
                continue
            node = label(i)
            skip = set(theirs)
            for e in mine:
                if e in skip:
                    continue
                if not distance:
                    yield kind, (node, label(e))
                elif inserting:
                    yield kind, (node, label(e[0]), e[1])
                else:
                    yield kind, (node, label(e[0]))


def _write_cover_delta(cur: sqlite3.Cursor, new: Cover, old: Cover) -> Dict[str, int]:
    """Bring the stored LIN/LOUT rows from ``old`` to ``new``: every
    delete first (a changed distance reinserts the same key), each
    stream in :data:`BATCH_ROWS` batches."""
    deleted = _execute_batched(cur, {
        "in": "DELETE FROM LIN WHERE ID = ? AND INID = ?",
        "out": "DELETE FROM LOUT WHERE ID = ? AND OUTID = ?",
    }, _label_rows(new, old, inserting=False))
    inserted = _execute_batched(
        cur,
        _label_inserts(new.is_distance_aware),
        _label_rows(new, old, inserting=True),
    )
    return {
        "LIN": deleted["in"] + inserted["in"],
        "LOUT": deleted["out"] + inserted["out"],
    }


def persist_index(index: HopiIndex, path: str) -> SQLiteCoverStore:
    """Write a built index (cover + collection) to a database file:
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
