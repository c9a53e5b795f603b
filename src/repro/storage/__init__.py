"""Persistence for the HOPI index (Section 3.4).

The paper stores the 2-hop cover in two relational tables ``LIN(ID,
INID)`` and ``LOUT(ID, OUTID)`` (plus a ``DIST`` column for
distance-aware covers, Section 5.1), indexed forward *and* backward, and
evaluates connection tests as one indexed join. This package reproduces
that design and adds an array-native snapshot format behind one store
interface:

* :mod:`repro.storage.base` — the :class:`CoverStore` contract every
  store implements;
* :mod:`repro.storage.schema` — DDL and the paper's query strings;
* :mod:`repro.storage.db` — :class:`SQLiteCoverStore`, answering
  connection/distance/ancestor/descendant queries in SQL (batched
  ``executemany`` writes, WAL tuning on file databases), plus
  collection persistence for a fully self-contained index file;
* :mod:`repro.storage.snapshot` — CSR-style binary snapshots that
  round-trip covers without per-row Python overhead;
* :mod:`repro.storage.memstore` — an in-memory store with the same
  interface (the benchmark baseline for the SQL overhead).
"""

from repro.storage.base import CoverStore
from repro.storage.db import SQLiteCoverStore, load_index, persist_index
from repro.storage.memstore import MemoryCoverStore
from repro.storage.snapshot import (
    SnapshotCoverStore,
    load_snapshot,
    save_snapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
)

__all__ = [
    "CoverStore",
    "SQLiteCoverStore",
    "MemoryCoverStore",
    "SnapshotCoverStore",
    "load_index",
    "persist_index",
    "load_snapshot",
    "save_snapshot",
    "snapshot_from_bytes",
    "snapshot_to_bytes",
]
