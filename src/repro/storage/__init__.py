"""Persistence for the HOPI index (Section 3.4).

The paper stores the 2-hop cover in two relational tables ``LIN(ID,
INID)`` and ``LOUT(ID, OUTID)`` (plus a ``DIST`` column for
distance-aware covers, Section 5.1), indexed forward *and* backward, and
evaluates connection tests as one indexed join. This package reproduces
that design next to an array-native snapshot format:

* :mod:`repro.storage.schema` — DDL and the paper's query strings;
* :mod:`repro.storage.db` — :class:`SQLiteCoverStore`, the one store:
  it writes whole indexes (a delta against the last write, or a full
  write), loads them back, and answers the paper's query shapes in SQL;
* :mod:`repro.storage.snapshot` — CSR-style binary snapshots that
  round-trip covers without per-row Python overhead;
* :mod:`repro.storage.wal` — the update WAL and the crash-recoverable
  :class:`~repro.storage.wal.DurableIndexStore` over ``index.db``.
"""

from repro.storage.db import SQLiteCoverStore, load_index, persist_index
from repro.storage.snapshot import (
    load_snapshot,
    save_snapshot,
    snapshot_to_bytes,
)

__all__ = [
    "SQLiteCoverStore",
    "load_index",
    "persist_index",
    "load_snapshot",
    "save_snapshot",
    "snapshot_to_bytes",
]
