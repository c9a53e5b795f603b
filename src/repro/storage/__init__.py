"""Persistence for the HOPI index.

The paper (Section 3.4) stores the 2-hop cover in two relational tables
``LIN(ID, INID)`` and ``LOUT(ID, OUTID)``, indexed forward and
backward. Here the cover built by pruned landmark labelling is derived
state — deterministic, and about as fast to rebuild as to read back —
so an index file holds only the collection:

* :mod:`repro.storage.schema` — the file's DDL;
* :mod:`repro.storage.db` — :class:`SQLiteCoverStore`, the one store:
  it writes an index's collection (a delta against the last write, or a
  full write) and loads it back, rebuilding the cover;
* :mod:`repro.storage.snapshot` — CSR-style binary snapshots that
  round-trip covers without per-row Python overhead;
* :mod:`repro.storage.wal` — the update WAL and the crash-recoverable
  :class:`~repro.storage.wal.DurableIndexStore` over ``index.db`` and a
  snapshot of its maintained cover.
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
